"""The function statements of the cslaudit package that no test runs.

Runs the tier-1 suite in this process under a line tracer (sys.settrace)
that records only frames of src/cslaudit, then prints each statement inside
a function that none of its lines ran, as `path:line: source`, and a count.
A statement counts as run when any line of it ran; for a compound statement
(if, for, while, with) only its header counts, and a try statement, which
has no code of its own, is left out, as are docstrings. Code that a test
runs in a subprocess (a console run) is not seen. Hypothesis' deadlines are
switched off, since tracing slows every example.

    python tools/uncovered.py [pytest args, default: the tests directory]

It needs no coverage package, and runs on Python 3.11, which has no
sys.monitoring.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cslaudit"


def _statements(body):
    """Every statement of a function body, compound ones before theirs;
    a nested def is yielded, its body left to its own function."""
    for node in body:
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(node, field, []))
        for handler in getattr(node, "handlers", []):
            yield from _statements(handler.body)


def function_statements(tree: ast.Module):
    """(node, lines that count as running it) of each function statement."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = fn.body
        if isinstance(body[0], ast.Expr) and isinstance(
                body[0].value, ast.Constant) \
                and isinstance(body[0].value.value, str):
            body = body[1:]
        for node in _statements(body):
            if isinstance(node, (ast.Try, ast.Global, ast.Nonlocal)):
                continue
            inner = getattr(node, "body", None)
            if isinstance(inner, list) and inner and not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.ClassDef)):
                end = inner[0].lineno - 1  # the header alone
            else:
                end = node.end_lineno
            yield node, range(node.lineno, max(end, node.lineno) + 1)


def trace_suite(args: list[str]) -> set[tuple[str, int]]:
    """(file, line) of every package line the suite ran."""
    import hypothesis
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    hypothesis.settings.register_profile("traced", deadline=None)
    hypothesis.settings.load_profile("traced")
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(start)
    sys.settrace(start)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider",
                     "--continue-on-collection-errors",
                     *(args or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return ran


def main() -> None:
    ran = trace_suite(sys.argv[1:])
    missed = total = 0
    lines_out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for node, span in sorted(function_statements(ast.parse(source)),
                                 key=lambda s: s[0].lineno):
            total += 1
            if not any((str(path), i) in ran for i in span):
                missed += 1
                lines_out.append(f"{path.relative_to(ROOT)}:{node.lineno}: "
                                 f"{lines[node.lineno - 1].strip()}")
    print("\n".join(lines_out))
    print(f"{missed} of {total} function statements not run")


if __name__ == "__main__":
    main()
