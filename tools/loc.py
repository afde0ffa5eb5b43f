"""Line counts of the cslaudit package: all lines and code lines per module,
then the total. Code lines leave out blank lines, comment lines and the
lines of docstrings (module, class and function), the last found with `ast`.

Run from anywhere: python tools/loc.py
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cslaudit"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based numbers of the lines that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(path: Path) -> tuple[int, int]:
    """(all lines, code lines) of one source file."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    skip = docstring_lines(ast.parse(source))
    code = sum(1 for i, line in enumerate(lines, 1)
               if i not in skip and line.strip()
               and not line.lstrip().startswith("#"))
    return len(lines), code


def main() -> None:
    total_all = total_code = 0
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for path in sorted(PACKAGE.glob("*.py")):
        n_all, n_code = counts(path)
        total_all += n_all
        total_code += n_code
        print(f"{path.name:<16}{n_all:>7}{n_code:>7}")
    print(f"{'total':<16}{total_all:>7}{total_code:>7}")


if __name__ == "__main__":
    main()
