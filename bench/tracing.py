"""In-process traced run: spans around calls into each cslaudit module.

Nothing under src/ changes. Each traced function is replaced, for the length
of a pass, by a wrapper that records a span (id, parent, stage, name, start,
end, counts). The wrapper is installed wherever the module graph holds the
original function object, so by-name imports such as
`trainer.dataset_fingerprint` or `metrics.frames_to_segments` are traced too.
Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from workloads import STAGES


def _forward_counts(a, k, r):
    cfg, frames = a[1], a[2]
    train = k.get("train", a[3] if len(a) > 3 else False)
    T = len(frames)
    attn = T * T if cfg.temporal_mode == "attention" else 0
    return {"train": bool(train), "frames": T, "attn_elems": attn}


# (module, function, counts(args, kwargs, result) or None). Functions with no
# metric of their own are traced so that their callers' self time excludes them.
TRACED = [
    ("seqdata", "read_dataset",
     lambda a, k, r: {"bytes": os.path.getsize(a[0])}),
    ("seqdata", "write_dataset",
     lambda a, k, r: {"bytes": os.path.getsize(a[1])}),
    ("seqdata", "generate_dataset", None),
    ("seqdata", "corrupt_dataset", None),
    ("seqdata", "dataset_fingerprint", None),
    ("seqdata", "grammar_fingerprint", None),
    ("model", "forward", _forward_counts),
    ("model", "backward", lambda a, k, r: {"frames": len(a[2])}),
    ("model", "sinusoidal_encoding", None),
    ("model", "_softmax_rows", None),
    ("model", "_layernorm", None),
    ("model", "_layernorm_backward", None),
    ("model", "per_frame_losses", None),
    ("trainer", "train", None),
    ("trainer", "adamw_step", None),
    ("trainer", "encode_snapshot", lambda a, k, r: {"bytes": len(r)}),
    ("trainer", "decode_snapshot", lambda a, k, r: {"bytes": len(a[0])}),
    ("trainer", "load_store", None),
    ("csl", "eval_loss_trajectory", None),
    ("csl", "compute_csl", None),
    ("csl", "smooth_csl", None),
    ("csl", "flag_threshold", None),
    ("csl", "flag_percentile", None),
    ("csl", "calibrate_tau", None),
    ("csl", "frames_to_segments", None),
    ("csl", "trajectory_curvature", None),
    ("metrics", "build_report", None),
    ("metrics", "micro_auc", None),
    ("metrics", "eda", None),
    ("cli", "cmd_gen", None),
    ("cli", "cmd_corrupt", None),
    ("cli", "cmd_train", None),
    ("cli", "cmd_audit", None),
    ("cli", "cmd_eval", None),
    ("cli", "cmd_heatmap", None),
    ("cli", "_compute_tau", None),
    ("cli", "_load_profiles", lambda a, k, r: {
        "bytes": os.path.getsize(os.path.join(a[0]["out_dir"],
                                              "profiles.json"))}),
    ("cli", "write_pgm", None),
]
MODULES = ("seqdata", "model", "trainer", "csl", "metrics", "cli")

# Per-layer metrics, in BENCHMARK.json order: (name, unit).
# "<fn>.s" is busy time, "<fn>.self_s" busy time minus traced children.
PER_LAYER = [
    ("import.numpy_s", "s"), ("import.scipy_s", "s"), ("import.cslaudit_s", "s"),
    ("read_dataset.calls", "count"), ("read_dataset.s", "s"),
    ("read_dataset.bytes", "bytes"), ("write_dataset.s", "s"),
    ("write_dataset.bytes", "bytes"), ("dataset_fingerprint.s", "s"),
    ("generate_dataset.s", "s"), ("corrupt_dataset.s", "s"),
    ("forward.eval_calls", "count"), ("forward.eval_frames", "count"),
    ("forward.eval_s", "s"), ("forward.attn_elems", "count"),
    ("backward.calls", "count"), ("backward.frames", "count"),
    ("backward.s", "s"), ("backward.self_s", "s"),
    ("sinusoidal_encoding.calls", "count"), ("sinusoidal_encoding.s", "s"),
    ("softmax_rows.s", "s"), ("layernorm.s", "s"),
    ("layernorm_backward.s", "s"),
    ("adamw_step.calls", "count"), ("adamw_step.s", "s"),
    ("encode_snapshot.calls", "count"), ("encode_snapshot.s", "s"),
    ("encode_snapshot.bytes", "bytes"),
    ("decode_snapshot.calls", "count"), ("decode_snapshot.s", "s"),
    ("load_store.s", "s"), ("train.self_s", "s"),
    ("eval_loss_trajectory.calls", "count"), ("eval_loss_trajectory.s", "s"),
    ("eval_loss_trajectory.self_s", "s"), ("calibrate_tau.s", "s"),
    ("smooth_csl.s", "s"), ("frames_to_segments.s", "s"),
    ("trajectory_curvature.s", "s"),
    ("build_report.s", "s"), ("micro_auc.calls", "count"), ("micro_auc.s", "s"),
    ("cmd_gen.s", "s"), ("cmd_corrupt.s", "s"), ("cmd_train.s", "s"),
    ("cmd_audit.s", "s"), ("cmd_audit.self_s", "s"), ("cmd_eval.s", "s"),
    ("cmd_heatmap.s", "s"), ("load_profiles.s", "s"),
    ("load_profiles.bytes", "bytes"), ("write_pgm.s", "s"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    """Records one span per traced call, in memory."""

    def __init__(self):
        self.spans: list = []     # (id, parent, stage, name, start, end, counts)
        self._stack: list[int] = []

    def wrap(self, fn, name, counts):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            stage = stack[0] if stack else sid
            spans.append(None)
            stack.append(sid)
            c = t1 = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                t1 = time.perf_counter()
                if counts:
                    c = counts(args, kwargs, result)
                return result
            finally:
                if t1 is None:  # the call raised
                    t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (sid, parent, stage, name, t0, t1, c)
        return traced


@contextlib.contextmanager
def traced_modules(tracer: Tracer):
    """Install tracing wrappers for the length of the block."""
    import cslaudit
    mods = [cslaudit] + [sys.modules[f"cslaudit.{m}"] for m in MODULES]
    undo = []
    try:
        for home, fname, counts in TRACED:
            orig = getattr(sys.modules[f"cslaudit.{home}"], fname, None)
            if orig is None:
                continue  # gone at this commit; its metrics read 0
            wrapper = tracer.wrap(orig, fname, counts)
            for mod in mods:
                if getattr(mod, fname, None) is orig:
                    setattr(mod, fname, wrapper)
                    undo.append((mod, fname, orig))
        yield
    finally:
        for mod, fname, orig in reversed(undo):
            setattr(mod, fname, orig)


def layer_metrics(spans: list) -> tuple[dict, dict]:
    """Per-layer busy time, self time and counts from one pass's spans."""
    child_s = defaultdict(float)
    for _, parent, _, _, t0, t1, _ in spans:
        if parent is not None:
            child_s[parent] += t1 - t0
    times = defaultdict(float)
    counts = defaultdict(int)
    for sid, _, _, name, t0, t1, c in spans:
        key = name.lstrip("_")
        c = c or {}
        if name == "forward":
            counts["forward.attn_elems"] += c["attn_elems"]
            key = "forward_train" if c["train"] else "forward_eval"
        times[f"{key}.s"] += t1 - t0
        times[f"{key}.self_s"] += t1 - t0 - child_s[sid]
        counts[f"{key}.calls"] += 1
        for field in ("bytes", "frames"):
            if field in c:
                counts[f"{key}.{field}"] += c[field]
    for old, new in (("forward_eval.s", "forward.eval_s"),
                     ("forward_eval.calls", "forward.eval_calls"),
                     ("forward_eval.frames", "forward.eval_frames")):
        for d in (times, counts):
            if old in d:
                d[new] = d.pop(old)
    return dict(times), dict(counts)


def import_breakdown(python: str, env: dict, cwd: str) -> dict:
    """Import time of numpy, scipy and cslaudit's own modules when a fresh
    interpreter runs `import cslaudit.cli`, from `python -X importtime`.

    Each module's self time goes to the package that first pulled it in:
    numpy or scipy where one of them is on the import chain, else cslaudit.
    """
    proc = subprocess.run(
        [python, "-X", "importtime", "-c", "import cslaudit.cli"],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=60)
    if proc.returncode:
        raise RuntimeError(f"import probe failed: {proc.stderr[-500:]}")
    # importtime prints children before their parent, indented 2 per level.
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, int(self_us), name.strip()))
    totals = {"numpy": 0, "scipy": 0, "cslaudit": 0}
    # Walk parents before children: reverse post-order is pre-order.
    chain: list[str | None] = []
    for depth, self_us, name in reversed(rows):
        del chain[depth:]
        parent_owner = chain[-1] if chain else None
        top = name.split(".")[0]
        owner = parent_owner
        if top in ("numpy", "scipy") and parent_owner in (None, "cslaudit"):
            owner = top
        elif top == "cslaudit" and parent_owner is None:
            owner = "cslaudit"
        chain.append(owner)
        if owner:
            totals[owner] += self_us
    return {k: v / 1e6 for k, v in totals.items()}


def median_dicts(dicts: list[dict]) -> dict:
    keys = set().union(*dicts)
    return {k: statistics.median(d.get(k, 0.0) for d in dicts) for k in keys}


def run_pass(cli, cfg_path: str, on_stage) -> float:
    """Run the six stages in process; returns their summed wall time."""
    total = 0.0
    for stage in STAGES:
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main([stage, "--config", cfg_path])
        total += time.perf_counter() - t0
        on_stage(stage, code, sink.getvalue())
    return total
