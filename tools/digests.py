"""A digest manifest of the benchmark workloads: for each workload in
BENCHMARK.json at benchmark seeds 0 and 5, then for `long-audit` at seed 0,
the six stages run as fresh `python -m cslaudit.cli` processes on this
checkout's `src/`, in a temporary directory. `long-audit` is not a
BENCHMARK.json workload, but at seed 0 each of its 14 audited videos
(T 1,026 to 1,287, 24 checkpoints) replays one checkpoint per chunk, and
its profiles hold the most loss memory of any workload: it covers the
audit's many-chunk path and its largest outputs. Printed: each stage's exit
code and the sha256 of its stdout and stderr (the run directory written as
`<out>`), then one sha256 per output file, by its path under the run
directory.

Two checkouts that make the same bytes print the same manifest, so a change
that claims byte identity can show the manifests of both sides:

    python tools/digests.py > after.txt   # here, and in the parent's copy
    diff before.txt after.txt

Configs come from bench/workloads.make_config, which this script only imports.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import workloads as W  # noqa: E402

SEEDS = (0, 5)
EXTRA = (("long-audit", 0),)  # (workload, seed) run after BENCHMARK.json's


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_workload(name: str, seed: int, work: str) -> list[str]:
    """The manifest lines of one workload at one seed, run under work."""
    out = os.path.join(work, f"{name}-{seed}")
    cfg_path = out + ".json"
    with open(cfg_path, "w", encoding="utf-8") as f:
        json.dump(W.make_config(name, seed, out), f)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    lines = []
    for stage in W.STAGES:
        proc = subprocess.run(
            [sys.executable, "-m", "cslaudit.cli", stage, "--config", cfg_path],
            capture_output=True, env=env, check=False)
        stdout, stderr = (s.replace(out.encode(), b"<out>")
                          for s in (proc.stdout, proc.stderr))
        lines.append(f"{name} {seed} {stage} exit {proc.returncode} "
                     f"stdout {sha(stdout)} stderr {sha(stderr)}")
    for dirpath, _, files in sorted(os.walk(out)):
        for file in sorted(files):
            path = os.path.join(dirpath, file)
            with open(path, "rb") as f:
                lines.append(f"{name} {seed} {os.path.relpath(path, out)} "
                             f"{sha(f.read())}")
    return lines


def main() -> None:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    runs = [(name, seed) for name in names for seed in SEEDS] + list(EXTRA)
    with tempfile.TemporaryDirectory() as work:
        for name, seed in runs:
            print("\n".join(run_workload(name, seed, work)), flush=True)


if __name__ == "__main__":
    main()
