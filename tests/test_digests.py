"""Byte identity to recorded digests: the six stages, run in process on four
small configs, must leave every file under out_dir with the sha256 recorded
in digests.json, and each stage must print the recorded stdout and stderr
(the run directory written as `<out>`) and return the recorded exit code.

The configs cover both temporal modes (attention, context-free), both
detection modes (percentile; threshold with tau calibrated on val), both
audit losses, both corruption kinds, T x T attention rows on both sides of
the width from which the softmax changes its numpy path, and videos whose
checkpoints replay in one chunk and in two. The bits of gen, train and
audit depend on numpy and the BLAS, so digests.json records those too, and
on another environment the test fails naming the difference.

A change that alters bytes on purpose re-records the digests and lists each
changed one with its reason:

    PYTHONPATH=src python tests/test_digests.py
"""

import contextlib
import copy
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from cslaudit import cli

DIGESTS = Path(__file__).with_name("digests.json")
STAGES = ("gen", "corrupt", "train", "audit", "eval", "heatmap")

# criterion 9's pipeline, and its context-free twin
RUNS = {
    "attention-percentile-mislabel": {
        "seed": 5,
        "grammar": {"num_classes": 4, "feature_dim": 6,
                    "feature_noise_sigma": 0.5, "class_mean_scale": 2.0,
                    "duration_min": 8, "duration_max": 12,
                    "boundary_blend": 2},
        "data": {"n_train": 6, "n_val": 3, "n_test": 4},
        "corruption": {"kind": "mislabel", "fraction": 0.5,
                       "segment_len_min": 3, "segment_len_max": 6},
        "model": {"hidden_dim": 12, "head_dims": [8, 6],
                  "temporal_mode": "attention", "attention_dim": 6},
        "train": {"epochs": 4, "learning_rate": 1e-3},
        "detection": {"mode": "percentile", "k_percent": 10.0, "window": 2},
    },
    "context-free-threshold-disorder": {
        "seed": 3,
        "grammar": {"num_classes": 4, "feature_dim": 6,
                    "feature_noise_sigma": 0.5, "class_mean_scale": 2.0,
                    "duration_min": 8, "duration_max": 12,
                    "boundary_blend": 2},
        "data": {"n_train": 6, "n_val": 3, "n_test": 4},
        "corruption": {"kind": "disorder", "fraction": 0.5},
        "model": {"hidden_dim": 12, "head_dims": [8, 6],
                  "temporal_mode": "context_free"},
        "train": {"epochs": 4, "learning_rate": 1e-3},
        "detection": {"mode": "threshold", "tau": None, "window": 2,
                      "audit_loss": "train_weighted"},
    },
    # attention on videos of T ~200-260, so that the T x T softmax rows are
    # well past model._UNBUFFERED_MIN columns
    "attention-long-rows": {
        "seed": 7,
        "grammar": {"num_classes": 4, "feature_dim": 6,
                    "feature_noise_sigma": 0.5, "class_mean_scale": 2.0,
                    "duration_min": 50, "duration_max": 65,
                    "boundary_blend": 3},
        "data": {"n_train": 3, "n_val": 2, "n_test": 3},
        "corruption": {"kind": "mislabel", "fraction": 0.5,
                       "segment_len_min": 5, "segment_len_max": 20},
        "model": {"hidden_dim": 12, "head_dims": [8, 6],
                  "temporal_mode": "attention", "attention_dim": 6},
        "train": {"epochs": 3, "learning_rate": 1e-3},
        "detection": {"mode": "percentile", "k_percent": 10.0, "window": 2},
    },
    # attention on videos of T ~300-390 under 8 checkpoints: csl.CHUNK_ROWS
    # // T is 5 or 6, so every video, val's too, replays in two chunks and
    # the second is partial
    "attention-split-chunks": {
        "seed": 11,
        "grammar": {"num_classes": 4, "feature_dim": 6,
                    "feature_noise_sigma": 0.5, "class_mean_scale": 2.0,
                    "duration_min": 75, "duration_max": 97,
                    "boundary_blend": 3},
        "data": {"n_train": 2, "n_val": 2, "n_test": 3},
        "corruption": {"kind": "mislabel", "fraction": 0.5,
                       "segment_len_min": 5, "segment_len_max": 20},
        "model": {"hidden_dim": 12, "head_dims": [8, 6],
                  "temporal_mode": "attention", "attention_dim": 6},
        "train": {"epochs": 8, "learning_rate": 1e-3},
        "detection": {"mode": "threshold", "tau": None, "window": 2},
    },
}


def environment() -> dict:
    """What the bits of gen, train and audit depend on besides the code."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '?')}"
    except (TypeError, KeyError):  # numpy before 1.25 prints only
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def run_pipeline(cfg: dict, work: Path) -> dict:
    """The six stages on cfg in work/out: each stage's exit code, stdout and
    stderr, then the sha256 of each file under out by its relative path."""
    out = work / "out"
    cfg = copy.deepcopy(cfg)
    cfg["out_dir"] = str(out)
    cfg["data"]["audit_path"] = str(
        out / f"test_{cfg['corruption']['kind']}.jsonl")
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    got = {}
    for stage in STAGES:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            got[f"{stage} exit"] = cli.main([stage, "--config", str(cfg_path)])
        got[f"{stage} stdout"] = stdout.getvalue().replace(str(out), "<out>")
        got[f"{stage} stderr"] = stderr.getvalue().replace(str(out), "<out>")
    for path in sorted(out.rglob("*")):
        if path.is_file():
            got[path.relative_to(out).as_posix()] = \
                hashlib.sha256(path.read_bytes()).hexdigest()
    return got


@pytest.mark.parametrize("name", sorted(RUNS))
def test_pipeline_bytes_match_recorded(name, tmp_path):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    want, got = recorded["runs"][name], run_pipeline(RUNS[name], tmp_path)
    problems = [f"{key}: recorded {want.get(key)!r}, got {got.get(key)!r}"
                for key in sorted(want.keys() | got.keys())
                if want.get(key) != got.get(key)]
    here = environment()
    moved = [f"{k} {recorded['environment'][k]!r} where the digests were "
             f"recorded, {here[k]!r} here" for k in sorted(here)
             if recorded["environment"][k] != here[k]]
    assert not moved, ("another environment: " + "; ".join(moved)
                       + "; re-record there to compare bytes ("
                       + f"{len(problems)} of {len(want)} entries differ)")
    assert not problems, "\n".join(problems)


if __name__ == "__main__":  # re-record digests.json
    runs = {}
    for name, cfg in sorted(RUNS.items()):
        with tempfile.TemporaryDirectory() as work:
            runs[name] = run_pipeline(cfg, Path(work))
    DIGESTS.write_text(json.dumps({"environment": environment(), "runs": runs},
                                  indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {DIGESTS}", file=sys.stderr)
