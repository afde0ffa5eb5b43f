"""Benchmark workloads: the config each one hands the CLI, and the output check.

A workload is a function of the benchmark seed only. The seed is folded into
one of REF_SEEDS data seeds, because every data seed needs a reference result
recorded from known-good code (refs.json) for the correctness check.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os

REF_SEEDS = 12
STAGES = ("gen", "corrupt", "train", "audit", "eval", "heatmap")
AUC_TOL = 1e-6

# The README's minimal config; every workload is a set of overrides on it.
README_CONFIG = {
    "grammar": {"num_classes": 6, "feature_dim": 16},
    "data": {"n_train": 40, "n_val": 10, "n_test": 20},
    "corruption": {"kind": "mislabel", "fraction": 0.5},
    "train": {"epochs": 50},
}

# Why each workload exists, and what it stresses, is in README.md next to
# this file and in BENCHMARK.json.
WORKLOADS = {
    # The run users actually do: the README default (attention, T~360), with
    # 10 epochs instead of 50 so that a run holds five passes.
    "default-attn": {"train": {"epochs": 10}},
    # Short context-free sequences, many videos, tau calibrated on val:
    # per-call overhead dominates and no T x T attention runs.
    "cf-short": {
        "grammar": {"duration_min": 8, "duration_max": 16},
        "data": {"n_train": 200, "n_val": 40, "n_test": 200},
        "corruption": {"kind": "disorder"},
        "model": {"temporal_mode": "context_free"},
        "train": {"epochs": 10},
        "detection": {"mode": "threshold", "tau": None},
    },
    # Few, long attention sequences (T~1200): the T x T softmax dominates
    # the audit, and the optimizer is a negligible share of training.
    "long-audit": {
        "grammar": {"duration_min": 150, "duration_max": 250},
        "data": {"n_train": 4, "n_val": 4, "n_test": 14},
        "train": {"epochs": 24},
    },
    # Tiny pipeline for the smoke test; not listed in BENCHMARK.json.
    "quick": {
        "grammar": {"duration_min": 8, "duration_max": 12},
        "data": {"n_train": 6, "n_val": 3, "n_test": 5},
        "corruption": {"segment_len_min": 3, "segment_len_max": 6},
        "train": {"epochs": 4},
    },
}


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


def data_seed(seed: int) -> int:
    return seed % REF_SEEDS


def make_config(workload: str, seed: int, out_dir: str) -> dict:
    """The full config the CLI sees for this workload and benchmark seed."""
    cfg = _merge(README_CONFIG, WORKLOADS[workload])
    cfg["seed"] = data_seed(seed)
    cfg["out_dir"] = out_dir
    kind = cfg["corruption"]["kind"]
    cfg["data"]["audit_path"] = os.path.join(out_dir, f"test_{kind}.jsonl")
    return cfg


def count_frames(jsonl_path: str) -> int:
    """Frames in a dataset JSONL file (header line skipped)."""
    with open(jsonl_path, encoding="utf-8") as f:
        next(f)
        return sum(len(json.loads(line)["labels"]) for line in f if line.strip())


def flags_digest(audit_csv: str) -> tuple[str, int]:
    """sha256 of the video_id,frame,flag columns of audit.csv, and row count."""
    h = hashlib.sha256()
    rows = 0
    with open(audit_csv, encoding="utf-8") as f:
        cols = next(f).rstrip("\n").split(",")
        vi, fi, gi = cols.index("video_id"), cols.index("frame"), cols.index("flag")
        for line in f:
            parts = line.rstrip("\n").split(",")
            h.update(f"{parts[vi]},{parts[fi]},{parts[gi]}\n".encode())
            rows += 1
    return h.hexdigest(), rows


def reference_of(out_dir: str) -> dict:
    """What the correctness check compares: micro-AUC, EDA and the flags."""
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as f:
        report = json.load(f)
    digest, rows = flags_digest(os.path.join(out_dir, "audit.csv"))
    return {"micro_auc": report["micro_auc"], "eda": report["eda"],
            "flags_sha256": digest, "audit_rows": rows}


def check_stage(stage: str, cfg: dict, ref: dict) -> str | None:
    """Check one stage's outputs against the reference; None when they pass,
    otherwise a one-line reason."""
    out = cfg["out_dir"]
    try:
        if stage == "gen":
            missing = [s for s in ("train", "val", "test")
                       if not os.path.isfile(os.path.join(out, f"{s}.jsonl"))]
            return f"missing splits {missing}" if missing else None
        if stage == "corrupt":
            return None if os.path.isfile(cfg["data"]["audit_path"]) \
                else "no corrupted split"
        if stage == "train":
            with open(os.path.join(out, "store", "manifest.json"),
                      encoding="utf-8") as f:
                epochs = json.load(f)["epochs"]
            want = cfg["train"]["epochs"]
            return None if len(epochs) == want \
                else f"{len(epochs)} checkpoints, expected {want}"
        if stage == "audit":
            digest, rows = flags_digest(os.path.join(out, "audit.csv"))
            if rows != ref["audit_rows"] or digest != ref["flags_sha256"]:
                return "audit.csv flags differ from the reference"
            return None
        if stage == "eval":
            with open(os.path.join(out, "report.json"), encoding="utf-8") as f:
                report = json.load(f)
            if report["eda"] != ref["eda"]:
                return f"EDA {report['eda']} != reference {ref['eda']}"
            auc, want = report["micro_auc"], ref["micro_auc"]
            if auc is None or want is None:
                same = auc == want
            else:
                same = abs(auc - want) <= AUC_TOL
            return None if same else f"micro-AUC {auc} != reference {want}"
        if stage == "heatmap":
            n = sum(1 for f in os.listdir(out) if f.startswith("heatmap_"))
            want = cfg["data"]["n_test"]
            return None if n == want else f"{n} heatmaps, expected {want}"
    except (OSError, ValueError, KeyError, TypeError, StopIteration) as e:
        return f"{type(e).__name__}: {e}"
    raise ValueError(f"unknown stage {stage!r}")


def artifact_bytes(out_dir: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(out_dir):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total
