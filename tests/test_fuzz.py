"""Fuzz every input the CLI reads. Each example takes a finished tiny
pipeline, applies one mutation (a bit flip, a truncation, or a dropped or
duplicated line) to one of its inputs, and runs a command that reads that
input through cli.main in process. cli.main turns an AuditToolError into
exit 2, 3 or 4; any other exception escapes it and fails the test."""

import gzip
import json
import os
import shutil
import tempfile

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from cslaudit import cli

STAGES = ("gen", "corrupt", "train", "audit", "eval", "heatmap")

# Every path is relative to the run's working directory, so that no bit flip
# in the config can point a command outside it: one flipped bit of "run"
# yields another relative name, never a "/" or "..".
CONFIG = {
    "seed": 3,
    "out_dir": "run",
    "grammar": {"num_classes": 3, "feature_dim": 4, "feature_noise_sigma": 0.5,
                "class_mean_scale": 2.0, "duration_min": 8,
                "duration_max": 12, "boundary_blend": 2},
    "data": {"n_train": 4, "n_val": 2, "n_test": 3,
             "train_path": "run/train.jsonl.gz",
             "audit_path": "run/test_mislabel.jsonl"},
    "corruption": {"kind": "mislabel", "fraction": 0.5,
                   "segment_len_min": 3, "segment_len_max": 6},
    "model": {"hidden_dim": 8, "head_dims": [6, 4],
              "temporal_mode": "attention", "attention_dim": 4},
    "train": {"epochs": 3, "learning_rate": 1e-3},
    "detection": {"mode": "percentile", "k_percent": 10.0, "window": 2,
                  "audit_loss": "train_weighted"},  # reads class_weights
}

# (input file, a command that reads it)
INPUTS = [("config.json", stage) for stage in STAGES] + [
    ("run/train.jsonl.gz", "train"),
    ("run/test.jsonl", "corrupt"),
    ("run/test_mislabel.jsonl", "audit"),
    ("run/store/manifest.json", "audit"),
    ("run/store/ckpt_0002.bin", "audit"),
    ("run/profiles.json", "eval"),
    ("run/profiles.json", "heatmap"),
]


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """A directory holding config.json and the artifacts of every stage."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "config.json").write_text(json.dumps(CONFIG))
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for stage in STAGES[:-1]:
            assert cli.main([stage, "--config", "config.json"]) == 0
    finally:
        os.chdir(cwd)
    return root


def mutate(data: bytes, kind: str, where: float, bit: int) -> bytes:
    """data with one mutation at relative position `where` in [0, 1)."""
    if kind == "flip":
        i = int(where * len(data))
        return data[:i] + bytes([data[i] ^ 1 << bit]) + data[i + 1:]
    if kind == "truncate":
        return data[:int(where * len(data))]
    lines = data.splitlines(keepends=True)
    i = int(where * len(lines))
    if kind == "duplicate":
        lines.insert(i, lines[i])
    else:
        del lines[i]
    return b"".join(lines)


MANIFEST = ("run/store/manifest.json", "audit")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
# Escapes found by this test, each a traceback before its fix. A bit 7 flip
# makes a byte that is not UTF-8: UnicodeDecodeError.
@example(target=MANIFEST, kind="flip", where=0.5, bit=7, inside_gzip=False)
@example(target=("run/profiles.json", "eval"), kind="flip", where=0.5, bit=7,
         inside_gzip=False)
# The manifest's line 17 of 47 holds fingerprints.grammar: KeyError.
@example(target=MANIFEST, kind="drop", where=0.37, bit=0, inside_gzip=False)
# Its line 2 holds the first of three class weights; with two, the
# train-weighted audit raised IndexError.
@example(target=MANIFEST, kind="drop", where=0.05, bit=0, inside_gzip=False)
@given(target=st.sampled_from(INPUTS),
       kind=st.sampled_from(["flip", "truncate", "drop", "duplicate"]),
       where=st.integers(0, 999).map(lambda k: k / 1000),
       bit=st.integers(0, 7),
       inside_gzip=st.booleans())
def test_one_mutated_input_ends_in_a_documented_exit(
        pipeline, target, kind, where, bit, inside_gzip):
    """inside_gzip mutates a .gz file's text, not its compressed bytes."""
    name, command = target
    work = tempfile.mkdtemp(dir=pipeline.parent)
    cwd = os.getcwd()
    try:
        shutil.copytree(pipeline, work, dirs_exist_ok=True)
        os.chdir(work)
        with open(name, "rb") as f:
            data = f.read()
        if inside_gzip and name.endswith(".gz"):
            data = gzip.compress(mutate(gzip.decompress(data), kind, where,
                                        bit), mtime=0)
        else:
            data = mutate(data, kind, where, bit)
        with open(name, "wb") as f:
            f.write(data)
        code = cli.main([command, "--config", "config.json"])
        event(f"{name} {command}: exit {code}")
        assert code in (0, 2, 3, 4)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work)
