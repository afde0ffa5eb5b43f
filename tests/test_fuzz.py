"""Fuzz every input the CLI reads. Each example takes a finished tiny
pipeline, applies one mutation to one of its inputs, and runs a command that
reads that input through cli.main in process. A mutation is either of the
bytes (a bit flip, a truncation, or a dropped or duplicated line) or of one
JSON document (the config, the store manifest, profiles.json or a dataset
header): a deleted key or item, a value of another JSON type, or a number
set to NaN, Infinity, -1 or 0. A snapshot's body can be mutated with its
checksum re-sealed, so that the mutation reaches the decoder. cli.main turns
an AuditToolError into exit 2, 3 or 4; any other exception escapes it and
fails the test.

The output side is fuzzed too: a directory or a regular file in place of one
path a command writes must end that command in exit 3, and change nothing
else; so must a write that a file-size limit stops."""

import contextlib
import functools
import gzip
import io
import json
import math
import operator
import os
import shutil
import subprocess
import sys
import tempfile
import zlib

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from cslaudit import cli
from cslaudit.model import ModelConfig, param_shapes

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
# tau calibrated on the val split, which audit then reads too
THRESHOLD = dict(CONFIG, detection=dict(CONFIG["detection"], mode="threshold",
                                        tau=None))

# (input file, a command that reads it, the config it runs with)
INPUTS = [("config.json", stage, "config.json") for stage in STAGES] + [
    ("threshold.json", "audit", "threshold.json"),
    ("run/train.jsonl.gz", "train", "config.json"),
    ("run/test.jsonl", "corrupt", "config.json"),
    ("run/test_mislabel.jsonl", "audit", "config.json"),
    ("run/val.jsonl", "audit", "threshold.json"),
    ("run/store/manifest.json", "audit", "config.json"),
    ("run/store/manifest.json", "audit", "threshold.json"),
    ("run/store/ckpt_0002.bin", "audit", "config.json"),
    ("run/profiles.json", "eval", "config.json"),
    ("run/profiles.json", "heatmap", "config.json"),
]
SNAPSHOT = ("run/store/ckpt_0002.bin", "audit", "config.json")
BINARY = (SNAPSHOT[0],)


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """A directory holding both configs and the artifacts of every stage."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "config.json").write_text(json.dumps(CONFIG))
    (root / "threshold.json").write_text(json.dumps(THRESHOLD))
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for stage in STAGES:
            if stage == "audit":  # profiles.json is the percentile run's
                assert cli.main([stage, "--config", "threshold.json"]) == 0
            assert cli.main([stage, "--config", "config.json"]) == 0
    finally:
        os.chdir(cwd)
    return root


def run_edited(pipeline, name, command, config, edit):
    """Exit code of `command` in a copy of the pipeline whose file `name`
    edit(bytes) changed."""
    work = tempfile.mkdtemp(dir=pipeline.parent)
    cwd = os.getcwd()
    try:
        shutil.copytree(pipeline, work, dirs_exist_ok=True)
        os.chdir(work)
        with open(name, "rb") as f:
            data = edit(f.read())
        with open(name, "wb") as f:
            f.write(data)
        code = cli.main([command, "--config", config])
        event(f"{name} {command} {config}: exit {code}")
        return code
    finally:
        os.chdir(cwd)
        shutil.rmtree(work)


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


MANIFEST = ("run/store/manifest.json", "audit", "config.json")


def resealed(blob: bytes) -> bytes:
    """A snapshot with its checksum recomputed over its (edited) body."""
    body = blob[8:-4]
    return blob[:8] + body + zlib.crc32(body).to_bytes(4, "little")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
# Escapes found by this test, each a traceback before its fix. A bit 7 flip
# makes a byte that is not UTF-8: UnicodeDecodeError.
@example(target=MANIFEST, kind="flip", where=0.5, bit=7, inside=False)
@example(target=("run/profiles.json", "eval", "config.json"), kind="flip",
         where=0.5, bit=7, inside=False)
# The manifest's line 17 of 47 holds fingerprints.grammar: KeyError.
@example(target=MANIFEST, kind="drop", where=0.37, bit=0, inside=False)
# Its line 2 holds the first of three class weights; with two, the
# train-weighted audit raised IndexError.
@example(target=MANIFEST, kind="drop", where=0.05, bit=0, inside=False)
# Bit 7 flipped in the name length of enc.W, 5 then 133, with the checksum
# re-sealed: the name ran into the payload, UnicodeDecodeError.
@example(target=SNAPSHOT, kind="flip", where=0.0, bit=7, inside=True)
@given(target=st.sampled_from(INPUTS),
       kind=st.sampled_from(["flip", "truncate", "drop", "duplicate"]),
       where=st.integers(0, 999).map(lambda k: k / 1000),
       bit=st.integers(0, 7),
       inside=st.booleans())
def test_one_mutated_input_ends_in_a_documented_exit(
        pipeline, target, kind, where, bit, inside):
    """`inside` mutates a .gz file's text, not its compressed bytes, and a
    snapshot's body, not its magic or checksum, which it re-seals."""
    name, command, config = target

    def edit(data):
        if inside and name.endswith(".gz"):
            return gzip.compress(mutate(gzip.decompress(data), kind, where,
                                        bit), mtime=0)
        if inside and name in BINARY:
            return resealed(data[:8] + mutate(data[8:-4], kind, where, bit)
                            + data[-4:])
        return mutate(data, kind, where, bit)

    assert run_edited(pipeline, name, command, config, edit) in (0, 2, 3, 4)


def json_paths(doc, prefix=()) -> list[tuple]:
    """The path of every value below doc, in document order; of a list's
    items only the first and the last."""
    if isinstance(doc, dict):
        keys = list(doc)
    elif isinstance(doc, list):
        keys = sorted({0, len(doc) - 1}) if doc else []
    else:
        return []
    paths = []
    for k in keys:
        paths.append(prefix + (k,))
        paths += json_paths(doc[k], prefix + (k,))
    return paths


# a value of each JSON type; "retype" picks one of another type than the
# value it replaces
OTHER_TYPES = [None, True, "x", [], {}, 7, 0.5]
NUMBERS = {"nan": float("nan"), "inf": float("inf"), "neg": -1, "zero": 0}
DELETED = object()


def edit_json(doc, kind: str, where, pick: int):
    """Edit doc in place once at `where`: a path, or a relative position in
    [0, 1) among its paths (among the paths to numbers for the NUMBERS
    kinds). (path, new value or DELETED), or None if doc has nothing to
    edit."""
    paths = json_paths(doc)
    if kind in NUMBERS:
        paths = [p for p in paths if type(functools.reduce(
            operator.getitem, p, doc)) in (int, float)]
    if not isinstance(where, tuple):
        if not paths:
            return None
        where = paths[int(where * len(paths))]
    parent = functools.reduce(operator.getitem, where[:-1], doc)
    key = where[-1]
    if kind == "delete":
        del parent[key]
        return where, DELETED
    if kind == "retype":
        others = [v for v in OTHER_TYPES if type(v) is not type(parent[key])]
        parent[key] = others[pick % len(others)]
    else:
        parent[key] = NUMBERS[kind]
    return where, parent[key]


def refused_by_load_store(target, edited) -> bool:
    """Whether the audit must exit 3 because the manifest no longer holds a
    class weight that is a finite number > 0, or an epoch loss that is a
    finite number, where it held one."""
    if target[0] != MANIFEST[0] or edited is None:
        return False
    path, value = edited
    finite = type(value) in (int, float) and math.isfinite(value)
    if path[0] == "class_weights":
        return not (finite and value > 0)
    return path[0] == "epoch_losses" and not finite


# Each of these manifests once loaded without an error: the train-weighted
# audit then failed with a numeric error (exit 4) or on a negative loss
# (exit 3), or it audited with exit 0.
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@example(target=MANIFEST, kind="nan", where=("class_weights", 0), pick=0)
@example(target=MANIFEST, kind="inf", where=("class_weights", 0), pick=0)
@example(target=MANIFEST, kind="neg", where=("class_weights", 0), pick=0)
@example(target=MANIFEST, kind="zero", where=("class_weights", 0), pick=0)
@example(target=MANIFEST, kind="nan", where=("epoch_losses", 0), pick=0)
@given(target=st.sampled_from([t for t in INPUTS if t[0] not in BINARY]),
       kind=st.sampled_from(["delete", "retype", *NUMBERS]),
       where=st.integers(0, 999).map(lambda k: k / 1000),
       pick=st.integers(0, 5))
def test_one_json_edit_ends_in_a_documented_exit(pipeline, target, kind,
                                                 where, pick):
    """A dataset's edit goes to its header line; `pick` chooses the new
    value of a retype."""
    name, command, config = target
    edited = []

    def edit(data):
        gz = name.endswith(".gz")
        text = (gzip.decompress(data) if gz else data).decode()
        head, sep, rest = text.partition("\n") if ".jsonl" in name \
            else (text, "", "")
        doc = json.loads(head)
        edited.append(edit_json(doc, kind, where, pick))
        text = json.dumps(doc) + sep + rest
        return gzip.compress(text.encode(), mtime=0) if gz else text.encode()

    code = run_edited(pipeline, name, command, config, edit)
    if refused_by_load_store(target, edited[0]):
        assert code == 3, edited[0]
    assert code in (0, 2, 3, 4)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(where=st.integers(0, 999).map(lambda k: k / 1000),
       bit=st.integers(0, 7))
def test_one_resealed_header_flip_exits_3(pipeline, where, bit):
    """One bit flipped in a tensor record's header (name length, name, rank
    or a dim) of a snapshot whose checksum is then re-sealed: the decoder
    refuses it with exit 3, however large a count it now reads."""
    manifest = json.loads((pipeline / "run/store/manifest.json").read_text())
    shapes = param_shapes(ModelConfig.from_dict(manifest["model"]))
    heads, off = [], 8
    for name, shape in shapes.items():
        size = 4 + len(name.encode()) + 4 + 4 * len(shape)
        heads += range(off, off + size)
        off += size + 4 * math.prod(shape)
    i = heads[int(where * len(heads))]
    event(f"byte {i}")

    def edit(data):
        return resealed(data[:i] + bytes([data[i] ^ 1 << bit]) + data[i + 1:])

    assert run_edited(pipeline, *SNAPSHOT, edit) == 3


# (a path a command writes, that command): the out_dir and the store are
# directories, the rest files
OUTPUTS = [("run", "gen"), ("run/train.jsonl.gz", "gen"),
           ("run/val.jsonl", "gen"), ("run/test.jsonl", "gen"),
           ("run/test_mislabel.jsonl", "corrupt"), ("run/store", "train"),
           ("run/store/manifest.json", "train"), ("run/audit.csv", "audit"),
           ("run/profiles.json", "audit"), ("run/report.json", "eval"),
           ("run/heatmap_test-0001.pgm", "heatmap")]


def tree(root) -> dict:
    """Relative path -> bytes of every file below root."""
    out = {}
    for parent, _, files in os.walk(root):
        for name in files:
            path = os.path.join(parent, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


@settings(max_examples=2 * len(OUTPUTS), deadline=None, derandomize=True,
          database=None)
@given(target=st.sampled_from(OUTPUTS), filled=st.booleans())
def test_unwritable_output_exits_3(pipeline, target, filled):
    """A directory in place of an output file (holding a file if `filled`),
    or a regular file in place of an output directory, ends the command that
    writes it in exit 3 and one stderr line naming the path: no traceback,
    no *.tmp left, and every other file as it was (a file rewritten before
    the failure holds the same bytes)."""
    name, command = target
    event(f"{name} {command}{' filled' if filled else ''}")
    work = tempfile.mkdtemp(dir=pipeline.parent)
    cwd = os.getcwd()
    try:
        shutil.copytree(pipeline, work, dirs_exist_ok=True)
        os.chdir(work)
        if os.path.isdir(name):
            shutil.rmtree(name)
            with open(name, "w") as f:
                f.write("in the way\n")
        else:
            os.remove(name)
            os.mkdir(name)
            if filled:
                open(os.path.join(name, "x"), "w").close()
        before = tree(".")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", "config.json"])
        after = tree(".")
    finally:
        os.chdir(cwd)
        shutil.rmtree(work)
    assert code == 3
    assert err.getvalue().startswith(f"data error: cannot write {name}: ")
    assert err.getvalue().count("\n") == 1
    assert [p for p in after if p.endswith(".tmp")] == []
    assert after == before


@pytest.fixture(scope="session")
def wide_pipeline(pipeline, tmp_path_factory):
    """The pipeline retrained on 10 epochs and audited: each frame's ten
    base64 losses make profiles.json larger than audit.csv."""
    root = tmp_path_factory.mktemp("wide")
    shutil.copytree(pipeline, root, dirs_exist_ok=True)
    (root / "config.json").write_text(json.dumps(
        dict(CONFIG, train=dict(CONFIG["train"], epochs=10))))
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for stage in ("train", "audit"):
            assert cli.main([stage, "--config", "config.json"]) == 0
    finally:
        os.chdir(cwd)
    return root


# (command, the output whose write the file-size limit stops): gen rewrites
# its smaller splits before test.jsonl. audit writes both outputs side by
# side, so the limit stops whichever crosses it first: profiles.json is the
# larger one in wide_pipeline, and audit.csv in pipeline. heatmap writes one
# file per video in dataset order: test-0001's is the first of the largest
FULL_DISK = [("gen", "run/test.jsonl"), ("train", "run/store/ckpt_0001.bin"),
             ("audit", "run/profiles.json"), ("audit", "run/audit.csv"),
             ("eval", "run/report.json"),
             ("corrupt", "run/test_mislabel.jsonl"),
             ("heatmap", "run/heatmap_test-0001.pgm")]


@pytest.mark.parametrize("command,name", FULL_DISK)
def test_full_disk_exits_3(pipeline, wide_pipeline, tmp_path, command, name):
    """A command whose write fails with EFBIG (RLIMIT_FSIZE one byte below
    that output's size; Python ignores SIGXFSZ) exits 3 with one stderr line
    `cannot write <path>: File too large`, leaves no *.tmp, and every other
    file as it was: train has removed the old store first."""
    resource = pytest.importorskip("resource")
    work = tmp_path / "work"
    shutil.copytree(wide_pipeline if name == "run/profiles.json"
                    else pipeline, work)
    before = tree(work)
    limit = len(before[name]) - 1
    if command == "audit":  # no other output of audit crosses the limit
        assert max(map(len, (before["run/profiles.json"],
                             before["run/audit.csv"]))) == limit + 1
    if command == "heatmap":  # no heatmap written before it crosses it
        assert all(len(v) <= limit for k, v in before.items()
                   if k.startswith("run/heatmap_") and k < name)

    def limited():
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "cslaudit.cli", command, "--config",
         "config.json"], cwd=work, capture_output=True, text=True,
        preexec_fn=limited, env=dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(cli.__file__))))
    assert (proc.returncode, proc.stderr) == (
        3, f"data error: cannot write {name}: File too large\n")
    if command == "train":
        before = {k: v for k, v in before.items()
                  if not k.startswith("run/store/")}
    assert tree(work) == before
