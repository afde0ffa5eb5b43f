import base64
import gc
import gzip
import importlib.util
import json
import math
import os
import shutil
import signal
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cslaudit as ca
from conftest import set_frame
from cslaudit import cli


def base_config(out_dir):
    return {
        "seed": 11,
        "out_dir": str(out_dir),
        "grammar": {
            "num_classes": 4, "feature_dim": 6, "feature_noise_sigma": 0.5,
            "class_mean_scale": 2.0, "duration_min": 8, "duration_max": 12,
            "boundary_blend": 2,
        },
        "data": {"n_train": 6, "n_val": 3, "n_test": 5},
        "corruption": {"kind": "mislabel", "fraction": 0.5,
                       "segment_len_min": 3, "segment_len_max": 6},
        "model": {"hidden_dim": 12, "head_dims": [8, 6],
                  "temporal_mode": "attention", "attention_dim": 6},
        "train": {"epochs": 4, "learning_rate": 1e-3},
        "detection": {"mode": "percentile", "k_percent": 10.0, "window": 2},
    }


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config(tmp_path / "run")))
    return str(path)


def run_cli(*args):
    return cli.main(list(args))


def decode_losses(video):
    """A profiles.json video's E x T loss matrix (the README's recipe)."""
    return np.frombuffer(base64.b64decode(video["losses"]),
                         "<f8").reshape(len(video["epochs"]), -1).copy()


def encode_losses(losses):
    return base64.b64encode(np.asarray(losses, "<f8").tobytes()).decode()


def run_pipeline(cfg_path):
    for cmd in (["gen"], ["corrupt"], ["train"]):
        assert run_cli(*cmd, "--config", cfg_path) == 0
    cfg = json.loads(open(cfg_path).read())
    # audit the corrupted test set
    cfg["data"]["audit_path"] = os.path.join(cfg["out_dir"], "test_mislabel.jsonl")
    open(cfg_path, "w").write(json.dumps(cfg))
    assert run_cli("audit", "--config", cfg_path) == 0
    assert run_cli("eval", "--config", cfg_path) == 0
    return cfg


class TestGen:
    def test_line_counts_and_rerun_identical(self, cfg_path, tmp_path):
        assert run_cli("gen", "--config", cfg_path) == 0
        run = tmp_path / "run"
        for split, n in (("train", 6), ("val", 3), ("test", 5)):
            lines = (run / f"{split}.jsonl").read_text().splitlines()
            assert len(lines) == n + 1
        first = {f: (run / f).read_bytes() for f in os.listdir(run)}
        assert run_cli("gen", "--config", cfg_path) == 0
        assert first == {f: (run / f).read_bytes() for f in os.listdir(run)}

    def test_creates_missing_out_dir(self, tmp_path):
        cfg = base_config(tmp_path / "deep" / "nested" / "run")
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("gen", "--config", str(path)) == 0
        assert (tmp_path / "deep" / "nested" / "run" / "train.jsonl").exists()

    def test_bad_config_exit_2(self, tmp_path):
        cfg = base_config(tmp_path / "run")
        cfg["grammar"]["duration_min"] = 0
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("gen", "--config", str(path)) == 2

    def test_missing_config_exit_2(self):
        assert run_cli("gen", "--config", "/nonexistent/cfg.json") == 2

    def test_unreadable_config_exit_2(self, tmp_path, capsys):
        latin = tmp_path / "latin.json"
        latin.write_bytes(b'{"seed": "\xff"}')
        truncated = tmp_path / "truncated.json"
        truncated.write_text('{"seed": 1')
        array = tmp_path / "array.json"
        array.write_text('[{"seed": 1}]')
        section = tmp_path / "section.json"
        section.write_text('{"grammar": 5}')
        # (path, text of the error, whether the error names the file first)
        for path, text, names_file in (
                (tmp_path / "missing.json", "not found", True),
                (tmp_path, "is a directory", True),
                (latin, "not UTF-8", True),
                (truncated, "not valid JSON", True),
                (array, "must be a JSON object, got list", True),
                (section, "config field grammar: must be a JSON object",
                 False)):
            capsys.readouterr()
            assert run_cli("gen", "--config", str(path)) == 2
            err = capsys.readouterr().err
            assert text in err
            assert err.startswith(f"config error: {path}: ") == names_file


class TestCorrupt:
    def test_counts_and_header(self, cfg_path, tmp_path, capsys):
        run_cli("gen", "--config", cfg_path)
        assert run_cli("corrupt", "--config", cfg_path) == 0
        out = tmp_path / "run" / "test_mislabel.jsonl"
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        spec = header["corruption_spec"]
        assert spec["kind"] == "mislabel"
        assert spec["video_fraction"] == 0.5
        corrupted = sum(1 for ln in lines[1:]
                        if json.loads(ln)["corruption"] is not None)
        assert corrupted == 3  # round(0.5 * 5)

    def test_disorder_on_train(self, cfg_path, tmp_path):
        run_cli("gen", "--config", cfg_path)
        assert run_cli("corrupt", "--config", cfg_path, "--kind", "disorder",
                       "--split", "train", "--fraction", "0.5") == 0
        out = tmp_path / "run" / "train_disorder.jsonl"
        lines = out.read_text().splitlines()
        assert sum(1 for ln in lines[1:]
                   if json.loads(ln)["corruption"] is not None) == 3


class TestTrainCmd:
    def test_prints_per_epoch_loss(self, cfg_path, tmp_path, capsys):
        run_cli("gen", "--config", cfg_path)
        assert run_cli("train", "--config", cfg_path) == 0
        out = capsys.readouterr().out
        epoch_lines = [l for l in out.splitlines() if l.startswith("epoch ")]
        assert len(epoch_lines) == 4
        assert (tmp_path / "run" / "store" / "manifest.json").exists()
        assert (tmp_path / "run" / "store" / "ckpt_0004.bin").exists()


class TestAuditCmd:
    def test_csv_shape_and_rerun_identical(self, cfg_path, tmp_path):
        run_pipeline(cfg_path)
        run = tmp_path / "run"
        csv_lines = (run / "audit.csv").read_text().splitlines()
        ds = ca.read_dataset(str(run / "test_mislabel.jsonl"))
        total = sum(s.num_frames for s in ds.samples)
        assert len(csv_lines) == total + 1
        assert csv_lines[0] == ("video_id,frame,label,csl,csl_smoothed,"
                                "curvature,flag,gt_error")
        for ln in csv_lines[1:]:
            assert ln.split(",")[6] in ("0", "1")
        before = (run / "audit.csv").read_bytes()
        assert run_cli("audit", "--config", cfg_path) == 0
        assert (run / "audit.csv").read_bytes() == before

    def test_fingerprint_mismatch_refused(self, cfg_path, tmp_path, capsys):
        run_pipeline(cfg_path)
        # regenerate the audited dataset under a different grammar
        cfg = json.loads(open(cfg_path).read())
        cfg["grammar"]["feature_noise_sigma"] = 0.9
        cfg["data"]["audit_path"] = None
        other = tmp_path / "other.json"
        other.write_text(json.dumps(cfg))
        assert run_cli("gen", "--config", str(other)) == 0
        assert run_cli("audit", "--config", str(other)) == 3
        err = capsys.readouterr().err
        assert err.count("grammar") >= 2  # both fingerprints named

    def test_threshold_mode_with_calibration(self, cfg_path, tmp_path, capsys):
        run_pipeline(cfg_path)
        cfg = json.loads(open(cfg_path).read())
        cfg["detection"]["mode"] = "threshold"
        cfg["detection"]["tau"] = None
        open(cfg_path, "w").write(json.dumps(cfg))
        assert run_cli("audit", "--config", cfg_path) == 0
        out = capsys.readouterr().out
        assert "calibrated tau" in out
        profiles = json.loads((tmp_path / "run" / "profiles.json").read_text())
        assert profiles["detection"]["tau"] is not None

    def test_nan_checkpoint_exit_4(self, cfg_path, tmp_path, capsys):
        run_pipeline(cfg_path)
        store_dir = str(tmp_path / "run" / "store")
        store = ca.load_store(store_dir)
        epoch = store.epochs[1]
        params = ca.ModelParams({k: v[1] for k, v
                                 in store.params.tensors.items()})
        params.tensors["head.W3"][0, 0] = np.nan
        with open(ca.trainer._snapshot_path(store_dir, epoch), "wb") as f:
            f.write(ca.trainer.encode_snapshot(params))
        capsys.readouterr()
        assert run_cli("audit", "--config", cfg_path) == 4
        assert f"epoch {epoch}" in capsys.readouterr().err


class TestEvalCmd:
    def test_report_schema(self, cfg_path, tmp_path):
        run_pipeline(cfg_path)
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["format"] == "csl-report/1"
        assert set(report) >= {"eda", "micro_auc", "k_percent", "per_video",
                               "counts", "config"}
        assert report["counts"]["videos"] == 5
        assert len(report["per_video"]) == 5

    def test_eval_without_audit_exit_3(self, cfg_path):
        run_cli("gen", "--config", cfg_path)
        assert run_cli("eval", "--config", cfg_path) == 3

    def test_nan_score_exit_4(self, cfg_path, tmp_path):
        run_pipeline(cfg_path)
        path = tmp_path / "run" / "profiles.json"
        profiles = json.loads(path.read_text())
        video = profiles["videos"][0]
        losses = decode_losses(video)
        losses[0, 0] = np.nan   # eval's recomputed scores become NaN
        video["losses"] = encode_losses(losses)
        path.write_text(json.dumps(profiles))
        assert run_cli("eval", "--config", cfg_path) == 4


class TestHeatmap:
    def test_pgm_output(self, cfg_path, tmp_path):
        cfg = run_pipeline(cfg_path)
        profiles = json.loads((tmp_path / "run" / "profiles.json").read_text())
        vid = profiles["videos"][0]
        assert run_cli("heatmap", "--config", cfg_path, "--video",
                       vid["id"]) == 0
        pgm = (tmp_path / "run" / f"heatmap_{vid['id']}.pgm").read_bytes()
        header, rest = pgm.split(b"\n", 1)
        assert header == b"P5"
        dims = rest.split(b"\n", 2)
        E, T = decode_losses(vid).shape
        assert T == len(vid["gt_error"])
        assert dims[0] == f"{T} {E}".encode()
        assert len(dims[2]) == E * T

    def test_unknown_video_exit_3(self, cfg_path):
        run_pipeline(cfg_path)
        assert run_cli("heatmap", "--config", cfg_path, "--video", "nope") == 3

    def test_constant_and_zero_trajectories(self, tmp_path):
        path = tmp_path / "c.pgm"
        cli.write_pgm(np.full((3, 4), 2.5), str(path))
        body = path.read_bytes().split(b"\n", 3)[3]
        assert body == bytes([255] * 12)
        cli.write_pgm(np.zeros((3, 4)), str(path))
        body = path.read_bytes().split(b"\n", 3)[3]
        assert body == bytes(12)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 9), st.data())
    @example(1, 2, None)  # 127.5 rounds half to even, to 128
    def test_pixels_equal_numpy_render(self, tmp_path_factory, E, T, data):
        """The render in Python floats gives numpy's bytes: the same
        operations on float64, both roundings half to even."""
        if data is None:
            losses = np.array([[2.0, 1.0]])
        else:
            losses = np.array(data.draw(st.lists(
                st.floats(0, 1e300), min_size=E * T,
                max_size=E * T))).reshape(E, T)
        path = tmp_path_factory.mktemp("pgm") / "h.pgm"
        cli.write_pgm(losses.tolist(), str(path))
        peak = losses.max()
        want = np.round(255.0 * losses / peak).astype(np.uint8) if peak > 0 \
            else np.zeros((E, T), np.uint8)
        assert path.read_bytes() == f"P5\n{T} {E}\n255\n".encode() \
            + want.tobytes()

    def test_loss_beyond_overflow_renders(self, tmp_path):
        """255 * l overflows above ~7e305, where numpy's cast of the inf to
        a byte is undefined; write_pgm divides first, so the largest loss
        is 255."""
        path = tmp_path / "h.pgm"
        cli.write_pgm([[2.0 ** 1020, 2.0 ** 1019, 0.0]], str(path))
        assert path.read_bytes() == b"P5\n3 1\n255\n" + bytes([255, 128, 0])


@pytest.mark.parametrize("command", ["eval", "heatmap", "heatmap-video"])
@pytest.mark.parametrize("value,text,code", [
    (math.nan, "non-finite loss at epoch {epoch}", 4),
    (-math.inf, "non-finite loss at epoch {epoch}", 4),
    (-0.5, "negative loss", 3)])
def test_bad_loss_value_refused_before_any_write(trained_cfg, tmp_path,
                                                 capsys, command, value,
                                                 text, code):
    """A non-finite or negative loss in any video ends eval and heatmap
    (--video of another video too) with LossTrajectory's text, naming
    profiles.json, and no output written."""
    path, cfg = audited_copy(trained_cfg, tmp_path)
    profiles = os.path.join(cfg["out_dir"], "profiles.json")
    data = json.loads(open(profiles).read())
    video = data["videos"][2]
    losses = decode_losses(video)
    losses[1, 3] = value
    losses[2, 0] = -1.0  # a negative loss after the non-finite one
    video["losses"] = encode_losses(losses)
    open(profiles, "w").write(json.dumps(data))
    before = sorted(os.listdir(cfg["out_dir"]))
    args = [command.split("-")[0], "--config", path]
    if command == "heatmap-video":
        args += ["--video", data["videos"][0]["id"]]
    capsys.readouterr()
    assert run_cli(*args) == code
    kind = "numeric" if code == 4 else "data"
    detail = text.format(epoch=video["epochs"][1])
    assert capsys.readouterr().err == (
        f"{kind} error: {profiles}: video {video['id']}: {detail}\n")
    assert sorted(os.listdir(cfg["out_dir"])) == before


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.data())
def test_heatmap_loss_check_is_loss_trajectorys(E, T, data):
    """heatmap's check of a video's losses (on the bytes where every value
    is plainly finite and non-negative, else on floats) raises what
    LossTrajectory raises, with its text."""
    special = st.sampled_from([-0.0, 2.0 ** 1009, 2.0 ** 1008, -1e-300,
                               math.inf, -math.inf, math.nan])
    values = data.draw(st.lists(st.floats() | special, min_size=E * T,
                                max_size=E * T))
    losses = np.array(values, dtype=np.float64).reshape(E, T)
    epochs = list(range(2, 2 + E))
    video = {"id": "v", "epochs": epochs, "gt_error": [0] * T,
             "losses": losses.astype("<f8").tobytes()}

    def outcome(check):
        try:
            check()
        except (ca.errors.DataError, ca.errors.NumericError) as e:
            return type(e), str(e)

    want = outcome(lambda: ca.LossTrajectory("v", losses, epochs))
    got = outcome(lambda: cli._loss_rows("p", video))
    assert got == (want and (want[0], f"p: {want[1]}"))


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(ca.__file__))
    code = ("import sys, cslaudit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "[]"


# (line the error must name, edit of the parsed rows of a clean test.jsonl)
MALFORMED = {
    "header-without-split": (1, lambda rows: rows[0].pop("split")),
    "header-without-seed": (1, lambda rows: rows[0].pop("seed")),
    "header-bool-seed": (1, lambda rows: rows[0].update(seed=True)),
    "header-grammar-not-an-object": (1, lambda rows: rows[0].update(
        grammar=[rows[0]["grammar"]])),
    "frames-wrong-length": (3, lambda rows: rows[2].update(
        frames=base64.b64encode(base64.b64decode(rows[2]["frames"])[:-8])
        .decode())),
    "frames-not-a-string": (3, lambda rows: rows[2].update(
        frames=[[0.0] * 6] * len(rows[2]["labels"]))),
    "frames-bad-base64": (3, lambda rows: rows[2].update(
        frames=rows[2]["frames"][:-3])),
    "frames-outside-base64-alphabet": (3, lambda rows: rows[2].update(
        frames="****" + rows[2]["frames"])),
    "old-format-tag": (1, lambda rows: rows[0].update(format="csl-seqdata/1")),
    "header-invalid-grammar": (1, lambda rows: rows[0]["grammar"].update(
        duration_min=0)),
    # read as 4 by int() before
    "header-float-num-classes": (1, lambda rows: rows[0]["grammar"].update(
        num_classes=4.0)),
    "empty-sample": (2, lambda rows: rows[1].update(
        frames=[], labels=[], error_mask=[])),
    "non-object-sample": (4, lambda rows: rows.__setitem__(3, [1, 2])),
    "float-label": (2, lambda rows: rows[1]["labels"].__setitem__(0, 0.5)),
    # an id names the heatmap file and is written unquoted into audit.csv
    "id-not-a-string": (3, lambda rows: rows[2].update(id=7)),
    "id-with-slash": (3, lambda rows: rows[2].update(id="../x")),
    "id-with-comma": (3, lambda rows: rows[2].update(id="a,b")),
    "frames-not-ascii": (3, lambda rows: rows[2].update(
        frames="\u00e9" + rows[2]["frames"])),
}


@pytest.fixture(scope="module")
def trained_cfg(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("malformed")
    cfg = base_config(tmp / "run")
    path = tmp / "config.json"
    path.write_text(json.dumps(cfg))
    for cmd in ("gen", "corrupt", "train"):
        assert run_cli(cmd, "--config", str(path)) == 0
    return cfg


def audit_file(trained_cfg, tmp_path, capsys, audit_path):
    """Exit code and stderr of `audit` on the trained store and this file."""
    cfg = dict(trained_cfg, data=dict(trained_cfg["data"],
                                      audit_path=str(audit_path)))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    return run_cli("audit", "--config", str(path)), capsys.readouterr().err


def edited_test_split(trained_cfg, tmp_path, mutate):
    """The clean test.jsonl with its parsed rows edited by mutate."""
    clean = os.path.join(trained_cfg["out_dir"], "test.jsonl")
    rows = [json.loads(ln) for ln in open(clean)]
    mutate(rows)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return bad


@pytest.mark.parametrize("line,mutate", list(MALFORMED.values()),
                         ids=list(MALFORMED))
def test_malformed_audit_input_exit_3(trained_cfg, tmp_path, capsys, line,
                                      mutate):
    bad = edited_test_split(trained_cfg, tmp_path, mutate)
    code, err = audit_file(trained_cfg, tmp_path, capsys, bad)
    assert code == 3
    assert f"{bad}: line {line}:" in err  # audit reads two files


def test_retired_format_names_tag(trained_cfg, tmp_path, capsys):
    bad = edited_test_split(trained_cfg, tmp_path, MALFORMED["old-format-tag"][1])
    code, err = audit_file(trained_cfg, tmp_path, capsys, bad)
    assert code == 3
    assert "'csl-seqdata/1'" in err and "cslaudit gen" in err


@pytest.mark.parametrize("name", ["x.jsonl", "x.jsonl.gz"])
def test_corrupt_into_missing_directory_exit_3(trained_cfg, tmp_path, capsys,
                                               name):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(trained_cfg))
    out = tmp_path / "missing" / name
    capsys.readouterr()
    assert run_cli("corrupt", "--config", str(path), "--out-file",
                   str(out)) == 3
    assert str(out) in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def audited_copy(trained_cfg, tmp_path, **detection):
    """Config path and config auditing the trained store on the mislabeled
    test split into tmp_path/run, with these detection fields changed."""
    src = trained_cfg["out_dir"]
    out = tmp_path / "run"
    shutil.copytree(os.path.join(src, "store"), out / "store")
    cfg = dict(trained_cfg, out_dir=str(out),
               data=dict(trained_cfg["data"],
                         val_path=os.path.join(src, "val.jsonl"),
                         audit_path=os.path.join(src, "test_mislabel.jsonl")),
               detection=dict(trained_cfg["detection"], **detection))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("audit", "--config", str(path)) == 0
    return str(path), cfg


def library_profiles(path):
    """audit_dataset's profiles for the audit the config at path runs."""
    cfg = cli.load_config(path)
    store = ca.load_store(os.path.join(cfg["out_dir"], "store"))
    ds = ca.read_dataset(cfg["data"]["audit_path"])
    return ca.audit_dataset(store, ds, cli.build_detection_config(cfg))


@pytest.mark.parametrize("mode", ["percentile", "threshold"])
def test_profiles_losses_bit_equal_library(trained_cfg, tmp_path, mode):
    path, cfg = audited_copy(trained_cfg, tmp_path, mode=mode, tau=None)
    text = json.loads(open(os.path.join(cfg["out_dir"],
                                        "profiles.json")).read())["videos"]
    videos = cli._load_profiles(cfg)["videos"]
    profiles = library_profiles(path)
    assert [v["id"] for v in videos] == [p.video_id for p in profiles]
    for v, t, p in zip(videos, text, profiles):
        assert v["losses"] == p.trajectory.losses.astype("<f8").tobytes()
        got = ca.seqdata.f8_array(v["losses"], p.trajectory.losses.shape)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.flags.writeable
        assert np.array_equal(got.view("<u8"),
                              p.trajectory.losses.view("<u8"))
        assert np.array_equal(decode_losses(t), got)


@pytest.mark.parametrize("mode", ["percentile", "threshold"])
def test_eval_scores_equal_library_smoothed(trained_cfg, tmp_path,
                                            monkeypatch, mode):
    path, cfg = audited_copy(trained_cfg, tmp_path, mode=mode, tau=None)
    seen = []
    build_report = cli.MET.build_report

    def spy(inputs, **kwargs):
        seen.extend(inputs)
        return build_report(inputs, **kwargs)

    monkeypatch.setattr(cli.MET, "build_report", spy)
    assert run_cli("eval", "--config", path) == 0
    profiles = library_profiles(path)
    assert len(seen) == len(profiles)
    for ei, p in zip(seen, profiles):
        assert ei.video_id == p.video_id
        assert np.array_equal(ei.scores, p.smoothed)


def test_eval_uses_the_audit_window(trained_cfg, tmp_path):
    path, cfg = audited_copy(trained_cfg, tmp_path)
    assert run_cli("eval", "--config", path) == 0
    report = os.path.join(cfg["out_dir"], "report.json")
    before = open(report, "rb").read()
    window = cfg["detection"]["window"]
    changed = dict(cfg, detection=dict(cfg["detection"], window=window + 3))
    open(path, "w").write(json.dumps(changed))
    assert run_cli("eval", "--config", path) == 0
    after = json.loads(open(report).read())
    # report.json echoes the eval config; every other byte is unchanged
    assert after["config"]["detection"]["window"] == window + 3
    after["config"]["detection"]["window"] = window
    assert (json.dumps(after, sort_keys=True, indent=1) + "\n").encode() \
        == before


def _make_dir(path, clean):
    path.mkdir()
    return path


def _make_latin1(path, clean):
    path.write_bytes(b'{"format": "\xff"}\n')
    return path


def _make_plain_gz(path, clean):
    gz = path.with_suffix(".jsonl.gz")
    gz.write_text("{}\n")
    return gz


def _make_bad_byte_on_line_3(path, clean):
    lines = clean.split(b"\n")
    # leading JSON whitespace puts the byte past the chunks that hold lines
    # 1 and 2, so it is decoded only after they are parsed
    lines[2] = b" " * 65536 + lines[2].replace(b'"id": "', b'"id": "\xff', 1)
    path.write_bytes(b"\n".join(lines))
    return path


def _make_truncated_gz(path, clean):
    gz = path.with_suffix(".jsonl.gz")
    blob = gzip.compress(clean)
    gz.write_bytes(blob[:len(blob) // 2])
    return gz


# (text the error must show besides the path, how to make the bad path from
# the bytes of a clean split)
UNREADABLE = {
    "missing": ("run gen first", lambda path, clean: path),
    # a NotADirectoryError traceback before
    "below-a-file": ("run gen first",
                     lambda path, clean: (path.write_bytes(clean),
                                          path / "x.jsonl")[1]),
    "directory": ("is a directory", _make_dir),
    "not-utf8": ("not UTF-8", _make_latin1),
    "gz-not-gzip": ("gzip", _make_plain_gz),
    "not-utf8-on-line-3": ("not UTF-8", _make_bad_byte_on_line_3),
    "gz-cut-mid-stream": ("not a complete gzip file", _make_truncated_gz),
}


@pytest.mark.parametrize("text,make", list(UNREADABLE.values()),
                         ids=list(UNREADABLE))
def test_unreadable_dataset_exit_3(trained_cfg, tmp_path, capsys, text, make):
    with open(os.path.join(trained_cfg["out_dir"], "test.jsonl"), "rb") as f:
        bad = make(tmp_path / "d.jsonl", f.read())
    code, err = audit_file(trained_cfg, tmp_path, capsys, bad)
    assert code == 3
    assert str(bad) in err and text in err


# (command, dotted config field, wrong-typed value)
BAD_CONFIG_FIELDS = [
    ("gen", "grammar.num_classes", "six"),
    ("gen", "data.n_train", None),
    ("gen", "seed", "x"),
    ("train", "model.head_dims", 5),
    ("train", "train.epochs", "ten"),
    ("gen", "out_dir", 5),
    ("train", "data.train_path", 5),
    ("audit", "data.val_path", ["val.jsonl"]),
    ("audit", "data.audit_path", {"path": "test.jsonl"}),
    # fields the config does not define: a typo and a deleted setting
    ("train", "train.epoch", 3),
    ("audit", "detection.windw", 0),
    ("train", "train.checkpoint_stride", 1),
    ("gen", "outdir", "run"),
]


@pytest.mark.parametrize("command,field,value", BAD_CONFIG_FIELDS,
                         ids=[f[1] for f in BAD_CONFIG_FIELDS])
def test_wrong_typed_config_field_exit_2(trained_cfg, tmp_path, capsys,
                                         command, field, value):
    cfg = json.loads(json.dumps(trained_cfg))
    cfg["out_dir"] = str(tmp_path / "run")
    cfg["data"]["train_path"] = os.path.join(trained_cfg["out_dir"],
                                             "train.jsonl")
    *sections, key = field.split(".")
    node = cfg
    for section in sections:
        node = node[section]
    node[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run_cli(command, "--config", str(path)) == 2
    assert f"config field {field}:" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.json"]


# (command, dotted integer field, a JSON value that is no integer): each was
# truncated by int() before, e.g. epochs 2.7 trained 2 epochs and true 1
NON_INTEGER_FIELDS = [
    ("train", "train.epochs", 2.7),
    ("train", "train.epochs", True),
    ("audit", "detection.window", 2.5),
    ("gen", "data.n_test", "5"),
    ("gen", "seed", False),
    ("train", "model.head_dims", [8, 6.5]),
    ("train", "model.init_seed", 1.5),
]


@pytest.mark.parametrize("command,field,value", NON_INTEGER_FIELDS,
                         ids=[f"{f}={v!r}" for _, f, v in NON_INTEGER_FIELDS])
def test_non_integer_config_field_exit_2(trained_cfg, tmp_path, capsys,
                                         command, field, value):
    test_wrong_typed_config_field_exit_2(trained_cfg, tmp_path, capsys,
                                         command, field, value)


@pytest.mark.parametrize("field,value", [("head_dims", [16]),
                                         ("head_dims", [16, 8, 4]),
                                         ("dropout_rates", [0.5])])
def test_pair_field_of_wrong_length_exit_2(trained_cfg, tmp_path, capsys,
                                           field, value):
    """head_dims and dropout_rates hold exactly two values; another count
    is a config error naming the field, not an unpacking traceback."""
    cfg = dict(trained_cfg, out_dir=str(tmp_path / "run"),
               data=dict(trained_cfg["data"], train_path=os.path.join(
                   trained_cfg["out_dir"], "train.jsonl")),
               model=dict(trained_cfg["model"], **{field: value}))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run_cli("train", "--config", str(path)) == 2
    err = capsys.readouterr().err
    assert f"{field} must hold exactly 2 values, got {len(value)}" in err
    assert not os.path.exists(tmp_path / "run" / "store")


# (command, dotted float field, the field's value holding the number x);
# float() took strings and bools, and NaN passed every range check
FLOAT_FIELDS = [
    ("gen", "grammar.feature_noise_sigma", lambda x: x),
    ("gen", "grammar.class_mean_scale", lambda x: x),
    ("gen", "grammar.class_means",
     lambda x: [[x, 0, 0, 0, 0, 0]] + [[2.0 * (i == j) for j in range(6)]
                                       for i in range(1, 4)]),
    ("corrupt", "corruption.fraction", lambda x: x),
    ("train", "model.dropout_rates", lambda x: [0.5, x]),
    *[("train", f"train.{key}", lambda x: x) for key in (
        "learning_rate", "beta1", "beta2", "eps", "weight_decay")],
    ("audit", "detection.tau", lambda x: x),
    ("audit", "detection.k_percent", lambda x: x),
]


@pytest.mark.parametrize("x", ["0.5", True, float("nan"), float("inf")],
                         ids=["string", "bool", "NaN", "Infinity"])
@pytest.mark.parametrize("command,field,value", FLOAT_FIELDS,
                         ids=[f[1] for f in FLOAT_FIELDS])
def test_non_finite_or_non_number_float_field_exit_2(
        trained_cfg, tmp_path, capsys, command, field, value, x):
    test_wrong_typed_config_field_exit_2(trained_cfg, tmp_path, capsys,
                                         command, field, value(x))


# (command, dotted field, a value of the right JSON type that the checks in
# each command let through): negative seeds were ValueError tracebacks, an
# empty out_dir a FileNotFoundError traceback, phase_order 0 or false meant
# the default order, an empty audit_path audited the clean test.jsonl, and
# corruption.split "foo" read out/foo.jsonl
ESCAPED_CONFIG_VALUES = [
    ("gen", "seed", -1),
    ("train", "model.init_seed", -1),
    ("train", "train.shuffle_seed", -3),
    ("corrupt", "corruption.seed", -1),
    ("gen", "out_dir", ""),
    ("audit", "data.audit_path", ""),
    ("gen", "grammar.phase_order", 0),
    ("gen", "grammar.phase_order", False),
    ("corrupt", "corruption.split", "foo"),
    ("corrupt", "corruption.split", "val"),
]


@pytest.mark.parametrize("command,field,value", ESCAPED_CONFIG_VALUES,
                         ids=[f"{f}={v!r}" for _, f, v in ESCAPED_CONFIG_VALUES])
def test_escaped_config_value_exit_2(trained_cfg, tmp_path, capsys, command,
                                     field, value):
    test_wrong_typed_config_field_exit_2(trained_cfg, tmp_path, capsys,
                                         command, field, value)


@pytest.mark.parametrize("command,flags,field", [
    ("gen", ["--seed", "-1"], "seed"),
    ("train", ["--seed", "-3"], "seed"),
    ("gen", ["--out", ""], "out_dir"),
    ("corrupt", ["--fraction", "nan"], "corruption.fraction"),
    ("corrupt", ["--fraction", "inf"], "corruption.fraction"),
], ids=["seed-gen", "seed-train", "out", "fraction-nan", "fraction-inf"])
def test_bad_flag_value_exit_2(tmp_path, capsys, command, flags, field):
    """A flag is checked as the config field it sets: exit 2 naming that
    field, and nothing written."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config(tmp_path / "run")))
    capsys.readouterr()
    assert run_cli(command, "--config", str(path), *flags) == 2
    assert f"config field {field}: must be " in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.json"]


def config_leaves(tree, prefix=""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from config_leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key


@pytest.mark.parametrize("field", list(config_leaves(cli.DEFAULT_CONFIG)))
def test_every_config_leaf_is_checked(tmp_path, capsys, field):
    """Every leaf, a leaf added later too, refuses a value of the wrong kind
    when the config loads, in any command."""
    cfg = base_config(tmp_path / "run")
    *sections, key = field.split(".")
    node = cfg
    for section in sections:
        node = node.setdefault(section, {})
    node[key] = {"x": 1}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run_cli("gen", "--config", str(path)) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: config field {field}: must be ")
    assert os.listdir(tmp_path) == ["config.json"]


def test_integer_valued_floats_keep_their_json(trained_cfg, tmp_path):
    """A float field written as an integer reaches the library as a float,
    so the manifest records learning_rate 1.0, while profiles.json and
    report.json echo the detection section as written: k_percent 10."""
    out = trained_cfg["out_dir"]
    cfg = dict(trained_cfg, out_dir=str(tmp_path / "run"),
               data=dict(trained_cfg["data"],
                         train_path=os.path.join(out, "train.jsonl"),
                         audit_path=os.path.join(out, "test_mislabel.jsonl")),
               train=dict(trained_cfg["train"], learning_rate=1, epochs=2),
               detection=dict(trained_cfg["detection"], k_percent=10))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    for command in ("train", "audit", "eval"):
        assert run_cli(command, "--config", str(path)) == 0
    run = tmp_path / "run"
    manifest = json.loads((run / "store" / "manifest.json").read_text())
    profiles = json.loads((run / "profiles.json").read_text())
    report = json.loads((run / "report.json").read_text())
    assert repr(manifest["train"]["learning_rate"]) == "1.0"
    assert repr(profiles["detection"]["k_percent"]) == "10"
    assert repr(report["config"]["detection"]["k_percent"]) == "10"
    assert repr(report["k_percent"]) == "10.0"


def header_only(src, dst):
    """dst holding the header line of the dataset at src, and no sample."""
    with open(src, encoding="utf-8") as f:
        dst.write_text(f.readline())
    return str(dst)


@pytest.mark.parametrize("command,key,detection", [
    ("train", "train_path", {}),
    ("audit", "audit_path", {}),
    ("audit", "val_path", {"mode": "threshold", "tau": None}),
], ids=["train", "audit", "val"])
def test_header_only_split_exit_3(trained_cfg, tmp_path, capsys, command, key,
                                  detection):
    """A split with no samples is a data error naming its file, in the
    stage that reads it: not a config error (train), an audit of 0 videos
    (audit) or an empty calibration pool (val)."""
    split = {"train_path": "train", "val_path": "val"}.get(key, "test")
    empty = header_only(os.path.join(trained_cfg["out_dir"],
                                     f"{split}.jsonl"), tmp_path / "e.jsonl")
    shutil.copytree(os.path.join(trained_cfg["out_dir"], "store"),
                    tmp_path / "run" / "store")
    data = dict(trained_cfg["data"], audit_path=os.path.join(
        trained_cfg["out_dir"], "test.jsonl"))
    data[key] = empty
    cfg = dict(trained_cfg, out_dir=str(tmp_path / "run"), data=data,
               detection=dict(trained_cfg["detection"], **detection))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run_cli(command, "--config", str(path)) == 3
    assert capsys.readouterr().err == (
        f"data error: {empty}: the dataset holds no samples, only a header "
        f"line\n")
    assert os.listdir(tmp_path / "run") == ["store"]
    assert len(os.listdir(tmp_path / "run" / "store")) == len(os.listdir(
        os.path.join(trained_cfg["out_dir"], "store")))


@pytest.mark.parametrize("value,name", [(np.nan, "nan.jsonl"),
                                        (np.inf, "inf.jsonl.gz")])
@pytest.mark.parametrize("command,key", [
    ("corrupt", "train_path"), ("train", "train_path"),
    ("audit", "audit_path")])
def test_non_finite_frame_exit_3(trained_cfg, tmp_path, capsys, command, key,
                                 value, name):
    """A NaN or inf frame is a data error naming the file and the line, in
    each stage that reads it (train exited 4 naming neither before)."""
    with open(os.path.join(trained_cfg["out_dir"], "train.jsonl"), "rb") as f:
        clean = f.read()
    bad = tmp_path / name
    bad.write_bytes(gzip.compress(clean) if name.endswith(".gz") else clean)
    set_frame(bad, 3, (3, 0), value)  # sample 1
    shutil.copytree(os.path.join(trained_cfg["out_dir"], "store"),
                    tmp_path / "run" / "store")
    cfg = dict(trained_cfg, out_dir=str(tmp_path / "run"),
               data=dict(trained_cfg["data"], **{key: str(bad)}),
               corruption=dict(trained_cfg["corruption"], split="train"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run_cli(command, "--config", str(path)) == 3
    assert capsys.readouterr().err == (
        f"data error: {bad}: line 3: frames hold a non-finite value\n")
    assert os.listdir(tmp_path / "run") == ["store"]


def test_corrupt_already_corrupted_split_exit_3(trained_cfg, tmp_path,
                                                capsys):
    """`corrupt` of a split whose samples are corrupted already is a data
    error naming the file (a ValueError traceback before)."""
    corrupted = os.path.join(trained_cfg["out_dir"], "test_mislabel.jsonl")
    cfg = dict(trained_cfg, out_dir=str(tmp_path / "run"),
               data=dict(trained_cfg["data"], train_path=corrupted))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run_cli("corrupt", "--config", str(path), "--split", "train",
                   "--fraction", "1") == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {corrupted}: sample ")
    assert err.endswith(" is already corrupted\n")
    assert list(tmp_path.iterdir()) == [path]


# grammar overrides that make a val split foreign to the trained store: more
# classes than the model scores (an IndexError before) and other class means
# (silently calibrated before)
FOREIGN_GRAMMARS = {
    "8-classes": {"num_classes": 8,  # means: 1..8 in binary, times 2
                  "class_means": [[2.0 * (i >> b & 1) for b in range(6)]
                                  for i in range(1, 9)]},
    "class-mean-scale": {"class_mean_scale": 3.0},
}


@pytest.mark.parametrize("grammar", list(FOREIGN_GRAMMARS.values()),
                         ids=list(FOREIGN_GRAMMARS))
def test_foreign_calibration_split_exit_3(trained_cfg, tmp_path, capsys,
                                          grammar):
    """The val split that calibrates tau is checked against the store's
    grammar like the audited split: exit 3 naming the file, nothing written."""
    foreign = dict(trained_cfg, grammar=dict(trained_cfg["grammar"], **grammar))
    val = tmp_path / "val.jsonl"
    grammar = cli.build_grammar(cli._merge(cli.DEFAULT_CONFIG, foreign))
    ca.write_dataset(ca.generate_dataset(grammar, 3, "val", seed=1), str(val))
    shutil.copytree(os.path.join(trained_cfg["out_dir"], "store"),
                    tmp_path / "run" / "store")
    cfg = dict(trained_cfg, out_dir=str(tmp_path / "run"),
               data=dict(trained_cfg["data"], val_path=str(val),
                         audit_path=os.path.join(trained_cfg["out_dir"],
                                                 "test.jsonl")),
               detection=dict(trained_cfg["detection"], mode="threshold",
                              tau=None))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run_cli("audit", "--config", str(path)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {val}: store/dataset mismatch")
    assert os.listdir(tmp_path / "run") == ["store"]


@pytest.mark.parametrize("value,text", [(1e39, "input frames as float32"),
                                        (1e20, "non-finite loss at epoch 1")])
def test_frame_beyond_float32_range_exit_4(trained_cfg, tmp_path, capsys,
                                           value, text):
    """The replay runs in the checkpoints' float32. A frame value finite in
    float64 but beyond float32 range, or one whose square overflows float32
    in a LayerNorm (a silent 0 before), is a numeric error naming the video."""
    ds = ca.read_dataset(os.path.join(trained_cfg["out_dir"], "test.jsonl"))
    ds.samples[1].frames[3, 0] = value
    big = tmp_path / "big.jsonl"
    ca.write_dataset(ds, str(big))
    code, err = audit_file(trained_cfg, tmp_path, capsys, big)
    assert code == 4
    assert err.startswith(f"numeric error: video {ds.samples[1].id}: ")
    assert text in err


STORE_FIELDS = ("model", "epochs", "epoch_losses", "class_weights",
                "fingerprints")
EPOCHS_TEXT = ("manifest.epochs must increase strictly, one per "
               "epoch_losses entry")
# (text the error must show, edit of a clean store manifest); each error
# begins with the manifest's path, or with the snapshot the text names first
BAD_MANIFESTS = {
    "array": ("must be a JSON object", lambda m: [m]),
    "format-only": ("lacks 'model'", lambda m: {"format": m["format"]}),
    **{f"without-{key}": (f"lacks {key!r}",
                          lambda m, key=key: {k: v for k, v in m.items()
                                              if k != key})
       for key in STORE_FIELDS},
    # "checkpoint store is empty" before, naming no file
    "empty-epochs": ("manifest.epochs is empty", lambda m: dict(
        m, epochs=[], epoch_losses=[])),
    "epoch-count-mismatch": (EPOCHS_TEXT, lambda m: dict(
        m, epoch_losses=m["epoch_losses"][:-1])),
    "string-epoch": ('manifest.epochs[0] must be a non-negative integer, '
                     'not "1"', lambda m: dict(
        m, epochs=[str(e) for e in m["epochs"]])),
    "bool-epoch": ("manifest.epochs[0] must be a non-negative integer, not "
                   "true", lambda m: dict(m, epochs=[True] + m["epochs"][1:])),
    "null-loss": ("manifest.epoch_losses[0] must be a finite number, not "
                  "null", lambda m: dict(
        m, epoch_losses=[None] * len(m["epoch_losses"]))),
    # json.load reads NaN and Infinity; each of these once audited without
    # an error, or failed later as a numeric or negative-loss fault
    "nan-loss": ("manifest.epoch_losses[0] must be a finite number, not NaN",
                 lambda m: dict(m, epoch_losses=[float("nan")]
                                * len(m["epoch_losses"]))),
    **{f"{name}-class-weight": (
        f"manifest.class_weights[0] must be a finite number, not {text}",
        lambda m, w=w: dict(m, class_weights=[w] + m["class_weights"][1:]))
       for name, w, text in (("nan", float("nan"), "NaN"),
                             ("inf", float("inf"), "Infinity"))},
    "negative-class-weight": (
        "manifest.class_weights must hold 4 numbers, all > 0",
        lambda m: dict(m, class_weights=[-1.0] + m["class_weights"][1:])),
    "zero-class-weights": (
        "manifest.class_weights must hold 4 numbers, all > 0",
        lambda m: dict(m, class_weights=[0.0] * len(m["class_weights"]))),
    "wrong-format": ("format 'csl-ckpt-store/0' is not 'csl-ckpt-store/1'",
                     lambda m: dict(m, format="csl-ckpt-store/0")),
    "decreasing-epochs": (EPOCHS_TEXT,
                          lambda m: dict(m, epochs=m["epochs"][::-1])),
    "missing-snapshot": ("lists epoch 99 but", lambda m: dict(
        m, epochs=m["epochs"][:-1] + [99])),
    "fingerprints-not-an-object": (
        "manifest.fingerprints must be a JSON object, got str",
        lambda m: dict(m, fingerprints=m["fingerprints"]["grammar"])),
    "one-head-dim": ("manifest.model is invalid (head_dims must hold exactly "
                     "2 values, got 1)", lambda m: dict(
        m, model=dict(m["model"], head_dims=[8]))),
    # read as [8, 6] by int() before
    "fractional-head-dims": ("manifest.model.head_dims[0] must be a "
                             "non-negative integer, not 8.5", lambda m: dict(
        m, model=dict(m["model"], head_dims=[8.5, 6]))),
    # audited the attention store as context-free before, its attn.* tensors
    # ignored
    "attention-read-as-context-free": (
        "ckpt_0001.bin: tensor head.W1 missing or misshaped", lambda m: dict(
            m, model=dict(m["model"], temporal_mode="context_free"))),
}
# (the snapshot at fault, text the error must show, edit of its bytes); each
# error begins with the snapshot's path
BAD_SNAPSHOTS = {
    "snapshot-bad-magic": ("ckpt_0002.bin", "bad snapshot magic",
                           lambda b: b"XXXXXXXX" + b[8:]),
    "snapshot-checksum": ("ckpt_0003.bin", "snapshot checksum mismatch",
                          lambda b: b[:40] + bytes([b[40] ^ 0xFF]) + b[41:]),
    "snapshot-too-short": ("ckpt_0001.bin", "bad snapshot magic",
                           lambda b: b[:5]),
    "snapshot-truncated": ("ckpt_0004.bin", "truncated snapshot",
                           lambda b: resealed(b[:40] + b[-4:])),
    # Re-sealed edits of the records; each of the first three ended in a
    # traceback before, and the swapped tensors loaded.
    "snapshot-huge-dims": ("ckpt_0002.bin", "tensor enc.W missing or "
                           "misshaped", lambda b: resealed(
        b[:21] + struct.pack("<II", 2**32 - 1, 2**32 - 1) + b[29:])),
    "snapshot-name-not-utf8": ("ckpt_0003.bin", "tensor enc.W missing or "
                               "misshaped", lambda b: resealed(
        b[:12] + b"\xff" + b[13:])),
    "snapshot-extra-tensor": ("ckpt_0001.bin", "17 bytes after the last "
                              "tensor", lambda b: resealed(
        b[:-4] + struct.pack("<I1sII", 1, b"x", 1, 1) + bytes(4) + b[-4:])),
    "snapshot-tensors-swapped": ("ckpt_0004.bin", "tensor attn.Wq missing or "
                                 "misshaped", lambda b: swapped(b, 4, 5)),
}


def resealed(blob):
    """A snapshot with its checksum recomputed over its (edited) body."""
    body = blob[8:-4]
    return blob[:8] + body + zlib.crc32(body).to_bytes(4, "little")


def records(blob):
    """A snapshot's tensor records (header and payload), in file order."""
    out, off = [], 8
    while off < len(blob) - 4:
        n, = struct.unpack_from("<I", blob, off)
        rank, = struct.unpack_from("<I", blob, off + 4 + n)
        dims = struct.unpack_from(f"<{rank}I", blob, off + 8 + n)
        end = off + 8 + n + 4 * rank + 4 * math.prod(dims)
        out.append(blob[off:end])
        off = end
    return out


def swapped(blob, i, j):
    """A snapshot with its records i and j swapped, re-sealed."""
    recs = records(blob)
    recs[i], recs[j] = recs[j], recs[i]
    return resealed(blob[:8] + b"".join(recs) + blob[-4:])


def audit_store_copy(trained_cfg, tmp_path, capsys, edit):
    """Exit code and stderr of `audit` on a copy of the trained store that
    edit(store directory) changed first."""
    store = tmp_path / "run" / "store"
    shutil.copytree(os.path.join(trained_cfg["out_dir"], "store"), store)
    edit(store)
    cfg = dict(trained_cfg, out_dir=str(tmp_path / "run"),
               data=dict(trained_cfg["data"], audit_path=os.path.join(
                   trained_cfg["out_dir"], "test.jsonl")))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    return run_cli("audit", "--config", str(path)), capsys.readouterr().err


@pytest.mark.parametrize(
    "name,text,mutate",
    [("manifest.json", *case) for case in BAD_MANIFESTS.values()]
    + list(BAD_SNAPSHOTS.values()),
    ids=list(BAD_MANIFESTS) + list(BAD_SNAPSHOTS))
def test_malformed_store_manifest_exit_3(trained_cfg, tmp_path, capsys, name,
                                         text, mutate):
    def edit(store):
        target = store / name
        if name == "manifest.json":
            manifest = json.loads(target.read_text())
            target.write_text(json.dumps(mutate(manifest)))
        else:
            target.write_bytes(mutate(target.read_bytes()))

    code, err = audit_store_copy(trained_cfg, tmp_path, capsys, edit)
    store = tmp_path / "run" / "store"
    assert code == 3
    assert err.startswith((f"data error: {store / name}: ",
                           f"data error: {store / text}"))
    assert text in err
    assert err.count("\n") == 1


def test_snapshot_that_is_a_directory_exit_3(trained_cfg, tmp_path, capsys):
    """An IsADirectoryError traceback before."""
    def edit(store):
        (store / "ckpt_0002.bin").unlink()
        (store / "ckpt_0002.bin").mkdir()

    code, err = audit_store_copy(trained_cfg, tmp_path, capsys, edit)
    assert code == 3
    assert "manifest.json: lists epoch 2 but cannot read " in err
    assert err.endswith("ckpt_0002.bin (Is a directory)\n")


def test_store_with_retired_fields_audits_the_same(trained_cfg, tmp_path,
                                                   capsys):
    """A store whose manifest still records the deleted settings
    model.init_scale, train.dropout and train.checkpoint_stride (at their
    only values in use) loads and audits to the same bytes."""
    def add_retired(store):
        manifest = json.loads((store / "manifest.json").read_text())
        manifest["model"]["init_scale"] = 1.0
        manifest["train"].update(dropout=True, checkpoint_stride=1)
        (store / "manifest.json").write_text(json.dumps(manifest))

    audits = []
    for name, edit in (("as-written", lambda store: None),
                       ("retired", add_retired)):
        code, err = audit_store_copy(trained_cfg, tmp_path / name, capsys,
                                     edit)
        assert code == 0, err
        audits.append((tmp_path / name / "run" / "audit.csv").read_bytes())
        store = ca.load_store(str(tmp_path / name / "run" / "store"))
        assert store.model_config == ca.load_store(
            os.path.join(trained_cfg["out_dir"], "store")).model_config
    assert audits[0] == audits[1]


def test_benchmark_workloads_pass_config_checks(tmp_path):
    """Every benchmark workload's config, as bench/workloads.make_config
    builds it, loads and builds: the benchmark sets no retired field."""
    bench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", bench)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert workloads.WORKLOADS
    for name in workloads.WORKLOADS:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(workloads.make_config(
            name, 0, str(tmp_path / name))))
        cfg = cli.load_config(str(path))
        grammar = cli.build_grammar(cfg)
        cli.build_model_config(cfg, grammar)
        cli.build_train_config(cfg)
        cli.build_detection_config(cfg)


PROFILE_FIELDS = ("id", "epochs", "gt_error", "losses")


def _video_1(**fields):
    """Edit of a clean profiles.json: video 1 with these fields replaced."""
    return lambda d: dict(d, videos=[d["videos"][0],
                                     dict(d["videos"][1], **fields)])


# (text the error must show, edit of a clean profiles.json)
BAD_PROFILES = {
    "array": ("must be a JSON object", lambda d: [d]),
    "videos-not-a-list": ("profiles.videos must be a list of JSON objects, "
                          "not dict",
                          lambda d: dict(d, videos={"v0": d["videos"][0]})),
    "video-not-an-object": ("profiles.videos[1] must be a JSON object, got "
                            "str",
                            lambda d: dict(d, videos=[d["videos"][0], "v1"])),
    **{f"video-without-{key}": (
        f"profiles.videos[1] lacks {key!r}",
        lambda d, key=key: dict(d, videos=[d["videos"][0], {
            k: v for k, v in d["videos"][1].items() if k != key}]))
       for key in PROFILE_FIELDS},
    "losses-not-base64": ("profiles.videos[1].losses is not valid base64",
                          _video_1(losses="not base64!")),
    "losses-wrong-length": ("profiles.videos[1].losses holds 16 bytes, not 24",
                            _video_1(losses=encode_losses([0.1, 0.9]))),
    "old-format-tag": ("'csl-profiles/1' is not 'csl-profiles/2'; re-run "
                       "`cslaudit audit`",
                       lambda d: dict(d, format="csl-profiles/1")),
    "bad-window": ("profiles.detection.window must be a non-negative "
                   "integer, not -1",
                   lambda d: dict(d, detection={"window": -1})),
    "id-with-slash": ("profiles.videos[1].id: sample id '../x'",
                      _video_1(id="../x")),
    "bool-epoch": ("profiles.videos[1].epochs[0] must be a non-negative "
                   "integer, not true", _video_1(epochs=[True])),
    "no-epochs": ("profiles.videos[1].epochs is empty", _video_1(epochs=[])),
    "gt-error-of-2": ("profiles.videos[1].gt_error must hold 0s and 1s only",
                      _video_1(gt_error=[0, 2, 0])),
    "videos-empty": ("profiles.videos is empty",
                     lambda d: dict(d, videos=[])),
}


@pytest.mark.parametrize("text,mutate", list(BAD_PROFILES.values()),
                         ids=list(BAD_PROFILES))
def test_malformed_profiles_exit_3(tmp_path, capsys, text, mutate):
    videos = [{"id": f"v{i}", "epochs": [1], "gt_error": [0, 1, 0],
               "losses": encode_losses([[0.1, 0.9, 0.2]])}
              for i in range(2)]
    clean = {"format": cli.PROFILES_FORMAT, "detection": {"window": 1},
             "videos": videos}
    cfg = base_config(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    (tmp_path / "profiles.json").write_text(json.dumps(clean))
    assert run_cli("eval", "--config", str(path)) == 0
    (tmp_path / "profiles.json").write_text(json.dumps(mutate(clean)))
    capsys.readouterr()
    assert run_cli("eval", "--config", str(path)) == 3
    err = capsys.readouterr().err
    assert "profiles.json" in err and text in err


def test_truncated_profiles_names_path_first(trained_cfg, tmp_path, capsys):
    path, cfg = audited_copy(trained_cfg, tmp_path)
    profiles = os.path.join(cfg["out_dir"], "profiles.json")
    text = open(profiles).read()
    open(profiles, "w").write(text[:len(text) // 2])
    capsys.readouterr()
    assert run_cli("eval", "--config", path) == 3
    assert capsys.readouterr().err.startswith(
        f"data error: {profiles}: line 1: not valid JSON (")


def test_heatmap_of_empty_profiles_exit_3(tmp_path, capsys):
    """heatmap exited 0 and wrote nothing for a profiles.json without
    videos; eval exited 3 without naming the file."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config(tmp_path)))
    profiles = tmp_path / "profiles.json"
    profiles.write_text(json.dumps({"format": cli.PROFILES_FORMAT,
                                    "detection": {"window": 1},
                                    "videos": []}))
    capsys.readouterr()
    assert run_cli("heatmap", "--config", str(path)) == 3
    assert capsys.readouterr().err == (
        f"data error: {profiles}: profiles.videos is empty; re-run "
        f"`cslaudit audit`\n")
    assert sorted(os.listdir(tmp_path)) == ["config.json", "profiles.json"]


@pytest.mark.parametrize("command", ["eval", "heatmap"])
def test_duplicate_video_ids_exit_3(trained_cfg, tmp_path, capsys, command):
    """A profiles.json whose video 1 has video 0's id was scored as 20
    videos by eval and gave 19 heatmaps for 20 videos."""
    path, cfg = audited_copy(trained_cfg, tmp_path)
    profiles = os.path.join(cfg["out_dir"], "profiles.json")
    data = json.loads(open(profiles).read())
    data["videos"][1]["id"] = data["videos"][0]["id"]
    open(profiles, "w").write(json.dumps(data))
    capsys.readouterr()
    assert run_cli(command, "--config", path) == 3
    assert f"{profiles}: profiles.videos[1].id repeats videos[0].id" \
        in capsys.readouterr().err
    assert not any(f.endswith(".pgm") for f in os.listdir(cfg["out_dir"]))


# The cslaudit modules each command line loads in a fresh interpreter, and
# its exit code; the other modules stay unloaded lazy modules.
BASE_MODULES = {"cli", "errors", "fileio"}
DATA_MODULES = BASE_MODULES | {"seqdata"}
LOADED = {
    "import": ([], 0, BASE_MODULES),  # a bare `import cslaudit.cli`
    "help": (["--help"], 0, BASE_MODULES),
    "usage-error": (["gen", "--no-such-flag"], 2, BASE_MODULES),
    "config-error": (["gen", "--config", "{bad}"], 2, BASE_MODULES),
    "gen": (["gen"], 0, DATA_MODULES),
    "corrupt": (["corrupt"], 0, DATA_MODULES),
    "train": (["train"], 0, DATA_MODULES | {"model", "trainer"}),
    "audit": (["audit"], 0,
              DATA_MODULES | {"csl", "metrics", "model", "trainer"}),
    "eval": (["eval"], 0, BASE_MODULES | {"metrics"}),
    "heatmap": (["heatmap"], 0, BASE_MODULES),
    "heatmap-video": (["heatmap", "--video", "test-0001"], 0, BASE_MODULES),
}
LAZY = {"seqdata", "model", "trainer", "csl", "metrics"}
# Command lines that compute nothing numpy computes (eval scores in plain
# Python), and so load neither numpy nor dataclasses (which imports inspect)
NUMPY_FREE = {"import", "help", "usage-error", "config-error", "eval",
              "heatmap", "heatmap-video"}
# Command lines that hash nothing and so load no OpenSSL (gen, corrupt and
# train load it through numpy.random).
HASH_FREE = NUMPY_FREE


def test_each_command_loads_only_its_modules(tmp_path):
    """The cslaudit modules, numpy, numpy.ma, dataclasses and OpenSSL each
    command line loads. No command loads numpy.ma (np.quantile would)."""
    cfg = base_config(tmp_path / "run")
    cfg["train"]["epochs"] = 3
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"seed": -1}))
    src = os.path.dirname(os.path.dirname(ca.__file__))
    # Prints, last, {module: still lazy} for every cslaudit submodule and
    # which of OpenSSL's _hashlib, numpy, numpy.ma and dataclasses loaded.
    probe = ("import importlib.util, json, sys\n"
             "from cslaudit import cli\n"
             "try:\n"
             "    code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
             "except SystemExit as e:  # --help, a usage error\n"
             "    code = e.code\n"
             "print(json.dumps([{m.split('.')[1]: type(v) is "
             "importlib.util._LazyModule for m, v in sys.modules.items() "
             "if m.startswith('cslaudit.')}, {m: m in sys.modules for m in "
             "('_hashlib', 'numpy', 'numpy.ma', 'dataclasses')}]))\n"
             "sys.exit(code)\n")
    seen = {}
    for name, (args, code, loaded) in LOADED.items():
        if args and args[0] != "--help" and "--config" not in args:
            args = args[:1] + ["--config", str(cfg_path)] + args[1:]
        args = [a.format(bad=bad) for a in args]
        proc = subprocess.run([sys.executable, "-c", probe, *args], text=True,
                              capture_output=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == code, (name, proc.stderr)
        modules, seen[name] = json.loads(proc.stdout.splitlines()[-1])
        assert {m for m, lazy in modules.items() if not lazy} == loaded, name
        assert {m for m, lazy in modules.items() if lazy} == LAZY - loaded, \
            name
    assert {n for n, s in seen.items() if s["numpy.ma"]} == set()
    assert {n for n, s in seen.items() if not s["numpy"]} == NUMPY_FREE
    assert {n for n, s in seen.items() if not s["dataclasses"]} == NUMPY_FREE
    assert {n for n, s in seen.items() if not s["_hashlib"]} == HASH_FREE


def test_console_runs_match_in_process_runs(tmp_path, monkeypatch, capsys):
    """Each stage run as `python -X dev -m cslaudit.cli`, whose exit freezes
    the heap, prints and writes what cli.main prints and writes in process.
    -X dev would report a file left open, which the freeze requires closed,
    as a ResourceWarning on stderr. cli.main itself never freezes."""
    cfg = base_config("run")  # relative to each run's working directory
    cfg["data"]["audit_path"] = os.path.join("run", "test_mislabel.jsonl")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    src = os.path.dirname(os.path.dirname(ca.__file__))
    (tmp_path / "lib").mkdir()
    (tmp_path / "console").mkdir()
    for stage in ("gen", "corrupt", "train", "audit", "eval", "heatmap"):
        monkeypatch.chdir(tmp_path / "lib")
        frozen = gc.get_freeze_count()
        assert run_cli(stage, "--config", str(cfg_path)) == 0
        assert gc.get_freeze_count() == frozen
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-m", "cslaudit.cli", stage,
             "--config", str(cfg_path)], cwd=tmp_path / "console", text=True,
            capture_output=True, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert (proc.stdout, proc.stderr) == capsys.readouterr(), stage

    def tree(root):
        return {p.relative_to(root): p.read_bytes()
                for p in root.rglob("*") if p.is_file()}
    assert tree(tmp_path / "console") == tree(tmp_path / "lib") != {}


@pytest.mark.parametrize("field,value,err", [
    ("weight_decay", 1e10, "numeric error: epoch 2: tensor enc.W holds a "
     "non-finite value in float32; its snapshot is not written\n"),
    ("learning_rate", 1e6, "numeric error: non-finite loss at epoch 3, "
     "step 12\n")], ids=["weight-decay", "learning-rate"])
def test_training_overflow_is_one_stderr_line(tmp_path, monkeypatch, capsys,
                                              field, value, err):
    """Training that overflows ends in exit 4 and one stderr line, without
    numpy's warnings: with a huge weight decay, epoch 2's parameters leave
    float32 range, and train refuses that snapshot before writing it. The
    epoch 1 snapshot stays, finite, but its float32 replay overflows, and
    audit says so."""
    from test_fuzz import CONFIG
    cfg = dict(CONFIG, train=dict(CONFIG["train"], **{field: value}))
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    monkeypatch.chdir(tmp_path)
    for stage in ("gen", "corrupt"):
        assert run_cli(stage, "--config", "config.json") == 0
    src = os.path.dirname(os.path.dirname(ca.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "cslaudit.cli", "train", "--config",
         "config.json"], text=True, capture_output=True,
        env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stderr) == (4, err)
    stored = sorted(os.listdir(tmp_path / "run" / "store"))
    assert stored[0] == "ckpt_0001.bin" and "ckpt_0003.bin" not in stored
    if field == "weight_decay":
        assert stored == ["ckpt_0001.bin", "manifest.json"]
    capsys.readouterr()
    assert run_cli("audit", "--config", "config.json") == 4
    assert capsys.readouterr().err.endswith(
        "non-finite loss at epoch 1: the float32 replay overflowed; the "
        "weights are finite\n")


@pytest.mark.parametrize("command", ["heatmap", "train"])
def test_closed_stdout_exits_1_without_traceback(trained_cfg, tmp_path,
                                                 command):
    """`cslaudit heatmap | head -1` after head has gone: exit 1 and a quiet
    stderr (a BrokenPipeError traceback before). `train` keeps the epochs
    it finished. The pipe's read end closes before the command prints, so
    the test does not race the command's writes."""
    path, cfg = audited_copy(trained_cfg, tmp_path)
    if command == "train":  # a new store, from the trained run's data
        shutil.rmtree(os.path.join(cfg["out_dir"], "store"))
        cfg["data"]["train_path"] = os.path.join(trained_cfg["out_dir"],
                                                 "train.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(cfg, f)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cslaudit.cli", command, "--config", path],
            stdout=write, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=os.path.dirname(
                os.path.dirname(ca.__file__))))
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "")
    if command == "train":
        assert ca.load_store(os.path.join(cfg["out_dir"], "store")).epochs \
            == [1]


def fresh_store_cfg(trained_cfg, tmp_path):
    """trained_cfg training on its train split into a new out_dir."""
    return dict(trained_cfg, out_dir=str(tmp_path / "run"), data=dict(
        trained_cfg["data"], train_path=os.path.join(trained_cfg["out_dir"],
                                                     "train.jsonl")))


def test_interrupt_exits_130_with_one_line(trained_cfg, tmp_path):
    """SIGINT (Ctrl-C) during `train`, sent once epoch 1 is reported: exit
    130 and one stderr line naming the last stored epoch (a KeyboardInterrupt
    traceback before). The store keeps the epochs it finished, and no temp
    file."""
    cfg = dict(fresh_store_cfg(trained_cfg, tmp_path),
               train=dict(trained_cfg["train"], epochs=100000))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cslaudit.cli", "train", "--config", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(ca.__file__))))
    try:
        assert proc.stdout.readline().startswith("epoch 1: ")
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    store = tmp_path / "run" / "store"
    epochs = ca.load_store(str(store)).epochs
    assert epochs == list(range(1, len(epochs) + 1)) != []
    assert (proc.returncode, err) == (
        130, f"interrupted after epoch {epochs[-1]} was stored\n")
    assert not [f for f in os.listdir(store) if f.endswith(".tmp")]


def test_interrupt_before_the_first_epoch_says_so(trained_cfg, tmp_path,
                                                  monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.TR, "train", interrupted)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fresh_store_cfg(trained_cfg, tmp_path)))
    with pytest.raises(KeyboardInterrupt) as e:
        run_cli("train", "--config", str(path))
    assert e.value.args == ("before epoch 1 was stored",)


def test_interrupt_names_the_epoch_the_manifest_lists(trained_cfg, tmp_path,
                                                      monkeypatch):
    """Ctrl-C after epoch 2's manifest is on disk but before its progress
    line: the epoch named is 2 (1, the last one reported, before)."""
    train = cli.TR.train

    def interrupted(*args, on_epoch):
        def stop(epoch, loss):
            if epoch == 2:
                raise KeyboardInterrupt
            on_epoch(epoch, loss)
        return train(*args, on_epoch=stop)

    monkeypatch.setattr(cli.TR, "train", interrupted)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fresh_store_cfg(trained_cfg, tmp_path)))
    with pytest.raises(KeyboardInterrupt) as e:
        run_cli("train", "--config", str(path))
    assert e.value.args == ("after epoch 2 was stored",)


def test_console_script_is_console_main():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    root = os.path.dirname(os.path.dirname(os.path.dirname(ca.__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts == {"cslaudit": "cslaudit.cli:console_main"}


# The package's public names before its submodules loaded lazily, less the
# deleted audit_sequence, ClassWeights, save_store and MetricsReport.
PUBLIC = {
    "CorruptionSpec", "Dataset", "PhaseGrammar", "SequenceSample",
    "corrupt_dataset", "generate_dataset", "read_dataset", "write_dataset",
    "ModelConfig", "ModelParams", "backward", "forward", "init_params",
    "CheckpointStore", "TrainConfig", "compute_class_weights",
    "load_store", "train",
    "CslProfile", "DetectionConfig", "LossTrajectory", "audit_dataset",
    "calibrate_tau", "compute_csl", "eval_loss_trajectory", "flag_percentile",
    "flag_threshold", "frames_to_segments", "smooth_csl",
    "trajectory_curvature",
    "EvalInput", "auc_bruteforce", "build_report", "eda",
    "micro_auc",
}


def test_public_names_resolve():
    assert sorted(ca.__all__) == sorted(PUBLIC)
    listed = dir(ca)
    for name in PUBLIC:
        home = getattr(ca, ca._HOME[name])
        assert getattr(ca, name) is getattr(home, name)
        assert name in listed
    with pytest.raises(AttributeError, match="audit_sequence"):
        ca.audit_sequence
    namespace = {}
    exec("from cslaudit import *", namespace)
    assert {n for n in namespace if n != "__builtins__"} == PUBLIC
