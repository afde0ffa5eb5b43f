import base64
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import cslaudit as ca
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
        section = tmp_path / "section.json"
        section.write_text('{"grammar": 5}')
        for path, text in ((tmp_path, "is a directory"),
                           (latin, "not UTF-8"),
                           (section, "grammar must be a JSON object")):
            capsys.readouterr()
            assert run_cli("gen", "--config", str(path)) == 2
            assert text in capsys.readouterr().err


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
        epoch, params, _ = store.snapshots[1]
        params.tensors["head.W3"][0, 0] = np.nan
        ca.save_store(store, store_dir)
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
    "empty-sample": (2, lambda rows: rows[1].update(
        frames=[], labels=[], error_mask=[])),
    "non-object-sample": (4, lambda rows: rows.__setitem__(3, [1, 2])),
    "float-label": (2, lambda rows: rows[1]["labels"].__setitem__(0, 0.5)),
    # an id names the heatmap file and is written unquoted into audit.csv
    "id-not-a-string": (3, lambda rows: rows[2].update(id=7)),
    "id-with-slash": (3, lambda rows: rows[2].update(id="../x")),
    "id-with-comma": (3, lambda rows: rows[2].update(id="a,b")),
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
    videos = cli._load_profiles(cfg)["videos"]
    profiles = library_profiles(path)
    assert [v["id"] for v in videos] == [p.video_id for p in profiles]
    for v, p in zip(videos, profiles):
        got = v["trajectory"].losses
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert np.array_equal(got.view("<u8"),
                              p.trajectory.losses.view("<u8"))
        assert np.array_equal(decode_losses(v), got)


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


def _make_dir(path):
    path.mkdir()
    return path


def _make_latin1(path):
    path.write_bytes(b'{"format": "\xff"}\n')
    return path


def _make_plain_gz(path):
    gz = path.with_suffix(".jsonl.gz")
    gz.write_text("{}\n")
    return gz


# (text the error must show besides the path, how to make the bad path)
UNREADABLE = {
    "missing": ("run gen first", lambda path: path),
    "directory": ("is a directory", _make_dir),
    "not-utf8": ("not UTF-8", _make_latin1),
    "gz-not-gzip": ("gzip", _make_plain_gz),
}


@pytest.mark.parametrize("text,make", list(UNREADABLE.values()),
                         ids=list(UNREADABLE))
def test_unreadable_dataset_exit_3(trained_cfg, tmp_path, capsys, text, make):
    bad = make(tmp_path / "d.jsonl")
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
    assert not os.path.exists(tmp_path / "run" / "store")


STORE_FIELDS = ("model", "epochs", "epoch_losses", "class_weights",
                "fingerprints")
# (text the error must show, edit of a clean store manifest)
BAD_MANIFESTS = {
    "array": ("must be a JSON object", lambda m: [m]),
    "format-only": ("lacks 'model'", lambda m: {"format": m["format"]}),
    **{f"without-{key}": (f"lacks {key!r}",
                          lambda m, key=key: {k: v for k, v in m.items()
                                              if k != key})
       for key in STORE_FIELDS},
    "epoch-count-mismatch": ("'epochs' and 'epoch_losses'", lambda m: dict(
        m, epoch_losses=m["epoch_losses"][:-1])),
    "string-epoch": ("'epochs' must hold integers", lambda m: dict(
        m, epochs=[str(e) for e in m["epochs"]])),
    "null-loss": ("'epoch_losses' must hold numbers", lambda m: dict(
        m, epoch_losses=[None] * len(m["epoch_losses"]))),
}


@pytest.mark.parametrize("text,mutate", list(BAD_MANIFESTS.values()),
                         ids=list(BAD_MANIFESTS))
def test_malformed_store_manifest_exit_3(trained_cfg, tmp_path, capsys, text,
                                         mutate):
    store = tmp_path / "run" / "store"
    shutil.copytree(os.path.join(trained_cfg["out_dir"], "store"), store)
    manifest = json.loads((store / "manifest.json").read_text())
    (store / "manifest.json").write_text(json.dumps(mutate(manifest)))
    cfg = dict(trained_cfg, out_dir=str(tmp_path / "run"),
               data=dict(trained_cfg["data"], audit_path=os.path.join(
                   trained_cfg["out_dir"], "test.jsonl")))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run_cli("audit", "--config", str(path)) == 3
    err = capsys.readouterr().err
    assert "manifest.json" in err and text in err


PROFILE_FIELDS = ("id", "epochs", "gt_error", "losses")


def _video_1(**fields):
    """Edit of a clean profiles.json: video 1 with these fields replaced."""
    return lambda d: dict(d, videos=[d["videos"][0],
                                     dict(d["videos"][1], **fields)])


# (text the error must show, edit of a clean profiles.json)
BAD_PROFILES = {
    "array": ("must be a JSON object", lambda d: [d]),
    "videos-not-a-list": ("'videos' must be a list",
                          lambda d: dict(d, videos={"v0": d["videos"][0]})),
    "video-not-an-object": ("video 1 must be a JSON object",
                            lambda d: dict(d, videos=[d["videos"][0], "v1"])),
    **{f"video-without-{key}": (
        f"video 1 lacks {key!r}",
        lambda d, key=key: dict(d, videos=[d["videos"][0], {
            k: v for k, v in d["videos"][1].items() if k != key}]))
       for key in PROFILE_FIELDS},
    "losses-not-base64": ("video 1 losses is not valid base64",
                          _video_1(losses="not base64!")),
    "losses-wrong-length": ("video 1 losses holds 16 bytes, not 24",
                            _video_1(losses=encode_losses([0.1, 0.9]))),
    "old-format-tag": ("'csl-profiles/1' is not 'csl-profiles/2'; re-run "
                       "`cslaudit audit`",
                       lambda d: dict(d, format="csl-profiles/1")),
    "bad-window": ("detection.window must be an integer >= 0",
                   lambda d: dict(d, detection={"window": -1})),
    "id-with-slash": ("video 1: sample id '../x'", _video_1(id="../x")),
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
