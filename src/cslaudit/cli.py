"""Command-line pipeline: gen, corrupt, train, audit, eval, heatmap.

A single JSON config file drives every command; individual flags override
fields. All outputs are deterministic given the config, and every artifact
embeds the configuration and seeds that produced it.

Exit codes: 0 success, 1 stdout closed early, 2 config error, 3 data error or
an unwritable output path, 4 numeric error, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys

from . import csl as CSL
from . import fileio as FIO
from . import metrics as MET
from . import model as M
from . import seqdata as SD
from . import trainer as TR
from .errors import (AuditToolError, ConfigError, DataError, FingerprintError,
                     NumericError, ParseError, SchemaError)

PROFILES_FORMAT = "csl-profiles/2"


# ---------------------------------------------------------------------------
# config handling


DEFAULT_CONFIG = {
    "seed": 0, "out_dir": ".",
    "grammar": {
        "num_classes": 6, "feature_dim": 16, "feature_noise_sigma": 1.0,
        "class_mean_scale": 2.8284271247461903,   # pairwise distance 4.0
        "class_means": None, "phase_order": None,  # default 0..C-1
        "duration_min": 40, "duration_max": 80, "boundary_blend": 3,
    },
    "data": {
        "n_train": 40, "n_val": 10, "n_test": 20,
        "train_path": None, "val_path": None, "audit_path": None,
    },
    "corruption": {
        "kind": "mislabel", "fraction": 0.5, "split": "test",
        "segment_len_min": 30, "segment_len_max": 80, "seed": None,
    },
    "model": {
        "hidden_dim": 32, "head_dims": [16, 8], "temporal_mode": "attention",
        "attention_dim": 16, "dropout_rates": [0.5, 0.3], "init_seed": None,
    },
    "train": {
        "epochs": 50, "learning_rate": 1e-4, "beta1": 0.9, "beta2": 0.999,
        "eps": 1e-8, "weight_decay": 0.01, "shuffle_seed": None,
    },
    "detection": {
        "mode": "percentile", "k_percent": 10.0, "tau": None, "window": 5,
        "audit_loss": "unweighted",
    },
}


# A leaf takes values of the kind of its default; these example values give
# the kind of the leaves whose default is null.
_NULL_KINDS = {"grammar.class_means": [[0.0]], "grammar.phase_order": [0],
               "data.train_path": "x", "data.val_path": "x",
               "data.audit_path": "x", "corruption.seed": 0,
               "model.init_seed": 0, "train.shuffle_seed": 0,
               "detection.tau": 0.0}


def _merge(base: dict, override: dict, prefix: str = "",
           default: dict = DEFAULT_CONFIG) -> dict:
    """base with override's values. A key the default config lacks, a
    non-object where it has a section, or a value not of its default's kind
    (null only where the default is null) raises ConfigError naming it."""
    out = dict(base)
    for k, v in override.items():
        dotted = prefix + k
        if k not in default:
            raise ConfigError(f"config field {dotted}: unknown field")
        if isinstance(default[k], dict):
            FIO.check_json(v, {}, f"config field {dotted}:", ConfigError)
            v = _merge(base[k], v, dotted + ".", default[k])
        elif v is not None or default[k] is not None:
            what, _, test = FIO.json_kind(_NULL_KINDS.get(dotted, default[k]))
            if dotted == "corruption.split":  # no dataclass checks this one
                what, test = '"train" or "test"', ("train", "test").__contains__
            if not test(v):
                raise ConfigError(f"config field {dotted}: must be {what}, "
                                  f"not {json.dumps(v)}")
        out[k] = v
    return out


def load_config(path: str, overrides: dict | None = None) -> dict:
    """The default config merged with the JSON object at path, then with
    overrides (the command-line flags), every value checked on the way."""
    user = FIO.read_json(path, ConfigError, f"{path}: config file not found")
    FIO.check_json(user, {}, f"{path}: config", ConfigError)
    return _merge(_merge(DEFAULT_CONFIG, user), overrides or {})


def _seed(cfg: dict, value: int | None, offset: int) -> int:
    """A seed field's value, or the global seed plus offset when it is null."""
    return cfg["seed"] + offset if value is None else value


def build_grammar(cfg: dict) -> SD.PhaseGrammar:
    g = cfg["grammar"]
    C, d = g["num_classes"], g["feature_dim"]
    means = g["class_means"]
    if means is None:
        if d < C:
            raise ConfigError(
                "feature_dim must be >= num_classes for default class means")
        scale = g["class_mean_scale"]
        means = [[scale if j == i else 0.0 for j in range(d)]
                 for i in range(C)]
    return SD.PhaseGrammar(
        num_classes=C, feature_dim=d, class_means=means,
        feature_noise_sigma=float(g["feature_noise_sigma"]),
        phase_order=range(C) if g["phase_order"] is None else g["phase_order"],
        duration_min=g["duration_min"], duration_max=g["duration_max"],
        boundary_blend=g["boundary_blend"])


def build_model_config(cfg: dict, grammar: SD.PhaseGrammar) -> M.ModelConfig:
    m = cfg["model"]
    return M.ModelConfig(
        feature_dim=grammar.feature_dim, num_classes=grammar.num_classes,
        hidden_dim=m["hidden_dim"], head_dims=tuple(m["head_dims"]),
        temporal_mode=m["temporal_mode"], attention_dim=m["attention_dim"],
        dropout_rates=tuple(map(float, m["dropout_rates"])),
        init_seed=_seed(cfg, m["init_seed"], 100))


def build_train_config(cfg: dict) -> TR.TrainConfig:
    t = cfg["train"]
    return TR.TrainConfig(
        epochs=t["epochs"], shuffle_seed=_seed(cfg, t["shuffle_seed"], 200),
        **{k: float(t[k]) for k in ("learning_rate", "beta1", "beta2", "eps",
                                    "weight_decay")})


def build_detection_config(cfg: dict) -> CSL.DetectionConfig:
    d = cfg["detection"]
    return CSL.DetectionConfig(
        mode=d["mode"], tau=0.0 if d["tau"] is None else float(d["tau"]),
        k_percent=float(d["k_percent"]), window=d["window"],
        audit_loss=d["audit_loss"])


def _path(cfg: dict, name: str) -> str:
    return os.path.join(cfg["out_dir"], name)


def _split_path(cfg: dict, split: str) -> str:
    """data.<split>_path if set (train, val), else <split>.jsonl in out_dir."""
    return cfg["data"].get(f"{split}_path") or _path(cfg, f"{split}.jsonl")


def _read_split(path: str) -> SD.Dataset:
    """read_dataset of path; a file without samples raises DataError."""
    ds = SD.read_dataset(path)
    if not ds.samples:
        raise DataError(f"{path}: the dataset holds no samples, only a "
                        f"header line")
    return ds


# ---------------------------------------------------------------------------
# commands


def cmd_gen(cfg: dict) -> None:
    grammar = build_grammar(cfg)
    FIO.make_dir(cfg["out_dir"])
    for i, split in enumerate(SD.SPLITS):
        n = cfg["data"][f"n_{split}"]
        ds = SD.generate_dataset(grammar, n, split, seed=cfg["seed"] + i)
        SD.write_dataset(ds, _split_path(cfg, split))
        print(f"{split}: {n} sequences, "
              f"{sum(s.num_frames for s in ds.samples)} frames")


def cmd_corrupt(cfg: dict, out_file: str | None) -> None:
    c = cfg["corruption"]
    spec = SD.CorruptionSpec(
        kind=c["kind"], video_fraction=float(c["fraction"]),
        segment_len_min=c["segment_len_min"],
        segment_len_max=c["segment_len_max"],
        seed=_seed(cfg, c["seed"], 10))
    path = _split_path(cfg, c["split"])
    ds = _read_split(path)
    with FIO.naming(path, DataError):  # a sample corrupted already or short
        corrupted = SD.corrupt_dataset(ds, spec)
    out = out_file or _path(cfg, f"{c['split']}_{spec.kind}.jsonl")
    SD.write_dataset(corrupted, out,
                     header_extra={"corruption_spec": dict(vars(spec))})
    n_corrupt = sum(1 for s in corrupted.samples if s.corruption is not None)
    print(f"corrupted {n_corrupt}/{len(corrupted.samples)} sequences -> {out}")


def cmd_train(cfg: dict) -> None:
    ds = _read_split(_split_path(cfg, "train"))
    model_cfg = build_model_config(cfg, ds.grammar)
    train_cfg = build_train_config(cfg)
    store_dir = _path(cfg, "store")

    def on_epoch(epoch: int, loss: float) -> None:
        print(f"epoch {epoch}: mean loss {loss:.6f}", flush=True)

    try:
        TR.train(ds, model_cfg, train_cfg, store_dir, on_epoch=on_epoch)
    except KeyboardInterrupt:  # name the last epoch the manifest on disk lists
        manifest = FIO.read_json(os.path.join(store_dir, "manifest.json"),
                                 KeyboardInterrupt, "before epoch 1 was stored")
        raise KeyboardInterrupt(
            f"after epoch {manifest['epochs'][-1]} was stored")


def cmd_audit(cfg: dict) -> None:
    det = build_detection_config(cfg)
    store = TR.load_store(_path(cfg, "store"))
    path = cfg["data"]["audit_path"] or _path(cfg, "test.jsonl")
    ds = _read_split(path)
    tau = None
    if det.mode == CSL.THRESHOLD and cfg["detection"]["tau"] is None:
        # calibrate on the (assumed clean) validation split
        val_path = _split_path(cfg, "val")
        with FIO.naming(val_path, FingerprintError):  # another grammar's
            val = CSL.audit_dataset(store, _read_split(val_path), det)
        tau = MET.calibrate_tau([p.smoothed for p in val])
        det = build_detection_config(
            dict(cfg, detection=dict(cfg["detection"], tau=tau)))

    with FIO.naming(path, FingerprintError):  # before any output opens
        profiles = CSL.audit_dataset(store, ds, det)
    E = len(store)
    head = {"format": PROFILES_FORMAT, "seed": cfg["seed"],
            "store_fingerprints": store.manifest["fingerprints"],
            # eval recomputes the smoothed CSL with this window
            "detection": dict(cfg["detection"], tau=det.tau
                              if det.mode == CSL.THRESHOLD
                              else cfg["detection"]["tau"])}
    epochs = store.epochs
    # One pass: each video's profiles.json object and audit.csv rows are
    # written before the next replay. Both outputs are opened first and are
    # atomic. profiles.json is renamed first, so a fault in it leaves
    # audit.csv as it was; its atomic_path would report an OSError of
    # audit.csv as its own, so audit.csv's writes are under writing(csv_path).
    csv_path = _path(cfg, "audit.csv")
    with FIO.atomic_path(csv_path) as tmp, open(tmp, "wb") as csv, \
            FIO.atomic_path(_path(cfg, "profiles.json")) as tmp, \
            open(tmp, "wb") as f:
        with FIO.writing(csv_path):
            csv.write(b"video_id,frame,label,csl,csl_smoothed,curvature,flag,"
                      b"gt_error\n")
        # Keys are sorted and "videos" sorts last, so the bytes equal a
        # single json.dump(..., sort_keys=True) of the full dict.
        f.write(json.dumps(head, sort_keys=True)[:-1].encode()
                + b', "videos": [')
        # zip outermost: no cached tuple holds a profile into the next replay
        for (i, sample), p in zip(enumerate(ds.samples), profiles):
            f.write(b", " * (i > 0) + FIO.json_b64({
                "id": sample.id, "epochs": epochs, "flags": p.flags,
                "segments": p.segments, "labels": sample.labels,
                "gt_error": sample.error_mask}, "losses", p.losses.tobytes()))
            curvature = CSL.trajectory_curvature(p.losses).tolist() \
                if E >= 3 else [math.nan] * len(p.csl)
            # f"{x!r}" of a Python float is its shortest round-trip decimal,
            # with no per-frame numpy indexing.
            with FIO.writing(csv_path):
                csv.write("".join(
                    f"{sample.id},{t},{y},{c!r},{sm!r},{k!r},{fl},{g}\n"
                    for t, (y, c, sm, k, fl, g) in enumerate(zip(
                        sample.labels, p.csl, p.smoothed, curvature,
                        p.flags, sample.error_mask))).encode())
        f.write(b"]}\n")
    n_frames = sum(s.num_frames for s in ds.samples)
    print(f"audited {len(ds.samples)} videos ({n_frames} frames) "
          f"over {E} checkpoints")
    if tau is not None:
        print(f"calibrated tau = {tau!r}")


# The profiles.json fields eval and heatmap read, each an example of its kind
PROFILES_SHAPE = {"format": "x", "detection": {"window": 0}, "videos": [
    {"id": "x", "epochs": [0], "gt_error": [0], "losses": "x"}]}


def _load_profiles(cfg: dict) -> dict:
    """The parsed profiles.json, each video's `losses` replaced by its
    checked E x T matrix as rows (`fileio.loss_rows`), E = len(epochs) and
    T = len(gt_error). Malformed input raises ParseError or SchemaError
    naming path and field; a bad loss value's error names path and video."""
    path = _path(cfg, "profiles.json")
    data = FIO.read_json(path, ParseError,
                         f"no audit artifacts at {path}; run audit first")
    if type(data) is dict and data.get("format") != PROFILES_FORMAT:
        raise ParseError(f"{path}: format {data.get('format')!r} is not "
                         f"{PROFILES_FORMAT!r}; re-run `cslaudit audit`")
    FIO.check_json(data, PROFILES_SHAPE, f"{path}: profiles", SchemaError)
    if not data["videos"]:
        raise SchemaError(f"{path}: profiles.videos is empty; re-run "
                          f"`cslaudit audit`")
    first = {}  # id -> index of the first video with it
    for i, v in enumerate(data["videos"]):
        where = f"{path}: profiles.videos[{i}]"
        vid, epochs, gt = v["id"], v["epochs"], v["gt_error"]
        with FIO.naming(f"{where}.id", SchemaError):
            FIO.check_id(vid)
        if first.setdefault(vid, i) != i:
            raise SchemaError(f"{where}.id repeats videos[{first[vid]}].id")
        if not epochs:
            raise SchemaError(f"{where}.epochs is empty")
        if not FIO.ints_within(gt, 0, 2):
            raise SchemaError(f"{where}.gt_error must hold 0s and 1s only")
        v["losses"] = FIO.f8_bytes(v["losses"], (len(epochs), len(gt)),
                                   f"{where}.losses")
    with FIO.naming(path, DataError, NumericError):
        for v in data["videos"]:  # values last, once every field has its form
            v["losses"] = FIO.loss_rows(v["losses"], v["epochs"],
                                        len(v["gt_error"]), v["id"])
    return data


def cmd_eval(cfg: dict) -> None:
    profiles = _load_profiles(cfg)
    window = profiles["detection"]["window"]  # the audit's, not this config's
    inputs = [MET.EvalInput(v["id"], MET.smooth(MET.mean_over_epochs(
                  v["losses"]), window), v["gt_error"])
              for v in profiles["videos"]]
    report = MET.build_report(
        inputs, k_percent=float(cfg["detection"]["k_percent"]),
        config={"detection": cfg["detection"], "seed": cfg["seed"]})
    auc, eda = report["micro_auc"], report["eda"]
    if auc is None:
        print("warning: micro-AUC undefined (single-class ground truth)",
              file=sys.stderr)
    if eda is None:
        print("warning: EDA undefined (no ground-truth erroneous segments)",
              file=sys.stderr)
    out = _path(cfg, "report.json")
    FIO.write_file(out, json.dumps(report, sort_keys=True, indent=1).encode(),
                   b"\n")
    auc_s = "n/a" if auc is None else f"{auc:.4f}"
    eda_s = "n/a" if eda is None else f"{eda:.4f}"
    print(f"micro-AUC {auc_s}, EDA@{report['k_percent']:g}% {eda_s} -> {out}")


def write_pgm(losses, path: str) -> None:
    """Binary PGM (P5) of the E x T matrix `losses` (rows of finite,
    non-negative floats; a 2-D array passes): width T, height E,
    pixel = round(255 * l / max). The arithmetic is numpy's, operation for
    operation, and round() rounds half to even as np.round does; where
    255 * max would overflow (max above ~7e305), l / max comes first."""
    E, T = len(losses), len(losses[0])
    peak = max(map(max, losses))
    if 255.0 * peak == math.inf:  # 255.0 * x may overflow: x above ~7e305
        losses, peak = [[x / peak for x in row] for row in losses], 1.0
    pixels = b"".join(bytes(round(255.0 * x / peak) for x in row)
                      for row in losses) if peak > 0 else bytes(E * T)
    FIO.write_file(path, f"P5\n{T} {E}\n255\n".encode("ascii"), pixels)


def cmd_heatmap(cfg: dict, video: str | None) -> None:
    # every video is checked before any write
    rows = {v["id"]: v["losses"] for v in _load_profiles(cfg)["videos"]}
    if video is not None and video not in rows:
        raise DataError(f"unknown video id {video!r}")
    for vid in rows if video is None else [video]:
        out = _path(cfg, f"heatmap_{vid}.pgm")
        write_pgm(rows[vid], out)
        print(f"wrote {out}")


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cslaudit",
        description="Annotation-error detection via checkpointed loss trajectories")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, help="override global seed")
        p.add_argument("--out", help="override output directory")

    common(sub.add_parser("gen", help="generate train/val/test datasets"))
    p = sub.add_parser("corrupt", help="inject annotation errors")
    common(p)
    p.add_argument("--kind", choices=["mislabel", "disorder"])
    p.add_argument("--fraction", type=float)
    p.add_argument("--split", choices=["train", "test"])
    p.add_argument("--out-file")
    common(sub.add_parser("train", help="train and checkpoint every epoch"))
    common(sub.add_parser("audit", help="compute CSL profiles and flags"))
    common(sub.add_parser("eval", help="score detection against ground truth"))
    p = sub.add_parser("heatmap", help="export loss-trajectory heatmaps (PGM)")
    common(p)
    p.add_argument("--video", help="video id (default: all audited videos)")
    return parser


def run(argv: list[str] | None = None) -> None:
    args = _build_parser().parse_args(argv)

    def given(flags: dict) -> dict:
        return {k: v for k, v in flags.items() if v is not None}

    overrides = given({"seed": args.seed, "out_dir": args.out})
    if args.command == "corrupt":
        overrides["corruption"] = given({
            "kind": args.kind, "fraction": args.fraction, "split": args.split})
    cfg = load_config(args.config, overrides)
    if args.command == "corrupt":
        cmd_corrupt(cfg, args.out_file)
    elif args.command == "heatmap":
        cmd_heatmap(cfg, args.video)
    else:
        {"gen": cmd_gen, "train": cmd_train, "audit": cmd_audit,
         "eval": cmd_eval}[args.command](cfg)


def main(argv: list[str] | None = None) -> int:
    try:
        run(argv)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 4
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except AuditToolError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    return 0


def console_main() -> None:
    """The process entry point: main()'s exit code; without a traceback, 1
    if stdout closed early (`cslaudit ... | head`), 130 on Ctrl-C."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # so that the flush at exit goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    except KeyboardInterrupt as e:  # train keeps the epochs it finished
        print(" ".join(["interrupted", *e.args]), file=sys.stderr)
        code = 130
    # Every file is closed by now. Frozen, the rest (mostly numpy's import-time
    # heap, where the command loaded numpy) is skipped by the collections at
    # exit; atexit handlers still run.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console_main()
