"""Command-line pipeline: gen, corrupt, train, audit, eval, heatmap.

A single JSON config file drives every command; individual flags override
fields. All outputs are deterministic given the config, and every artifact
embeds the configuration and seeds that produced it.

Exit codes: 0 success, 2 config error, 3 data/format error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import csl as CSL
from . import metrics as MET
from . import model as M
from . import seqdata as SD
from . import trainer as TR
from .errors import (AuditToolError, ConfigError, DataError, FingerprintError,
                     NumericError, ParseError, SchemaError)

PROFILES_FORMAT = "csl-profiles/2"


def _fmt(x: float) -> str:
    """Shortest round-trip decimal representation."""
    return repr(float(x))


# ---------------------------------------------------------------------------
# config handling


DEFAULT_CONFIG = {
    "seed": 0,
    "out_dir": ".",
    "grammar": {
        "num_classes": 6,
        "feature_dim": 16,
        "feature_noise_sigma": 1.0,
        "class_mean_scale": 2.8284271247461903,   # pairwise distance 4.0
        "class_means": None,
        "phase_order": None,                      # default 0..C-1
        "duration_min": 40,
        "duration_max": 80,
        "boundary_blend": 3,
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
        "attention_dim": 16, "dropout_rates": [0.5, 0.3],
        "init_seed": None, "init_scale": 1.0,
    },
    "train": {
        "epochs": 50, "learning_rate": 1e-4, "beta1": 0.9, "beta2": 0.999,
        "eps": 1e-8, "weight_decay": 0.01, "shuffle_seed": None,
        "checkpoint_stride": 1, "dropout": True,
    },
    "detection": {
        "mode": "percentile", "k_percent": 10.0, "tau": None, "window": 5,
        "audit_loss": "unweighted", "min_segment_len": 1,
        "calibration_quantile": 0.95,
    },
}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            user = json.load(f)
    except FileNotFoundError as e:
        raise ConfigError(f"config file not found: {path}") from e
    except IsADirectoryError as e:
        raise ConfigError(f"config path {path} is a directory") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"config {path} is not UTF-8 text ({e.reason})") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(user, dict):
        raise ConfigError("config must be a JSON object")
    cfg = _merge(DEFAULT_CONFIG, user)
    for section, default in DEFAULT_CONFIG.items():
        if isinstance(default, dict) and not isinstance(cfg[section], dict):
            raise ConfigError(f"config field {section} must be a JSON object")
    return cfg


def _field(cfg: dict, dotted: str, conv):
    """conv of the config value at a dotted path ("train.epochs"); a value
    conv refuses raises ConfigError naming the path."""
    value = cfg
    for key in dotted.split("."):
        value = value[key]
    try:
        return conv(value)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"config field {dotted}: cannot use {value!r} "
                          f"({e})") from e


def _ints(values) -> tuple[int, ...]:
    return tuple(int(x) for x in values)


def _floats(values) -> tuple[float, ...]:
    return tuple(float(x) for x in values)


def _seed(cfg: dict, dotted: str, offset: int) -> int:
    """The seed field at a dotted path, or the global seed plus offset when
    that field is null."""
    section, key = dotted.split(".")
    if cfg[section][key] is None:
        return _field(cfg, "seed", int) + offset
    return _field(cfg, dotted, int)


def build_grammar(cfg: dict) -> SD.PhaseGrammar:
    C = _field(cfg, "grammar.num_classes", int)
    d = _field(cfg, "grammar.feature_dim", int)
    if cfg["grammar"].get("class_means") is not None:
        means = _field(cfg, "grammar.class_means",
                       lambda v: np.asarray(v, dtype=np.float64))
    else:
        if d < C:
            raise ConfigError(
                "feature_dim must be >= num_classes for default class means")
        means = np.zeros((C, d))
        means[np.arange(C), np.arange(C)] = _field(
            cfg, "grammar.class_mean_scale", float)
    order = tuple(range(C))
    if cfg["grammar"].get("phase_order"):
        order = _field(cfg, "grammar.phase_order", _ints)
    return SD.PhaseGrammar(
        num_classes=C, feature_dim=d, class_means=means,
        feature_noise_sigma=_field(cfg, "grammar.feature_noise_sigma", float),
        phase_order=order,
        duration_min=_field(cfg, "grammar.duration_min", int),
        duration_max=_field(cfg, "grammar.duration_max", int),
        boundary_blend=_field(cfg, "grammar.boundary_blend", int))


def build_model_config(cfg: dict, grammar: SD.PhaseGrammar) -> M.ModelConfig:
    return M.ModelConfig(
        feature_dim=grammar.feature_dim, num_classes=grammar.num_classes,
        hidden_dim=_field(cfg, "model.hidden_dim", int),
        head_dims=_field(cfg, "model.head_dims", _ints),
        temporal_mode=cfg["model"]["temporal_mode"],
        attention_dim=_field(cfg, "model.attention_dim", int),
        dropout_rates=_field(cfg, "model.dropout_rates", _floats),
        init_seed=_seed(cfg, "model.init_seed", 100),
        init_scale=_field(cfg, "model.init_scale", float))


def build_train_config(cfg: dict) -> TR.TrainConfig:
    return TR.TrainConfig(
        epochs=_field(cfg, "train.epochs", int),
        learning_rate=_field(cfg, "train.learning_rate", float),
        beta1=_field(cfg, "train.beta1", float),
        beta2=_field(cfg, "train.beta2", float),
        eps=_field(cfg, "train.eps", float),
        weight_decay=_field(cfg, "train.weight_decay", float),
        shuffle_seed=_seed(cfg, "train.shuffle_seed", 200),
        checkpoint_stride=_field(cfg, "train.checkpoint_stride", int),
        dropout=bool(cfg["train"]["dropout"]))


def build_detection_config(cfg: dict) -> CSL.DetectionConfig:
    d = cfg["detection"]
    return CSL.DetectionConfig(
        mode=d["mode"],
        tau=_field(cfg, "detection.tau", lambda v: float(v or 0.0)),
        k_percent=_field(cfg, "detection.k_percent", float),
        window=_field(cfg, "detection.window", int),
        audit_loss=d["audit_loss"],
        min_segment_len=_field(cfg, "detection.min_segment_len", int))


def _path(cfg: dict, name: str) -> str:
    return os.path.join(cfg["out_dir"], name)


def _split_path(cfg: dict, split: str) -> str:
    key = {"train": "train_path", "val": "val_path"}.get(split)
    if key and cfg["data"].get(key):
        return cfg["data"][key]
    return _path(cfg, f"{split}.jsonl")


def _audit_path(cfg: dict) -> str:
    return cfg["data"].get("audit_path") or _path(cfg, "test.jsonl")


def _store_path(cfg: dict) -> str:
    return _path(cfg, "store")


# ---------------------------------------------------------------------------
# commands


def cmd_gen(cfg: dict) -> None:
    grammar = build_grammar(cfg)
    os.makedirs(cfg["out_dir"], exist_ok=True)
    counts = {split: _field(cfg, f"data.n_{split}", int) for split in SD.SPLITS}
    base = _field(cfg, "seed", int)
    for i, (split, n) in enumerate(counts.items()):
        ds = SD.generate_dataset(grammar, n, split, seed=base + i)
        SD.write_dataset(ds, _split_path(cfg, split))
        print(f"{split}: {n} sequences, "
              f"{sum(s.num_frames for s in ds.samples)} frames")


def cmd_corrupt(cfg: dict, kind: str | None, fraction: float | None,
                split: str | None, out_file: str | None) -> None:
    c = cfg["corruption"]
    kind = kind or c["kind"]
    if fraction is None:
        fraction = _field(cfg, "corruption.fraction", float)
    split = split or c["split"]
    spec = SD.CorruptionSpec(
        kind=kind, video_fraction=fraction,
        segment_len_min=_field(cfg, "corruption.segment_len_min", int),
        segment_len_max=_field(cfg, "corruption.segment_len_max", int),
        seed=_seed(cfg, "corruption.seed", 10))
    ds = SD.read_dataset(_split_path(cfg, split))
    corrupted = SD.corrupt_dataset(ds, spec)
    out = out_file or _path(cfg, f"{split}_{kind}.jsonl")
    SD.write_dataset(corrupted, out, header_extra={"corruption_spec": spec.to_dict()})
    n_corrupt = sum(1 for s in corrupted.samples if s.corruption is not None)
    print(f"corrupted {n_corrupt}/{len(corrupted.samples)} sequences -> {out}")


def cmd_train(cfg: dict) -> None:
    ds = SD.read_dataset(_split_path(cfg, "train"))
    model_cfg = build_model_config(cfg, ds.grammar)
    train_cfg = build_train_config(cfg)
    TR.train(ds, model_cfg, train_cfg, _store_path(cfg),
             on_epoch=lambda epoch, loss: print(
                 f"epoch {epoch}: mean loss {loss:.6f}", flush=True))


def cmd_audit(cfg: dict) -> None:
    store = TR.load_store(_store_path(cfg))
    ds = SD.read_dataset(_audit_path(cfg))
    ds_fp = SD.grammar_fingerprint(ds.grammar)
    store_fp = store.manifest["fingerprints"]["grammar"]
    if ds_fp != store_fp:
        raise FingerprintError(
            f"store/dataset mismatch: store grammar {store_fp}, "
            f"dataset grammar {ds_fp}")
    det = build_detection_config(cfg)
    tau = None
    if det.mode == CSL.THRESHOLD and cfg["detection"]["tau"] is None:
        # calibrate on the (assumed clean) validation split
        val = SD.read_dataset(_split_path(cfg, "val"))
        tau = CSL.calibrate_tau(
            [p.smoothed for p in CSL.audit_dataset(store, val, det)],
            _field(cfg, "detection.calibration_quantile", float))
        det = dataclasses.replace(det, tau=tau)

    profiles = CSL.audit_dataset(store, ds, det)  # raises before any write
    E = len(store)
    head = {
        "format": PROFILES_FORMAT,
        "store_fingerprints": store.manifest["fingerprints"],
        # eval recomputes the smoothed CSL with this window
        "detection": dict(cfg["detection"], window=det.window,
                          tau=det.tau if det.mode == CSL.THRESHOLD
                          else cfg["detection"]["tau"]),
        "seed": cfg["seed"],
    }
    epochs = list(store.epochs)
    os.makedirs(cfg["out_dir"], exist_ok=True)
    n_frames = 0
    with open(_path(cfg, "audit.csv"), "w", encoding="utf-8") as f_csv, \
            open(_path(cfg, "profiles.json"), "w", encoding="utf-8") as f_json:
        f_csv.write("video_id,frame,label,csl,csl_smoothed,curvature,flag,"
                    "gt_error\n")
        # One json.dumps per video runs the C encoder (json.dump to a file
        # does not) without holding the whole document as one string. Keys
        # are sorted and "videos" sorts last, so the bytes equal a single
        # json.dump(..., sort_keys=True) of the full dict.
        f_json.write(json.dumps(head, sort_keys=True)[:-1] + ', "videos": [')
        for i, (sample, p) in enumerate(zip(ds.samples, profiles)):
            curvature = CSL.trajectory_curvature(p.trajectory) if E >= 3 \
                else np.full(len(p.csl), np.nan)
            video = {
                "id": sample.id,
                "epochs": epochs,
                "losses": SD.encode_f8(p.trajectory.losses),
                "flags": p.flags.tolist(),
                "segments": [list(s) for s in p.segments],
                "labels": sample.labels.tolist(),
                "gt_error": sample.error_mask.tolist(),
            }
            # f"{x!r}" of a Python float is _fmt(x), with no per-frame numpy
            # indexing.
            f_csv.write("".join(
                f"{sample.id},{t},{y},{c!r},{sm!r},{k!r},{fl},{g}\n"
                for t, (y, c, sm, k, fl, g) in enumerate(zip(
                    video["labels"], p.csl.tolist(), p.smoothed.tolist(),
                    curvature.tolist(), video["flags"], video["gt_error"]))))
            f_json.write((", " if i else "") + json.dumps(video, sort_keys=True))
            n_frames += len(p.csl)
        f_json.write("]}\n")
    print(f"audited {len(profiles)} videos ({n_frames} frames) "
          f"over {E} checkpoints")
    if tau is not None:
        print(f"calibrated tau = {_fmt(tau)}")


def _load_profiles(cfg: dict) -> dict:
    """The parsed profiles.json with each video's `losses` decoded into a
    LossTrajectory under the key `trajectory`. Malformed input raises
    ParseError/SchemaError (a non-finite loss NumericError) naming the path
    and the video."""
    path = _path(cfg, "profiles.json")
    if not os.path.exists(path):
        raise DataError(f"no audit artifacts at {path}; run audit first")
    with open(path, encoding="utf-8") as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}: not valid JSON ({e.msg})", e.lineno) from e
    if not isinstance(data, dict):
        raise ParseError(f"{path}: profiles must be a JSON object, "
                         f"got {type(data).__name__}")
    if data.get("format") != PROFILES_FORMAT:
        raise ParseError(f"{path}: format {data.get('format')!r} is not "
                         f"{PROFILES_FORMAT!r}; re-run `cslaudit audit`")
    det = data.get("detection")
    window = det.get("window") if isinstance(det, dict) else None
    if type(window) is not int or window < 0:
        raise SchemaError(f"{path}: detection.window must be an integer "
                          f">= 0, got {window!r}")
    videos = data.get("videos")
    if not isinstance(videos, list):
        raise SchemaError(f"{path}: 'videos' must be a list, "
                          f"got {type(videos).__name__}")
    for i, v in enumerate(videos):
        where = f"{path}: video {i}"
        if not isinstance(v, dict):
            raise SchemaError(f"{where} must be a JSON object, "
                              f"got {type(v).__name__}")
        for key in ("id", "epochs", "gt_error", "losses"):
            if key not in v:
                raise SchemaError(f"{where} lacks {key!r}")
        vid, epochs, gt = v["id"], v["epochs"], v["gt_error"]
        try:
            SD.check_id(vid)
        except SchemaError as e:
            raise SchemaError(f"{where}: {e}") from e
        # type() is not int also refuses bools
        if not isinstance(epochs, list) or not epochs \
                or any(type(e) is not int for e in epochs):
            raise SchemaError(f"{where} epochs must be a non-empty list of "
                              f"integers")
        if not isinstance(gt, list) \
                or any(type(g) is not int or g not in (0, 1) for g in gt):
            raise SchemaError(f"{where} gt_error must be a list of 0/1 "
                              f"integers")
        losses = SD.decode_f8(v["losses"], (len(epochs), len(gt)),
                              f"{where} losses")
        try:
            v["trajectory"] = CSL.LossTrajectory(vid, losses, epochs)
        except (DataError, NumericError) as e:
            raise type(e)(f"{path}: {e}") from e
    return data


def cmd_eval(cfg: dict) -> None:
    profiles = _load_profiles(cfg)
    window = profiles["detection"]["window"]  # the audit's, not this config's
    inputs = [MET.EvalInput(video_id=v["id"],
                            scores=CSL.smooth_csl(
                                CSL.compute_csl(v["trajectory"]), window),
                            gt_mask=np.asarray(v["gt_error"], dtype=np.int8),
                            gt_segments=CSL.frames_to_segments(
                                np.asarray(v["gt_error"])))
              for v in profiles["videos"]]
    report = MET.build_report(
        inputs, k_percent=_field(cfg, "detection.k_percent", float),
        config={"detection": cfg["detection"], "seed": cfg["seed"]})
    if report.micro_auc is None:
        print("warning: micro-AUC undefined (single-class ground truth)",
              file=sys.stderr)
    if report.eda is None:
        print("warning: EDA undefined (no ground-truth erroneous segments)",
              file=sys.stderr)
    out = _path(cfg, "report.json")
    with open(out, "w", encoding="utf-8") as f:
        json.dump(report.to_dict(), f, sort_keys=True, indent=1)
        f.write("\n")
    auc_s = "n/a" if report.micro_auc is None else f"{report.micro_auc:.4f}"
    eda_s = "n/a" if report.eda is None else f"{report.eda:.4f}"
    print(f"micro-AUC {auc_s}, EDA@{report.k_percent:g}% {eda_s} -> {out}")


def write_pgm(losses: np.ndarray, path: str) -> None:
    """Binary PGM (P5): width T, height E, pixel = round(255 * l / max)."""
    losses = np.asarray(losses, dtype=np.float64)
    peak = losses.max()
    if peak > 0:
        pixels = np.round(255.0 * losses / peak).astype(np.uint8)
    else:
        pixels = np.zeros_like(losses, dtype=np.uint8)
    E, T = losses.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{T} {E}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())


def cmd_heatmap(cfg: dict, video: str | None) -> None:
    profiles = _load_profiles(cfg)
    by_id = {v["id"]: v for v in profiles["videos"]}
    if video is not None:
        if video not in by_id:
            raise DataError(f"unknown video id {video!r}")
        targets = [video]
    else:
        targets = list(by_id)
    for vid in targets:
        path = _path(cfg, f"heatmap_{vid}.pgm")
        write_pgm(by_id[vid]["trajectory"].losses, path)
        print(f"wrote {path}")


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
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out is not None:
        cfg["out_dir"] = args.out
    if args.command == "gen":
        cmd_gen(cfg)
    elif args.command == "corrupt":
        cmd_corrupt(cfg, args.kind, args.fraction, args.split, args.out_file)
    elif args.command == "train":
        cmd_train(cfg)
    elif args.command == "audit":
        cmd_audit(cfg)
    elif args.command == "eval":
        cmd_eval(cfg)
    elif args.command == "heatmap":
        cmd_heatmap(cfg, args.video)


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


if __name__ == "__main__":
    sys.exit(main())
