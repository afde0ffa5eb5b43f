"""Training loop with per-epoch checkpointing and the on-disk snapshot store.

The store is a directory with manifest.json plus one binary file per snapshot
(ckpt_{epoch:04}.bin). Binary layout: magic "CSLCKPT1", then for each tensor
(canonical name order): name length (u32 LE), UTF-8 name, rank (u32), dims
(u32 each), payload as little-endian float32; finally a CRC32 (u32 LE) of
everything between the magic and the checksum.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass

import numpy as np

from . import model as M
from .errors import ConfigError, CoverageError, NumericError, StoreError
from .seqdata import Dataset, dataset_fingerprint, grammar_fingerprint

STORE_FORMAT = "csl-ckpt-store/1"
MAGIC = b"CSLCKPT1"


@dataclass
class ClassWeights:
    alpha: np.ndarray  # (C,), positive, mean 1

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        if np.any(self.alpha <= 0):
            raise ConfigError("class weights must be positive")
        if abs(self.alpha.mean() - 1.0) > 1e-9:
            raise ConfigError("class weights must average to 1")


def compute_class_weights(ds: Dataset) -> ClassWeights:
    """alpha_c proportional to 1/count_c, rescaled to mean 1."""
    C = ds.grammar.num_classes
    counts = np.zeros(C, dtype=np.int64)
    for s in ds.samples:
        counts += np.bincount(s.labels, minlength=C)
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        raise CoverageError(
            f"class {int(missing[0])} never appears in the dataset labels")
    raw = 1.0 / counts
    return ClassWeights(raw * (C / raw.sum()))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    shuffle_seed: int = 0
    checkpoint_stride: int = 1
    dropout: bool = True

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.checkpoint_stride < 1:
            raise ConfigError("checkpoint_stride must be >= 1")

    def to_dict(self) -> dict:
        return {
            "epochs": self.epochs,
            "learning_rate": self.learning_rate,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps": self.eps,
            "weight_decay": self.weight_decay,
            "shuffle_seed": self.shuffle_seed,
            "checkpoint_stride": self.checkpoint_stride,
            "dropout": self.dropout,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(
            epochs=int(d["epochs"]),
            learning_rate=float(d["learning_rate"]),
            beta1=float(d["beta1"]),
            beta2=float(d["beta2"]),
            eps=float(d["eps"]),
            weight_decay=float(d["weight_decay"]),
            shuffle_seed=int(d["shuffle_seed"]),
            checkpoint_stride=int(d["checkpoint_stride"]),
            dropout=bool(d["dropout"]),
        )


class AdamWState:
    """AdamW moments plus the storage of the parameters they update.

    The constructor packs every parameter tensor into one contiguous float64
    buffer, 2-D weight matrices first, and rebinds `params.tensors` to views
    of it (names and canonical order unchanged), so that one step is a few
    vectorised operations over the whole model. Step only the `params` the
    state was built from.
    """

    def __init__(self, params: M.ModelParams):
        tensors = params.tensors
        # a stable sort keeps canonical order within each group
        self.order = sorted(tensors, key=lambda k: tensors[k].ndim != 2)
        self.n_decay = sum(tensors[k].size for k in self.order
                           if tensors[k].ndim == 2)
        self.p = np.concatenate([tensors[k].ravel() for k in self.order],
                                dtype=np.float64)
        off = 0
        for k in self.order:
            shape, n = tensors[k].shape, tensors[k].size
            tensors[k] = self.p[off:off + n].reshape(shape)
            off += n
        self.m = np.zeros_like(self.p)
        self.v = np.zeros_like(self.p)
        self.g = np.empty_like(self.p)
        self.tmp = np.empty_like(self.p)
        self.den = np.empty_like(self.p)


def adamw_step(params: M.ModelParams, grads: dict[str, np.ndarray],
               state: AdamWState, t: int, cfg: TrainConfig,
               context: str = "") -> None:
    """One in-place AdamW update of the parameters `state` was built from.
    Decoupled weight decay hits only the 2-D weight matrices (not biases,
    not LayerNorm gains/biases)."""
    if t < 1:
        raise ConfigError("step index must be >= 1")
    g = state.g
    np.concatenate([grads[k].ravel() for k in state.order], out=g)
    if not np.isfinite(g).all():
        name = next(k for k in params.tensors
                    if not np.isfinite(grads[k]).all())
        raise NumericError(f"non-finite gradient in {name} {context}".strip())
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    m, v, tmp, den = state.m, state.v, state.tmp, state.den
    # Same per-element operations, in the same order, as the textbook form
    #   m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
    #   p -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps);  p -= (lr*wd)*p  (2-D only)
    m *= cfg.beta1
    np.multiply(g, 1.0 - cfg.beta1, out=tmp)
    m += tmp
    v *= cfg.beta2
    np.multiply(g, 1.0 - cfg.beta2, out=tmp)
    tmp *= g
    v += tmp
    np.divide(m, bc1, out=tmp)
    tmp *= cfg.learning_rate
    np.divide(v, bc2, out=den)
    np.sqrt(den, out=den)
    den += cfg.eps
    tmp /= den
    state.p -= tmp
    if cfg.weight_decay > 0:
        w = state.p[:state.n_decay]
        np.multiply(w, cfg.learning_rate * cfg.weight_decay,
                    out=tmp[:state.n_decay])
        w -= tmp[:state.n_decay]


@dataclass
class CheckpointStore:
    manifest: dict
    snapshots: list[tuple[int, M.ModelParams, float]]  # (epoch, params, mean loss)

    @property
    def epochs(self) -> list[int]:
        return [e for e, _, _ in self.snapshots]

    @property
    def model_config(self) -> M.ModelConfig:
        return M.ModelConfig.from_dict(self.manifest["model"])

    @property
    def class_weights(self) -> np.ndarray:
        return np.asarray(self.manifest["class_weights"], dtype=np.float64)

    def __len__(self) -> int:
        return len(self.snapshots)


def train(ds_train: Dataset, cfg_model: M.ModelConfig, cfg_train: TrainConfig,
          store_path: str, *, on_epoch=None) -> CheckpointStore:
    """Train for E epochs, one sequence per optimizer step, snapshotting every
    checkpoint_stride epochs. Fully deterministic given seeds; snapshots are
    written to disk as they are produced. `on_epoch(epoch, mean_loss)`, when
    given, is called after each checkpoint and its manifest are on disk."""
    if not ds_train.samples:
        raise ConfigError("training dataset is empty")
    weights = compute_class_weights(ds_train)
    if cfg_model.feature_dim != ds_train.grammar.feature_dim:
        raise ConfigError("model feature_dim does not match dataset grammar")
    if cfg_model.num_classes != ds_train.grammar.num_classes:
        raise ConfigError("model num_classes does not match dataset grammar")

    ss = np.random.SeedSequence(cfg_train.shuffle_seed)
    shuffle_seed, dropout_seed = ss.spawn(2)
    rng_shuffle = np.random.default_rng(shuffle_seed)
    rng_dropout = np.random.default_rng(dropout_seed)

    eff_model = cfg_model
    if not cfg_train.dropout:
        from dataclasses import replace
        eff_model = replace(cfg_model, dropout_rates=(0.0, 0.0))

    params = M.init_params(eff_model)
    state = AdamWState(params)
    # Every step's activations and temporaries, sized for the longest
    # sequence up front: buffers that grew mid-run would leave their old
    # storage behind as holes in the heap.
    ws = M.Workspace()
    ws.buffers(eff_model, (), max(s.num_frames for s in ds_train.samples),
               True)
    n = len(ds_train.samples)
    os.makedirs(store_path, exist_ok=True)
    manifest = {
        "format": STORE_FORMAT,
        "model": eff_model.to_dict(),
        "train": cfg_train.to_dict(),
        "class_weights": weights.alpha.tolist(),
        "fingerprints": {
            "train_data": dataset_fingerprint(ds_train),
            "grammar": grammar_fingerprint(ds_train.grammar),
        },
        "epochs": [],
        "epoch_losses": [],
    }
    store = CheckpointStore(manifest=manifest, snapshots=[])
    step = 0
    for epoch in range(1, cfg_train.epochs + 1):
        order = rng_shuffle.permutation(n)
        losses = []
        for idx in order:
            sample = ds_train.samples[idx]
            step += 1
            loss, grads = M.backward(
                params, eff_model, sample.frames, sample.labels, weights.alpha,
                train=True, rng=rng_dropout, ws=ws)
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, step {step}")
            adamw_step(params, grads, state, step, cfg_train,
                       context=f"(epoch {epoch}, step {step})")
            losses.append(loss)
        mean_loss = float(np.mean(losses))
        if epoch % cfg_train.checkpoint_stride == 0:
            # Round through float32 so the in-memory snapshot equals the one
            # load_store decodes; training keeps its float64 parameters.
            snap = M.ModelParams({k: v.astype(np.float32).astype(np.float64)
                                  for k, v in params.tensors.items()})
            store.snapshots.append((epoch, snap, mean_loss))
            manifest["epochs"].append(epoch)
            manifest["epoch_losses"].append(mean_loss)
            _write_snapshot(store_path, epoch, snap)
            _write_manifest(store_path, manifest)
            if on_epoch is not None:
                on_epoch(epoch, mean_loss)
    return store


# ---------------------------------------------------------------------------
# store persistence


def _snapshot_path(store_path: str, epoch: int) -> str:
    return os.path.join(store_path, f"ckpt_{epoch:04d}.bin")


def encode_snapshot(params: M.ModelParams) -> bytes:
    body = bytearray()
    for name in params.tensors:  # canonical order from construction
        arr = np.ascontiguousarray(params.tensors[name], dtype="<f4")
        nb = name.encode("utf-8")
        body += np.uint32(len(nb)).tobytes()
        body += nb
        body += np.uint32(arr.ndim).tobytes()
        for dim in arr.shape:
            body += np.uint32(dim).tobytes()
        body += arr.tobytes()
    crc = zlib.crc32(bytes(body)) & 0xFFFFFFFF
    return MAGIC + bytes(body) + np.uint32(crc).tobytes()


def decode_snapshot(blob: bytes, context: str = "") -> M.ModelParams:
    if len(blob) < len(MAGIC) + 4 or blob[:len(MAGIC)] != MAGIC:
        raise StoreError(f"bad snapshot magic {context}".strip())
    body = blob[len(MAGIC):-4]
    crc_stored = int(np.frombuffer(blob[-4:], dtype="<u4")[0])
    if zlib.crc32(body) & 0xFFFFFFFF != crc_stored:
        raise StoreError(f"snapshot checksum mismatch {context}".strip())
    tensors: dict[str, np.ndarray] = {}
    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(body):
            raise StoreError(f"truncated snapshot {context}".strip())
        chunk = body[off:off + n]
        off += n
        return chunk

    while off < len(body):
        name_len = int(np.frombuffer(take(4), dtype="<u4")[0])
        name = take(name_len).decode("utf-8")
        rank = int(np.frombuffer(take(4), dtype="<u4")[0])
        dims = tuple(int(np.frombuffer(take(4), dtype="<u4")[0])
                     for _ in range(rank))
        count = int(np.prod(dims)) if dims else 1
        payload = np.frombuffer(take(4 * count), dtype="<f4")
        tensors[name] = payload.reshape(dims).astype(np.float64)
    return M.ModelParams(tensors)


def _write_snapshot(store_path: str, epoch: int, params: M.ModelParams) -> None:
    path = _snapshot_path(store_path, epoch)
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(encode_snapshot(params))
    os.replace(tmp, path)


def _write_manifest(store_path: str, manifest: dict) -> None:
    path = os.path.join(store_path, "manifest.json")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(manifest, f, sort_keys=True, indent=1)
        f.write("\n")
    os.replace(tmp, path)


def save_store(store: CheckpointStore, path: str) -> None:
    os.makedirs(path, exist_ok=True)
    for epoch, params, _ in store.snapshots:
        _write_snapshot(path, epoch, params)
    _write_manifest(path, store.manifest)


def load_store(path: str) -> CheckpointStore:
    manifest_path = os.path.join(path, "manifest.json")
    if not os.path.exists(manifest_path):
        raise StoreError(f"no manifest.json in {path}")
    with open(manifest_path, encoding="utf-8") as f:
        try:
            manifest = json.load(f)
        except json.JSONDecodeError as e:
            raise StoreError(f"{manifest_path}: not valid JSON ({e})") from e
    if not isinstance(manifest, dict):
        raise StoreError(f"{manifest_path}: manifest must be a JSON object, "
                         f"got {type(manifest).__name__}")
    if manifest.get("format") != STORE_FORMAT:
        raise StoreError(
            f"manifest format {manifest.get('format')!r} != {STORE_FORMAT!r}")
    for key in ("model", "epochs", "epoch_losses", "class_weights",
                "fingerprints"):
        if key not in manifest:
            raise StoreError(f"{manifest_path}: manifest lacks {key!r}")
    epochs, losses = manifest["epochs"], manifest["epoch_losses"]
    if not isinstance(epochs, list) or not isinstance(losses, list) \
            or len(epochs) != len(losses):
        raise StoreError(f"{manifest_path}: 'epochs' and 'epoch_losses' must "
                         "be lists of the same length")
    if any(type(e) is not int for e in epochs):
        raise StoreError(f"{manifest_path}: 'epochs' must hold integers")
    if any(type(x) not in (int, float) for x in losses):
        raise StoreError(f"{manifest_path}: 'epoch_losses' must hold numbers")
    try:
        cfg_model = M.ModelConfig.from_dict(manifest["model"])
    except (KeyError, TypeError, ValueError) as e:
        raise StoreError(f"{manifest_path}: malformed 'model' ({e!r})") from e
    expected = M.param_shapes(cfg_model)
    snapshots = []
    for epoch, mean_loss in zip(epochs, losses):
        snap_path = _snapshot_path(path, epoch)
        if not os.path.exists(snap_path):
            raise StoreError(f"manifest lists epoch {epoch} but "
                             f"{os.path.basename(snap_path)} is missing")
        with open(snap_path, "rb") as f:
            params = decode_snapshot(f.read(), context=f"(epoch {epoch})")
        for name, shape in expected.items():
            if name not in params.tensors or params.tensors[name].shape != shape:
                raise StoreError(
                    f"epoch {epoch}: tensor {name} missing or misshaped")
        snapshots.append((int(epoch), params, float(mean_loss)))
    if any(a >= b for a, b in zip(epochs, epochs[1:])):
        raise StoreError("manifest epochs are not strictly increasing")
    return CheckpointStore(manifest=manifest, snapshots=snapshots)
