"""Training loop with per-epoch checkpointing and the on-disk snapshot store.

The store is a directory with manifest.json plus one binary file per snapshot
(ckpt_{epoch:04}.bin): magic "CSLCKPT1", then one record per tensor of
manifest.model, exactly those and in canonical order (else a StoreError naming
the file, exit 3): name length, UTF-8 name, rank and dims, each a u32 LE, then
the payload as little-endian float32; finally a CRC32 (u32 LE) of everything
between the magic and the checksum.
"""

from __future__ import annotations

import fnmatch
import functools
import json
import math
import os
import struct
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from . import model as M
from .errors import ConfigError, CoverageError, NumericError, StoreError
from .fileio import atomic_path, check_json, make_dir, read_json
from .seqdata import Dataset, dataset_fingerprint, grammar_fingerprint

STORE_FORMAT = "csl-ckpt-store/1"
MAGIC = b"CSLCKPT1"


def compute_class_weights(ds: Dataset) -> np.ndarray:
    """alpha, (C,) float64: alpha_c proportional to 1/count_c, rescaled to
    mean 1."""
    C = ds.grammar.num_classes
    counts = np.zeros(C, dtype=np.int64)
    for s in ds.samples:
        counts += np.bincount(s.labels, minlength=C)
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        raise CoverageError(
            f"class {int(missing[0])} never appears in the dataset labels")
    raw = 1.0 / counts
    return raw * (C / raw.sum())


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    shuffle_seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        # each test is false for NaN
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError("learning_rate must be finite and > 0")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ConfigError(f"{name} must lie in [0, 1)")
        if not 0 < self.eps < np.inf:
            raise ConfigError("eps must be finite and > 0")
        if not 0 <= self.weight_decay < np.inf:
            raise ConfigError("weight_decay must be finite and >= 0")


class AdamWState:
    """AdamW moments plus the storage of the parameters they update and of
    their gradients.

    The constructor packs every parameter tensor into one contiguous float64
    buffer `p`, 2-D weight matrices first, and rebinds `params.tensors` to
    views of it (names and canonical order unchanged), so that one step is a
    few vectorised operations over the whole model. `grads` maps each name,
    in canonical order, to the view of the gradient buffer `g` at the same
    offset: fill it (`backward(..., out=state.grads)`) before each step.
    """

    def __init__(self, params: M.ModelParams):
        tensors = params.tensors
        # a stable sort keeps canonical order within each group
        order = sorted(tensors, key=lambda k: tensors[k].ndim != 2)
        self.n_decay = sum(tensors[k].size for k in order
                           if tensors[k].ndim == 2)
        self.p = np.concatenate([tensors[k].ravel() for k in order],
                                dtype=np.float64)
        self.g = np.empty_like(self.p)
        self.grads = dict.fromkeys(tensors)
        off = 0
        for k in order:
            shape, n = tensors[k].shape, tensors[k].size
            tensors[k] = self.p[off:off + n].reshape(shape)
            self.grads[k] = self.g[off:off + n].reshape(shape)
            off += n
        self.m = np.zeros_like(self.p)
        self.v = np.zeros_like(self.p)
        self.buf = np.empty_like(self.p)
        self.den = np.empty_like(self.p)


def adamw_step(state: AdamWState, t: int, cfg: TrainConfig,
               context: str = "") -> None:
    """One in-place AdamW update of the parameters `state` was built from,
    with the gradients in `state.grads`. Decoupled weight decay hits only
    the 2-D weight matrices (not biases, not LayerNorm gains/biases)."""
    if t < 1:
        raise ConfigError("step index must be >= 1")
    g = state.g
    if not np.logical_and.reduce(np.isfinite(g), axis=None):
        name = next(k for k, x in state.grads.items()
                    if not np.isfinite(x).all())
        raise NumericError(f"non-finite gradient in {name} {context}".strip())
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    m, v, tmp, den = state.m, state.v, state.buf, state.den
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
    params: M.ModelParams  # (E, ...) float32, row i manifest["epochs"][i]

    @property
    def epochs(self) -> list[int]:
        return list(self.manifest["epochs"])

    @functools.cached_property
    def model_config(self) -> M.ModelConfig:
        return M.ModelConfig.from_dict(self.manifest["model"])

    @property
    def class_weights(self) -> np.ndarray:
        return np.asarray(self.manifest["class_weights"], dtype=np.float64)

    def __len__(self) -> int:
        return len(self.manifest["epochs"])


# an overflow ends as a NumericError, which numpy's warnings would only repeat
@np.errstate(over="ignore", invalid="ignore")
def train(ds_train: Dataset, cfg_model: M.ModelConfig, cfg_train: TrainConfig,
          store_path: str, *, on_epoch=None) -> CheckpointStore:
    """Train for E epochs, one sequence per optimizer step, snapshotting every
    epoch into store_path, whose earlier manifest and ckpt files are removed
    first. Fully deterministic given seeds. `on_epoch(epoch, mean_loss)`,
    when given, is called after each checkpoint and its manifest are on
    disk. Returns load_store(store_path)."""
    if not ds_train.samples:
        raise ConfigError("training dataset is empty")
    alpha = compute_class_weights(ds_train)
    if cfg_model.feature_dim != ds_train.grammar.feature_dim:
        raise ConfigError("model feature_dim does not match dataset grammar")
    if cfg_model.num_classes != ds_train.grammar.num_classes:
        raise ConfigError("model num_classes does not match dataset grammar")

    ss = np.random.SeedSequence(cfg_train.shuffle_seed)
    shuffle_seed, dropout_seed = ss.spawn(2)
    rng_shuffle = np.random.default_rng(shuffle_seed)
    rng_dropout = np.random.default_rng(dropout_seed)

    params = M.init_params(cfg_model)
    state = AdamWState(params)
    # Every step's activations and temporaries, sized for the longest
    # sequence up front: buffers that grew mid-run would leave their old
    # storage behind as holes in the heap.
    ws = M.Workspace()
    ws.buffers(cfg_model, (), max(s.num_frames for s in ds_train.samples),
               True)
    n = len(ds_train.samples)
    make_dir(store_path)
    try:  # reversed, manifest.json goes before any snapshot it may list
        for name in sorted(os.listdir(store_path), reverse=True):
            if name == "manifest.json" or fnmatch.fnmatch(name, "ckpt_*.bin"):
                os.remove(os.path.join(store_path, name))
    except OSError as e:
        raise StoreError(f"cannot write {e.filename}: {e.strerror}") from e
    manifest = {
        "format": STORE_FORMAT,
        "model": asdict(cfg_model),
        "train": asdict(cfg_train),
        "class_weights": alpha.tolist(),
        "fingerprints": {
            "train_data": dataset_fingerprint(ds_train),
            "grammar": grammar_fingerprint(ds_train.grammar),
        },
        "epochs": [],
        "epoch_losses": [],
    }
    step = 0
    for epoch in range(1, cfg_train.epochs + 1):
        order = rng_shuffle.permutation(n)
        losses = []
        for idx in order:
            sample = ds_train.samples[idx]
            step += 1
            loss, _ = M.backward(
                params, cfg_model, sample.frames, sample.labels, alpha,
                train=True, rng=rng_dropout, ws=ws, out=state.grads)
            if not math.isfinite(loss):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, step {step}")
            adamw_step(state, step, cfg_train,
                       context=f"(epoch {epoch}, step {step})")
            losses.append(loss)
        snapshot = encode_snapshot(params)
        try:  # load_store's check, before any write: earlier epochs stay
            decode_snapshot(snapshot, M.param_shapes(cfg_model))
        except NumericError as e:  # a value beyond float32 range
            raise NumericError(f"epoch {epoch}: {e} in float32; its snapshot "
                               f"is not written") from e
        mean_loss = float(np.mean(losses))
        manifest["epochs"].append(epoch)
        manifest["epoch_losses"].append(mean_loss)
        with atomic_path(_snapshot_path(store_path, epoch)) as tmp, \
                open(tmp, "wb") as f:
            f.write(snapshot)
        with atomic_path(os.path.join(store_path, "manifest.json")) as tmp, \
                open(tmp, "w", encoding="utf-8") as f:
            json.dump(manifest, f, sort_keys=True, indent=1)
            f.write("\n")
        if on_epoch is not None:
            on_epoch(epoch, mean_loss)
    return load_store(store_path)


# ---------------------------------------------------------------------------
# store persistence


def _snapshot_path(store_path: str, epoch: int) -> str:
    return os.path.join(store_path, f"ckpt_{epoch:04d}.bin")


def _tensor_head(name: str, shape: tuple[int, ...]) -> bytes:
    """A tensor record's header: name length, UTF-8 name, rank, dims."""
    nb = name.encode("utf-8")
    return struct.pack(f"<I{len(nb)}sI{len(shape)}I", len(nb), nb,
                       len(shape), *shape)


def encode_snapshot(params: M.ModelParams) -> bytes:
    body = b"".join(  # canonical order from construction
        _tensor_head(k, v.shape) + np.ascontiguousarray(v, "<f4").tobytes()
        for k, v in params.tensors.items())
    return MAGIC + body + struct.pack("<I", zlib.crc32(body))


def decode_snapshot(blob: bytes, shapes: dict) -> M.ModelParams:
    """The tensors of `shapes` (M.param_shapes) as stored: read-only float32
    views of blob. Each record's header must be the expected one, exactly."""
    end = len(blob) - 4
    if end < len(MAGIC) or blob[:len(MAGIC)] != MAGIC:
        raise StoreError("bad snapshot magic")
    if zlib.crc32(blob[len(MAGIC):end]) != int.from_bytes(blob[end:], "little"):
        raise StoreError("snapshot checksum mismatch")
    tensors, off = {}, len(MAGIC)
    for name, shape in shapes.items():
        head, n = _tensor_head(name, shape), math.prod(shape)
        if not blob.startswith(head, off, end):
            raise StoreError(f"tensor {name} missing or misshaped")
        off += len(head) + 4 * n
        if off > end:
            raise StoreError("truncated snapshot")
        tensors[name] = np.frombuffer(blob, "<f4", n, off - 4 * n).reshape(shape)
        if not np.logical_and.reduce(np.isfinite(tensors[name]), axis=None):
            raise NumericError(f"tensor {name} holds a non-finite value")
    if off != end:
        raise StoreError(f"{end - off} bytes after the last tensor")
    return M.ModelParams(tensors)


# The manifest fields load_store reads, each an example of its kind
MANIFEST_SHAPE = {"format": "x", "model": M.CONFIG_SHAPE, "epochs": [0],
                  "epoch_losses": [0.0], "class_weights": [0.0],
                  "fingerprints": {"grammar": "x"}}


def load_store(path: str) -> CheckpointStore:
    manifest_path = os.path.join(path, "manifest.json")
    manifest = read_json(manifest_path, StoreError,
                         f"no manifest.json in {path}")
    if type(manifest) is dict and manifest.get("format") != STORE_FORMAT:
        raise StoreError(f"{manifest_path}: format {manifest.get('format')!r} "
                         f"is not {STORE_FORMAT!r}")
    check_json(manifest, MANIFEST_SHAPE, f"{manifest_path}: manifest",
               StoreError)
    epochs, losses = manifest["epochs"], manifest["epoch_losses"]
    if not epochs:
        raise StoreError(f"{manifest_path}: manifest.epochs is empty")
    if len(epochs) != len(losses) \
            or any(a >= b for a, b in zip(epochs, epochs[1:])):
        raise StoreError(f"{manifest_path}: manifest.epochs must increase "
                         "strictly, one per epoch_losses entry")
    try:
        cfg_model = M.ModelConfig.from_dict(manifest["model"])
    except ConfigError as e:
        raise StoreError(f"{manifest_path}: manifest.model is invalid "
                         f"({e})") from e
    weights = manifest["class_weights"]
    if len(weights) != cfg_model.num_classes or not all(w > 0 for w in weights):
        raise StoreError(f"{manifest_path}: manifest.class_weights must hold "
                         f"{cfg_model.num_classes} numbers, all > 0")
    shapes, decoded = M.param_shapes(cfg_model), []
    for epoch in epochs:
        snap_path = _snapshot_path(path, epoch)
        try:
            with open(snap_path, "rb") as f:
                decoded.append(decode_snapshot(f.read(), shapes).tensors)
        except OSError as e:  # missing, or a directory
            raise StoreError(f"{manifest_path}: lists epoch {epoch} but cannot "
                             f"read {snap_path} ({e.strerror})") from e
        except StoreError as e:
            raise StoreError(f"{snap_path}: {e}") from e
        except NumericError as e:
            raise NumericError(f"{snap_path}: epoch {epoch}: {e}") from e
    return CheckpointStore(manifest, M.ModelParams(
        {k: np.stack([t[k] for t in decoded]) for k in shapes}))
