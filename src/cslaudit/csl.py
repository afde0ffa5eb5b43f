"""Audit core: loss trajectories over checkpoints, CSL, smoothing, flagging.

For each audited sequence we replay the whole sequence (temporal context
intact) through every saved checkpoint in eval mode, record per-frame
cross-entropy against the annotated labels, average over checkpoints to get
the per-frame CSL, smooth with a truncated moving window, and flag frames
either above a threshold (strict >) or in the per-video top-k% of smoothed
CSL. The store holds the checkpoints stacked along a leading axis; they are
replayed a chunk at a time, one stacked forward pass per chunk, in their own
dtype (float32 for a loaded store). The losses are float64, checked once
by `fileio.loss_rows`, whose rows feed `metrics`' numpy-free core (CSL,
smoothing, flags, segments) as they do in `eval`. A profile holds the (E, T)
loss matrix and the core's lists.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import fileio as FIO
from . import metrics as MET
from . import model as M
from .errors import ConfigError, DataError, FingerprintError, NumericError
# calibrate_tau too: bench/tracing.py times it under its csl name
from .metrics import calibrate_tau, frames_to_segments  # noqa: F401
from .seqdata import Dataset, SequenceSample, f8_array, grammar_fingerprint
if TYPE_CHECKING:  # annotations only: eval and heatmap never load trainer
    from .trainer import CheckpointStore

UNWEIGHTED = "unweighted"
TRAIN_WEIGHTED = "train_weighted"

THRESHOLD = "threshold"
PERCENTILE = "percentile"

# Most frame x checkpoint rows one stacked replay forward holds: short
# sequences go through all checkpoints in one call, long ones in chunks of
# consecutive checkpoints (at least one), which bounds the activations alive
# at once.
CHUNK_ROWS = 2048


@dataclass(frozen=True)
class DetectionConfig:
    mode: str = PERCENTILE           # "threshold" | "percentile"
    tau: float = 0.0                 # threshold mode
    k_percent: float = 10.0          # percentile mode
    window: int = 5
    audit_loss: str = UNWEIGHTED     # "unweighted" | "train_weighted"

    def __post_init__(self):
        if self.mode not in (THRESHOLD, PERCENTILE):
            raise ConfigError(f"unknown detection mode {self.mode!r}")
        if self.mode == THRESHOLD and not np.isfinite(self.tau):
            raise ConfigError("tau must be finite")
        if self.mode == PERCENTILE and not 0 < self.k_percent <= 100:
            raise ConfigError("k_percent must lie in (0, 100]")
        if self.window < 0:
            raise ConfigError("window must be >= 0")
        if self.audit_loss not in (UNWEIGHTED, TRAIN_WEIGHTED):
            raise ConfigError(f"unknown audit_loss {self.audit_loss!r}")


@dataclass
class CslProfile:
    video_id: str
    losses: np.ndarray   # (E, T), entry (e, t) = loss of frame t at epoch e
    csl: list[float]
    smoothed: list[float]
    flags: list[int]
    segments: list[tuple[int, int]]


def _chunk_epochs(T: int, E: int) -> int:
    """Checkpoints per stacked replay forward of a T-frame sequence."""
    return min(max(1, CHUNK_ROWS // max(T, 1)), E)


# an overflow in the float32 replay ends as a non-finite loss, which
# loss_rows reports and eval_loss_trajectory names as an overflow
@np.errstate(over="ignore", invalid="ignore")
def eval_loss_trajectory(store: CheckpointStore, sample: SequenceSample,
                         cfg: DetectionConfig, *,
                         ws: M.Workspace | None = None) -> CslProfile:
    """The sample's profile: per-frame loss under every checkpoint, in epoch
    order, and its CSL, smoothing, flags and segments.

    The checkpoints are replayed in chunks of consecutive epochs (slices of
    store.params), one stacked eval forward pass per chunk of at most
    CHUNK_ROWS frame x checkpoint rows; each row equals a forward under that
    checkpoint alone, bit for bit. The forward runs in the checkpoints'
    dtype; the loss rows are float64, checked and scored as `eval` checks
    and scores them. `ws` is the workspace the forward passes reuse
    (audit_dataset passes one for the whole dataset).
    """
    if ws is None:
        ws = M.Workspace()
    model_cfg = store.model_config
    if sample.dim != model_cfg.feature_dim:
        raise FingerprintError(
            f"sample {sample.id}: feature dim {sample.dim} != model "
            f"feature_dim {model_cfg.feature_dim} "
            f"(store grammar {store.manifest['fingerprints']['grammar']})")
    if cfg.audit_loss == TRAIN_WEIGHTED:
        alpha = store.class_weights
    else:
        alpha = np.empty(model_cfg.num_classes)
        alpha.fill(1.0)
    epochs = store.epochs
    T = sample.num_frames
    frames = f8_array(sample.frames, (T, sample.dim))
    labels = np.array(sample.labels, np.int64)
    step = _chunk_epochs(T, len(epochs))
    losses = np.empty((len(epochs), T), "<f8")
    for lo in range(0, len(epochs), step):
        chunk = {k: v[lo:lo + step] for k, v in store.params.items()}
        with FIO.naming(f"video {sample.id}", NumericError):
            probs = M.forward(chunk, model_cfg, frames, ws=ws)
        losses[lo:lo + step] = M.per_frame_losses(probs, labels, alpha)
    try:
        rows = FIO.loss_rows(losses.tobytes(), epochs, T, sample.id)
    except NumericError as e:
        tensors = store.params.values()
        if not all(np.isfinite(v).all() for v in tensors):
            raise  # the weights themselves (load_store refuses such a store)
        raise NumericError(f"{e}: the {next(iter(tensors)).dtype} replay "
                           f"overflowed; the weights are finite") from e
    csl = MET.mean_over_epochs(rows)
    smoothed = MET.smooth(csl, cfg.window)
    flags = MET.flags_above(smoothed, cfg.tau) if cfg.mode == THRESHOLD \
        else MET.flags_top(smoothed, cfg.k_percent)
    return CslProfile(sample.id, losses, csl, smoothed, flags,
                      frames_to_segments(flags))


def trajectory_curvature(losses: np.ndarray) -> np.ndarray:
    """Mean absolute discrete second difference of each frame's loss over
    the E epochs of an (E, T) loss matrix; requires at least 3 checkpoints."""
    E = losses.shape[0]
    if E < 3:
        raise DataError(f"curvature needs >= 3 checkpoints, store has {E}")
    d1 = losses[1:] - losses[:-1]
    return np.add.reduce(np.abs(d1[1:] - d1[:-1]), axis=0) / (E - 2)


def audit_dataset(store: CheckpointStore, ds: Dataset,
                  cfg: DetectionConfig) -> Iterator[CslProfile]:
    """Yield one profile per sample, in dataset order, replaying each when
    the next is asked for; one workspace serves every replay. A dataset of
    another grammar than the store's raises FingerprintError at the call,
    before any replay."""
    ds_fp = grammar_fingerprint(ds.grammar)
    store_fp = store.manifest["fingerprints"]["grammar"]
    if ds_fp != store_fp:
        raise FingerprintError(f"store/dataset mismatch: store grammar "
                               f"{store_fp}, dataset grammar {ds_fp}")
    # Sized up front for the largest chunk and the longest T x T attention
    # matrix: no buffer grows mid-replay.
    ws = M.Workspace()
    chunks = {s.num_frames: _chunk_epochs(s.num_frames, len(store))
              for s in ds.samples}
    if chunks:
        for T in (max(chunks, key=lambda T: chunks[T] * T), max(chunks)):
            ws.buffers(store.model_config, (chunks[T],), T, False,
                       store.params["enc.W"].dtype)
    return (eval_loss_trajectory(store, s, cfg, ws=ws) for s in ds.samples)
