"""Audit core: loss trajectories over checkpoints, CSL, smoothing, flagging.

For each audited sequence we replay the whole sequence (temporal context
intact) through every saved checkpoint in eval mode, record per-frame
cross-entropy against the annotated labels, average over checkpoints to get
the per-frame CSL, smooth with a truncated moving window, and flag frames
either above a threshold (strict >) or in the per-video top-k% of smoothed
CSL. The store holds the checkpoints stacked along a leading axis; they are
replayed a chunk at a time, one stacked forward pass per chunk, in their own
dtype (float32 for a loaded store). The losses are float64 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import model as M
from .errors import ConfigError, DataError, FingerprintError, NumericError
from .seqdata import Dataset, SequenceSample, grammar_fingerprint, label_runs
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
class LossTrajectory:
    video_id: str
    losses: np.ndarray   # (E, T), entry (e, t) = loss of frame t at epoch e
    epochs: list[int]

    def __post_init__(self):
        self.losses = np.asarray(self.losses, dtype=np.float64)
        if self.losses.ndim != 2:
            raise DataError(f"video {self.video_id}: losses must be a 2-D "
                            f"(epochs x frames) matrix, got "
                            f"{self.losses.ndim}-D")
        if self.losses.shape[0] != len(self.epochs):
            raise DataError(f"video {self.video_id}: {self.losses.shape[0]} "
                            f"loss rows for {len(self.epochs)} epochs")
        finite = np.logical_and.reduce(np.isfinite(self.losses), axis=1)
        if not np.logical_and.reduce(finite):
            raise NumericError(f"video {self.video_id}: non-finite loss at "
                               f"epoch {self.epochs[int(finite.argmin())]}")
        if np.logical_or.reduce(self.losses < 0, axis=None):
            raise DataError(f"video {self.video_id}: negative loss")


@dataclass
class CslProfile:
    video_id: str
    trajectory: LossTrajectory
    csl: np.ndarray        # (T,)
    smoothed: np.ndarray   # (T,)
    flags: np.ndarray      # (T,) int
    segments: list[tuple[int, int]]


def _chunk_epochs(T: int, E: int) -> int:
    """Checkpoints per stacked replay forward of a T-frame sequence."""
    return min(max(1, CHUNK_ROWS // max(T, 1)), E)


# an overflow in the float32 replay ends as a non-finite loss, which
# LossTrajectory reports
@np.errstate(over="ignore", invalid="ignore")
def eval_loss_trajectory(store: CheckpointStore, sample: SequenceSample,
                         cfg: DetectionConfig, *,
                         ws: M.Workspace | None = None) -> LossTrajectory:
    """Per-frame loss under every checkpoint, in epoch order.

    The checkpoints are replayed in chunks of consecutive epochs (slices of
    store.params), one stacked eval forward pass per chunk of at most
    CHUNK_ROWS frame x checkpoint rows; each row equals a forward under that
    checkpoint alone, bit for bit. The forward runs in the checkpoints'
    dtype; the loss rows are float64. `ws` is the workspace the forward
    passes reuse (audit_dataset passes one for the whole dataset).
    """
    if ws is None:
        ws = M.Workspace()
    model_cfg = store.model_config
    if sample.frames.shape[1] != model_cfg.feature_dim:
        raise FingerprintError(
            f"sample {sample.id}: feature dim {sample.frames.shape[1]} != model "
            f"feature_dim {model_cfg.feature_dim} "
            f"(store grammar {store.manifest['fingerprints']['grammar']})")
    if cfg.audit_loss == TRAIN_WEIGHTED:
        alpha = store.class_weights
    else:
        alpha = np.empty(model_cfg.num_classes)
        alpha.fill(1.0)
    epochs = store.epochs
    T = sample.num_frames
    step = _chunk_epochs(T, len(epochs))
    # Rows in C order: compute_csl's mean over epochs sums in memory order
    # (a T-major matrix would be summed pairwise), so the layout fixes its
    # last bit.
    losses = np.empty((len(epochs), T))
    for lo in range(0, len(epochs), step):
        chunk = M.ModelParams({k: v[lo:lo + step]
                               for k, v in store.params.tensors.items()})
        try:
            trace = M.forward(chunk, model_cfg, sample.frames, ws=ws)
        except NumericError as e:
            raise NumericError(f"video {sample.id}: {e}") from e
        losses[lo:lo + step] = M.per_frame_losses(trace.probs, sample.labels,
                                                  alpha)
    return LossTrajectory(video_id=sample.id, losses=losses, epochs=epochs)


def compute_csl(traj: LossTrajectory) -> np.ndarray:
    """Columnwise mean over epochs."""
    return np.add.reduce(traj.losses, axis=0) / traj.losses.shape[0]


def smooth_csl(csl: np.ndarray, w: int) -> np.ndarray:
    """Moving average with radius w; windows truncate at sequence edges and
    divide by the actual in-range count."""
    if w < 0:
        raise ConfigError("window radius must be >= 0")
    csl = np.asarray(csl, dtype=np.float64)
    if w == 0:
        return csl.copy()
    # Slice "full" to T: mode="same" gives max(T, 2w+1) values.
    T = len(csl)
    ones = np.empty(2 * w + 1)
    ones.fill(1.0)
    sums = np.convolve(csl, ones, mode="full")[w:w + T]
    # Frames in range of window t, min(t + w, T - 1) - max(t - w, 0) + 1:
    # min(t, w) before t and min(T - 1 - t, w) after it, exact in float64.
    before = np.minimum(np.arange(T, dtype=np.float64), w)
    return sums / (before + before[::-1] + 1.0)


def flag_threshold(smoothed: np.ndarray, tau: float) -> np.ndarray:
    if not np.isfinite(tau):
        raise ConfigError("tau must be finite")
    return (np.asarray(smoothed) > tau).astype(np.int8)


def flag_percentile(smoothed: np.ndarray, k_percent: float) -> np.ndarray:
    """Flag the ceil(k/100 * T) highest values; ties broken by lower index."""
    if not 0 < k_percent <= 100:
        raise ConfigError("k_percent must lie in (0, 100]")
    smoothed = np.asarray(smoothed)
    T = len(smoothed)
    m = int(np.ceil(k_percent / 100.0 * T))
    order = (-smoothed).argsort(kind="stable")
    flags = np.zeros(T, dtype=np.int8)
    flags[order[:m]] = 1
    return flags


def calibrate_tau(smoothed: list[np.ndarray], q: float = 0.95) -> float:
    """Empirical q-quantile (linear interpolation) of smoothed CSL over all
    validation frames together. Assumes the validation set is clean."""
    if not 0 < q < 1:
        raise ConfigError("quantile must lie in (0, 1)")
    pool = np.concatenate(smoothed) if smoothed else np.array([])
    if pool.size == 0:
        raise DataError("cannot calibrate tau from an empty validation pool")
    # np.quantile's default "linear" method, step for step, so the result is
    # its bits; np.quantile itself imports numpy.ma on its first call.
    pool.sort()
    v = (pool.size - 1) * q
    lo = math.floor(v)
    g = v - lo
    a, b = pool[lo].item(), pool[min(lo + 1, pool.size - 1)].item()
    return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g


def frames_to_segments(flags: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of 1s as half-open intervals."""
    return [(start, end) for value, start, end in label_runs(flags) if value]


def trajectory_curvature(traj: LossTrajectory) -> np.ndarray:
    """Mean absolute discrete second difference of each frame's loss over
    epochs; requires at least 3 checkpoints."""
    E = traj.losses.shape[0]
    if E < 3:
        raise DataError(f"curvature needs >= 3 checkpoints, store has {E}")
    d1 = traj.losses[1:] - traj.losses[:-1]
    return np.add.reduce(np.abs(d1[1:] - d1[:-1]), axis=0) / (E - 2)


def _profile(traj: LossTrajectory, cfg: DetectionConfig) -> CslProfile:
    """CSL -> smoothing -> flagging -> segments of one trajectory."""
    csl = compute_csl(traj)
    smoothed = smooth_csl(csl, cfg.window)
    if cfg.mode == THRESHOLD:
        flags = flag_threshold(smoothed, cfg.tau)
    else:
        flags = flag_percentile(smoothed, cfg.k_percent)
    return CslProfile(video_id=traj.video_id, trajectory=traj, csl=csl,
                      smoothed=smoothed, flags=flags,
                      segments=frames_to_segments(flags))


def audit_dataset(store: CheckpointStore, ds: Dataset,
                  cfg: DetectionConfig) -> list[CslProfile]:
    """One profile per sample, in dataset order; one workspace serves every
    replay. A dataset of another grammar than the store's raises
    FingerprintError."""
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
                       store.params.tensors["enc.W"].dtype)
    return [_profile(eval_loss_trajectory(store, s, cfg, ws=ws), cfg)
            for s in ds.samples]
