"""Audit core: loss trajectories over checkpoints, CSL, smoothing, flagging.

For each audited sequence we replay the whole sequence (temporal context
intact) through every saved checkpoint in eval mode, record per-frame
cross-entropy against the annotated labels, average over checkpoints to get
the per-frame CSL, smooth with a truncated moving window, and flag frames
either above a threshold (strict >) or in the per-video top-k% of smoothed
CSL. The checkpoints are stacked along a leading axis and replayed a chunk at
a time, one stacked forward pass per chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as M
from .errors import ConfigError, DataError, FingerprintError, NumericError
from .seqdata import Dataset, SequenceSample
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
    min_segment_len: int = 1

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
        if self.min_segment_len < 1:
            raise ConfigError("min_segment_len must be >= 1")


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
        finite = np.isfinite(self.losses).all(axis=1)
        if not finite.all():
            raise NumericError(f"video {self.video_id}: non-finite loss at "
                               f"epoch {self.epochs[int(finite.argmin())]}")
        if (self.losses < 0).any():
            raise DataError(f"video {self.video_id}: negative loss")


@dataclass
class CslProfile:
    video_id: str
    trajectory: LossTrajectory
    csl: np.ndarray        # (T,)
    smoothed: np.ndarray   # (T,)
    window: int
    flags: np.ndarray      # (T,) int
    segments: list[tuple[int, int]]
    mode: str
    param: float           # tau or k_percent, per mode


def _stack_snapshots(store: CheckpointStore) -> M.ModelParams:
    """The store's snapshots as one ModelParams whose tensors carry a leading
    epoch axis (E, ...), in store order."""
    if not store.snapshots:
        raise DataError("checkpoint store is empty")
    tensors = [params.tensors for _, params, _ in store.snapshots]
    return M.ModelParams({k: np.stack([t[k] for t in tensors])
                          for k in tensors[0]})


def eval_loss_trajectory(store: CheckpointStore, sample: SequenceSample,
                         cfg: DetectionConfig, *,
                         stacked: M.ModelParams | None = None,
                         ws: M.Workspace | None = None) -> LossTrajectory:
    """Per-frame loss under every checkpoint, in epoch order.

    The checkpoints are replayed in chunks of consecutive epochs, one stacked
    eval forward pass per chunk of at most CHUNK_ROWS frame x checkpoint rows;
    each row equals a forward under that checkpoint alone, bit for bit.
    `stacked` is the store's snapshots already stacked, and `ws` the
    workspace the forward passes reuse (audit_dataset passes both, so that a
    dataset is stacked once and replayed through one workspace).
    """
    if stacked is None:
        stacked = _stack_snapshots(store)
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
        alpha = np.ones(model_cfg.num_classes)
    epochs = store.epochs
    T = sample.num_frames
    step = max(1, CHUNK_ROWS // max(T, 1))
    # Rows in C order: compute_csl's mean over epochs sums in memory order
    # (a T-major matrix would be summed pairwise), so the layout fixes its
    # last bit.
    losses = np.empty((len(epochs), T))
    for lo in range(0, len(epochs), step):
        chunk = M.ModelParams({k: v[lo:lo + step]
                               for k, v in stacked.tensors.items()})
        trace = M.forward(chunk, model_cfg, sample.frames, ws=ws)
        rows = losses[lo:lo + step]
        rows[...] = M.per_frame_losses(trace.probs, sample.labels, alpha)
        bad = ~np.isfinite(rows).all(axis=1)
        if bad.any():
            raise NumericError(
                f"video {sample.id}: non-finite loss under the epoch "
                f"{epochs[lo + int(bad.argmax())]} checkpoint")
    return LossTrajectory(video_id=sample.id, losses=losses, epochs=epochs)


def compute_csl(traj: LossTrajectory) -> np.ndarray:
    """Columnwise mean over epochs."""
    return traj.losses.mean(axis=0)


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
    kernel = np.ones(2 * w + 1)
    sums = np.convolve(csl, kernel, mode="full")[w:w + T]
    counts = np.convolve(np.ones_like(csl), kernel, mode="full")[w:w + T]
    return sums / counts


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
    order = np.argsort(-smoothed, kind="stable")
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
    return float(np.quantile(pool, q))


def frames_to_segments(flags: np.ndarray,
                       min_segment_len: int = 1) -> list[tuple[int, int]]:
    """Maximal runs of 1s as half-open intervals; runs shorter than
    min_segment_len are dropped from the list (flags themselves untouched)."""
    flags = np.asarray(flags)
    segments = []
    start = None
    for t in range(len(flags) + 1):
        on = t < len(flags) and flags[t]
        if on and start is None:
            start = t
        elif not on and start is not None:
            if t - start >= min_segment_len:
                segments.append((start, t))
            start = None
    return segments


def trajectory_curvature(traj: LossTrajectory) -> np.ndarray:
    """Mean absolute discrete second difference of each frame's loss over
    epochs; requires at least 3 checkpoints."""
    E = traj.losses.shape[0]
    if E < 3:
        raise DataError(f"curvature needs >= 3 checkpoints, store has {E}")
    return np.abs(np.diff(traj.losses, n=2, axis=0)).mean(axis=0)


def _profile(traj: LossTrajectory, cfg: DetectionConfig) -> CslProfile:
    """CSL -> smoothing -> flagging -> segments of one trajectory."""
    csl = compute_csl(traj)
    smoothed = smooth_csl(csl, cfg.window)
    if cfg.mode == THRESHOLD:
        flags = flag_threshold(smoothed, cfg.tau)
        param = cfg.tau
    else:
        flags = flag_percentile(smoothed, cfg.k_percent)
        param = cfg.k_percent
    segments = frames_to_segments(flags, cfg.min_segment_len)
    return CslProfile(video_id=traj.video_id, trajectory=traj, csl=csl,
                      smoothed=smoothed, window=cfg.window, flags=flags,
                      segments=segments, mode=cfg.mode, param=param)


def audit_sequence(store: CheckpointStore, sample: SequenceSample,
                   cfg: DetectionConfig) -> CslProfile:
    """Trajectory -> CSL -> smoothing -> flagging -> segments."""
    return _profile(eval_loss_trajectory(store, sample, cfg), cfg)


def audit_dataset(store: CheckpointStore, ds: Dataset,
                  cfg: DetectionConfig) -> list[CslProfile]:
    """One profile per sample, in dataset order; the snapshots are stacked
    once for the whole dataset, and one workspace serves every replay."""
    stacked = _stack_snapshots(store)
    ws = M.Workspace()
    return [_profile(eval_loss_trajectory(store, s, cfg, stacked=stacked,
                                          ws=ws), cfg)
            for s in ds.samples]
