"""Detection scoring: segment-wise detection accuracy and frame-wise micro-AUC.

micro_auc uses the rank-sum (Mann-Whitney) form with 0.5 credit for ties;
auc_bruteforce is the O(n^2) pair-enumeration oracle kept for testing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csl import CslProfile, flag_percentile, frames_to_segments
from .errors import ConfigError, DataError, MetricUndefinedError, NumericError


@dataclass
class EvalInput:
    """Per-video scoring input: smoothed CSL scores plus ground truth."""

    video_id: str
    scores: np.ndarray       # (T,) smoothed CSL
    gt_mask: np.ndarray      # (T,) 0/1
    gt_segments: list[tuple[int, int]]

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.gt_mask = np.asarray(self.gt_mask, dtype=np.int8)
        if len(self.scores) != len(self.gt_mask):
            raise DataError(
                f"video {self.video_id}: scores and gt_mask lengths disagree")

    @classmethod
    def from_profile(cls, profile: CslProfile,
                     gt_mask: np.ndarray) -> "EvalInput":
        gt_mask = np.asarray(gt_mask, dtype=np.int8)
        return cls(video_id=profile.video_id, scores=profile.smoothed,
                   gt_mask=gt_mask, gt_segments=frames_to_segments(gt_mask))


def _check_two_classes(gt_mask: np.ndarray) -> tuple[int, int]:
    n_pos = int(gt_mask.sum())
    n_neg = len(gt_mask) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricUndefinedError(
            "AUC is undefined: need at least one positive and one negative frame")
    return n_pos, n_neg


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    bounds = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1], True])
    ranks = np.empty(len(x))
    ranks[order] = np.repeat(0.5 * (bounds[:-1] + bounds[1:] + 1),
                             np.diff(bounds))
    return ranks


def micro_auc(scores: np.ndarray, gt_mask: np.ndarray) -> float:
    """Tie-adjusted probability that a random positive outscores a random
    negative, via average ranks; O(n log n)."""
    scores = np.asarray(scores, dtype=np.float64)
    gt_mask = np.asarray(gt_mask).astype(bool)
    if len(scores) != len(gt_mask):
        raise DataError("scores and gt_mask lengths disagree")
    if not np.all(np.isfinite(scores)):
        raise NumericError("scores must be finite")
    n_pos, n_neg = _check_two_classes(gt_mask)
    ranks = _average_ranks(scores)
    u = ranks[gt_mask].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def auc_bruteforce(scores: np.ndarray, gt_mask: np.ndarray) -> float:
    """Explicit pair enumeration with 0.5 tie credit; test oracle."""
    scores = np.asarray(scores, dtype=np.float64)
    gt_mask = np.asarray(gt_mask).astype(bool)
    if len(scores) != len(gt_mask):
        raise DataError("scores and gt_mask lengths disagree")
    _check_two_classes(gt_mask)
    pos = scores[gt_mask][:, None]
    neg = scores[~gt_mask][None, :]
    wins = (pos > neg).sum() + 0.5 * (pos == neg).sum()
    return float(wins / (pos.size * neg.size))


def _segments_detected(inputs: list[EvalInput], k_percent: float) -> list[int]:
    """Per video, the ground-truth segments holding a top-k% frame."""
    detected = []
    for ei in inputs:
        flags = flag_percentile(ei.scores, k_percent)
        detected.append(sum(1 for s, e in ei.gt_segments if flags[s:e].any()))
    return detected


def _eda(inputs: list[EvalInput], detected: list[int]) -> float:
    total_gt = sum(len(ei.gt_segments) for ei in inputs)
    if total_gt == 0:
        raise MetricUndefinedError(
            "EDA is undefined: no ground-truth erroneous segments")
    return sum(detected) / total_gt


def eda(inputs: list[EvalInput], k_percent: float) -> float:
    """Fraction of ground-truth erroneous segments with at least one frame in
    the top-k% of smoothed CSL, ranking each video on its own."""
    if not 0 < k_percent <= 100:
        raise ConfigError("k_percent must lie in (0, 100]")
    return _eda(inputs, _segments_detected(inputs, k_percent))


@dataclass
class MetricsReport:
    eda: float | None
    micro_auc: float | None
    k_percent: float
    per_video: list[dict]
    n_videos: int
    n_frames: int
    n_corrupted_frames: int
    config: dict

    def to_dict(self) -> dict:
        return {
            "format": "csl-report/1",
            "eda": self.eda,
            "micro_auc": self.micro_auc,
            "k_percent": self.k_percent,
            "per_video": self.per_video,
            "counts": {
                "videos": self.n_videos,
                "frames": self.n_frames,
                "corrupted_frames": self.n_corrupted_frames,
            },
            "config": self.config,
        }


def build_report(inputs: list[EvalInput], k_percent: float,
                 config: dict | None = None) -> MetricsReport:
    """Micro-AUC over all frames, EDA at k, per-video AUC where defined."""
    if not inputs:
        raise DataError("no evaluation inputs")
    all_scores = np.concatenate([ei.scores for ei in inputs])
    all_gt = np.concatenate([ei.gt_mask for ei in inputs])
    try:
        overall_auc = micro_auc(all_scores, all_gt)
    except MetricUndefinedError:
        overall_auc = None
    detected = _segments_detected(inputs, k_percent)
    try:
        eda_value = _eda(inputs, detected)
    except MetricUndefinedError:
        eda_value = None
    per_video = []
    for ei, n_det in zip(inputs, detected):
        try:
            v_auc = micro_auc(ei.scores, ei.gt_mask)
        except MetricUndefinedError:
            v_auc = None
        per_video.append({"id": ei.video_id, "auc": v_auc,
                          "n_gt_segments": len(ei.gt_segments),
                          "n_detected": n_det})
    return MetricsReport(
        eda=eda_value, micro_auc=overall_auc, k_percent=k_percent,
        per_video=per_video, n_videos=len(inputs), n_frames=len(all_scores),
        n_corrupted_frames=int(all_gt.sum()), config=config or {})
