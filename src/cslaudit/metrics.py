"""Scoring core: CSL, smoothing, flagging, segments, tau calibration, EDA
and micro-AUC, over plain Python sequences. It imports neither numpy nor
dataclasses, so `eval` runs without them; `audit` runs the same functions
through `csl._profile`. micro_auc is the rank-sum (Mann-Whitney) form with
0.5 credit for ties; auc_bruteforce is the O(n^2) oracle kept for testing.
"""

from __future__ import annotations

import math
from itertools import chain, compress
from operator import add, ne

from .errors import ConfigError, DataError, MetricUndefinedError, NumericError


def _sums(terms, n: int) -> list[float]:
    """Element-wise sums from 0.0 of the n-long sequences in terms, in order:
    lazy maps with no list between two, forced every 64 to bound the depth."""
    sums = [0.0] * n
    for i, term in enumerate(terms, 1):
        sums = map(add, sums, term)
        if i % 64 == 0:
            sums = list(sums)
    return list(sums)


def mean_over_epochs(rows) -> list[float]:
    """Per-frame mean of the E rows of T losses, summed in epoch order."""
    return list(map(float(len(rows)).__rtruediv__, _sums(rows, len(rows[0]))))


def smooth(csl, w: int) -> list[float]:
    """Moving average with radius w; windows truncate at sequence edges and
    divide by the actual in-range count. Each window sums its frames in
    ascending order, or descending when T < 2w+1: np.convolve's orders, its
    bits for w <= 7. The padded zeros add nothing to a sum from 0.0."""
    if w < 0:
        raise ConfigError("window radius must be >= 0")
    if w == 0:
        return list(csl)
    T = len(csl)
    padded = [*[0.0] * w, *csl, *[0.0] * w]
    offsets = range(2 * w + 1) if T >= 2 * w + 1 else range(2 * w, -1, -1)
    sums = _sums((padded[o:o + T] for o in offsets), T)
    before = [*range(min(w, T)), *[w] * (T - w)]  # min(t, w) frames before t
    return [s / (b + a + 1) for s, b, a in zip(sums, before, reversed(before))]


def flags_above(smoothed, tau: float) -> list[int]:
    """1 where the value is strictly above tau, else 0."""
    if not math.isfinite(tau):
        raise ConfigError("tau must be finite")
    return [1 if x > tau else 0 for x in smoothed]


def flags_top(smoothed, k_percent: float) -> list[int]:
    """Flag the ceil(k/100 * T) highest values; ties broken by lower index."""
    if not 0 < k_percent <= 100:
        raise ConfigError("k_percent must lie in (0, 100]")
    T = len(smoothed)
    flags = [0] * T
    for t in sorted(range(T), key=smoothed.__getitem__,  # ties keep order
                    reverse=True)[:math.ceil(k_percent / 100.0 * T)]:
        flags[t] = 1
    return flags


def frames_to_segments(flags) -> list[tuple[int, int]]:
    """Maximal runs of 1s as half-open intervals."""
    n = len(flags)
    bounds = [0, *compress(range(1, n), map(ne, flags[1:], flags)), n]
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if n and flags[lo]]


def calibrate_tau(smoothed, q: float = 0.95) -> float:
    """Empirical q-quantile (linear interpolation) of smoothed CSL over all
    validation frames together. Assumes the validation set is clean."""
    if not 0 < q < 1:
        raise ConfigError("quantile must lie in (0, 1)")
    pool = sorted(map(float, chain.from_iterable(smoothed)))
    if not pool:
        raise DataError("cannot calibrate tau from an empty validation pool")
    # np.quantile's default "linear" method, step for step: its bits
    v = (len(pool) - 1) * q
    lo = math.floor(v)
    g = v - lo
    if lo >= len(pool) - 1:  # numpy takes the last value there, with g = v + 1
        lo, g = len(pool) - 1, v + 1
    a, b = pool[lo], pool[min(lo + 1, len(pool) - 1)]
    return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g


class EvalInput:
    """Per-video scoring input: smoothed CSL scores plus ground truth."""

    def __init__(self, video_id: str, scores, gt_mask,
                 gt_segments: list[tuple[int, int]] | None = None):
        self.video_id = video_id
        self.scores = list(map(float, scores))
        self.gt_mask = list(map(int, gt_mask))
        if len(self.scores) != len(self.gt_mask):
            raise DataError(
                f"video {self.video_id}: scores and gt_mask lengths disagree")
        self.gt_segments = frames_to_segments(self.gt_mask) \
            if gt_segments is None else gt_segments

    @classmethod
    def from_profile(cls, profile, gt_mask) -> "EvalInput":
        return cls(profile.video_id, profile.smoothed, gt_mask)


def _scored(scores, gt_mask, finite: bool) -> tuple:
    """Scores as floats, gt_mask as bools, and the two classes' counts."""
    scores, gt = list(map(float, scores)), list(map(bool, gt_mask))
    if len(scores) != len(gt):
        raise DataError("scores and gt_mask lengths disagree")
    if finite and not all(map(math.isfinite, scores)):
        raise NumericError("scores must be finite")
    n_pos = sum(gt)
    if n_pos in (0, len(gt)):
        raise MetricUndefinedError(
            "AUC is undefined: need at least one positive and one negative frame")
    return scores, gt, n_pos, len(gt) - n_pos


def _average_ranks(x) -> list[float]:
    """1-based ranks; tied values share the mean of the ranks they span."""
    n = len(x)
    order = sorted(range(n), key=x.__getitem__)
    xs = list(map(x.__getitem__, order))
    in_order = list(map(float, range(1, n + 1)))  # the rank at each position
    bounds = [0, *compress(range(1, n), map(ne, xs[1:], xs)), n]
    for lo, hi in zip(bounds, bounds[1:]):
        if hi - lo > 1:  # a run of ties
            in_order[lo:hi] = [0.5 * (lo + hi + 1)] * (hi - lo)
    ranks = [0.0] * n
    list(map(ranks.__setitem__, order, in_order))
    return ranks


def micro_auc(scores, gt_mask) -> float:
    """Tie-adjusted probability that a random positive outscores a random
    negative, via average ranks; O(n log n). The ranks are half-integers,
    so their sum is exact in any order."""
    scores, gt, n_pos, n_neg = _scored(scores, gt_mask, finite=True)
    u = sum(compress(_average_ranks(scores), gt)) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def auc_bruteforce(scores, gt_mask) -> float:
    """Explicit pair enumeration with 0.5 tie credit; test oracle."""
    scores, gt, n_pos, n_neg = _scored(scores, gt_mask, finite=False)
    neg = [s for s, g in zip(scores, gt) if not g]
    wins = sum(sum(map(p.__gt__, neg)) + 0.5 * sum(map(p.__eq__, neg))
               for p in compress(scores, gt))
    return wins / (n_pos * n_neg)


def _segments_detected(inputs: list[EvalInput], k_percent: float) -> list[int]:
    """Per video, the ground-truth segments holding a top-k% frame."""
    detected = []
    for ei in inputs:
        flags = flags_top(ei.scores, k_percent)
        detected.append(sum(1 for s, e in ei.gt_segments if any(flags[s:e])))
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


def _or_none(metric, *args) -> float | None:
    try:
        return metric(*args)
    except MetricUndefinedError:
        return None


def build_report(inputs: list[EvalInput], k_percent: float,
                 config: dict | None = None) -> dict:
    """The report.json document: micro-AUC over all frames, EDA at k and
    per-video AUC, each None where it is undefined."""
    if not inputs:
        raise DataError("no evaluation inputs")
    all_scores = list(chain.from_iterable(ei.scores for ei in inputs))
    all_gt = list(chain.from_iterable(ei.gt_mask for ei in inputs))
    detected = _segments_detected(inputs, k_percent)
    return {
        "format": "csl-report/1", "eda": _or_none(_eda, inputs, detected),
        "micro_auc": _or_none(micro_auc, all_scores, all_gt),
        "k_percent": k_percent,
        "per_video": [{"id": ei.video_id,
                       "auc": _or_none(micro_auc, ei.scores, ei.gt_mask),
                       "n_gt_segments": len(ei.gt_segments),
                       "n_detected": n_det}
                      for ei, n_det in zip(inputs, detected)],
        "counts": {"videos": len(inputs), "frames": len(all_scores),
                   "corrupted_frames": sum(all_gt)},
        "config": config or {},
    }
