import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cslaudit as ca
from cslaudit import metrics as MET
from cslaudit.errors import ConfigError, MetricUndefinedError, NumericError


def make_input(video_id, scores, gt):
    gt = np.asarray(gt, dtype=np.int8)
    return MET.EvalInput(video_id=video_id, scores=np.asarray(scores, float),
                         gt_mask=gt)


class TestMicroAuc:
    def test_perfect_separation(self):
        assert ca.micro_auc([1, 2, 8, 9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert ca.micro_auc(np.full(10, 3.0), [0, 1] * 5) == 0.5

    def test_pair_counting_example(self):
        # pairs: (0.35,0.1)+ (0.35,0.4)- (0.8,0.1)+ (0.8,0.4)+ -> 3/4
        assert ca.micro_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_single_class_undefined(self):
        with pytest.raises(MetricUndefinedError):
            ca.micro_auc([1.0, 2.0], [1, 1])
        with pytest.raises(MetricUndefinedError):
            ca.micro_auc([1.0, 2.0], [0, 0])

    def test_inverted(self):
        assert ca.micro_auc([0, 1], [1, 0]) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(NumericError):
            ca.micro_auc([0.1, bad, 0.3], [0, 1, 1])


class TestAverageRanks:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.integers(-3, 3).map(float),
                              st.floats(-5, 5)), min_size=1, max_size=60))
    def test_matches_definition(self, values):
        # rank = 1 + #smaller + (#equal - 1) / 2, exact in binary floating point
        x = np.array(values)
        expected = [1 + (x < v).sum() + ((x == v).sum() - 1) / 2 for v in x]
        assert MET._average_ranks(values) == expected


def numpy_rank_auc(scores, gt):
    """micro_auc's numpy rank-sum form before its numpy-free core."""
    x = np.asarray(scores, dtype=np.float64)
    gt = np.asarray(gt).astype(bool)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    bounds = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1], True])
    ranks = np.empty(len(x))
    ranks[order] = np.repeat(0.5 * (bounds[:-1] + bounds[1:] + 1),
                             np.diff(bounds))
    n_pos = int(gt.sum())
    u = ranks[gt].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * (len(gt) - n_pos)))


class TestCoreAuc:
    """The numpy-free micro_auc equals the pair-counting oracle and, bit for
    bit, the numpy rank form it replaced: ranks are half-integers, so their
    sums are exact in any order."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.one_of(st.integers(-3, 3).map(float),
                                        st.floats(-5, 5)),
                              st.integers(0, 1)), min_size=2, max_size=80))
    def test_equals_oracle_and_numpy_rank_form(self, pairs):
        scores = [s for s, _ in pairs]
        gt = [g for _, g in pairs]
        if len(set(gt)) < 2:
            gt[0] = 1 - gt[0]
        got = ca.micro_auc(scores, gt)
        assert type(got) is float
        assert got == numpy_rank_auc(scores, gt)
        assert got == ca.auc_bruteforce(scores, gt)

    def test_heavy_ties(self):
        rng = np.random.default_rng(7)
        for n in (2, 17, 400):
            scores = rng.integers(0, 3, n).astype(float).tolist()
            gt = rng.integers(0, 2, n).tolist()
            gt[:2] = [0, 1]
            assert ca.micro_auc(scores, gt) == numpy_rank_auc(scores, gt) \
                == ca.auc_bruteforce(scores, gt)


class TestBruteforce:
    def test_trivial(self):
        assert ca.auc_bruteforce([1, 0], [1, 0]) == 1.0
        assert ca.auc_bruteforce([0, 1], [1, 0]) == 0.0

    def test_equivalence_200_instances(self):
        rng = np.random.default_rng(0)
        for i in range(200):
            n = int(rng.integers(2, 501))
            if i % 2:  # heavy ties half the time
                scores = rng.integers(0, 6, n).astype(float)
            else:
                scores = rng.normal(size=n)
            gt = rng.integers(0, 2, n)
            if gt.min() == gt.max():
                gt[0] = 1 - gt[0]
            assert abs(ca.micro_auc(scores, gt)
                       - ca.auc_bruteforce(scores, gt)) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=4, max_size=60))
    def test_equivalence_property(self, values):
        scores = np.array(values)
        gt = (np.arange(len(scores)) % 2).astype(int)
        assert abs(ca.micro_auc(scores, gt)
                   - ca.auc_bruteforce(scores, gt)) < 1e-12


class TestAucInvariances:
    def test_monotone_transform(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=80)
        gt = rng.integers(0, 2, 80)
        gt[:2] = [0, 1]
        a = ca.micro_auc(scores, gt)
        assert ca.micro_auc(np.exp(scores), gt) == pytest.approx(a, abs=1e-12)

    def test_negation_complement_without_ties(self):
        rng = np.random.default_rng(2)
        scores = rng.permutation(50).astype(float)
        gt = rng.integers(0, 2, 50)
        gt[:2] = [0, 1]
        assert ca.micro_auc(-scores, gt) \
            == pytest.approx(1 - ca.micro_auc(scores, gt), abs=1e-12)

    def test_frame_order_irrelevant(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=60)
        gt = rng.integers(0, 2, 60)
        gt[:2] = [0, 1]
        perm = rng.permutation(60)
        assert ca.micro_auc(scores[perm], gt[perm]) \
            == pytest.approx(ca.micro_auc(scores, gt), abs=1e-12)


class TestEda:
    def test_partial_detection(self):
        # two GT segments; only the first contains a top-k frame
        scores = np.zeros(20)
        scores[2] = 10.0
        gt = np.zeros(20, dtype=int)
        gt[0:5] = 1
        gt[10:15] = 1
        ei = make_input("v", scores, gt)
        assert ca.eda([ei], 5.0) == 0.5

    def test_full_k(self):
        rng = np.random.default_rng(4)
        ei = make_input("v", rng.normal(size=30),
                        [1] * 5 + [0] * 20 + [1] * 5)
        assert ca.eda([ei], 100.0) == 1.0

    def test_zero_overlap(self):
        scores = np.zeros(20)
        scores[19] = 5.0
        gt = np.zeros(20, dtype=int)
        gt[0:3] = 1
        assert ca.eda([make_input("v", scores, gt)], 5.0) == 0.0

    def test_monotone_in_k(self):
        rng = np.random.default_rng(5)
        inputs = []
        for i in range(4):
            gt = np.zeros(40, dtype=int)
            gt[5 * i:5 * i + 6] = 1
            inputs.append(make_input(f"v{i}", rng.normal(size=40), gt))
        values = [ca.eda(inputs, k) for k in (5, 10, 25, 50, 100)]
        assert values == sorted(values)
        assert all(0 <= v <= 1 for v in values)

    def test_no_gt_undefined(self):
        ei = make_input("v", np.zeros(10), np.zeros(10, dtype=int))
        with pytest.raises(MetricUndefinedError):
            ca.eda([ei], 10.0)

    def test_bad_k(self):
        ei = make_input("v", np.zeros(10), [1] + [0] * 9)
        with pytest.raises(ConfigError):
            ca.eda([ei], 0.0)

    def test_per_video_ranking_ignores_other_videos(self):
        # a long clean video with higher scores would dilute a global pool;
        # each video is ranked on its own
        gt_short = np.array([1, 0, 0, 0], dtype=int)
        short = make_input("short", np.array([2.0, 0, 0, 0]), gt_short)
        long_clean = make_input("long", np.full(96, 3.0),
                                np.zeros(96, dtype=int))
        assert ca.eda([short, long_clean], 25.0) == 1.0


class TestReport:
    def inputs(self):
        rng = np.random.default_rng(6)
        out = []
        for i in range(3):
            gt = np.zeros(30, dtype=int)
            gt[4:12] = 1
            scores = rng.normal(size=30) + 3 * gt
            out.append(make_input(f"v{i}", scores, gt))
        return out

    def test_counts(self):
        rep = ca.build_report(self.inputs(), 10.0)
        assert rep["counts"] == {"videos": 3, "frames": 90,
                                 "corrupted_frames": 24}

    def test_identical_videos_pool_equals_per_video(self):
        ei = self.inputs()[0]
        twin = MET.EvalInput("v_twin", ei.scores.copy(), ei.gt_mask.copy())
        rep = ca.build_report([ei, twin], 10.0)
        assert rep["micro_auc"] == pytest.approx(rep["per_video"][0]["auc"],
                                                 abs=1e-12)

    def test_json_round_trip(self):
        rep = ca.build_report(self.inputs(), 10.0, config={"window": 5})
        back = json.loads(json.dumps(rep, sort_keys=True))
        assert back == rep
        assert sorted(back) == ["config", "counts", "eda", "format",
                                "k_percent", "micro_auc", "per_video"]
        assert back["format"] == "csl-report/1"
        assert back["config"] == {"window": 5}

    def test_undefined_metrics_surface_as_none(self):
        clean = make_input("v", np.zeros(10), np.zeros(10, dtype=int))
        rep = ca.build_report([clean], 10.0)
        assert rep["micro_auc"] is None
        assert rep["eda"] is None
        assert rep["per_video"][0]["auc"] is None

    def test_eda_and_per_video_detections_agree(self):
        inputs = self.inputs()
        rep = ca.build_report(inputs, 10.0)
        found = sum(v["n_detected"] for v in rep["per_video"])
        total = sum(v["n_gt_segments"] for v in rep["per_video"])
        assert rep["eda"] == found / total == ca.eda(inputs, 10.0)

    def test_values_in_unit_interval(self):
        rep = ca.build_report(self.inputs(), 10.0)
        assert 0 <= rep["micro_auc"] <= 1
        assert 0 <= rep["eda"] <= 1
