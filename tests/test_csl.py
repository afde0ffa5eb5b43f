import os
import sys
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cslaudit as ca
from cslaudit import csl as CSL
from cslaudit import model as M
from cslaudit.errors import ConfigError, DataError, FingerprintError, NumericError
from cslaudit.seqdata import grammar_fingerprint
from test_model import weighted_ce


@pytest.fixture(scope="module")
def trained_on_disk(tmp_path_factory):
    """Small trained store, its training data and the directory train()
    wrote the store to, shared across this module."""
    means = np.zeros((3, 4))
    means[np.arange(3), np.arange(3)] = 3.0
    grammar = ca.PhaseGrammar(3, 4, means, 0.3, (0, 1, 2), 8, 12, 2)
    ds = ca.generate_dataset(grammar, 6, "train", seed=7)
    cfg = ca.ModelConfig(feature_dim=4, num_classes=3, hidden_dim=8,
                         head_dims=(6, 5), temporal_mode="context_free",
                         attention_dim=4, dropout_rates=(0.0, 0.0), init_seed=3)
    path = str(tmp_path_factory.mktemp("trained") / "store")
    store = ca.train(ds, cfg, ca.TrainConfig(epochs=5, learning_rate=1e-3,
                                             shuffle_seed=17), path)
    return store, ds, path


@pytest.fixture(scope="module")
def trained(trained_on_disk):
    """Small trained store plus its training data."""
    return trained_on_disk[:2]


DET = ca.DetectionConfig(mode="percentile", k_percent=20, window=2)


def row(store, i):
    """The checkpoint at row i of store.params, as unstacked parameters."""
    return ca.ModelParams({k: v[i] for k, v in store.params.tensors.items()})


def first(store, n):
    """The store of the first n checkpoints of store."""
    return ca.CheckpointStore(
        dict(store.manifest, epochs=store.epochs[:n],
             epoch_losses=store.manifest["epoch_losses"][:n]),
        ca.ModelParams({k: v[:n] for k, v in store.params.tensors.items()}))


def audit_one(store, ds, sample, det):
    """The profile of one sample: audit_dataset on a one-sample Dataset."""
    [prof] = ca.audit_dataset(store, replace(ds, samples=[sample]), det)
    return prof


class TestTrajectory:
    def test_shape_and_epoch_count(self, trained):
        store, ds = trained
        traj = ca.eval_loss_trajectory(store, ds.samples[0], DET)
        assert traj.losses.shape == (len(store), ds.samples[0].num_frames)
        assert traj.epochs == store.epochs

    def test_single_snapshot_matches_direct_eval(self, trained):
        store, ds = trained
        traj = ca.eval_loss_trajectory(first(store, 1), ds.samples[1], DET)
        params = row(store, 0)
        probs = ca.forward(params, store.model_config, ds.samples[1].frames).probs
        expected = M.per_frame_losses(probs, ds.samples[1].labels, np.ones(3))
        assert np.allclose(traj.losses[0], expected, atol=1e-15)

    def test_weighted_equals_unweighted_when_alpha_unit(self, trained):
        store, ds = trained
        store.manifest = dict(store.manifest, class_weights=[1.0, 1.0, 1.0])
        det_w = ca.DetectionConfig(mode="percentile", k_percent=20, window=2,
                                   audit_loss="train_weighted")
        a = ca.eval_loss_trajectory(store, ds.samples[0], DET)
        b = ca.eval_loss_trajectory(store, ds.samples[0], det_w)
        assert np.array_equal(a.losses, b.losses)

    def test_spot_recomputation(self, trained):
        store, ds = trained
        sample = ds.samples[2]
        traj = ca.eval_loss_trajectory(store, sample, DET)
        rng = np.random.default_rng(0)
        for _ in range(5):
            e = int(rng.integers(0, len(store)))
            t = int(rng.integers(0, sample.num_frames))
            probs = ca.forward(row(store, e), store.model_config,
                               sample.frames).probs
            expected = weighted_ce(probs[t], int(sample.labels[t]), np.ones(3))
            assert traj.losses[e, t] == pytest.approx(expected, abs=1e-15)

    def test_dimension_mismatch(self, trained):
        store, _ = trained
        bad = ca.SequenceSample("x", np.zeros((5, 9)), np.zeros(5, dtype=int),
                                np.zeros(5, dtype=np.int8))
        with pytest.raises(FingerprintError):
            ca.eval_loss_trajectory(store, bad, DET)

    def test_exactly_one_forward_per_checkpoint(self, trained, monkeypatch):
        """Every checkpoint goes through exactly one forward: one stacked
        call per chunk, whose leading axes cover the epochs once, in order."""
        store, ds = trained
        sample = ds.samples[0]
        E = len(store)
        received = []
        original = M.forward

        def recording(params, *args, **kwargs):
            received.append(params)
            return original(params, *args, **kwargs)

        monkeypatch.setattr(CSL.M, "forward", recording)
        # the default budget takes all E checkpoints at once
        for per_call in (E, 2):
            if per_call != E:
                monkeypatch.setattr(CSL, "CHUNK_ROWS",
                                    per_call * sample.num_frames)
            received.clear()
            ca.eval_loss_trajectory(store, sample, DET)
            assert len(received) == -(-E // per_call)
            assert sum(len(p.tensors["enc.W"]) for p in received) == E
            for name, stacked in store.params.tensors.items():
                assert np.array_equal(
                    np.concatenate([p.tensors[name] for p in received]),
                    stacked)


class TestCsl:
    def traj(self, losses):
        return ca.LossTrajectory("v", np.asarray(losses, dtype=float),
                                 list(range(1, len(losses) + 1)))

    def test_columnwise_mean(self):
        assert ca.compute_csl(self.traj([[0.9], [0.5], [0.1]]))[0] \
            == pytest.approx(0.5, abs=1e-15)

    def test_constant_column(self):
        assert np.allclose(ca.compute_csl(self.traj([[3.0, 7.0]] * 4)),
                           [3.0, 7.0])

    def test_single_epoch_identity(self):
        row = [[0.2, 0.4, 0.8]]
        assert np.array_equal(ca.compute_csl(self.traj(row)), row[0])

    def test_bruteforce_mean_exactness(self):
        rng = np.random.default_rng(1)
        losses = rng.uniform(0, 5, size=(40, 100))
        csl = ca.compute_csl(self.traj(losses))
        brute = np.array([sum(losses[e][t] for e in range(40)) / 40
                          for t in range(100)])
        assert np.abs(csl - brute).max() < 1e-12

    @pytest.mark.parametrize("E", [1, 2, 7, 8, 9, 50])
    def test_sums_epoch_rows_in_order(self, E):
        """The CSL adds the epoch rows in order, starting from 0.0: numpy's
        add.reduce over epochs bit for bit wherever T >= 2, where numpy too
        adds row after row. A lone frame's column numpy sums pairwise; the
        CSL keeps the epoch order there as well."""
        rng = np.random.default_rng(E)
        for T in (1, 2, 3, 9, 70):
            losses = rng.uniform(0, 5, (E, T)) * rng.choice([1e-6, 1.0, 1e6],
                                                            (E, T))
            losses[rng.random((E, T)) < 0.2] = -0.0
            got = ca.compute_csl(self.traj(losses))
            ordered = np.zeros(T)
            for row in losses:
                ordered += row
            assert got.tobytes() == (ordered / E).tobytes()
            if T >= 2:
                assert got.tobytes() == (np.add.reduce(losses, 0) / E).tobytes()
        assert ca.compute_csl(self.traj(np.full((E, 3), -0.0))).tobytes() \
            == np.zeros(3).tobytes()


class TestTrajectoryErrors:
    """Faults in the losses are data or numeric faults, not config ones."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_is_numeric_and_names_epoch(self, value):
        losses = np.ones((3, 4))
        losses[1, 2] = value
        with pytest.raises(NumericError, match="video v: .* epoch 20"):
            ca.LossTrajectory("v", losses, [10, 20, 30])

    @pytest.mark.parametrize("losses,epochs", [
        (-np.ones((2, 3)), [1, 2]),     # negative
        (np.ones(3), [1]),              # not 2-D
        (np.ones((2, 3)), [1, 2, 3]),   # rows != epochs
    ], ids=["negative", "one-d", "epoch-count-mismatch"])
    def test_bad_shape_or_sign_is_data_error(self, losses, epochs):
        with pytest.raises(DataError, match="video v"):
            ca.LossTrajectory("v", losses, epochs)


class TestSmoothing:
    def test_zero_window_identity(self):
        x = np.array([4.0, 1.0, 3.0])
        assert np.array_equal(ca.smooth_csl(x, 0), x)

    def test_interior_mean(self):
        assert ca.smooth_csl(np.array([1.0, 2.0, 3.0]), 1)[1] \
            == pytest.approx(2.0, abs=1e-15)

    def test_truncated_boundary(self):
        out = ca.smooth_csl(np.array([4.0, 2.0, 2.0, 2.0]), 1)
        assert out[0] == pytest.approx(3.0, abs=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0, 100), min_size=1, max_size=40),
           st.integers(0, 6))
    @example([0.0, 1.0, 1.0, 1.0, 1.0], 3)
    def test_window_bounds(self, values, w):
        x = np.array(values)
        out = ca.smooth_csl(x, w)
        assert len(out) == len(x)
        for t in range(len(x)):
            lo, hi = max(0, t - w), min(len(x), t + w + 1)
            window = x[lo:hi]
            assert window.min() - 1e-9 <= out[t] <= window.max() + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0, 100), min_size=1, max_size=80),
           st.integers(1, 90))
    @example([1.0, 2.0], 5)  # w >= T: every window holds the whole sequence
    @example([0.5] * 20, 8)  # the smallest window past the exact pin
    def test_counts_equal_the_convolution(self, values, w):
        """Each window's sum is the term-by-term sum of the oracle, bit for
        bit, and its count comes from the closed form. Up to w = 7 (15 terms)
        that is np.convolve's sum and count of ones exactly; from w = 8 on,
        np.convolve sums in the order of the BLAS kernel the CPU picks, and
        the two agree within 1e-14 relative."""
        x = np.array(values)
        got = ca.smooth_csl(x, w)
        assert got.tobytes() == np.array(window_oracle(values, w)).tobytes()
        T, kernel = len(x), np.ones(2 * w + 1)
        sums = np.convolve(x, kernel, mode="full")[w:w + T]
        counts = np.convolve(np.ones_like(x), kernel, mode="full")[w:w + T]
        if w <= 7:
            assert got.tobytes() == (sums / counts).tobytes()
        else:
            assert np.all(np.abs(got - sums / counts)
                          <= 1e-14 * np.abs(sums / counts))

    @pytest.mark.parametrize("w", range(1, 8))
    def test_equals_the_convolution_bit_for_bit(self, w):
        """Exact pins against np.convolve for every T from 1 to past 2w+1
        (below 2w+1 np.convolve swaps its operands and sums in descending
        order), with -0.0 losses (-log 1.0) in the mix and all-(-0.0) runs:
        a window of -0.0s smooths to 0.0, as np.convolve's sums from 0.0."""
        rng = np.random.default_rng(w)
        for T in range(1, 2 * w + 4):
            for _ in range(20):
                x = rng.uniform(0, 5, T) * rng.choice([1e-6, 1.0, 1e6], T)
                x[rng.random(T) < 0.3] = -0.0
                want = np.convolve(x, np.ones(2 * w + 1), mode="full")[w:w + T]
                before = np.minimum(np.arange(T, dtype=np.float64), w)
                want /= before + before[::-1] + 1.0
                assert ca.smooth_csl(x, w).tobytes() == want.tobytes(), T
            zeros = np.full(T, -0.0)
            assert ca.smooth_csl(zeros, w).tobytes() == np.zeros(T).tobytes()


def window_oracle(values, w):
    """Each truncated window summed term by term from 0.0, skipping
    out-of-range frames: ascending, or descending when T < 2w+1."""
    T, out = len(values), []
    for t in range(T):
        terms = [values[j] for j in range(t - w, t + w + 1) if 0 <= j < T]
        if T < 2 * w + 1:
            terms.reverse()
        total = 0.0
        for v in terms:
            total += v
        out.append(total / len(terms))
    return out


class TestFlagging:
    def test_threshold_basic(self):
        assert ca.flag_threshold(np.array([0.1, 0.9]), 0.5).tolist() == [0, 1]

    def test_threshold_strict(self):
        assert ca.flag_threshold(np.array([0.5]), 0.5).tolist() == [0]

    def test_threshold_below_min(self):
        x = np.array([0.3, 0.2, 0.9])
        assert ca.flag_threshold(x, x.min() - 1).tolist() == [1, 1, 1]

    def test_threshold_monotone(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, 30)
        for tau1, tau2 in [(0.2, 0.5), (0.0, 0.9), (0.4, 0.4)]:
            f1 = set(np.flatnonzero(ca.flag_threshold(x, tau1)))
            f2 = set(np.flatnonzero(ca.flag_threshold(x, tau2)))
            assert f2 <= f1

    def test_percentile_count(self):
        x = np.random.default_rng(3).uniform(size=10)
        assert ca.flag_percentile(x, 20).sum() == 2

    def test_percentile_tie_break(self):
        assert ca.flag_percentile(np.ones(5), 40).tolist() == [1, 1, 0, 0, 0]

    def test_percentile_full(self):
        assert ca.flag_percentile(np.arange(7.0), 100).sum() == 7

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=40),
           st.floats(0.5, 100))
    def test_percentile_count_exact(self, values, k):
        flags = ca.flag_percentile(np.array(values), k)
        assert flags.sum() == int(np.ceil(k / 100 * len(values)))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(-1000, 1000), min_size=2, max_size=30),
           st.sampled_from([10.0, 25.0, 60.0]))
    def test_percentile_monotone_transform_invariance(self, values, k):
        # x -> x^3 + 5x is strictly increasing and exact on small integers,
        # so it preserves the full order including ties
        x = np.array(values, dtype=float)
        assert np.array_equal(ca.flag_percentile(x, k),
                              ca.flag_percentile(x ** 3 + 5 * x, k))


class TestCalibration:
    def test_constant_pool(self):
        assert ca.calibrate_tau([np.ones(4)], 0.95) == 1.0

    def test_interpolated_quantile(self):
        tau = ca.calibrate_tau([np.arange(101.0)], 0.95)
        assert tau == pytest.approx(95.0, abs=1e-9)

    def test_bounds(self):
        rng = np.random.default_rng(4)
        smoothed = rng.uniform(2, 9, 50)
        for q in (0.05, 0.5, 0.99):
            tau = ca.calibrate_tau([smoothed], q)
            assert 2 <= tau <= 9

    def test_empty_pool(self):
        with pytest.raises(DataError):
            ca.calibrate_tau([], 0.95)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.floats(-1e300, 1e300), min_size=1,
                             max_size=40), min_size=1, max_size=4),
           st.one_of(st.just(0.95), st.floats(1e-9, 1 - 1e-9)))
    @example([[0.0, 1.0]], 0.5)  # g == 0.5 takes the upper formula
    @example([[2.0]], 0.95)
    @example([[-0.0]], 0.95)  # one value: numpy takes it as is, sign and all
    def test_equals_numpy_quantile_bit_for_bit(self, pools, q):
        smoothed = [np.array(p) for p in pools]
        before = [p.copy() for p in smoothed]
        want = np.quantile(np.concatenate(smoothed), q)
        got = ca.calibrate_tau(smoothed, q)
        assert type(got) is float
        assert np.float64(got).view("<u8") == want.view("<u8")
        assert all(np.array_equal(a, b) for a, b in zip(smoothed, before))


class TestSegments:
    def test_basic(self):
        assert ca.frames_to_segments(np.array([0, 1, 1, 0, 1])) == [(1, 3), (4, 5)]

    def test_all_zero(self):
        assert ca.frames_to_segments(np.zeros(5, dtype=int)) == []

    def test_segments_cover_flags(self):
        rng = np.random.default_rng(5)
        flags = (rng.uniform(size=50) > 0.6).astype(int)
        segs = ca.frames_to_segments(flags)
        covered = np.zeros(50, dtype=int)
        for s, e in segs:
            assert e > s
            covered[s:e] = 1
        assert np.array_equal(covered, flags)


class TestCurvature:
    def traj(self, cols):
        arr = np.asarray(cols, dtype=float)
        return ca.LossTrajectory("v", arr, list(range(1, arr.shape[0] + 1)))

    def test_linear_column(self):
        assert ca.trajectory_curvature(self.traj([[3.0], [2.0], [1.0]]))[0] == 0.0

    def test_spike(self):
        assert ca.trajectory_curvature(self.traj([[0.0], [1.0], [0.0]]))[0] == 2.0

    def test_constant(self):
        assert ca.trajectory_curvature(self.traj([[5.0]] * 6))[0] == 0.0

    def test_affine_in_epoch_is_flat(self):
        e = np.arange(10.0)[:, None]
        slope = np.array([[0.3, -0.2, 1.5]])
        traj = self.traj(10.0 + e * slope)
        assert np.abs(ca.trajectory_curvature(traj)).max() < 1e-12

    def test_needs_three_epochs(self):
        with pytest.raises(DataError):
            ca.trajectory_curvature(self.traj([[1.0], [2.0]]))


class TestAuditSequence:
    def test_degenerate_composition(self, trained):
        store, ds = trained
        det = ca.DetectionConfig(mode="threshold", tau=-1.0, window=0)
        prof = audit_one(first(store, 1), ds, ds.samples[0], det)
        T = ds.samples[0].num_frames
        assert prof.flags.sum() == T
        assert prof.segments == [(0, T)]

    def test_pipeline_decomposition(self, trained):
        store, ds = trained
        det = ca.DetectionConfig(mode="percentile", k_percent=15, window=3)
        prof = audit_one(store, ds, ds.samples[3], det)
        traj = ca.eval_loss_trajectory(store, ds.samples[3], det)
        csl = ca.compute_csl(traj)
        assert np.array_equal(prof.csl, csl)
        assert np.array_equal(prof.smoothed, ca.smooth_csl(csl, 3))
        assert np.array_equal(prof.flags, ca.flag_percentile(prof.smoothed, 15))

    def test_clean_validation_flags_bounded(self):
        # zero-noise separable data: tau from clean validation flags at most
        # ~5% of clean frames (q=0.95 quantile guarantee)
        means = np.zeros((3, 4))
        means[np.arange(3), np.arange(3)] = 5.0
        grammar = ca.PhaseGrammar(3, 4, means, 0.0, (0, 1, 2), 10, 10, 0)
        train_ds = ca.generate_dataset(grammar, 6, "train", 0)
        val_ds = ca.generate_dataset(grammar, 6, "val", 1)
        cfg = ca.ModelConfig(feature_dim=4, num_classes=3, hidden_dim=8,
                             head_dims=(6, 5), dropout_rates=(0.0, 0.0),
                             init_seed=3)
        import tempfile
        with tempfile.TemporaryDirectory() as td:
            store = ca.train(train_ds, cfg,
                             ca.TrainConfig(epochs=5, learning_rate=1e-3,
                                            shuffle_seed=17), td)
        det = ca.DetectionConfig(mode="threshold", tau=0.0, window=2)
        tau = ca.calibrate_tau(
            [p.smoothed for p in ca.audit_dataset(store, val_ds, det)], 0.95)
        clean = val_ds.samples[0]
        flags = ca.flag_threshold(
            audit_one(store, val_ds, clean, det).smoothed, tau)
        assert flags.mean() <= 0.10  # ~5% expected, margin for pooling


class TestAuditDataset:
    def test_one_profile_per_sample_in_order(self, trained):
        store, ds = trained
        profiles = ca.audit_dataset(store, ds, DET)
        assert [p.video_id for p in profiles] == [s.id for s in ds.samples]
        for p, s in zip(profiles, ds.samples):
            assert p.trajectory.losses.shape == (len(store), s.num_frames)
            assert np.array_equal(p.csl, ca.compute_csl(p.trajectory))
            assert np.array_equal(
                p.flags, audit_one(store, ds, s, DET).flags)

    @pytest.mark.parametrize("change", ["more-classes", "class-mean-scale"])
    def test_foreign_grammar_refused(self, trained, change):
        """A dataset of another grammar than the store's is refused before
        any replay: more classes than the model (labels it cannot score) or
        the same shapes with other class means."""
        store, ds = trained
        g = ds.grammar
        if change == "more-classes":
            other = replace(g, num_classes=4, class_means=np.eye(4) * 3.0,
                            phase_order=(0, 1, 2, 3))
        else:
            other = replace(g, class_means=g.class_means * 2)
        foreign = ca.generate_dataset(other, 2, "val", seed=1)
        with pytest.raises(FingerprintError, match="store/dataset mismatch"):
            ca.audit_dataset(store, foreign, DET)

    def test_trained_and_loaded_store_agree_bitwise(self, trained_on_disk):
        store, ds, path = trained_on_disk
        loaded = ca.load_store(path)
        for a, b in zip(ca.audit_dataset(store, ds, DET),
                        ca.audit_dataset(loaded, ds, DET)):
            assert np.array_equal(a.trajectory.losses, b.trajectory.losses)
            assert np.array_equal(a.flags, b.flags)

    def test_nan_checkpoint_names_video_and_epoch(self, trained):
        store, ds = trained
        bad = first(store, 3)
        bad.params = ca.ModelParams({k: v.copy()
                                     for k, v in bad.params.tensors.items()})
        next(iter(bad.params.tensors.values()))[2] = np.nan
        epoch = store.epochs[2]
        with pytest.raises(NumericError,
                           match=f"{ds.samples[0].id}.*epoch {epoch}"):
            ca.audit_dataset(bad, ds, DET)

    def test_zero_frame_sample_refused_as_by_the_replay(self, trained):
        """audit_dataset refuses a zero-frame sample with the error of
        eval_loss_trajectory (it divided by zero before)."""
        store, ds = trained
        empty = ca.SequenceSample("e", np.zeros((0, 4)), np.zeros(0, int),
                                  np.zeros(0, np.int8))
        with pytest.raises(ConfigError, match="need at least one frame"):
            ca.eval_loss_trajectory(store, empty, DET)
        with pytest.raises(ConfigError, match="need at least one frame"):
            ca.audit_dataset(store, replace(ds, samples=[empty]), DET)


def reference_losses(store, sample, cfg):
    """The replay before stacking: one forward per checkpoint, rows stacked."""
    alpha = store.class_weights if cfg.audit_loss == CSL.TRAIN_WEIGHTED \
        else np.ones(store.model_config.num_classes)
    rows = [M.per_frame_losses(
        M.forward(row(store, e), store.model_config, sample.frames).probs,
        sample.labels, alpha) for e in range(len(store))]
    return np.stack(rows)


def replay_grammar():
    """The 3-class, 4-dim grammar of the random_store replay tests."""
    means = np.zeros((3, 4))
    means[np.arange(3), np.arange(3)] = 3.0
    return ca.PhaseGrammar(3, 4, means, 0.8, (0, 1, 2), 5, 15, 2)


def random_store(mode, n_epochs):
    """Untrained float64 store of perturbed checkpoints for datasets of
    replay_grammar(); epochs 2, 4, 6, ..."""
    cfg = ca.ModelConfig(feature_dim=4, num_classes=3, hidden_dim=8,
                         head_dims=(6, 5), temporal_mode=mode,
                         attention_dim=4, dropout_rates=(0.0, 0.0))
    snapshots = []
    for e in range(n_epochs):
        rng = np.random.default_rng(e)
        snapshots.append({k: v + rng.normal(0, 0.5, v.shape) for k, v
                          in ca.init_params(cfg).tensors.items()})
    manifest = {"model": asdict(cfg), "class_weights": [0.5, 1.0, 1.5],
                "epochs": list(range(2, 2 * n_epochs + 1, 2)),
                "epoch_losses": [1.0] * n_epochs,
                "fingerprints": {"grammar": grammar_fingerprint(
                    replay_grammar()), "train_data": "d"}}
    return ca.CheckpointStore(manifest, ca.ModelParams(
        {k: np.stack([t[k] for t in snapshots]) for k in snapshots[0]}))


@pytest.fixture(scope="module")
def long_dataset():
    return ca.generate_dataset(replay_grammar(), 4, "test", seed=3)


class TestStackedReplay:
    """The chunked stacked replay equals the per-checkpoint loop bit for bit."""

    # (checkpoints, checkpoints per chunk; None: the default budget)
    CASES = {"E=1": (1, None), "E=10-one-chunk": (10, None),
             "E=7-chunks-of-3": (7, 3), "T-above-budget": (5, 0)}

    @pytest.mark.parametrize("mode", ["context_free", "attention"])
    @pytest.mark.parametrize("n_epochs,per_chunk", list(CASES.values()),
                             ids=list(CASES))
    @pytest.mark.parametrize("audit_loss", ["unweighted", "train_weighted"])
    def test_equals_per_checkpoint_loop(self, long_dataset, monkeypatch, mode,
                                        n_epochs, per_chunk, audit_loss):
        store = random_store(mode, n_epochs)
        det = ca.DetectionConfig(mode="percentile", k_percent=20, window=2,
                                 audit_loss=audit_loss)
        for sample in long_dataset.samples:
            if per_chunk is not None:  # 0: fewer rows than one sequence
                monkeypatch.setattr(CSL, "CHUNK_ROWS",
                                    max(per_chunk * sample.num_frames,
                                        sample.num_frames - 1))
            want = reference_losses(store, sample, det)
            got = ca.eval_loss_trajectory(store, sample, det).losses
            assert got.flags.c_contiguous  # mean over epochs sums in order
            assert np.array_equal(got, want)
            prof = ca.audit_dataset(
                store, ca.Dataset(long_dataset.grammar, [sample], "test", 0),
                det)[0]
            assert np.array_equal(prof.trajectory.losses, want)
            csl = want.mean(axis=0)
            assert np.array_equal(prof.csl, csl)
            assert np.array_equal(
                prof.flags, ca.flag_percentile(ca.smooth_csl(csl, 2), 20))

    def test_nan_in_later_chunk_names_video_and_epoch(self, long_dataset,
                                                      monkeypatch):
        store = random_store("attention", 6)
        store.params.tensors["head.W3"][3, 0, 0] = np.nan  # chunk 2, row 2
        ds = long_dataset
        monkeypatch.setattr(CSL, "CHUNK_ROWS", 2 * ds.samples[0].num_frames)
        with pytest.raises(NumericError,
                           match=f"video {ds.samples[0].id}: non-finite loss at "
                           "epoch 8$"):
            ca.audit_dataset(store, ds, DET)


@pytest.mark.parametrize("mode", ["context_free", "attention"])
@pytest.mark.parametrize("chunk_rows", [None, 100])
def test_one_workspace_across_lengths(monkeypatch, mode, chunk_rows):
    """audit_dataset replays long, short, then long sequences through one
    workspace; each profile equals that sequence audited alone (a fresh
    workspace), bit for bit."""
    if chunk_rows is not None:  # chunks of 1, 2 and all 7 checkpoints
        monkeypatch.setattr(CSL, "CHUNK_ROWS", chunk_rows)
    store = random_store(mode, 7)
    grammar = replay_grammar()
    rng = np.random.default_rng(5)
    samples = [ca.SequenceSample(f"v{i}", rng.normal(0, 1, (T, 4)),
                                 rng.integers(0, 3, T), np.zeros(T))
               for i, T in enumerate([70, 9, 1, 50, 70, 23])]
    got = ca.audit_dataset(store, ca.Dataset(grammar, samples, "test", 0), DET)
    for s, prof in zip(samples, got):
        want = ca.audit_dataset(
            store, ca.Dataset(grammar, [s], "test", 0), DET)[0]
        for field in ("csl", "smoothed", "flags"):
            assert np.array_equal(getattr(prof, field), getattr(want, field))
        assert np.array_equal(prof.trajectory.losses, want.trajectory.losses)


@pytest.mark.parametrize("mode", ["context_free", "attention"])
@pytest.mark.parametrize("chunk_rows", [None, 100])
def test_workspace_sized_before_replay(monkeypatch, mode, chunk_rows):
    """On a dataset ordered short to long, no workspace buffer is replaced
    during the replay: audit_dataset sizes them all before the first forward."""
    if chunk_rows is not None:  # largest chunk at T=50, longest T=70
        monkeypatch.setattr(CSL, "CHUNK_ROWS", chunk_rows)
    store = random_store(mode, 7)
    grammar = replay_grammar()
    rng = np.random.default_rng(6)
    samples = [ca.SequenceSample(f"v{i}", rng.normal(0, 1, (T, 4)),
                                 rng.integers(0, 3, T), np.zeros(T))
               for i, T in enumerate([1, 9, 23, 50, 70])]
    seen = []  # the workspace's flat buffers at each forward call
    forward = M.forward

    def spy(*args, ws, **kwargs):
        seen.append(dict(ws._flat))  # holds the arrays, so ids stay unique
        return forward(*args, ws=ws, **kwargs)

    monkeypatch.setattr(M, "forward", spy)
    ca.audit_dataset(store, ca.Dataset(grammar, samples, "test", 0), DET)
    assert len(seen) >= len(samples)
    for flat in seen:
        assert flat.keys() == seen[0].keys()
        assert all(flat[k] is seen[0][k] for k in flat)


@pytest.mark.parametrize("mode,det", [
    ("context_free", DET),
    ("attention", replace(DET, mode="threshold", tau=1.0))])
def test_audited_video_enters_numpy_python_code_only_through_errstate(
        trained, tmp_path, mode, det):
    """Auditing one video calls numpy's ufuncs and ufunc methods directly:
    after a warm-up it enters no function defined in numpy's Python files
    but the errstate wrapper of eval_loss_trajectory. The CSL, smoothing and
    flags are the metrics core's, in plain Python."""
    _, ds = trained
    cfg = ca.ModelConfig(feature_dim=4, num_classes=3, hidden_dim=8,
                         head_dims=(6, 5), temporal_mode=mode, attention_dim=4)
    store = ca.train(ds, cfg, ca.TrainConfig(epochs=3), str(tmp_path))
    ws = M.Workspace()
    numpy_dir = os.path.dirname(np.__file__) + os.sep
    entered = []

    def audit(sample):  # audit_dataset's work per video
        CSL._profile(CSL.eval_loss_trajectory(store, sample, det, ws=ws), det)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(numpy_dir):
            entered.append(frame.f_code.co_name)

    audit(ds.samples[0])
    sys.setprofile(profile)
    try:
        audit(ds.samples[0])
    finally:
        sys.setprofile(None)
    assert entered == ["inner"]
