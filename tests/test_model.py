import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import cslaudit as ca
from cslaudit import model as M
from cslaudit.errors import ConfigError, NumericError


def perturbed_params(cfg, seed, scale=0.1):
    params = ca.init_params(cfg)
    rng = np.random.default_rng(seed)
    for k in params.tensors:
        params.tensors[k] = params.tensors[k] + rng.normal(
            0, scale, params.tensors[k].shape)
    return params


def flat_gradcheck(cfg, seed, h=1e-4, kink_margin=None):
    """Central finite differences vs analytic gradients at a random point.

    Returns the worst per-coordinate relative error, or None if the draw sits
    too close to a ReLU kink for finite differences to be meaningful.
    """
    rng = np.random.default_rng(seed)
    params = perturbed_params(cfg, seed)
    X = rng.normal(0, 1, (5, cfg.feature_dim))
    y = rng.integers(0, cfg.num_classes, 5)
    alpha = rng.uniform(0.5, 2.0, cfg.num_classes)
    trace = ca.forward(params, cfg, X)
    if kink_margin is not None:
        margin = min(np.abs(trace.cache["pre_enc"]).min(),
                     np.abs(trace.cache["L1"]).min(),
                     np.abs(trace.cache["L2"]).min())
        if margin < kink_margin:
            return None
    _, grads = ca.backward(params, cfg, X, y, alpha)
    worst = 0.0
    for k, arr in params.tensors.items():
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            lp = M.sequence_loss(ca.forward(params, cfg, X).probs, y, alpha)
            arr[idx] = orig - h
            lm = M.sequence_loss(ca.forward(params, cfg, X).probs, y, alpha)
            arr[idx] = orig
            num = (lp - lm) / (2 * h)
            an = grads[k][idx]
            worst = max(worst, abs(an - num) / max(abs(an), abs(num), 1e-4))
    return worst


class TestInit:
    def test_deterministic(self, tiny_model_cfg):
        assert ca.init_params(tiny_model_cfg) == ca.init_params(tiny_model_cfg)

    def test_biases_zero_gains_one(self, tiny_model_cfg):
        p = ca.init_params(tiny_model_cfg)
        assert not p.tensors["enc.b"].any()
        assert not p.tensors["head.b1"].any()
        assert not p.tensors["head.b3"].any()
        assert (p.tensors["head.ln1_g"] == 1.0).all()
        assert (p.tensors["head.ln2_g"] == 1.0).all()
        assert not p.tensors["head.ln1_b"].any()

    def test_weight_bounds(self, tiny_model_cfg):
        p = ca.init_params(tiny_model_cfg)
        for name, arr in p.tensors.items():
            if arr.ndim == 2:
                bound = tiny_model_cfg.init_scale / np.sqrt(arr.shape[1])
                assert np.abs(arr).max() <= bound

    def test_attention_params_present_only_in_attention_mode(self):
        cf = ca.ModelConfig(feature_dim=4, num_classes=3, temporal_mode="context_free")
        at = ca.ModelConfig(feature_dim=4, num_classes=3, temporal_mode="attention")
        assert not any(k.startswith("attn.") for k in ca.init_params(cf).tensors)
        assert any(k.startswith("attn.") for k in ca.init_params(at).tensors)


class TestForward:
    def test_eval_deterministic(self, tiny_model_cfg):
        p = ca.init_params(tiny_model_cfg)
        X = np.random.default_rng(0).normal(size=(7, 4))
        a = ca.forward(p, tiny_model_cfg, X).probs
        b = ca.forward(p, tiny_model_cfg, X).probs
        assert np.array_equal(a, b)

    def test_rows_sum_to_one(self, tiny_model_cfg):
        p = perturbed_params(tiny_model_cfg, 1)
        X = np.random.default_rng(1).normal(size=(9, 4))
        probs = ca.forward(p, tiny_model_cfg, X).probs
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9
        assert (probs > 0).all() and (probs < 1).all()

    def test_context_free_permutation_equivariance(self, tiny_model_cfg):
        p = perturbed_params(tiny_model_cfg, 2)
        rng = np.random.default_rng(2)
        X = rng.normal(size=(8, 4))
        perm = rng.permutation(8)
        assert np.allclose(ca.forward(p, tiny_model_cfg, X[perm]).probs,
                           ca.forward(p, tiny_model_cfg, X).probs[perm])

    def test_attention_is_order_sensitive(self):
        cfg = ca.ModelConfig(feature_dim=4, num_classes=3, hidden_dim=8,
                             head_dims=(6, 5), temporal_mode="attention",
                             attention_dim=4, dropout_rates=(0.0, 0.0),
                             init_seed=3)
        p = perturbed_params(cfg, 3)
        X = np.random.default_rng(3).normal(size=(8, 4))
        swapped = X.copy()
        swapped[[0, 5]] = swapped[[5, 0]]
        a = ca.forward(p, cfg, X).probs
        b = ca.forward(p, cfg, swapped).probs
        assert not np.allclose(a[[0, 5]], b[[5, 0]], atol=1e-12) \
            or not np.allclose(np.delete(a, [0, 5], 0), np.delete(b, [0, 5], 0))

    def test_train_mode_dropout_uses_rng(self, tiny_model_cfg):
        from dataclasses import replace
        cfg = replace(tiny_model_cfg, dropout_rates=(0.5, 0.3))
        p = perturbed_params(cfg, 4)
        X = np.random.default_rng(4).normal(size=(6, 4))
        a = ca.forward(p, cfg, X, train=True, rng=np.random.default_rng(9)).probs
        b = ca.forward(p, cfg, X, train=True, rng=np.random.default_rng(9)).probs
        c = ca.forward(p, cfg, X, train=True, rng=np.random.default_rng(10)).probs
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        with pytest.raises(ConfigError):
            ca.forward(p, cfg, X, train=True)

    def test_shape_and_finite_errors(self, tiny_model_cfg):
        p = ca.init_params(tiny_model_cfg)
        with pytest.raises(ConfigError):
            ca.forward(p, tiny_model_cfg, np.zeros((4, 5)))
        with pytest.raises(NumericError):
            ca.forward(p, tiny_model_cfg, np.full((4, 4), np.nan))


class TestWeightedCE:
    def test_uniform_probs(self):
        assert M.weighted_ce(np.full(4, 0.25), 2, np.ones(4)) \
            == pytest.approx(np.log(4.0), abs=1e-12)

    def test_certain_prediction(self):
        probs = np.array([0.0, 1.0, 0.0])
        assert M.weighted_ce(probs, 1, np.ones(3)) == 0.0

    def test_weight_scales(self):
        probs = np.array([0.5, 0.5])
        assert M.weighted_ce(probs, 0, np.array([2.0, 1.0])) \
            == pytest.approx(2 * np.log(2.0), abs=1e-12)

    def test_unit_alpha_is_plain_ce(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            z = rng.normal(size=5)
            probs = np.exp(z) / np.exp(z).sum()
            y = int(rng.integers(0, 5))
            assert M.weighted_ce(probs, y, np.ones(5)) \
                == pytest.approx(-np.log(probs[y]), abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            M.weighted_ce(np.full(3, 1 / 3), 3, np.ones(3))


class TestBackward:
    def test_saturated_gradients_vanish(self, tiny_model_cfg):
        p = ca.init_params(tiny_model_cfg)
        p.tensors["head.b3"][0] = 60.0  # forces p(class 0) ~= 1 everywhere
        X = np.random.default_rng(5).normal(size=(6, 4))
        y = np.zeros(6, dtype=int)
        loss, grads = ca.backward(p, tiny_model_cfg, X, y, np.ones(3))
        assert loss < 1e-9
        total = np.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
        assert total < 1e-6

    @pytest.mark.parametrize("mode", ["context_free", "attention"])
    def test_finite_differences(self, mode):
        cfg = ca.ModelConfig(feature_dim=3, num_classes=3, hidden_dim=4,
                             head_dims=(4, 3), temporal_mode=mode,
                             attention_dim=3, dropout_rates=(0.0, 0.0),
                             init_seed=0)
        checked = 0
        for seed in range(40):
            worst = flat_gradcheck(cfg, seed, kink_margin=1e-3)
            if worst is None:
                continue  # a ReLU pre-activation within the FD step
            assert worst < 1e-4, f"seed {seed}: rel err {worst}"
            checked += 1
            if checked == 3:
                return
        pytest.fail("not enough kink-free draws")

    def test_alpha_linearity(self, tiny_model_cfg):
        p = perturbed_params(tiny_model_cfg, 6)
        rng = np.random.default_rng(6)
        X = rng.normal(size=(5, 4))
        y = rng.integers(0, 3, 5)
        alpha = rng.uniform(0.5, 1.5, 3)
        l1, g1 = ca.backward(p, tiny_model_cfg, X, y, alpha)
        l2, g2 = ca.backward(p, tiny_model_cfg, X, y, 2 * alpha)
        assert l2 == pytest.approx(2 * l1, rel=1e-12)
        for k in g1:
            assert np.allclose(g2[k], 2 * g1[k], rtol=1e-12, atol=1e-300)

    def test_dropout_gradients_match_realized_mask(self, tiny_model_cfg):
        # with the same rng stream, backward loss equals the paired forward's
        from dataclasses import replace
        cfg = replace(tiny_model_cfg, dropout_rates=(0.4, 0.2))
        p = perturbed_params(cfg, 7)
        X = np.random.default_rng(7).normal(size=(5, 4))
        y = np.random.default_rng(8).integers(0, 3, 5)
        loss, _ = ca.backward(p, cfg, X, y, np.ones(3), train=True,
                              rng=np.random.default_rng(11))
        trace = ca.forward(p, cfg, X, train=True, rng=np.random.default_rng(11))
        assert loss == pytest.approx(
            M.sequence_loss(trace.probs, y, np.ones(3)), abs=1e-12)


def test_sinusoidal_encoding_shape_and_range():
    pe = M.sinusoidal_encoding(50, 9)
    assert pe.shape == (50, 9)
    assert np.abs(pe).max() <= 1.0
    assert not np.array_equal(pe[0], pe[1])


# ---------------------------------------------------------------------------
# The kernels below reuse buffers and work in place. Each must give exactly
# the bits of the straightforward formula, kept here as the reference.


def ref_sinusoidal_encoding(T, dim):
    pos = np.arange(T, dtype=np.float64)[:, None]
    i = np.arange(dim)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    return np.where(i % 2 == 0, np.sin(angle), np.cos(angle))


def ref_layernorm(x, g, b):
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + M.LN_EPS)
    xhat = (x - mu) * inv_std
    return xhat * g + b, xhat, inv_std


def ref_layernorm_backward(dy, xhat, inv_std, g):
    dxhat = dy * g
    dg = (dy * xhat).sum(axis=0)
    db = dy.sum(axis=0)
    dx = inv_std * (dxhat - dxhat.mean(axis=1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=1, keepdims=True))
    return dx, dg, db


def ref_softmax_rows(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def ref_softmax_rows_backward(A, dA):
    return A * (dA - (dA * A).sum(axis=1, keepdims=True))


@st.composite
def same_shape_matrices(draw, k, max_rows=40, max_cols=24):
    shape = (draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols)))
    elements = st.floats(-1e3, 1e3, allow_subnormal=False)
    return [draw(arrays(np.float64, shape, elements=elements))
            for _ in range(k)]


class TestKernelsBitIdentical:
    @settings(max_examples=60, deadline=None)
    @given(same_shape_matrices(1))
    def test_softmax_rows(self, mats):
        z = mats[0].copy()
        out = M._softmax_rows(z)
        assert out is z  # in place
        assert np.array_equal(out, ref_softmax_rows(mats[0]))

    @settings(max_examples=60, deadline=None)
    @given(same_shape_matrices(3))
    def test_softmax_rows_backward(self, mats):
        A = ref_softmax_rows(mats[0])
        dA = mats[1]
        expected = ref_softmax_rows_backward(A, dA)
        assert np.array_equal(M._softmax_rows_backward(A, dA.copy()), expected)

    @settings(max_examples=60, deadline=None)
    @given(same_shape_matrices(3))
    def test_layernorm(self, mats):
        x, gb, _ = mats
        g, b = gb[0], gb[-1]
        for got, want in zip(M._layernorm(x, g, b), ref_layernorm(x, g, b)):
            assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(same_shape_matrices(3))
    def test_layernorm_backward(self, mats):
        x, dy, gs = mats
        g = gs[0]
        _, xhat, inv_std = ref_layernorm(x, g, g)
        got = M._layernorm_backward(dy, xhat, inv_std, g)
        for a, b in zip(got, ref_layernorm_backward(dy, xhat, inv_std, g)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("order", ["ascending", "descending"])
    def test_sinusoidal_encoding_prefix(self, monkeypatch, order):
        monkeypatch.setattr(M, "_PE_TABLES", {})
        lengths = range(1, 601) if order == "ascending" else range(600, 0, -1)
        for dim in (7, 32):
            for T in lengths:
                pe = M.sinusoidal_encoding(T, dim)
                assert np.array_equal(pe, ref_sinusoidal_encoding(T, dim))
                assert not pe.flags.writeable
        with pytest.raises(ValueError):
            M.sinusoidal_encoding(3, 7)[0, 0] = 1.0


class TestStackedForward:
    @pytest.mark.parametrize("mode", ["context_free", "attention"])
    @pytest.mark.parametrize("T", [1, 2, 37])
    def test_each_checkpoint_equals_its_own_forward(self, mode, T):
        cfg = ca.ModelConfig(feature_dim=5, num_classes=4, hidden_dim=12,
                             head_dims=(8, 6), temporal_mode=mode,
                             attention_dim=6)
        snaps = [perturbed_params(cfg, seed, scale=0.5) for seed in range(3)]
        stacked = M.ModelParams({k: np.stack([p.tensors[k] for p in snaps])
                                 for k in snaps[0].tensors})
        X = np.random.default_rng(T).normal(0, 1, (T, 5))
        trace = ca.forward(stacked, cfg, X)
        assert trace.probs.shape == (3, T, 4)
        assert trace.cache == {}  # a stacked replay keeps no activations
        for e, p in enumerate(snaps):
            assert np.array_equal(trace.probs[e], ca.forward(p, cfg, X).probs)


class TestWorkspace:
    CFG = dict(feature_dim=4, num_classes=3, hidden_dim=8, head_dims=(6, 5),
               attention_dim=4, dropout_rates=(0.5, 0.3))

    @pytest.mark.parametrize("mode", ["context_free", "attention"])
    def test_shared_equals_fresh_across_lengths(self, mode):
        """One workspace serving long, short, then long sequences gives the
        results of a fresh workspace per call, bit for bit."""
        cfg = ca.ModelConfig(temporal_mode=mode, **self.CFG)
        p = perturbed_params(cfg, 8)
        alpha = np.array([0.5, 1.0, 1.5])
        ws = M.Workspace()
        for T in (40, 7, 1, 40, 23):
            rng = np.random.default_rng(T)
            X, y = rng.normal(size=(T, 4)), rng.integers(0, 3, T)
            loss, grads = ca.backward(p, cfg, X, y, alpha, train=True,
                                      rng=np.random.default_rng(T), ws=ws)
            loss0, grads0 = ca.backward(p, cfg, X, y, alpha, train=True,
                                        rng=np.random.default_rng(T))
            assert loss == loss0
            for k in grads0:
                assert np.array_equal(grads[k], grads0[k])
            assert np.array_equal(ca.forward(p, cfg, X, ws=ws).probs,
                                  ca.forward(p, cfg, X).probs)

    @pytest.mark.parametrize("mode", ["context_free", "attention"])
    def test_results_without_workspace_are_not_overwritten(self, mode):
        cfg = ca.ModelConfig(temporal_mode=mode, **self.CFG)
        p = perturbed_params(cfg, 9)
        rng = np.random.default_rng(9)
        X1, X2 = rng.normal(size=(2, 11, 4))
        y, alpha = rng.integers(0, 3, 11), np.ones(3)
        trace = ca.forward(p, cfg, X1, train=True,
                           rng=np.random.default_rng(1))
        _, grads = ca.backward(p, cfg, X1, y, alpha)
        kept = {k: v.copy() for k, v in trace.cache.items()
                if isinstance(v, np.ndarray)}
        probs, kept_grads = trace.probs.copy(), {
            k: g.copy() for k, g in grads.items()}
        ca.forward(p, cfg, X2, train=True, rng=np.random.default_rng(2))
        ca.backward(p, cfg, X2, y, alpha, train=True,
                    rng=np.random.default_rng(2))
        assert np.array_equal(trace.probs, probs)
        assert kept.keys() >= {"pre_enc", "L1", "L2", "D1", "D2"}
        for k, v in kept.items():
            assert np.array_equal(trace.cache[k], v)
        for k, g in kept_grads.items():
            assert np.array_equal(grads[k], g)
