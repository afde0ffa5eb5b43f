import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import cslaudit as ca
from cslaudit import model as M
from cslaudit.errors import ConfigError, NumericError
from conftest import params_equal


def perturbed_params(cfg, seed, scale=0.1):
    params = ca.init_params(cfg)
    rng = np.random.default_rng(seed)
    for k in params:
        params[k] = params[k] + rng.normal(0, scale, params[k].shape)
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
    ws = M.Workspace()
    ca.forward(params, cfg, X, ws=ws)
    if kink_margin is not None:
        buf = ws.buffers(cfg, (), len(X), False)
        margin = min(np.abs(buf["pre_enc"]).min(),
                     np.abs(buf["L1"]).min(),
                     np.abs(buf["L2"]).min())
        if margin < kink_margin:
            return None
    _, grads = ca.backward(params, cfg, X, y, alpha)
    worst = 0.0
    for k, arr in params.items():
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            lp = M.per_frame_losses(ca.forward(params, cfg, X), y,
                                     alpha).mean()
            arr[idx] = orig - h
            lm = M.per_frame_losses(ca.forward(params, cfg, X), y,
                                     alpha).mean()
            arr[idx] = orig
            num = (lp - lm) / (2 * h)
            an = grads[k][idx]
            worst = max(worst, abs(an - num) / max(abs(an), abs(num), 1e-4))
    return worst


class TestInit:
    def test_deterministic(self, tiny_model_cfg):
        assert params_equal(ca.init_params(tiny_model_cfg),
                            ca.init_params(tiny_model_cfg))

    def test_biases_zero_gains_one(self, tiny_model_cfg):
        p = ca.init_params(tiny_model_cfg)
        assert not p["enc.b"].any()
        assert not p["head.b1"].any()
        assert not p["head.b3"].any()
        assert (p["head.ln1_g"] == 1.0).all()
        assert (p["head.ln2_g"] == 1.0).all()
        assert not p["head.ln1_b"].any()

    def test_weight_bounds(self, tiny_model_cfg):
        p = ca.init_params(tiny_model_cfg)
        for name, arr in p.items():
            if arr.ndim == 2:
                bound = 1.0 / np.sqrt(arr.shape[1])
                assert np.abs(arr).max() <= bound

    def test_attention_params_present_only_in_attention_mode(self):
        cf = ca.ModelConfig(feature_dim=4, num_classes=3, temporal_mode="context_free")
        at = ca.ModelConfig(feature_dim=4, num_classes=3, temporal_mode="attention")
        assert not any(k.startswith("attn.") for k in ca.init_params(cf))
        assert any(k.startswith("attn.") for k in ca.init_params(at))


class TestForward:
    def test_eval_deterministic(self, tiny_model_cfg):
        p = ca.init_params(tiny_model_cfg)
        X = np.random.default_rng(0).normal(size=(7, 4))
        a = ca.forward(p, tiny_model_cfg, X)
        b = ca.forward(p, tiny_model_cfg, X)
        assert np.array_equal(a, b)

    def test_rows_sum_to_one(self, tiny_model_cfg):
        p = perturbed_params(tiny_model_cfg, 1)
        X = np.random.default_rng(1).normal(size=(9, 4))
        probs = ca.forward(p, tiny_model_cfg, X)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9
        assert (probs > 0).all() and (probs < 1).all()

    def test_context_free_permutation_equivariance(self, tiny_model_cfg):
        p = perturbed_params(tiny_model_cfg, 2)
        rng = np.random.default_rng(2)
        X = rng.normal(size=(8, 4))
        perm = rng.permutation(8)
        assert np.allclose(ca.forward(p, tiny_model_cfg, X[perm]),
                           ca.forward(p, tiny_model_cfg, X)[perm])

    def test_attention_is_order_sensitive(self):
        cfg = ca.ModelConfig(feature_dim=4, num_classes=3, hidden_dim=8,
                             head_dims=(6, 5), temporal_mode="attention",
                             attention_dim=4, dropout_rates=(0.0, 0.0),
                             init_seed=3)
        p = perturbed_params(cfg, 3)
        X = np.random.default_rng(3).normal(size=(8, 4))
        swapped = X.copy()
        swapped[[0, 5]] = swapped[[5, 0]]
        a = ca.forward(p, cfg, X)
        b = ca.forward(p, cfg, swapped)
        assert not np.allclose(a[[0, 5]], b[[5, 0]], atol=1e-12) \
            or not np.allclose(np.delete(a, [0, 5], 0), np.delete(b, [0, 5], 0))

    def test_train_mode_dropout_uses_rng(self, tiny_model_cfg):
        from dataclasses import replace
        cfg = replace(tiny_model_cfg, dropout_rates=(0.5, 0.3))
        p = perturbed_params(cfg, 4)
        X = np.random.default_rng(4).normal(size=(6, 4))
        a = ca.forward(p, cfg, X, train=True, rng=np.random.default_rng(9))
        b = ca.forward(p, cfg, X, train=True, rng=np.random.default_rng(9))
        c = ca.forward(p, cfg, X, train=True, rng=np.random.default_rng(10))
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


def weighted_ce(probs_row, label, alpha):
    """Oracle for per_frame_losses: the class-weighted cross-entropy of one
    frame, alpha[y] * (-log p[y]), with p[y] floored at PROB_FLOOR."""
    C = len(probs_row)
    if not 0 <= label < C:
        raise IndexError(f"label {label} out of range 0..{C - 1}")
    p = max(float(probs_row[label]), M.PROB_FLOOR)
    return float(alpha[label]) * (-np.log(p))


def one_frame_loss(probs_row, label, alpha):
    """per_frame_losses of a one-frame sequence, as a float."""
    return float(M.per_frame_losses(np.asarray(probs_row)[None, :],
                                    np.array([label]), alpha)[0])


class TestWeightedCE:
    """per_frame_losses against the weighted_ce oracle and known values."""

    def test_uniform_probs(self):
        for loss in (weighted_ce(np.full(4, 0.25), 2, np.ones(4)),
                     one_frame_loss(np.full(4, 0.25), 2, np.ones(4))):
            assert loss == pytest.approx(np.log(4.0), abs=1e-12)

    def test_certain_prediction(self):
        probs = np.array([0.0, 1.0, 0.0])
        assert weighted_ce(probs, 1, np.ones(3)) == 0.0
        assert one_frame_loss(probs, 1, np.ones(3)) == 0.0
        # a zero probability is floored, not an infinite loss
        assert one_frame_loss(probs, 0, np.ones(3)) \
            == weighted_ce(probs, 0, np.ones(3)) == -np.log(M.PROB_FLOOR)

    def test_weight_scales(self):
        probs = np.array([0.5, 0.5])
        for loss in (weighted_ce(probs, 0, np.array([2.0, 1.0])),
                     one_frame_loss(probs, 0, np.array([2.0, 1.0]))):
            assert loss == pytest.approx(2 * np.log(2.0), abs=1e-12)

    def test_unit_alpha_is_plain_ce(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(20, 5))
        probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        y = rng.integers(0, 5, 20)
        alpha = rng.uniform(0.5, 2.0, 5)
        unit = M.per_frame_losses(probs, y, np.ones(5))
        weighted = M.per_frame_losses(probs, y, alpha)
        for t in range(20):
            assert unit[t] == pytest.approx(-np.log(probs[t, y[t]]), abs=1e-12)
            assert weighted[t] == pytest.approx(
                weighted_ce(probs[t], int(y[t]), alpha), abs=1e-15)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            weighted_ce(np.full(3, 1 / 3), 3, np.ones(3))
        with pytest.raises(IndexError):
            one_frame_loss(np.full(3, 1 / 3), 3, np.ones(3))


class TestBackward:
    def test_saturated_gradients_vanish(self, tiny_model_cfg):
        p = ca.init_params(tiny_model_cfg)
        p["head.b3"][0] = 60.0  # forces p(class 0) ~= 1 everywhere
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
        probs = ca.forward(p, cfg, X, train=True,
                           rng=np.random.default_rng(11))
        assert loss == pytest.approx(
            M.per_frame_losses(probs, y, np.ones(3)).mean(), abs=1e-12)


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


def ref_backward(params, cfg, X, y, alpha, train=False, rng=None):
    """(loss, grads) of `backward` as plain expressions over the ref_*
    kernels: fresh arrays, operators, .sum() and .mean()."""
    p = params
    T = len(y)
    r1, r2 = cfg.dropout_rates if train else (0.0, 0.0)

    def dropout(R, rate):
        mask = (rng.random(R.shape) >= rate) / (1.0 - rate)
        return R * mask, mask

    pre_enc = X @ p["enc.W"].T + p["enc.b"]
    H = np.maximum(pre_enc, 0.0)
    if cfg.temporal_mode == "attention":
        U = H + ref_sinusoidal_encoding(T, cfg.hidden_dim)
        N, xhat_a, inv_a = ref_layernorm(U, p["attn.ln_g"], p["attn.ln_b"])
        Q, K, V = (N @ p[f"attn.W{m}"].T for m in "qkv")
        scale = 1.0 / np.sqrt(cfg.attention_dim)
        A = ref_softmax_rows((Q @ K.T) * scale)
        ctx = A @ V
        H = ctx @ p["attn.Wo"].T + U
    L1, xhat1, inv1 = ref_layernorm(H @ p["head.W1"].T + p["head.b1"],
                                    p["head.ln1_g"], p["head.ln1_b"])
    D1, mask1 = dropout(np.maximum(L1, 0.0), r1) if r1 > 0 \
        else (np.maximum(L1, 0.0), 1.0)
    L2, xhat2, inv2 = ref_layernorm(D1 @ p["head.W2"].T + p["head.b2"],
                                    p["head.ln2_g"], p["head.ln2_b"])
    D2, mask2 = dropout(np.maximum(L2, 0.0), r2) if r2 > 0 \
        else (np.maximum(L2, 0.0), 1.0)
    probs = ref_softmax_rows(D2 @ p["head.W3"].T + p["head.b3"])
    frames = np.arange(T)
    losses = alpha[y] * -np.log(np.maximum(probs[frames, y], M.PROB_FLOOR))
    loss = float(losses.mean())

    g = {}
    w = alpha[y][:, None] / T
    dZ = probs * w
    dZ[frames, y] -= w[:, 0]
    g["head.W3"], g["head.b3"] = dZ.T @ D2, dZ.sum(axis=0)
    dL2 = dZ @ p["head.W3"] * mask2 * (L2 > 0)
    dZ2, g["head.ln2_g"], g["head.ln2_b"] = ref_layernorm_backward(
        dL2, xhat2, inv2, p["head.ln2_g"])
    g["head.W2"], g["head.b2"] = dZ2.T @ D1, dZ2.sum(axis=0)
    dL1 = dZ2 @ p["head.W2"] * mask1 * (L1 > 0)
    dZ1, g["head.ln1_g"], g["head.ln1_b"] = ref_layernorm_backward(
        dL1, xhat1, inv1, p["head.ln1_g"])
    g["head.W1"], g["head.b1"] = dZ1.T @ H, dZ1.sum(axis=0)
    dpre = dZ1 @ p["head.W1"]
    if cfg.temporal_mode == "attention":
        g["attn.Wo"] = dpre.T @ ctx
        dctx = dpre @ p["attn.Wo"]
        dS = ref_softmax_rows_backward(A, dctx @ V.T)
        dQ, dK, dV = (dS @ K) * scale, (dS.T @ Q) * scale, A.T @ dctx
        for m, d in zip("qkv", (dQ, dK, dV)):
            g[f"attn.W{m}"] = d.T @ N
        dN = dQ @ p["attn.Wq"] + dK @ p["attn.Wk"] + dV @ p["attn.Wv"]
        dU, g["attn.ln_g"], g["attn.ln_b"] = ref_layernorm_backward(
            dN, xhat_a, inv_a, p["attn.ln_g"])
        dpre = dU + dpre
    dpre = dpre * (pre_enc > 0)
    g["enc.W"], g["enc.b"] = dpre.T @ X, dpre.sum(axis=0)
    return loss, g


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

    @pytest.mark.parametrize("T", [1, 63, 64, 65, 130, 415])
    def test_softmax_rows_backward_row_blocks(self, T):
        """T x T, as in attention: full blocks of _ROW_BLOCK rows and
        every kind of tail."""
        rng = np.random.default_rng(T)
        A = ref_softmax_rows(rng.normal(0, 3, (T, T)))
        dA = rng.normal(0, 1, (T, T))
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


def parent_softmax_rows(z):
    """_softmax_rows as it was before it chose numpy paths by shape: one
    max reduce and the default ufunc buffer. The reference for the oracle."""
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


def parent_softmax_rows_backward(A, dA):
    """_softmax_rows_backward as it was before, with new temporaries."""
    R, n = A.shape
    tmp, rowsum = np.empty((min(R, M._ROW_BLOCK), n)), np.empty((R, 1))
    for i in range(0, R, M._ROW_BLOCK):
        j = min(i + M._ROW_BLOCK, R)
        np.add.reduce(np.multiply(dA[i:j], A[i:j], out=tmp[:j - i]),
                      axis=1, keepdims=True, out=rowsum[i:j])
    dA -= rowsum
    dA *= A
    return dA


# ±0, subnormals, infinities, one NaN, and values whose differences overflow
SPECIALS = {np.float64: [0.0, -0.0, 5e-324, -2.5e-310, np.inf, -np.inf,
                         np.nan, 1.7e308, -1.7e308],
            np.float32: [0.0, -0.0, 1e-45, -3e-39, np.inf, -np.inf,
                         np.nan, 3.4e38, -3.4e38]}


@st.composite
def softmax_cases(draw):
    """(dtype, shape, seed, scale, specials): rows of n on either side of
    _UNBUFFERED_MIN, and (E x) T rows on either side of _CHAIN_ROWS * n."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    u = M._UNBUFFERED_MIN
    n = draw(st.one_of(st.integers(1, 9), st.sampled_from([u - 1, u, u + 9])))
    lead = draw(st.sampled_from([(), (1,), (3,)]))
    E, rows = (lead or (1,))[0], M._CHAIN_ROWS * n
    if draw(st.booleans()):  # fewer rows than the chain needs
        T = draw(st.integers(1, max(1, (rows - 1) // E)))
    else:
        T = draw(st.integers(-(-rows // E), -(-rows // E) + 5))
    specials = draw(st.lists(st.sampled_from(SPECIALS[dtype]), max_size=6))
    return (dtype, lead + (T, n), draw(st.integers(0, 2**32 - 1)),
            draw(st.sampled_from([1.0, 40.0])), specials)


def case_array(dtype, shape, seed, scale, specials):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, scale, shape).astype(dtype)
    x.flat[rng.integers(0, x.size, len(specials))] = specials
    return x


def same_outcome(kernel, reference, *args):
    """Run both on copies of args: equal bits, or the same FloatingPointError;
    the ufunc buffer size and error state are as they were after each."""
    state = np.geterr(), np.getbufsize()
    results = []
    for f in (kernel, reference):
        try:
            out = f(*(a.copy() for a in args))
            results.append(out.view(f"u{out.itemsize}").tobytes())
        except FloatingPointError as e:
            results.append(str(e))
        assert (np.geterr(), np.getbufsize()) == state
    assert results[0] == results[1]


class TestKernelOracle:
    """Both softmax kernels, next to the formulas they replaced, bit for bit
    on every path model._softmax_rows* take, and with numpy's ufunc state
    left as it was, also when a kernel raises."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(softmax_cases())
    def test_softmax_rows_match_parent(self, case):
        z = case_array(*case)
        with np.errstate(all="ignore"):
            same_outcome(M._softmax_rows, parent_softmax_rows, z)
        with np.errstate(all="raise"):
            same_outcome(M._softmax_rows, parent_softmax_rows, z)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(softmax_cases(), st.integers(0, 2**32 - 1))
    def test_softmax_rows_backward_matches_parent(self, case, seed):
        dtype, shape, _, scale, specials = case
        A = case_array(*case).reshape(-1, shape[-1])
        dA = case_array(dtype, A.shape, seed, scale, specials[::-1])
        with np.errstate(all="ignore"):
            same_outcome(M._softmax_rows_backward,
                         parent_softmax_rows_backward, A, dA)
        with np.errstate(all="raise"):
            same_outcome(M._softmax_rows_backward,
                         parent_softmax_rows_backward, A, dA)

    @pytest.mark.parametrize("kernel", ["forward", "backward"])
    def test_raise_restores_buffer(self, kernel):
        """An overflow in a column broadcast of the long-row path, under
        errstate(all="raise"), leaves its small buffer behind neither inside
        the errstate nor after it."""
        x = np.zeros((4, M._UNBUFFERED_MIN))
        x[:, 0], x[:, 1] = -1.7e308, 1.7e308  # x[:, 1] - x[:, 0] overflows
        A = np.zeros_like(x)
        A[:, 0] = 1.0  # the row sums of x * A are x[:, 0]
        bufsize = np.getbufsize()
        with np.errstate(all="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                if kernel == "forward":
                    M._softmax_rows(-x)
                else:
                    M._softmax_rows_backward(A, x)
            assert np.getbufsize() == bufsize
            assert set(np.geterr().values()) == {"raise"}
        assert np.getbufsize() == bufsize


class TestBackwardBitIdentical:
    @pytest.mark.parametrize("mode", ["context_free", "attention"])
    @pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
    @pytest.mark.parametrize("T", [1, 63, 64, 65, 415])
    def test_backward_equals_ref_backward(self, mode, train, T):
        """Loss and every gradient, bit for bit; train mode draws both
        dropout masks from the same rng seed as the reference."""
        cfg = ca.ModelConfig(feature_dim=5, num_classes=4, hidden_dim=12,
                             head_dims=(8, 6), temporal_mode=mode,
                             attention_dim=6, dropout_rates=(0.5, 0.3))
        params = perturbed_params(cfg, T, scale=0.3)
        rng = np.random.default_rng(T)
        X = rng.normal(0, 1, (T, 5))
        y = rng.integers(0, 4, T)
        alpha = rng.uniform(0.5, 2.0, 4)
        loss, grads = ca.backward(params, cfg, X, y, alpha, train=train,
                                  rng=np.random.default_rng(99))
        ref_loss, ref_grads = ref_backward(params, cfg, X, y, alpha, train,
                                           np.random.default_rng(99))
        assert loss == ref_loss
        assert set(grads) == set(ref_grads)
        for k, want in ref_grads.items():
            assert np.array_equal(grads[k], want), k


class TestStackedForward:
    @pytest.mark.parametrize("mode", ["context_free", "attention"])
    @pytest.mark.parametrize("T", [1, 2, 37])
    def test_each_checkpoint_equals_its_own_forward(self, mode, T):
        cfg = ca.ModelConfig(feature_dim=5, num_classes=4, hidden_dim=12,
                             head_dims=(8, 6), temporal_mode=mode,
                             attention_dim=6)
        snaps = [perturbed_params(cfg, seed, scale=0.5) for seed in range(3)]
        stacked = {k: np.stack([p[k] for p in snaps]) for k in snaps[0]}
        X = np.random.default_rng(T).normal(0, 1, (T, 5))
        probs = ca.forward(stacked, cfg, X)
        assert probs.shape == (3, T, 4)
        for e, p in enumerate(snaps):
            assert np.array_equal(probs[e], ca.forward(p, cfg, X))


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
            assert np.array_equal(ca.forward(p, cfg, X, ws=ws),
                                  ca.forward(p, cfg, X))

    @pytest.mark.parametrize("T", [65, 415])
    def test_train_attention_holds_two_t_by_t_buffers(self, T):
        """A, dA and a (_ROW_BLOCK, T) scratch for the softmax backward; no
        third T x T matrix."""
        cfg = ca.ModelConfig(temporal_mode="attention", **self.CFG)
        bufs = M.Workspace().buffers(cfg, (), T, True)
        assert sorted(k for k, v in bufs.items() if v.shape == (T, T)) \
            == ["A", "dA"]
        assert bufs["tmpA"].shape == (M._ROW_BLOCK, T) == (64, T)
        assert sum(v.size >= 64 * T for v in bufs.values()) == 3

    @pytest.mark.parametrize("mode", ["context_free", "attention"])
    def test_results_without_workspace_are_not_overwritten(self, mode):
        cfg = ca.ModelConfig(temporal_mode=mode, **self.CFG)
        p = perturbed_params(cfg, 9)
        rng = np.random.default_rng(9)
        X1, X2 = rng.normal(size=(2, 11, 4))
        y, alpha = rng.integers(0, 3, 11), np.ones(3)
        out = ca.forward(p, cfg, X1, train=True, rng=np.random.default_rng(1))
        _, grads = ca.backward(p, cfg, X1, y, alpha)
        probs, kept_grads = out.copy(), {
            k: g.copy() for k, g in grads.items()}
        ca.forward(p, cfg, X2, train=True, rng=np.random.default_rng(2))
        ca.backward(p, cfg, X2, y, alpha, train=True,
                    rng=np.random.default_rng(2))
        assert np.array_equal(out, probs)
        for k, g in kept_grads.items():
            assert np.array_equal(grads[k], g)


class TestDtype:
    """forward computes in the dtype of its parameters: float32 for the
    audit's stored checkpoints, float64 (the training path) unchanged."""

    CFG = TestWorkspace.CFG

    @pytest.mark.parametrize("mode", ["context_free", "attention"])
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_float32_parameters_give_float32_probs(self, mode, lead):
        cfg = ca.ModelConfig(temporal_mode=mode, **self.CFG)
        snaps = [perturbed_params(cfg, seed, scale=0.5) for seed in range(3)]
        p64 = snaps[0] if not lead else {
            k: np.stack([p[k] for p in snaps]) for k in snaps[0]}
        p32 = {k: v.astype(np.float32) for k, v in p64.items()}
        X = np.random.default_rng(1).normal(size=(13, 4))  # float64 frames
        ws = M.Workspace()
        probs = ca.forward(p32, cfg, X, ws=ws)
        assert probs.dtype == np.float32 and probs.shape == lead + (13, 3)
        assert ws._flat and all(b.dtype == np.float32 for b in ws._flat.values())
        up = {k: v.astype(np.float64) for k, v in p32.items()}
        assert np.abs(probs - ca.forward(up, cfg, X)).max() < 1e-5

    @pytest.mark.parametrize("mode", ["context_free", "attention"])
    def test_float64_step_uses_frames_as_given(self, mode):
        """A float64 training step casts nothing: the frames are used without
        a copy and every workspace buffer stays float64. Wide frames make a
        copy larger than everything else a step allocates, so a step on a
        sized workspace must allocate less than the frames' bytes."""
        cfg = ca.ModelConfig(temporal_mode=mode,
                             **{**self.CFG, "feature_dim": 256})
        p = perturbed_params(cfg, 2)
        X = np.random.default_rng(2).normal(size=(200, 256))
        ws = M.Workspace()
        probs = ca.forward(p, cfg, X, train=True,
                           rng=np.random.default_rng(0), ws=ws)
        assert probs.dtype == np.float64
        tracemalloc.start()
        try:
            ca.backward(p, cfg, X, np.zeros(200, dtype=np.int64), np.ones(3),
                        train=True, rng=np.random.default_rng(0), ws=ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes // 4
        assert all(b.dtype == np.float64 for b in ws._flat.values())

    def test_frame_beyond_float32_range_is_numeric_error(self, tiny_model_cfg):
        p64 = ca.init_params(tiny_model_cfg)
        p32 = {k: v.astype(np.float32) for k, v in p64.items()}
        X = np.zeros((4, 4))
        X[2, 1] = 1e39  # finite in float64, inf in float32
        ca.forward(p64, tiny_model_cfg, X)
        with np.errstate(over="ignore"), \
                pytest.raises(NumericError, match="float32"):
            ca.forward(p32, tiny_model_cfg, X)

    def test_float32_encoding_is_the_rounded_float64_table(self):
        for T in (5, 40):
            pe = M.sinusoidal_encoding(T, 7, np.float32)
            assert pe.dtype == np.float32 and not pe.flags.writeable
            assert np.array_equal(
                pe, ref_sinusoidal_encoding(T, 7).astype(np.float32))
