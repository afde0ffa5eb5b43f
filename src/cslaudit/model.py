"""Frame classifier with exact analytic gradients.

Architecture: a ReLU frame encoder, optionally followed by one single-head
self-attention block (sinusoidal positional encoding, pre-LayerNorm, residual),
then a 3-layer classifier head

    z_t = W3 relu(LN2(W2 relu(LN1(W1 h'_t + b1)) + b2)) + b3,
    p_t = softmax(z_t),

trained with class-weighted cross-entropy. Dropout (inverted convention) is
applied after the two hidden head activations in train mode only.

Everything is plain numpy; backward() returns exact gradients of the mean
weighted cross-entropy with respect to every parameter tensor, verified
against central finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError

LN_EPS = 1e-5
PROB_FLOOR = 1e-12

CONTEXT_FREE = "context_free"
ATTENTION = "attention"


@dataclass(frozen=True)
class ModelConfig:
    feature_dim: int
    num_classes: int
    hidden_dim: int = 32
    head_dims: tuple[int, int] = (16, 8)
    temporal_mode: str = CONTEXT_FREE
    attention_dim: int = 16
    dropout_rates: tuple[float, float] = (0.5, 0.3)
    init_seed: int = 0
    init_scale: float = 1.0

    def __post_init__(self):
        for name in ("feature_dim", "num_classes", "hidden_dim", "attention_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if any(h < 1 for h in self.head_dims):
            raise ConfigError("head_dims must be >= 1")
        if self.temporal_mode not in (CONTEXT_FREE, ATTENTION):
            raise ConfigError(f"unknown temporal_mode {self.temporal_mode!r}")
        if not all(0 <= r < 1 for r in self.dropout_rates):
            raise ConfigError("dropout_rates must lie in [0, 1)")
        if self.init_scale <= 0:
            raise ConfigError("init_scale must be positive")

    def to_dict(self) -> dict:
        return {
            "feature_dim": self.feature_dim,
            "num_classes": self.num_classes,
            "hidden_dim": self.hidden_dim,
            "head_dims": list(self.head_dims),
            "temporal_mode": self.temporal_mode,
            "attention_dim": self.attention_dim,
            "dropout_rates": list(self.dropout_rates),
            "init_seed": self.init_seed,
            "init_scale": self.init_scale,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(
            feature_dim=int(d["feature_dim"]),
            num_classes=int(d["num_classes"]),
            hidden_dim=int(d["hidden_dim"]),
            head_dims=tuple(int(x) for x in d["head_dims"]),
            temporal_mode=d["temporal_mode"],
            attention_dim=int(d["attention_dim"]),
            dropout_rates=tuple(float(x) for x in d["dropout_rates"]),
            init_seed=int(d["init_seed"]),
            init_scale=float(d["init_scale"]),
        )


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Ordered name -> shape map; order is the canonical serialization order."""
    d, h, a, C = cfg.feature_dim, cfg.hidden_dim, cfg.attention_dim, cfg.num_classes
    h1, h2 = cfg.head_dims
    shapes: dict[str, tuple[int, ...]] = {"enc.W": (h, d), "enc.b": (h,)}
    if cfg.temporal_mode == ATTENTION:
        shapes.update({
            "attn.ln_g": (h,), "attn.ln_b": (h,),
            "attn.Wq": (a, h), "attn.Wk": (a, h), "attn.Wv": (a, h),
            "attn.Wo": (h, a),
        })
    shapes.update({
        "head.W1": (h1, h), "head.b1": (h1,),
        "head.ln1_g": (h1,), "head.ln1_b": (h1,),
        "head.W2": (h2, h1), "head.b2": (h2,),
        "head.ln2_g": (h2,), "head.ln2_b": (h2,),
        "head.W3": (C, h2), "head.b3": (C,),
    })
    return shapes


@dataclass
class ModelParams:
    """All trainable tensors, keyed by canonical name."""

    tensors: dict[str, np.ndarray]

    def copy(self) -> "ModelParams":
        return ModelParams({k: v.copy() for k, v in self.tensors.items()})

    def check_shapes(self, cfg: ModelConfig) -> None:
        expected = param_shapes(cfg)
        if set(self.tensors) != set(expected):
            raise ConfigError(
                f"parameter names {sorted(self.tensors)} != {sorted(expected)}")
        for name, shape in expected.items():
            if self.tensors[name].shape != shape:
                raise ConfigError(
                    f"{name}: shape {self.tensors[name].shape} != {shape}")

    def __eq__(self, other):
        if not isinstance(other, ModelParams):
            return NotImplemented
        return (set(self.tensors) == set(other.tensors)
                and all(np.array_equal(v, other.tensors[k])
                        for k, v in self.tensors.items()))


def init_params(cfg: ModelConfig) -> ModelParams:
    """Uniform(-scale/sqrt(fan_in), +scale/sqrt(fan_in)) weights, zero biases,
    unit LayerNorm gains."""
    rng = np.random.default_rng(cfg.init_seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(cfg).items():
        if len(shape) == 2:
            bound = cfg.init_scale / np.sqrt(shape[1])
            tensors[name] = rng.uniform(-bound, bound, size=shape)
        elif name.endswith("_g"):
            tensors[name] = np.ones(shape)
        else:
            tensors[name] = np.zeros(shape)
    return ModelParams(tensors)


_PE_TABLES: dict[int, np.ndarray] = {}


def sinusoidal_encoding(T: int, dim: int) -> np.ndarray:
    """Standard sine/cosine positional encoding, shape (T, dim).

    Row t depends only on t, so one read-only table per `dim` serves every
    length: it is grown by doubling when a longer sequence arrives, and the
    result is a read-only view of its first T rows.
    """
    table = _PE_TABLES.get(dim)
    if table is None or table.shape[0] < T:
        n = T if table is None else max(T, 2 * table.shape[0])
        pos = np.arange(n, dtype=np.float64)[:, None]
        i = np.arange(dim)[None, :]
        angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
        table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
        table.flags.writeable = False
        _PE_TABLES[dim] = table
    return table[:T]


def _affine(x: np.ndarray, W: np.ndarray, b: np.ndarray | None = None):
    """x @ W.T (+ b) per frame row; W and b may carry leading checkpoint axes
    (matmul broadcasts, one gemm per checkpoint)."""
    y = x @ W.swapaxes(-1, -2)
    if b is not None:
        y += b[..., None, :]
    return y


def _layernorm(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    # sum/n and square(x - mu).sum/n are the exact operations np.mean and
    # np.var perform, so the centred x is computed once and reused for xhat.
    n = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) / n
    xhat = x - mu
    var = np.square(xhat).sum(axis=-1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv_std
    y = xhat * g[..., None, :]
    y += b[..., None, :]
    return y, xhat, inv_std


def _layernorm_backward(dy, xhat, inv_std, g):
    n = xhat.shape[1]
    dxhat = dy * g
    tmp = dy * xhat
    dg = tmp.sum(axis=0)
    db = dy.sum(axis=0)
    np.multiply(dxhat, xhat, out=tmp)
    m2 = tmp.sum(axis=1, keepdims=True) / n
    dxhat -= dxhat.sum(axis=1, keepdims=True) / n
    np.multiply(xhat, m2, out=tmp)
    dxhat -= tmp
    dxhat *= inv_std
    return dxhat, dg, db


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis computed in place: overwrites z and
    returns it."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _softmax_rows_backward(A: np.ndarray, dA: np.ndarray) -> np.ndarray:
    """Gradient through a row softmax A: overwrites dA with dS and returns it."""
    tmp = dA * A
    dA -= tmp.sum(axis=1, keepdims=True)
    dA *= A
    return dA


@dataclass
class ForwardTrace:
    """Per-frame probabilities plus cached activations for the backward pass."""

    probs: np.ndarray            # (..., T, C), rows on the simplex
    train: bool
    cache: dict = field(repr=False, default_factory=dict)


def forward(params: ModelParams, cfg: ModelConfig, frames: np.ndarray,
            train: bool = False,
            rng: np.random.Generator | None = None) -> ForwardTrace:
    """Run the classifier over a full sequence.

    Eval mode is a pure function of (params, frames); train mode consumes
    `rng` for the two dropout masks.

    Every parameter tensor may carry the same leading checkpoint axes, e.g.
    shape (E, h, d) for `enc.W`: the result then holds one (T, C) probability
    matrix per checkpoint, `probs` of shape (E, T, C), each equal bit for bit
    to a forward with that checkpoint alone (per-frame layers broadcast one
    gemm per checkpoint; the T x T attention core loops over the checkpoints,
    so only one score matrix is alive at a time). A stacked call caches no
    activations: `backward` and train mode take unstacked parameters.
    """
    X = np.asarray(frames, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != cfg.feature_dim:
        raise ConfigError(
            f"frames shape {X.shape} incompatible with feature_dim {cfg.feature_dim}")
    if X.shape[0] < 1:
        raise ConfigError("need at least one frame")
    if not np.all(np.isfinite(X)):
        raise NumericError("non-finite values in input frames")
    p = params.tensors
    cache = {"X": X} if p["enc.W"].ndim == 2 else None
    H = _encode(p, X, cache)
    if cfg.temporal_mode == ATTENTION:
        H = _attend(p, cfg, H, cache)
    if cache is not None:
        cache["Hp"] = H
    probs = _head(p, cfg, H, train, rng, cache)
    return ForwardTrace(probs=probs, train=train, cache=cache or {})


# The three stages of forward(). Each fills `cache` with what backward needs
# when given one; without it (a stacked replay) a stage's activations are
# freed when it returns, so a replay chunk's working set stays a few arrays.


def _encode(p: dict, X: np.ndarray, cache: dict | None) -> np.ndarray:
    pre_enc = _affine(X, p["enc.W"], p["enc.b"])
    if cache is not None:
        cache["pre_enc"] = pre_enc
    return np.maximum(pre_enc, 0.0)


def _attend(p: dict, cfg: ModelConfig, H0: np.ndarray,
            cache: dict | None) -> np.ndarray:
    T = H0.shape[-2]
    U = H0 + sinusoidal_encoding(T, cfg.hidden_dim)
    N, xhat_a, inv_a = _layernorm(U, p["attn.ln_g"], p["attn.ln_b"])
    Qm = _affine(N, p["attn.Wq"])
    Km = _affine(N, p["attn.Wk"])
    Vm = _affine(N, p["attn.Wv"])
    scale = 1.0 / np.sqrt(cfg.attention_dim)
    ctx = np.empty_like(Vm)
    for i in np.ndindex(Qm.shape[:-2]):  # one (): unstacked parameters
        S = Qm[i] @ Km[i].T
        S *= scale
        A = _softmax_rows(S)
        np.matmul(A, Vm[i], out=ctx[i])
    if cache is not None:
        cache.update(U=U, N=N, xhat_a=xhat_a, inv_a=inv_a,
                     Qm=Qm, Km=Km, Vm=Vm, A=A, ctx=ctx, scale=scale)
    return U + _affine(ctx, p["attn.Wo"])


def _head(p: dict, cfg: ModelConfig, Hp: np.ndarray, train: bool,
          rng: np.random.Generator | None, cache: dict | None) -> np.ndarray:
    r1, r2 = cfg.dropout_rates if train else (0.0, 0.0)
    Z1 = _affine(Hp, p["head.W1"], p["head.b1"])
    L1, xhat1, inv1 = _layernorm(Z1, p["head.ln1_g"], p["head.ln1_b"])
    R1 = np.maximum(L1, 0.0)
    if r1 > 0:
        if rng is None:
            raise ConfigError("train-mode forward with dropout requires an rng")
        mask1 = (rng.random(R1.shape) >= r1) / (1.0 - r1)
        D1 = R1 * mask1
    else:
        mask1 = None
        D1 = R1
    Z2 = _affine(D1, p["head.W2"], p["head.b2"])
    L2, xhat2, inv2 = _layernorm(Z2, p["head.ln2_g"], p["head.ln2_b"])
    R2 = np.maximum(L2, 0.0)
    if r2 > 0:
        if rng is None:
            raise ConfigError("train-mode forward with dropout requires an rng")
        mask2 = (rng.random(R2.shape) >= r2) / (1.0 - r2)
        D2 = R2 * mask2
    else:
        mask2 = None
        D2 = R2
    Z = _affine(D2, p["head.W3"], p["head.b3"])
    if cache is not None:
        cache.update(L1=L1, xhat1=xhat1, inv1=inv1, mask1=mask1, D1=D1,
                     L2=L2, xhat2=xhat2, inv2=inv2, mask2=mask2, D2=D2)
    return _softmax_rows(Z)


def weighted_ce(probs_row: np.ndarray, label: int, alpha: np.ndarray) -> float:
    """Class-weighted cross-entropy of one frame: alpha[y] * (-log p[y])."""
    C = len(probs_row)
    if not 0 <= label < C:
        raise IndexError(f"label {label} out of range 0..{C - 1}")
    p = max(float(probs_row[label]), PROB_FLOOR)
    return float(alpha[label]) * (-np.log(p))


def sequence_loss(probs: np.ndarray, labels: np.ndarray,
                  alpha: np.ndarray) -> float:
    """Mean weighted cross-entropy over a sequence."""
    labels = np.asarray(labels)
    idx = np.arange(len(labels))
    p = np.maximum(probs[idx, labels], PROB_FLOOR)
    return float(np.mean(np.asarray(alpha)[labels] * (-np.log(p))))


def per_frame_losses(probs: np.ndarray, labels: np.ndarray,
                     alpha: np.ndarray) -> np.ndarray:
    """Weighted CE of every frame; `probs` (..., T, C) gives (..., T).
    With leading axes the result need not be C-contiguous."""
    labels = np.asarray(labels)
    idx = np.arange(len(labels))
    p = np.maximum(probs[..., idx, labels], PROB_FLOOR)
    return np.asarray(alpha)[labels] * (-np.log(p))


def backward(params: ModelParams, cfg: ModelConfig, frames: np.ndarray,
             labels: np.ndarray, alpha: np.ndarray, train: bool = False,
             rng: np.random.Generator | None = None
             ) -> tuple[float, dict[str, np.ndarray]]:
    """Mean weighted CE over the sequence plus exact gradients.

    With train-mode dropout the gradients are exact for the realized masks
    (same rng stream as the paired forward).
    """
    trace = forward(params, cfg, frames, train=train, rng=rng)
    c = trace.cache
    p = params.tensors
    labels = np.asarray(labels, dtype=np.int64)
    T = len(labels)
    if T != c["X"].shape[0]:
        raise ConfigError("labels length does not match frames")
    alpha = np.asarray(alpha, dtype=np.float64)
    loss = sequence_loss(trace.probs, labels, alpha)
    grads: dict[str, np.ndarray] = {}

    # softmax + weighted CE: dZ[t] = alpha[y_t]/T * (p_t - onehot(y_t))
    w = alpha[labels][:, None] / T
    dZ = trace.probs * w
    dZ[np.arange(T), labels] -= w[:, 0]

    grads["head.W3"] = dZ.T @ c["D2"]
    grads["head.b3"] = dZ.sum(axis=0)
    dD2 = dZ @ p["head.W3"]
    dR2 = dD2 * c["mask2"] if c["mask2"] is not None else dD2
    dL2 = dR2 * (c["L2"] > 0)
    dZ2, grads["head.ln2_g"], grads["head.ln2_b"] = _layernorm_backward(
        dL2, c["xhat2"], c["inv2"], p["head.ln2_g"])
    grads["head.W2"] = dZ2.T @ c["D1"]
    grads["head.b2"] = dZ2.sum(axis=0)
    dD1 = dZ2 @ p["head.W2"]
    dR1 = dD1 * c["mask1"] if c["mask1"] is not None else dD1
    dL1 = dR1 * (c["L1"] > 0)
    dZ1, grads["head.ln1_g"], grads["head.ln1_b"] = _layernorm_backward(
        dL1, c["xhat1"], c["inv1"], p["head.ln1_g"])
    grads["head.W1"] = dZ1.T @ c["Hp"]
    grads["head.b1"] = dZ1.sum(axis=0)
    dHp = dZ1 @ p["head.W1"]

    if cfg.temporal_mode == ATTENTION:
        grads["attn.Wo"] = dHp.T @ c["ctx"]
        dctx = dHp @ p["attn.Wo"]
        dA = dctx @ c["Vm"].T
        dVm = c["A"].T @ dctx
        dS = _softmax_rows_backward(c["A"], dA)
        dQm = dS @ c["Km"] * c["scale"]
        dKm = dS.T @ c["Qm"] * c["scale"]
        grads["attn.Wq"] = dQm.T @ c["N"]
        grads["attn.Wk"] = dKm.T @ c["N"]
        grads["attn.Wv"] = dVm.T @ c["N"]
        dN = dQm @ p["attn.Wq"] + dKm @ p["attn.Wk"] + dVm @ p["attn.Wv"]
        dU_ln, grads["attn.ln_g"], grads["attn.ln_b"] = _layernorm_backward(
            dN, c["xhat_a"], c["inv_a"], p["attn.ln_g"])
        dU = dHp + dU_ln   # residual + LN path
        dH0 = dU           # positional encoding is constant
    else:
        dH0 = dHp

    dpre = dH0 * (c["pre_enc"] > 0)
    grads["enc.W"] = dpre.T @ c["X"]
    grads["enc.b"] = dpre.sum(axis=0)
    return loss, grads
