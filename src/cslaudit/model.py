"""Frame classifier with exact analytic gradients.

Architecture: a ReLU frame encoder, optionally followed by one single-head
self-attention block (sinusoidal positional encoding, pre-LayerNorm, residual),
then a 3-layer classifier head

    z_t = W3 relu(LN2(W2 relu(LN1(W1 h'_t + b1)) + b2)) + b3,
    p_t = softmax(z_t),

trained with class-weighted cross-entropy. Dropout (inverted convention) is
applied after the two hidden head activations in train mode only.

Everything is plain numpy. The parameters are a plain dict, name -> array,
in the canonical order of param_shapes(); backward() returns exact gradients
of the mean weighted cross-entropy with respect to every one of them,
verified against central finite differences in the test suite.

forward() and backward() write every activation, T x T matrix, dropout mask
and backward temporary into a Workspace (its docstring says who owns them)
that the training loop and the audit replay each keep for a whole run;
backward() reads forward()'s activations there and writes the gradients
where its caller says: in training, the optimizer's flat buffer. Reductions
call the ufunc methods that ndarray.sum/max/all wrap (one frame less each).

forward() computes in the dtype of the parameters: training runs in float64,
and the audit replays the float32 checkpoints in float32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ConfigError, NumericError
from .fileio import check_json

try:  # the C-level ufunc state that np.setbufsize sets, without its frame
    from numpy._core.umath import _extobj_contextvar, _make_extobj
except ImportError:  # then the broadcasts keep numpy's buffer: same bits
    _extobj_contextvar = None

LN_EPS = 1e-5
PROB_FLOOR = 1e-12
_ROW_BLOCK = 64  # rows per block of the softmax backward's row sums
# the row softmax's paths by shape, measured (README: Where the time goes)
_UNBUFFERED_MIN, _SMALL_BUFFER, _CHAIN_ROWS = 128, 16, 15

CONTEXT_FREE = "context_free"
ATTENTION = "attention"


# A ModelConfig's JSON fields (asdict()), each an example of its kind
CONFIG_SHAPE = {"feature_dim": 0, "num_classes": 0, "hidden_dim": 0,
                "head_dims": [0], "temporal_mode": "x", "attention_dim": 0,
                "dropout_rates": [0.0], "init_seed": 0}


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

    def __post_init__(self):
        for name in ("feature_dim", "num_classes", "hidden_dim", "attention_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("head_dims", "dropout_rates"):
            if len(getattr(self, name)) != 2:
                raise ConfigError(f"{name} must hold exactly 2 values, got "
                                  f"{len(getattr(self, name))}")
        if any(h < 1 for h in self.head_dims):
            raise ConfigError("head_dims must be >= 1")
        if self.temporal_mode not in (CONTEXT_FREE, ATTENTION):
            raise ConfigError(f"unknown temporal_mode {self.temporal_mode!r}")
        if not all(0 <= r < 1 for r in self.dropout_rates):
            raise ConfigError("dropout_rates must lie in [0, 1)")

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """The config a store manifest records, each field of CONFIG_SHAPE's
        kind; other keys (a retired field of an older store) are ignored."""
        check_json(d, CONFIG_SHAPE, "model", ConfigError)
        return cls(**{k: tuple(d[k]) if type(d[k]) is list else d[k]
                      for k in CONFIG_SHAPE})


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


def init_params(cfg: ModelConfig) -> dict[str, np.ndarray]:
    """name -> tensor in canonical order: Uniform(-1/sqrt(fan_in),
    +1/sqrt(fan_in)) weights, zero biases, unit LayerNorm gains."""
    rng = np.random.default_rng(cfg.init_seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(cfg).items():
        if len(shape) == 2:
            bound = 1.0 / np.sqrt(shape[1])
            tensors[name] = rng.uniform(-bound, bound, size=shape)
        elif name.endswith("_g"):
            tensors[name] = np.ones(shape)
        else:
            tensors[name] = np.zeros(shape)
    return tensors


_PE_TABLES: dict[tuple[int, np.dtype], np.ndarray] = {}


def sinusoidal_encoding(T: int, dim: int, dtype=np.float64) -> np.ndarray:
    """Standard sine/cosine positional encoding, shape (T, dim), computed in
    float64 and rounded to `dtype`.

    Row t depends only on t, so one read-only table per (`dim`, `dtype`)
    serves every length: it is grown by doubling when a longer sequence
    arrives, and the result is a read-only view of its first T rows.
    """
    key = (dim, np.dtype(dtype))
    table = _PE_TABLES.get(key)
    if table is None or table.shape[0] < T:
        n = T if table is None else max(T, 2 * table.shape[0])
        pos = np.arange(n, dtype=np.float64)[:, None]
        i = np.arange(dim)[None, :]
        angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
        table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle)).astype(
            dtype, copy=False)
        table.flags.writeable = False
        _PE_TABLES[key] = table
    return table[:T]


class Workspace:
    """Scratch buffers that `forward` and `backward` reuse.

    Each named buffer is one flat array that grows when a larger shape
    arrives (and is replaced when a call of another dtype arrives) and is
    handed out as a C-contiguous prefix view. The views for one call's shapes
    are built once and cached under (config, leading axes, frame count,
    train, dtype), so a call costs one lookup; replacing a buffer drops the
    cached views, since they may point at its old storage. Reusing the
    buffers keeps large arrays from being returned to the OS and faulted in
    again on every call. A train-mode attention call holds two T x T
    buffers, `A` and `dA`, and a (min(T, _ROW_BLOCK), T) scratch.

    Ownership: a workspace belongs to one caller. It is the only place a
    call's activations live: forward's probabilities are a view into it,
    and backward reads forward's activations from the same views. They are
    valid until the next call with the same workspace. A call without one
    makes a fresh workspace, so its results are the caller's alone.
    """

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}
        self._views: dict[tuple, dict[str, np.ndarray]] = {}

    def buffers(self, cfg: ModelConfig, lead: tuple[int, ...], T: int,
                train: bool, dtype=np.float64) -> dict[str, np.ndarray]:
        """name -> view of `dtype` for one call; `train` adds the dropout
        masks and the backward temporaries."""
        dtype = np.dtype(dtype)
        key = (cfg, lead, T, train, dtype)
        views = self._views.get(key)
        if views is None:
            views = {}
            for name, shape in _buffer_shapes(cfg, lead, T, train).items():
                n = math.prod(shape)
                flat = self._flat.get(name)
                if flat is None or flat.dtype != dtype or flat.size < n:
                    flat = self._flat[name] = np.empty(n, dtype)
                    self._views.clear()
                views[name] = flat[:n].reshape(shape)
            self._views[key] = views
        return views


def _buffer_shapes(cfg: ModelConfig, lead: tuple[int, ...], T: int,
                   train: bool) -> dict[str, tuple[int, ...]]:
    """The workspace buffers one call uses. Per-frame activations carry the
    leading checkpoint axes; the T x T attention matrix is one checkpoint's,
    and the backward temporaries are unstacked."""
    h, a, C = cfg.hidden_dim, cfg.attention_dim, cfg.num_classes
    h1, h2 = cfg.head_dims
    r = lead + (T,)
    shapes = {"pre_enc": r + (h,), "H": r + (h,),
              "Z1": r + (h1,), "L1": r + (h1,), "inv1": r + (1,),
              "D1": r + (h1,), "Z2": r + (h2,), "L2": r + (h2,),
              "inv2": r + (1,), "D2": r + (h2,), "Z": r + (C,)}
    attention = cfg.temporal_mode == ATTENTION
    if attention:
        shapes.update(N=r + (h,), xhat_a=r + (h,), inv_a=r + (1,),
                      Qm=r + (a,), Km=r + (a,), Vm=r + (a,), A=(T, T),
                      ctx=r + (a,), Hp=r + (h,))
    if train:
        shapes.update(mask1=r + (h1,), mask2=r + (h2,),
                      dZ=(T, C), dD2=(T, h2), tmp2=(T, h2),
                      dD1=(T, h1), tmp1=(T, h1), dHp=(T, h))
        if attention:
            shapes.update(dctx=(T, a), dA=(T, T), tmpA=(min(T, _ROW_BLOCK), T),
                          rowsumA=(T, 1), dVm=(T, a), dQm=(T, a), dKm=(T, a),
                          dN=(T, h), tmp_h=(T, h))
    return shapes


def _affine(x: np.ndarray, W: np.ndarray, b: np.ndarray | None = None,
            out: np.ndarray | None = None):
    """x @ W.T (+ b) per frame row, into `out` when given; W and b may carry
    leading checkpoint axes (matmul broadcasts, one gemm per checkpoint)."""
    y = np.matmul(x, W.swapaxes(-1, -2), out=out)
    if b is not None:
        y += b[..., None, :]
    return y


def _layernorm(x: np.ndarray, g: np.ndarray, b: np.ndarray,
               y: np.ndarray | None = None, xhat: np.ndarray | None = None,
               inv_std: np.ndarray | None = None):
    """(y, xhat, inv_std) of a LayerNorm over the last axis, written into the
    given buffers (xhat may be x itself) or into new arrays."""
    # sum/n and square(x - mu).sum/n are the exact operations np.mean and
    # np.var perform, so the centred x is computed once and reused for xhat.
    if y is None:
        y, xhat = np.empty_like(x), np.empty_like(x)
        inv_std = np.empty(x.shape[:-1] + (1,))
    n = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True, out=inv_std)
    mu /= n
    np.subtract(x, mu, out=xhat)
    var = np.add.reduce(np.square(xhat, out=y), -1, keepdims=True, out=inv_std)
    var /= n
    var += LN_EPS
    np.sqrt(var, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    if not np.logical_and.reduce(inv_std, axis=None):  # overflow: NaN, not 0
        inv_std[inv_std == 0] = np.nan
    xhat *= inv_std
    np.multiply(xhat, g[..., None, :], out=y)
    y += b[..., None, :]
    return y, xhat, inv_std


def _layernorm_backward(dy, xhat, inv_std, g, dx=None, tmp=None, dg=None,
                        db=None):
    """(dx, dg, db) of a LayerNorm into the given buffers, dx and tmp shaped
    like dy (dx may be dy itself), or into new arrays."""
    n = xhat.shape[1]
    tmp = np.multiply(dy, xhat, out=tmp)
    dg = np.add.reduce(tmp, axis=0, out=dg)
    db = np.add.reduce(dy, axis=0, out=db)
    dxhat = np.multiply(dy, g, out=dx)
    np.multiply(dxhat, xhat, out=tmp)
    m2 = np.add.reduce(tmp, axis=1, keepdims=True) / n
    dxhat -= np.add.reduce(dxhat, axis=1, keepdims=True) / n
    np.multiply(xhat, m2, out=tmp)
    dxhat -= tmp
    dxhat *= inv_std
    return dxhat, dg, db


def _by_rows(ufunc, z: np.ndarray, col: np.ndarray) -> np.ndarray:
    """ufunc(z, col, out=z), col (..., R, 1); rows of _UNBUFFERED_MIN or more
    with a ufunc buffer of _SMALL_BUFFER, in the same error state."""
    if z.shape[-1] < _UNBUFFERED_MIN or _extobj_contextvar is None:
        return ufunc(z, col, out=z)
    token = _extobj_contextvar.set(_make_extobj(bufsize=_SMALL_BUFFER))
    try:
        return ufunc(z, col, out=z)
    finally:
        _extobj_contextvar.reset(token)


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis computed in place: overwrites z and
    returns it. From _CHAIN_ROWS rows a column the row max chains np.maximum
    over the columns: exact in any order, up to a zero max's sign (which
    exp(z - max) loses) or which of several NaN payloads a row yields."""
    n = z.shape[-1]
    if not n or z.size < _CHAIN_ROWS * n * n:
        m = np.maximum.reduce(z, axis=-1, keepdims=True)
    else:
        m = np.maximum(z[..., :1], z[..., -1:])
        for k in range(1, n - 1):
            np.maximum(m, z[..., k:k + 1], out=m)
    _by_rows(np.subtract, z, m)
    np.exp(z, out=z)
    return _by_rows(np.divide, z, np.add.reduce(z, axis=-1, keepdims=True))


def _softmax_rows_backward(A: np.ndarray, dA: np.ndarray,
                           tmp: np.ndarray | None = None,
                           rowsum: np.ndarray | None = None) -> np.ndarray:
    """Gradient through a row softmax A, R x n: overwrites dA with dS and
    returns it. Each whole row's sum of dA * A goes through `tmp`, of up to
    _ROW_BLOCK rows, into `rowsum`, (R, 1); new arrays when not given."""
    R, n = A.shape
    tmp = np.empty((min(R, _ROW_BLOCK), n)) if tmp is None else tmp
    rowsum = np.empty((R, 1)) if rowsum is None else rowsum
    for i in range(0, R, _ROW_BLOCK):
        j = min(i + _ROW_BLOCK, R)
        np.add.reduce(np.multiply(dA[i:j], A[i:j], out=tmp[:j - i]),
                      axis=1, keepdims=True, out=rowsum[i:j])
    _by_rows(np.subtract, dA, rowsum)
    dA *= A
    return dA


def _dropout(R: np.ndarray, rate: float, rng: np.random.Generator | None,
             mask: np.ndarray) -> None:
    """Inverted dropout of R in place; the mask (1/(1 - rate) where kept,
    else 0) is drawn into the buffer `mask`."""
    if rng is None:
        raise ConfigError("train-mode forward with dropout requires an rng")
    rng.random(out=mask)
    np.greater_equal(mask, rate, out=mask)
    mask *= 1.0 / (1.0 - rate)  # x * fl(1/d) == fl(x/d) for x in {0, 1}
    R *= mask


def forward(params: dict[str, np.ndarray], cfg: ModelConfig,
            frames: np.ndarray, train: bool = False,
            rng: np.random.Generator | None = None,
            ws: Workspace | None = None) -> np.ndarray:
    """Run the classifier over a full sequence: the per-frame probabilities
    (..., T, C), rows on the simplex.

    Eval mode is a pure function of (params, frames); train mode consumes
    `rng` for the two dropout masks.

    Every parameter tensor may carry the same leading checkpoint axes, e.g.
    shape (E, h, d) for `enc.W`: the result then holds one (T, C) probability
    matrix per checkpoint, `probs` of shape (E, T, C), each equal bit for bit
    to a forward with that checkpoint alone (per-frame layers broadcast one
    gemm per checkpoint; the T x T attention core loops over the checkpoints,
    so only one score matrix is alive at a time). `backward` and train mode
    take unstacked parameters.

    The call computes in the dtype of the parameters, and the frames are
    cast to it (float64 frames under float64 parameters are used as they
    are). A frame value beyond the range of that dtype, such as |x| > 3.4e38
    under float32 checkpoints, becomes inf and raises NumericError.

    The result and every activation live in `ws` (see Workspace), a fresh
    one when not given.
    """
    W = params["enc.W"]
    X = np.asarray(frames, dtype=W.dtype)
    if X.ndim != 2 or X.shape[1] != cfg.feature_dim:
        raise ConfigError(
            f"frames shape {X.shape} incompatible with feature_dim {cfg.feature_dim}")
    if X.shape[0] < 1:
        raise ConfigError("need at least one frame")
    if not np.logical_and.reduce(np.isfinite(X), axis=None):
        raise NumericError(f"non-finite values in input frames as {X.dtype}")
    buf = (ws or Workspace()).buffers(cfg, W.shape[:-2], X.shape[0], train,
                                      W.dtype)
    H = _encode(params, X, buf)
    if cfg.temporal_mode == ATTENTION:
        H = _attend(params, cfg, H, buf)
    return _head(params, cfg, H, train, rng, buf)


# The three stages of forward(). Each writes its activations into the
# workspace views `buf`, where backward reads them.


def _encode(p: dict, X: np.ndarray, buf: dict) -> np.ndarray:
    pre_enc = _affine(X, p["enc.W"], p["enc.b"], buf["pre_enc"])
    return np.maximum(pre_enc, 0.0, out=buf["H"])


def _attend(p: dict, cfg: ModelConfig, H0: np.ndarray,
            buf: dict) -> np.ndarray:
    T = H0.shape[-2]
    U = H0  # backward needs H0 no more: U = H0 + PE overwrites it
    U += sinusoidal_encoding(T, cfg.hidden_dim, U.dtype)
    N, _, _ = _layernorm(U, p["attn.ln_g"], p["attn.ln_b"],
                         buf["N"], buf["xhat_a"], buf["inv_a"])
    Qm = _affine(N, p["attn.Wq"], out=buf["Qm"])
    Km = _affine(N, p["attn.Wk"], out=buf["Km"])
    Vm = _affine(N, p["attn.Wv"], out=buf["Vm"])
    # a Python float, so that it multiplies a float32 call in float32
    scale = 1.0 / math.sqrt(cfg.attention_dim)
    A, ctx = buf["A"], buf["ctx"]
    for i in product(*map(range, Qm.shape[:-2])):  # one (): unstacked
        np.matmul(Qm[i], Km[i].T, out=A)
        A *= scale
        _softmax_rows(A)
        np.matmul(A, Vm[i], out=ctx[i])
    Hp = _affine(ctx, p["attn.Wo"], out=buf["Hp"])
    Hp += U  # the residual; IEEE addition commutes, so this is U + Hp
    return Hp


def _head(p: dict, cfg: ModelConfig, Hp: np.ndarray, train: bool,
          rng: np.random.Generator | None, buf: dict) -> np.ndarray:
    r1, r2 = cfg.dropout_rates if train else (0.0, 0.0)
    Z1 = _affine(Hp, p["head.W1"], p["head.b1"], buf["Z1"])
    _layernorm(Z1, p["head.ln1_g"], p["head.ln1_b"], buf["L1"], Z1,
               buf["inv1"])
    D1 = np.maximum(buf["L1"], 0.0, out=buf["D1"])
    if r1 > 0:
        _dropout(D1, r1, rng, buf["mask1"])
    Z2 = _affine(D1, p["head.W2"], p["head.b2"], buf["Z2"])
    _layernorm(Z2, p["head.ln2_g"], p["head.ln2_b"], buf["L2"], Z2,
               buf["inv2"])
    D2 = np.maximum(buf["L2"], 0.0, out=buf["D2"])
    if r2 > 0:
        _dropout(D2, r2, rng, buf["mask2"])
    return _softmax_rows(_affine(D2, p["head.W3"], p["head.b3"], buf["Z"]))


def per_frame_losses(probs: np.ndarray, labels: np.ndarray,
                     alpha: np.ndarray) -> np.ndarray:
    """Weighted CE of every frame in float64; `probs` (..., T, C), of any
    float dtype, gives (..., T). The log is taken in float64, so float32
    probabilities are rounded only once. With leading axes the result need
    not be C-contiguous."""
    labels = np.asarray(labels)
    idx = np.arange(len(labels))
    p = np.maximum(probs[..., idx, labels], PROB_FLOOR, dtype=np.float64)
    return np.asarray(alpha)[labels] * (-np.log(p))


def backward(params: dict[str, np.ndarray], cfg: ModelConfig,
             frames: np.ndarray, labels: np.ndarray, alpha: np.ndarray,
             train: bool = False, rng: np.random.Generator | None = None,
             ws: Workspace | None = None,
             out: dict[str, np.ndarray] | None = None
             ) -> tuple[float, dict[str, np.ndarray]]:
    """Mean weighted CE over the sequence plus exact gradients.

    With train-mode dropout the gradients are exact for the realized masks
    (same rng stream as the paired forward). Activations and temporaries
    live in `ws` (a fresh workspace when not given); the gradients go into
    `out` (name -> float64 array), else into new arrays.
    """
    ws = ws or Workspace()
    probs = forward(params, cfg, frames, train=train, rng=rng, ws=ws)
    p = params
    X = np.asarray(frames, dtype=p["enc.W"].dtype)
    labels = np.asarray(labels, dtype=np.int64)
    T = len(labels)
    if T != X.shape[0]:
        raise ConfigError("labels length does not match frames")
    # forward's views (its dtype: no buffer is replaced) plus temporaries
    buf = ws.buffers(cfg, (), T, True, X.dtype)
    r1, r2 = cfg.dropout_rates if train else (0.0, 0.0)
    alpha = np.asarray(alpha, dtype=np.float64)
    losses = per_frame_losses(probs, labels, alpha)
    loss = float(np.add.reduce(losses) / T)  # the operations of np.mean
    grads = out if out is not None else {
        k: np.empty(shape) for k, shape in param_shapes(cfg).items()}

    # softmax + weighted CE: dZ[t] = alpha[y_t]/T * (p_t - onehot(y_t))
    w = alpha[labels][:, None] / T
    dZ = np.multiply(probs, w, out=buf["dZ"])
    dZ[np.arange(T), labels] -= w[:, 0]

    np.matmul(dZ.T, buf["D2"], out=grads["head.W3"])
    np.add.reduce(dZ, axis=0, out=grads["head.b3"])
    dL2 = np.matmul(dZ, p["head.W3"], out=buf["dD2"])
    if r2 > 0:
        dL2 *= buf["mask2"]
    dL2 *= buf["L2"] > 0
    dZ2, _, _ = _layernorm_backward(
        dL2, buf["Z2"], buf["inv2"], p["head.ln2_g"], dL2, buf["tmp2"],
        grads["head.ln2_g"], grads["head.ln2_b"])
    np.matmul(dZ2.T, buf["D1"], out=grads["head.W2"])
    np.add.reduce(dZ2, axis=0, out=grads["head.b2"])
    dL1 = np.matmul(dZ2, p["head.W2"], out=buf["dD1"])
    if r1 > 0:
        dL1 *= buf["mask1"]
    dL1 *= buf["L1"] > 0
    dZ1, _, _ = _layernorm_backward(
        dL1, buf["Z1"], buf["inv1"], p["head.ln1_g"], dL1, buf["tmp1"],
        grads["head.ln1_g"], grads["head.ln1_b"])
    attention = cfg.temporal_mode == ATTENTION
    np.matmul(dZ1.T, buf["Hp" if attention else "H"], out=grads["head.W1"])
    np.add.reduce(dZ1, axis=0, out=grads["head.b1"])
    dHp = np.matmul(dZ1, p["head.W1"], out=buf["dHp"])

    if attention:
        np.matmul(dHp.T, buf["ctx"], out=grads["attn.Wo"])
        dctx = np.matmul(dHp, p["attn.Wo"], out=buf["dctx"])
        dA = np.matmul(dctx, buf["Vm"].T, out=buf["dA"])
        dVm = np.matmul(buf["A"].T, dctx, out=buf["dVm"])
        dS = _softmax_rows_backward(buf["A"], dA, buf["tmpA"], buf["rowsumA"])
        scale = 1.0 / math.sqrt(cfg.attention_dim)  # forward's
        dQm = np.matmul(dS, buf["Km"], out=buf["dQm"])
        dQm *= scale
        dKm = np.matmul(dS.T, buf["Qm"], out=buf["dKm"])
        dKm *= scale
        np.matmul(dQm.T, buf["N"], out=grads["attn.Wq"])
        np.matmul(dKm.T, buf["N"], out=grads["attn.Wk"])
        np.matmul(dVm.T, buf["N"], out=grads["attn.Wv"])
        dN, tmp = buf["dN"], buf["tmp_h"]
        np.matmul(dQm, p["attn.Wq"], out=dN)
        dN += np.matmul(dKm, p["attn.Wk"], out=tmp)
        dN += np.matmul(dVm, p["attn.Wv"], out=tmp)
        dU, _, _ = _layernorm_backward(
            dN, buf["xhat_a"], buf["inv_a"], p["attn.ln_g"], dN, tmp,
            grads["attn.ln_g"], grads["attn.ln_b"])
        dU += dHp          # residual + LN path
        dpre = dU          # positional encoding is constant
    else:
        dpre = dHp
    dpre *= buf["pre_enc"] > 0
    np.matmul(dpre.T, X, out=grads["enc.W"])
    np.add.reduce(dpre, axis=0, out=grads["enc.b"])
    return loss, grads
