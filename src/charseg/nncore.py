"""Seedable float64 neural primitives with hand-derived backward passes.

Everything here is deterministic given (parameters, input, seed, mode) and
runs at 64-bit precision. Parameters live in small dataclasses of numpy
arrays (in a model, views of one parameter vector); each forward function
returns a cache consumed by its backward counterpart. A backward function
takes a second container of the parameters' class and writes the weight
gradients into its arrays, so a model can hand it views of one gradient
vector laid out like its parameters.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from .errors import BadRate, NonFiniteGradient, ShapeMismatch

Array = np.ndarray
P = TypeVar("P")


# ---------------------------------------------------------------------------
# elementwise / reductions
# ---------------------------------------------------------------------------

def sigmoid(x: Array, out: Array | None = None) -> Array:
    # e = exp(-|x|) never overflows; max(e, sign(x)) is 1 where x >= 0 and
    # e elsewhere: the same bits as splitting by sign
    e = np.exp(np.copysign(x, -1.0))
    out = np.maximum(e, np.sign(x), out=out)
    e += 1.0
    return np.divide(out, e, out=out)


def logsumexp(x: Array, axis: int = -1, out: Array | None = None) -> Array:
    """Stable log(sum(exp(x))) with max subtraction; -inf rows stay -inf. Given
    out (the same bits), x is overwritten and the caller ignores log 0 errors."""
    m = x.max(axis=axis, keepdims=True)
    np.copyto(m, 0.0, where=~np.isfinite(m))
    if out is None:
        with np.errstate(divide="ignore"):
            return np.log(np.exp(x - m).sum(axis=axis)) + m.squeeze(axis=axis)
    np.exp(np.subtract(x, m, out=x), out=x)
    return np.add(np.log(x.sum(axis=axis, out=out), out=out), m.squeeze(axis=axis), out=out)


def softmax(x: Array, axis: int = -1) -> Array:
    m = np.max(x, axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(x: Array, axis: int = -1) -> Array:
    return x - np.expand_dims(logsumexp(x, axis=axis), axis)


def zeros_like(params: P) -> P:
    """A container of params' class holding zero arrays of the same shapes."""
    return type(params)(**{f.name: np.zeros_like(getattr(params, f.name)) for f in dataclasses.fields(params)})


# ---------------------------------------------------------------------------
# LSTM cell and sequence
# ---------------------------------------------------------------------------

@dataclass
class LstmParams:
    """One direction's LSTM weights, the gates stacked in the order i, f,
    c, o: block k of rows [k*h, (k+1)*h) belongs to gate k.

    ``W`` acts on the previous hidden state (4h x h), ``U`` on the current
    input (4h x input_dim), ``b`` holds the gate biases (4h). A model
    starts the forget bias at 1.0 so early cells do not vanish.
    """

    W: Array
    U: Array
    b: Array

    @property
    def hidden_dim(self) -> int:
        return self.W.shape[1]

    @property
    def input_dim(self) -> int:
        return self.U.shape[1]


@dataclass
class LstmCache:
    X: Array        # (L, d) inputs
    A: Array        # (L, 4h) gate activations i, f, g, o side by side
    H_prev: Array   # (L, h) hidden state entering each step
    C_prev: Array   # (L, h) cell state entering each step
    H: Array        # (L, h) hidden state after each step
    C: Array        # (L, h) cell state after each step


def _packing(lengths) -> tuple[Array, list[int]]:
    """Time-major order of sequences stored one after another: packed row
    r is flat row order[r], and step t covers sizes[t] rows, longest
    sequences first, so the sequences still running are a prefix."""
    lengths = np.asarray(lengths)
    by_len = np.argsort(-lengths, kind="stable")
    starts = (np.cumsum(lengths) - lengths)[by_len]
    sizes = np.count_nonzero(lengths[:, None] > np.arange(lengths.max()), axis=0).tolist()
    return np.concatenate([starts[:n] + t for t, n in enumerate(sizes)]), sizes


def lstm_forward(params: LstmParams, X: Array, cache: bool = True, lengths: list[int] | None = None,
                 buffers: dict | None = None) -> tuple[Array, LstmCache | None]:
    """Run the cell over the rows of X from the zero state. Returns hidden
    states (L, h) and the cache for backprop.

    input gate   i = sigmoid(W_i h + U_i x + b_i)
    forget gate  f = sigmoid(W_f h + U_f x + b_f)
    candidate    g = tanh   (W_c h + U_c x + b_c)
    output gate  o = sigmoid(W_o h + U_o x + b_o)
    cell         c' = f * c + i * g
    hidden       h' = o * tanh(c')

    with W_i the first h rows of W and so on; a step adds W h, U x and b
    in this order. The products U x come first: in training one GEMV per
    gate block and row (the bits of U x per step), in inference (cache
    False) one X @ U.T GEMM, which may round differently. Inference may
    pass lengths of sequences X holds one after another, run together
    time-major (see _packing); H comes back in X's row order. It takes each
    sigmoid as 1/2 + tanh(z/2)/2, one tanh per step (see _lstm_passes)."""
    (H,), caches = _lstm_passes([params], X, cache, lengths, buffers)
    return H, caches[0] if cache else None


# a BiLSTM's directions share one step loop while their two W fit in this many
# bytes; past half of a 2 MiB L2 it ran slower (25% faster at h=64, 15% slower at 200)
STACK_BYTES = 1 << 20


def _lstm_passes(dirs: list[LstmParams], X: Array, cache: bool, lengths: list[int] | None,
                 buffers: dict | None = None) -> tuple[list[Array], list[LstmCache]]:
    """lstm_forward of dirs[0] over X and of dirs[1], if given, over X reversed.
    Inference fills a copy of W.T, the i, f and o columns halved, into a
    buffer it keeps in buffers by shape, so later passes allocate none."""
    N, h, D = X.shape[0], dirs[0].hidden_dim, len(dirs)
    if D == 2 and 2 * dirs[0].W.nbytes > STACK_BYTES:
        (H_f,), caches_f = _lstm_passes(dirs[:1], X, cache, lengths, buffers)
        (H_b,), caches_b = _lstm_passes(dirs[1:], X[::-1], cache, lengths and lengths[::-1], buffers)
        return [H_f, H_b], caches_f + caches_b
    if X.ndim != 2 or X.shape[1] != dirs[0].input_dim:
        raise ShapeMismatch(f"lstm_forward: X {X.shape}, expected (L, {dirs[0].input_dim})")
    Xs = [X, X[::-1]][:D]
    packs = None if lengths is None or len(lengths) < 2 else [_packing(lengths), _packing(lengths[::-1])][:D]
    if packs is not None and (cache or len(packs[0][0]) != N):
        raise ShapeMismatch(f"lstm_forward: lengths {lengths} for {N} rows, cache {cache}")
    sizes = [1] * N if packs is None else packs[0][1]
    A = np.empty((N, D, 4 * h))
    for d, p in enumerate(dirs):
        if cache:  # an h-row block of U stays in cache across the rows
            for k in range(4):
                np.matmul(p.U[k * h : (k + 1) * h], Xs[d][:, :, None], out=A[:, d, k * h : (k + 1) * h, None])
        else:
            np.matmul(Xs[d] if packs is None else Xs[d][packs[d][0]], p.U.T, out=A[:, d])
    b = np.stack([p.b for p in dirs])
    if not cache:  # the i, f and o pre-activations halved (exact), b added once
        s, shift = np.repeat([[0.5, 0.5, 1.0, 0.5], [0.5, 0.5, 0.0, 0.5]], h, axis=1)
        key, buffers = (D, h), {} if buffers is None else buffers
        if key not in buffers:  # (n x h) @ (h x 4h) runs 2-3x faster with W.T contiguous
            buffers[key] = np.empty((D, h, 4 * h))
        W_T = buffers[key]
        for d, p in enumerate(dirs):
            np.multiply(p.W.T, s, out=W_T[d])
        A += b
        A *= s
    W = (dirs[0].W[None] if D == 1 else np.stack([p.W for p in dirs])) if cache else W_T.transpose(0, 2, 1)
    # training keeps every state (row t enters step t), inference the running ones
    n_max = max(sizes, default=1)
    HS, CS = np.zeros((2, N + 1 if cache else n_max, D, h))
    H = HS[1:] if cache else np.empty((N, D, h))
    rec, tanh_g, ig = np.empty((n_max, D, 4 * h)), np.empty((n_max, D, h)), np.empty((n_max, D, h))
    i, f, g, o = (slice(k * h, (k + 1) * h) for k in range(4))
    for lo, n in zip(np.cumsum([0] + sizes).tolist(), sizes):
        p, q = (slice(lo, lo + 1), slice(lo + 1, lo + 2)) if cache else (slice(0, n), slice(0, n))
        a, r, tg, c = A[lo : lo + n], rec[:n], tanh_g[:n], CS[q]
        if n == 1:
            np.matmul(W, HS[p.start, :, :, None], out=r[0, :, :, None])
        else:
            np.matmul(HS[p].transpose(1, 0, 2), W_T, out=r.transpose(1, 0, 2))
        a += r
        if cache:
            a += b
            np.tanh(a[..., g], out=tg)
            sigmoid(a, out=a)
            a[..., g] = tg
        else:
            np.tanh(a, out=a)
            a *= s
            a += shift
        np.multiply(a[..., f], CS[p], out=c)
        c += np.multiply(a[..., i], a[..., g], out=ig[:n])
        np.tanh(c, out=HS[q])
        HS[q] *= a[..., o]
        if not cache:
            H[lo : lo + n] = HS[q]
    for d in range(D if packs else 0):  # packed row r back to row order[r]
        H[packs[d][0], d] = H[:, d].copy()
    caches = [LstmCache(Xs[d], A[:, d], HS[:-1, d], CS[:-1, d], H[:, d], CS[1:, d]) for d in range(D if cache else 0)]
    return [H[:, d] for d in range(D)], caches


def lstm_backward(params: LstmParams, cache: LstmCache, dH: Array, grads: LstmParams) -> Array:
    """Backprop through lstm_forward, dH holding the gradients on its hidden
    states: writes the weight gradients into grads, returns the input's."""
    return _lstm_backprop([params], [cache], dH[:, None], [grads])[0]


def _lstm_backprop(dirs: list[LstmParams], caches: list[LstmCache], dH: Array,
                   grads: list[LstmParams]) -> list[Array]:
    """lstm_backward of each of _lstm_passes' directions, dH (L, directions, h)."""
    D, (L, h) = len(dirs), caches[0].H.shape
    if D == 2 and 2 * dirs[0].W.nbytes > STACK_BYTES:
        return [_lstm_backprop([p], [c], dH[:, k : k + 1], [g])[0]
                for k, (p, c, g) in enumerate(zip(dirs, caches, grads))]
    A = np.stack([c.A for c in caches], axis=1).reshape(L, D, 4, h)  # gates i, f, g, o
    tanh_C = np.tanh(np.stack([c.C for c in caches], axis=1))
    dtanh_C = 1.0 - tanh_C * tanh_C
    # step t's gate gradients are ((S * P[t]) * Q[t]) * R[t] with S = [dc,
    # dc, dc, dh]: each gate's product taken left to right, 1.0 exact for g
    P = np.stack([A[:, :, 2], np.stack([c.C_prev for c in caches], axis=1), A[:, :, 0], tanh_C], axis=2)
    Q, R = A, 1.0 - A
    R[:, :, 2] = 1.0 - A[:, :, 2] * A[:, :, 2]
    Q[:, :, 2] = 1.0
    # one product per gate, summed in gate order (one for all rounds differently)
    W_T = (dirs[0].W[None] if D == 1 else np.stack([p.W for p in dirs])).reshape(D, 4, h, h).transpose(0, 1, 3, 2)
    dP, S, WdP = np.empty((L, D, 4, h)), np.empty((D, 4, h)), np.empty((D, 4, h, 1))
    carry_dh, carry_dc = np.zeros((2, D, h))
    for t in range(L - 1, -1, -1):
        dh, dc = S[:, 3], S[:, 0]
        np.add(dH[t], carry_dh, out=dh)
        np.multiply(dh, Q[t, :, 3], out=dc)
        dc *= dtanh_C[t]
        dc += carry_dc
        S[:, 1:3] = dc[:, None]
        d = np.multiply(S, P[t], out=dP[t])
        d *= Q[t]
        d *= R[t]
        np.matmul(W_T, d[..., None], out=WdP)
        WdP.sum(axis=1, out=carry_dh[..., None])
        np.multiply(dc, Q[t, :, 1], out=carry_dc)
    dXs = []
    for k, (p, c, g) in enumerate(zip(dirs, caches, grads)):
        dPk = dP[:, k].reshape(L, 4 * h)
        np.matmul(dPk.T, c.H_prev, out=g.W)
        np.matmul(dPk.T, c.X, out=g.U)
        np.sum(dPk, axis=0, out=g.b)
        dXs.append(functools.reduce(np.add, (dPk[:, j * h : (j + 1) * h] @ p.U[j * h : (j + 1) * h] for j in range(4))))
    return dXs


# ---------------------------------------------------------------------------
# BiLSTM layer
# ---------------------------------------------------------------------------

@dataclass
class BiLstmCache:
    fwd: LstmCache
    bwd: LstmCache  # computed over the reversed sequence


def bilstm_forward(fwd: LstmParams, bwd: LstmParams, X: Array, cache: bool = True,
                   lengths: list[int] | None = None, buffers: dict | None = None) -> tuple[Array, BiLstmCache | None]:
    """Left-to-right and right-to-left passes, output row t = [h_fwd_t ; h_bwd_t];
    with lengths (inference), over each of the sequences X holds."""
    if X.shape[0] < 1:
        raise ShapeMismatch("bilstm_forward: empty sequence")
    (H_f, H_b_rev), caches = _lstm_passes([fwd, bwd], X, cache, lengths, buffers)
    return np.hstack([H_f, H_b_rev[::-1]]), BiLstmCache(*caches) if cache else None


def bilstm_backward(
    fwd: LstmParams, bwd: LstmParams, cache: BiLstmCache, dY: Array, grads_f: LstmParams, grads_b: LstmParams
) -> Array:
    dH = np.stack([dY[:, : fwd.hidden_dim], dY[::-1, fwd.hidden_dim :]], axis=1)
    dX_f, dX_b_rev = _lstm_backprop([fwd, bwd], [cache.fwd, cache.bwd], dH, [grads_f, grads_b])
    return dX_f + dX_b_rev[::-1]


# ---------------------------------------------------------------------------
# dense projection
# ---------------------------------------------------------------------------

@dataclass
class DenseParams:
    W: Array  # (d_in, d_out)
    b: Array  # (d_out,)


@dataclass
class DenseCache:
    X: Array
    Y: Array
    activation: str | None


def dense_forward(params: DenseParams, X: Array, activation: str | None = None) -> tuple[Array, DenseCache]:
    if X.shape[1] != params.W.shape[0]:
        raise ShapeMismatch(f"dense_forward: X {X.shape} vs W {params.W.shape}")
    Y = X @ params.W + params.b
    if activation == "tanh":
        Y = np.tanh(Y)
    elif activation is not None:
        raise ValueError(f"unknown activation {activation!r}")
    return Y, DenseCache(X=X, Y=Y, activation=activation)


def dense_backward(params: DenseParams, cache: DenseCache, dY: Array, grads: DenseParams) -> Array:
    if cache.activation == "tanh":
        dY = dY * (1.0 - cache.Y * cache.Y)
    np.matmul(cache.X.T, dY, out=grads.W)
    np.sum(dY, axis=0, out=grads.b)
    return dY @ params.W.T


# ---------------------------------------------------------------------------
# single-head scaled dot-product self-attention with residual connection
# ---------------------------------------------------------------------------

@dataclass
class AttentionParams:
    W_q: Array
    W_k: Array
    W_v: Array
    W_o: Array


@dataclass
class AttentionCache:
    Y: Array
    Q: Array
    K: Array
    V: Array
    A: Array     # (L, L) row-stochastic attention weights
    Ctx: Array   # A @ V


def attention_weights(Q: Array, K: Array) -> Array:
    """softmax(Q K^T / sqrt(d)) step by step in one L x L array, the same bits."""
    A = Q @ K.T
    A /= np.sqrt(Q.shape[1])
    A -= np.max(A, axis=-1, keepdims=True)
    np.exp(A, out=A)
    A /= np.sum(A, axis=-1, keepdims=True)
    return A


def self_attention(params: AttentionParams, Y: Array) -> tuple[Array, AttentionCache]:
    """Z = (softmax(Q K^T / sqrt(d)) V) W_o + Y, all projections of Y."""
    L, d = Y.shape
    if params.W_q.shape != (d, d):
        raise ShapeMismatch(f"self_attention: input width {d} vs W_q {params.W_q.shape}")
    Q = Y @ params.W_q
    K = Y @ params.W_k
    V = Y @ params.W_v
    A = attention_weights(Q, K)
    Ctx = A @ V
    Z = Ctx @ params.W_o + Y
    return Z, AttentionCache(Y=Y, Q=Q, K=K, V=V, A=A, Ctx=Ctx)


def self_attention_backward(
    params: AttentionParams, cache: AttentionCache, dZ: Array, grads: AttentionParams
) -> Array:
    d = cache.Y.shape[1]
    scale = 1.0 / np.sqrt(d)
    dCtx = dZ @ params.W_o.T
    dA = dCtx @ cache.V.T
    dV = cache.A.T @ dCtx
    # softmax rows: dS = A * (dA - sum(dA * A, rows))
    dS = cache.A * (dA - np.sum(dA * cache.A, axis=1, keepdims=True))
    dQ = dS @ cache.K * scale
    dK = dS.T @ cache.Q * scale
    np.matmul(cache.Y.T, dQ, out=grads.W_q)
    np.matmul(cache.Y.T, dK, out=grads.W_k)
    np.matmul(cache.Y.T, dV, out=grads.W_v)
    np.matmul(cache.Ctx.T, dZ, out=grads.W_o)
    return dZ + dQ @ params.W_q.T + dK @ params.W_k.T + dV @ params.W_v.T


# ---------------------------------------------------------------------------
# variational dropout
# ---------------------------------------------------------------------------

def variational_dropout(
    X: Array, rate: float, mode: str, rng: np.random.Generator | int | None = None
) -> tuple[Array, Array | None]:
    """One Bernoulli(1-rate)/(1-rate) mask of width d, reused at every timestep.

    Returns (output, mask); mask is None in inference mode or at rate 0.
    The mask multiplies gradients on the way back, so callers keep it.
    """
    if not (0.0 <= rate < 1.0):
        raise BadRate(f"dropout rate {rate} outside [0, 1)")
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval" or rate == 0.0:
        return X, None
    if rng is None:
        raise ValueError("train-mode dropout needs an rng or seed")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    keep = (rng.random(X.shape[1]) >= rate).astype(np.float64) / (1.0 - rate)
    return X * keep, keep


# ---------------------------------------------------------------------------
# gradient clipping and Adamax
# ---------------------------------------------------------------------------

def global_norm(grads: dict[str, Array]) -> float:
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    return float(np.sqrt(total))


def clip_global_norm(grads: dict[str, Array], threshold: float = 5.0) -> tuple[dict[str, Array], float]:
    """Scale all gradients by threshold/norm when the global L2 norm exceeds it."""
    if threshold <= 0:
        raise ValueError("clip threshold must be positive")
    norm = global_norm(grads)
    if not np.isfinite(norm):
        raise NonFiniteGradient(f"global gradient norm is {norm}")
    if norm > threshold:
        scale = threshold / norm
        for g in grads.values():
            g *= scale
    return grads, norm


# Adamax constants (Kingma & Ba, arXiv:1412.6980); the update runs over
# blocks of this many parameters so its temporaries stay in cache
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
ADAMAX_BLOCK = 32768


@dataclass
class AdamaxState:
    """First-moment and infinity-norm accumulators, laid out like the
    parameter vector."""

    m: Array
    u: Array
    lr: float = 0.025
    step: int = 0

    @classmethod
    def init(cls, params: Array, lr: float = 0.025) -> "AdamaxState":
        return cls(m=np.zeros_like(params), u=np.zeros_like(params), lr=lr)


def adamax_step(state: AdamaxState, params: Array, grads: Array) -> Array:
    """In-place update of the parameter vector.

    m <- b1 m + (1-b1) g;  u <- max(b2 u, |g|);  p <- p - lr/(1-b1^t) * m/(u+eps)
    """
    if not (params.shape == grads.shape == state.m.shape):
        raise ShapeMismatch(f"adamax_step: params {params.shape}, grads {grads.shape}, state {state.m.shape}")
    state.step += 1
    rate = state.lr / (1.0 - BETA1 ** state.step)
    t1 = np.empty(min(ADAMAX_BLOCK, params.size))
    t2 = np.empty_like(t1)
    for lo in range(0, params.size, ADAMAX_BLOCK):
        blk = slice(lo, lo + ADAMAX_BLOCK)
        p, g, m, u = params[blk], grads[blk], state.m[blk], state.u[blk]
        a, b = t1[: p.size], t2[: p.size]
        m *= BETA1
        np.multiply(g, 1.0 - BETA1, out=a)
        m += a
        u *= BETA2
        np.maximum(u, np.abs(g, out=a), out=u)
        np.multiply(m, rate, out=a)
        np.add(u, EPS, out=b)
        a /= b
        p -= a
    return params
