"""Seedable float64 neural primitives with hand-derived backward passes.

Everything here is deterministic given (parameters, input, seed, mode) and
runs at 64-bit precision. Parameters live in small dataclasses of plain
numpy arrays; each forward function returns a cache consumed by its
backward counterpart. Gradients are returned as dicts keyed like the
owning container's ``tensors()`` view so the optimizer and the gradient
checker can treat every layer uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BadRate, NonFiniteGradient, ShapeMismatch

Array = np.ndarray


# ---------------------------------------------------------------------------
# elementwise / reductions
# ---------------------------------------------------------------------------

def sigmoid(x: Array) -> Array:
    # split by sign so exp never overflows
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def logsumexp(x: Array, axis: int = -1) -> Array:
    """Stable log(sum(exp(x))) with max subtraction; -inf rows stay -inf."""
    m = np.max(x, axis=axis, keepdims=True)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(x - m_safe), axis=axis)) + np.squeeze(m_safe, axis=axis)
    return out


def softmax(x: Array, axis: int = -1) -> Array:
    m = np.max(x, axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(x: Array, axis: int = -1) -> Array:
    return x - np.expand_dims(logsumexp(x, axis=axis), axis)


def uniform_init(rng: np.random.Generator, *shape: int, scale: float = 0.1) -> Array:
    return rng.uniform(-scale, scale, size=shape)


# ---------------------------------------------------------------------------
# LSTM cell and sequence
# ---------------------------------------------------------------------------

GATE_NAMES = ("i", "f", "c", "o")


@dataclass
class LstmParams:
    """One direction's LSTM weights.

    ``W_*`` act on the previous hidden state (hidden x hidden), ``U_*`` on
    the current input (hidden x input_dim), ``b_*`` are gate biases. The
    forget bias starts at 1.0 so early cells do not vanish.
    """

    W_i: Array
    W_f: Array
    W_c: Array
    W_o: Array
    U_i: Array
    U_f: Array
    U_c: Array
    U_o: Array
    b_i: Array
    b_f: Array
    b_c: Array
    b_o: Array

    @classmethod
    def init(cls, input_dim: int, hidden_dim: int, rng: np.random.Generator) -> "LstmParams":
        h, d = hidden_dim, input_dim
        return cls(
            W_i=uniform_init(rng, h, h),
            W_f=uniform_init(rng, h, h),
            W_c=uniform_init(rng, h, h),
            W_o=uniform_init(rng, h, h),
            U_i=uniform_init(rng, h, d),
            U_f=uniform_init(rng, h, d),
            U_c=uniform_init(rng, h, d),
            U_o=uniform_init(rng, h, d),
            b_i=np.zeros(h),
            b_f=np.ones(h),
            b_c=np.zeros(h),
            b_o=np.zeros(h),
        )

    @property
    def hidden_dim(self) -> int:
        return self.W_i.shape[0]

    @property
    def input_dim(self) -> int:
        return self.U_i.shape[1]

    def tensors(self, prefix: str = "") -> dict[str, Array]:
        out = {}
        for g in GATE_NAMES:
            out[f"{prefix}W_{g}"] = getattr(self, f"W_{g}")
        for g in GATE_NAMES:
            out[f"{prefix}U_{g}"] = getattr(self, f"U_{g}")
        for g in GATE_NAMES:
            out[f"{prefix}b_{g}"] = getattr(self, f"b_{g}")
        return out


@dataclass
class LstmCache:
    X: Array        # (L, d) inputs
    H_prev: Array   # (L, h) hidden state entering each step
    C_prev: Array   # (L, h) cell state entering each step
    I: Array
    F: Array
    G: Array
    O: Array
    C: Array        # (L, h) cell state after each step
    H: Array        # (L, h) hidden state after each step


def lstm_forward(params: LstmParams, X: Array) -> tuple[Array, LstmCache]:
    """Run the cell over the rows of X from the zero state. Returns hidden
    states (L, h).

    input gate   i = sigmoid(W_i h + U_i x + b_i)
    forget gate  f = sigmoid(W_f h + U_f x + b_f)
    candidate    g = tanh   (W_c h + U_c x + b_c)
    output gate  o = sigmoid(W_o h + U_o x + b_o)
    cell         c' = f * c + i * g
    hidden       h' = o * tanh(c')
    """
    L = X.shape[0]
    h_dim = params.hidden_dim
    if X.ndim != 2 or X.shape[1] != params.input_dim:
        raise ShapeMismatch(f"lstm_forward: X {X.shape}, expected (L, {params.input_dim})")
    H_prev = np.empty((L, h_dim))
    C_prev = np.empty((L, h_dim))
    I = np.empty((L, h_dim))
    F = np.empty((L, h_dim))
    G = np.empty((L, h_dim))
    O = np.empty((L, h_dim))
    C = np.empty((L, h_dim))
    H = np.empty((L, h_dim))
    h, c = np.zeros(h_dim), np.zeros(h_dim)
    for t in range(L):
        H_prev[t] = h
        C_prev[t] = c
        x = X[t]
        i = sigmoid(params.W_i @ h + params.U_i @ x + params.b_i)
        f = sigmoid(params.W_f @ h + params.U_f @ x + params.b_f)
        g = np.tanh(params.W_c @ h + params.U_c @ x + params.b_c)
        o = sigmoid(params.W_o @ h + params.U_o @ x + params.b_o)
        c = f * c + i * g
        h = o * np.tanh(c)
        I[t], F[t], G[t], O[t], C[t], H[t] = i, f, g, o, c, h
    return H, LstmCache(X=X, H_prev=H_prev, C_prev=C_prev, I=I, F=F, G=G, O=O, C=C, H=H)


def lstm_backward(params: LstmParams, cache: LstmCache, dH: Array) -> tuple[Array, dict[str, Array]]:
    """Backprop through lstm_forward; dH holds per-step gradients on the
    emitted hidden states."""
    L, h_dim = cache.H.shape
    tanh_C = np.tanh(cache.C)
    dPre_i = np.empty((L, h_dim))
    dPre_f = np.empty((L, h_dim))
    dPre_g = np.empty((L, h_dim))
    dPre_o = np.empty((L, h_dim))
    carry_dh = np.zeros(h_dim)
    carry_dc = np.zeros(h_dim)
    for t in range(L - 1, -1, -1):
        dh = dH[t] + carry_dh
        i, f, g, o = cache.I[t], cache.F[t], cache.G[t], cache.O[t]
        tc = tanh_C[t]
        dc = carry_dc + dh * o * (1.0 - tc * tc)
        dPre_o[t] = (dh * tc) * o * (1.0 - o)
        dPre_f[t] = (dc * cache.C_prev[t]) * f * (1.0 - f)
        dPre_i[t] = (dc * g) * i * (1.0 - i)
        dPre_g[t] = (dc * i) * (1.0 - g * g)
        carry_dh = (
            params.W_i.T @ dPre_i[t]
            + params.W_f.T @ dPre_f[t]
            + params.W_c.T @ dPre_g[t]
            + params.W_o.T @ dPre_o[t]
        )
        carry_dc = dc * f
    grads = {
        "W_i": dPre_i.T @ cache.H_prev,
        "W_f": dPre_f.T @ cache.H_prev,
        "W_c": dPre_g.T @ cache.H_prev,
        "W_o": dPre_o.T @ cache.H_prev,
        "U_i": dPre_i.T @ cache.X,
        "U_f": dPre_f.T @ cache.X,
        "U_c": dPre_g.T @ cache.X,
        "U_o": dPre_o.T @ cache.X,
        "b_i": dPre_i.sum(axis=0),
        "b_f": dPre_f.sum(axis=0),
        "b_c": dPre_g.sum(axis=0),
        "b_o": dPre_o.sum(axis=0),
    }
    dX = dPre_i @ params.U_i + dPre_f @ params.U_f + dPre_g @ params.U_c + dPre_o @ params.U_o
    return dX, grads


# ---------------------------------------------------------------------------
# BiLSTM layer
# ---------------------------------------------------------------------------

@dataclass
class BiLstmCache:
    fwd: LstmCache
    bwd: LstmCache  # computed over the reversed sequence


def bilstm_forward(fwd: LstmParams, bwd: LstmParams, X: Array) -> tuple[Array, BiLstmCache]:
    """Left-to-right and right-to-left passes, output row t = [h_fwd_t ; h_bwd_t]."""
    if X.shape[0] < 1:
        raise ShapeMismatch("bilstm_forward: empty sequence")
    H_f, cache_f = lstm_forward(fwd, X)
    H_b_rev, cache_b = lstm_forward(bwd, X[::-1])
    Y = np.hstack([H_f, H_b_rev[::-1]])
    return Y, BiLstmCache(fwd=cache_f, bwd=cache_b)


def bilstm_backward(
    fwd: LstmParams, bwd: LstmParams, cache: BiLstmCache, dY: Array
) -> tuple[Array, dict[str, Array], dict[str, Array]]:
    h = fwd.hidden_dim
    dX_f, grads_f = lstm_backward(fwd, cache.fwd, dY[:, :h])
    dX_b_rev, grads_b = lstm_backward(bwd, cache.bwd, dY[:, h:][::-1])
    return dX_f + dX_b_rev[::-1], grads_f, grads_b


# ---------------------------------------------------------------------------
# dense projection
# ---------------------------------------------------------------------------

@dataclass
class DenseParams:
    W: Array  # (d_in, d_out)
    b: Array  # (d_out,)

    @classmethod
    def init(cls, d_in: int, d_out: int, rng: np.random.Generator) -> "DenseParams":
        return cls(W=uniform_init(rng, d_in, d_out), b=np.zeros(d_out))

    def tensors(self, prefix: str = "") -> dict[str, Array]:
        return {f"{prefix}W": self.W, f"{prefix}b": self.b}


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


def dense_backward(params: DenseParams, cache: DenseCache, dY: Array) -> tuple[Array, dict[str, Array]]:
    if cache.activation == "tanh":
        dY = dY * (1.0 - cache.Y * cache.Y)
    grads = {"W": cache.X.T @ dY, "b": dY.sum(axis=0)}
    return dY @ params.W.T, grads


# ---------------------------------------------------------------------------
# single-head scaled dot-product self-attention with residual connection
# ---------------------------------------------------------------------------

@dataclass
class AttentionParams:
    W_q: Array
    W_k: Array
    W_v: Array
    W_o: Array

    @classmethod
    def init(cls, dim: int, rng: np.random.Generator) -> "AttentionParams":
        return cls(
            W_q=uniform_init(rng, dim, dim),
            W_k=uniform_init(rng, dim, dim),
            W_v=uniform_init(rng, dim, dim),
            W_o=uniform_init(rng, dim, dim),
        )

    def tensors(self, prefix: str = "") -> dict[str, Array]:
        return {
            f"{prefix}W_q": self.W_q,
            f"{prefix}W_k": self.W_k,
            f"{prefix}W_v": self.W_v,
            f"{prefix}W_o": self.W_o,
        }


@dataclass
class AttentionCache:
    Y: Array
    Q: Array
    K: Array
    V: Array
    A: Array     # (L, L) row-stochastic attention weights
    Ctx: Array   # A @ V


def self_attention(params: AttentionParams, Y: Array) -> tuple[Array, AttentionCache]:
    """Z = (softmax(Q K^T / sqrt(d)) V) W_o + Y, all projections of Y."""
    L, d = Y.shape
    if params.W_q.shape != (d, d):
        raise ShapeMismatch(f"self_attention: input width {d} vs W_q {params.W_q.shape}")
    Q = Y @ params.W_q
    K = Y @ params.W_k
    V = Y @ params.W_v
    scores = (Q @ K.T) / np.sqrt(d)
    A = softmax(scores, axis=-1)
    Ctx = A @ V
    Z = Ctx @ params.W_o + Y
    return Z, AttentionCache(Y=Y, Q=Q, K=K, V=V, A=A, Ctx=Ctx)


def self_attention_backward(
    params: AttentionParams, cache: AttentionCache, dZ: Array
) -> tuple[Array, dict[str, Array]]:
    d = cache.Y.shape[1]
    scale = 1.0 / np.sqrt(d)
    dCtx = dZ @ params.W_o.T
    dA = dCtx @ cache.V.T
    dV = cache.A.T @ dCtx
    # softmax rows: dS = A * (dA - sum(dA * A, rows))
    dS = cache.A * (dA - np.sum(dA * cache.A, axis=1, keepdims=True))
    dQ = dS @ cache.K * scale
    dK = dS.T @ cache.Q * scale
    dY = dZ + dQ @ params.W_q.T + dK @ params.W_k.T + dV @ params.W_v.T
    grads = {
        "W_q": cache.Y.T @ dQ,
        "W_k": cache.Y.T @ dK,
        "W_v": cache.Y.T @ dV,
        "W_o": cache.Ctx.T @ dZ,
    }
    return dY, grads


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


@dataclass
class AdamaxState:
    """First-moment and infinity-norm accumulators, one pair per parameter."""

    m: dict[str, Array]
    u: dict[str, Array]
    step: int = 0
    lr: float = 0.025
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def init(cls, params: dict[str, Array], lr: float = 0.025, beta1: float = 0.9,
             beta2: float = 0.999, eps: float = 1e-8) -> "AdamaxState":
        return cls(
            m={k: np.zeros_like(v) for k, v in params.items()},
            u={k: np.zeros_like(v) for k, v in params.items()},
            step=0, lr=lr, beta1=beta1, beta2=beta2, eps=eps,
        )


def adamax_step(state: AdamaxState, params: dict[str, Array], grads: dict[str, Array]) -> dict[str, Array]:
    """In-place parameter update.

    m <- b1 m + (1-b1) g;  u <- max(b2 u, |g|);  p <- p - lr/(1-b1^t) * m/(u+eps)
    """
    state.step += 1
    bias = 1.0 - state.beta1 ** state.step
    for name, g in grads.items():
        p = params[name]
        if p.shape != g.shape:
            raise ShapeMismatch(f"adamax_step: {name} param {p.shape} vs grad {g.shape}")
        m = state.m[name]
        u = state.u[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        np.maximum(state.beta2 * u, np.abs(g), out=u)
        p -= (state.lr / bias) * m / (u + state.eps)
    return params


# ---------------------------------------------------------------------------
# finite-difference gradient checker
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    passed: bool
    max_rel_err: float
    n_checked: int
    tolerance: float
    worst: tuple[str, int, float, float] | None  # (tensor, flat index, analytic, numeric)

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        head = f"grad_check {status}: max rel err {self.max_rel_err:.3e} over {self.n_checked} coords"
        if self.worst is not None:
            name, idx, a, n = self.worst
            head += f" (worst {name}[{idx}]: analytic {a:.6e}, numeric {n:.6e})"
        return head


def grad_check(
    loss_and_grads: Callable[[], tuple[float, dict[str, Array]]],
    params: dict[str, Array],
    n_per_tensor: int = 4,
    step: float = 1e-5,
    tolerance: float = 1e-4,
    seed: int = 0,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``loss_and_grads`` must read the arrays in ``params`` (the checker
    perturbs them in place) and be deterministic across calls. Relative
    error uses a floor of 1e-4 in the denominator so finite-difference
    noise on near-zero coordinates cannot fail the check.
    """
    rng = np.random.default_rng(seed)
    _, analytic = loss_and_grads()
    max_rel = 0.0
    worst = None
    n_checked = 0
    for name, p in params.items():
        if name not in analytic:
            continue
        flat = p.reshape(-1)
        k = min(n_per_tensor, flat.size)
        idxs = rng.choice(flat.size, size=k, replace=False)
        for idx in idxs:
            orig = flat[idx]
            flat[idx] = orig + step
            loss_plus, _ = loss_and_grads()
            flat[idx] = orig - step
            loss_minus, _ = loss_and_grads()
            flat[idx] = orig
            numeric = (loss_plus - loss_minus) / (2.0 * step)
            a = float(analytic[name].reshape(-1)[idx])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-4)
            n_checked += 1
            if rel > max_rel:
                max_rel = rel
                worst = (name, int(idx), a, float(numeric))
    return GradCheckReport(
        passed=max_rel < tolerance,
        max_rel_err=max_rel,
        n_checked=n_checked,
        tolerance=tolerance,
        worst=worst,
    )
