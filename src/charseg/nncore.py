"""Seedable float64 neural primitives with hand-derived backward passes.

Everything here is deterministic given (parameters, input, seed) and
runs at 64-bit precision. Parameters live in small dataclasses of numpy
arrays (in a model, views of one parameter vector); each forward function
returns a cache consumed by its backward counterpart. A backward function
takes a second container of the parameters' class and writes the weight
gradients into its arrays, so a model can hand it views of one gradient
vector laid out like its parameters. fork_join runs two independent
halves of inference work at once, one of them on a worker thread.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BadRate, NonFiniteGradient, ShapeMismatch

Array = np.ndarray


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
    """A cached pass: rows in packed order (see _packing), but X's in input order."""

    X: Array        # (N, d) inputs
    A: Array        # (N, 4h) gate activations i, f, g, o side by side
    H_prev: Array   # (N, h) hidden state entering each row's step
    C_prev: Array   # (N, h) cell state entering each row's step
    C: Array        # (N, h) cell state after each row's step
    order: Array    # (N,) input row of each packed row
    sizes: Array    # rows of each step


def _packing(lengths) -> tuple[Array, Array]:
    """Time-major order of sequences stored one after another: packed row
    r is flat row order[r], and step t covers sizes[t] rows, longest
    sequences first, so the sequences still running are a prefix."""
    lengths = np.asarray(lengths)
    by_len = np.argsort(-lengths, kind="stable")
    running = np.arange(lengths.max(initial=0))[:, None] < lengths[by_len]  # step t runs by_len[j]
    order = ((np.cumsum(lengths) - lengths)[by_len] + np.arange(len(running))[:, None])[running]
    return order, running.sum(axis=1)


# a BiLSTM's directions share one step loop while their two W fit in this many
# bytes; past half of a 2 MiB L2 it ran slower (25% faster at h=64, 15% slower at 200)
STACK_BYTES = 1 << 20

# inference works on about this many rows at once where a whole pass would
# scale with text length: LSTM gate inputs (see _lstm_passes), the dense layer and
# rows of attention
BLOCK_ROWS = 256


def block_end(lo: int, n: int) -> int:
    """The end of the row block that starts at row lo of n: an equal share of
    the rows left, split into as many blocks as hold BLOCK_ROWS rows (one if
    none do). Blocks so taken from row 0 tile the n rows, each of at least
    BLOCK_ROWS rows (all n if fewer) and fewer than 2 BLOCK_ROWS, so no rows
    are left over for a short last block."""
    left = n - lo
    return lo + left // max(1, left // BLOCK_ROWS)


def gate_table_fits(n_rows: int, n_distinct: int, width: int, gate_width: int) -> bool:
    """Whether an inference pass takes its gate inputs once per distinct row: that table
    (at least BLOCK_ROWS rows) and the distinct rows take no more memory than all rows."""
    return max(n_distinct, BLOCK_ROWS) * gate_width + n_distinct * width <= n_rows * width


def _lstm_passes(dirs: list[LstmParams], X: Array, cache: bool, lengths: list[int] | None,
                 buffers: dict | None = None, out: list[Array] | None = None,
                 index: Array | None = None, fork: Callable | None = None) -> tuple[list[Array], list[LstmCache]]:
    """The cell of dirs[0] over X and of dirs[1], if given, over X reversed,
    each from the zero state:

    input gate   i = sigmoid(W_i h + U_i x + b_i)
    forget gate  f = sigmoid(W_f h + U_f x + b_f)
    candidate    g = tanh   (W_c h + U_c x + b_c)
    output gate  o = sigmoid(W_o h + U_o x + b_o)
    cell         c' = f * c + i * g
    hidden       h' = o * tanh(c')

    with W_i the first h rows of W and so on; a step adds W h, U x and b
    in this order. X holds sequences of the given lengths (one by default)
    one after another, run together time-major (see _packing); direction d
    writes its states to out[d], an (N, h) array (or view) in its input's
    row order. Training (cache True) takes every product as one GEMV per
    row and keeps every state: the first step's zero states, then each
    step's rows after the last step's. Inference keeps the running ones,
    takes each sigmoid as 1/2 + tanh(z/2)/2 and the products as GEMMs (it
    may round differently), fills a copy of W.T, the i, f and o columns
    halved, into one buffer kept in buffers, and takes the gate inputs
    X @ U.T + b, scaled, one chunk of whole steps at a time (up to the
    first that reaches block_end), from that chunk's rows of X alone: its
    memory beyond X and out does not grow. A chunk's product spans at least
    BLOCK_ROWS rows (all N if fewer), ending at its last: OpenBLAS rounds a
    product of a few rows differently, and every row keeps the bits of one
    product over all rows. Only a last chunk that whole steps leave short
    takes its product over rows before it. Given an index (inference
    only), X holds distinct rows and input row k is X[index[k]]; where
    gate_table_fits, one product (zero rows padding it to BLOCK_ROWS) takes
    the gate inputs of X's rows (X itself, if it has BLOCK_ROWS rows), and
    each chunk gathers whole steps up to the first that reaches BLOCK_ROWS
    // 4 rows from that table (a gather takes no product). Directions that
    run as passes of their own run through fork(forward, backward) where it
    is given (inference, with out), each filling its own copy of W.T: the
    backward's buffers are buffers["bwd"]. One sequence needs no packing."""
    N, h, D = X.shape[0] if index is None else len(index), dirs[0].hidden_dim, len(dirs)
    lengths = [N] if lengths is None else lengths
    if D == 2 and 2 * dirs[0].W.nbytes > STACK_BYTES:
        rev = (X[::-1], None) if index is None else (X, index[::-1])
        if fork is not None:
            buffers = {} if buffers is None else buffers
            bwd = buffers.setdefault("bwd", {})  # here: the two halves then write to dicts of their own
            fork(lambda: _lstm_passes(dirs[:1], X, cache, lengths, buffers, out[:1], index),
                 lambda: _lstm_passes(dirs[1:], rev[0], cache, lengths[::-1], bwd, out[1:], rev[1]))
            return out, []
        (H_f,), caches_f = _lstm_passes(dirs[:1], X, cache, lengths, buffers, out and out[:1], index)
        (H_b,), caches_b = _lstm_passes(dirs[1:], rev[0], cache, lengths[::-1], buffers, out and out[1:], rev[1])
        return [H_f, H_b], caches_f + caches_b
    if X.ndim != 2 or X.shape[1] != dirs[0].input_dim or sum(lengths) != N:
        raise ShapeMismatch(f"bilstm_forward: X {X.shape} for lengths {lengths} and input width {dirs[0].input_dim}")
    Xs = [X, X[::-1]][:D]
    one = len(lengths) == 1  # packed order is the input's: no row moves
    packs = ([(np.arange(N), np.ones(N, dtype=np.int64))] * D if one
             else [_packing(ls) for ls in (lengths, lengths[::-1])[:D]])  # the same sizes
    moved = [slice(None) if one else order for order, _ in packs]  # packed rows of Xs[d] and out[d]
    sizes = packs[0][1].tolist()
    n_max = max(sizes, default=1)  # the number of sequences
    b = np.stack([p.b for p in dirs])
    if cache:
        A, first = np.empty((N, D, 4 * h)), 0
        W = dirs[0].W[None] if D == 1 else np.stack([p.W for p in dirs])
        for d, p in enumerate(dirs):
            x = Xs[d][moved[d], :, None]  # packed rows; an h-row block of U stays in cache across them
            for k in range(4):
                np.matmul(p.U[k * h : (k + 1) * h], x, out=A[:, d, k * h : (k + 1) * h, None])
    else:  # the i, f and o pre-activations halved (exact), b added once
        s, shift = np.repeat([[0.5, 0.5, 1.0, 0.5], [0.5, 0.5, 0.0, 0.5]], h, axis=1)
        buffers = {} if buffers is None else buffers
        size, flat = D * h * 4 * h, buffers.get("W_T")
        if flat is None or flat.size < size:  # one buffer that every pass refills
            flat = buffers["W_T"] = np.empty(size)
        W_T = flat[:size].reshape(D, h, 4 * h)  # (n x h) @ (h x 4h) runs 2-3x faster with W.T contiguous
        for d, p in enumerate(dirs):
            np.multiply(p.W.T, s, out=W_T[d])
        ix = np.arange(N) if index is None else index
        src = [(ix, ix[::-1])[d][order] for d, (order, _) in enumerate(packs)]  # X's row of each packed row
        T = None  # the gate inputs of X's rows, where they fit
        if index is not None and gate_table_fits(N, len(X), X.shape[1], D * 4 * h):
            Xp = X if len(X) >= BLOCK_ROWS else np.concatenate([X, np.zeros((BLOCK_ROWS - len(X), X.shape[1]))])
            T = np.empty((len(Xp), D, 4 * h))
            for d, p in enumerate(dirs):
                np.matmul(Xp, p.U.T, out=T[:, d])
            T += b
            T *= s
            del Xp
        ends, chunks, lo = np.cumsum(sizes), [], 0  # ends[t]: row after step t
        while lo < N:  # (the product's first row, the chunk's first row, the row after it)
            hi = int(ends[np.searchsorted(ends, block_end(lo, N) if T is None else min(lo + BLOCK_ROWS // 4, N))])
            chunks.append((max(0, min(lo, hi - BLOCK_ROWS)) if T is None else lo, lo, hi))
            lo = hi
        A = np.empty((max((hi - a for a, _, hi in chunks), default=0), D, 4 * h))
        chunks = iter(chunks)

        def fill() -> tuple[int, int]:
            """Gate inputs of the next chunk into A; returns the packed rows A
            starts at and the row after the chunk."""
            a, lo, hi = next(chunks)
            if T is not None:
                for d in range(D):
                    np.take(T[:, d], src[d][lo:hi], axis=0, out=A[: hi - lo, d], mode="clip")
                return lo, hi
            for d, p in enumerate(dirs):
                np.matmul(X[src[d][a:hi]], p.U.T, out=A[: hi - a, d])
            A[lo - a : hi - a] += b
            A[lo - a : hi - a] *= s
            return a, hi

        # A holds packed rows [first, hi); filling the first chunk here frees its
        # gathered rows of X before the states below are allocated
        first, hi = fill() if N else (0, 0)
    HS, CS = np.zeros((2, N + n_max if cache else n_max, D, h))
    out = out or [np.empty((N, h)) for _ in range(D)]
    rec, tanh_g, ig = np.empty((n_max, D, 4 * h)), np.empty((n_max, D, h)), np.empty((n_max, D, h))
    i, f, g, o = (slice(k * h, (k + 1) * h) for k in range(4))
    enter = [n_max, *sizes][:-1]  # step t's n rows enter from the first n of the m rows before
    for lo, n, m in zip(itertools.accumulate(sizes, initial=0), sizes, enter):
        if not cache and lo == hi:
            first, hi = fill()
        a = A[lo - first : lo - first + n]
        e = lo + n_max  # in training, the row of the step's first state
        p, q = (slice(e - m, e - m + n), slice(e, e + n)) if cache else (slice(0, n), slice(0, n))
        r, tg, c = rec[:n], tanh_g[:n], CS[q]
        if cache:  # a GEMV per row and direction
            np.matmul(W, HS[p, :, :, None], out=r[..., None])
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
            for d in range(D):  # packed row r is row order[r]
                out[d][packs[d][0][lo : lo + n]] = HS[q, d]
    # in training, the state each row enters from: the row n_max before its own while every step holds n_max
    prev = slice(0, N) if sizes[-1] == n_max else np.arange(N) + n_max - np.repeat(enter, sizes)
    for d in range(D if cache else 0):
        out[d][moved[d]] = HS[n_max:, d]
    return out, [LstmCache(Xs[d], A[:, d], HS[prev, d], CS[prev, d], CS[n_max:, d], order, sizes)
                 for d, (order, sizes) in enumerate(packs if cache else [])]


def bilstm_forward(fwd: LstmParams, bwd: LstmParams | None, X: Array, cache: bool = True,
                   lengths: list[int] | None = None, buffers: dict | None = None,
                   index: Array | None = None, fork: Callable | None = None) -> tuple[Array, list[LstmCache] | None]:
    """Left-to-right and right-to-left passes, output row t = [h_fwd_t ; h_bwd_t]
    (h_fwd_t alone without bwd), over the sequences of lengths that X holds
    (one by default), and with cache one LstmCache per direction, the
    backward's computed over X reversed. Each direction writes its states
    into its half of Y, the backward's as rows of Y[::-1]. Given an index
    or a fork (inference only), input row t is X[index[t]] and directions
    with passes of their own run as fork(forward, backward) (see _lstm_passes)."""
    dirs, h = [p for p in (fwd, bwd) if p is not None], fwd.hidden_dim
    Y = np.empty((X.shape[0] if index is None else len(index), len(dirs) * h))
    _, caches = _lstm_passes(dirs, X, cache, lengths, buffers, [Y[:, :h], Y[::-1, h:]][: len(dirs)], index, fork)
    return Y, caches if cache else None


def bilstm_backward(fwd: LstmParams, bwd: LstmParams | None, caches: list[LstmCache], dY: Array,
                    grads_f: LstmParams, grads_b: LstmParams | None) -> Array:
    """Backprop through bilstm_forward, over the sequences it ran: writes the
    weights' gradients into grads_f (and grads_b), returns X's. The steps run
    packed, dH (N, directions, h) in packed order; then each sequence takes
    its own gradients, the weights' added in X's order."""
    dirs, grads = [p for p in (fwd, bwd) if p is not None], [grads_f, grads_b]
    N, h = caches[0].C.shape
    sizes = caches[0].sizes.tolist()
    one = sizes[0] == 1  # one sequence, in its own row order
    dH = np.stack([y if one else y[c.order] for y, c in zip((dY[:, :h], dY[::-1, h:]), caches)], axis=1)  # packed
    steps = list(zip(itertools.accumulate(sizes, initial=0), sizes))[::-1]
    bounds = list(itertools.pairwise([*np.sort(caches[0].order[: sizes[0]]).tolist(), N]))  # sequences' rows in X
    dXs = []
    for ds in [slice(0, 1), slice(1, 2)] if len(dirs) == 2 and 2 * dirs[0].W.nbytes > STACK_BYTES else [slice(0, 2)]:
        cs, W = caches[ds], [p.W for p in dirs[ds]]
        D = len(cs)
        A = np.stack([c.A for c in cs], axis=1).reshape(N, D, 4, h)  # gates i, f, g, o
        tanh_C = np.tanh(np.stack([c.C for c in cs], axis=1))
        dtanh_C = 1.0 - tanh_C * tanh_C
        # step t's gate gradients are ((S * P[t]) * Q[t]) * R[t] with S = [dc,
        # dc, dc, dh]: each gate's product taken left to right, 1.0 exact for g
        P = np.stack([A[:, :, 2], np.stack([c.C_prev for c in cs], axis=1), A[:, :, 0], tanh_C], axis=2)
        Q, R = A, 1.0 - A
        R[:, :, 2] = 1.0 - A[:, :, 2] * A[:, :, 2]
        Q[:, :, 2] = 1.0
        # one product per gate and row, summed in gate order (one for all rounds differently)
        W_T = (W[0][None] if D == 1 else np.stack(W)).reshape(D, 4, h, h).transpose(0, 1, 3, 2)
        dP, dH_ = np.empty((N, D, 4, h)), dH[:, ds]
        S, WdP = np.empty((sizes[0], D, 4, h)), np.empty((sizes[0], D, 4, h, 1))
        carry_dh, carry_dc = np.zeros((2, sizes[0], D, h))  # rows past a step's stay zero before it
        m = 0
        for lo, n in steps:
            if n != m:  # views of the buffers' first n rows, kept while the steps hold n rows
                s, c_dh, c_dc, w, m = S[:n], carry_dh[:n], carry_dc[:n], WdP[:n], n
                dh, dc, dcs, c_dhs = s[:, :, 3], s[:, :, 0], s[:, :, 0, None], c_dh[..., None]
            t = slice(lo, lo + n)
            q = Q[t]
            np.add(dH_[t], c_dh, out=dh)
            np.multiply(dh, q[:, :, 3], out=dc)
            dc *= dtanh_C[t]
            dc += c_dc
            s[:, :, 1:3] = dcs
            d = np.multiply(s, P[t], out=dP[t])
            d *= q
            d *= R[t]
            np.matmul(W_T, d[..., None], out=w)
            w.sum(axis=2, out=c_dhs)
            np.multiply(dc, q[:, :, 1], out=c_dc)
        del A, Q, R, P, q, tanh_C, dtanh_C  # the gradients read dP only
        for j, (p, c, g) in enumerate(zip(dirs[ds], cs, grads[ds])):
            flat = slice(None) if one else np.argsort(c.order)  # the packed row of each input row
            # a product with one column (h = 1) rounds by its stride: H_prev goes in contiguous
            dPk, H_prev = dP[flat, j].reshape(N, 4 * h), np.ascontiguousarray(c.H_prev[flat])
            dX = np.empty((N, p.input_dim))
            for seq, (lo, hi) in enumerate(bounds):  # direction 1 holds them reversed
                rows = slice(lo, hi) if ds.start + j == 0 else slice(N - hi, N - lo)
                dPs, out = dPk[rows], [None] * 3 if seq else [g.W, g.U, g.b]
                parts = (np.matmul(dPs.T, H_prev[rows], out=out[0]), np.matmul(dPs.T, c.X[rows], out=out[1]),
                         np.sum(dPs, axis=0, out=out[2]))
                for total, part in zip((g.W, g.U, g.b), parts if seq else ()):  # the first's are written
                    total += part
                np.matmul(dPs[:, :h], p.U[:h], out=dX[rows])  # the gate blocks' products added in order
                for k in range(1, 4):
                    dX[rows] += dPs[:, k * h : (k + 1) * h] @ p.U[k * h : (k + 1) * h]
            dXs.append(dX)
        del dP, dPk, H_prev  # a split pass holds one direction's arrays at a time
    return dXs[0] + dXs[1][::-1] if bwd else dXs[0]


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

def variational_dropout(X: Array, rate: float, rng: np.random.Generator | None) -> tuple[Array, Array | None]:
    """One Bernoulli(1-rate)/(1-rate) mask of width d, reused at every timestep.

    Returns (output, mask); mask is None without an rng or at rate 0.
    The mask multiplies gradients on the way back, so callers keep it.
    """
    if not (0.0 <= rate < 1.0):
        raise BadRate(f"dropout rate {rate} outside [0, 1)")
    if rng is None or rate == 0.0:
        return X, None
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


# ---------------------------------------------------------------------------
# fork/join: independent halves of inference work on one worker thread
# ---------------------------------------------------------------------------

def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


_pool = None  # the worker thread's ThreadPoolExecutor, once this process has started it
_pool_lock = threading.Lock()
_on_worker = threading.local()


def _forget_worker() -> None:
    """In a forked child, which has no worker thread: the next fork_join starts its own."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def fork_join(first: Callable[[], object], second: Callable[[], object]) -> bool:
    """Run first on this thread and second on the one worker thread, in a copy
    of this thread's contextvars context (where numpy's errstate lives), and
    return or raise only once both have ended: first's error, else second's.
    Where fewer than two CPUs are usable, and on the worker itself, they run
    in turn, so work on the worker never waits for it. Concurrent callers
    share the worker, which runs their halves one after another. Returns
    whether second ran on the worker."""
    global _pool
    if usable_cpus() < 2 or getattr(_on_worker, "yes", False):
        first()
        second()
        return False
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor  # here: a process without the worker skips ~0.5 MB

            _pool = ThreadPoolExecutor(1, "charseg-worker", setattr, (_on_worker, "yes", True))
        half = _pool.submit(contextvars.copy_context().run, second)
    try:
        first()
    finally:
        half.exception()  # waits for the worker's half to end
    half.result()
    return True
