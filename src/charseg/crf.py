"""Linear-chain CRF over the five boundary tags.

Path score = start[y_1] + sum_t emissions[t, y_t] + sum_{t>=2} trans[y_{t-1}, y_t].
The log-partition runs the forward recursion in the log domain; the loss
gradient is expected feature counts minus gold counts from forward-backward
marginals; decoding is max-product with backpointers. A hard constraint
mask (log-domain 0/-inf addends) can restrict start/end tags, transitions,
and per-position tags; it is for decoding only: training runs
unconstrained, while decoding applies the boundary-grammar mask.

Tie-breaking for equal-score paths is fixed: the decoder picks the lowest
tag index at the final position and at every backpointer, which selects
the path that is lexicographically smallest when read from the end.

All functions are pure given their inputs and safe to call concurrently
across sentences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import TAGS
from .errors import LengthMismatch, NoAllowedPath
from .nncore import logsumexp

Array = np.ndarray

NEG_INF = -np.inf


@dataclass
class CrfParams:
    """Tag transition matrix (row = previous tag, column = next tag) and a
    start-score vector for the first position."""

    transitions: Array  # (K, K)
    start: Array        # (K,)


@dataclass
class ConstraintMask:
    """Log-domain addends: 0 keeps an entry, -inf forbids it."""

    start: Array       # (K,)
    end: Array         # (K,)
    transitions: Array # (K, K)
    positions: Array   # (L, K)


def _addends(*allowed: str) -> Array:
    """One read-only row per string: 0.0 at the tags it names, -inf elsewhere."""
    out = np.where([[t in names for t in TAGS] for names in allowed], 0.0, NEG_INF)
    out.flags.writeable = False
    return out


# the boundary grammar's fixed parts, built once and shared by every mask:
# the allowed first and last tags, the tags allowed at a whitespace and at
# any other position, and the tags allowed after B, I, E, S and X (X->X
# keeps a legal path through adjacent whitespace)
_START, _END, _WS_ROW, _CHAR_ROW = _addends("BSX", "ESX", "X", "BIES")
_TRANSITIONS = _addends("IE", "IE", "BSX", "BSX", "BSX")


def grammar_mask(whitespace: list[bool] | np.ndarray) -> ConstraintMask:
    """Boundary-grammar constraints for a sentence.

    Whitespace positions are forced to X, other positions must not be X,
    and only transitions consistent with ``(X | S | B I* E)*`` survive.
    The start, end and transition addends are shared read-only arrays.
    """
    ws = np.asarray(whitespace, dtype=bool).reshape(-1, 1)
    return ConstraintMask(_START, _END, _TRANSITIONS, np.where(ws, _WS_ROW, _CHAR_ROW))


def _masked(emissions: Array, params: CrfParams, mask: ConstraintMask | None):
    """Apply the mask addends; returns (emissions', start', trans', end')."""
    if mask is None:
        return emissions, params.start, params.transitions, np.zeros(emissions.shape[1])
    return (
        emissions + mask.positions,
        params.start + mask.start,
        params.transitions + mask.transitions,
        mask.end,
    )


def _path_score(emis: Array, tags: np.ndarray, start: Array, trans: Array) -> np.float64:
    """Start, emission and transition terms of one path, summed left to right."""
    L = emis.shape[0]
    if len(tags) != L:
        raise LengthMismatch(f"{L} emission rows vs {len(tags)} tags")
    score = start[tags[0]] + emis[0, tags[0]]
    for t in range(1, L):
        score = score + trans[tags[t - 1], tags[t]] + emis[t, tags[t]]
    return score


def _forward(emis: Array, start: Array, trans: Array) -> tuple[Array, float]:
    """Log-domain forward recursion: the (L, K) alpha table and log Z."""
    L, K = emis.shape
    alpha = np.empty((L, K))
    alpha[0] = start + emis[0]
    x = np.empty((K, K))
    with np.errstate(divide="ignore"):
        for t in range(1, L):
            logsumexp(np.add(alpha[t - 1][:, None], trans, out=x), axis=0, out=alpha[t])
            alpha[t] += emis[t]
    return alpha, float(logsumexp(alpha[L - 1], axis=0))


@dataclass
class CrfGrads:
    emissions: Array
    transitions: Array
    start: Array


def nll_loss(emissions: Array, gold: np.ndarray, params: CrfParams) -> tuple[float, CrfGrads]:
    """Negative log-likelihood of the gold path and its analytic gradients.

    Gradients are expected feature counts minus gold counts, from
    forward-backward marginals. A loss or gradient that is not finite, from
    inputs that are not or that overflow, is the caller's numeric failure.
    """
    emis, start, trans = emissions, params.start, params.transitions
    L, K = emis.shape
    gold_score = _path_score(emis, gold, start, trans)
    alpha, log_z = _forward(emis, start, trans)

    beta = np.empty((L, K))
    beta[L - 1] = 0.0
    x, v = np.empty((K, K)), np.empty(K)
    with np.errstate(divide="ignore"):
        for t in range(L - 2, -1, -1):
            logsumexp(np.add(trans, np.add(emis[t + 1], beta[t + 1], out=v), out=x), axis=1, out=beta[t])

    with np.errstate(invalid="ignore"):
        gamma = np.exp(alpha + beta - log_z)  # exp(-inf) = 0 where a -inf score forbids
    d_emissions = gamma.copy()
    d_emissions[np.arange(L), gold] -= 1.0

    # every step's pair marginals from one exp, summed in the stepwise order
    pairs = np.exp(alpha[:-1, :, None] + trans + (emis[1:] + beta[1:])[:, None, :] - log_z)
    d_trans = np.zeros((K, K))
    for t in range(1, L):
        d_trans += pairs[t - 1]
        d_trans[gold[t - 1], gold[t]] -= 1.0

    d_start = gamma[0].copy()
    d_start[gold[0]] -= 1.0

    loss = log_z - float(gold_score)
    return loss, CrfGrads(emissions=d_emissions, transitions=d_trans, start=d_start)


def viterbi_decode(
    emissions: Array, params: CrfParams, mask: ConstraintMask | None = None
) -> tuple[np.ndarray, float]:
    """Highest-scoring tag path via max-product dynamic programming."""
    emis, start, trans, end = _masked(emissions, params, mask)
    L, K = emis.shape
    delta = start + emis[0]
    backptr = np.zeros((L, K), dtype=np.int64)
    cand = np.empty((K, K))  # (prev, next)
    for t in range(1, L):
        np.add(delta[:, None], trans, out=cand)
        cand.argmax(axis=0, out=backptr[t])  # first max = lowest tag index
        cand.max(axis=0, out=delta)  # the value at that index, -inf and NaN too
        delta += emis[t]
    final = delta + end
    best_last = int(np.argmax(final))
    best_score = float(final[best_last])
    if not np.isfinite(best_score):
        raise NoAllowedPath("constraint mask leaves no complete path")
    path, ptrs = [best_last], backptr.tolist()
    for t in range(L - 1, 0, -1):
        path.append(ptrs[t][path[-1]])
    return np.array(path[::-1], dtype=np.int64), best_score
