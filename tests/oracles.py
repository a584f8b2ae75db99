"""Reference implementations that the tests check the package against.

``lstm_cell`` is one LSTM update written gate by gate from the equations
in ``nncore.lstm_forward``, using ``sigmoid_masked``, the logistic function
that ``nncore.sigmoid`` must match bit for bit; ``attention_weights`` is
the softmax that ``nncore.self_attention`` must match bit for bit;
``brute_force_paths`` enumerates every tag path of a CRF instance;
``grad_check`` compares analytic gradients with central finite
differences, tensor by tensor, over dicts that ``named`` (one parameter
container) or ``Model.views`` (a whole model) build.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from charseg.crf import ConstraintMask, CrfParams, _masked
from charseg.errors import CharsegError, NoAllowedPath
from charseg.nncore import LstmParams, softmax

Array = np.ndarray

NEG_INF = -np.inf


class InstanceTooLarge(CharsegError):
    """Brute-force enumeration refused: too many paths."""


def sigmoid_masked(x: Array) -> Array:
    """The logistic function split by sign with boolean masks, so exp never
    overflows."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def lstm_cell(params: LstmParams, h: Array, c: Array, x: Array) -> tuple[Array, Array]:
    """One cell update from state (h, c) on input x; returns (h', c').
    Gate k's weights are rows [k*h, (k+1)*h) of the stacked W, U and b."""
    n = params.hidden_dim
    W_i, W_f, W_c, W_o = (params.W[k * n : (k + 1) * n] for k in range(4))
    U_i, U_f, U_c, U_o = (params.U[k * n : (k + 1) * n] for k in range(4))
    b_i, b_f, b_c, b_o = (params.b[k * n : (k + 1) * n] for k in range(4))
    i = sigmoid_masked(W_i @ h + U_i @ x + b_i)
    f = sigmoid_masked(W_f @ h + U_f @ x + b_f)
    g = np.tanh(W_c @ h + U_c @ x + b_c)
    o = sigmoid_masked(W_o @ h + U_o @ x + b_o)
    c = f * c + i * g
    return o * np.tanh(c), c


def attention_weights(Q: Array, K: Array) -> Array:
    """softmax(Q K^T / sqrt(d)) over rows, as one expression: the bits
    that ``nncore.self_attention``'s in-place steps must keep."""
    return softmax((Q @ K.T) / np.sqrt(Q.shape[1]), axis=-1)


def brute_force_paths(
    emissions: Array,
    params: CrfParams,
    mask: ConstraintMask | None = None,
    max_paths: int = 10_000_000,
) -> tuple[np.ndarray, float, float]:
    """Exhaustive enumeration oracle: (best path, best score, log partition).

    Scores accumulate in the same term order as the dynamic programs so
    structurally tied paths compare bit-identically. Among equal-score
    paths the winner is the one lexicographically smallest from the end,
    matching viterbi_decode's backpointer rule.
    """
    emis, start, trans, end = _masked(emissions, params, mask)
    L, K = emis.shape
    n_paths = K ** L
    if n_paths > max_paths:
        raise InstanceTooLarge(f"{K}^{L} = {n_paths} paths exceeds {max_paths}")

    best_score = NEG_INF
    best_path: np.ndarray | None = None
    log_z_blocks: list[float] = []
    block = 1 << 18
    for lo in range(0, n_paths, block):
        idx = np.arange(lo, min(lo + block, n_paths), dtype=np.int64)
        digits = np.empty((idx.size, L), dtype=np.int64)
        rem = idx.copy()
        for t in range(L - 1, -1, -1):
            digits[:, t] = rem % K
            rem //= K
        scores = start[digits[:, 0]] + emis[0, digits[:, 0]]
        for t in range(1, L):
            scores = scores + trans[digits[:, t - 1], digits[:, t]]
            scores = scores + emis[t, digits[:, t]]
        scores = scores + end[digits[:, L - 1]]
        finite = scores[np.isfinite(scores)]
        if finite.size:
            m = float(np.max(finite))
            log_z_blocks.append(m + np.log(np.sum(np.exp(finite - m))))
        block_max = float(np.max(scores)) if scores.size else NEG_INF
        if np.isfinite(block_max) and block_max >= best_score:
            tied = digits[scores == block_max]
            cand = min(tuple(row[::-1]) for row in tied)
            cand_path = np.array(cand[::-1], dtype=np.int64)
            if block_max > best_score or (
                best_path is not None and tuple(cand_path[::-1]) < tuple(best_path[::-1])
            ):
                best_score = block_max
                best_path = cand_path
    if best_path is None:
        raise NoAllowedPath("constraint mask leaves no complete path")
    arr = np.array(log_z_blocks)
    m = float(np.max(arr))
    log_z = m + float(np.log(np.sum(np.exp(arr - m))))
    return best_path, best_score, log_z


def named(params, prefix: str = "") -> dict[str, Array]:
    """A parameter container's arrays by field name, in field order."""
    return {prefix + f.name: getattr(params, f.name) for f in dataclasses.fields(params)}


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
    perturbs them in place) and be deterministic across calls. Coordinates
    are drawn tensor by tensor in ``params`` order. Relative error uses a
    floor of 1e-4 in the denominator so finite-difference noise on
    near-zero coordinates cannot fail the check.
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
