"""Reference implementations that the tests check the package against.

``lstm_cell`` is one LSTM update written gate by gate from the equations
in ``nncore.lstm_forward``, using ``sigmoid_masked``, the logistic function
that ``nncore.sigmoid`` must match bit for bit;
``lstm_forward_stepwise``, ``lstm_backward_stepwise`` and
``nll_loss_stepwise`` are the kernels as they were before the work that
does not depend on the recurrence left their step loops (one direction
per loop, a product with U per forward step, four products with W and
some 30 elementwise calls per backward step, one pair marginal per CRF
step): the bits the package's kernels must keep;
``tags_are_valid`` checks a tag string against the boundary grammar and
``tags_match_whitespace`` its X tags against a text's whitespace;
``extract_ngrams`` lists a token's sliding n-gram windows;
``attention_weights`` is the softmax that ``nncore.self_attention`` must
match bit for bit; ``sequence_score`` and ``log_partition`` score one
tag path and all of them; ``grammar_mask_per_position`` builds the
boundary-grammar mask position by position, the bytes ``crf.grammar_mask``
must keep; ``brute_force_paths`` enumerates every tag path of a CRF
instance; ``compose_subword`` and ``char_features`` run the token
composer and the feature pass on one token or text; ``lookup`` reads an
n-gram's id; ``parse_report`` reads a JSON-lines evaluation report back;
``uniform_init``, ``lstm_init``, ``dense_init``, ``attention_init``,
``crf_init`` and ``embedder_init`` build fresh parameter containers, each
drawing its own arrays; ``reference_parameters`` builds a model's initial
tensors by running them and naming what they return, the way models were
built before ``model._draw`` wrote the draws into the parameter vector;
``grad_check`` compares analytic
gradients with central finite differences, tensor by tensor, over dicts
that ``named`` (one parameter container) or ``Model.views`` (a whole
model) build.
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from charseg.corpus import N_TAGS, TAG_TO_ID, WHITESPACE
from charseg.crf import ConstraintMask, CrfGrads, CrfParams, _forward, _masked, _path_score
from charseg.errors import CharsegError, GoldPathForbidden, NoAllowedPath, ShapeMismatch, UninitializedEmbedder
from charseg.metrics import PRF, MetricsReport, TagCounts
from charseg.model import GATES, VARIANTS, ModelConfig
from charseg.nncore import AttentionParams, DenseParams, LstmCache, LstmParams, _packing, logsumexp, softmax
from charseg.subword import FILLER, UNK_ID, NgramVocab, SubwordEmbedder, _compose, _token_ids, char_features_cached

Array = np.ndarray

NEG_INF = -np.inf


_TAG_GRAMMAR = re.compile(r"^(X|S|BI*E)*$")


def tags_are_valid(tags: str) -> bool:
    return _TAG_GRAMMAR.match(tags) is not None


def tags_match_whitespace(text: str, tags: str) -> bool:
    if len(text) != len(tags):
        return False
    return all((tag == "X") == (ch in WHITESPACE) for ch, tag in zip(text, tags))


def extract_ngrams(token: str, n: int) -> list[str]:
    """Sliding windows of width n; a too-short token yields one padded window."""
    if not token:
        raise ValueError("empty token")
    if len(token) < n:
        return [token + FILLER * (n - len(token))]
    return [token[i : i + n] for i in range(len(token) - n + 1)]


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


def lstm_forward_stepwise(params: LstmParams, X: Array, cache: bool = True,
                 lengths: list[int] | None = None) -> tuple[Array, LstmCache | None]:
    """Run the cell over the rows of X from the zero state. Returns hidden
    states (L, h) and the cache for backprop.

    input gate   i = sigmoid(W_i h + U_i x + b_i)
    forget gate  f = sigmoid(W_f h + U_f x + b_f)
    candidate    g = tanh   (W_c h + U_c x + b_c)
    output gate  o = sigmoid(W_o h + U_o x + b_o)
    cell         c' = f * c + i * g
    hidden       h' = o * tanh(c')

    with W_i the first h rows of W and so on; one step takes one product
    with each of W and U. With cache False (inference) the cache is None
    and A starts as X @ U.T, one GEMM for every step's input product (it
    may round differently in the last bit). Inference may pass lengths:
    X then holds sequences one after another, run together time-major
    (see _packing) with one product with W per step, output in X's order.
    """
    N = X.shape[0]
    h = params.hidden_dim
    if X.ndim != 2 or X.shape[1] != params.input_dim:
        raise ShapeMismatch(f"lstm_forward: X {X.shape}, expected (L, {params.input_dim})")
    order, sizes = _packing(lengths) if lengths is not None and len(lengths) > 1 else (None, [1] * N)
    if order is not None and (cache or len(order) != N):
        raise ShapeMismatch(f"lstm_forward: lengths {lengths} for {N} rows, cache {cache}")
    A = np.empty((N, 4 * h)) if cache else X @ params.U.T
    # (n x h) @ (h x 4h) runs 2-3x faster with W.T contiguous than as a view
    W_T = None if order is None else np.ascontiguousarray(params.W.T)
    # training keeps every state (row t enters step t), inference the running ones
    HS = np.zeros((N + 1 if cache else max(sizes, default=1), h))
    CS = np.zeros_like(HS)
    H = HS[1:] if cache else np.empty((N, h))
    i, f, g, o = (slice(k * h, (k + 1) * h) for k in range(4))
    lo = 0
    for n in sizes:
        rows = slice(lo, lo + n) if order is None else order[lo : lo + n]
        p, q = (slice(lo, lo + 1), slice(lo + 1, lo + 2)) if cache else (slice(0, n), slice(0, n))
        a = A[rows]  # a view, or a batch's gathered rows
        rec = params.W @ HS[p.start] if n == 1 else HS[p] @ W_T
        pre = rec + (params.U @ X[lo] if cache else a) + params.b
        a[...] = sigmoid_masked(pre)
        a[:, g] = np.tanh(pre[..., g])
        CS[q] = a[:, f] * CS[p] + a[:, i] * a[:, g]
        HS[q] = H[rows] = a[:, o] * np.tanh(CS[q])
        lo += n
    return H, LstmCache(X=X, A=A, H_prev=HS[:-1], C_prev=CS[:-1], H=H, C=CS[1:]) if cache else None


def lstm_backward_stepwise(params: LstmParams, cache: LstmCache, dH: Array, grads: LstmParams) -> Array:
    """Backprop through lstm_forward_stepwise; dH holds per-step gradients on the
    emitted hidden states. Writes the weight gradients into grads and
    returns the input gradient."""
    L, h_dim = cache.H.shape
    tanh_C = np.tanh(cache.C)
    blocks = [slice(k * h_dim, (k + 1) * h_dim) for k in range(4)]
    # the recurrent and input products stay one per gate, summed in gate
    # order: one product over the stacked blocks rounds differently
    W_T = [params.W[blk].T for blk in blocks]
    dP = np.empty((L, 4 * h_dim))
    I, F, G, O = (cache.A[:, blk] for blk in blocks)
    dI, dF, dG, dO = (dP[:, blk] for blk in blocks)
    carry_dh = np.zeros(h_dim)
    carry_dc = np.zeros(h_dim)
    for t in range(L - 1, -1, -1):
        dh = dH[t] + carry_dh
        i, f, g, o = I[t], F[t], G[t], O[t]
        tc = tanh_C[t]
        dc = carry_dc + dh * o * (1.0 - tc * tc)
        dO[t] = (dh * tc) * o * (1.0 - o)
        dF[t] = (dc * cache.C_prev[t]) * f * (1.0 - f)
        dI[t] = (dc * g) * i * (1.0 - i)
        dG[t] = (dc * i) * (1.0 - g * g)
        carry_dh = W_T[0] @ dI[t] + W_T[1] @ dF[t] + W_T[2] @ dG[t] + W_T[3] @ dO[t]
        carry_dc = dc * f
    np.matmul(dP.T, cache.H_prev, out=grads.W)
    np.matmul(dP.T, cache.X, out=grads.U)
    np.sum(dP, axis=0, out=grads.b)
    U_i, U_f, U_c, U_o = (params.U[blk] for blk in blocks)
    return dI @ U_i + dF @ U_f + dG @ U_c + dO @ U_o


def attention_weights(Q: Array, K: Array) -> Array:
    """softmax(Q K^T / sqrt(d)) over rows, as one expression: the bits
    that ``nncore.self_attention``'s in-place steps must keep."""
    return softmax((Q @ K.T) / np.sqrt(Q.shape[1]), axis=-1)


def sequence_score(emissions: Array, tags: np.ndarray, params: CrfParams) -> float:
    """Unnormalized log score of one tag path."""
    return float(_path_score(emissions, tags, params.start, params.transitions))


def log_partition(emissions: Array, params: CrfParams, mask: ConstraintMask | None = None) -> float:
    """log sum over all (allowed) tag paths of exp(path score)."""
    _, log_z = _forward(*_masked(emissions, params, mask))
    return log_z


# allowed tag bigrams of the boundary grammar; X->X is included so inputs
# with adjacent whitespace characters always keep at least one legal path
_ALLOWED_PAIRS = [
    ("B", "I"), ("B", "E"),
    ("I", "I"), ("I", "E"),
    ("E", "B"), ("E", "S"), ("E", "X"),
    ("S", "B"), ("S", "S"), ("S", "X"),
    ("X", "B"), ("X", "S"), ("X", "X"),
]
_ALLOWED_START = ["B", "S", "X"]
_ALLOWED_END = ["E", "S", "X"]


def grammar_mask_per_position(whitespace: list[bool] | np.ndarray) -> ConstraintMask:
    """Boundary-grammar constraints for a sentence.

    Whitespace positions are forced to X, other positions must not be X,
    and only transitions consistent with ``(X | S | B I* E)*`` survive.
    """
    K = N_TAGS
    L = len(whitespace)
    start = np.zeros(K, dtype=bool)
    for t in _ALLOWED_START:
        start[TAG_TO_ID[t]] = True
    end = np.zeros(K, dtype=bool)
    for t in _ALLOWED_END:
        end[TAG_TO_ID[t]] = True
    trans = np.zeros((K, K), dtype=bool)
    for a, b in _ALLOWED_PAIRS:
        trans[TAG_TO_ID[a], TAG_TO_ID[b]] = True
    positions = np.ones((L, K), dtype=bool)
    x_id = TAG_TO_ID["X"]
    for i, ws in enumerate(whitespace):
        if ws:
            positions[i, :] = False
            positions[i, x_id] = True
        else:
            positions[i, x_id] = False
    return ConstraintMask.from_bool(start, end, trans, positions)


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


def nll_loss_stepwise(
    emissions: Array,
    gold: np.ndarray,
    params: CrfParams,
    mask: ConstraintMask | None = None,
) -> tuple[float, CrfGrads]:
    """Negative log-likelihood of the gold path and its analytic gradients.

    Gradients are expected feature counts minus gold counts, from
    forward-backward marginals. The gradient at any masked-out entry is
    exactly zero because its marginal probability is zero.
    """
    emis, start, trans, end = _masked(emissions, params, mask)
    L, K = emis.shape
    gold_score = _path_score(emis, gold, start, trans) + end[gold[L - 1]]
    if not np.isfinite(gold_score):
        raise GoldPathForbidden("gold path excluded by the constraint mask")

    alpha, log_z = _forward(emis, start, trans, end)

    beta = np.empty((L, K))
    beta[L - 1] = end
    for t in range(L - 2, -1, -1):
        beta[t] = logsumexp(trans + (emis[t + 1] + beta[t + 1])[None, :], axis=1)

    with np.errstate(invalid="ignore"):
        gamma = np.exp(alpha + beta - log_z)  # exp(-inf) = 0 at forbidden entries
    d_emissions = gamma.copy()
    d_emissions[np.arange(L), gold] -= 1.0

    d_trans = np.zeros((K, K))
    for t in range(1, L):
        pair = alpha[t - 1][:, None] + trans + (emis[t] + beta[t])[None, :] - log_z
        d_trans += np.exp(pair)
        d_trans[gold[t - 1], gold[t]] -= 1.0

    d_start = gamma[0].copy()
    d_start[gold[0]] -= 1.0

    loss = log_z - float(gold_score)
    return loss, CrfGrads(emissions=d_emissions, transitions=d_trans, start=d_start)


def uniform_init(rng: np.random.Generator, *shape: int) -> Array:
    return rng.uniform(-0.1, 0.1, size=shape)


def lstm_init(input_dim: int, hidden_dim: int, rng: np.random.Generator) -> LstmParams:
    """Fresh LSTM weights drawn W then U, the forget bias 1.0."""
    h = hidden_dim
    b = np.repeat([0.0, 1.0, 0.0, 0.0], h)  # gates i, f, c, o
    return LstmParams(W=uniform_init(rng, 4 * h, h), U=uniform_init(rng, 4 * h, input_dim), b=b)


def dense_init(d_in: int, d_out: int, rng: np.random.Generator) -> DenseParams:
    return DenseParams(W=uniform_init(rng, d_in, d_out), b=np.zeros(d_out))


def attention_init(dim: int, rng: np.random.Generator) -> AttentionParams:
    return AttentionParams(*(uniform_init(rng, dim, dim) for _ in "qkvo"))


def crf_init(n_tags: int, rng: np.random.Generator) -> CrfParams:
    return CrfParams(transitions=uniform_init(rng, n_tags, n_tags), start=uniform_init(rng, n_tags))


def embedder_init(
    vocab: NgramVocab,
    dim: int,
    rng: np.random.Generator,
    orders: tuple[int, ...] | None = None,
    use_composer: bool = True,
) -> SubwordEmbedder:
    """Fresh tables, one per order, then the composer's two directions."""
    orders = tuple(orders if orders is not None else vocab.orders)
    for n in orders:
        if n not in vocab.maps:
            raise UninitializedEmbedder(f"vocab has no order-{n} table")
    tables = {n: uniform_init(rng, vocab.size(n), dim) for n in orders}
    fwd = bwd = None
    if use_composer:
        fwd = lstm_init(len(orders) * dim, dim, rng)
        bwd = lstm_init(len(orders) * dim, dim, rng)
    return SubwordEmbedder(dim=dim, orders=orders, use_composer=use_composer, tables=tables, fwd=fwd, bwd=bwd)


def reference_parameters(config: ModelConfig, vocab: NgramVocab) -> dict[str, Array]:
    """A fresh model's tensors under their checkpoint names, in layout
    order: the initializers run embedder first from the model's seed,
    every size is taken from what they return, and the tensors are then
    named output layer first, one tensor per LSTM gate block."""
    config = config.resolve()
    rng = np.random.default_rng([config.seed, 0])
    _, use_composer, bidirectional, use_crf = VARIANTS[config.variant]
    embedder = embedder_init(
        vocab, config.d_emb, orders=config.feature_orders(), use_composer=use_composer, rng=rng
    )
    enc_out = 2 * config.hidden if bidirectional else config.hidden
    encoder = []
    d_in = embedder.feature_width
    for _ in range(config.num_layers):
        fwd = lstm_init(d_in, config.hidden, rng)
        bwd = lstm_init(d_in, config.hidden, rng) if bidirectional else None
        encoder.append((fwd, bwd))
        d_in = enc_out
    width = config.attn_width if config.attn_width > 0 else enc_out
    hidden_proj = dense_init(enc_out, width, rng)
    attn = attention_init(width, rng) if config.use_attention else None
    out_proj = dense_init(width, N_TAGS, rng)
    crf = crf_init(N_TAGS, rng) if use_crf else None
    if crf is not None and not config.use_start_scores:
        crf.start[:] = 0.0

    out: dict[str, Array] = {}

    def put(prefix: str, p) -> None:
        if isinstance(p, LstmParams):
            n = p.hidden_dim
            out.update((f"{prefix}{f.name}_{g}", getattr(p, f.name)[k * n : (k + 1) * n])
                       for f in dataclasses.fields(p) for k, g in enumerate(GATES))
        elif p is not None:
            out.update((prefix + f.name, getattr(p, f.name)) for f in dataclasses.fields(p))

    put("out.", out_proj)
    put("attn.", attn)
    put("dense.", hidden_proj)
    for i in range(len(encoder) - 1, -1, -1):
        put(f"enc{i}.fwd.", encoder[i][0])
        put(f"enc{i}.bwd.", encoder[i][1])
    out.update((f"emb.{n}", t) for n, t in embedder.tables.items())
    put("composer.fwd.", embedder.fwd)
    put("composer.bwd.", embedder.bwd)
    put("crf.", crf)
    return out


def compose_subword(token: str, vocab: NgramVocab, embedder: SubwordEmbedder) -> Array:
    """Token vector: forward state after the last position, backward state
    at the first position, concatenated."""
    if not token:
        raise ValueError("empty token")
    if not embedder.use_composer or embedder.fwd is None:
        raise UninitializedEmbedder("embedder was built without a composer")
    embedder.check_vocab(vocab)
    vec, _ = _compose([token], _token_ids([token], vocab, embedder.orders), embedder, cache=True)
    return vec[0]


def lookup(vocab: NgramVocab, n: int, gram: str) -> int:
    """An n-gram's id, UNK_ID if the vocabulary lacks it."""
    return vocab.maps[n].get(gram, UNK_ID)


def char_features(text: str, vocab: NgramVocab, embedder: SubwordEmbedder) -> Array:
    F, _ = char_features_cached(text, vocab, embedder)
    return F


def parse_report(path: str) -> MetricsReport:
    """Rebuild a report from its JSON-lines form (floats at emitted precision)."""
    per_tag: dict[str, TagCounts] = {}
    agg: dict[str, PRF] = {}
    token = None
    model = ""
    sentences = positions = 0
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            row = json.loads(line)
            kind = row["kind"]
            m = PRF(p=float(row["p"]), r=float(row["r"]), f=float(row["f"]))
            if kind == "per_tag":
                per_tag[row["tag"]] = TagCounts(
                    correct=row["correct"], predicted=row["predicted"], true=row["true"]
                )
            elif kind in ("micro", "micro_excl_x", "macro"):
                agg[kind] = m
                model = row["model"]
                sentences = row["sentences"]
                positions = row["positions"]
            elif kind == "token":
                token = m
    return MetricsReport(
        model=model, n_sentences=sentences, n_positions=positions,
        per_tag=per_tag, micro=agg["micro"], micro_excl_x=agg["micro_excl_x"],
        macro=agg["macro"], token=token,
    )


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
