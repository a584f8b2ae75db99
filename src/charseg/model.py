"""Model assembly, training loop, and checkpoint serialization.

The full architecture stacks: subword features, a bidirectional recurrent
encoder, a tanh hidden projection, single-head self-attention with a
residual connection, and a linear emission layer feeding a linear-chain
CRF. Baseline variants strip parts of that stack:

    lstm_softmax        unigram features, unidirectional encoder, softmax
    bilstm_softmax      unigram features, bidirectional encoder, softmax
    bilstm_crf          unigram features, CRF output
    bilstm_crf_char     + token composer over unigrams
    bilstm_crf_bigram   + bigram windows
    bilstm_crf_trigram  + trigram windows
    sgnws               + 4-gram windows and self-attention

Every parameter tensor is a named view of one float64 vector,
``Model.theta``; gradients come back as one vector laid out the same way.
Training is per-sentence gradient descent with Adamax, global-norm
clipping, and epoch-level model selection on dev tag F. Everything is
deterministic given (config, seed, corpus). Training mutates parameters
and runs on one thread; predict only reads them, so a loaded model is
safe for concurrent callers that do not share a TokenMemo. Inference may
hand independent halves of a batch to one worker thread
(nncore.fork_join), with the same bits as running them in turn.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import struct
import sys
import tempfile
import typing
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from . import crf as crf_mod
from .corpus import N_TAGS, DatasetSplit, Sentence, ids_to_tags, replace_on_success, tag_ids, whitespace_flags
from .errors import (BadConfig, BadMagic, EmptyCorpus, LengthMismatch, NonFiniteEmissions, ShapeMismatch,
                     UninitializedEmbedder, VocabMismatch)
from .metrics import tag_prf
from .nncore import (
    BLOCK_ROWS,
    AdamaxState,
    AttentionParams,
    DenseParams,
    LstmParams,
    adamax_step,
    attention_weights,
    bilstm_backward,
    bilstm_forward,
    block_end,
    clip_global_norm,
    dense_backward,
    dense_forward,
    fork_join,
    log_softmax,
    self_attention,
    self_attention_backward,
    softmax,
    variational_dropout,
)
from .subword import NgramVocab, SubwordEmbedder, TokenMemo, char_features_backward, char_features_cached

Array = np.ndarray

# most characters in one inference batch: enough texts to share each step's
# product with W. A step costs its GEMM plus about 50 us of numpy calls, and at
# h=200 the GEMM's cost per row flattens past about 24 rows (15.6 us a row at 2
# rows, 7.4 at 24, 6.5 at 48; 2-core x86 VM, one OpenBLAS thread); 1,024
# characters of sentence-length lines run up to about 25 rows a step
BATCH_CHARS = 1024

CHECKPOINT_MAGIC = b"CSEG"
CHECKPOINT_VERSION = 1

# variant -> (n-gram orders, token composer, bidirectional, crf output)
VARIANTS: dict[str, tuple[tuple[int, ...], bool, bool, bool]] = {
    "lstm_softmax": ((1,), False, False, False),
    "bilstm_softmax": ((1,), False, True, False),
    "bilstm_crf": ((1,), False, True, True),
    "bilstm_crf_char": ((1,), True, True, True),
    "bilstm_crf_bigram": ((1, 2), True, True, True),
    "bilstm_crf_trigram": ((1, 2, 3), True, True, True),
    "sgnws": ((1, 2, 3, 4), True, True, True),
}


@dataclass
class ModelConfig:
    """Hyper-parameters and variant switches; None booleans resolve to the
    variant's default so baselines never silently inherit CRF-only flags."""

    variant: str = "sgnws"
    d_emb: int = 64
    hidden: int = 200
    num_layers: int = 1
    attn_width: int = 0  # 0 -> encoder output width
    dropout: float = 0.25
    lr: float = 0.025
    lr_decay: float = 1.0  # per-epoch multiplier, 1.0 = constant rate
    grad_clip: float = 5.0
    epochs: int = 40
    batch_size: int = 1
    seed: int = 0
    use_attention: bool | None = None
    use_4grams: bool = True
    use_start_scores: bool | None = None
    constrained_decode: bool | None = None

    def resolve(self) -> "ModelConfig":
        """Validate, then fill variant-dependent defaults (a None flag
        passes every check, and so does the value it resolves to)."""
        if self.variant not in VARIANTS:
            raise BadConfig(f"unknown variant {self.variant!r}")
        for name in ("d_emb", "hidden", "num_layers", "epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise BadConfig(f"{name} must be >= 1")
        for name in ("lr", "grad_clip", "lr_decay"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails too
                raise BadConfig(f"{name} must be finite and positive, got {getattr(self, name)}")
        if not (0.0 <= self.dropout < 1.0):
            raise BadConfig("dropout must lie in [0, 1)")
        if self.attn_width < 0 or self.seed < 0:
            raise BadConfig(f"attn_width and seed must be >= 0, got {self.attn_width} and {self.seed}")
        crf = VARIANTS[self.variant][3]
        if self.use_attention and self.variant != "sgnws":
            raise BadConfig(f"use_attention is only valid for variant sgnws, not {self.variant}")
        if self.use_start_scores and not crf:
            raise BadConfig(f"use_start_scores needs a CRF variant, not {self.variant}")
        if self.constrained_decode and not crf:
            raise BadConfig(f"constrained_decode needs a CRF variant, not {self.variant}")
        defaults = {"use_attention": self.variant == "sgnws", "use_start_scores": crf, "constrained_decode": crf}
        return dataclasses.replace(self, **{k: v for k, v in defaults.items() if getattr(self, k) is None})

    def feature_orders(self) -> tuple[int, ...]:
        orders, _, _, _ = VARIANTS[self.variant]
        if self.variant == "sgnws" and not self.use_4grams:
            orders = (1, 2, 3)
        return orders

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Build from a decoded checkpoint config, checking every value
        against its field's type; ints are accepted for float fields.
        Version-1 checkpoints carry ``"optimizer": "adamax"``, the only
        optimizer there is; it is dropped."""
        if d.get("optimizer", "adamax") != "adamax":
            raise BadConfig(f"unsupported optimizer {d['optimizer']!r}")
        d = {k: v for k, v in d.items() if k != "optimizer"}
        unknown = set(d) - set(CONFIG_TYPES)
        if unknown:
            raise BadConfig(f"unknown config fields: {sorted(unknown)}")
        defaults = cls()
        values = {}
        for name, value in d.items():
            kind = CONFIG_TYPES[name]
            if value is None and getattr(defaults, name) is None:
                values[name] = None
            elif type(value) is kind or (kind is float and type(value) is int):
                values[name] = kind(value)
            else:
                raise BadConfig(f"config field {name} must be {kind.__name__}, got {value!r}")
        return cls(**values)


# ModelConfig field -> the type of its value (bool, int, float or str), in
# field order; a ``X | None`` field gives X
CONFIG_TYPES: dict[str, type] = {
    name: (typing.get_args(hint) or (hint,))[0]
    for name, hint in typing.get_type_hints(ModelConfig).items()
}


@dataclass
class ForwardCache:
    feat: object
    mask_in: Array | None
    enc_caches: list
    mask_out: Array | None
    dense_cache: object
    attn_cache: object | None
    out_cache: object


class Layers(NamedTuple):
    """The network's parameter containers."""

    embedder: SubwordEmbedder
    encoder: list[tuple[LstmParams, LstmParams | None]]
    hidden_proj: DenseParams
    attn: AttentionParams | None
    out_proj: DenseParams
    crf: crf_mod.CrfParams | None


# checkpoint names of the LSTM gate blocks, in stacking order
GATES = "ifco"


def _layout(config: ModelConfig, vocab: NgramVocab) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Every tensor's checkpoint name and shape, lazily, from a resolved
    config and the vocabulary sizes alone, in layout order: the order
    backprop produces the gradients, output layer first. Clipping adds up
    one sum of squares per tensor in this order, and trained checkpoints
    depend on that rounding."""
    _, use_composer, bidirectional, use_crf = VARIANTS[config.variant]
    orders = config.feature_orders()
    d, h = config.d_emb, config.hidden
    enc_out = 2 * h if bidirectional else h
    width = config.attn_width if config.attn_width > 0 else enc_out

    def lstm(prefix: str, d_in: int, n: int):  # one tensor per gate block: W_i .. b_o
        for field, shape in (("W", (n, n)), ("U", (n, d_in)), ("b", (n,))):
            yield from ((f"{prefix}{field}_{g}", shape) for g in GATES)

    yield from (("out.W", (width, N_TAGS)), ("out.b", (N_TAGS,)))
    if config.use_attention:
        yield from ((f"attn.W_{k}", (width, width)) for k in "qkvo")
    yield from (("dense.W", (enc_out, width)), ("dense.b", (width,)))
    for i in range(config.num_layers - 1, -1, -1):
        d_in = enc_out if i else len(orders) * d + (2 * d if use_composer else 0)
        for direction in ("fwd", "bwd") if bidirectional else ("fwd",):
            yield from lstm(f"enc{i}.{direction}.", d_in, h)
    for n in orders:
        if n not in vocab.maps:
            raise UninitializedEmbedder(f"vocab has no order-{n} table")
        yield f"emb.{n}", (vocab.size(n), d)
    if use_composer:
        yield from lstm("composer.fwd.", len(orders) * d, d)
        yield from lstm("composer.bwd.", len(orders) * d, d)
    if use_crf:
        yield from (("crf.transitions", (N_TAGS, N_TAGS)), ("crf.start", (N_TAGS,)))


def _draw(layers: Layers, config: ModelConfig) -> None:
    """The only initializer: writes every parameter in place from the
    model's seed. Weights are drawn in the order embedding tables,
    composer, encoder layers from the first, dense, attention, output, CRF,
    each with the bits of rng.uniform(-0.1, 0.1). Biases are 0 but each
    forget gate's, which is 1; a frozen CRF start is 0."""
    rng = np.random.default_rng([config.seed, 0])
    emb = layers.embedder
    parts = [p for p in (emb.fwd, emb.bwd, *(p for pair in layers.encoder for p in pair),
                         layers.hidden_proj, layers.attn, layers.out_proj, layers.crf) if p is not None]
    weights = [getattr(p, f.name) for p in parts for f in dataclasses.fields(p) if f.name != "b"]
    for w in (*emb.tables.values(), *weights):
        rng.random(out=w)  # uniform's -0.1 + 0.2 u, in place
        w *= 0.2
        w -= 0.1
    for p in parts:
        if hasattr(p, "b"):  # an LSTM's gates are i, f, c, o
            p.b[...] = np.repeat([0.0, 1.0, 0.0, 0.0], p.hidden_dim) if isinstance(p, LstmParams) else 0.0
    if layers.crf is not None and not config.use_start_scores:
        layers.crf.start[...] = 0.0


class Model:
    """A built network bound to one vocabulary.

    ``theta`` holds every parameter, the frozen CRF start scores included;
    ``layout`` maps each tensor name to its (slice, shape) in it, and the
    container fields (``encoder``, ``out_proj``, ``embedder.tables`` ...)
    are views of it.
    """

    def __init__(self, config: ModelConfig, vocab: NgramVocab, theta: Array | None = None):
        """Given theta, a vector of the layout's size that a loader fills,
        the parameters are its views and nothing is drawn."""
        config = config.resolve()
        self.config = config
        self.vocab = vocab
        self.layout: dict[str, tuple[slice, tuple[int, ...]]] = {}
        size = 0
        for name, shape in _layout(config, vocab):
            self.layout[name] = (slice(size, size + math.prod(shape)), shape)
            size += math.prod(shape)
        if theta is not None and theta.shape != (size,):
            raise ShapeMismatch(f"parameter vector of shape {theta.shape}, layout needs ({size},)")
        self.theta = np.empty(size) if theta is None else theta
        layers = self._bind(self.theta)
        (self.embedder, self.encoder, self.hidden_proj, self.attn, self.out_proj, self.crf) = layers
        if theta is None:
            _draw(layers, config)

    # -- parameter bookkeeping ------------------------------------------------

    def views(self, vec: Array) -> dict[str, Array]:
        """Name the parts of vec, a vector laid out like theta, in layout order."""
        if vec.shape != self.theta.shape:
            raise ShapeMismatch(f"vector of shape {vec.shape}, parameters {self.theta.shape}")
        return {name: vec[sl].reshape(shape) for name, (sl, shape) in self.layout.items()}

    def tensors(self) -> dict[str, Array]:
        return self.views(self.theta)

    def parameter_count(self) -> int:
        return self.theta.size

    def _bind(self, vec: Array) -> Layers:
        """The network's containers with every array a view of vec."""
        v = self.views(vec)
        # an LSTM's stacked W, U and b each span its four gate tensors
        for name, (sl, shape) in self.layout.items():
            if name.endswith("_" + GATES[0]):
                v[name[:-2]] = vec[sl.start : self.layout[name[:-1] + GATES[-1]][0].stop].reshape(-1, *shape[1:])

        def part(cls, prefix: str):
            names = [prefix + f.name for f in dataclasses.fields(cls)]
            return cls(*(v[n] for n in names)) if names[0] in v else None

        cfg = self.config
        orders = cfg.feature_orders()
        embedder = SubwordEmbedder(
            dim=cfg.d_emb, orders=orders, use_composer=VARIANTS[cfg.variant][1],
            tables={n: v[f"emb.{n}"] for n in orders},
            fwd=part(LstmParams, "composer.fwd."), bwd=part(LstmParams, "composer.bwd."),
        )
        encoder = [(part(LstmParams, f"enc{i}.fwd."), part(LstmParams, f"enc{i}.bwd."))
                   for i in range(cfg.num_layers)]
        return Layers(embedder, encoder, part(DenseParams, "dense."), part(AttentionParams, "attn."),
                      part(DenseParams, "out."), part(crf_mod.CrfParams, "crf."))

    # -- forward / backward ----------------------------------------------------

    def emissions(self, text: str, seed: int | None = None) -> tuple[Array, ForwardCache]:
        """Emission scores (L x tags) and the cache for backprop; dropout iff a seed is given."""
        rng = None if seed is None else np.random.default_rng(seed)
        F, feat_cache = char_features_cached(text, self.vocab, self.embedder)
        drop = self.config.dropout
        X, mask_in = variational_dropout(F, drop, rng)
        enc_caches = []
        cur = X
        for fwd, bwd in self.encoder:
            cur, cache = bilstm_forward(fwd, bwd, cur)
            enc_caches.append(cache)
        cur, mask_out = variational_dropout(cur, drop, rng)
        D, dense_cache = dense_forward(self.hidden_proj, cur, activation="tanh")
        Z, attn_cache = (D, None) if self.attn is None else self_attention(self.attn, D)
        E, out_cache = dense_forward(self.out_proj, Z)
        return E, ForwardCache(
            feat=feat_cache, mask_in=mask_in, enc_caches=enc_caches, mask_out=mask_out,
            dense_cache=dense_cache, attn_cache=attn_cache, out_cache=out_cache,
        )

    def batch_emissions(self, texts: list[str], memo: TokenMemo) -> list[Array]:
        """The inference forward, no backprop cache: emission scores of each
        non-empty text, in order, from one packed composer pass over the
        new tokens (see memo), one packed pass per encoder layer and
        direction, the first over the batch's distinct feature rows (see
        char_features_cached), then the head once over all rows: all after
        attention's softmax A is linear, so per text only A and A (D (W_v
        W_o W_out)) remain. The scores Q K^T are D (W_q W_k^T) D^T: the
        keys are D's own rows, and W_q W_k^T is kept in memo.buffers.
        Attention runs by blocks of BLOCK_ROWS rows of a text, so no array
        holds more than BLOCK_ROWS x L scores and memory grows linearly with
        text length. Where the dense layer is square (the default), its rows
        D go into the encoder output by the row blocks of block_end, so one
        N x width array is alive; else they take one product into an array
        of their own. Beside D, the queries of one window are alive: from the
        first query block that the last window does not hold to block_end.
        Each of these products spans at least BLOCK_ROWS rows (all N if
        fewer), as OpenBLAS rounds a product of a few rows differently, and
        keeps the bits of one product over all rows. Independent halves run
        through nncore.fork_join, the same products either way: the dense
        blocks wherever there are two, and in a batch of more than two texts
        (all short: their characters fit BATCH_CHARS) the directions of
        split passes and the query windows; memo.pairs counts the halves
        handed to the worker thread."""
        if not texts:
            return []
        memo.batches += 1
        lengths = [len(t) for t in texts]

        def pair(first, second) -> None:
            memo.pairs += fork_join(first, second)

        def halves(run, items: list) -> None:  # run(items) in two halves, the first here
            if len(items) < 2:
                return run(items)
            k = (len(items) + 1) // 2
            pair(lambda: run(items[:k]), lambda: run(items[k:]))

        short = len(texts) > 2
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite scores raise below
            cur, index = char_features_cached(texts, self.vocab, self.embedder, memo)
            for fwd, bwd in self.encoder:
                cur, _ = bilstm_forward(fwd, bwd, cur, False, lengths, memo.buffers, index, pair if short else None)
                index = None
            W_d, b_d, N = self.hidden_proj.W, self.hidden_proj.b, len(cur)
            D = cur if W_d.shape[0] == W_d.shape[1] else np.empty((N, W_d.shape[1]))
            blocks, lo = [], 0
            while lo < N:
                blocks.append(slice(lo, block_end(lo, N) if D is cur else N))
                lo = blocks[-1].stop

            def dense(rows: list[slice]) -> None:
                for r in rows:
                    np.matmul(cur[r], W_d, out=D[r])
                    D[r] += b_d
                    np.tanh(D[r], out=D[r])

            halves(dense, blocks)
            del cur
            out, at = self.out_proj, self.attn
            E = D @ out.W + out.b
            spans = [slice(hi - n, hi) for hi, n in zip(np.cumsum(lengths).tolist(), lengths)]
            if at is not None:
                Vp = D @ (at.W_v @ (at.W_o @ out.W))
                W_qk = memo.buffers.get("W_qk")
                if W_qk is None:
                    W_qk = memo.buffers["W_qk"] = at.W_q @ at.W_k.T
                windows, b = [], 0  # (a, b, blocks): Q over rows a:b serves the blocks
                for sl in spans:
                    for lo in range(sl.start, sl.stop, BLOCK_ROWS):
                        hi = min(lo + BLOCK_ROWS, sl.stop)
                        if hi > b:  # blocks come in row order, and each fits from its first row to block_end
                            b = block_end(lo, N)
                            windows.append((lo, b, []))
                        windows[-1][2].append((sl, lo, hi))

                def head(ws: list) -> None:
                    for a, b, rows in ws:
                        Q = D[a:b] @ W_qk
                        for sl, lo, hi in rows:
                            E[lo:hi] += attention_weights(Q[lo - a : hi - a], D[sl]) @ Vp[sl]

                if short:
                    halves(head, windows)
                else:
                    head(windows)
        if not np.isfinite(E).all():
            raise NonFiniteEmissions(f"emission scores of a batch of {len(texts)} texts are not all finite")
        return [E[sl] for sl in spans]

    def _backward(self, cache: ForwardCache, dE: Array, grads: Layers) -> None:
        """Write every layer's gradient into grads, containers of views of
        one gradient vector."""
        dZ = dense_backward(self.out_proj, cache.out_cache, dE, grads.out_proj)
        if self.attn is not None:
            dZ = self_attention_backward(self.attn, cache.attn_cache, dZ, grads.attn)
        dY = dense_backward(self.hidden_proj, cache.dense_cache, dZ, grads.hidden_proj)
        if cache.mask_out is not None:
            dY = dY * cache.mask_out
        for (fwd, bwd), (g_f, g_b), enc in reversed(list(zip(self.encoder, grads.encoder, cache.enc_caches))):
            dY = bilstm_backward(fwd, bwd, enc, dY, g_f, g_b)
        if cache.mask_in is not None:
            dY = dY * cache.mask_in
        char_features_backward(cache.feat, dY, self.embedder, grads.embedder)

    def loss(self, text: str, gold: np.ndarray, seed: int | None = None) -> tuple[float, Array]:
        """Sentence loss and its gradient, a fresh vector laid out like
        theta (zero at the frozen CRF start scores); dropout iff a seed is given.

        CRF variants use the sequence negative log-likelihood; softmax
        variants use mean per-position cross-entropy.
        """
        if len(text) != len(gold):
            raise LengthMismatch(f"{len(text)} characters vs {len(gold)} tags")
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite values raise below or in clipping
            E, cache = self.emissions(text, seed)
            if not np.isfinite(E).all():
                raise NonFiniteEmissions(f"emission scores of a {len(text)}-character sentence are not all finite")
            # backprop writes every view whole but the tables, a tokenless text's composer, the frozen start
            G = np.empty_like(self.theta)
            for name, (sl, _) in self.layout.items():
                if name.startswith(("emb.", "composer.")) or name == "crf.start":
                    G[sl] = 0.0
            grads = self._bind(G)
            if self.crf is not None:
                value, cg = crf_mod.nll_loss(E, gold, self.crf)
                self._backward(cache, cg.emissions, grads)
                grads.crf.transitions[...] = cg.transitions
                if self.config.use_start_scores:
                    grads.crf.start[...] = cg.start
            else:
                L = len(text)
                logp = log_softmax(E, axis=-1)
                value = float(-np.mean(logp[np.arange(L), gold]))
                dE = softmax(E, axis=-1)
                dE[np.arange(L), gold] -= 1.0
                dE /= L
                self._backward(cache, dE, grads)
        return value, G

    # -- inference --------------------------------------------------------------

    def predict_many(self, texts: Iterable[str], memo: TokenMemo | None = None) -> Iterator[str]:
        """Tag strings for normalized sentences, lazily, one per text (""
        for an empty one). Consecutive texts run through batch_emissions
        in the batches of _batches: at most BATCH_CHARS characters, about 25
        sentence-length lines, or two texts when they are longer. Memory
        grows linearly with the longest text. Tokens are composed through
        memo, emptied first so it lives for this call only; pass one to read
        its counts."""
        memo = TokenMemo() if memo is None else memo
        memo.clear()
        memo.buffers.pop("W_qk", None)  # made from the parameters again, once per call
        for batch in _batches(texts):
            scores = iter(self.batch_emissions([t for t in batch if t], memo))
            for text in batch:
                if not text:
                    yield ""
                    continue
                E = next(scores)
                if self.crf is None:
                    path = np.argmax(E, axis=-1)
                else:
                    mask = crf_mod.grammar_mask(whitespace_flags(text)) if self.config.constrained_decode else None
                    path, _ = crf_mod.viterbi_decode(E, self.crf, mask)
                yield ids_to_tags(path)

    def predict(self, text: str) -> str:
        """Tag string for one normalized sentence."""
        return next(self.predict_many([text]))


def _batches(texts: Iterable[str]) -> Iterator[list[str]]:
    """Consecutive texts, lazily, in lists of at most BATCH_CHARS
    characters, or of two non-empty texts that pass it together (empty
    texts ride along): a batch closes only once it holds two non-empty
    texts and the next text would pass BATCH_CHARS. Sentence-length lines
    thus run up to about 25 rows in a recurrent step's product with W,
    where its cost per row levels off, and two long texts share each one."""
    batch, chars, nonempty = [], 0, 0
    for text in texts:
        if nonempty >= 2 and chars + len(text) > BATCH_CHARS:
            yield batch
            batch, chars, nonempty = [], 0, 0
        batch.append(text)
        chars += len(text)
        nonempty += bool(text)
    if batch:
        yield batch


def build(config: ModelConfig, vocab: NgramVocab) -> Model:
    return Model(config, vocab)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    dev_p: float
    dev_r: float
    dev_f: float

    def to_json(self) -> str:
        return json.dumps(
            {"epoch": self.epoch, "loss": round(self.train_loss, 6),
             "dev_p": round(self.dev_p, 6), "dev_r": round(self.dev_r, 6),
             "dev_f": round(self.dev_f, 6)},
            sort_keys=True,
        )


def _dev_metrics(model: Model, dev: list[tuple[Sentence, str]]) -> tuple[float, float, float]:
    gold = [tags for _, tags in dev]
    pred = list(model.predict_many(s.text for s, _ in dev))
    rep = tag_prf(gold, pred)
    return rep.micro.p, rep.micro.r, rep.micro.f


def train(model: Model, split: DatasetSplit, progress=None) -> list[EpochRecord]:
    """Run the full regimen and leave the best-dev parameters in the model.

    Per epoch: seeded shuffle, per-batch backprop, global-norm clipping,
    Adamax update; then dev evaluation. Dev must be non-empty up front so
    model selection is always defined. It holds four parameter-sized
    vectors: theta, Adamax's m and u, and the batch's gradient (a
    sentence's is let go once it is in the batch). The best-dev
    parameters go to an unnamed temporary file in TMPDIR, written on each
    new best but the last epoch's, whose theta is already the best, and
    read back only if a later epoch left theta worse; a short write or
    read raises OSError.
    """
    cfg = model.config
    if not split.train:
        raise EmptyCorpus("training split is empty")
    if not split.dev:
        raise EmptyCorpus("dev split is empty")
    opt = AdamaxState.init(model.theta, lr=cfg.lr)
    rng = np.random.default_rng([cfg.seed, 1])
    log: list[EpochRecord] = []
    best_f, best_epoch, snapshot = -1.0, None, None

    train_ids = [(s, tag_ids(t)) for s, t in split.train]
    with contextlib.ExitStack() as stack:
        for epoch in range(cfg.epochs):
            opt.lr = cfg.lr * (cfg.lr_decay ** epoch)
            order = rng.permutation(len(train_ids))
            total = 0.0
            batch: Array | None = None
            batch_n = 0
            for si in order:
                sent, gold = train_ids[si]
                seed = int(rng.integers(0, 2**63 - 1))
                value, G = model.loss(sent.text, gold, seed)
                total += value
                if batch is None:
                    batch, batch_n = G, 1
                else:
                    batch += G
                    batch_n += 1
                del G  # now batch's to keep or free, not alive through the next loss
                if batch_n >= cfg.batch_size:
                    _apply(model, opt, batch, batch_n, cfg.grad_clip)
                    batch, batch_n = None, 0
            if batch is not None:
                _apply(model, opt, batch, batch_n, cfg.grad_clip)
            dev_p, dev_r, dev_f = _dev_metrics(model, split.dev)
            rec = EpochRecord(
                epoch=epoch, train_loss=total / len(train_ids),
                dev_p=dev_p, dev_r=dev_r, dev_f=dev_f,
            )
            log.append(rec)
            if progress is not None:
                progress(rec)
            if dev_f > best_f:
                best_f, best_epoch = dev_f, epoch
                if epoch < cfg.epochs - 1:
                    if snapshot is None:
                        snapshot = stack.enter_context(tempfile.TemporaryFile())
                    _snapshot(snapshot, model.theta, write=True)
        if best_epoch is not None and best_epoch < cfg.epochs - 1:
            _snapshot(snapshot, model.theta, write=False)
    return log


def _snapshot(f, theta: Array, write: bool) -> None:
    """Write theta's bytes whole to the start of f, or read them back."""
    what = "write" if write else "read"
    try:
        f.seek(0)
        n = f.write(theta.data) if write else f.readinto(theta.data)
    except OSError as exc:
        raise OSError(exc.errno, f"cannot {what} the best-dev parameters in {tempfile.gettempdir()}: "
                                 f"{exc.strerror}") from None
    if n != theta.nbytes:
        raise OSError(f"short {what} of the best-dev parameters: {n} of {theta.nbytes} bytes")


def _apply(model: Model, opt: AdamaxState, batch: Array, n: int, clip: float) -> None:
    if n > 1:
        batch /= n
    # per-tensor sums of squares in layout order (see _layout; a frozen CRF
    # start adds +0.0): one dot product over the vector rounds differently
    clip_global_norm(model.views(batch), clip)
    adamax_step(opt, model.theta, batch)


# ---------------------------------------------------------------------------
# checkpoint format
#
#   bytes 0..3   magic "CSEG"
#   bytes 4..7   format version, uint32 little-endian
#   bytes 8..15  header length, uint64 little-endian
#   header       UTF-8 JSON, sorted keys: {"config", "metadata",
#                "tensors": [{"name", "shape", "offset"}...], "vocab_sha256"}
#   data         raw float64 little-endian tensors, C order, at the byte
#                offsets given in the directory (relative to data start)
# ---------------------------------------------------------------------------

@dataclass
class CheckpointData:
    config: dict
    metadata: dict
    vocab_sha256: str
    tensors: dict[str, Array]


def write_checkpoint(path, config: dict, vocab_sha256: str, metadata: dict, tensors: dict[str, Array]) -> None:
    """Write through a temp file beside path, streaming each tensor from
    its own memory, so a model's parameters are never copied."""
    names = sorted(tensors)
    directory = []
    offset = 0
    for name in names:
        directory.append({"name": name, "shape": list(np.shape(tensors[name])), "offset": offset})
        offset += 8 * np.size(tensors[name])
    header = {
        "config": config,
        "metadata": metadata,
        "tensors": directory,
        "vocab_sha256": vocab_sha256,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with replace_on_success(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<Q", len(header_bytes)))
        f.write(header_bytes)
        for name in names:
            f.write(np.ascontiguousarray(tensors[name], dtype="<f8"))


def _read_head(f) -> tuple[dict, dict, str, list[tuple[str, tuple[int, ...]]]]:
    """Read and check everything before the tensor data: (config,
    metadata, vocab_sha256, [(name, shape)] in file order). The tensors
    must tile the rest of the file exactly, in directory order."""
    magic = f.read(4)
    if magic != CHECKPOINT_MAGIC:
        raise BadMagic(f"not a checkpoint (magic {magic!r})")
    head = f.read(12)
    if len(head) != 12:
        raise BadMagic("truncated checkpoint header")
    version, header_len = struct.unpack("<IQ", head)
    if version != CHECKPOINT_VERSION:
        raise BadMagic(f"unsupported checkpoint version {version}")
    size = os.fstat(f.fileno()).st_size
    if header_len > size - f.tell():  # before header_len bytes are read
        raise BadMagic("truncated checkpoint header")
    header_bytes = f.read(header_len)
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadMagic(f"corrupt checkpoint header: {exc}") from None
    try:
        directory = header["tensors"]
        config = header["config"]
        metadata = header["metadata"]
        vocab_sha256 = header["vocab_sha256"]
        entries = [(e["name"], e["shape"], e["offset"]) for e in directory]
    except (KeyError, TypeError) as exc:
        raise BadMagic(f"malformed checkpoint header: {exc}") from None
    if not (isinstance(config, dict) and isinstance(metadata, dict) and isinstance(vocab_sha256, str)):
        raise BadMagic("malformed checkpoint header: bad config, metadata or vocab_sha256")
    data_len = size - f.tell()
    shapes: dict[str, tuple[int, ...]] = {}
    end = 0
    for name, shape, start in entries:
        if not isinstance(name, str) or name in shapes:
            raise BadMagic(f"bad or repeated tensor name {name!r}")
        if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
            raise BadMagic(f"tensor {name}: shape {shape!r} is not a list of non-negative integers")
        if type(start) is not int or start != end:
            raise ShapeMismatch(f"tensor {name}: offset {start!r}, expected {end}")
        end = start + 8 * math.prod(shape)
        if end > data_len:
            raise ShapeMismatch(f"tensor {name} runs past end of file")
        shapes[name] = tuple(shape)
    if end != data_len:
        raise ShapeMismatch(f"{data_len - end} bytes after the last tensor")
    return config, metadata, vocab_sha256, list(shapes.items())


def _read_tensor(f, name: str, out: Array) -> Array:
    """Fill out, a C-contiguous float64 array, with the next tensor's data."""
    if f.readinto(out) != out.nbytes:
        raise ShapeMismatch(f"tensor {name} runs past end of file")
    if sys.byteorder != "little":
        out.byteswap(inplace=True)
    if not np.all(np.isfinite(out)):
        raise ShapeMismatch(f"tensor {name} contains non-finite values")
    return out


def read_checkpoint(path) -> CheckpointData:
    with open(path, "rb") as f:
        config, metadata, vocab_sha256, entries = _read_head(f)
        tensors = {name: _read_tensor(f, name, np.empty(shape)) for name, shape in entries}
    return CheckpointData(config=config, metadata=metadata, vocab_sha256=vocab_sha256, tensors=tensors)


def save_model(model: Model, path, metadata: dict | None = None) -> None:
    write_checkpoint(
        path,
        config=model.config.to_dict(),
        vocab_sha256=model.vocab.sha256(),
        metadata=metadata or {},
        tensors=model.tensors(),
    )


def load_model(path, vocab: NgramVocab) -> Model:
    """Rebuild a model from a checkpoint, verifying shapes and vocabulary.
    The directory is walked against the layout that config and vocab give,
    up to the first missing or mis-shaped tensor, before theta is
    allocated; the file-size check in _read_head bounds that allocation.
    Each tensor is then read straight into its view of theta, and the
    directory check guarantees every view is written."""
    with open(path, "rb") as f:
        config, _, vocab_sha256, entries = _read_head(f)
        if vocab.sha256() != vocab_sha256:
            raise VocabMismatch(
                f"checkpoint was trained with vocab {vocab_sha256[:12]}..., "
                f"got {vocab.sha256()[:12]}..."
            )
        config = ModelConfig.from_dict(config).resolve()
        shapes = dict(entries)
        expected = set()
        for name, shape in _layout(config, vocab):
            if shapes.get(name) != shape:
                raise ShapeMismatch(f"tensor {name}: {shapes.get(name, 'missing')} vs expected {shape}")
            expected.add(name)
        if len(expected) != len(shapes):
            raise ShapeMismatch(f"tensors not in the layout: {sorted(shapes.keys() - expected)}")
        model = Model(config, vocab, np.empty(sum(math.prod(s) for s in shapes.values())))
        views = model.tensors()
        for name, _ in entries:
            _read_tensor(f, name, views[name])
    return model
