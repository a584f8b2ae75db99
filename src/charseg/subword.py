"""Character n-gram vocabularies and per-character input features.

Each whitespace-delimited token is decomposed into unigram, bigram,
trigram and 4-gram windows anchored at every character position; windows
that run past the token end are right-padded with a filler symbol that is
an ordinary vocabulary entry with its own learned embedding. A token-level
vector comes from a small bidirectional LSTM over the per-position window
embeddings (final forward state concatenated with the backward state at
the first position). The per-character feature row concatenates that
character's window embeddings with its token's composed vector; whitespace
characters get a dedicated space embedding, filler windows, and a zero
token vector.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .corpus import WHITESPACE, _token_spans, replace_on_success, utf8_lines
from .errors import BadEscape, BadTag, EmptyCorpus, LengthMismatch, UninitializedEmbedder
from .nncore import LstmCache, LstmParams, bilstm_backward, bilstm_forward

Array = np.ndarray

FILLER = ""  # private-use codepoint, cannot collide with normalized text

PAD_ID = 0    # filler windows at whitespace positions
UNK_ID = 1
SPACE_ID = 2  # unigram table only

MEMO_TOKENS = 4096  # most vectors a TokenMemo holds: about 5 MB at d_emb=64

DEFAULT_ORDERS = (1, 2, 3, 4)
DEFAULT_MIN_FREQ = {1: 1, 2: 2, 3: 2, 4: 2}

_VOCAB_HEADER = "#charseg-vocab\t1"

_NG_ESCAPE = {"\\": "\\\\", "\t": "\\t", " ": "\\s", FILLER: "\\p"}
_NG_UNESCAPE = {"\\\\": "\\", "\\t": "\t", "\\s": " ", "\\p": FILLER}


def anchored_ngrams(token: str, n: int) -> list[str]:
    """One window per character position, right-padded at the token end."""
    return [(token[i : i + n] + FILLER * n)[:n] for i in range(len(token))]


def _first_free(n: int) -> int:
    return SPACE_ID + 1 if n == 1 else UNK_ID + 1


@dataclass
class NgramVocab:
    """Frozen n-gram to id maps with reserved PAD/UNK (and SPACE for unigrams)."""

    orders: tuple[int, ...]
    maps: dict[int, dict[str, int]]
    freqs: dict[int, dict[str, int]]
    min_freq: dict[int, int]

    def size(self, n: int) -> int:
        return _first_free(n) + len(self.maps[n])

    def unigram_id(self, ch: str) -> int:
        if ch in WHITESPACE:
            return SPACE_ID
        return self.maps[1].get(ch, UNK_ID)

    def anchored_ids(self, token: str, n: int) -> np.ndarray:
        if n == 1:
            return np.array([self.unigram_id(c) for c in token], dtype=np.int64)
        m = self.maps[n]
        return np.array([m.get(g, UNK_ID) for g in anchored_ngrams(token, n)], dtype=np.int64)

    # -- serialization -------------------------------------------------------

    def _serialize(self) -> str:
        lines = [_VOCAB_HEADER]
        for n in self.orders:
            lines.append(f"#min_freq\t{n}\t{self.min_freq[n]}")
        for n in self.orders:
            for gram, gid in sorted(self.maps[n].items(), key=lambda kv: kv[1]):
                esc = "".join(_NG_ESCAPE.get(c, c) for c in gram)
                lines.append(f"{n}\t{esc}\t{gid}\t{self.freqs[n].get(gram, 0)}")
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with replace_on_success(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(self._serialize())

    def sha256(self) -> str:
        return hashlib.sha256(self._serialize().encode("utf-8")).hexdigest()

    @classmethod
    def load(cls, path) -> "NgramVocab":
        """Read a saved vocabulary; each order's ids must be exactly
        _first_free(n) .. size(n) - 1, each n-gram and id listed once."""
        maps: dict[int, dict[str, int]] = defaultdict(dict)
        freqs: dict[int, dict[str, int]] = defaultdict(dict)
        min_freq: dict[int, int] = {}
        id_lines: dict[int, dict[int, int]] = defaultdict(dict)  # order -> id -> line number
        lines = utf8_lines(path, newline="\n")
        _, header = next(lines, (1, ""))
        header = header.rstrip("\n")
        if header != _VOCAB_HEADER:
            raise BadTag(1, f"bad vocab header {header!r}")
        for line_no, line in lines:
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                if line.startswith("#min_freq\t"):
                    _, n_str, mf = line.split("\t")
                    min_freq[int(n_str)] = int(mf)
                    continue
                parts = line.split("\t")
                if len(parts) != 4:
                    raise ValueError("wrong field count")
                n = int(parts[0])
                gram = _unescape_ngram(parts[1], line_no)
                gid = int(parts[2])
                freq = int(parts[3])
            except ValueError as exc:
                raise BadTag(line_no, f"expected <n>\\t<ngram>\\t<id>\\t<freq>: {exc}") from None
            if gram in maps[n]:
                raise BadTag(line_no, f"repeated order-{n} n-gram {parts[1]!r}")
            if gid in id_lines[n]:
                raise BadTag(line_no, f"order-{n} id {gid} already used on line {id_lines[n][gid]}")
            maps[n][gram] = gid
            freqs[n][gram] = freq
            id_lines[n][gid] = line_no
        # distinct ids all in range are exactly the range
        for n, lines_of in id_lines.items():
            if n not in min_freq:  # sha256 and save would drop the order
                raise BadTag(min(lines_of.values()), f"order-{n} n-gram without a #min_freq line")
            first = _first_free(n)
            for gid, line_no in lines_of.items():
                if not first <= gid < first + len(lines_of):
                    raise BadTag(line_no, f"order-{n} id {gid} outside {first}..{first + len(lines_of) - 1}")
        orders = tuple(sorted(min_freq))
        for n in orders:  # an order may have no entries
            maps.setdefault(n, {})
            freqs.setdefault(n, {})
        return cls(orders=orders, maps=dict(maps), freqs=dict(freqs), min_freq=min_freq)


def _unescape_ngram(text: str, line_no: int) -> str:
    out = []
    i = 0
    while i < len(text):
        if text[i] == "\\":
            piece = text[i : i + 2]
            if piece not in _NG_UNESCAPE:
                raise BadEscape(line_no, f"bad escape {piece!r}")
            out.append(_NG_UNESCAPE[piece])
            i += 2
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def build_vocab(
    sentences: Iterable[str],
    min_freq: dict[int, int] | None = None,
    orders: tuple[int, ...] = DEFAULT_ORDERS,
) -> NgramVocab:
    """Count anchored windows over all tokens, keep those at or above the
    per-order frequency threshold, and assign dense ids in first-seen order."""
    min_freq = dict(DEFAULT_MIN_FREQ if min_freq is None else min_freq)
    counts: dict[int, Counter] = {n: Counter() for n in orders}
    first_seen: dict[int, dict[str, int]] = {n: {} for n in orders}
    tick = 0
    n_tokens = 0
    for text in sentences:
        for a, b in _token_spans(text):
            token = text[a:b]
            n_tokens += 1
            for n in orders:
                for gram in anchored_ngrams(token, n):
                    counts[n][gram] += 1
                    if gram not in first_seen[n]:
                        first_seen[n][gram] = tick
                        tick += 1
    if n_tokens == 0:
        raise EmptyCorpus("no tokens in corpus")
    maps: dict[int, dict[str, int]] = {}
    freqs: dict[int, dict[str, int]] = {}
    for n in orders:
        kept = [g for g, c in counts[n].items() if c >= min_freq.get(n, 1)]
        kept.sort(key=lambda g: first_seen[n][g])
        base = _first_free(n)
        maps[n] = {g: base + i for i, g in enumerate(kept)}
        freqs[n] = {g: counts[n][g] for g in kept}
    return NgramVocab(orders=tuple(orders), maps=maps, freqs=freqs, min_freq=min_freq)


# ---------------------------------------------------------------------------
# embedder: per-order tables plus the token-level bidirectional composer
# ---------------------------------------------------------------------------

@dataclass
class SubwordEmbedder:
    dim: int
    orders: tuple[int, ...]
    use_composer: bool
    tables: dict[int, Array]           # order -> (vocab size, dim)
    fwd: LstmParams | None = None
    bwd: LstmParams | None = None

    @property
    def ngram_width(self) -> int:
        return len(self.orders) * self.dim

    @property
    def feature_width(self) -> int:
        return self.ngram_width + (2 * self.dim if self.use_composer else 0)

    def check_vocab(self, vocab: NgramVocab) -> None:
        for n in self.orders:
            if n not in vocab.maps:
                raise UninitializedEmbedder(f"vocab has no order-{n} table")
            if self.tables[n].shape != (vocab.size(n), self.dim):
                raise UninitializedEmbedder(
                    f"order-{n} table {self.tables[n].shape} does not match vocab size {vocab.size(n)}"
                )


def _token_ids(tokens: Iterable[str], vocab: NgramVocab, orders: tuple[int, ...]) -> dict[str, dict[int, Array]]:
    """Each distinct token's anchored ids per order, looked up once."""
    return {t: {n: vocab.anchored_ids(t, n) for n in orders} for t in dict.fromkeys(tokens)}


class TokenMemo(dict):
    """Token -> composed vector within one inference run, at most MEMO_TOKENS
    (cleared when a batch's new tokens do not fit); it must not outlive a
    parameter write. ``buffers`` holds the run's scratch arrays (see
    nncore._lstm_passes) and the head's W_q W_k^T (see
    model.Model.batch_emissions), refilled by every pass: concurrent calls
    must not share a memo. ``tokens`` counts the tokens looked up,
    ``composed`` those composed, ``batches`` the batched passes."""

    tokens = composed = batches = 0

    def __init__(self):
        super().__init__()
        self.buffers: dict = {}


@dataclass
class FeatureCache:
    ids: dict[int, np.ndarray]              # order -> (L,) ids per character row
    spans: list[tuple[int, int]]
    composer: list[LstmCache] | None        # the packed pass over every span, None without one


def char_features_cached(text: str | list[str], vocab: NgramVocab, embedder: SubwordEmbedder,
                         memo: TokenMemo | None = None) -> tuple[Array, FeatureCache | Array]:
    """Features of text as distinct rows: each distinct token's rows, one
    token after another, then one whitespace row if text has whitespace,
    and index[k], character k's row. The composer reads its input from the
    rows' n-gram columns in one packed pass: in training over every span,
    one sequence each, in inference (with a memo) over each distinct token
    the memo lacks. Training returns the feature matrix rows[index] (L x
    feature width) and the cache for backprop; inference returns rows and
    index, and text may be a list of texts whose characters index holds
    one after another."""
    embedder.check_vocab(vocab)
    texts = [text] if isinstance(text, str) else text
    starts = itertools.accumulate((len(t) for t in texts), initial=0)
    spans = [(lo + a, lo + b) for lo, t in zip(starts, texts) for a, b in _token_spans(t)]
    text = "".join(texts)
    tokens = [text[a:b] for a, b in spans]
    token_ids = _token_ids(tokens, vocab, embedder.orders)  # distinct tokens in order of appearance
    offsets = dict(zip(token_ids, itertools.accumulate(map(len, token_ids), initial=0)))
    n_tok = sum(map(len, token_ids))
    index, first = np.full(len(text), n_tok), np.arange(n_tok)  # whitespace takes row n_tok
    for (a, b), token in zip(spans, tokens):
        index[a:b] = first[offsets[token] : offsets[token] + b - a]
    n_space = int(len(text) > sum(b - a for a, b in spans))
    row_ids = {n: np.concatenate([*(ids[n] for ids in token_ids.values()),
                                  np.full(n_space, PAD_ID if n > 1 else SPACE_ID)]) for n in embedder.orders}
    rows = np.zeros((n_tok + n_space, embedder.feature_width))
    dim, col = embedder.dim, embedder.ngram_width
    for k, n in enumerate(embedder.orders):
        rows[:, k * dim : (k + 1) * dim] = embedder.tables[n][row_ids[n]]
    composer = None
    if embedder.use_composer:
        vecs = {t: None if memo is None else memo.get(t) for t in token_ids}
        new = [t for t, vec in vecs.items() if vec is None]
        runs = tokens if memo is None else new  # every span in training: a token's compose to the same bits
        if runs:  # a token's vector: the forward's last state and the backward's first
            X = np.concatenate([rows[offsets[t] : offsets[t] + len(t), :col] for t in runs])
            lengths = [len(t) for t in runs]
            Y, composer = bilstm_forward(embedder.fwd, embedder.bwd, X, memo is None, lengths,
                                         None if memo is None else memo.buffers)
            ends = np.cumsum(lengths)
            vecs.update(zip(runs, np.hstack([Y[ends - 1, :dim], Y[ends - lengths, dim:]])))
        for token, vec in vecs.items():
            rows[offsets[token] : offsets[token] + len(token), col:] = vec
        if memo is not None:
            if len(memo) + len(new) > MEMO_TOKENS:
                memo.clear()
            memo.update((t, vecs[t]) for t in new[-MEMO_TOKENS:])
            memo.composed += len(new)
    if memo is not None:
        memo.tokens += len(spans)
        return rows, index
    return rows[index], FeatureCache(ids={n: ids[index] for n, ids in row_ids.items()}, spans=spans, composer=composer)


def char_features_backward(cache: FeatureCache, dF: Array, embedder: SubwordEmbedder, grads: SubwordEmbedder) -> None:
    """Scatter feature gradients into the embedding tables of grads, adding
    to what they hold, and write the composer's weight gradients, from one
    packed backward pass over the forward's spans. Each table takes one
    np.add.at: dF's n-gram rows, then the composer's input gradient."""
    L, dim, width = len(cache.ids[embedder.orders[0]]), embedder.dim, embedder.ngram_width
    if dF.shape != (L, embedder.feature_width):
        raise LengthMismatch(f"feature grad {dF.shape} vs cache ({L}, {embedder.feature_width})")
    rows, d_rows = [np.arange(L)], [dF[:, :width]]
    if cache.composer is not None:
        dY = np.zeros((len(cache.composer[0].X), 2 * dim))  # one row per span character
        for (a, b), hi in zip(cache.spans, itertools.accumulate(b - a for a, b in cache.spans)):
            d_vec = dF[a:b, width:].sum(axis=0)
            dY[hi - 1, :dim] = d_vec[:dim]
            dY[hi - (b - a), dim:] = d_vec[dim:]
            rows.append(np.arange(a, b))
        d_rows.append(bilstm_backward(embedder.fwd, embedder.bwd, cache.composer, dY, grads.fwd, grads.bwd))
    rows, d_rows = np.concatenate(rows), np.concatenate(d_rows)
    for k, n in enumerate(embedder.orders):
        np.add.at(grads.tables[n], cache.ids[n][rows], d_rows[:, k * dim : (k + 1) * dim])
