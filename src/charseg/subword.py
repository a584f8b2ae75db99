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
from .nncore import BiLstmCache, LstmParams, bilstm_backward, bilstm_forward, zeros_like

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


@dataclass
class ComposerCache:
    ids: dict[int, np.ndarray]  # order -> (token length,)
    lstm: BiLstmCache


def _token_ids(tokens: Iterable[str], vocab: NgramVocab, orders: tuple[int, ...]) -> dict[str, dict[int, Array]]:
    """Each distinct token's anchored ids per order, looked up once."""
    return {t: {n: vocab.anchored_ids(t, n) for n in orders} for t in dict.fromkeys(tokens)}


def _compose(tokens: list[str], token_ids: dict[str, dict[int, Array]], embedder: SubwordEmbedder,
             cache: bool = False, buffers: dict | None = None) -> tuple[Array, ComposerCache | None]:
    """Composed vectors of tokens, one row each, from one packed composer
    pass over their ids (see _token_ids); with cache (one token), also
    its cache for backprop."""
    ids = {n: np.concatenate([token_ids[t][n] for t in tokens]) for n in embedder.orders}
    X = np.hstack([embedder.tables[n][ids[n]] for n in embedder.orders])
    lengths = [len(t) for t in tokens]
    Y, lstm_cache = bilstm_forward(embedder.fwd, embedder.bwd, X, cache, lengths, buffers)
    d = embedder.dim
    ends = np.cumsum(lengths)
    vec = np.hstack([Y[ends - 1, :d], Y[ends - lengths, d:]])
    return vec, ComposerCache(ids=ids, lstm=lstm_cache) if cache else None


class TokenMemo(dict):
    """Token -> composed vector within one inference run, at most MEMO_TOKENS
    (cleared when a batch's new tokens do not fit); it must not outlive a
    parameter write. ``buffers`` holds the run's scratch arrays (see
    nncore._lstm_passes). ``tokens`` counts the tokens looked up,
    ``composed`` those composed, ``batches`` the batched passes."""

    tokens = composed = batches = 0

    def __init__(self):
        super().__init__()
        self.buffers: dict = {}


@dataclass
class FeatureCache:
    text: str
    ids: dict[int, np.ndarray]              # order -> (L,) ids per character row
    spans: list[tuple[int, int]]
    composers: list[ComposerCache] | None   # one per span, None without composer
    width: int


def char_features_cached(text: str | list[str], vocab: NgramVocab, embedder: SubwordEmbedder,
                         memo: TokenMemo | None = None) -> tuple[Array, FeatureCache | None]:
    """Feature matrix (L x feature width) plus the cache for backprop.
    With a memo (inference) the cache is None, text may be a list of texts
    whose rows F holds one after another, and their distinct tokens not in
    memo are composed in one packed composer pass."""
    embedder.check_vocab(vocab)
    texts = [text] if isinstance(text, str) else text
    starts = itertools.accumulate((len(t) for t in texts), initial=0)
    spans = [(lo + a, lo + b) for lo, t in zip(starts, texts) for a, b in _token_spans(t)]
    text = "".join(texts)
    L = len(text)
    dim = embedder.dim
    tokens = [text[a:b] for a, b in spans]
    token_ids = _token_ids(tokens, vocab, embedder.orders)
    ids = {n: np.full(L, PAD_ID if n > 1 else SPACE_ID, dtype=np.int64) for n in embedder.orders}
    for (a, b), token in zip(spans, tokens):
        for n in embedder.orders:
            ids[n][a:b] = token_ids[token][n]
    F = np.zeros((L, embedder.feature_width))
    col = 0
    for n in embedder.orders:
        F[:, col : col + dim] = embedder.tables[n][ids[n]]
        col += dim
    composers = None
    if embedder.use_composer and memo is None:
        composers = []
        for (a, b), token in zip(spans, tokens):
            vec, cc = _compose([token], token_ids, embedder, cache=True)
            F[a:b, col:] = vec
            composers.append(cc)
    elif embedder.use_composer:
        vecs = {t: memo.get(t) for t in tokens}
        new = [t for t, vec in vecs.items() if vec is None]
        if new:
            vecs.update(zip(new, _compose(new, token_ids, embedder, buffers=memo.buffers)[0]))
        for (a, b), token in zip(spans, tokens):
            F[a:b, col:] = vecs[token]
        if len(memo) + len(new) > MEMO_TOKENS:
            memo.clear()
        memo.update((t, vecs[t]) for t in new[-MEMO_TOKENS:])
        memo.composed += len(new)
    if memo is not None:
        memo.tokens += len(spans)
        return F, None
    return F, FeatureCache(text=text, ids=ids, spans=spans, composers=composers, width=embedder.feature_width)


def char_features_backward(cache: FeatureCache, dF: Array, embedder: SubwordEmbedder, grads: SubwordEmbedder) -> None:
    """Scatter feature gradients into the embedding tables and composer
    weights of grads, adding to what they hold."""
    if dF.shape != (len(cache.text), cache.width):
        raise LengthMismatch(f"feature grad {dF.shape} vs cache ({len(cache.text)}, {cache.width})")
    dim = embedder.dim
    col = 0
    for n in embedder.orders:
        np.add.at(grads.tables[n], cache.ids[n], dF[:, col : col + dim])
        col += dim
    if embedder.use_composer:
        token_f, token_b = zeros_like(embedder.fwd), zeros_like(embedder.bwd)
        for (a, b), cc in zip(cache.spans, cache.composers):
            d_vec = dF[a:b, col:].sum(axis=0)
            dY = np.zeros((b - a, 2 * dim))
            dY[-1, :dim] = d_vec[:dim]
            dY[0, dim:] = d_vec[dim:]
            dX = bilstm_backward(embedder.fwd, embedder.bwd, cc.lstm, dY, token_f, token_b)
            for total, token in ((grads.fwd, token_f), (grads.bwd, token_b)):
                total.W += token.W
                total.U += token.U
                total.b += token.b
            c2 = 0
            for n in embedder.orders:
                np.add.at(grads.tables[n], cc.ids[n], dX[:, c2 : c2 + dim])
                c2 += dim
