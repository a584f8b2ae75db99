"""Corpus pipeline: normalization, sentence splitting, the five-tag boundary
scheme, dataset splits, and the character-per-line labeled file format.

Tags label each character of a sentence: B/I/E mark the beginning, inside
and end of a multi-character token, S a single-character token, X a
whitespace character. A tag sequence is well formed when every maximal
non-X run matches ``S`` or ``B I* E`` and X appears exactly at whitespace.

Every function here is pure or stream-transforming with no shared mutable
state, so independent shards can be processed in parallel; only the file
writers serialize.
"""

from __future__ import annotations

import contextlib
import functools
import os
import unicodedata
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .errors import BadEscape, BadTag, EmptyCorpus, InvalidUtf8, LengthMismatch, SpanViolation

TAGS = ("B", "I", "E", "S", "X")
TAG_TO_ID = {t: i for i, t in enumerate(TAGS)}
N_TAGS = len(TAGS)

# whitespace class: everything else in Zs is folded to U+0020 by normalize_text
WHITESPACE = frozenset({" ", "\t"})

# sentence delimiters; dash splits only when surrounded by whitespace so
# intra-token hyphens (dates, ranges) survive
DELIMITERS = frozenset({".", ",", "?", ":", ";", "!"})
DASH = "-"


def whitespace_flags(text: str) -> np.ndarray:
    """Per character of text, whether it is in WHITESPACE: one comparison
    per whitespace character over the text's code points."""
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    return functools.reduce(np.logical_or, [codes == ord(c) for c in sorted(WHITESPACE)])


def normalize_text(raw: bytes | str) -> str:
    """Canonicalize raw input text.

    Strict UTF-8 decode, NFC normalization, CR/LF to LF, every other
    Unicode space separator to U+0020, and runs of space/tab collapsed to
    their first character. Codepoints stay in logical order.
    """
    if isinstance(raw, bytes):
        try:
            text = raw.decode("utf-8", errors="strict")
        except UnicodeDecodeError as exc:
            raise InvalidUtf8(exc.start, exc.reason) from None
    else:
        text = raw
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    text = unicodedata.normalize("NFC", text)
    text = "".join(
        " " if (ch != " " and unicodedata.category(ch) == "Zs") else ch for ch in text
    )
    out: list[str] = []
    prev_ws = False
    for ch in text:
        ws = ch in WHITESPACE
        if ws and prev_ws:
            continue
        out.append(ch)
        prev_ws = ws
    return "".join(out)


def utf8_lines(path, newline: str | None = None) -> Iterator[tuple[int, str]]:
    """(line number from 1, line) over a UTF-8 text file, opened with the
    given newline mode. A line holding bytes that are not UTF-8 raises
    InvalidUtf8 naming the line and the byte offset within it."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline=newline) as f:
        for line_no, line in enumerate(f, start=1):
            if not line.isascii():
                # only the escapes of undecodable bytes fail to encode
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    try:
                        line.encode("utf-8", "surrogateescape").decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise InvalidUtf8(exc.start, exc.reason, line=line_no) from None
            yield line_no, line


@contextlib.contextmanager
def replace_on_success(path, mode: str, **open_kwargs) -> Iterator[IO]:
    """Write through a temp file beside path, moved onto it when the block
    completes: a run failing midway leaves no partial file and no temp
    file. An existing path that is not a regular file is written directly."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode, **open_kwargs) as f:
            yield f
        return
    target = os.path.realpath(path)  # replace a symlink's target, not the link
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as f:
            yield f
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _token_spans(text: str) -> list[tuple[int, int]]:
    """Half-open spans of maximal non-whitespace runs."""
    spans = []
    start = None
    for i, ch in enumerate(text):
        if ch in WHITESPACE:
            if start is not None:
                spans.append((start, i))
                start = None
        elif start is None:
            start = i
    if start is not None:
        spans.append((start, len(text)))
    return spans


def split_sentences(lines: Iterable[str], min_tokens: int = 5, max_tokens: int = 300) -> Iterator[str]:
    """Split lines at delimiter runs and enforce token-count bounds.

    A maximal run of delimiter characters splits the line only when it is
    followed by whitespace or end of line, so decimals (689.0967), dates
    (25-06-2020) and times survive as single tokens; a dash-only run
    additionally needs whitespace before it. The delimiter run stays
    attached to the preceding fragment. Fragments with fewer than
    min_tokens whitespace-delimited tokens are dropped; fragments over
    max_tokens are re-split at the whitespace boundary nearest max_tokens
    from below, and each piece is re-filtered.
    """
    charset = DELIMITERS | {DASH}
    for line in lines:
        start = 0
        i = 0
        n = len(line)
        fragments = []
        while i < n:
            if line[i] in charset:
                j = i
                while j < n and line[j] in charset:
                    j += 1
                followed_by_ws = j >= n or line[j] in WHITESPACE
                has_hard = any(c in DELIMITERS for c in line[i:j])
                dash_split = not has_hard and i > 0 and line[i - 1] in WHITESPACE
                if followed_by_ws and (has_hard or dash_split):
                    fragments.append(line[start:j])
                    start = j
                i = j
            else:
                i += 1
        if start < n:
            fragments.append(line[start:])
        for frag in fragments:
            frag = frag.strip()
            if not frag:
                continue
            spans = _token_spans(frag)
            if len(spans) > max_tokens:
                for k in range(0, len(spans), max_tokens):
                    chunk_spans = spans[k : k + max_tokens]
                    if len(chunk_spans) < min_tokens:
                        continue
                    yield frag[chunk_spans[0][0] : chunk_spans[-1][1]]
            elif len(spans) >= min_tokens:
                yield frag


@dataclass(frozen=True)
class Sentence:
    """Characters in logical order plus optional gold token spans (half-open)."""

    text: str
    token_spans: tuple[tuple[int, int], ...] | None = None

    @classmethod
    def from_text(cls, text: str) -> "Sentence":
        return cls(text=text, token_spans=tuple(_token_spans(text)))

    def tokens(self) -> list[str]:
        if self.token_spans is None:
            return [self.text[a:b] for a, b in _token_spans(self.text)]
        return [self.text[a:b] for a, b in self.token_spans]

    def __len__(self) -> int:
        return len(self.text)


def tags_from_segmentation(sentence: Sentence) -> str:
    """Gold tags from token spans: 1-char token S, longer B I* E, whitespace X."""
    if sentence.token_spans is None:
        raise SpanViolation("sentence has no token spans")
    text = sentence.text
    tags = ["X"] * len(text)
    prev_end = 0
    for start, end in sentence.token_spans:
        if start < prev_end or start >= end or end > len(text):
            raise SpanViolation(f"bad span ({start}, {end})")
        for i in range(prev_end, start):
            if text[i] not in WHITESPACE:
                raise SpanViolation(f"character at {i} outside any span")
        span_text = text[start:end]
        if any(ch in WHITESPACE for ch in span_text):
            raise SpanViolation(f"span ({start}, {end}) covers whitespace")
        if end - start == 1:
            tags[start] = "S"
        else:
            tags[start] = "B"
            for i in range(start + 1, end - 1):
                tags[i] = "I"
            tags[end - 1] = "E"
        prev_end = end
    for i in range(prev_end, len(text)):
        if text[i] not in WHITESPACE:
            raise SpanViolation(f"character at {i} outside any span")
    return "".join(tags)


def tags_to_spans(tags: str) -> tuple[list[tuple[int, int]], int]:
    """Token spans implied by a tag string, with grammar repairs counted.

    A boundary closes after E and S, before and after X, before any B/S/X
    that interrupts an open token, and at end of sequence. Each forced
    close or implicit open of an ill-formed run counts as one repair.
    """
    spans: list[tuple[int, int]] = []
    repairs = 0
    open_start: int | None = None
    for i, tag in enumerate(tags):
        if tag not in TAG_TO_ID:
            raise ValueError(f"unknown tag {tag!r} at position {i}")
        if tag == "X":
            if open_start is not None:
                spans.append((open_start, i))
                open_start = None
                repairs += 1
        elif tag == "S":
            if open_start is not None:
                spans.append((open_start, i))
                open_start = None
                repairs += 1
            spans.append((i, i + 1))
        elif tag == "B":
            if open_start is not None:
                spans.append((open_start, i))
                repairs += 1
            open_start = i
        elif tag == "I":
            if open_start is None:
                open_start = i
                repairs += 1
        else:  # E
            if open_start is None:
                open_start = i
                repairs += 1
            spans.append((open_start, i + 1))
            open_start = None
    if open_start is not None:
        spans.append((open_start, len(tags)))
        repairs += 1
    return spans, repairs


def segmentation_from_tags(chars: str, tags: str) -> tuple[list[str], int]:
    """Inverse of the tagging scheme; X characters become separators."""
    if len(chars) != len(tags):
        raise LengthMismatch(f"{len(chars)} characters vs {len(tags)} tags")
    spans, repairs = tags_to_spans(tags)
    return [chars[a:b] for a, b in spans], repairs


def tag_ids(tags: str) -> np.ndarray:
    return np.array([TAG_TO_ID[t] for t in tags], dtype=np.int64)


def ids_to_tags(ids: Sequence[int]) -> str:
    return "".join(TAGS[i] for i in ids)


# ---------------------------------------------------------------------------
# dataset split
# ---------------------------------------------------------------------------

@dataclass
class DatasetSplit:
    train: list
    dev: list
    test: list


def split_dataset(items: Sequence, ratios: tuple[float, float, float] = (0.8, 0.1, 0.1), seed: int = 0) -> DatasetSplit:
    """Seeded shuffle, then contiguous partition with floor-sized train/dev."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {ratios}")
    n = len(items)
    if n == 0:
        raise EmptyCorpus("cannot split an empty corpus")
    order = np.random.default_rng(seed).permutation(n)
    shuffled = [items[i] for i in order]
    n_train = int(n * ratios[0])
    n_dev = int(n * ratios[1])
    return DatasetSplit(
        train=shuffled[:n_train],
        dev=shuffled[n_train : n_train + n_dev],
        test=shuffled[n_train + n_dev :],
    )


# ---------------------------------------------------------------------------
# labeled file format: one `<char>\t<tag>` line per character, blank line
# between sentences, whitespace escaped so the file stays grep-able
# ---------------------------------------------------------------------------

_ESCAPE = {" ": "\\s", "\t": "\\t", "\\": "\\\\"}
_UNESCAPE = {"\\s": " ", "\\t": "\t", "\\\\": "\\"}


def _escape_char(ch: str) -> str:
    return _ESCAPE.get(ch, ch)


def _unescape_char(fieldtext: str, line_no: int) -> str:
    if len(fieldtext) == 1 and fieldtext != "\\":
        return fieldtext
    if fieldtext in _UNESCAPE:
        return _UNESCAPE[fieldtext]
    raise BadEscape(line_no, f"bad character field {fieldtext!r}")


def labeled_block(text: str, tags: str) -> str:
    """One sentence in the labeled format: its character lines and the blank line after them."""
    if len(text) != len(tags):
        raise LengthMismatch(f"{len(text)} characters vs {len(tags)} tags")
    return "".join(f"{_escape_char(ch)}\t{tag}\n" for ch, tag in zip(text, tags)) + "\n"


def write_labeled(path, pairs: Iterable[tuple[Sentence, str]]) -> None:
    with replace_on_success(path, "w", encoding="utf-8", newline="\n") as f:
        for sentence, tags in pairs:
            f.write(labeled_block(sentence.text, tags))


def read_labeled(path) -> list[tuple[Sentence, str]]:
    pairs: list[tuple[Sentence, str]] = []
    chars: list[str] = []
    tags: list[str] = []

    def flush() -> None:
        if chars:
            tag_str = "".join(tags)
            spans, _ = tags_to_spans(tag_str)
            pairs.append((Sentence(text="".join(chars), token_spans=tuple(spans)), tag_str))
            chars.clear()
            tags.clear()

    for line_no, line in utf8_lines(path, newline="\n"):
        line = line.rstrip("\n")
        if not line:
            flush()
            continue
        if "\t" not in line:
            raise BadTag(line_no, "expected <char>\\t<tag>")
        fieldtext, tag = line.split("\t", 1)
        if tag not in TAG_TO_ID:
            raise BadTag(line_no, f"unknown tag {tag!r}")
        chars.append(_unescape_char(fieldtext, line_no))
        tags.append(tag)
    flush()
    return pairs


# ---------------------------------------------------------------------------
# corpus statistics
# ---------------------------------------------------------------------------

@dataclass
class CorpusStats:
    sentences: int = 0
    tokens: int = 0
    unique_words: int = 0
    avg_word_length: float = 0.0

    def format(self) -> str:
        return (
            f"sentences        {self.sentences}\n"
            f"tokens           {self.tokens}\n"
            f"unique words     {self.unique_words}\n"
            f"avg word length  {self.avg_word_length:.3f}"
        )


def corpus_stats(sentences: Iterable[Sentence]) -> CorpusStats:
    n_sent = 0
    n_tok = 0
    total_len = 0
    seen: set[str] = set()
    for s in sentences:
        n_sent += 1
        for tok in s.tokens():
            n_tok += 1
            total_len += len(tok)
            seen.add(tok)
    return CorpusStats(
        sentences=n_sent,
        tokens=n_tok,
        unique_words=len(seen),
        avg_word_length=(total_len / n_tok) if n_tok else 0.0,
    )
