import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charseg.corpus import (
    WHITESPACE,
    DatasetSplit,
    Sentence,
    corpus_stats,
    normalize_text,
    read_labeled,
    segmentation_from_tags,
    split_dataset,
    split_sentences,
    tag_ids,
    tags_from_segmentation,
    tags_to_spans,
    whitespace_flags,
    write_labeled,
)
from charseg.errors import (
    BadEscape,
    BadTag,
    EmptyCorpus,
    InvalidUtf8,
    LengthMismatch,
    SpanViolation,
)
from charseg.synth import labeled_pairs, make_lexicon, make_sentences

from oracles import tags_are_valid


# ---------------------------------------------------------------------------
# whitespace flags
# ---------------------------------------------------------------------------

@given(st.text(alphabet=st.sampled_from([" ", "\t", "\n", "\u00a0", "a", "\u0633", "\u200c", "\U0001d538",
                                           "\U0001f600", "\U00010000", "\ud800"]), max_size=60))
@settings(max_examples=100)
def test_whitespace_flags_match_per_character_membership(text):
    # one flag per character: a non-BMP character is one code point, and a
    # lone surrogate one flag too
    flags = whitespace_flags(text)
    assert flags.dtype == bool
    np.testing.assert_array_equal(flags, np.array([c in WHITESPACE for c in text], dtype=bool))


# ---------------------------------------------------------------------------
# normalize_text
# ---------------------------------------------------------------------------

def test_normalize_collapses_double_space():
    assert normalize_text("ab  c") == "ab c"


def test_normalize_nfc_fixed_point_ascii():
    assert normalize_text("plain ascii text") == "plain ascii text"


def test_normalize_composes_combining_marks():
    # oracle pairs: decomposed input, NFC-composed output
    cases = [
        ("e\u0301", "\u00e9"),       # e + acute
        ("A\u030a", "\u00c5"),       # A + ring
        ("o\u0308", "\u00f6"),       # o + diaeresis
    ]
    for raw, composed in cases:
        assert normalize_text(raw) == composed


def test_normalize_rejects_invalid_utf8():
    with pytest.raises(InvalidUtf8) as exc:
        normalize_text(b"ab\xff\xfecd")
    assert exc.value.position == 2


def test_normalize_crlf_and_space_separators():
    assert normalize_text(b"a\r\nb\rc") == "a\nb\nc"
    assert normalize_text("a\u00a0b\u2003c") == "a b c"


def test_normalize_keeps_zwnj():
    assert normalize_text("ab\u200ccd") == "ab\u200ccd"


def test_normalize_collapses_mixed_whitespace_run():
    assert normalize_text("a \t b") == "a b"
    assert normalize_text("a\t  b") == "a\tb"


# ---------------------------------------------------------------------------
# split_sentences
# ---------------------------------------------------------------------------

def test_split_drops_short_fragment():
    out = list(split_sentences(["w1 w2 w3 w4 w5. w6 w7"]))
    assert out == ["w1 w2 w3 w4 w5."]


def test_split_301_tokens():
    line = " ".join(f"t{i}" for i in range(301))
    out = list(split_sentences([line]))
    assert len(out) == 1
    assert len(out[0].split()) == 300


def test_split_600_tokens():
    line = " ".join(f"t{i}" for i in range(600))
    out = list(split_sentences([line]))
    assert [len(s.split()) for s in out] == [300, 300]


def test_split_dash_only_when_surrounded():
    out = list(split_sentences(["w1 w2 w3 w4 25-06-2020"]))
    assert out == ["w1 w2 w3 w4 25-06-2020"]
    out = list(split_sentences(["w1 w2 w3 w4 w5 - w6 w7 w8 w9 w10"]))
    assert out == ["w1 w2 w3 w4 w5 -", "w6 w7 w8 w9 w10"]


def test_split_preserves_intra_token_punctuation():
    # decimal point, thousands comma, and clock colon are not sentence breaks
    line = "w1 w2 w3 689.0967 1,000 12:30 w4"
    assert list(split_sentences([line])) == [line]


def test_split_trailing_period_still_splits():
    out = list(split_sentences(["a1 a2 a3 a4 689.0967. b1 b2 b3 b4 b5"]))
    assert out == ["a1 a2 a3 a4 689.0967.", "b1 b2 b3 b4 b5"]


def test_split_delimiter_run_stays_attached():
    out = list(split_sentences(["w1 w2 w3 w4 w5!! w6 w7 w8 w9 w10"]))
    assert out == ["w1 w2 w3 w4 w5!!", "w6 w7 w8 w9 w10"]


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=30)
def test_split_bounds_property(n_tokens):
    line = " ".join("w" for _ in range(n_tokens))
    for s in split_sentences([line], min_tokens=5, max_tokens=300):
        k = len(s.split())
        assert 5 <= k <= 300


# ---------------------------------------------------------------------------
# tagging scheme
# ---------------------------------------------------------------------------

def test_date_token_continuous_tags():
    s = Sentence.from_text("25-06-2020")
    assert tags_from_segmentation(s) == "BIIIIIIIIE"


def test_single_char_token():
    assert tags_from_segmentation(Sentence.from_text("a")) == "S"


def test_two_tokens_with_space():
    assert tags_from_segmentation(Sentence.from_text("ab c")) == "BEXS"


def test_span_violation_on_overlap():
    s = Sentence(text="abcd", token_spans=((0, 2), (1, 4)))
    with pytest.raises(SpanViolation):
        tags_from_segmentation(s)


def test_span_violation_on_whitespace_inside():
    s = Sentence(text="a b", token_spans=((0, 3),))
    with pytest.raises(SpanViolation):
        tags_from_segmentation(s)


def test_span_violation_on_uncovered_char():
    s = Sentence(text="ab", token_spans=((0, 1),))
    with pytest.raises(SpanViolation):
        tags_from_segmentation(s)


def test_segmentation_inverse_simple():
    tokens, repairs = segmentation_from_tags("ab c", "BEXS")
    assert tokens == ["ab", "c"]
    assert repairs == 0


def test_segmentation_repairs_unclosed_run():
    tokens, repairs = segmentation_from_tags("abc", "BII")
    assert tokens == ["abc"]
    assert repairs == 1


def test_segmentation_length_mismatch():
    with pytest.raises(LengthMismatch):
        segmentation_from_tags("abc", "BE")


def test_segmentation_repair_cases():
    # orphan I opens a token implicitly, end-of-sequence closes it
    tokens, repairs = segmentation_from_tags("a", "I")
    assert tokens == ["a"]
    assert repairs == 2
    # B interrupted by another B
    tokens, repairs = segmentation_from_tags("abcd", "BIBE")
    assert tokens == ["ab", "cd"]
    assert repairs == 1


def test_round_trip_thousand_random_sentences():
    lexicon = make_lexicon(n_words=40, seed=5)
    lines = make_sentences(lexicon, 1000, seed=6, separators=(" ", " ", "\t"))
    for s, tags in labeled_pairs(lines):
        assert tags_are_valid(tags)
        tokens, repairs = segmentation_from_tags(s.text, tags)
        assert repairs == 0
        assert tokens == s.tokens()


@given(st.lists(st.sampled_from(["a", "bc", "def", "ghij"]), min_size=1, max_size=8))
def test_round_trip_property(words):
    text = " ".join(words)
    s = Sentence.from_text(text)
    tags = tags_from_segmentation(s)
    assert tags_are_valid(tags)
    tokens, repairs = segmentation_from_tags(text, tags)
    assert repairs == 0
    assert tokens == words


def test_tag_ids_round_trip():
    ids = tag_ids("BIESX")
    np.testing.assert_array_equal(ids, [0, 1, 2, 3, 4])


# ---------------------------------------------------------------------------
# split_dataset
# ---------------------------------------------------------------------------

def test_split_ten_sentences():
    items = list(range(10))
    split = split_dataset(items, seed=7)
    assert (len(split.train), len(split.dev), len(split.test)) == (8, 1, 1)


def test_split_deterministic():
    items = list(range(50))
    a = split_dataset(items, seed=3)
    b = split_dataset(items, seed=3)
    assert a.train == b.train and a.dev == b.dev and a.test == b.test


def test_split_partition_property():
    items = list(range(137))
    split = split_dataset(items, seed=1)
    all_items = split.train + split.dev + split.test
    assert sorted(all_items) == items
    assert len(set(all_items)) == len(items)


def test_split_corpus_scale_counts():
    # 91,753 sentences split 80/10/10 -> 73,402 / 9,175 / 9,176
    split = split_dataset(list(range(91_753)), seed=0)
    assert len(split.train) == 73_402
    assert len(split.dev) == 9_175
    assert len(split.test) == 9_176


def test_split_empty_raises():
    with pytest.raises(EmptyCorpus):
        split_dataset([], seed=0)


def test_split_bad_ratios():
    with pytest.raises(ValueError):
        split_dataset([1, 2], ratios=(0.5, 0.2, 0.2), seed=0)


# ---------------------------------------------------------------------------
# labeled file format
# ---------------------------------------------------------------------------

def test_write_labeled_exact_bytes(tmp_path):
    path = tmp_path / "x.tsv"
    s = Sentence.from_text("ab c")
    write_labeled(path, [(s, "BEXS")])
    content = path.read_text(encoding="utf-8")
    assert content == "a\tB\nb\tE\n\\s\tX\nc\tS\n\n"
    assert content.split("\n")[2] == "\\s\tX"


def test_labeled_round_trip(tmp_path):
    lexicon = make_lexicon(n_words=30, seed=9)
    lines = make_sentences(lexicon, 60, seed=10, separators=(" ", "\t"))
    pairs = labeled_pairs(lines)
    path = tmp_path / "corpus.tsv"
    write_labeled(path, pairs)
    back = read_labeled(path)
    assert len(back) == len(pairs)
    for (s1, t1), (s2, t2) in zip(pairs, back):
        assert s1.text == s2.text
        assert t1 == t2


def test_read_rejects_unknown_tag(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tB\nb\tQ\n\n", encoding="utf-8")
    with pytest.raises(BadTag) as exc:
        read_labeled(path)
    assert exc.value.line == 2


def test_read_rejects_bad_escape(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("\\q\tB\n\n", encoding="utf-8")
    with pytest.raises(BadEscape) as exc:
        read_labeled(path)
    assert exc.value.line == 1


def test_read_rejects_missing_tab(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("aB\n\n", encoding="utf-8")
    with pytest.raises(BadTag):
        read_labeled(path)


def test_write_read_backslash_char(tmp_path):
    path = tmp_path / "esc.tsv"
    s = Sentence.from_text("a\\b")
    write_labeled(path, [(s, "BIE")])
    [(back, tags)] = read_labeled(path)
    assert back.text == "a\\b"
    assert tags == "BIE"


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def test_corpus_stats_hand_counts():
    sents = [Sentence.from_text("ab cde ab"), Sentence.from_text("x yz")]
    stats = corpus_stats(sents)
    assert stats.sentences == 2
    assert stats.tokens == 5
    assert stats.unique_words == 4  # ab cde x yz
    assert stats.avg_word_length == pytest.approx((2 + 3 + 2 + 1 + 2) / 5)


def test_tags_to_spans_positions():
    spans, repairs = tags_to_spans("BEXSXBIE")
    assert spans == [(0, 2), (3, 4), (5, 8)]
    assert repairs == 0
