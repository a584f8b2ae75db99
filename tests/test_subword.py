import copy
import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charseg import subword
from charseg.errors import EmptyCorpus, UninitializedEmbedder
from charseg.subword import (
    FILLER,
    PAD_ID,
    SPACE_ID,
    UNK_ID,
    NgramVocab,
    TokenMemo,
    anchored_ngrams,
    build_vocab,
    char_features_backward,
    char_features_cached,
)

from oracles import (
    char_features,
    char_features_backward_from_ids,
    char_features_cached_from_ids,
    compose_subword,
    embedder_init,
    extract_ngrams,
    grad_check,
    lookup,
    named,
    zeros_like,
)


def small_vocab(sentences=("ab abc a", "abc ab")):
    return build_vocab(sentences, min_freq={1: 1, 2: 1, 3: 1, 4: 1})


def embedder_tensors(emb):
    """Tables, then composer weights, under their checkpoint names."""
    return {**{f"emb.{n}": emb.tables[n] for n in emb.orders},
            **named(emb.fwd, "composer.fwd."), **named(emb.bwd, "composer.bwd.")}


# ---------------------------------------------------------------------------
# n-gram extraction
# ---------------------------------------------------------------------------

def test_extract_bigrams():
    assert extract_ngrams("abc", 2) == ["ab", "bc"]


def test_extract_short_token_padded():
    grams = extract_ngrams("a", 3)
    assert grams == ["a" + FILLER * 2]


def test_extract_counts_four_char_word():
    word = "wxyz"
    assert len(extract_ngrams(word, 1)) == 4
    assert len(extract_ngrams(word, 2)) == 3
    assert len(extract_ngrams(word, 3)) == 2
    assert len(extract_ngrams(word, 4)) == 1


@given(st.text(alphabet="abcdef", min_size=1, max_size=10), st.integers(min_value=1, max_value=4))
def test_extract_count_invariant(token, n):
    assert len(extract_ngrams(token, n)) == max(1, len(token) - n + 1)


def test_anchored_one_window_per_position():
    grams = anchored_ngrams("abc", 2)
    assert grams == ["ab", "bc", "c" + FILLER]


# ---------------------------------------------------------------------------
# vocab
# ---------------------------------------------------------------------------

def test_vocab_frequent_unigrams_present():
    vocab = build_vocab(["ab ab"], min_freq={1: 2, 2: 2, 3: 2, 4: 2})
    assert lookup(vocab, 1, "a") != UNK_ID
    assert lookup(vocab, 1, "b") != UNK_ID


def test_vocab_rare_bigrams_unk():
    vocab = build_vocab(["ab cd"], min_freq={1: 1, 2: 2, 3: 2, 4: 2})
    assert lookup(vocab, 2, "ab") == UNK_ID
    assert lookup(vocab, 2, "cd") == UNK_ID


def test_vocab_brute_force_recount():
    sentences = ["ab abc a ab", "abc cab ab"]
    min_freq = {1: 1, 2: 2, 3: 1, 4: 1}
    vocab = build_vocab(sentences, min_freq=min_freq)
    # independent pass: count anchored windows per order with a Counter
    for n in (1, 2, 3, 4):
        counts = Counter()
        for text in sentences:
            for token in text.split():
                for gram in anchored_ngrams(token, n):
                    counts[gram] += 1
        qualifying = {g for g, c in counts.items() if c >= min_freq[n]}
        assert set(vocab.maps[n]) == qualifying
        for g in qualifying:
            assert vocab.freqs[n][g] == counts[g]


def test_vocab_ids_dense_and_stable():
    vocab = small_vocab()
    for n in vocab.orders:
        ids = sorted(vocab.maps[n].values())
        base = ids[0] if ids else None
        if ids:
            assert ids == list(range(base, base + len(ids)))
    before = lookup(vocab, 2, "zz")
    assert before == UNK_ID
    assert lookup(vocab, 2, "zz") == UNK_ID  # lookup never mutates


def test_vocab_empty_corpus():
    with pytest.raises(EmptyCorpus):
        build_vocab([""])


def test_vocab_save_load_round_trip(tmp_path):
    vocab = small_vocab()
    path = tmp_path / "vocab.tsv"
    vocab.save(path)
    back = NgramVocab.load(path)
    assert back.orders == vocab.orders
    assert back.maps == vocab.maps
    assert back.freqs == vocab.freqs
    assert back.min_freq == vocab.min_freq
    assert back.sha256() == vocab.sha256()


def test_vocab_space_unigram_id():
    vocab = small_vocab()
    assert vocab.unigram_id(" ") == SPACE_ID
    assert vocab.unigram_id("\t") == SPACE_ID


def test_vocab_round_trip_with_empty_order(tmp_path):
    # a threshold nothing reaches leaves an order with zero kept entries
    vocab = build_vocab(["ab cd"], min_freq={1: 1, 2: 1, 3: 1, 4: 99})
    assert vocab.maps[4] == {}
    path = tmp_path / "v.tsv"
    vocab.save(path)
    back = NgramVocab.load(path)
    assert back.maps == vocab.maps
    assert back.sha256() == vocab.sha256()


def test_vocab_load_rejects_garbage(tmp_path):
    from charseg.errors import BadTag

    path = tmp_path / "v.tsv"
    path.write_text("#charseg-vocab\t1\n1\ta\tnot_an_id\t3\n", encoding="utf-8")
    with pytest.raises(BadTag):
        NgramVocab.load(path)


@pytest.mark.parametrize("order", [0, 7, -1])
def test_vocab_load_rejects_order_without_min_freq(tmp_path, order):
    # such a line used to load and be dropped from sha256 and save, so the
    # file passed a checkpoint's vocabulary check
    from charseg.errors import BadTag

    path = tmp_path / "v.tsv"
    small_vocab().save(path)
    n_lines = len(path.read_text(encoding="utf-8").splitlines())
    with path.open("a", encoding="utf-8") as f:
        f.write(f"{order}\tq\t2\t1\n")
    with pytest.raises(BadTag, match=f"line {n_lines + 1}: order-{order} n-gram without a #min_freq line"):
        NgramVocab.load(path)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_compose_zero_params_zero_output(rng):
    vocab = small_vocab()
    emb = embedder_init(vocab, dim=4, rng=rng)
    for n in emb.orders:
        emb.tables[n][:] = 0.0
    for p in (emb.fwd, emb.bwd):
        for arr in named(p).values():
            arr[:] = 0.0
    vec = compose_subword("abc", vocab, emb)
    np.testing.assert_array_equal(vec, np.zeros(8))


def test_compose_single_char_token(rng):
    vocab = small_vocab()
    emb = embedder_init(vocab, dim=4, rng=rng)
    vec = compose_subword("a", vocab, emb)
    assert vec.shape == (8,)
    assert np.all(np.isfinite(vec))


def test_compose_scalar_oracle():
    """1-dimensional tables and composer, checked with plain scalar math."""
    vocab = build_vocab(["ab"], min_freq={1: 1, 2: 1}, orders=(1, 2))
    emb = embedder_init(vocab, dim=1, orders=(1, 2), rng=np.random.default_rng(0))
    # hand-set every embedding row and weight
    emb.tables[1][:] = 0.0
    emb.tables[1][lookup(vocab, 1, "a")] = 0.3
    emb.tables[1][lookup(vocab, 1, "b")] = -0.2
    emb.tables[2][:] = 0.0
    emb.tables[2][lookup(vocab, 2, "ab")] = 0.5
    emb.tables[2][lookup(vocab, 2, "b" + FILLER)] = 0.1
    w = dict(W_i=0.2, U_i=(0.4, -0.3), b_i=0.05, W_f=-0.1, U_f=(0.2, 0.6), b_f=0.1,
             W_c=0.3, U_c=(-0.5, 0.2), b_c=0.0, W_o=0.15, U_o=(0.3, 0.1), b_o=-0.05)
    for p in (emb.fwd, emb.bwd):  # gate k is row k of the stacked W, U and b
        for k, gate in enumerate("ifco"):
            p.W[k], p.U[k], p.b[k] = w[f"W_{gate}"], w[f"U_{gate}"], w[f"b_{gate}"]

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    def scalar_lstm(inputs):
        h = c = 0.0
        for x1, x2 in inputs:
            i = sig(w["W_i"] * h + w["U_i"][0] * x1 + w["U_i"][1] * x2 + w["b_i"])
            f = sig(w["W_f"] * h + w["U_f"][0] * x1 + w["U_f"][1] * x2 + w["b_f"])
            g = math.tanh(w["W_c"] * h + w["U_c"][0] * x1 + w["U_c"][1] * x2 + w["b_c"])
            o = sig(w["W_o"] * h + w["U_o"][0] * x1 + w["U_o"][1] * x2 + w["b_o"])
            c = f * c + i * g
            h = o * math.tanh(c)
        return h

    # per-position inputs: (unigram, anchored bigram) for "ab"
    seq = [(0.3, 0.5), (-0.2, 0.1)]
    expect_fwd = scalar_lstm(seq)
    expect_bwd = scalar_lstm(seq[::-1])
    vec = compose_subword("ab", vocab, emb)
    assert vec[0] == pytest.approx(expect_fwd, abs=1e-14)
    assert vec[1] == pytest.approx(expect_bwd, abs=1e-14)


def test_compose_permutation_sensitive(rng):
    vocab = build_vocab(["ab ba"], min_freq={1: 1, 2: 1, 3: 1, 4: 1})
    emb = embedder_init(vocab, dim=4, rng=rng)
    v1 = compose_subword("ab", vocab, emb)
    v2 = compose_subword("ba", vocab, emb)
    assert not np.allclose(v1, v2)


def test_compose_requires_composer(rng):
    vocab = small_vocab()
    emb = embedder_init(vocab, dim=4, use_composer=False, rng=rng)
    with pytest.raises(UninitializedEmbedder):
        compose_subword("ab", vocab, emb)


def test_compose_mismatched_vocab(rng):
    vocab = small_vocab()
    other = build_vocab(["xx yy zz ww qq rr ss tt uu vv"], min_freq={1: 1, 2: 1, 3: 1, 4: 1})
    emb = embedder_init(vocab, dim=4, rng=rng)
    with pytest.raises(UninitializedEmbedder):
        compose_subword("ab", other, emb)


# ---------------------------------------------------------------------------
# char_features
# ---------------------------------------------------------------------------

def test_features_shape_default_width(rng):
    vocab = small_vocab()
    emb = embedder_init(vocab, dim=64, rng=rng)
    F = char_features("ab abc", vocab, emb)
    assert F.shape == (6, 384)


def test_features_identical_tokens_identical_rows(rng):
    vocab = small_vocab()
    emb = embedder_init(vocab, dim=8, rng=rng)
    text = "ab ab"
    F = char_features(text, vocab, emb)
    emb_cols = slice(4 * 8, None)
    np.testing.assert_array_equal(F[0, emb_cols], F[3, emb_cols])
    np.testing.assert_array_equal(F[1, emb_cols], F[4, emb_cols])


def test_features_whitespace_rows(rng):
    vocab = small_vocab()
    emb = embedder_init(vocab, dim=8, rng=rng)
    F = char_features("ab c", vocab, emb)
    space_row = F[2]
    np.testing.assert_array_equal(space_row[:8], emb.tables[1][SPACE_ID])
    np.testing.assert_array_equal(space_row[8:16], emb.tables[2][PAD_ID])
    np.testing.assert_array_equal(space_row[32:], np.zeros(16))


def test_features_unseen_characters_finite(rng):
    vocab = small_vocab()
    emb = embedder_init(vocab, dim=8, rng=rng)
    F = char_features("zzz qq", vocab, emb)
    assert F.shape == (6, emb.feature_width)
    assert np.all(np.isfinite(F))


def test_features_perturbation_locality(rng):
    vocab = build_vocab(["ab cd"], min_freq={1: 1, 2: 1, 3: 1, 4: 1})
    emb = embedder_init(vocab, dim=4, use_composer=False, rng=rng)
    text = "ab cd"
    F0 = char_features(text, vocab, emb)
    emb.tables[1][lookup(vocab, 1, "c")] += 1.0
    F1 = char_features(text, vocab, emb)
    changed = np.flatnonzero(np.any(F0 != F1, axis=1))
    np.testing.assert_array_equal(changed, [3])  # only the row whose window covers "c"


def test_features_backward_grad_check(rng):
    vocab = small_vocab()
    emb = embedder_init(vocab, dim=3, rng=rng)
    text = "ab abc"
    params = embedder_tensors(emb)
    W = rng.normal(size=(emb.feature_width,))

    def loss_and_grads():
        F, cache = char_features_cached(text, vocab, emb)
        loss = float(((F @ W) ** 2).sum())
        dF = 2 * (F @ W)[:, None] * W[None, :]
        grads = dataclasses.replace(emb, tables={n: np.zeros_like(t) for n, t in emb.tables.items()},
                                    fwd=zeros_like(emb.fwd), bwd=zeros_like(emb.bwd))
        char_features_backward(cache, dF, emb, grads)
        return loss, embedder_tensors(grads)

    report = grad_check(loss_and_grads, params, n_per_tensor=5, seed=3)
    assert report.passed, str(report)


def test_features_empty_text(rng):
    vocab = small_vocab()
    emb = embedder_init(vocab, dim=4, rng=rng)
    F = char_features("", vocab, emb)
    assert F.shape == (0, emb.feature_width)


# words over the vocabulary's letters plus unseen ones ("q", "z"), so some
# windows are UNK; "bcabcab" and fused runs make long composer tokens
FEATURE_WORDS = ["ab", "abc", "a", "ba", "cab", "zq", "bcabcab"]


@st.composite
def feature_texts(draw):
    """Spaced text whose tokens repeat, or fused text: words run together
    into long tokens, with an occasional space or a double one."""
    words = draw(st.lists(st.sampled_from(FEATURE_WORDS), min_size=1, max_size=9))
    gaps = ["", "", "", " ", "  "] if draw(st.booleans()) else [" "]
    seps = draw(st.lists(st.sampled_from(gaps), min_size=len(words) - 1, max_size=len(words) - 1))
    return words[0] + "".join(s + w for s, w in zip(seps, words[1:]))


@st.composite
def composer_texts(draw):
    """Tokens over a three-letter alphabet, so that they repeat, of one
    character up to long ones, run together or spaced by one or two
    spaces."""
    tokens = draw(st.lists(st.text(alphabet="abz", min_size=1, max_size=14), min_size=1, max_size=8))
    seps = draw(st.lists(st.sampled_from(["", " ", "  "]), min_size=len(tokens) - 1, max_size=len(tokens) - 1))
    return tokens[0] + "".join(s + t for s, t in zip(seps, tokens[1:]))


@settings(max_examples=120, deadline=None)
@given(text=feature_texts() | composer_texts(), dim=st.sampled_from([1, 2, 3, 5]), seed=st.integers(0, 2**16))
def test_features_and_gradients_match_per_occurrence_reference(text, dim, seed):
    # training's one packed composer pass over every span and its one
    # packed backward keep the bytes of the reference that gathers composer
    # inputs from n-gram ids, runs one composer pass and one backward per
    # occurrence and scatters their gradients in a second loop: F, every
    # table gradient and the composer's weight gradients, also where a
    # dropped composer column of dF holds signed zeros
    vocab = small_vocab(("ab abc a ba", "cab abc ab"))
    emb = embedder_init(vocab, dim=dim, rng=np.random.default_rng(seed))
    F, cache = char_features_cached(text, vocab, emb)
    F_ref, cache_ref = char_features_cached_from_ids(text, vocab, emb)
    assert F.tobytes() == F_ref.tobytes()
    rng = np.random.default_rng(seed + 1)
    dF = rng.normal(size=F.shape) * (rng.random(F.shape[1]) < 0.75)
    # backward adds to what the tables hold
    grads = dataclasses.replace(emb, tables={n: rng.normal(size=t.shape) for n, t in emb.tables.items()},
                                fwd=zeros_like(emb.fwd), bwd=zeros_like(emb.bwd))
    grads_ref = copy.deepcopy(grads)
    char_features_backward(cache, dF, emb, grads)
    char_features_backward_from_ids(cache_ref, dF, emb, grads_ref)
    ref = embedder_tensors(grads_ref)
    for name, g in embedder_tensors(grads).items():
        assert g.tobytes() == ref[name].tobytes(), name


@settings(max_examples=40, deadline=None)
@given(batches=st.lists(st.lists(feature_texts(), min_size=1, max_size=3), min_size=1, max_size=3),
       seed=st.integers(0, 2**16))
def test_memo_features_match_per_occurrence_reference(batches, seed):
    # batches of texts through one memo each: distinct rows whose gather by
    # the row index has the reference's F bytes, and its memo contents and counts
    vocab = small_vocab(("ab abc a ba", "cab abc ab"))
    emb = embedder_init(vocab, dim=3, rng=np.random.default_rng(seed))
    memo, memo_ref = TokenMemo(), TokenMemo()
    for texts in batches:
        rows, index = char_features_cached(texts, vocab, emb, memo)
        F_ref, _ = char_features_cached_from_ids(texts, vocab, emb, memo_ref)
        tokens = {w for t in texts for w in t.split()}
        assert len(rows) == sum(map(len, tokens)) + any(c.isspace() for t in texts for c in t)
        assert rows[index].tobytes() == F_ref.tobytes()
        assert (memo.tokens, memo.composed) == (memo_ref.tokens, memo_ref.composed)
        assert list(memo) == list(memo_ref)
        assert all(memo[t].tobytes() == memo_ref[t].tobytes() for t in memo)


def test_training_composes_every_span_in_one_call(rng, monkeypatch):
    # one packed composer pass over all spans, one sequence each; a
    # token's spans compose to the same bits
    vocab = small_vocab()
    emb = embedder_init(vocab, dim=4, rng=rng)
    compose, calls = subword.bilstm_forward, []

    def counting(*args, **kwargs):
        calls.append(args)
        return compose(*args, **kwargs)

    monkeypatch.setattr(subword, "bilstm_forward", counting)
    F, cache = char_features_cached(" ".join(["abc"] * 4), vocab, emb)
    assert len(calls) == 1 and calls[0][4] == [3, 3, 3, 3]
    assert cache.composer[0].X.shape == (12, emb.ngram_width)
    for lo in (4, 8, 12):
        assert F[lo : lo + 3].tobytes() == F[:3].tobytes()
