import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charseg.corpus import TAG_TO_ID, ids_to_tags
from charseg.crf import (
    CrfParams,
    grammar_mask,
    nll_loss,
    viterbi_decode,
)
from charseg.errors import LengthMismatch, NoAllowedPath

from oracles import (
    InstanceTooLarge,
    brute_force_paths,
    grammar_mask_per_position,
    log_partition,
    mask_from_bool,
    nll_loss_stepwise,
    sequence_score,
    tags_are_valid,
    tags_match_whitespace,
    viterbi_decode_stepwise,
)

K = 5


def zero_params():
    return CrfParams(transitions=np.zeros((K, K)), start=np.zeros(K))


def random_params(rng, scale=1.0):
    return CrfParams(
        transitions=rng.normal(size=(K, K)) * scale,
        start=rng.normal(size=K) * scale,
    )


def random_mask(rng, L):
    """A random mask that always keeps at least one complete path."""
    start = rng.random(K) < 0.7
    end = rng.random(K) < 0.7
    trans = rng.random((K, K)) < 0.7
    positions = rng.random((L, K)) < 0.8
    safe = int(rng.integers(0, K))
    start[safe] = True
    end[safe] = True
    trans[safe, safe] = True
    positions[:, safe] = True
    return mask_from_bool(start, end, trans, positions)


# ---------------------------------------------------------------------------
# sequence_score
# ---------------------------------------------------------------------------

def test_score_single_position_zero_start(rng):
    emissions = rng.normal(size=(1, K))
    tags = np.array([3])
    assert sequence_score(emissions, tags, zero_params()) == pytest.approx(emissions[0, 3])


def test_score_all_zero_is_zero():
    emissions = np.zeros((4, K))
    for tags in ([0, 1, 2, 3], [4, 4, 4, 4], [2, 0, 1, 3]):
        assert sequence_score(emissions, np.array(tags), zero_params()) == 0.0


def test_score_matches_term_recount(rng):
    emissions = rng.normal(size=(4, K))
    params = random_params(rng)
    tags = np.array([1, 0, 4, 2])
    expected = params.start[1]
    expected += sum(emissions[t, tags[t]] for t in range(4))
    expected += sum(params.transitions[tags[t - 1], tags[t]] for t in range(1, 4))
    got = sequence_score(emissions, tags, params)
    assert got == pytest.approx(expected, abs=1e-12)


def test_score_length_mismatch(rng):
    with pytest.raises(LengthMismatch):
        sequence_score(rng.normal(size=(3, K)), np.array([0, 1]), zero_params())


# ---------------------------------------------------------------------------
# log_partition
# ---------------------------------------------------------------------------

def test_partition_uniform_cases():
    assert log_partition(np.zeros((1, K)), zero_params()) == pytest.approx(np.log(5))
    assert log_partition(np.zeros((2, K)), zero_params()) == pytest.approx(np.log(25))


def test_partition_matches_brute_force(rng):
    for _ in range(20):
        L = int(rng.integers(1, 7))
        emissions = rng.normal(size=(L, K)) * 2
        params = random_params(rng)
        _, _, brute_log_z = brute_force_paths(emissions, params)
        assert log_partition(emissions, params) == pytest.approx(brute_log_z, abs=1e-8)


def test_partition_no_allowed_path():
    mask = mask_from_bool(
        start=np.zeros(K, dtype=bool),
        end=np.ones(K, dtype=bool),
        transitions=np.ones((K, K), dtype=bool),
        positions=np.ones((2, K), dtype=bool),
    )
    with pytest.raises(NoAllowedPath):
        log_partition(np.zeros((2, K)), zero_params(), mask)


# ---------------------------------------------------------------------------
# nll_loss
# ---------------------------------------------------------------------------

def test_nll_peaked_emissions_near_zero(rng):
    L = 6
    gold = np.array([0, 1, 2, 3, 4, 0])
    emissions = np.zeros((L, K))
    emissions[np.arange(L), gold] = 50.0
    loss, _ = nll_loss(emissions, gold, zero_params())
    assert 0.0 <= loss < 1e-8


def test_nll_uniform_single_position():
    loss, _ = nll_loss(np.zeros((1, K)), np.array([2]), zero_params())
    assert loss == pytest.approx(np.log(5))


def test_nll_gradients_match_finite_differences(rng):
    L = 5
    emissions = rng.normal(size=(L, K))
    params = random_params(rng)
    gold = np.array([0, 3, 1, 4, 2])

    loss, grads = nll_loss(emissions, gold, params)
    step = 1e-6

    def loss_at(e, p):
        return nll_loss(e, gold, p)[0]

    for idx in [(0, 0), (2, 3), (4, 4)]:
        ep, em = emissions.copy(), emissions.copy()
        ep[idx] += step
        em[idx] -= step
        num = (loss_at(ep, params) - loss_at(em, params)) / (2 * step)
        assert grads.emissions[idx] == pytest.approx(num, rel=1e-6, abs=1e-9)

    for idx in [(0, 1), (3, 3), (4, 0)]:
        tp = CrfParams(params.transitions.copy(), params.start.copy())
        tm = CrfParams(params.transitions.copy(), params.start.copy())
        tp.transitions[idx] += step
        tm.transitions[idx] -= step
        num = (loss_at(emissions, tp) - loss_at(emissions, tm)) / (2 * step)
        assert grads.transitions[idx] == pytest.approx(num, rel=1e-6, abs=1e-9)

    for i in range(K):
        sp = CrfParams(params.transitions.copy(), params.start.copy())
        sm = CrfParams(params.transitions.copy(), params.start.copy())
        sp.start[i] += step
        sm.start[i] -= step
        num = (loss_at(emissions, sp) - loss_at(emissions, sm)) / (2 * step)
        assert grads.start[i] == pytest.approx(num, rel=1e-6, abs=1e-9)


def test_nll_non_negative_random(rng):
    for _ in range(50):
        L = int(rng.integers(1, 8))
        emissions = rng.normal(size=(L, K)) * 3
        params = random_params(rng)
        gold = rng.integers(0, K, size=L)
        loss, _ = nll_loss(emissions, gold, params)
        assert loss >= 0.0


def test_nll_masked_single_path_degenerate():
    # force B -> E on two non-whitespace positions: exactly one allowed path
    start = np.zeros(K, dtype=bool)
    start[TAG_TO_ID["B"]] = True
    end = np.zeros(K, dtype=bool)
    end[TAG_TO_ID["E"]] = True
    trans = np.zeros((K, K), dtype=bool)
    trans[TAG_TO_ID["B"], TAG_TO_ID["E"]] = True
    positions = np.ones((2, K), dtype=bool)
    mask = mask_from_bool(start, end, trans, positions)
    rng = np.random.default_rng(0)
    emissions = rng.normal(size=(2, K))
    params = random_params(rng)
    gold = np.array([TAG_TO_ID["B"], TAG_TO_ID["E"]])
    z = log_partition(emissions, params, mask)
    assert z == pytest.approx(sequence_score(emissions, gold, params), abs=1e-12)
    path, score, brute_z = brute_force_paths(emissions, params, mask)
    np.testing.assert_array_equal(path, gold)
    assert brute_z == pytest.approx(z, abs=1e-12)


# ---------------------------------------------------------------------------
# viterbi
# ---------------------------------------------------------------------------

def test_viterbi_zero_transitions_is_pointwise_argmax(rng):
    emissions = rng.normal(size=(6, K))
    path, score = viterbi_decode(emissions, zero_params())
    np.testing.assert_array_equal(path, emissions.argmax(axis=1))
    assert score == pytest.approx(emissions.max(axis=1).sum())


def test_viterbi_all_zero_ties_to_all_B():
    path, score = viterbi_decode(np.zeros((4, K)), zero_params())
    np.testing.assert_array_equal(path, np.zeros(4, dtype=np.int64))
    assert score == 0.0


def test_viterbi_matches_brute_force_tied_instance():
    # repeated values force genuine ties; both sides must break them identically
    emissions = np.array(
        [[1.0, 1.0, 0.0, 1.0, 0.0],
         [0.0, 2.0, 2.0, 0.0, 2.0],
         [3.0, 3.0, 3.0, 3.0, 3.0]]
    )
    params = zero_params()
    v_path, v_score = viterbi_decode(emissions, params)
    b_path, b_score, _ = brute_force_paths(emissions, params)
    assert v_score == b_score
    np.testing.assert_array_equal(v_path, b_path)


def test_viterbi_respects_mask(rng):
    for trial in range(30):
        L = int(rng.integers(1, 6))
        mask = random_mask(rng, L)
        emissions = rng.normal(size=(L, K))
        params = random_params(rng)
        path, score = viterbi_decode(emissions, params, mask)
        assert np.isfinite(score)
        assert mask.start[path[0]] == 0.0
        assert mask.end[path[-1]] == 0.0
        for t in range(1, L):
            assert mask.transitions[path[t - 1], path[t]] == 0.0
        for t in range(L):
            assert mask.positions[t, path[t]] == 0.0


def test_grammar_mask_decodes_valid_tags(rng):
    for trial in range(30):
        text_ws = [bool(b) for b in rng.integers(0, 2, size=int(rng.integers(1, 9)))]
        # collapse leading/trailing/double whitespace like normalized text would
        mask = grammar_mask(text_ws)
        emissions = rng.normal(size=(len(text_ws), K)) * 3
        path, _ = viterbi_decode(emissions, random_params(rng), mask)
        tags = ids_to_tags(path)
        assert tags_are_valid(tags)
        chars = "".join(" " if w else "a" for w in text_ws)
        assert tags_match_whitespace(chars, tags)


def assert_same_mask(got, want):
    for field in ("start", "end", "transitions", "positions"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field


@given(st.lists(st.booleans(), min_size=0, max_size=60))
def test_grammar_mask_matches_per_position_construction(whitespace):
    assert_same_mask(grammar_mask(whitespace), grammar_mask_per_position(whitespace))
    assert_same_mask(grammar_mask(np.array(whitespace, dtype=bool)), grammar_mask_per_position(whitespace))


def test_grammar_mask_long_sentence_matches_per_position(rng):
    whitespace = (rng.random(1648) < 0.2).tolist()
    assert_same_mask(grammar_mask(whitespace), grammar_mask_per_position(whitespace))


@pytest.mark.parametrize("field", ["start", "end", "transitions"])
def test_grammar_mask_shared_parts_are_read_only(field):
    # every mask shares these arrays: a write through one would change the next
    mask = grammar_mask([False, True, False])
    with pytest.raises(ValueError):
        getattr(mask, field)[0] = 1.0
    assert_same_mask(grammar_mask([False, True, False]), grammar_mask_per_position([False, True, False]))


def test_no_allowed_path_raises():
    mask = mask_from_bool(
        start=np.ones(K, dtype=bool),
        end=np.ones(K, dtype=bool),
        transitions=np.zeros((K, K), dtype=bool),
        positions=np.ones((3, K), dtype=bool),
    )
    with pytest.raises(NoAllowedPath):
        viterbi_decode(np.zeros((3, K)), zero_params(), mask)
    with pytest.raises(NoAllowedPath):
        brute_force_paths(np.zeros((3, K)), zero_params(), mask)


# ---------------------------------------------------------------------------
# brute force oracle
# ---------------------------------------------------------------------------

def test_brute_force_single_position(rng):
    emissions = rng.normal(size=(1, K))
    params = random_params(rng)
    path, score, log_z = brute_force_paths(emissions, params)
    scores = params.start + emissions[0]
    assert path[0] == scores.argmax()
    assert score == pytest.approx(scores.max())
    assert log_z == pytest.approx(np.log(np.exp(scores - scores.max()).sum()) + scores.max())


def test_brute_force_guard():
    with pytest.raises(InstanceTooLarge):
        brute_force_paths(np.zeros((15, K)), zero_params())


@given(L=st.integers(min_value=1, max_value=9), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_nll_loss_keeps_stepwise_bits(L, seed):
    # all steps' pair marginals from one exp, summed in the stepwise order
    rng = np.random.default_rng(seed)
    emissions = rng.normal(size=(L, K)) * 3
    params = random_params(rng)
    gold, _ = viterbi_decode(rng.normal(size=(L, K)), params)
    loss, grads = nll_loss(emissions, gold, params)
    loss_ref, grads_ref = nll_loss_stepwise(emissions, gold, params)
    assert float(loss).hex() == float(loss_ref).hex()
    for name in ("emissions", "transitions", "start"):
        got, want = getattr(grads, name), getattr(grads_ref, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


@given(L=st.integers(min_value=1, max_value=40), seed=st.integers(min_value=0, max_value=2**32 - 1),
       masked=st.sampled_from(["none", "random", "grammar"]), tied=st.booleans())
@example(L=1, seed=0, masked="grammar", tied=True)
def test_viterbi_keeps_stepwise_bits(L, seed, masked, tied):
    # steps in place, each maximum taken as a value rather than picked at
    # the argmax; integer-valued scores tie exactly, and both break ties
    # at the lowest tag index
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.integers(-2, 3, size=shape).astype(float) if tied else rng.normal(size=shape) * 3

    emissions, params = draw(L, K), CrfParams(transitions=draw(K, K), start=draw(K))
    mask = {"none": lambda: None, "random": lambda: random_mask(rng, L),
            "grammar": lambda: grammar_mask(rng.random(L) < 0.3)}[masked]()
    path, score = viterbi_decode(emissions, params, mask)
    path_ref, score_ref = viterbi_decode_stepwise(emissions, params, mask)
    assert path.dtype == path_ref.dtype and path.tobytes() == path_ref.tobytes()
    assert score.hex() == score_ref.hex()


# ---------------------------------------------------------------------------
# shift invariance
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=999))
@settings(max_examples=40)
def test_shift_invariance(seed):
    rng = np.random.default_rng(seed)
    L = int(rng.integers(2, 7))
    emissions = rng.normal(size=(L, K)) * 2
    params = random_params(rng)
    gold = rng.integers(0, K, size=L)
    position = int(rng.integers(0, L))
    const = float(rng.normal() * 10)

    loss_a, _ = nll_loss(emissions, gold, params)
    path_a, _ = viterbi_decode(emissions, params)
    shifted = emissions.copy()
    shifted[position] += const
    loss_b, _ = nll_loss(shifted, gold, params)
    path_b, _ = viterbi_decode(shifted, params)

    assert abs(loss_a - loss_b) < 1e-9
    np.testing.assert_array_equal(path_a, path_b)


# ---------------------------------------------------------------------------
# path probabilities sum to one
# ---------------------------------------------------------------------------

def test_path_probabilities_sum_to_one(rng):
    L = 4
    emissions = rng.normal(size=(L, K))
    params = random_params(rng)
    log_z = log_partition(emissions, params)
    total = 0.0
    import itertools

    for tags in itertools.product(range(K), repeat=L):
        total += np.exp(sequence_score(emissions, np.array(tags), params) - log_z)
    assert total == pytest.approx(1.0, abs=1e-8)
