import contextlib
import dataclasses
import functools
import math
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from charseg import nncore
from charseg.errors import BadRate, NonFiniteGradient, ShapeMismatch
from charseg.nncore import (
    ADAMAX_BLOCK,
    BLOCK_ROWS,
    AdamaxState,
    LstmCache,
    LstmParams,
    adamax_step,
    bilstm_backward,
    bilstm_forward,
    block_end,
    clip_global_norm,
    dense_backward,
    dense_forward,
    fork_join,
    gate_table_fits,
    global_norm,
    logsumexp,
    self_attention,
    self_attention_backward,
    sigmoid,
    softmax,
    variational_dropout,
)

from oracles import (
    attention_init,
    attention_weights,
    dense_init,
    grad_check,
    lstm_backward_stepwise,
    lstm_cell,
    lstm_forward_stepwise,
    lstm_init,
    named,
    sigmoid_masked,
    zeros_like,
)


def zero_lstm(d_in, hidden):
    return LstmParams(W=np.zeros((4 * hidden, hidden)), U=np.zeros((4 * hidden, d_in)), b=np.zeros(4 * hidden))


def random_lstm(d_in, hidden, rng):
    p = lstm_init(d_in, hidden, rng)
    p.b[hidden : 2 * hidden] = rng.uniform(-0.1, 0.1, hidden)  # break the all-ones forget bias
    return p


# ---------------------------------------------------------------------------
# one direction (bilstm_forward without bwd), one step at a time
# ---------------------------------------------------------------------------

def test_lstm_step_zero_params_is_fixed_point():
    p = zero_lstm(3, 4)
    H, (cache,) = bilstm_forward(p, None, np.array([[5.0, -2.0, 7.0]]))
    # gates are all 0.5, candidate 0, so cell and hidden stay exactly zero
    np.testing.assert_array_equal(cache.C[0], np.zeros(4))
    np.testing.assert_array_equal(H[0], np.zeros(4))


def test_lstm_step_scalar_matches_hand_arithmetic():
    # 1-dimensional cell computed independently with math.* scalar ops,
    # two steps from the zero state so the second one has h, c != 0
    w = dict(W_i=0.5, U_i=1.0, b_i=0.1, W_f=-0.3, U_f=0.8, b_f=0.2,
             W_c=0.7, U_c=-0.6, b_c=0.0, W_o=0.2, U_o=0.9, b_o=-0.1)
    xs = (0.4, -0.7)

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    h, c = 0.0, 0.0
    expected = []
    for x in xs:
        i = sig(w["W_i"] * h + w["U_i"] * x + w["b_i"])
        f = sig(w["W_f"] * h + w["U_f"] * x + w["b_f"])
        g = math.tanh(w["W_c"] * h + w["U_c"] * x + w["b_c"])
        o = sig(w["W_o"] * h + w["U_o"] * x + w["b_o"])
        c = f * c + i * g
        h = o * math.tanh(c)
        expected.append((h, c))

    p = LstmParams(W=np.array([[w[f"W_{g}"]] for g in "ifco"]), U=np.array([[w[f"U_{g}"]] for g in "ifco"]),
                   b=np.array([w[f"b_{g}"] for g in "ifco"]))
    H, (cache,) = bilstm_forward(p, None, np.array(xs)[:, None])
    for t, (h, c) in enumerate(expected):
        assert H[t, 0] == pytest.approx(h, abs=1e-15)
        assert cache.C[t, 0] == pytest.approx(c, abs=1e-15)


def test_lstm_step_shape_mismatch():
    p = zero_lstm(3, 4)
    with pytest.raises(ShapeMismatch):
        bilstm_forward(p, None, np.zeros((1, 5)))


def test_lstm_gate_outputs_bounded(rng):
    p = random_lstm(3, 4, rng)
    X = rng.normal(size=(6, 3))
    H, (cache,) = bilstm_forward(p, None, X)
    for arr in (cache.A[:, :4], cache.A[:, 4:8], cache.A[:, 12:]):  # i, f, o
        assert np.all(arr > 0) and np.all(arr < 1)
    assert np.all(np.isfinite(H))


def test_lstm_backward_matches_finite_differences(rng):
    p = random_lstm(3, 2, rng)
    X = rng.normal(size=(3, 3))
    w = rng.normal(size=2)

    params = named(p)

    def loss_and_grads():
        H, caches = bilstm_forward(p, None, X)
        loss = float(w @ H[-1] + H.sum())
        dH = np.ones_like(H)
        dH[-1] += w
        grads = zeros_like(p)
        bilstm_backward(p, None, caches, dH, grads, None)
        return loss, named(grads)

    report = grad_check(loss_and_grads, params, n_per_tensor=4, tolerance=1e-4, seed=0)
    assert report.passed, str(report)


def test_lstm_backward_input_gradient(rng):
    p = random_lstm(3, 2, rng)
    X = rng.normal(size=(4, 3))

    def loss_of(Xv):
        H, _ = bilstm_forward(p, None, Xv)
        return float(H.sum())

    H, caches = bilstm_forward(p, None, X)
    dX = bilstm_backward(p, None, caches, np.ones_like(H), zeros_like(p), None)
    step = 1e-6
    for idx in [(0, 0), (1, 2), (3, 1)]:
        Xp = X.copy()
        Xp[idx] += step
        Xm = X.copy()
        Xm[idx] -= step
        num = (loss_of(Xp) - loss_of(Xm)) / (2 * step)
        assert dX[idx] == pytest.approx(num, rel=1e-5)


# ---------------------------------------------------------------------------
# bilstm
# ---------------------------------------------------------------------------

def test_bilstm_single_step_boundary(rng):
    fwd = random_lstm(3, 2, rng)
    bwd = random_lstm(3, 2, rng)
    X = rng.normal(size=(1, 3))
    Y, _ = bilstm_forward(fwd, bwd, X)
    hf, _ = bilstm_forward(fwd, None, X)
    hb, _ = bilstm_forward(bwd, None, X)
    np.testing.assert_allclose(Y[0, :2], hf[0])
    np.testing.assert_allclose(Y[0, 2:], hb[0])


def test_bilstm_reversal_swaps_halves(rng):
    fwd = random_lstm(3, 2, rng)
    bwd = random_lstm(3, 2, rng)
    X = rng.normal(size=(5, 3))
    Y, _ = bilstm_forward(fwd, bwd, X)
    Y_rev, _ = bilstm_forward(bwd, fwd, X[::-1])
    np.testing.assert_allclose(Y_rev[::-1, :2], Y[:, 2:], atol=1e-14)
    np.testing.assert_allclose(Y_rev[::-1, 2:], Y[:, :2], atol=1e-14)


def test_bilstm_matches_stepwise_oracle(rng):
    fwd = random_lstm(3, 2, rng)
    bwd = random_lstm(3, 2, rng)
    X = rng.normal(size=(4, 3))
    Y, _ = bilstm_forward(fwd, bwd, X)

    h, c = np.zeros(2), np.zeros(2)
    fwd_h = []
    for t in range(4):
        h, c = lstm_cell(fwd, h, c, X[t])
        fwd_h.append(h)
    h, c = np.zeros(2), np.zeros(2)
    bwd_h = [None] * 4
    for t in range(3, -1, -1):
        h, c = lstm_cell(bwd, h, c, X[t])
        bwd_h[t] = h
    oracle = np.hstack([np.vstack(fwd_h), np.vstack(bwd_h)])
    np.testing.assert_allclose(Y, oracle, atol=1e-14)


@given(L=st.integers(min_value=1, max_value=9),
       size=st.sampled_from([(3, 7), (5, 10), (8, 12), (32, 64)]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_uncached_pass_matches_cached(L, size, seed):
    # cache=False takes the input products from one X @ U.T GEMM, which may
    # round differently from the per-step product in the last bit
    d_in, hidden = size
    rng = np.random.default_rng(seed)
    fwd, bwd = random_lstm(d_in, hidden, rng), random_lstm(d_in, hidden, rng)
    X = rng.normal(size=(L, d_in))
    for run in (lambda cache: bilstm_forward(fwd, None, X, cache),
                lambda cache: bilstm_forward(fwd, bwd, X, cache)):
        ref, ref_cache = run(True)
        got, got_cache = run(False)
        assert ref_cache is not None and got_cache is None
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_inference_tanh_gates_match_sigmoid():
    # inference takes each gate as 1/2 + tanh(z/2)/2; with U the identity
    # and b zero the pre-activations are x exactly, and g = tanh(20) = 1,
    # so one step from the zero state gives h = sigmoid(z_o) tanh(sigmoid(z_i))
    h = 41
    z = np.linspace(-40.0, 40.0, h)
    p = LstmParams(W=np.zeros((4 * h, h)), U=np.eye(4 * h), b=np.zeros(4 * h))
    zi, zo = np.meshgrid(z, z)
    X = np.zeros((h, 4 * h))
    X[:, :h], X[:, 2 * h : 3 * h], X[:, 3 * h :] = zi, 20.0, zo
    for rows in X[:, None]:
        got, _ = bilstm_forward(p, None, rows, cache=False)
        ref, _ = bilstm_forward(p, None, rows)
        assert np.max(np.abs(got - ref)) <= 1e-15
        assert np.max(np.abs(ref - sigmoid(rows[:, 3 * h :]) * np.tanh(sigmoid(rows[:, :h])))) == 0.0


@given(lengths=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=7),
       size=st.sampled_from([(3, 7), (5, 10), (8, 12), (32, 64)]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_batched_pass_matches_each_sequence(lengths, size, seed):
    # sequences of any lengths in any order, ties included, run as one
    # packed pass: in inference each one's states match its own
    # training-path pass, and a cached packed pass equals each sequence's
    # own cached pass, byte for byte
    d_in, hidden = size
    rng = np.random.default_rng(seed)
    fwd, bwd = random_lstm(d_in, hidden, rng), random_lstm(d_in, hidden, rng)
    X = rng.normal(size=(sum(lengths), d_in))
    ends = np.cumsum(lengths)
    for run in (lambda X, cache, lens=None: bilstm_forward(fwd, None, X, cache, lens),
                lambda X, cache, lens=None: bilstm_forward(fwd, bwd, X, cache, lens)):
        got, cache = run(X, False, lengths)
        assert cache is None and got.shape[0] == X.shape[0]
        packed, _ = run(X, True, lengths)
        for hi, n in zip(ends, lengths):
            ref, _ = run(X[hi - n : hi], True)
            assert np.max(np.abs(got[hi - n : hi] - ref)) <= 1e-13 * np.max(np.abs(ref))
            assert same_bits(packed[hi - n : hi], ref)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("h", [24, 64, 200])
@pytest.mark.parametrize("D", [1, 2])
def test_broadcast_matmul_keeps_per_row_gemv_bits(h, D):
    # a training step of n rows takes its recurrent product as one matmul of
    # W (D, 4h, h) broadcast over the rows, and the backward its carry as one
    # matmul of each gate's W.T block summed over the gates: the pass keeps
    # each sequence's own bits only while both equal a GEMV per row,
    # direction and gate, the gates added in order. An inference step takes
    # its product from a contiguous copy of W.T, as a GEMM over its rows:
    # with one row left, numpy runs it as the GEMV of that copy's transpose
    rng = np.random.default_rng(h + D)
    W = rng.uniform(-0.1, 0.1, (D, 4 * h, h))
    W_T = W.reshape(D, 4, h, h).transpose(0, 1, 3, 2)
    W_inf = np.ascontiguousarray(W.transpose(0, 2, 1))
    H = rng.normal(size=(1, D, h))
    ref = np.array([[W_inf[k].T @ H[0, k] for k in range(D)]])
    assert same_bits(np.matmul(H.transpose(1, 0, 2), W_inf).transpose(1, 0, 2), ref)
    for n in (2, 3, 7, 13):
        H = rng.normal(size=(n, D, h))
        ref = np.array([[W[k] @ H[r, k] for k in range(D)] for r in range(n)])
        assert same_bits(np.matmul(W, H[..., None])[..., 0], ref)
        d = rng.normal(size=(n, D, 4, h))
        ref = np.array([[((W_T[k, 0] @ d[r, k, 0] + W_T[k, 1] @ d[r, k, 1]) + W_T[k, 2] @ d[r, k, 2])
                         + W_T[k, 3] @ d[r, k, 3] for k in range(D)] for r in range(n)])
        assert same_bits(np.matmul(W_T, d[..., None]).sum(axis=2)[..., 0], ref)


@contextlib.contextmanager
def stack_bytes(value):
    """Set nncore.STACK_BYTES for the block: 0 gives each BiLSTM
    direction its own step loop at any size."""
    saved, nncore.STACK_BYTES = nncore.STACK_BYTES, value
    try:
        yield
    finally:
        nncore.STACK_BYTES = saved


def stepwise_bilstm(fwd, bwd, X, cache=True, lengths=None):
    """Both directions of bilstm_forward, each from lstm_forward_stepwise."""
    H_f, cache_f = lstm_forward_stepwise(fwd, X, cache, lengths)
    H_b, cache_b = lstm_forward_stepwise(bwd, X[::-1], cache, None if lengths is None else lengths[::-1])
    return np.hstack([H_f, H_b[::-1]]), (cache_f, cache_b)


@given(L=st.integers(min_value=1, max_value=9),
       size=st.sampled_from([(3, 7), (5, 10), (8, 12), (32, 64)]),
       seed=st.integers(min_value=0, max_value=2**32 - 1), shared_loop=st.booleans())
def test_lstm_kernels_keep_stepwise_bits(L, size, seed, shared_loop):
    # the input products taken before the loop, one per gate block and row,
    # the directions in one loop or one each, and the backward's stacked
    # products with W rest on numpy's stacked matmul making one GEMV per
    # item: the bits of one product per step and direction
    d_in, hidden = size
    rng = np.random.default_rng(seed)
    fwd, bwd = random_lstm(d_in, hidden, rng), random_lstm(d_in, hidden, rng)
    X = rng.normal(size=(L, d_in))
    dY = rng.normal(size=(L, 2 * hidden))
    dH = dY[:, hidden:][::-1]  # a strided view, as bilstm_backward passes
    grads, bi_grads = zeros_like(fwd), [zeros_like(fwd), zeros_like(bwd)]
    with stack_bytes(nncore.STACK_BYTES if shared_loop else 0):
        H, (cache,) = bilstm_forward(fwd, None, X)
        Y, bi_cache = bilstm_forward(fwd, bwd, X)
        dX_one = bilstm_backward(fwd, None, [cache], dH, grads, None)
        dX = bilstm_backward(fwd, bwd, bi_cache, dY, *bi_grads)
    H_ref, cache_ref = lstm_forward_stepwise(fwd, X)
    Y_ref, (cache_f, cache_b) = stepwise_bilstm(fwd, bwd, X)
    assert same_bits(H, H_ref) and same_bits(Y, Y_ref)
    for got, want in ((cache, cache_ref), (bi_cache[0], cache_f), (bi_cache[1], cache_b)):
        for field in dataclasses.fields(LstmCache):
            assert same_bits(getattr(got, field.name), getattr(want, field.name)), field.name
    grads_ref, bi_grads_ref = zeros_like(fwd), [zeros_like(fwd), zeros_like(bwd)]
    assert same_bits(dX_one, lstm_backward_stepwise(fwd, cache_ref, dH, grads_ref))
    dX_f = lstm_backward_stepwise(fwd, cache_f, dY[:, :hidden], bi_grads_ref[0])
    dX_b = lstm_backward_stepwise(bwd, cache_b, dH, bi_grads_ref[1])
    assert same_bits(dX, dX_f + dX_b[::-1])
    for got, want in zip([grads, *bi_grads], [grads_ref, *bi_grads_ref]):
        for name, g in named(got).items():
            assert same_bits(g, getattr(want, name)), name


@given(lengths=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=7),
       size=st.sampled_from([(3, 7), (5, 10), (8, 12), (32, 64)]),
       seed=st.integers(min_value=0, max_value=2**32 - 1), shared_loop=st.booleans())
def test_packed_inference_matches_stepwise_gathered_pass(lengths, size, seed, shared_loop):
    # rows taken time-major before the GEMM, the directions in one loop or
    # one each, against gathering each step's rows from a GEMM in X's order
    d_in, hidden = size
    rng = np.random.default_rng(seed)
    fwd, bwd = random_lstm(d_in, hidden, rng), random_lstm(d_in, hidden, rng)
    X = rng.normal(size=(sum(lengths), d_in))
    with stack_bytes(nncore.STACK_BYTES if shared_loop else 0):
        got_pairs = ((bilstm_forward(fwd, None, X, False, lengths)[0], lstm_forward_stepwise(fwd, X, False, lengths)[0]),
                     (bilstm_forward(fwd, bwd, X, False, lengths)[0], stepwise_bilstm(fwd, bwd, X, False, lengths)[0]))
    for got, ref in got_pairs:
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@given(lengths=st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=4),
       n_distinct=st.integers(min_value=1, max_value=40),
       seed=st.integers(min_value=0, max_value=2**32 - 1), shared_loop=st.booleans())
@example(lengths=[4 * BLOCK_ROWS + 5], n_distinct=7, seed=0, shared_loop=True)
@example(lengths=[4 * BLOCK_ROWS + 5], n_distinct=7, seed=0, shared_loop=False)
def test_distinct_rows_keep_the_bits_of_one_row_per_input(lengths, n_distinct, seed, shared_loop):
    # X's distinct rows and an index: the gate inputs come from one table
    # (where it fits: from 512 + n_distinct rows on with both directions in
    # one loop, 256 + n_distinct with one each) or by chunks of gathered
    # rows, with the bits of the pass over X[index]; 4 * 256 + 5 rows run in
    # four chunks of about 257 (see block_end), with no short last chunk, as
    # a product of a few rows at this size rounds differently
    d_in, hidden = 48, 12
    rng = np.random.default_rng(seed)
    fwd, bwd = random_lstm(d_in, hidden, rng), random_lstm(d_in, hidden, rng)
    X, index = rng.normal(size=(n_distinct, d_in)), rng.integers(0, n_distinct, sum(lengths))
    with stack_bytes(nncore.STACK_BYTES if shared_loop else 0):
        for bwd_ in (None, bwd):
            got, _ = bilstm_forward(fwd, bwd_, X, False, lengths, index=index)
            assert same_bits(got, bilstm_forward(fwd, bwd_, X[index], False, lengths)[0])


def test_block_end_tiles_rows_in_blocks_of_one_to_two_block_rows():
    # blocks taken from row 0 tile the rows, each of at least BLOCK_ROWS rows
    # (all if fewer) and fewer than 2 BLOCK_ROWS; from any row, the block
    # holds BLOCK_ROWS rows or all that are left, so a query block fits it
    for n in range(1, 6 * BLOCK_ROWS):
        ends = [block_end(0, n)]
        while ends[-1] < n:
            ends.append(block_end(ends[-1], n))
        sizes = np.diff([0, *ends])
        assert ends[-1] == n and min(n, BLOCK_ROWS) <= sizes.min() and sizes.max() < 2 * BLOCK_ROWS, n
        assert all(block_end(lo, n) - lo >= min(BLOCK_ROWS, n - lo) for lo in range(0, n, 37))


def test_gate_table_fits_when_table_and_distinct_rows_take_no_more_than_all_rows():
    # the table spans at least BLOCK_ROWS rows; equal memory still fits
    assert gate_table_fits(2 * BLOCK_ROWS + 10, 10, 48, 96)
    assert not gate_table_fits(2 * BLOCK_ROWS + 9, 10, 48, 96)
    assert gate_table_fits(900, 300, 48, 96) and not gate_table_fits(899, 300, 48, 96)
    assert not gate_table_fits(2, 1, 48, 96)


@given(lengths=st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=6),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_split_loop_packed_batch_writes_each_row(lengths, seed):
    # at h=130 each direction has its own step loop, and each step writes
    # its states straight to their rows of the layer output (the backward
    # direction's through Y[::-1]): the bits of the shared loop, and each
    # sequence's rows match its own pass
    d_in, hidden = 6, 130
    rng = np.random.default_rng(seed)
    fwd, bwd = random_lstm(d_in, hidden, rng), random_lstm(d_in, hidden, rng)
    assert 2 * fwd.W.nbytes > nncore.STACK_BYTES
    X = rng.normal(size=(sum(lengths), d_in))
    Y, _ = bilstm_forward(fwd, bwd, X, False, lengths)
    with stack_bytes(2 * fwd.W.nbytes):
        assert same_bits(Y, bilstm_forward(fwd, bwd, X, False, lengths)[0])
    for hi, n in zip(np.cumsum(lengths), lengths):
        ref, _ = bilstm_forward(fwd, bwd, X[hi - n : hi], False)
        assert np.max(np.abs(Y[hi - n : hi] - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_bilstm_backward_grad_check(rng):
    fwd = random_lstm(3, 2, rng)
    bwd = random_lstm(3, 2, rng)
    X = rng.normal(size=(4, 3))
    params = {**named(fwd, "f."), **named(bwd, "b.")}

    def loss_and_grads():
        Y, cache = bilstm_forward(fwd, bwd, X)
        loss = float((Y * Y).sum())
        gf, gb = zeros_like(fwd), zeros_like(bwd)
        bilstm_backward(fwd, bwd, cache, 2 * Y, gf, gb)
        return loss, {**named(gf, "f."), **named(gb, "b.")}

    report = grad_check(loss_and_grads, params, n_per_tensor=3, seed=1)
    assert report.passed, str(report)


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

def test_attention_single_position_weight_is_one(rng):
    p = attention_init(4, rng)
    Y = rng.normal(size=(1, 4))
    Z, cache = self_attention(p, Y)
    assert cache.A.shape == (1, 1)
    assert cache.A[0, 0] == 1.0


@given(st.integers(min_value=1, max_value=8))
def test_attention_rows_are_distributions(L):
    rng = np.random.default_rng(L)
    p = attention_init(5, rng)
    Y = rng.normal(size=(L, 5))
    _, cache = self_attention(p, Y)
    assert np.all(cache.A >= 0)
    np.testing.assert_allclose(cache.A.sum(axis=1), np.ones(L), atol=1e-12)


@pytest.mark.parametrize("L", [1, 7, 40, 300, 1648])
def test_attention_weights_bits_match_softmax_formula(L):
    # the in-place softmax keeps the bits of softmax((Q @ K.T) / sqrt(d))
    rng = np.random.default_rng(L)
    params = attention_init(16, rng)
    Y = 10.0 * rng.normal(size=(L, 16))
    Z, cache = self_attention(params, Y)
    A = attention_weights(cache.Q, cache.K)
    assert cache.A.tobytes() == A.tobytes()
    assert Z.tobytes() == ((A @ cache.V) @ params.W_o + Y).tobytes()


def test_attention_backward_grad_check(rng):
    p = attention_init(3, rng)
    Y = rng.normal(size=(4, 3))
    params = named(p)

    def loss_and_grads():
        Z, cache = self_attention(p, Y)
        loss = float((Z ** 2).sum())
        grads = zeros_like(p)
        self_attention_backward(p, cache, 2 * Z, grads)
        return loss, named(grads)

    report = grad_check(loss_and_grads, params, n_per_tensor=4, seed=2)
    assert report.passed, str(report)


def test_attention_input_gradient(rng):
    p = attention_init(3, rng)
    Y = rng.normal(size=(4, 3))
    Z, cache = self_attention(p, Y)
    dY = self_attention_backward(p, cache, 2 * Z, zeros_like(p))
    step = 1e-6
    for idx in [(0, 0), (2, 1), (3, 2)]:
        Yp = Y.copy()
        Yp[idx] += step
        Ym = Y.copy()
        Ym[idx] -= step
        lp = float((self_attention(p, Yp)[0] ** 2).sum())
        lm = float((self_attention(p, Ym)[0] ** 2).sum())
        assert dY[idx] == pytest.approx((lp - lm) / (2 * step), rel=1e-5)


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------

def test_dropout_rate_zero_identity(rng):
    X = rng.normal(size=(5, 6))
    for gen in (rng, None):
        Y, mask = variational_dropout(X, 0.0, gen)
        np.testing.assert_array_equal(Y, X)
        assert mask is None


def test_dropout_mask_shared_across_timesteps():
    X = np.ones((8, 16))
    Y, mask = variational_dropout(X, 0.25, np.random.default_rng(7))
    zero_cols = np.flatnonzero(mask == 0)
    assert zero_cols.size > 0
    for t in range(8):
        np.testing.assert_array_equal(np.flatnonzero(Y[t] == 0), zero_cols)


def test_dropout_monte_carlo_mean():
    X = np.ones((1, 50))
    rng = np.random.default_rng(11)
    total = 0.0
    n = 10_000
    for _ in range(n):
        Y, _ = variational_dropout(X, 0.25, rng)
        total += Y.mean()
    assert abs(total / n - 1.0) < 0.01


def test_dropout_bad_rate():
    with pytest.raises(BadRate):
        variational_dropout(np.ones((2, 2)), 1.0, np.random.default_rng(0))
    with pytest.raises(BadRate):
        variational_dropout(np.ones((2, 2)), -0.1, np.random.default_rng(0))


def test_dropout_eval_identity(rng):
    X = rng.normal(size=(4, 5))
    Y, mask = variational_dropout(X, 0.5, None)
    np.testing.assert_array_equal(Y, X)
    assert mask is None


# ---------------------------------------------------------------------------
# clipping
# ---------------------------------------------------------------------------

def test_clip_halves_at_double_norm():
    g = {"a": np.array([6.0, 8.0])}  # norm 10
    clipped, norm = clip_global_norm(g, 5.0)
    assert norm == pytest.approx(10.0)
    np.testing.assert_allclose(clipped["a"], [3.0, 4.0])


def test_clip_leaves_small_gradients():
    g = {"a": np.array([3.0]), "b": np.array([0.0])}
    clipped, norm = clip_global_norm(g, 5.0)
    assert norm == pytest.approx(3.0)
    np.testing.assert_array_equal(clipped["a"], [3.0])


@given(st.floats(min_value=0.1, max_value=100.0))
def test_clip_postcondition(scale):
    rng = np.random.default_rng(3)
    g = {"a": rng.normal(size=7) * scale, "b": rng.normal(size=(2, 3)) * scale}
    before = global_norm(g)
    _, norm = clip_global_norm(g, 5.0)
    after = global_norm(g)
    assert norm == pytest.approx(before)
    assert after <= before + 1e-12
    assert abs(after - min(before, 5.0)) < 1e-9


def test_clip_non_finite_raises():
    with pytest.raises(NonFiniteGradient):
        clip_global_norm({"a": np.array([np.nan])}, 5.0)
    with pytest.raises(NonFiniteGradient):
        clip_global_norm({"a": np.array([np.inf])}, 5.0)


# ---------------------------------------------------------------------------
# adamax
# ---------------------------------------------------------------------------

def test_adamax_zero_gradient_never_moves():
    params = np.array([1.5, -0.5])
    state = AdamaxState.init(params)
    for _ in range(10):
        adamax_step(state, params, np.zeros(2))
    np.testing.assert_array_equal(params, [1.5, -0.5])


def test_adamax_first_step_magnitude():
    params = np.array([0.0])
    state = AdamaxState.init(params, lr=0.025)
    adamax_step(state, params, np.array([1.0]))
    # m = 0.1, u = 1, update = (lr / (1 - 0.9)) * 0.1 / (1 + eps) = lr / (1 + eps)
    assert params[0] == pytest.approx(-0.025 / (1 + 1e-8), abs=1e-12)


def test_adamax_infinity_norm_decay(rng):
    params = np.zeros(3)
    state = AdamaxState.init(params)
    prev = np.zeros(3)
    for _ in range(20):
        adamax_step(state, params, rng.normal(size=3))
        assert np.all(state.u >= 0.999 * prev - 1e-15)
        prev = state.u.copy()


def test_adamax_shape_mismatch():
    params = np.zeros(3)
    state = AdamaxState.init(params)
    with pytest.raises(ShapeMismatch):
        adamax_step(state, params, np.zeros(4))


def test_adamax_blocks_match_whole_array_formula(rng):
    # 2.5 blocks, so the last block is a partial one
    n = 5 * ADAMAX_BLOCK // 2
    params = rng.normal(size=n)
    state = AdamaxState.init(params, lr=0.01)
    p, m, u = params.copy(), np.zeros(n), np.zeros(n)
    for step in range(1, 4):
        g = rng.normal(size=n) * (rng.random(n) < 0.7)
        adamax_step(state, params, g)
        m = 0.9 * m + (1.0 - 0.9) * g
        u = np.maximum(0.999 * u, np.abs(g))
        p -= (0.01 / (1.0 - 0.9 ** step)) * m / (u + 1e-8)
        assert np.array_equal(params, p) and np.array_equal(state.m, m) and np.array_equal(state.u, u)


# ---------------------------------------------------------------------------
# shared numerics
# ---------------------------------------------------------------------------

def test_logsumexp_stability_and_neg_inf():
    x = np.array([1000.0, 1000.0])
    assert logsumexp(x, axis=0) == pytest.approx(1000.0 + np.log(2))
    assert logsumexp(np.array([-np.inf, -np.inf]), axis=0) == -np.inf
    assert logsumexp(np.array([-np.inf, 0.0]), axis=0) == pytest.approx(0.0)


def test_softmax_rows_sum_to_one(rng):
    X = rng.normal(size=(4, 6)) * 50
    S = softmax(X, axis=-1)
    np.testing.assert_allclose(S.sum(axis=1), np.ones(4), atol=1e-12)


def test_sigmoid_extremes():
    assert sigmoid(np.array([500.0]))[0] == pytest.approx(1.0)
    assert sigmoid(np.array([-500.0]))[0] == pytest.approx(0.0, abs=1e-200)


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=24))
def test_sigmoid_bits_match_masked_formula(values):
    # signed zeros, infinities, the exp overflow/underflow edges and the
    # largest finite magnitudes are always in
    x = np.array(values + [0.0, -0.0, np.inf, -np.inf, 709.79, -709.79, 745.2, -745.2, 1e308, -1e308])
    got, want = sigmoid(x), sigmoid_masked(x)
    nan = np.isnan(x)
    assert np.array_equal(np.isnan(got), nan) and np.array_equal(np.isnan(want), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def test_dense_grad_check(rng):
    p = dense_init(3, 2, rng)
    X = rng.normal(size=(5, 3))
    params = named(p)

    def loss_and_grads():
        Y, cache = dense_forward(p, X, activation="tanh")
        loss = float(Y.sum())
        grads = zeros_like(p)
        dense_backward(p, cache, np.ones_like(Y), grads)
        return loss, named(grads)

    report = grad_check(loss_and_grads, params, n_per_tensor=4, seed=4)
    assert report.passed, str(report)


# ---------------------------------------------------------------------------
# fork/join on the worker thread
# ---------------------------------------------------------------------------

def test_fork_join_runs_second_on_the_worker_in_the_callers_context(monkeypatch):
    # numpy's errstate lives in a contextvar: the worker's half runs under
    # the caller's, and on one CPU both halves run here, in turn
    ran = []

    def half(name):
        def run():
            ran.append((name, threading.current_thread().name.startswith("charseg-worker"), np.geterr()["invalid"]))
        return run

    for cpus, worker in ((2, True), (1, False)):
        monkeypatch.setattr(nncore, "usable_cpus", lambda: cpus)
        ran.clear()
        with np.errstate(invalid="raise"):
            assert fork_join(half("first"), half("second")) is worker
        assert sorted(ran) == [("first", False, "raise"), ("second", worker, "raise")]


@pytest.mark.parametrize("failing", ["first", "second"])
def test_fork_join_raises_only_after_the_workers_half_has_ended(monkeypatch, failing):
    # an error of either half reaches the caller, and only once the
    # worker's half, which runs longer, has ended
    monkeypatch.setattr(nncore, "usable_cpus", lambda: 2)
    ended = threading.Event()

    def first():
        if failing == "first":
            raise ValueError("first")

    def second():
        time.sleep(0.2)
        ended.set()
        if failing == "second":
            raise ValueError("second")

    with pytest.raises(ValueError, match=failing):
        fork_join(first, second)
    assert ended.is_set()
    assert fork_join(lambda: None, lambda: None)  # the worker still serves


def test_fork_join_on_the_worker_runs_both_halves_in_turn(monkeypatch):
    # work on the worker never waits for it: a fork_join called there runs
    # its halves in turn (handing one to the busy worker would never end)
    monkeypatch.setattr(nncore, "usable_cpus", lambda: 2)
    nested = []
    caller = threading.Thread(target=fork_join, daemon=True,
                              args=(lambda: None, lambda: nested.append(fork_join(lambda: None, lambda: None))))
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive() and nested == [False]


def test_fork_join_lets_go_of_the_workers_half(monkeypatch):
    # an idle worker holds nothing of the last half it ran: a pass's arrays
    # (an encoder output, say) are freed when the pass ends, not at the
    # worker's next job
    monkeypatch.setattr(nncore, "usable_cpus", lambda: 2)
    arr = np.ones(4)
    ref = weakref.ref(arr)
    assert fork_join(lambda: None, functools.partial(np.sum, arr))
    del arr
    deadline = time.monotonic() + 5
    while ref() is not None and time.monotonic() < deadline:
        time.sleep(0.01)
    assert ref() is None
