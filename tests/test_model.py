import json
import math
import struct
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charseg import nncore, subword
from charseg.corpus import (
    TAG_TO_ID,
    WHITESPACE,
    DatasetSplit,
    Sentence,
    ids_to_tags,
    segmentation_from_tags,
    tag_ids,
)
from charseg.crf import grammar_mask, viterbi_decode
from charseg.errors import (
    BadConfig,
    BadMagic,
    CharsegError,
    EmptyCorpus,
    NonFiniteEmissions,
    NonFiniteGradient,
    ShapeMismatch,
    VocabMismatch,
)
from charseg.model import (
    BATCH_CHARS,
    Model,
    ModelConfig,
    _batches,
    build,
    load_model,
    read_checkpoint,
    save_model,
    train,
    write_checkpoint,
)
from charseg.nncore import BLOCK_ROWS, clip_global_norm
from charseg.subword import NgramVocab, TokenMemo, build_vocab
from charseg.synth import make_lexicon, make_sentences, make_split

from oracles import forward_loss, grad_check, head_from_batch_products, reference_parameters, tags_match_whitespace

V1_DIR = Path(__file__).parent / "data" / "v1_sgnws"
V1_VOCAB = NgramVocab.load(V1_DIR / "vocab.tsv")


@pytest.fixture(scope="module")
def tiny():
    split = make_split(n_train=8, n_dev=2, lexicon_seed=3, sentence_seed=4, n_words=20)
    vocab = build_vocab([s.text for s, _ in split.train], min_freq={1: 1, 2: 1, 3: 1, 4: 1})
    return split, vocab


def tiny_config(**kw):
    base = dict(variant="sgnws", d_emb=4, hidden=6, epochs=2, seed=0)
    base.update(kw)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_resolve_variant_defaults():
    cfg = ModelConfig(variant="sgnws").resolve()
    assert cfg.use_attention and cfg.use_start_scores and cfg.constrained_decode
    cfg = ModelConfig(variant="bilstm_crf").resolve()
    assert not cfg.use_attention and cfg.use_start_scores and cfg.constrained_decode
    cfg = ModelConfig(variant="lstm_softmax").resolve()
    assert not cfg.use_attention and not cfg.use_start_scores and not cfg.constrained_decode


def test_config_table_values():
    cfg = ModelConfig().resolve()
    assert cfg.d_emb == 64
    assert cfg.hidden == 200
    assert cfg.dropout == 0.25
    assert cfg.lr == 0.025
    assert cfg.grad_clip == 5.0
    assert cfg.epochs == 40


def test_bad_config_attention_on_baseline():
    with pytest.raises(BadConfig):
        ModelConfig(variant="bilstm_crf", use_attention=True).resolve()


def test_bad_config_crf_flags_on_softmax():
    with pytest.raises(BadConfig):
        ModelConfig(variant="lstm_softmax", constrained_decode=True).resolve()
    with pytest.raises(BadConfig):
        ModelConfig(variant="bilstm_softmax", use_start_scores=True).resolve()


def test_bad_config_numeric():
    with pytest.raises(BadConfig):
        ModelConfig(d_emb=0).resolve()
    with pytest.raises(BadConfig):
        ModelConfig(dropout=1.0).resolve()
    with pytest.raises(BadConfig):
        ModelConfig(variant="transformer").resolve()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0], ids=["nan", "inf", "-inf", "0", "-1"])
@pytest.mark.parametrize("name", ["lr", "lr_decay", "grad_clip"])
def test_bad_config_step_sizes_must_be_finite_and_positive(name, value):
    # NaN passed the old `value <= 0` check and trained into NaN parameters
    with pytest.raises(BadConfig, match=name):
        ModelConfig(**{name: value}).resolve()


def test_bad_config_negative_seed():
    # numpy's seed sequences refuse negative entries: train used to stop
    # with a ValueError traceback
    with pytest.raises(BadConfig, match="seed"):
        ModelConfig(seed=-1).resolve()


def test_config_from_dict_type_checks():
    cfg = ModelConfig.from_dict({"lr": 1, "hidden": 8, "use_attention": None})
    assert cfg.lr == 1.0 and type(cfg.lr) is float
    assert cfg.hidden == 8 and cfg.use_attention is None
    for bad in ({"hidden": "six"}, {"hidden": True}, {"hidden": 8.0}, {"dropout": "x"},
                {"dropout": False}, {"variant": 3}, {"use_4grams": 1}, {"use_4grams": None}):
        with pytest.raises(BadConfig):
            ModelConfig.from_dict(bad)


def test_feature_orders_respect_4gram_flag():
    assert ModelConfig(variant="sgnws", use_4grams=True).feature_orders() == (1, 2, 3, 4)
    assert ModelConfig(variant="sgnws", use_4grams=False).feature_orders() == (1, 2, 3)
    assert ModelConfig(variant="bilstm_crf_bigram").feature_orders() == (1, 2)


# ---------------------------------------------------------------------------
# build and shapes
# ---------------------------------------------------------------------------

def test_parameter_count_closed_form(tiny):
    """Full-size network; expected count derived independently from shapes."""
    _, vocab = tiny
    model = Model(ModelConfig(variant="sgnws", d_emb=64, hidden=200, seed=0), vocab)
    D, H, K = 64, 200, 5
    tables = sum(vocab.size(n) for n in (1, 2, 3, 4)) * D
    composer = 2 * (4 * D * D + 4 * D * (4 * D) + 4 * D)
    encoder = 2 * (4 * H * H + 4 * H * (6 * D) + 4 * H)
    dense = (2 * H) * (2 * H) + 2 * H
    attention = 4 * (2 * H) * (2 * H)
    out = (2 * H) * K + K
    crf = K * K + K
    assert composer == 164_352
    assert encoder == 936_000
    assert dense + attention + out + crf == 802_435
    assert model.parameter_count() == tables + composer + encoder + dense + attention + out + crf


def test_lstm_softmax_logit_shape(tiny):
    _, vocab = tiny
    model = Model(tiny_config(variant="lstm_softmax"), vocab)
    E, _ = model.emissions("ab cd e")
    assert E.shape == (7, 5)
    assert model.crf is None


def test_variant_feature_widths(tiny):
    _, vocab = tiny
    d = 4
    widths = {
        "lstm_softmax": d,
        "bilstm_softmax": d,
        "bilstm_crf": d,
        "bilstm_crf_char": d + 2 * d,
        "bilstm_crf_bigram": 2 * d + 2 * d,
        "bilstm_crf_trigram": 3 * d + 2 * d,
        "sgnws": 4 * d + 2 * d,
    }
    for variant, width in widths.items():
        model = Model(tiny_config(variant=variant), vocab)
        assert model.embedder.feature_width == width, variant


def test_build_is_seed_deterministic(tiny):
    _, vocab = tiny
    a = Model(tiny_config(), vocab)
    b = Model(tiny_config(), vocab)
    for (ka, va), (kb, vb) in zip(a.tensors().items(), b.tensors().items()):
        assert ka == kb
        np.testing.assert_array_equal(va, vb)


@pytest.mark.parametrize("kw", [{}, {"variant": "lstm_softmax"}, {"use_start_scores": False},
                                {"num_layers": 2}], ids=["sgnws", "lstm_softmax", "no-start", "2-layer"])
def test_tensors_tile_theta(tiny, kw):
    _, vocab = tiny
    model = Model(tiny_config(**kw), vocab)
    end = 0
    for name, (sl, shape) in model.layout.items():
        assert sl.start == end, name
        end = sl.stop
    assert end == model.theta.size == model.parameter_count()
    tensors = model.tensors()
    assert list(tensors) == list(model.layout)
    for name, arr in tensors.items():
        assert np.shares_memory(arr, model.theta), name
    # the containers the forward pass reads are the same memory
    assert np.shares_memory(model.out_proj.W, model.theta)
    assert np.shares_memory(model.encoder[0][0].W, model.theta)
    assert all(np.shares_memory(t, model.theta) for t in model.embedder.tables.values())
    with pytest.raises(ShapeMismatch):
        model.views(np.zeros(model.theta.size + 1))


def test_tensors_run_output_layer_first(tiny):
    # Training clips with clip_global_norm(model.views(G)), which adds one
    # float(sum(g * g)) per tensor in this order. Trained checkpoints and
    # perfbench's reference losses depend on that rounding, so this order
    # must stay the order backprop produces gradients: out, attn, dense,
    # encoder layers from the top, embedding tables, composer, crf.
    split, vocab = tiny
    model = Model(tiny_config(num_layers=2), vocab)
    names = list(model.tensors())
    prefixes = list(dict.fromkeys(n.rsplit(".", 1)[0] for n in names))
    assert prefixes == ["out", "attn", "dense", "enc1.fwd", "enc1.bwd", "enc0.fwd", "enc0.bwd",
                        "emb", "composer.fwd", "composer.bwd", "crf"]
    assert names[0] == "out.W" and names[-1] == "crf.start"
    # a frozen start comes last too, and its gradient is exactly 0.0: it adds
    # +0.0 to the norm, so clipping over every tensor keeps the bits of
    # clipping without it, and training leaves the start at 0
    frozen = Model(tiny_config(use_start_scores=False, epochs=1), vocab)
    assert list(frozen.tensors())[-1] == "crf.start"
    s, t = split.train[0]
    _, G = frozen.loss(s.text, tag_ids(t), seed=1)
    G_ref = G.copy()
    _, norm = clip_global_norm(frozen.views(G), 1e-3)
    _, norm_ref = clip_global_norm({n: g for n, g in frozen.views(G_ref).items() if n != "crf.start"}, 1e-3)
    assert norm.hex() == norm_ref.hex() and norm > 1e-3
    assert G.tobytes() == G_ref.tobytes()
    train(frozen, split)
    np.testing.assert_array_equal(frozen.crf.start, 0.0)


def test_layout_names_and_stacked_gate_views(tiny):
    # checkpoints, clipping sums and grad checks see one tensor per gate;
    # each stacked W, U and b is the view spanning its four gate tensors
    _, vocab = tiny
    model = Model(tiny_config(), vocab)
    gates = [f"{field}_{g}" for field in "WUb" for g in "ifco"]
    lstm = lambda prefix: [prefix + n for n in gates]  # noqa: E731
    assert list(model.layout) == (
        ["out.W", "out.b", "attn.W_q", "attn.W_k", "attn.W_v", "attn.W_o", "dense.W", "dense.b"]
        + lstm("enc0.fwd.") + lstm("enc0.bwd.") + ["emb.1", "emb.2", "emb.3", "emb.4"]
        + lstm("composer.fwd.") + lstm("composer.bwd.") + ["crf.transitions", "crf.start"]
    )

    def span(a):  # (address, bytes) of a contiguous array
        assert a.flags.c_contiguous
        return a.__array_interface__["data"][0], a.nbytes

    named = model.tensors()
    for prefix, p in [("enc0.fwd.", model.encoder[0][0]), ("enc0.bwd.", model.encoder[0][1]),
                      ("composer.fwd.", model.embedder.fwd), ("composer.bwd.", model.embedder.bwd)]:
        for field in "WUb":
            stacked = getattr(p, field)
            first, last = model.layout[f"{prefix}{field}_i"][0], model.layout[f"{prefix}{field}_o"][0]
            assert span(stacked) == span(model.theta[first.start : last.stop])
            n = p.hidden_dim
            for k, g in enumerate("ifco"):
                assert span(named[f"{prefix}{field}_{g}"]) == span(stacked[k * n : (k + 1) * n])


LAYOUT_VARIANTS = ["lstm_softmax", "bilstm_softmax", "bilstm_crf", "bilstm_crf_char",
                   "bilstm_crf_bigram", "bilstm_crf_trigram", "sgnws"]
LAYOUT_SETTINGS = {"default": {}, "3-layer": {"num_layers": 3}, "attn-10": {"attn_width": 10},
                   "no-4grams": {"use_4grams": False}, "no-start": {"use_start_scores": False},
                   "seed-7": {"seed": 7}}


@pytest.mark.parametrize("setting", list(LAYOUT_SETTINGS))
@pytest.mark.parametrize("variant", LAYOUT_VARIANTS)
def test_layout_and_initial_theta_match_reference(tiny, variant, setting):
    # the layout computed from config and vocabulary names, shapes and
    # orders the tensors exactly as running the initializers did, and the
    # draws written into theta are the same bits
    _, vocab = tiny
    config = tiny_config(variant=variant, **LAYOUT_SETTINGS[setting])
    model = Model(config, vocab)
    ref = reference_parameters(config, vocab)
    assert [(name, shape) for name, (_, shape) in model.layout.items()] == [(n, a.shape) for n, a in ref.items()]
    assert model.theta.tobytes() == np.concatenate([a.reshape(-1) for a in ref.values()]).tobytes()


def test_build_allocates_little_beyond_theta(tiny):
    # the draws go straight into theta's views: no second set of parameters
    _, vocab = tiny
    Model(ModelConfig(d_emb=64, hidden=200), vocab)  # first-call allocations
    tracemalloc.start()
    model = Model(ModelConfig(d_emb=64, hidden=200), vocab)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= model.theta.nbytes + 3_000_000, (peak, model.theta.nbytes)


def test_loss_refuses_non_finite_emissions(tiny):
    # every weight 1e308 is finite, but the forward overflows: the loss
    # stops before the CRF with a numeric error
    split, vocab = tiny
    model = Model(tiny_config(), vocab)
    model.theta[...] = 1e308
    s, t = split.train[0]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteEmissions):
        model.loss(s.text, tag_ids(t))


def test_loss_refuses_non_finite_emissions_without_warnings(tiny):
    # the overflow is reported once, as the error, not as numpy warnings too
    split, vocab = tiny
    model = Model(tiny_config(), vocab)
    model.theta[...] = 1e308
    s, t = split.train[0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonFiniteEmissions):
            model.loss(s.text, tag_ids(t), seed=0)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], [str(w.message) for w in caught]


def test_non_finite_crf_transition_is_a_numeric_failure(tiny):
    # no mask is in use in training, so an infinite transition is not a
    # data error: the loss is not finite, and train stops at the gradient
    split, vocab = tiny
    model = Model(tiny_config(), vocab)
    model.crf.transitions[TAG_TO_ID["B"], TAG_TO_ID["E"]] = np.inf
    s, t = split.train[0]
    value, _ = model.loss(s.text, tag_ids(t), seed=0)
    assert not np.isfinite(value)
    with pytest.raises(NonFiniteGradient):
        train(model, split)


def test_model_over_given_vector(tiny):
    # a loader passes the vector it fills: the parameters are its views and
    # nothing is drawn into it; a vector of another size is refused
    _, vocab = tiny
    theta = np.full(Model(tiny_config(), vocab).theta.size, 0.5)
    model = Model(tiny_config(), vocab, theta)
    assert model.theta is theta and np.all(theta == 0.5)
    assert np.shares_memory(model.encoder[0][1].U, theta)
    with pytest.raises(ShapeMismatch):
        Model(tiny_config(), vocab, np.empty(theta.size - 1))


def test_loss_gradient_is_zero_at_frozen_start(tiny):
    split, vocab = tiny
    model = Model(tiny_config(use_start_scores=False), vocab)
    s, t = split.train[0]
    _, G = model.loss(s.text, tag_ids(t), seed=1)
    assert G.shape == model.theta.shape
    np.testing.assert_array_equal(model.views(G)["crf.start"], 0.0)


@pytest.mark.parametrize("kw", [{}, {"variant": "lstm_softmax"}, {"use_start_scores": False}],
                         ids=["sgnws", "lstm_softmax", "no-start"])
def test_loss_gradient_ignores_uninitialized_memory(tiny, monkeypatch, kw):
    # the gradient vector is allocated uninitialized: NaN-filled fresh
    # arrays must give the same bits, so no view is left unwritten
    split, vocab = tiny
    model = Model(tiny_config(**kw), vocab)
    s, t = split.train[1]
    value, G = model.loss(s.text, tag_ids(t), seed=5)
    empty, empty_like = np.empty, np.empty_like

    def nan_filled(alloc):
        def fill(*args, **kwargs):
            out = alloc(*args, **kwargs)
            if out.dtype.kind == "f":
                out.fill(np.nan)
            return out
        return fill

    monkeypatch.setattr(np, "empty", nan_filled(empty))
    monkeypatch.setattr(np, "empty_like", nan_filled(empty_like))
    value_nan, G_nan = model.loss(s.text, tag_ids(t), seed=5)
    assert np.isnan(np.empty_like(G)).all()
    assert float(value_nan).hex() == float(value).hex()
    assert G_nan.tobytes() == G.tobytes()


def test_structural_layer_order(tiny):
    # attention sits between the hidden projection and the emission layer:
    # sgnws cannot be built without it
    _, vocab = tiny
    model = Model(tiny_config(variant="sgnws"), vocab)
    assert model.attn is not None
    assert model.hidden_proj.W.shape[1] == model.attn.W_q.shape[0]
    assert model.attn.W_o.shape[1] == model.out_proj.W.shape[0]


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def test_softmax_uniform_logits_loss(tiny):
    _, vocab = tiny
    model = Model(tiny_config(variant="bilstm_softmax", dropout=0.0), vocab)
    model.out_proj.W[:] = 0.0
    model.out_proj.b[:] = 0.0
    text = "ab cd"
    loss, _ = model.loss(text, tag_ids("BEXBE"))
    assert loss == pytest.approx(np.log(5))


def test_crf_loss_peaked_is_tiny(tiny):
    _, vocab = tiny
    model = Model(tiny_config(variant="sgnws", dropout=0.0), vocab)
    gold = tag_ids("BEXS")
    E = np.zeros((4, 5))
    E[np.arange(4), gold] = 50.0
    model.crf.transitions[:] = 0.0
    model.crf.start[:] = 0.0
    from charseg.crf import nll_loss

    loss, _ = nll_loss(E, gold, model.crf)
    assert loss < 1e-8


def test_full_model_grad_check_all_variants(tiny):
    """Gate: every variant's loss gradients check out before long runs."""
    split, vocab = tiny
    data = [(s.text, tag_ids(t)) for s, t in split.train[:2]]
    for variant in ("sgnws", "bilstm_crf_trigram", "bilstm_crf_bigram", "bilstm_crf_char",
                    "bilstm_crf", "lstm_softmax", "bilstm_softmax"):
        model = Model(tiny_config(variant=variant, dropout=0.25), vocab)
        params = model.tensors()

        def loss_and_grads():
            total, acc = 0.0, None
            for i, (text, gold) in enumerate(data):
                v, g = model.loss(text, gold, seed=900 + i)
                total += v
                if acc is None:
                    acc = g
                else:
                    acc += g
            return total, model.views(acc)

        def loss():  # the same value, forward only
            return sum(forward_loss(model, text, gold, 900 + i) for i, (text, gold) in enumerate(data))

        report = grad_check(loss_and_grads, params, n_per_tensor=2, seed=5, loss=loss)
        assert report.passed, f"{variant}: {report}"


def test_loss_length_mismatch(tiny):
    _, vocab = tiny
    model = Model(tiny_config(), vocab)
    from charseg.errors import LengthMismatch

    with pytest.raises(LengthMismatch):
        model.loss("abc", tag_ids("BE"))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_train_deterministic(tiny):
    split, vocab = tiny
    logs = []
    for _ in range(2):
        model = Model(tiny_config(epochs=2), vocab)
        logs.append([r.to_json() for r in train(model, split)])
    assert logs[0] == logs[1]


def test_train_empty_dev_raises(tiny):
    split, vocab = tiny
    model = Model(tiny_config(), vocab)
    with pytest.raises(EmptyCorpus):
        train(model, DatasetSplit(train=split.train, dev=[], test=[]))


def test_train_empty_train_raises(tiny):
    split, vocab = tiny
    model = Model(tiny_config(), vocab)
    with pytest.raises(EmptyCorpus):
        train(model, DatasetSplit(train=[], dev=split.dev, test=[]))


def test_train_batch_size_two_runs(tiny):
    split, vocab = tiny
    model = Model(tiny_config(epochs=1, batch_size=2), vocab)
    log = train(model, split)
    assert len(log) == 1
    assert np.isfinite(log[0].train_loss)


def test_train_holds_one_gradient_beyond_optimizer_and_snapshot(tiny):
    # beyond theta: Adamax's m and u, one best-dev buffer refreshed in
    # place and one gradient, as each sentence's is let go once it is in
    # the batch; a second gradient or snapshot would pass 5x theta
    split = make_split(n_train=2, n_dev=2)
    vocab = build_vocab(s.text for s, _ in split.train)
    model = Model(ModelConfig(d_emb=64, hidden=200, epochs=2, seed=0), vocab)
    tracemalloc.start()
    train(model, split)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 4.5 * model.theta.nbytes, (peak / model.theta.nbytes)


def test_train_leaves_the_first_best_dev_epoch_parameters(tiny):
    # the snapshot buffer is refreshed on each strictly better dev F and
    # copied back into theta at the end
    split, vocab = tiny
    model = Model(tiny_config(epochs=6, lr=1.0), vocab)
    seen = []
    log = train(model, split, progress=lambda rec: seen.append(model.theta.copy()))
    best = max(range(len(log)), key=lambda i: log[i].dev_f)
    assert log[-1].dev_f < log[best].dev_f
    assert model.theta.tobytes() == seen[best].tobytes()


def test_stacked_encoder_grad_check(tiny):
    split, vocab = tiny
    model = Model(tiny_config(variant="sgnws", num_layers=2), vocab)
    assert len(model.encoder) == 2
    text, tags = split.train[0]
    data = [(text.text, tag_ids(tags))]
    params = model.tensors()
    assert any(k.startswith("enc1.") for k in params)

    def loss_and_grads():
        v, g = model.loss(data[0][0], data[0][1], seed=77)
        return v, model.views(g)

    report = grad_check(loss_and_grads, params, n_per_tensor=2, seed=6,
                        loss=lambda: forward_loss(model, data[0][0], data[0][1], 77))
    assert report.passed, str(report)


def test_lr_decay_runs(tiny):
    split, vocab = tiny
    model = Model(tiny_config(epochs=2, lr_decay=0.5), vocab)
    log = train(model, split)
    assert len(log) == 2 and all(np.isfinite(r.train_loss) for r in log)


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def test_predict_empty_sentence(tiny):
    _, vocab = tiny
    model = Model(tiny_config(), vocab)
    assert model.predict("") == ""


def test_predict_constrained_whitespace_is_x(tiny):
    _, vocab = tiny
    model = Model(tiny_config(), vocab)
    text = "ab cd\tef"
    tags = model.predict(text)
    assert tags_match_whitespace(text, tags)
    tokens, repairs = segmentation_from_tags(text, tags)
    assert repairs == 0


def test_predict_unconstrained_flag(tiny):
    _, vocab = tiny
    model = Model(tiny_config(variant="bilstm_crf", constrained_decode=False), vocab)
    tags = model.predict("ab cd")
    assert len(tags) == 5  # may be ungrammatical, but must be total


def decode_cached(model, text):
    """Tags from the training forward's emissions, decoded as predict does."""
    E, _ = model.emissions(text)
    if model.crf is None:
        return ids_to_tags(np.argmax(E, axis=-1))
    mask = grammar_mask([c in WHITESPACE for c in text]) if model.config.constrained_decode else None
    return ids_to_tags(viterbi_decode(E, model.crf, mask)[0])


@pytest.mark.parametrize("variant", ["sgnws", "bilstm_crf_char", "lstm_softmax", "sgnws-2layer"])
def test_predict_many_matches_cached_emissions(tiny, variant):
    split, vocab = tiny
    kw = dict(variant="sgnws", num_layers=2) if variant == "sgnws-2layer" else dict(variant=variant)
    model = Model(tiny_config(d_emb=8, hidden=12, **kw), vocab)
    train(model, split)
    # criterion 8's fixed sentences and the dev split, with empty texts
    # between them and one text longer than a batch
    fixed = make_sentences(make_lexicon(n_words=60, seed=0), 50, seed=88)
    long_text = " ".join(fixed[:30])
    assert len(long_text) > BATCH_CHARS
    texts = fixed[:20] + ["", long_text, "", ""] + fixed[20:] + [""] + [s.text for s, _ in split.dev]
    full = [t for t in texts if t]
    memo = TokenMemo()
    got = list(model.predict_many(texts, memo))
    assert got == [decode_cached(model, t) if t else "" for t in texts]
    assert got == [model.predict(t) for t in texts]
    assert list(model.predict_many([long_text])) == [got[21]]
    assert memo.tokens == sum(len(t.split()) for t in texts)
    assert memo.composed == (len({w for t in texts for w in t.split()}) if variant != "lstm_softmax" else 0)
    # the long text shares its batch with the next non-empty text only
    assert 3 <= memo.batches == len(list(_batches(texts))) < len(full)
    assert [[t for t in b if t] for b in _batches(texts) if long_text in b] == [[long_text, fixed[20]]]
    for text, E in zip(full[:8], model.batch_emissions(full[:8], TokenMemo())):
        ref, _ = model.emissions(text)
        assert np.max(np.abs(E - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("kw", [dict(attn_width=5), dict(use_attention=False), dict(d_emb=64, hidden=200)],
                         ids=["attn-width", "no-attention", "paper-size"])
def test_batch_emissions_match_training_forward(tiny, kw):
    # the batched head folds attention's value path into the output layer;
    # a text longer than a batch runs alone, others share one pass
    split, vocab = tiny
    model = Model(tiny_config(**kw), vocab)
    texts = [s.text for s, _ in split.train]
    long_text = " ".join(texts * 4)
    assert len(long_text) > BATCH_CHARS
    for batch in (texts[:4], [long_text]):
        for text, E in zip(batch, model.batch_emissions(batch, TokenMemo()), strict=True):
            ref, _ = model.emissions(text)
            assert np.max(np.abs(E - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("kw", [dict(), dict(d_emb=64, hidden=200)], ids=["stacked", "split"])
def test_batch_emissions_by_blocks_and_chunks_match_training_forward(tiny, kw):
    # texts longer than one attention row block whose gate inputs span
    # several chunks, alone and packed with others; small h runs both
    # directions in one step loop, h=200 one loop per direction
    split, vocab = tiny
    model = Model(tiny_config(**kw), vocab)
    texts = [s.text for s, _ in split.train]
    long_a, long_b = " ".join(texts * 2), " ".join(texts[::-1])
    assert len(long_a) > 2 * BLOCK_ROWS and len(long_b) > BLOCK_ROWS
    for batch in ([long_a], [long_a, texts[0], long_b]):
        for text, E in zip(batch, model.batch_emissions(batch, TokenMemo()), strict=True):
            ref, _ = model.emissions(text)
            assert np.max(np.abs(E - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_long_texts_batched_in_pairs(tiny):
    # a batch closes only once it holds two non-empty texts: two texts
    # longer than a batch share one pass, and a third text starts the next
    split, vocab = tiny
    model = Model(tiny_config(d_emb=8, hidden=12), vocab)
    texts = [s.text for s, _ in split.train]
    long_a, long_b = " ".join(texts * 4), " ".join(texts[::-1] * 4)
    assert min(len(long_a), len(long_b)) > BATCH_CHARS
    alone = [model.predict(long_a), model.predict(long_b)]
    memo = TokenMemo()
    assert list(model.predict_many([long_a, long_b], memo)) == alone
    assert memo.batches == 1
    memo = TokenMemo()
    assert list(model.predict_many(["", long_a, "", long_b, "", texts[0]], memo)) == [
        "", alone[0], "", alone[1], "", model.predict(texts[0])]
    assert memo.batches == 2


def test_sentence_length_lines_run_in_one_batch(tiny):
    # 24 lines of 26-60 characters fit one batch, so every step of the
    # encoder runs up to 24 rows at once: the tags of predicting each line
    # alone, and emissions within 1e-13 of the training forward's
    split, vocab = tiny
    model = Model(tiny_config(d_emb=8, hidden=12), vocab)
    train(model, split)
    lines = [t for t in make_sentences(make_lexicon(n_words=20, seed=3), 40, seed=3000) if 26 <= len(t) <= 60][:24]
    assert len(lines) == 24 and sum(map(len, lines)) > 800
    assert list(_batches(lines)) == [lines]
    memo = TokenMemo()
    assert list(model.predict_many(lines, memo)) == [model.predict(t) for t in lines]
    assert memo.batches == 1
    for text, E in zip(lines, model.batch_emissions(lines, TokenMemo()), strict=True):
        ref, _ = model.emissions(text)
        assert np.max(np.abs(E - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_predict_many_memory_linear_in_text_length(tiny):
    # attention by row blocks and gate inputs by chunks: one text of about
    # 4,000 characters never holds an L x L array
    split, vocab = tiny
    model = Model(tiny_config(), vocab)
    text = " ".join(s.text for s, _ in split.train * 13)
    L = len(text)
    assert 3900 < L < 4200
    list(model.predict_many([text[:300]]))  # first-call allocations
    tracemalloc.start()
    list(model.predict_many([text]))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < L * L * 8, (peak, L * L * 8)


def paper_size_pair():
    """A 64/200 model and two texts of about 1,600 characters each."""
    sentences = [s.text for s, _ in make_split(n_train=200, n_dev=1).train]
    texts = [" ".join(sentences[:45])[:1600].strip(), " ".join(sentences[45:90])[:1600].strip()]
    assert all(1590 < len(t) <= 1600 for t in texts)
    return Model(ModelConfig(d_emb=64, hidden=200, seed=0), build_vocab(sentences)), texts


def test_predict_many_pair_peak_is_features_and_one_encoder_output():
    # the pair runs as one batch: the encoder writes both directions into
    # one output (no hstack, no reordered copy) and the dense rows go back
    # into it by row blocks, so the head holds one N x width array; beside
    # it, one block of scores (BLOCK_ROWS x the longer text) and less than
    # 5 MiB: one window of queries, E and the folded value path (N x 5
    # each), and the two weight copies the memo keeps (1.3 MB each)
    model, texts = paper_size_pair()
    L, cfg = sum(map(len, texts)), model.config
    memo = TokenMemo()
    tracemalloc.start()
    list(model.predict_many(texts, memo))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert memo.batches == 1
    assert peak < 8 * (L * 2 * cfg.hidden + BLOCK_ROWS * max(map(len, texts))) + 5 * 2**20, peak


def test_batch_emissions_keep_the_bits_of_whole_batch_products():
    # the dense rows by row blocks into the encoder output, and Q by text
    # and by row block, each from a product over at least BLOCK_ROWS rows:
    # the bits of products over the whole batch, for batches on either side
    # of one and two blocks, even for a one-row last block or a text of a
    # few characters, or 150 of them (BLAS takes products of a few rows
    # through another kernel); at attn_width=5 the dense rows take one
    # product into an array of their own
    model, (long_a, long_b) = paper_size_pair()
    narrow = Model(ModelConfig(d_emb=64, hidden=200, seed=0, attn_width=5), model.vocab)
    batches = [[long_a[:n]] for n in (1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1)] + [
        [long_a[:5], long_b], [long_a[: 2 * BLOCK_ROWS + 3], long_b[:6]],
        [long_a[:300], long_b[: 2 * BLOCK_ROWS - 299]], [long_a[:600], long_b[:350]],
        [long_a[i : i + 4] for i in range(0, 600, 4)]]
    for m in (model, narrow):
        for batch in batches:
            got = m.batch_emissions(batch, TokenMemo())
            want = head_from_batch_products(m, batch)
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want, strict=True))


def record_table_rule(monkeypatch) -> list[bool]:
    """The answers nncore.gate_table_fits gives from now on, in order."""
    answers, fits = [], nncore.gate_table_fits

    def recording(*args):
        answers.append(fits(*args))
        return answers[-1]

    monkeypatch.setattr(nncore, "gate_table_fits", recording)
    return answers


@pytest.mark.parametrize("kw", [dict(d_emb=8, hidden=12), dict(d_emb=64, hidden=200)], ids=["stacked", "split"])
def test_layer0_distinct_rows_keep_the_bits_of_per_character_rows(tiny, kw, monkeypatch):
    # layer 0 reads the batch's distinct feature rows by the row index; with
    # repeated tokens or whitespace runs its gate inputs come from one table,
    # in short batches each chunk gathers its rows, and both keep the bits of
    # the encoder over one feature row per character (the repeated text's
    # 4 * 256 + 5 rows in four chunks too)
    split, vocab = tiny
    model = Model(tiny_config(**kw), vocab)
    texts = [s.text for s, _ in split.train]
    words = texts[0].split()[:3]
    repeated = " ".join(words * 150)[: 4 * BLOCK_ROWS + 5]
    runs = "   ".join(words * 60) + " \t \t" + " ".join(words)
    one = words[0][0]
    rows, index = subword.char_features_cached([one, one], vocab, model.embedder, TokenMemo())
    assert len(rows) == 1 and index.tolist() == [0, 0]
    answers = record_table_rule(monkeypatch)
    for batch, fits in (([repeated], True), ([runs, texts[1]], True), ([one, one], False), (texts[:4], False)):
        answers.clear()
        got = model.batch_emissions(batch, TokenMemo())
        assert answers and set(answers) == {fits}, batch
        want = head_from_batch_products(model, batch)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want, strict=True))


def test_folded_key_moves_emissions_within_1e_13_and_keeps_tags():
    # scores D (W_q W_k^T) D^T in place of (D W_q) (D W_k)^T: emissions
    # within 1e-13 of the largest, and the same Viterbi paths
    model, (long_a, long_b) = paper_size_pair()
    for batch in ([long_a], [long_a, long_b], [long_a[:150], long_b[:40]]):
        folded, unfolded = head_from_batch_products(model, batch), head_from_batch_products(model, batch, fold=False)
        for got, a, b in zip(model.batch_emissions(batch, TokenMemo()), folded, unfolded, strict=True):
            assert got.tobytes() == a.tobytes()
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
            assert viterbi_decode(a, model.crf)[0].tolist() == viterbi_decode(b, model.crf)[0].tolist()


def test_predict_many_after_parameter_write(tiny):
    # inference refills its gate-scaled weight copies on every pass, into
    # buffers the memo keeps: after a write to theta, a second call with
    # the same memo decodes with the new parameters
    split, vocab = tiny
    model = Model(tiny_config(d_emb=8, hidden=12), vocab)
    texts = [s.text for s, _ in split.train]
    memo = TokenMemo()
    before = list(model.predict_many(texts, memo))
    model.theta[...] = Model(tiny_config(d_emb=8, hidden=12, seed=1), vocab).theta
    after = list(model.predict_many(texts, memo))
    assert after != before
    assert after == list(Model(model.config, vocab, model.theta.copy()).predict_many(texts))
    assert list(model.predict_many(texts)) == after


@pytest.mark.parametrize("size", [(32, 64), (64, 200)], ids=["32/64", "64/200"])
def test_predict_many_concurrent_callers_match_a_sequential_run(tiny, size):
    # predict only reads the parameters: two threads, each with its own
    # memo, tag different lines on one model as a sequential run does
    split, vocab = tiny
    model = Model(tiny_config(d_emb=size[0], hidden=size[1]), vocab)
    texts = [s.text for s, _ in split.train + split.dev]
    lines = [texts[:5] + [" ".join(texts)], texts[5:] + [" ".join(texts[::-1] * 2)]]
    assert min(len(ls[-1]) for ls in lines) > BLOCK_ROWS
    want = [list(model.predict_many(ls)) for ls in lines]
    got, start = [None, None], threading.Barrier(2)

    def run(i):
        start.wait()
        got[i] = list(model.predict_many(lines[i], TokenMemo()))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert got == want


def test_predict_many_memo_bound(tiny, monkeypatch):
    split, vocab = tiny
    model = Model(tiny_config(), vocab)
    texts = [s.text for s, _ in split.train] * 4 + ["", "ab cd ab"]
    assert len(list(_batches(texts))) == 2
    want = list(model.predict_many(texts))
    distinct = len({w for t in texts for w in t.split()})
    monkeypatch.setattr(subword, "MEMO_TOKENS", 3)
    assert distinct > 3
    memo = TokenMemo()
    got = []
    for tags in model.predict_many(texts, memo):
        assert len(memo) <= 3
        got.append(tags)
    assert got == want
    assert got[-2] == ""
    assert memo.composed > distinct  # the memo was cleared and tokens composed again


def test_predict_many_memory_flat_in_line_count(tiny):
    split, vocab = tiny
    model = Model(tiny_config(d_emb=8, hidden=12), vocab)
    line = split.train[0][0].text
    few, many = [line] * 60, [line] * 600
    assert [len(b) for b in _batches(few)][:2] == [BATCH_CHARS // len(line)] * 2  # two full batches
    list(model.predict_many(few))  # first-call allocations
    peaks = []
    for texts in (few, many):
        tracemalloc.start()
        for _ in model.predict_many(texts):
            pass
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def test_predict_softmax_argmax(tiny):
    _, vocab = tiny
    model = Model(tiny_config(variant="lstm_softmax"), vocab)
    text = "ab cd"
    tags = model.predict(text)
    E, _ = model.emissions(text)
    from charseg.corpus import ids_to_tags

    assert tags == ids_to_tags(np.argmax(E, axis=-1))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_save_load_save_byte_identical(tiny, tmp_path):
    split, vocab = tiny
    model = Model(tiny_config(epochs=1), vocab)
    train(model, split)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(model, p1, metadata={"epoch": 0, "dev_f": 1.0})
    again = load_model(p1, vocab)
    save_model(again, p2, metadata={"epoch": 0, "dev_f": 1.0})
    assert p1.read_bytes() == p2.read_bytes()


def test_load_predictions_bit_identical(tiny, tmp_path):
    split, vocab = tiny
    model = Model(tiny_config(epochs=1), vocab)
    train(model, split)
    texts = [s.text for s, _ in split.train] + [s.text for s, _ in split.dev]
    before = [model.predict(t) for t in texts]
    path = tmp_path / "m.bin"
    save_model(model, path)
    loaded = load_model(path, vocab)
    after = [loaded.predict(t) for t in texts]
    assert before == after


def test_checkpoint_from_per_gate_arrays_loads(tmp_path):
    """tests/data/v1_sgnws holds a freshly built sgnws model (d_emb=4,
    hidden=4, seed=3) saved while each LSTM gate was still a separate array.
    It loads into the stacked layout, equals a fresh build, gives the same
    loss and gradient bits, and saves back to the same bytes."""
    vocab = NgramVocab.load(V1_DIR / "vocab.tsv")
    model = load_model(V1_DIR / "checkpoint.bin", vocab)
    np.testing.assert_array_equal(model.theta, Model(ModelConfig(d_emb=4, hidden=4, seed=3), vocab).theta)
    stored = read_checkpoint(V1_DIR / "checkpoint.bin").tensors
    np.testing.assert_array_equal(model.encoder[0][1].U[8:12], stored["enc0.bwd.U_c"])
    np.testing.assert_array_equal(model.embedder.fwd.b[4:8], stored["composer.fwd.b_f"])
    text = "sajqcpc gf rm gf sajqcpc ktqpo gtjeq ktqpo"
    value, G = model.loss(text, tag_ids("BIIIIIEXBEXBEXBEXBIIIIIEXBIIIEXBIIIEXBIIIE"))
    assert float(value).hex() == "0x1.162afe10ecf92p+6"
    assert float(np.sum(G * G)).hex() == "0x1.e4e94cf255e6fp+8"
    assert model.predict(text) == "SSSSSSSXSSXSSXSSXSSSSSSSXSSSSSXSSSSSXSSSSS"
    save_model(model, tmp_path / "again.bin", metadata={"epoch": 0})
    assert (tmp_path / "again.bin").read_bytes() == (V1_DIR / "checkpoint.bin").read_bytes()


V1_BYTES = (V1_DIR / "checkpoint.bin").read_bytes()
V1_HEAD_END = 16 + struct.unpack("<Q", V1_BYTES[8:16])[0]


# positions in the magic, lengths and JSON header half the time
@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.integers(0, V1_HEAD_END - 1), st.integers(0, len(V1_BYTES) - 1)),
                          st.integers(0, 255)), min_size=1, max_size=8))
def test_mutated_checkpoint_loads_or_raises_charseg_error(tmp_path_factory, edits):
    # any bytes either load or raise the package's own errors (exit 2 in
    # the CLI): never MemoryError, IndexError, KeyError ...
    blob = bytearray(V1_BYTES)
    for pos, value in edits:
        blob[pos] = value
    path = tmp_path_factory.getbasetemp() / "mutated.bin"
    path.write_bytes(bytes(blob))
    try:
        load_model(path, V1_VOCAB)
    except CharsegError:
        pass


def test_truncated_checkpoint_rejected(tiny, tmp_path):
    _, vocab = tiny
    model = Model(tiny_config(), vocab)
    path = tmp_path / "m.bin"
    save_model(model, path)
    blob = path.read_bytes()
    for cut in (2, 10, len(blob) // 2, len(blob) - 8):
        trunc = tmp_path / "t.bin"
        trunc.write_bytes(blob[:cut])
        with pytest.raises((BadMagic, ShapeMismatch)):
            load_model(trunc, vocab)


def test_not_a_checkpoint(tmp_path, tiny):
    _, vocab = tiny
    path = tmp_path / "junk.bin"
    path.write_bytes(b"PNG!" + b"\x00" * 64)
    with pytest.raises(BadMagic):
        load_model(path, vocab)


def test_vocab_mismatch_on_load(tiny, tmp_path):
    _, vocab = tiny
    other = build_vocab(["zz yy xx ww vv"], min_freq={1: 1, 2: 1, 3: 1, 4: 1})
    model = Model(tiny_config(), vocab)
    path = tmp_path / "m.bin"
    save_model(model, path)
    with pytest.raises(VocabMismatch):
        load_model(path, other)


def test_checkpoint_with_optimizer_field_loads(tiny, tmp_path):
    # version-1 checkpoints carry "optimizer": "adamax" in their config
    _, vocab = tiny
    model = Model(tiny_config(), vocab)
    path = tmp_path / "m.bin"
    save_model(model, path)
    raw = path.read_bytes()
    (n,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + n])
    for value, ok in (("adamax", True), ("sgd", False)):
        header["config"]["optimizer"] = value
        blob = json.dumps(header).encode("utf-8")
        edited = tmp_path / f"{value}.bin"
        edited.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + n :])
        if ok:
            np.testing.assert_array_equal(load_model(edited, vocab).theta, model.theta)
        else:
            with pytest.raises(BadConfig):
                load_model(edited, vocab)


def test_checkpoint_layout_hand_constructed(tmp_path):
    """One scalar tensor; expected bytes assembled by hand from the format."""
    path = tmp_path / "toy.bin"
    write_checkpoint(
        path,
        config={"x": 1},
        vocab_sha256="abc",
        metadata={},
        tensors={"w": np.array([2.5])},
    )
    header = b'{"config":{"x":1},"metadata":{},"tensors":[{"name":"w","offset":0,"shape":[1]}],"vocab_sha256":"abc"}'
    expected = (
        b"CSEG"
        + struct.pack("<I", 1)
        + struct.pack("<Q", len(header))
        + header
        + struct.pack("<d", 2.5)
    )
    assert path.read_bytes() == expected
    back = read_checkpoint(path)
    assert back.config == {"x": 1}
    assert back.vocab_sha256 == "abc"
    np.testing.assert_array_equal(back.tensors["w"], [2.5])


def test_non_finite_checkpoint_rejected(tmp_path):
    path = tmp_path / "nan.bin"
    write_checkpoint(path, config={}, vocab_sha256="", metadata={}, tensors={"w": np.array([np.nan])})
    with pytest.raises(ShapeMismatch):
        read_checkpoint(path)


def test_build_function_alias(tiny):
    _, vocab = tiny
    model = build(tiny_config(), vocab)
    assert isinstance(model, Model)


def test_custom_attention_width(tiny):
    _, vocab = tiny
    model = Model(tiny_config(variant="sgnws", attn_width=10), vocab)
    assert model.hidden_proj.W.shape == (12, 10)
    assert model.attn.W_q.shape == (10, 10)
    assert model.out_proj.W.shape == (10, 5)
    tags = model.predict("ab cd")
    assert len(tags) == 5


def test_malformed_header_is_bad_magic(tmp_path):
    import struct as _struct

    path = tmp_path / "bad.bin"
    header = b'{"config":{}}'  # valid JSON, missing required keys
    path.write_bytes(b"CSEG" + _struct.pack("<I", 1) + _struct.pack("<Q", len(header)) + header)
    with pytest.raises(BadMagic):
        read_checkpoint(path)
