import io
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charseg.corpus import TAGS
from charseg.errors import LengthMismatch
from charseg.metrics import MetricsReport, prf, report_emit, tag_prf, token_f

from oracles import parse_report


def test_identity_is_perfect():
    rep = tag_prf(["BEXS"], ["BEXS"])
    assert (rep.micro.p, rep.micro.r, rep.micro.f) == (1.0, 1.0, 1.0)


def test_eight_of_ten_correct():
    gold = ["BIIEXBIIES"[:10]]
    pred = ["BIIEXBIIIE"[:10]]  # positions 8 and 9 differ
    assert sum(g == p for g, p in zip(gold[0], pred[0])) == 8
    rep = tag_prf(gold, pred)
    assert rep.micro.p == pytest.approx(0.8)
    assert rep.micro.r == pytest.approx(0.8)
    assert rep.micro.f == pytest.approx(0.8)


def test_confusion_matrix_recount(rng):
    # 1,000 random positions, independently recounted through a Counter
    gold_ids = rng.integers(0, 5, size=1000)
    pred_ids = rng.integers(0, 5, size=1000)
    gold = ["".join(TAGS[i] for i in gold_ids)]
    pred = ["".join(TAGS[i] for i in pred_ids)]
    rep = tag_prf(gold, pred)

    confusion = Counter(zip(gold[0], pred[0]))
    for t in TAGS:
        true = sum(v for (g, _), v in confusion.items() if g == t)
        predicted = sum(v for (_, p), v in confusion.items() if p == t)
        correct = confusion.get((t, t), 0)
        c = rep.per_tag[t]
        assert (c.true, c.predicted, c.correct) == (true, predicted, correct)
    total_correct = sum(confusion.get((t, t), 0) for t in TAGS)
    assert rep.micro.p == pytest.approx(total_correct / 1000)


def test_counts_sum_to_positions(rng):
    gold_ids = rng.integers(0, 5, size=333)
    pred_ids = rng.integers(0, 5, size=333)
    rep = tag_prf(["".join(TAGS[i] for i in gold_ids)], ["".join(TAGS[i] for i in pred_ids)])
    assert sum(c.true for c in rep.per_tag.values()) == 333
    assert sum(c.predicted for c in rep.per_tag.values()) == 333


@given(st.integers(min_value=1, max_value=400))
@settings(max_examples=25)
def test_micro_prf_equals_accuracy(n):
    rng = np.random.default_rng(n)
    gold = "".join(TAGS[i] for i in rng.integers(0, 5, size=n))
    pred = "".join(TAGS[i] for i in rng.integers(0, 5, size=n))
    rep = tag_prf([gold], [pred])
    acc = sum(g == p for g, p in zip(gold, pred)) / n
    assert rep.micro.p == pytest.approx(acc)
    assert rep.micro.r == pytest.approx(acc)
    assert rep.micro.f == pytest.approx(acc)


def test_zero_over_zero_convention():
    m = prf(0, 0, 0)
    assert (m.p, m.r, m.f) == (0.0, 0.0, 0.0)


def test_length_mismatch_names_sentence():
    with pytest.raises(LengthMismatch) as exc:
        tag_prf(["BE", "S"], ["BE", "SS"])
    assert exc.value.sentence_index == 1


def test_token_f_identity():
    spans = [[(0, 2), (3, 4)]]
    m = token_f(spans, spans)
    assert (m.p, m.r, m.f) == (1.0, 1.0, 1.0)


def test_token_f_no_overlap():
    m = token_f([[(0, 2), (3, 4)]], [[(0, 3)]])
    assert (m.p, m.r, m.f) == (0.0, 0.0, 0.0)


def test_token_f_partial_hand_computed():
    # gold "ab c": spans (0,2),(3,4); pred splits differently: (0,2),(2,4)
    m = token_f([[(0, 2), (3, 4)]], [[(0, 2), (2, 4)]])
    assert m.p == pytest.approx(0.5)
    assert m.r == pytest.approx(0.5)
    assert m.f == pytest.approx(0.5)


def test_report_emit_deterministic(tmp_path):
    rep = tag_prf(["BEXS", "SXS"], ["BEXS", "SXB"], model="demo")
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    report_emit(rep, str(a))
    report_emit(rep, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_report_tsv_header(tmp_path):
    rep = tag_prf(["BE"], ["BE"])
    out = io.StringIO()
    report_emit(rep, out, fmt="tsv")
    lines = out.getvalue().splitlines()
    assert lines[0] == "kind\ttag\tcorrect\tpredicted\ttrue\tp\tr\tf\tmodel\tsentences\tpositions"
    assert len(lines) == 1 + 5 + 3  # header, five tags, three aggregates


def test_report_json_round_trip(tmp_path):
    rep = tag_prf(["BEXS", "BIEXS"], ["BEXS", "BIEXB"], model="demo")
    rep.token = prf(3, 4, 5)
    path = tmp_path / "rep.jsonl"
    report_emit(rep, str(path))
    back = parse_report(str(path))
    assert back.model == rep.model
    assert back.n_sentences == rep.n_sentences
    assert back.n_positions == rep.n_positions
    for t in TAGS:
        assert back.per_tag[t] == rep.per_tag[t]
    for name in ("micro", "micro_excl_x", "macro", "token"):
        got = getattr(back, name)
        want = getattr(rep, name)
        assert got.p == pytest.approx(want.p, abs=5e-7)
        assert got.r == pytest.approx(want.r, abs=5e-7)
        assert got.f == pytest.approx(want.f, abs=5e-7)


def test_token_f_ignores_whitespace_only_differences():
    # "ab c d" and "ab\tc d" carry the same token spans; the whitespace
    # character itself never affects the span comparison
    from charseg.corpus import Sentence

    spans_space = Sentence.from_text("ab c d").token_spans
    spans_tab = Sentence.from_text("ab\tc d").token_spans
    assert spans_space == spans_tab
    m = token_f([spans_space], [spans_tab])
    assert m.f == 1.0


def test_micro_excl_x_ignores_whitespace_agreement():
    # everything right except one non-X tag; X positions all correct
    rep = tag_prf(["SXS"], ["SXB"])
    assert rep.micro.p == pytest.approx(2 / 3)
    assert rep.micro_excl_x.p == pytest.approx(1 / 2)
