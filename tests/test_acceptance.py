"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines. The expensive trained models are cached at module scope so the
overfit run happens once.
"""

import functools
import time

import numpy as np
import pytest

from charseg.cli import main
from charseg.corpus import (
    DatasetSplit,
    Sentence,
    read_labeled,
    segmentation_from_tags,
    tag_ids,
    tags_from_segmentation,
)
from charseg.crf import CrfParams, nll_loss, viterbi_decode
from charseg.metrics import tag_prf
from charseg.model import Model, ModelConfig, load_model, save_model, train
from charseg.subword import build_vocab
from charseg.synth import labeled_pairs, make_lexicon, make_sentences, make_split

from oracles import brute_force_paths, forward_loss, grad_check, log_partition, parse_report, tags_are_valid
from test_crf import random_mask, random_params


def report(n: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


@functools.lru_cache(maxsize=None)
def overfit_run():
    """Criterion 5 setup: 60-word lexicon over 20 letters, 100/20 split,
    full regimen at the permitted scaled dims."""
    split = make_split(n_train=100, n_dev=20, lexicon_seed=0, sentence_seed=1, n_words=60)
    vocab = build_vocab([s.text for s, _ in split.train])
    model = Model(ModelConfig(variant="sgnws", d_emb=32, hidden=64, epochs=40, seed=0), vocab)
    t0 = time.time()
    log = train(model, split)
    return split, vocab, model, log, time.time() - t0


# ---------------------------------------------------------------------------

def test_criterion_1_sdseg_format_compatibility(tmp_path):
    """Published benchmark scores need the original corpus, which is not
    distributed; this artifact must still consume corpora in that format
    (raw UTF-8 text lines) through the CLI without modification."""
    alphabet = "ابتثجحخدذرزسشصضطظعغفقکلمنهويٻڄڃڇ"
    lex = make_lexicon(n_words=40, alphabet=alphabet, min_len=2, max_len=6, seed=77)
    lines = make_sentences(lex, 30, min_tokens=6, max_tokens=9, seed=78)
    lines[0] += " 25-06-2020"
    lines[1] += " 689.0967"
    raw = tmp_path / "sdseg_like.txt"
    raw.write_text("\n".join(lines) + "\n", encoding="utf-8")

    prep = tmp_path / "prep"
    run = tmp_path / "run"
    ok_prepare = main(["prepare", str(raw), str(prep), "--seed", "0"]) == 0
    ok_train = main([
        "train", str(prep), "--out", str(run),
        "--epochs", "1", "--d-emb", "8", "--hidden", "12", "--seed", "0",
    ]) == 0
    rep_path = tmp_path / "rep.jsonl"
    ok_eval = main([
        "evaluate", "--checkpoint", str(run / "checkpoint.bin"),
        "--data", str(prep / "test.tsv"), "--out", str(rep_path),
    ]) == 0
    parsed = parse_report(str(rep_path))
    # the date is one token with continuous tags in the prepared data
    date_tagged = any(
        "BIIIIIIIIE" in tags and "25-06-2020" in s.text
        for s, tags in read_labeled(prep / "train.tsv")
        + read_labeled(prep / "dev.tsv") + read_labeled(prep / "test.tsv")
    )
    ok = ok_prepare and ok_train and ok_eval and 0.0 <= parsed.micro.f <= 1.0 and date_tagged
    report(1, ok, "benchmark-scale reproduction out of reach without the original corpus; "
                  "CLI consumes corpora in that format unmodified "
                  f"(prepare/train/evaluate exit 0, F={parsed.micro.f:.3f})")


def test_criterion_2_crf_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.time()
    n_trials = 1000
    worst_score = 0.0
    worst_z = 0.0
    for trial in range(n_trials):
        L = int(rng.integers(1, 7))
        emissions = rng.normal(size=(L, 5)) * 2
        params = random_params(rng)
        mask = random_mask(rng, L) if trial % 2 == 1 else None
        v_path, v_score = viterbi_decode(emissions, params, mask)
        b_path, b_score, b_log_z = brute_force_paths(emissions, params, mask)
        log_z = log_partition(emissions, params, mask)
        assert np.array_equal(v_path, b_path), f"trial {trial}: path mismatch"
        worst_score = max(worst_score, abs(v_score - b_score))
        worst_z = max(worst_z, abs(log_z - b_log_z))
    elapsed = time.time() - t0
    ok = worst_score < 1e-9 and worst_z < 1e-8 and elapsed < 30.0
    report(2, ok, f"{n_trials} instances (masked and unmasked): max score diff "
                  f"{worst_score:.2e}, max logZ diff {worst_z:.2e}, {elapsed:.1f}s")


def test_criterion_3_full_model_gradient_check():
    split = make_split(n_train=3, n_dev=1, lexicon_seed=2, sentence_seed=3, n_words=30)
    vocab = build_vocab([s.text for s, _ in split.train])
    model = Model(ModelConfig(variant="sgnws", d_emb=8, hidden=12, seed=0), vocab)
    data = [(s.text, tag_ids(t)) for s, t in split.train]
    params = model.tensors()

    def loss_and_grads():
        total, acc = 0.0, None
        for i, (text, gold) in enumerate(data):
            v, g = model.loss(text, gold, seed=4000 + i)
            total += v
            if acc is None:
                acc = g
            else:
                acc += g
        return total, model.views(acc)

    def loss():  # the same value, forward only
        return sum(forward_loss(model, text, gold, 4000 + i) for i, (text, gold) in enumerate(data))

    t0 = time.time()
    rep = grad_check(loss_and_grads, params, n_per_tensor=4, step=1e-5, tolerance=1e-4, seed=0, loss=loss)
    elapsed = time.time() - t0
    ok = rep.passed and elapsed < 60.0
    report(3, ok, f"max rel err {rep.max_rel_err:.2e} over {rep.n_checked} coords "
                  f"({elapsed:.1f}s, 64-bit central differences, step 1e-5)")


def test_criterion_4_tagging_round_trip():
    lexicon = make_lexicon(n_words=80, seed=40)
    lines = make_sentences(lexicon, 10_000, min_tokens=5, max_tokens=12, seed=41,
                           separators=(" ", " ", " ", "\t"))
    t0 = time.time()
    n_checked = 0
    for s, tags in labeled_pairs(lines):
        assert tags_are_valid(tags)
        tokens, repairs = segmentation_from_tags(s.text, tags)
        assert repairs == 0
        assert tokens == s.tokens()
        n_checked += 1
    elapsed = time.time() - t0
    ok = n_checked == 10_000 and elapsed < 10.0
    report(4, ok, f"{n_checked} sentences: inverse exact, repair_count 0, "
                  f"grammar valid, {elapsed:.1f}s")


def test_criterion_5_overfit_sanity(tmp_path):
    split, vocab, model, log, elapsed = overfit_run()
    gold = [t for _, t in split.train]
    pred = [model.predict(s.text) for s, _ in split.train]
    train_acc = tag_prf(gold, pred).micro.p
    best_dev_f = max(r.dev_f for r in log)

    # trainer progress: loss strictly decreases across the first five
    # epochs except where it has already collapsed below a tenth of the
    # starting loss (convergence floor; see the epoch log)
    first = [r.train_loss for r in log[:5]]
    floor = 0.1 * first[0]
    progressing = all(b < a or b < floor for a, b in zip(first, first[1:]))

    # the trained model reproduces gold segmentation through the CLI
    ckpt_dir = tmp_path / "ckpt"
    ckpt_dir.mkdir()
    save_model(model, ckpt_dir / "checkpoint.bin")
    vocab.save(ckpt_dir / "vocab.tsv")
    sample = [s.text for s, _ in split.train[:5]]
    inp = tmp_path / "in.txt"
    inp.write_text("\n".join(sample) + "\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    assert main(["segment", "--checkpoint", str(ckpt_dir / "checkpoint.bin"),
                 "--input", str(inp), "--output", str(out)]) == 0
    segmented = out.read_text(encoding="utf-8").splitlines()
    cli_exact = all(
        seg.split(" ") == Sentence.from_text(txt).tokens()
        for seg, txt in zip(segmented, sample)
    )

    # and the CLI evaluator agrees on the training file
    from charseg.corpus import write_labeled

    train_tsv = tmp_path / "train.tsv"
    write_labeled(train_tsv, split.train)
    rep_path = tmp_path / "train_rep.jsonl"
    assert main(["evaluate", "--checkpoint", str(ckpt_dir / "checkpoint.bin"),
                 "--data", str(train_tsv), "--out", str(rep_path)]) == 0
    cli_f = parse_report(str(rep_path)).micro.f

    ok = (train_acc >= 0.99 and best_dev_f >= 0.95 and elapsed < 900
          and progressing and cli_exact and cli_f >= 0.99)
    report(5, ok, f"train tag accuracy {train_acc:.4f} (>= 0.99), dev F {best_dev_f:.4f} "
                  f"(>= 0.95) within 40 epochs, {elapsed:.0f}s; CLI segment round trip "
                  f"exact, CLI evaluate train F {cli_f:.4f}")


def test_criterion_6_ablation_direction():
    split, vocab, _, _, _ = overfit_run()
    t0 = time.time()
    mean_f = {}
    for variant in ("lstm_softmax", "bilstm_softmax", "bilstm_crf", "sgnws"):
        fs = []
        for seed in (0, 1, 2):
            cfg = ModelConfig(variant=variant, d_emb=16, hidden=24, epochs=4, seed=seed)
            m = Model(cfg, vocab)
            vlog = train(m, split)
            fs.append(max(r.dev_f for r in vlog))
        mean_f[variant] = float(np.mean(fs))
    elapsed = time.time() - t0
    tol = 0.005  # violation beyond half an F-point fails
    ok = (
        mean_f["bilstm_softmax"] + tol >= mean_f["lstm_softmax"]
        and mean_f["sgnws"] + tol >= mean_f["bilstm_crf"]
    )
    report(6, ok, "seed-averaged dev F: " +
           ", ".join(f"{k} {v:.4f}" for k, v in mean_f.items()) +
           f" ({elapsed:.0f}s); bidirectional >= unidirectional and full model >= plain CRF")


def test_criterion_7_numeric_shift_invariance():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        L = int(rng.integers(2, 9))
        emissions = rng.normal(size=(L, 5)) * 3
        params = random_params(rng)
        gold = rng.integers(0, 5, size=L)
        pos = int(rng.integers(0, L))
        const = float(rng.normal() * 20)
        loss_a, _ = nll_loss(emissions, gold, params)
        path_a, _ = viterbi_decode(emissions, params)
        shifted = emissions.copy()
        shifted[pos] += const
        loss_b, _ = nll_loss(shifted, gold, params)
        path_b, _ = viterbi_decode(shifted, params)
        assert np.array_equal(path_a, path_b)
        worst = max(worst, abs(loss_a - loss_b))
    ok = worst < 1e-9
    report(7, ok, f"100 trials: max loss change under per-position shift {worst:.2e}, "
                  "Viterbi argmax unchanged")


def test_criterion_8_serialization(tmp_path):
    split, vocab, model, _, _ = overfit_run()
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(model, p1, metadata={"epoch": 0, "dev_f": 1.0})
    loaded = load_model(p1, vocab)
    save_model(loaded, p2, metadata={"epoch": 0, "dev_f": 1.0})
    byte_identical = p1.read_bytes() == p2.read_bytes()

    lexicon = make_lexicon(n_words=60, seed=0)
    fixed = make_sentences(lexicon, 50, seed=88)
    before = [model.predict(t) for t in fixed]
    after = [loaded.predict(t) for t in fixed]
    bit_identical = before == after
    ok = byte_identical and bit_identical
    report(8, ok, f"save -> load -> save byte-identical: {byte_identical}; "
                  f"predictions on 50 fixed sentences bit-identical: {bit_identical}")


def test_criterion_9_metrics_correctness():
    gold = ["BIIEXBIIES"]
    pred = ["BIIEXBIIIE"]  # 8 of 10 positions correct
    rep = tag_prf(gold, pred)
    exact = rep.micro.p == 0.8 and rep.micro.r == 0.8 and rep.micro.f == pytest.approx(0.8, abs=1e-15)

    from collections import Counter

    rng = np.random.default_rng(9)
    agree = True
    for _ in range(1000):
        L = int(rng.integers(1, 40))
        g = "".join("BIESX"[i] for i in rng.integers(0, 5, size=L))
        p = "".join("BIESX"[i] for i in rng.integers(0, 5, size=L))
        r = tag_prf([g], [p])
        confusion = Counter(zip(g, p))
        for t in "BIESX":
            want_true = sum(v for (gt, _), v in confusion.items() if gt == t)
            want_pred = sum(v for (_, pt), v in confusion.items() if pt == t)
            want_correct = confusion.get((t, t), 0)
            c = r.per_tag[t]
            if (c.true, c.predicted, c.correct) != (want_true, want_pred, want_correct):
                agree = False
    ok = exact and agree
    report(9, ok, "fixed 10-position example gives P=R=F=0.8 exactly; "
                  "confusion-matrix recount agrees on 1000 random instances")
