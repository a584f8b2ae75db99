import builtins
import contextlib
import io
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import charseg
from charseg import model as model_mod
from charseg.cli import main
from charseg.corpus import Sentence, read_labeled, segmentation_from_tags, tags_from_segmentation, write_labeled
from charseg.errors import CharsegError
from charseg.nncore import BLOCK_ROWS
from charseg.subword import NgramVocab
from charseg.synth import make_lexicon, make_sentences

from oracles import parse_report


def child_env() -> dict:
    """The environment of a child process that imports this charseg, BLAS on one thread."""
    return dict(os.environ, OPENBLAS_NUM_THREADS="1",
                PYTHONPATH=os.pathsep.join([str(Path(charseg.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))


@pytest.fixture(scope="module")
def raw_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("raw")
    lexicon = make_lexicon(n_words=25, seed=21)
    lines = make_sentences(lexicon, 10, min_tokens=5, max_tokens=7, seed=22)
    path = root / "corpus.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def prepared(raw_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("prep")
    code = main(["prepare", str(raw_corpus), str(out), "--seed", "0",
                 "--min-freq1", "1", "--min-freq2", "1", "--min-freq3", "1", "--min-freq4", "1"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained(prepared, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main(["train", str(prepared), "--out", str(out),
                 "--epochs", "1", "--d-emb", "4", "--hidden", "6", "--seed", "0"])
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------

def test_prepare_split_sizes_and_vocab(prepared):
    train = read_labeled(prepared / "train.tsv")
    dev = read_labeled(prepared / "dev.tsv")
    test = read_labeled(prepared / "test.tsv")
    assert (len(train), len(dev), len(test)) == (8, 1, 1)
    assert (prepared / "vocab.tsv").exists()


def test_prepare_stats_match_hand_counts(raw_corpus, tmp_path, capsys):
    code = main(["prepare", str(raw_corpus), str(tmp_path / "p")])
    assert code == 0
    printed = capsys.readouterr().out
    lines = raw_corpus.read_text(encoding="utf-8").splitlines()
    tokens = [t for ln in lines for t in ln.split()]
    assert f"sentences        {len(lines)}" in printed
    assert f"tokens           {len(tokens)}" in printed
    assert f"unique words     {len(set(tokens))}" in printed
    avg = sum(len(t) for t in tokens) / len(tokens)
    assert f"avg word length  {avg:.3f}" in printed


def test_prepare_deterministic_bytes(raw_corpus, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["prepare", str(raw_corpus), str(a), "--seed", "9"]) == 0
    assert main(["prepare", str(raw_corpus), str(b), "--seed", "9"]) == 0
    for name in ("train.tsv", "dev.tsv", "test.tsv", "vocab.tsv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_prepare_missing_file(tmp_path):
    assert main(["prepare", str(tmp_path / "nope.txt"), str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("flags", [["--seed", "-1"], ["--ratios", "nan,0.5,0.5"], ["--ratios", "inf,-inf,1"],
                                   ["--max-tokens", "0"], ["--ratios=-0.5,1.0,0.5"], ["--ratios", "0,0,1"],
                                   ["--ratios", "1,0,0"]],
                         ids=["negative-seed", "nan-ratio", "infinite-ratios", "zero-max-tokens", "negative-ratio",
                              "zero-train-share", "zero-dev-share"])
def test_prepare_bad_flags_exit_1_with_one_error_line(raw_corpus, tmp_path, flags):
    # a seed default_rng refuses, ratios that are not finite and non-negative,
    # a zero train or dev share, or a token bound below 1 is a usage error,
    # found before anything is written
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from charseg.cli import main; sys.exit(main(sys.argv[1:]))",
         "prepare", str(raw_corpus), str(tmp_path / "out"), *flags],
        capture_output=True, text=True, env=child_env(), timeout=600,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith("error:"), proc.stderr
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_outputs(trained):
    assert (trained / "checkpoint.bin").exists()
    assert (trained / "vocab.tsv").exists()
    log_lines = (trained / "epochs.jsonl").read_text().splitlines()
    assert len(log_lines) == 1
    rec = json.loads(log_lines[0])
    assert set(rec) == {"epoch", "loss", "dev_p", "dev_r", "dev_f"}


def test_train_dump_config_defaults(capsys, tmp_path):
    code = main(["train", str(tmp_path), "--dump-config", "--variant", "sgnws"])
    assert code == 0
    dump = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert dump["variant"] == "sgnws"
    assert dump["d_emb"] == "64"
    assert dump["hidden"] == "200"
    assert dump["dropout"] == "0.25"
    assert dump["lr"] == "0.025"
    assert dump["grad_clip"] == "5.0"
    assert dump["epochs"] == "40"
    assert dump["use_attention"] == "True"
    assert dump["constrained_decode"] == "True"


def test_train_byte_deterministic(prepared, tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = main(["train", str(prepared), "--out", str(out),
                     "--epochs", "1", "--d-emb", "4", "--hidden", "6", "--seed", "3"])
        assert code == 0
        outs.append(out)
    for name in ("checkpoint.bin", "epochs.jsonl", "vocab.tsv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_train_conflicting_flags_usage_error(tmp_path):
    code = main(["train", str(tmp_path), "--variant", "lstm_softmax", "--constrained-decode"])
    assert code == 1
    code = main(["train", str(tmp_path), "--variant", "bilstm_crf", "--use-attention"])
    assert code == 1


def test_train_rejects_nan_learning_rate(prepared, tmp_path, capsys):
    # it used to train into NaN parameters and exit 2 with a gold-path error
    code = main(["train", str(prepared), "--out", str(tmp_path / "run"),
                 "--epochs", "1", "--d-emb", "4", "--hidden", "6", "--lr", "nan"])
    assert code == 1
    err = capsys.readouterr().err
    assert "lr must be finite and positive" in err and "Traceback" not in err
    assert not (tmp_path / "run" / "checkpoint.bin").exists()


def test_non_finite_crf_transition_exits_3(prepared, tmp_path, capsys, monkeypatch):
    # an infinite CRF transition is a numeric failure of training, not a
    # data error: one numeric failure line, exit 3
    train = model_mod.train

    def train_with_inf(net, split, **kwargs):
        net.crf.transitions[0, 0] = float("inf")
        return train(net, split, **kwargs)

    monkeypatch.setattr(model_mod, "train", train_with_inf)
    code = main(["train", str(prepared), "--out", str(tmp_path / "run"), "--epochs", "1",
                 "--d-emb", "4", "--hidden", "6"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: global gradient norm is ") and err.count("\n") == 1, err


def test_diverging_train_prints_only_its_numeric_failure(tmp_path, capsys, recwarn):
    # a learning rate that blows the parameters up: the non-finite gradient
    # norm is reported once, as the error line, not as numpy warnings from
    # the CRF loss and the backward too, and no output is left behind
    raw = tmp_path / "corpus.txt"
    raw.write_text("\n".join(make_sentences(make_lexicon(n_words=25, seed=21), 40, seed=22)) + "\n", encoding="utf-8")
    assert main(["prepare", str(raw), str(tmp_path / "prep"), "--seed", "0"]) == 0
    capsys.readouterr()
    run = tmp_path / "run"
    code = main(["train", str(tmp_path / "prep"), "--out", str(run),
                 "--epochs", "3", "--d-emb", "8", "--hidden", "12", "--lr", "1e6"])
    assert code == 3
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)], [str(w.message) for w in recwarn]
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: global gradient norm is ") and err.count("\n") == 1, err
    assert not (run / "checkpoint.bin").exists() and not (run / "epochs.jsonl").exists()


def test_unknown_flag_usage_error(tmp_path):
    assert main(["train", str(tmp_path), "--frobnicate"]) == 1


def test_config_file_precedence(prepared, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("hidden=32\nlr=0.01\n# comment\nuse_4grams=false\n", encoding="utf-8")
    code = main(["train", str(prepared), "--dump-config", "--config", str(cfg), "--lr", "0.02"])
    assert code == 0
    dump = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert dump["hidden"] == "32"      # from file
    assert dump["lr"] == "0.02"        # flag wins over file
    assert dump["use_4grams"] == "False"
    assert dump["epochs"] == "40"      # default


def test_config_file_bad_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("no_such_field=3\n", encoding="utf-8")
    assert main(["train", str(tmp_path), "--dump-config", "--config", str(cfg)]) == 1


def test_config_file_bad_value(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("hidden=six\n", encoding="utf-8")
    assert main(["train", str(tmp_path), "--dump-config", "--config", str(cfg)]) == 1


# ---------------------------------------------------------------------------
# segment
# ---------------------------------------------------------------------------

def test_segment_output_shape(trained, prepared, tmp_path):
    inp = tmp_path / "in.txt"
    inp.write_text("ab cd ef\n\nqq rr\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    code = main(["segment", "--checkpoint", str(trained / "checkpoint.bin"),
                 "--input", str(inp), "--output", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").split("\n")
    assert lines[1] == ""  # empty input line -> empty output line
    for line in lines[:-1]:
        assert "  " not in line
        assert line == line.strip()


def test_segment_emit_tags_readable(trained, tmp_path):
    inp = tmp_path / "in.txt"
    inp.write_text("ab cd ef gh\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    tags_path = tmp_path / "tags.tsv"
    code = main(["segment", "--checkpoint", str(trained / "checkpoint.bin"),
                 "--input", str(inp), "--output", str(out), "--emit-tags", str(tags_path)])
    assert code == 0
    pairs = read_labeled(tags_path)
    assert len(pairs) == 1
    assert len(pairs[0][1]) == len("ab cd ef gh")


def test_segment_emit_tags_streams_write_labeled_bytes(trained, tmp_path):
    # each line's block is written as it is tagged; the file holds the
    # bytes write_labeled gives the same pairs (escapes, blank lines)
    inp = tmp_path / "in.txt"
    inp.write_text("ab cd ef\n\n  qq \t a\\b\nx\n" + "ab cd " * 60 + "\n", encoding="utf-8")
    out, tags_path, ref = tmp_path / "out.txt", tmp_path / "tags.tsv", tmp_path / "ref.tsv"
    code = main(["segment", "--checkpoint", str(trained / "checkpoint.bin"),
                 "--input", str(inp), "--output", str(out), "--emit-tags", str(tags_path)])
    assert code == 0
    pairs = read_labeled(tags_path)
    assert [s.text for s, _ in pairs] == ["ab cd ef", "qq a\\b", "x", ("ab cd " * 60).strip()]
    write_labeled(ref, pairs)
    assert tags_path.read_bytes() == ref.read_bytes()


def test_failed_segment_output_leaves_neither_file(trained, tmp_path, monkeypatch):
    inp = tmp_path / "in.txt"
    inp.write_text("ab cd ef\ngh ij\n", encoding="utf-8")
    out, tags_path = tmp_path / "seg.txt", tmp_path / "tags.tsv"
    real_open = builtins.open

    def failing_open(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)
        return HalfWrite(f) if "w" in mode and Path(file).name.startswith(out.name) else f

    monkeypatch.setattr(builtins, "open", failing_open)
    assert main(["segment", "--checkpoint", str(trained / "checkpoint.bin"), "--input", str(inp),
                 "--output", str(out), "--emit-tags", str(tags_path)]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.txt"]


def edit_checkpoint(src: Path, dst: Path, edit, trailing: bytes = b"") -> None:
    """Copy a checkpoint, letting edit(header) change its JSON header."""
    raw = src.read_bytes()
    (n,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + n])
    edit(header)
    blob = json.dumps(header).encode("utf-8")
    dst.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + n :] + trailing)


@pytest.mark.parametrize("field, value", [("hidden", "six"), ("dropout", "x")])
def test_segment_mistyped_checkpoint_config(trained, tmp_path, field, value):
    ckpt = tmp_path / "checkpoint.bin"
    edit_checkpoint(trained / "checkpoint.bin", ckpt, lambda h: h["config"].update({field: value}))
    inp = tmp_path / "in.txt"
    inp.write_text("ab cd\n", encoding="utf-8")
    code = main(["segment", "--checkpoint", str(ckpt), "--vocab", str(trained / "vocab.tsv"),
                 "--input", str(inp), "--output", str(tmp_path / "out.txt")])
    assert code == 2


def test_segment_failing_midway_leaves_no_output(trained, tmp_path):
    # lines 1 and 2 are segmented before line 3's invalid UTF-8 fails the run
    inp = tmp_path / "in.txt"
    inp.write_bytes(b"ab cd\nef gh\n\xff ij\n")
    out = tmp_path / "out" / "segmented.txt"
    out.parent.mkdir()
    code = main(["segment", "--checkpoint", str(trained / "checkpoint.bin"),
                 "--input", str(inp), "--output", str(out)])
    assert code == 2
    assert list(out.parent.iterdir()) == []


def test_train_failing_checkpoint_write_keeps_old_file(prepared, trained, tmp_path, monkeypatch):
    out = tmp_path / "run"
    out.mkdir()
    old = (trained / "checkpoint.bin").read_bytes()
    (out / "checkpoint.bin").write_bytes(old)

    class DiskFull:
        """A last tensor whose bytes cannot be written, as on a full disk."""
        shape, size = (1,), 1

        def __array__(self, *args, **kwargs):
            raise OSError(28, "No space left on device")

    tensors = model_mod.Model.tensors
    monkeypatch.setattr(model_mod.Model, "tensors",
                        lambda self: {**tensors(self), "~disk-full": DiskFull()})
    code = main(["train", str(prepared), "--out", str(out),
                 "--epochs", "1", "--d-emb", "4", "--hidden", "6", "--seed", "0"])
    assert code == 2
    assert [p.name for p in out.iterdir()] == ["checkpoint.bin"]
    assert (out / "checkpoint.bin").read_bytes() == old


class HalfWrite:
    """A file whose first write stores half its data and then fails, as
    on a full disk."""

    def __init__(self, f):
        self._f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def __getattr__(self, name):
        return getattr(self._f, name)

    def write(self, data):
        self._f.write(data[: len(data) // 2])
        self._f.flush()
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("case", ["prepare-train.tsv", "prepare-dev.tsv", "prepare-test.tsv", "prepare-vocab.tsv",
                                  "train-epochs.jsonl", "train-vocab.tsv", "segment-tags.tsv",
                                  "evaluate-report.jsonl"])
def test_failed_output_write_leaves_no_partial_file(raw_corpus, prepared, trained, tmp_path, monkeypatch, case):
    command, target = case.split("-", 1)
    out = tmp_path / "out"
    out.mkdir()
    inp = tmp_path / "in.txt"
    inp.write_text("ab cd ef\n", encoding="utf-8")
    ckpt = ["--checkpoint", str(trained / "checkpoint.bin")]
    argv = {
        "prepare": ["prepare", str(raw_corpus), str(out)],
        "train": ["train", str(prepared), "--out", str(out), "--epochs", "1", "--d-emb", "4", "--hidden", "6"],
        "segment": ["segment", *ckpt, "--input", str(inp), "--output", str(tmp_path / "seg.txt"),
                    "--emit-tags", str(out / target)],
        "evaluate": ["evaluate", *ckpt, "--data", str(prepared / "dev.tsv"), "--out", str(out / target)],
    }[command]
    real_open = builtins.open

    def failing_open(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)
        return HalfWrite(f) if "w" in mode and Path(file).name.startswith(target) else f

    for old in (None, b"old bytes\n"):
        if old is not None:
            (out / target).write_bytes(old)
        with monkeypatch.context() as m:
            m.setattr(builtins, "open", failing_open)
            assert main(argv) == 2
        assert not list(out.glob("*.tmp"))
        if old is None:
            assert not (out / target).exists()
        else:
            assert (out / target).read_bytes() == old


def test_segment_missing_checkpoint(tmp_path):
    inp = tmp_path / "in.txt"
    inp.write_text("a b\n", encoding="utf-8")
    code = main(["segment", "--checkpoint", str(tmp_path / "no.bin"),
                 "--input", str(inp), "--output", "-"])
    assert code == 2


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_oracle_is_perfect(prepared, tmp_path):
    out = tmp_path / "rep.jsonl"
    code = main(["evaluate", "--oracle", "--data", str(prepared / "dev.tsv"),
                 "--out", str(out)])
    assert code == 0
    rep = parse_report(str(out))
    assert rep.micro.f == 1.0
    assert rep.token.f == 1.0
    assert rep.model == "oracle"


def test_evaluate_checkpoint_report_parses(trained, prepared, tmp_path):
    out = tmp_path / "rep.jsonl"
    code = main(["evaluate", "--checkpoint", str(trained / "checkpoint.bin"),
                 "--data", str(prepared / "dev.tsv"), "--out", str(out)])
    assert code == 0
    rep = parse_report(str(out))
    assert 0.0 <= rep.micro.f <= 1.0
    assert rep.n_sentences == 1


def test_segment_and_evaluate_summary_line(trained, prepared, tmp_path, capsys):
    inp = tmp_path / "in.txt"
    inp.write_text("ab cd ab\n\n  qq \t ab\n", encoding="utf-8")
    code = main(["segment", "--checkpoint", str(trained / "checkpoint.bin"),
                 "--input", str(inp), "--output", str(tmp_path / "out.txt")])
    assert code == 0
    line = json.loads(capsys.readouterr().err.splitlines()[-1])
    keys = {"sentences", "chars", "seconds", "chars_per_s", "longest_line", "tokens", "composed", "batches",
            "max_rss_mb"}
    assert set(line) == keys | {"repairs"}
    assert line["max_rss_mb"] > 0
    # "ab cd ab" and "qq ab": ab is composed once
    assert (line["sentences"], line["chars"], line["longest_line"]) == (2, 13, 8)
    assert (line["tokens"], line["composed"], line["batches"]) == (5, 3, 1)
    assert line["repairs"] >= 0 and line["seconds"] > 0
    assert line["chars_per_s"] == pytest.approx(13 / line["seconds"], rel=1e-3)

    pairs = read_labeled(prepared / "dev.tsv")
    code = main(["evaluate", "--checkpoint", str(trained / "checkpoint.bin"),
                 "--data", str(prepared / "dev.tsv"), "--out", str(tmp_path / "rep.jsonl")])
    assert code == 0
    line = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert set(line) == keys
    assert (line["sentences"], line["chars"]) == (len(pairs), sum(len(s.text) for s, _ in pairs))
    assert line["tokens"] == sum(len(s.text.split()) for s, _ in pairs)
    assert line["composed"] == len({w for s, _ in pairs for w in s.text.split()})
    assert 1 <= line["batches"] <= len(pairs)


def test_evaluate_requires_checkpoint_or_oracle(prepared):
    assert main(["evaluate", "--data", str(prepared / "dev.tsv")]) == 1


def test_evaluate_tsv_format(trained, prepared, tmp_path):
    out = tmp_path / "rep.tsv"
    code = main(["evaluate", "--oracle", "--data", str(prepared / "dev.tsv"),
                 "--format", "tsv", "--out", str(out)])
    assert code == 0
    header = out.read_text(encoding="utf-8").splitlines()[0]
    assert header.startswith("kind\ttag\tcorrect")


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------

def test_inspect_prints_directory(trained, capsys):
    code = main(["inspect", str(trained / "checkpoint.bin")])
    assert code == 0
    out = capsys.readouterr().out
    assert "vocab sha256" in out
    assert "config.variant" in out
    assert "parameters" in out


def test_inspect_bad_file(tmp_path):
    p = tmp_path / "x.bin"
    p.write_bytes(b"nope")
    assert main(["inspect", str(p)]) == 2


@pytest.mark.parametrize("edit, trailing", [
    (lambda h: h["tensors"][0].update(shape=[str(n) for n in h["tensors"][0]["shape"]]), b""),
    (lambda h: h["tensors"][-1].update(shape=[-1, 2]), b""),
    (lambda h: h["tensors"][1].update(offset=h["tensors"][0]["offset"]), b""),
    (lambda h: None, bytes(8)),
    (lambda h: h["tensors"][1].update(name=h["tensors"][0]["name"]), b""),
    (lambda h: h.update(config=5), b""),
    (lambda h: h.update(vocab_sha256=5), b""),
], ids=["non-integer-shape", "negative-shape", "shared-offset", "trailing-bytes",
        "repeated-name", "config-not-object", "vocab-hash-not-string"])
def test_inspect_bad_tensor_directory(trained, tmp_path, edit, trailing):
    ckpt = tmp_path / "checkpoint.bin"
    edit_checkpoint(trained / "checkpoint.bin", ckpt, edit, trailing)
    assert main(["inspect", str(ckpt)]) == 2
    # load_model shares the directory checks
    inp = tmp_path / "in.txt"
    inp.write_text("ab cd\n", encoding="utf-8")
    code = main(["segment", "--checkpoint", str(ckpt), "--vocab", str(trained / "vocab.tsv"),
                 "--input", str(inp), "--output", str(tmp_path / "out.txt")])
    assert code == 2


def test_oversized_header_length_exit_code(tmp_path, capsys):
    # a header length past the end of the file is refused before any read
    v1 = Path(__file__).parent / "data" / "v1_sgnws"
    raw = (v1 / "checkpoint.bin").read_bytes()
    ckpt = tmp_path / "checkpoint.bin"
    ckpt.write_bytes(raw[:8] + struct.pack("<Q", 2**40) + raw[16:])
    inp = tmp_path / "in.txt"
    inp.write_text("ab cd\n", encoding="utf-8")
    assert main(["inspect", str(ckpt)]) == 2
    assert main(["segment", "--checkpoint", str(ckpt), "--vocab", str(v1 / "vocab.tsv"),
                 "--input", str(inp), "--output", str(tmp_path / "out.txt")]) == 2
    err = capsys.readouterr().err
    assert err.count("error: truncated checkpoint header") == 2 and "Traceback" not in err


V1_DIR = Path(__file__).parent / "data" / "v1_sgnws"
V1_VOCAB_BYTES = (V1_DIR / "vocab.tsv").read_bytes()


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(V1_VOCAB_BYTES) - 1), st.integers(0, 255)), min_size=1, max_size=8))
def test_mutated_vocab_loads_or_exits_2(tmp_path_factory, edits):
    # any bytes in vocab.tsv either load or raise the package's own errors,
    # and segment then exits 0 or 2 with no traceback
    blob = bytearray(V1_VOCAB_BYTES)
    for pos, value in edits:
        blob[pos] = value
    tmp = tmp_path_factory.mktemp("vocab")
    vocab = tmp / "vocab.tsv"
    vocab.write_bytes(bytes(blob))
    try:
        NgramVocab.load(vocab)
    except CharsegError:
        pass
    inp = tmp / "in.txt"
    inp.write_text("ab cd\nefgh\n", encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["segment", "--checkpoint", str(V1_DIR / "checkpoint.bin"), "--vocab", str(vocab),
                     "--input", str(inp), "--output", str(tmp / "out.txt")])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()


def mutate(data: bytes, edits) -> bytes:
    blob = bytearray(data)
    for pos, value in edits:
        blob[pos % len(blob)] = value
    return bytes(blob)


# (position modulo the file size, new byte), the bytes the readers parse drawn more often
BYTE_EDITS = st.lists(st.tuples(st.integers(0, 1 << 16), st.one_of(st.integers(0, 255), st.sampled_from(
    b"BIESX\\s\t\n =-.019e#"))), min_size=1, max_size=8)


@pytest.fixture(scope="module")
def labeled_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("labeled") / "gold.tsv"
    lines = make_sentences(make_lexicon(n_words=12, seed=31), 3, min_tokens=3, max_tokens=4, seed=32)
    write_labeled(path, [(s, tags_from_segmentation(s)) for s in map(Sentence.from_text, lines)])
    return path.read_bytes()


@settings(max_examples=150, deadline=None)
@given(edits=BYTE_EDITS)
def test_mutated_labeled_file_loads_or_exits_2(tmp_path_factory, labeled_bytes, edits):
    # any bytes in a labeled file either load or raise the package's own
    # errors, and evaluate then exits 0 or 2 with no traceback
    tmp = tmp_path_factory.mktemp("labeled")
    data = tmp / "gold.tsv"
    data.write_bytes(mutate(labeled_bytes, edits))
    try:
        read_labeled(data)
    except CharsegError:
        pass
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["evaluate", "--checkpoint", str(V1_DIR / "checkpoint.bin"), "--data", str(data),
                     "--out", str(tmp / "report.jsonl")])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()


CONFIG_BYTES = b"# a run\nvariant=sgnws\nd_emb=4\nhidden=6\nlr=0.025\ndropout=0.25\nuse_attention=true\nseed=0\n"


@settings(max_examples=150, deadline=None)
@given(edits=BYTE_EDITS)
def test_mutated_config_file_resolves_or_exits_1(tmp_path_factory, prepared, edits):
    # a --config file is a usage input: any bytes resolve or exit 1
    config = tmp_path_factory.mktemp("config") / "run.cfg"
    config.write_bytes(mutate(CONFIG_BYTES, edits))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["train", str(prepared), "--dump-config", "--config", str(config)])
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")


def test_train_rejects_negative_seed(prepared, tmp_path, capsys):
    code = main(["train", str(prepared), "--out", str(tmp_path / "run"), "--epochs", "1",
                 "--d-emb", "4", "--hidden", "6", "--seed", "-1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "seed must be >= 0, got 0 and -1" in err and "Traceback" not in err


@pytest.mark.parametrize("case", ["id-out-of-range", "repeated-id", "repeated-ngram"])
def test_train_rejects_inconsistent_vocab_ids(prepared, tmp_path, capsys, case):
    # each order's ids must be exactly 3.. (unigrams) or 2.. (longer n-grams)
    # up to the table size, each used once: a stray id would index past
    # the embedding table mid-training
    data = tmp_path / "data"
    data.mkdir()
    for name in ("train.tsv", "dev.tsv", "test.tsv"):
        (data / name).write_bytes((prepared / name).read_bytes())
    lines = (prepared / "vocab.tsv").read_text(encoding="utf-8").split("\n")
    first = next(i for i, line in enumerate(lines) if line.startswith("1\t"))
    a, b = lines[first].split("\t"), lines[first + 1].split("\t")
    if case == "id-out-of-range":
        a[2] = "999"
        bad = first
    elif case == "repeated-id":
        b[2] = a[2]
        bad = first + 1
    else:
        b[1] = a[1]
        bad = first + 1
    lines[first], lines[first + 1] = "\t".join(a), "\t".join(b)
    (data / "vocab.tsv").write_text("\n".join(lines), encoding="utf-8")
    assert main(["train", str(data), "--out", str(tmp_path / "run"), "--epochs", "1",
                 "--d-emb", "4", "--hidden", "6"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {bad + 1}: ") and err.count("\n") == 1, err


# segment in a child process that caps its own address space at 1 GiB once
# charseg is imported, then prints its exit code and peak RSS: VmHWM, which
# exec resets, where ru_maxrss keeps the forking process's high-water mark
CAPPED_CHILD = """
import json, resource, sys
from charseg.cli import main
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
code = main(sys.argv[1:])
hwm = next(int(line.split()[1]) for line in open("/proc/self/status") if line.startswith("VmHWM:"))
print(json.dumps({"code": code, "maxrss_kb": hwm}))
"""


@pytest.mark.parametrize("field, value", [("hidden", 10**7), ("d_emb", 10**6), ("num_layers", 10**6)])
def test_huge_checkpoint_config_exits_2_before_allocating(tmp_path, field, value):
    # the tensor directory is checked against the layout the config implies
    # before the parameter vector is allocated: no MemoryError, small RSS
    v1 = Path(__file__).parent / "data" / "v1_sgnws"
    ckpt = tmp_path / "checkpoint.bin"
    edit_checkpoint(v1 / "checkpoint.bin", ckpt, lambda h: h["config"].update({field: value}))
    inp = tmp_path / "in.txt"
    inp.write_text("ab cd\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_CHILD, "segment", "--checkpoint", str(ckpt), "--vocab", str(v1 / "vocab.tsv"),
         "--input", str(inp), "--output", str(tmp_path / "out.txt")],
        capture_output=True, text=True, env=child_env(), timeout=600,
    )
    assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith("error: tensor "), proc.stderr
    report = json.loads(proc.stdout)
    assert report["code"] == 2
    assert report["maxrss_kb"] < 150 * 1024, report
    assert not (tmp_path / "out.txt").exists()


# a process that holds 256 MB, then execs segment: the summary's max_rss_mb
# is segment's own peak, not the high-water mark exec carries over
EXEC_AFTER_256MB = """
import os, sys
import numpy as np
held = np.ones(2**25)
os.execv(sys.executable, [sys.executable, "-m", "charseg.cli", *sys.argv[1:]])
"""


def test_segment_summary_rss_is_its_own_after_exec(tmp_path):
    inp = tmp_path / "in.txt"
    inp.write_text("ab cd\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-c", EXEC_AFTER_256MB, "segment", "--checkpoint", str(V1_DIR / "checkpoint.bin"),
         "--input", str(inp), "--output", str(tmp_path / "out.txt")],
        capture_output=True, text=True, env=child_env(), timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1])["max_rss_mb"] < 128, proc.stderr


# segment in a child process whose address space may grow only 32 MiB past
# what it maps once charseg is imported and BLAS has mapped its buffers
TIGHT_CHILD = """
import json, os, resource, sys
import numpy as np
from charseg.cli import main
np.ones((512, 512)) @ np.ones((512, 512))
mapped = int(open("/proc/self/statm").read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
resource.setrlimit(resource.RLIMIT_AS, (mapped + (32 << 20), mapped + (32 << 20)))
print(json.dumps({"code": main(sys.argv[1:])}))
"""


@pytest.fixture(scope="module")
def long_line(tmp_path_factory):
    # one 23,188-character line: attention over it as one L x L array would
    # take 4 GiB, one row block of it 45 MiB
    text = " ".join(make_sentences(make_lexicon(n_words=40, seed=5), 3000, seed=6))[:23188]
    path = tmp_path_factory.mktemp("long") / "in.txt"
    path.write_text(text + "\n", encoding="utf-8")
    return text, path


def start_segment(child: str, inp: Path, out: Path) -> subprocess.Popen:
    """segment of inp into out with the v1 checkpoint, run by child in a
    process of its own; communicate() returns its stdout and stderr."""
    return subprocess.Popen(
        [sys.executable, "-c", child, "segment", "--checkpoint", str(V1_DIR / "checkpoint.bin"),
         "--input", str(inp), "--output", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env(),
    )


def test_segment_long_line_under_address_space_cap(long_line, tmp_path):
    # attention by row blocks and gate inputs by chunks: memory grows
    # linearly with the line, so it segments under a 1 GiB cap, as an
    # uncapped predict_many does
    text, inp = long_line
    child = start_segment(CAPPED_CHILD, inp, tmp_path / "out.txt")
    net = model_mod.load_model(V1_DIR / "checkpoint.bin", NgramVocab.load(V1_DIR / "vocab.tsv"))
    tokens, _ = segmentation_from_tags(text, next(net.predict_many([text])))
    stdout, stderr = child.communicate(timeout=600)
    assert json.loads(stdout)["code"] == 0, stderr
    assert (tmp_path / "out.txt").read_text(encoding="utf-8") == " ".join(tokens) + "\n"


def test_segment_out_of_memory_exits_2(long_line, tmp_path):
    # the same line's first attention row block passes a cap 32 MiB above
    # the mapped start: that MemoryError is one error line and exit 2, and
    # the atomic write leaves no output file
    text, inp = long_line
    stdout, stderr = start_segment(TIGHT_CHILD, inp, tmp_path / "out.txt").communicate(timeout=600)
    assert stderr.startswith("error: out of memory: ") and stderr.count("\n") == 1, stderr
    assert f"({BLOCK_ROWS}, {len(text)})" in stderr
    assert json.loads(stdout)["code"] == 2
    assert not (tmp_path / "out.txt").exists()


@pytest.fixture(scope="module")
def overflowing(tmp_path_factory):
    # every weight 1e308: finite, so the checkpoint loads, but the forward
    # pass overflows to inf and NaN
    out = tmp_path_factory.mktemp("overflow")
    vocab = NgramVocab.load(V1_DIR / "vocab.tsv")
    net = model_mod.load_model(V1_DIR / "checkpoint.bin", vocab)
    net.theta[...] = 1e308
    model_mod.save_model(net, out / "checkpoint.bin")
    (out / "vocab.tsv").write_bytes((V1_DIR / "vocab.tsv").read_bytes())
    return out


@pytest.mark.parametrize("command", ["segment", "evaluate"])
def test_non_finite_emissions_exit_3(overflowing, labeled_bytes, tmp_path, capsys, recwarn, command):
    data = tmp_path / "gold.tsv"
    data.write_bytes(labeled_bytes)
    inp = tmp_path / "in.txt"
    inp.write_text("ab cd\nefgh\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    ckpt = ["--checkpoint", str(overflowing / "checkpoint.bin")]
    argv = (["segment", *ckpt, "--input", str(inp), "--output", str(out)] if command == "segment"
            else ["evaluate", *ckpt, "--data", str(data), "--out", str(out)])
    assert main(argv) == 3
    # the overflow is reported once, as the error line, not as numpy warnings too
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)], [str(w.message) for w in recwarn]
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: emission scores of a batch of ") and err.count("\n") == 1, err
    assert not out.exists()


SEGMENT_INPUT = "\n".join(make_sentences(make_lexicon(n_words=12, seed=41), 4, min_tokens=3, max_tokens=5, seed=42))


@settings(max_examples=150, deadline=None)
@given(edits=BYTE_EDITS)
def test_mutated_segment_input_exits_0_or_2(tmp_path_factory, edits):
    # any bytes in segment's --input are segmented or exit 2, with no traceback
    tmp = tmp_path_factory.mktemp("segment")
    inp = tmp / "in.txt"
    inp.write_bytes(mutate(SEGMENT_INPUT.encode("utf-8") + b"\n", edits))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["segment", "--checkpoint", str(V1_DIR / "checkpoint.bin"), "--input", str(inp),
                     "--output", str(tmp / "out.txt")])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    assert (tmp / "out.txt").exists() == (code == 0)


@settings(max_examples=150, deadline=None)
@given(edits=BYTE_EDITS)
def test_mutated_raw_corpus_prepares_or_exits(tmp_path_factory, raw_corpus, edits):
    # any bytes in prepare's raw corpus are prepared or exit 1 or 2, with no traceback
    tmp = tmp_path_factory.mktemp("prepare")
    raw = tmp / "corpus.txt"
    raw.write_bytes(mutate(raw_corpus.read_bytes(), edits))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["prepare", str(raw), str(tmp / "out")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# invalid UTF-8 in each reader
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("reader", ["labeled", "vocab", "segment-input", "config"])
def test_invalid_utf8_exit_code(trained, prepared, tmp_path, capsys, reader):
    bad = tmp_path / "bad"
    inp = tmp_path / "in.txt"
    inp.write_text("ab cd\n", encoding="utf-8")
    segment = ["segment", "--checkpoint", str(trained / "checkpoint.bin"), "--input", str(inp),
               "--output", str(tmp_path / "out.txt")]
    if reader == "labeled":
        bad.write_bytes(b"a\tB\nb\tE\n\xff\tS\n")
        argv, code, line = ["evaluate", "--oracle", "--data", str(bad)], 2, 3
    elif reader == "vocab":
        vocab = (trained / "vocab.tsv").read_bytes()
        bad.write_bytes(vocab + b"1\t\xff\t999\t1\n")
        argv, code, line = segment + ["--vocab", str(bad)], 2, vocab.count(b"\n") + 1
    elif reader == "segment-input":
        inp.write_bytes(b"ab cd\n\xfe\xff\n")
        argv, code, line = segment, 2, 2
    else:
        bad.write_bytes(b"hidden=8\nlr=\xff\n")
        argv, code, line = ["train", str(prepared), "--dump-config", "--config", str(bad)], 1, 2
    assert main(argv) == code
    err = capsys.readouterr().err
    assert f"line {line}: invalid UTF-8" in err, err
