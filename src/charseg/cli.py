"""Command-line surface: prepare, train, segment, evaluate, inspect.

Exit codes are a stable contract: 0 success, 1 usage error, 2 data or
file error or out of memory, 3 numeric failure (non-finite gradients or
emission scores). Every ModelConfig field has exactly one flag; values
may also come from a key=value config file, with precedence flag > file
> default. All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import sys
import time
from pathlib import Path

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from . import corpus, metrics, model as model_mod, subword
from .errors import BadConfig, CharsegError, InvalidUtf8, NumericFailure

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise UsageError(message)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    defaults = model_mod.ModelConfig()
    for name, kind in model_mod.CONFIG_TYPES.items():
        flag = f"--{name.replace('_', '-')}"
        if kind is bool:
            p.add_argument(flag, action=argparse.BooleanOptionalAction,
                           default=None, help="variant default when omitted")
        else:
            p.add_argument(flag, type=kind, default=None, help=f"default {getattr(defaults, name)}")
    p.add_argument("--config", default=None, help="key=value config file")


def _parse_config_file(path: str) -> dict:
    values: dict[str, object] = {}
    try:
        for line_no, line in corpus.utf8_lines(path):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{line_no}: expected key=value")
            key, _, raw = line.partition("=")
            key = key.strip().replace("-", "_")
            raw = raw.strip()
            kind = model_mod.CONFIG_TYPES.get(key)
            if kind is None:
                raise UsageError(f"{path}:{line_no}: unknown config key {key!r}")
            if kind is bool:
                if raw.lower() not in ("true", "false"):
                    raise UsageError(f"{path}:{line_no}: {key} must be true or false")
                values[key] = raw.lower() == "true"
            else:
                try:
                    values[key] = kind(raw)
                except ValueError:
                    raise UsageError(f"{path}:{line_no}: {key} must be {kind.__name__}, got {raw!r}") from None
    except InvalidUtf8 as exc:
        raise UsageError(f"{path}: {exc}") from None
    return values


def _build_config(args: argparse.Namespace) -> model_mod.ModelConfig:
    values: dict[str, object] = {}
    if args.config:
        values.update(_parse_config_file(args.config))
    for name in model_mod.CONFIG_TYPES:
        flag_value = getattr(args, name)
        if flag_value is not None:
            values[name] = flag_value
    try:
        return model_mod.ModelConfig(**values).resolve()
    except BadConfig as exc:
        raise UsageError(str(exc)) from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_prepare(args) -> int:
    try:
        ratios = tuple(float(x) for x in args.ratios.split(","))
    except ValueError:
        raise UsageError(f"bad --ratios value {args.ratios!r}") from None
    if (len(ratios) != 3 or not all(0.0 <= r <= 1.0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9
            or 0.0 in ratios[:2]):
        raise UsageError("--ratios needs three non-negative comma-separated values summing to 1, "
                         "the train and dev shares above 0")
    if args.seed < 0 or args.min_tokens < 1 or args.max_tokens < 1:
        raise UsageError("--seed must be at least 0, and --min-tokens and --max-tokens at least 1")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    raw = Path(args.raw_corpus).read_bytes()
    text = corpus.normalize_text(raw)
    lines = [ln for ln in text.split("\n") if ln.strip()]
    sentences = list(corpus.split_sentences(lines, args.min_tokens, args.max_tokens))
    pairs = []
    for s_text in sentences:
        s = corpus.Sentence.from_text(s_text)
        pairs.append((s, corpus.tags_from_segmentation(s)))
    split = corpus.split_dataset(pairs, ratios=ratios, seed=args.seed)
    corpus.write_labeled(out_dir / "train.tsv", split.train)
    corpus.write_labeled(out_dir / "dev.tsv", split.dev)
    corpus.write_labeled(out_dir / "test.tsv", split.test)
    min_freq = {1: args.min_freq1, 2: args.min_freq2, 3: args.min_freq3, 4: args.min_freq4}
    vocab = subword.build_vocab((s.text for s, _ in split.train), min_freq=min_freq)
    vocab.save(out_dir / "vocab.tsv")
    stats = corpus.corpus_stats(s for s, _ in pairs)
    print(stats.format())
    print(f"split            {len(split.train)}/{len(split.dev)}/{len(split.test)}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _build_config(args)
    if args.dump_config:
        for f in dataclasses.fields(cfg):
            print(f"{f.name}={getattr(cfg, f.name)}")
        return EXIT_OK
    data_dir = Path(args.data_dir)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    vocab = subword.NgramVocab.load(data_dir / "vocab.tsv")
    split = corpus.DatasetSplit(
        train=corpus.read_labeled(data_dir / "train.tsv"),
        dev=corpus.read_labeled(data_dir / "dev.tsv"),
        test=corpus.read_labeled(data_dir / "test.tsv") if (data_dir / "test.tsv").exists() else [],
    )
    net = model_mod.Model(cfg, vocab)

    def progress(rec: model_mod.EpochRecord) -> None:
        print(
            f"epoch {rec.epoch:3d}  loss {rec.train_loss:.4f}  dev F {rec.dev_f:.4f}",
            file=sys.stderr,
        )

    log = model_mod.train(net, split, progress=progress)
    best = max(log, key=lambda r: r.dev_f)
    model_mod.save_model(
        net, out_dir / "checkpoint.bin",
        metadata={"epoch": best.epoch, "dev_f": round(best.dev_f, 6)},
    )
    with corpus.replace_on_success(out_dir / "epochs.jsonl", "w", encoding="utf-8", newline="\n") as f:
        for rec in log:
            f.write(rec.to_json() + "\n")
    if (data_dir / "vocab.tsv").resolve() != (out_dir / "vocab.tsv").resolve():
        with corpus.replace_on_success(out_dir / "vocab.tsv", "wb") as f:
            f.write((data_dir / "vocab.tsv").read_bytes())
    print(f"best epoch {best.epoch}  dev F {best.dev_f:.4f}")
    return EXIT_OK


def _load_model(args) -> model_mod.Model:
    ckpt = Path(args.checkpoint)
    vocab_path = Path(args.vocab) if args.vocab else ckpt.parent / "vocab.tsv"
    vocab = subword.NgramVocab.load(vocab_path)
    return model_mod.load_model(ckpt, vocab)


def _print_summary(start: float, lengths: list[int], memo: subword.TokenMemo, **extra) -> None:
    """Print the run's summary, wall time from start included, as one JSON line on stderr;
    max_rss_mb is the process's peak resident memory so far (VmHWM, which exec resets, or ru_maxrss)."""
    seconds, chars = time.perf_counter() - start, sum(lengths)
    summary = dict(sentences=len(lengths), chars=chars, seconds=round(seconds, 6),
                   chars_per_s=round(chars / seconds, 1), longest_line=max(lengths, default=0),
                   tokens=memo.tokens, composed=memo.composed, batches=memo.batches, **extra)
    try:
        with open("/proc/self/status") as f:
            summary["max_rss_mb"] = round(next(int(row.split()[1]) for row in f if row.startswith("VmHWM:")) / 1024, 1)
    except (OSError, StopIteration):  # no /proc; ru_maxrss is in KiB on Linux, in bytes on macOS
        if resource is not None:
            kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024 if sys.platform == "darwin" else 1)
            summary["max_rss_mb"] = round(kib / 1024, 1)
    print(json.dumps(summary, sort_keys=True), file=sys.stderr)


def cmd_segment(args) -> int:
    """Each line is written as it is tagged, to --output and, with
    --emit-tags, to the char/tag file; a failure leaves neither file."""
    start = time.perf_counter()
    net = _load_model(args)
    lengths: list[int] = []
    repairs = 0
    memo = subword.TokenMemo()
    texts, feed = itertools.tee(corpus.normalize_text(line.rstrip("\n")).strip()
                                for _, line in corpus.utf8_lines(args.input))
    output = (contextlib.nullcontext(sys.stdout) if args.output == "-"
              else corpus.replace_on_success(args.output, "w", encoding="utf-8", newline="\n"))
    tag_output = (corpus.replace_on_success(args.emit_tags, "w", encoding="utf-8", newline="\n")
                  if args.emit_tags else contextlib.nullcontext())
    with tag_output as tag_out, output as out:
        for text, tags in zip(texts, net.predict_many(feed, memo)):
            if not text:
                out.write("\n")
                continue
            lengths.append(len(text))
            tokens, n_rep = corpus.segmentation_from_tags(text, tags)
            repairs += n_rep
            out.write(" ".join(tokens) + "\n")
            if tag_out is not None:
                tag_out.write(corpus.labeled_block(text, tags))
    _print_summary(start, lengths, memo, repairs=repairs)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    start = time.perf_counter()
    pairs = corpus.read_labeled(args.data)
    gold_tags = [tags for _, tags in pairs]
    if args.oracle:
        pred_tags = gold_tags
        name = "oracle"
    else:
        if not args.checkpoint:
            raise UsageError("--checkpoint is required unless --oracle is given")
        net = _load_model(args)
        memo = subword.TokenMemo()
        pred_tags = list(net.predict_many((s.text for s, _ in pairs), memo))
        name = net.config.variant
        _print_summary(start, [len(s.text) for s, _ in pairs], memo)
    report = metrics.tag_prf(gold_tags, pred_tags, model=name)
    report.token = metrics.token_f(
        [corpus.tags_to_spans(t)[0] for t in gold_tags],
        [corpus.tags_to_spans(t)[0] for t in pred_tags],
    )
    metrics.report_emit(report, sys.stdout if args.out == "-" else args.out, fmt=args.format)
    return EXIT_OK


def cmd_inspect(args) -> int:
    data = model_mod.read_checkpoint(args.checkpoint)
    print(f"checkpoint       {args.checkpoint}")
    print(f"vocab sha256     {data.vocab_sha256}")
    for key in sorted(data.metadata):
        print(f"metadata.{key:<8} {data.metadata[key]}")
    for key in sorted(data.config):
        print(f"config.{key:<18} {data.config[key]}")
    total = 0
    for name in sorted(data.tensors):
        arr = data.tensors[name]
        total += arr.size
        print(f"tensor {name:<24} {arr.shape}")
    print(f"parameters       {total}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="charseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("prepare",
                       help="raw text to labeled train/dev/test files plus vocab")
    p.add_argument("raw_corpus")
    p.add_argument("out_dir")
    p.add_argument("--ratios", default="0.8,0.1,0.1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-tokens", type=int, default=5)
    p.add_argument("--max-tokens", type=int, default=300)
    p.add_argument("--min-freq1", type=int, default=1)
    p.add_argument("--min-freq2", type=int, default=2)
    p.add_argument("--min-freq3", type=int, default=2)
    p.add_argument("--min-freq4", type=int, default=2)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a variant on prepared data")
    p.add_argument("data_dir")
    p.add_argument("--out", default="run")
    p.add_argument("--dump-config", action="store_true",
                   help="print the resolved configuration and exit")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("segment", help="segment raw lines with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", default=None, help="default: vocab.tsv next to the checkpoint")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default="-")
    p.add_argument("--emit-tags", default=None, help="also write the char/tag file here")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("evaluate", help="score a checkpoint on a labeled file")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--vocab", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--format", choices=("json_lines", "tsv"), default="json_lines")
    p.add_argument("--out", default="-")
    p.add_argument("--oracle", action="store_true", help="score gold against itself")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("inspect", help="print checkpoint metadata")
    p.add_argument("checkpoint")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CharsegError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
