"""One benchmark phase, run in a fresh process by ``run.py``.

Usage: ``python3 perfbench/worker.py '<job json>'``. The job names a phase:

``prep``  trains the checkpoint that the segment workloads decode with and
          writes ``checkpoint.bin`` and ``vocab.tsv`` into the job's workdir.
``run``   runs one workload, either for ``seconds`` or for exactly ``ops``
          operations, optionally under the span tracer.

The last stdout line is a JSON object with the timing samples, the
operation counts and the environment record. charseg is driven only
through its public API. With ``record`` set, the phase returns the outputs
it saw instead of checking them, which is how ``reference.json`` is made.
"""

from __future__ import annotations

import os

# The BLAS thread pin only takes effect if it is in the environment before
# numpy is imported, so it is read here, ahead of every numpy import.
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PIN = {v: os.environ.get(v) for v in PIN_VARS}

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import charseg.cli  # noqa: E402
import charseg.model  # noqa: E402
import charseg.subword  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

REFERENCE = Path(__file__).with_name("reference.json")
SETUP_REPS = 31     # set-up is 5-50 ms and noisy, so report the median of many
MIN_OPS = 3         # a timed run keeps going past its seconds until it has these


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "pin": PIN,
        "pin_ok": all(v == "1" for v in PIN.values()),
    }


def line_hash(line: str) -> str:
    return hashlib.sha256(line.encode("utf-8")).hexdigest()[:16]


class Outputs:
    """Checks outputs against the stored reference, or records them.

    An operation is one training epoch or one segmented line. It fails if
    it raises, if the CLI returns non-zero, or if its output disagrees with
    the reference.
    """

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.observed: dict = {}
        self.attempted = 0
        self.failed = 0

    def _fail(self, n: int, what: str) -> None:
        self.failed += n
        if self.failed <= 5:
            print(f"perfbench: FAILED {what}", file=sys.stderr)

    def error(self, n: int, exc: BaseException) -> None:
        self.attempted += n
        self._fail(n, "".join(traceback.format_exception(exc)))

    def epochs(self, log) -> None:
        got = [[rec.train_loss, rec.dev_f] for rec in log]
        self.attempted += len(got)
        if self.reference is None:
            self.observed.setdefault("epochs", got)
            return
        want = self.reference["epochs"]
        if len(got) != len(want):
            self._fail(len(got), f"{len(got)} epochs, reference has {len(want)}")
            return
        for i, ((loss, f), (ref_loss, ref_f)) in enumerate(zip(got, want)):
            if abs(loss - ref_loss) > workloads.LOSS_RTOL * abs(ref_loss) or abs(f - ref_f) > workloads.DEV_F_ATOL:
                self._fail(1, f"epoch {i}: loss {loss!r} dev F {f!r}, reference {ref_loss!r} {ref_f!r}")

    def lines(self, inputs: list[str], got: list[str]) -> None:
        hashes = [line_hash(line) for line in got]
        self.attempted += len(inputs)
        if self.reference is None:
            self.observed.setdefault("lines", hashes)
            return
        want = self.reference["lines"]
        if len(hashes) != len(inputs):
            self._fail(len(inputs), f"{len(hashes)} output lines for {len(inputs)} inputs")
            return
        for i, (h, ref) in enumerate(zip(hashes, want)):
            if h != ref:
                self._fail(1, f"line {i}: {got[i][:80]!r}... differs from the reference")


def segment(checkpoint: Path, vocab: Path, inp: Path, out: Path) -> tuple[float, list[str]]:
    """One in-process ``charseg segment`` call: wall seconds and output lines.
    File I/O, normalization, model load and decoding are all timed."""
    err = io.StringIO()
    argv = ["segment", "--checkpoint", str(checkpoint), "--vocab", str(vocab),
            "--input", str(inp), "--output", str(out)]
    t0 = time.perf_counter()
    with contextlib.redirect_stderr(err):
        code = charseg.cli.main(argv)
    seconds = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"charseg segment exited {code}: {err.getvalue().strip()}")
    return seconds, out.read_text(encoding="utf-8").split("\n")[:-1]


def build_model(config: dict, split, epochs: int):
    """The train-* set-up, build_vocab + build: seconds, model, vocabulary."""
    cfg = charseg.model.ModelConfig(**config, epochs=epochs)
    t0 = time.perf_counter()
    vocab = charseg.subword.build_vocab(s.text for s, _ in split.train)
    model = charseg.model.build(cfg, vocab)
    return time.perf_counter() - t0, model, vocab


def train(model, split) -> tuple[float, list]:
    """train() wall seconds, dev evaluation included, and its epoch log."""
    t0 = time.perf_counter()
    log = charseg.model.train(model, split)
    return time.perf_counter() - t0, log


def prep(job: dict, outputs: Outputs) -> dict:
    ck = workloads.CHECKPOINT
    split = workloads.checkpoint_split()
    _, model, vocab = build_model(ck["config"], split, ck["epochs"])
    seconds, log = train(model, split)
    outputs.epochs(log)
    workdir = Path(job["workdir"])
    charseg.model.save_model(model, workdir / "checkpoint.bin")
    vocab.save(workdir / "vocab.tsv")
    return {"train_sps": [len(split.train) * ck["epochs"] / seconds]}


def operations(job: dict):
    """Yields once per operation: exactly the job's ``ops`` when it names a
    count, else until its ``seconds`` have passed and MIN_OPS have run."""
    t0 = time.perf_counter()
    done = 0
    while True:
        if job.get("ops") is not None:
            if done >= job["ops"]:
                return
        elif done >= MIN_OPS and time.perf_counter() - t0 >= job["seconds"]:
            return
        yield
        done += 1


def train_cycle(spec: dict, split, workdir: Path, inp: Path, outputs: Outputs) -> tuple[float, float] | None:
    """One train-* operation: set up, train(), save, then segment the
    held-out lines with the trained model. Returns the train() and segment
    seconds, or None if it failed. The model is freed on return, so cycles
    do not stack up in peak RSS."""
    heldout = [s.text for s, _ in split.test]
    try:
        _, model, vocab = build_model(spec["config"], split, spec["epochs"])
        train_s, log = train(model, split)
        outputs.epochs(log)
    except Exception as exc:  # a failed operation is counted, not fatal
        outputs.error(spec["epochs"] + len(heldout), exc)
        return None
    charseg.model.save_model(model, workdir / "checkpoint.bin")
    vocab.save(workdir / "vocab.tsv")
    del model, vocab
    try:
        seg_s, lines = segment(workdir / "checkpoint.bin", workdir / "vocab.tsv", inp, workdir / "out.txt")
        outputs.lines(heldout, lines)
    except Exception as exc:
        outputs.error(len(heldout), exc)
        return None
    return train_s, seg_s


def run_train(job: dict, spec: dict, variant: int, outputs: Outputs) -> dict:
    split = workloads.train_split(spec, variant)
    workdir = Path(job["workdir"])
    heldout = [s.text for s, _ in split.test]
    inp = workdir / "input.txt"
    inp.write_text("".join(line + "\n" for line in heldout), encoding="utf-8")
    setup = [build_model(spec["config"], split, spec["epochs"])[0] for _ in range(SETUP_REPS)]
    n_sents = len(split.train) * spec["epochs"]
    n_chars = sum(len(line) for line in heldout)
    res = {"setup_s": setup, "train_sps": [], "segment_cps": [], "op_s": []}
    for _ in operations(job):
        timed = train_cycle(spec, split, workdir, inp, outputs)
        if timed is not None:
            train_s, seg_s = timed
            res["train_sps"].append(n_sents / train_s)
            res["segment_cps"].append(n_chars / seg_s)
            res["op_s"].append(train_s)
    return res


def run_segment(job: dict, spec: dict, variant: int, outputs: Outputs) -> dict:
    workdir = Path(job["workdir"])
    checkpoint, vocab_path = workdir / "checkpoint.bin", workdir / "vocab.tsv"
    lines = workloads.segment_lines(spec, variant)
    inp = workdir / "input.txt"
    inp.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    setup = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        vocab = charseg.subword.NgramVocab.load(vocab_path)
        charseg.model.load_model(checkpoint, vocab)
        setup.append(time.perf_counter() - t0)
    n_chars = sum(len(line) for line in lines)
    res = {"setup_s": setup, "segment_cps": [], "op_s": []}
    for _ in operations(job):
        try:
            seconds, got = segment(checkpoint, vocab_path, inp, workdir / "out.txt")
            outputs.lines(lines, got)
        except Exception as exc:
            outputs.error(len(lines), exc)
            continue
        res["segment_cps"].append(n_chars / seconds)
        res["op_s"].append(seconds)
    return res


def main(job: dict) -> dict:
    reference = None
    if not job.get("record"):
        refs = json.loads(REFERENCE.read_text(encoding="utf-8"))
        if job["phase"] == "prep":
            reference = refs["checkpoint"]
        else:
            reference = refs[job["workload"]][str(workloads.variant_of(job["seed"]))]
    outputs = Outputs(reference)
    tracer = Tracer() if job.get("trace") else None
    if tracer is not None:
        tracer.install()
    if job["phase"] == "prep":
        res = prep(job, outputs)
    else:
        spec = workloads.WORKLOADS[job["workload"]]
        variant = workloads.variant_of(job["seed"])
        run = run_train if spec["kind"] == "train" else run_segment
        res = run(job, spec, variant, outputs)
    if tracer is not None:
        tracer.uninstall()
        tracer.write(job["spans_out"])
        res["trace"] = tracer.summary()
        res["absent"] = tracer.absent
    res.update(
        attempted=outputs.attempted, failed=outputs.failed, observed=outputs.observed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        env=environment(),
    )
    return res


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
