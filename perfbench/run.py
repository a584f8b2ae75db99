"""charseg benchmark: training and ``segment`` throughput over four workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Each phase runs in a fresh Python process (``worker.py``) with BLAS pinned
to one thread, so ``peak_rss_mb`` belongs to that workload alone. With
``--trace 0`` the run measures for T seconds and prints the end-to-end
metrics; with ``--trace 1`` it runs a fixed number of operations twice,
untraced and traced, and prints the per-layer metrics. Spans of a traced
run go to ``.perfbench_out/``. The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import metric_units
from workloads import WORKLOADS, variant_of

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170  # a run must end within 180 s
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
UNITS = {
    "train_sents_per_s": "sentences/s",
    "segment_chars_per_s": "chars/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def spawn(job: dict, root: Path, deadline: float) -> dict:
    """Run one worker phase in a fresh, BLAS-pinned process; its result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
        cwd=root, env={**os.environ, **PIN, "PYTHONPATH": str(root / "src")},
        stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {job['phase']} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def samples(values: list[float]) -> dict:
    return {"n": len(values), "median": statistics.median(values), "min": min(values), "max": max(values)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "charseg" / "__init__.py").is_file():
        print("perfbench: run from the root of a charseg checkout (src/charseg missing)", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    out_dir = root / ".perfbench_out"
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    deadline = time.monotonic() + DEADLINE_S
    job = {"phase": "run", "workload": args.workload, "seed": args.seed, "workdir": str(workdir)}
    try:
        results = []
        if spec["kind"] == "segment":
            results.append(spawn({**job, "phase": "prep"}, root, deadline))
        if args.trace:
            plain = spawn({**job, "ops": spec["ops"]}, root, deadline)
            spans_out = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            traced = spawn({**job, "ops": spec["ops"], "trace": True, "spans_out": str(spans_out)}, root, deadline)
            results += [plain, traced]
        else:
            run = spawn({**job, "seconds": args.seconds}, root, deadline)
            results.append(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    env = results[-1]["env"]
    env["pin_ok"] = all(r["env"]["pin_ok"] for r in results)
    if not env["pin_ok"]:
        print(f"perfbench: WARNING BLAS thread pin missing: {env['pin']}", file=sys.stderr)
    summary = {
        "workload": args.workload, "seed": args.seed, "variant": variant_of(args.seed),
        "env": env, "error_rate": failed / attempted if attempted else 1.0,
    }
    if args.trace:
        metrics = dict(traced["trace"])
        metrics["trace.overhead"] = statistics.median(traced["op_s"]) / statistics.median(plain["op_s"]) - 1
        units = metric_units()
        summary["absent"] = traced["absent"]
        summary["spans"] = str(spans_out.relative_to(root))
    else:
        train_sps = results[0]["train_sps"]  # the prep run's training on segment-*
        metrics = {
            "train_sents_per_s": statistics.median(train_sps),
            "segment_chars_per_s": statistics.median(run["segment_cps"]),
            "setup_s": statistics.median(run["setup_s"]),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        units = UNITS
        summary["samples"] = {
            "train_sents_per_s": samples(train_sps),
            "segment_chars_per_s": samples(run["segment_cps"]),
            "setup_s": samples(run["setup_s"]),
        }
    print(json.dumps(summary))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
