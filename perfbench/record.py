"""Write ``reference.json``: the outputs every workload produces at this
commit, for each of the ``VARIANTS`` input sets.

Usage, from the root of a checkout: ``python3 perfbench/record.py``.

It runs the same worker phases as ``run.py``, with one operation each, and
stores per-epoch loss and dev F for training and a hash of every output
line for ``segment``. Run it again only in a change that alters the
benchmark's inputs, never in one that claims a speed-up.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from pathlib import Path

from run import spawn
from workloads import VARIANTS, WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    root = Path.cwd()
    workdir = root / ".perfbench_out" / f"record-{os.getpid()}"
    workdir.mkdir(parents=True)
    deadline = time.monotonic() + 3600
    refs: dict = {}
    try:
        for name, spec in WORKLOADS.items():
            job = {"record": True, "workdir": str(workdir / name), "ops": 1}
            (workdir / name).mkdir()
            if spec["kind"] == "segment":
                refs["checkpoint"] = spawn({**job, "phase": "prep"}, root, deadline)["observed"]
            refs[name] = {}
            for v in range(VARIANTS):
                res = spawn({**job, "phase": "run", "workload": name, "seed": v}, root, deadline)
                refs[name][str(v)] = res["observed"]
                print(f"{name} variant {v}: {json.dumps(res['observed'])[:100]}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
