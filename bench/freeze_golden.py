"""Freeze the golden answers of the fixed-input jobs into golden.json.

Run from the root of a checkout whose program is trusted:

    python3 bench/freeze_golden.py

Only CLI and pipeline jobs have fixed inputs; their answers do not depend on
the workload seed (table rows are canonically ordered), so seed 0 is used.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    golden = {"cli": {}, "pipeline": {}}
    tmp = Path(tempfile.mkdtemp(prefix=".bench_tmp_", dir=run.ROOT))
    try:
        for job in run.cli_jobs(random.Random(0)) + run.pipeline_jobs(random.Random(0)):
            o = run.run_job(job, False, tmp)
            if o.code != 0:
                print(f"{job['name']}: exit {o.code}\n{o.stderr}", file=sys.stderr)
                return 1
            if job["kind"] == "cli":
                golden["cli"][job["name"]] = run.cli_answer(o)
            else:
                golden["pipeline"][job["name"]] = json.loads(o.stdout)
            print(f"{job['name']}: {o.wall:.3f} s", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    (run.BENCH / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
