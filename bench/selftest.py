"""Self-test of the benchmark at a tiny size (about a minute).

Run from the root of a checkout:

    python3 bench/selftest.py

It checks that
* the metric names and units printed for each workload match BENCHMARK.json,
* the per-layer counts repeat exactly for the same seed,
* a corrupted golden answer is caught: the job counts as failed and
  ``ok_ratio`` drops below 1.
"""

from __future__ import annotations

import copy
import io
import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

import run

# A few cheap jobs per workload; together they reach every counter.
TINY = {
    "cli_small": ("readme_table", "q8_regular_json"),
    "pipeline": ("symmetric:5", "perm:[(1 2 3), (3 4 5)]"),
    "ktheory_skew": ("z2_w3", "dense_20_40"),
}
QUIET = io.StringIO()  # the runner's per-job log is not needed here
EXACT_COUNTS = ("groups.cayley_cells", "reps.decompose_calls", "intlinalg.snf_cells",
                "intlinalg.max_factor_bits", "cyclo.mul_calls")


def tiny_jobs(workload: str, seed: int) -> list[dict]:
    jobs = [j for j in run.WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
            if j["name"] in TINY[workload]]
    for j in jobs:
        if "inputs" in j:
            j["inputs"] = j["inputs"][:2]
    return jobs


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    golden = run.load_golden()
    problems = []
    tmp = Path(tempfile.mkdtemp(prefix=".bench_tmp_", dir=run.ROOT))
    try:
        counts = {}
        for workload in TINY:
            jobs = tiny_jobs(workload, seed=1)
            res = run.run_workload(jobs, 1, 0, False, golden, tmp, QUIET)
            if units(res["metrics"]) != want_e2e or not res["correct"]:
                problems.append(f"{workload}: end-to-end metrics or correctness wrong: {res}")
            for attempt in range(2):
                res = run.run_workload(jobs, 1, 0, True, golden, tmp, QUIET)
                if units(res["metrics"]) != want_layer or not res["correct"]:
                    problems.append(f"{workload}: per-layer metrics or correctness wrong")
                for name in EXACT_COUNTS:
                    counts.setdefault((workload, name), []).append(res["metrics"][name]["value"])
        for name in EXACT_COUNTS:
            if not any(counts[w, name][0] for w in TINY):
                problems.append(f"{name} is never nonzero")
        for (workload, name), seen in counts.items():
            if seen[0] != seen[1]:
                problems.append(f"{workload}: {name} does not repeat: {seen}")
        for workload, kind in (("cli_small", "cli"), ("pipeline", "pipeline")):
            bad = copy.deepcopy(golden)
            name = TINY[workload][0]
            if kind == "cli":
                bad[kind][name]["stdout"] = "0" * 64
            else:
                bad[kind][name]["dims"][0] += 1
            res = run.run_workload(tiny_jobs(workload, 1), 1, 0, False, bad, tmp, QUIET)
            if res["failed"] == 0 or res["metrics"]["ok_ratio"]["value"] >= 1:
                problems.append(f"{workload}: corrupted golden answer went unnoticed")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
