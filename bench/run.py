"""repcorr benchmark runner.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {cli_small,pipeline,ktheory_skew} \
        --seed N --seconds S --trace {0,1}

Every job runs in a fresh interpreter, one at a time (closed loop, one
client), so no job sees a cache warmed by another. A round is the whole job
list of the workload in a seeded order; the runner repeats rounds with the
same inputs until the next round would overrun ``--seconds`` (at least one
round). Each job's output is checked against golden answers frozen from the
program (``golden.json``) or, for seeded inputs, against invariants computed
here independently of the program.

With ``--trace 0`` the last stdout line carries the end-to-end metrics. With
``--trace 1`` every job runs untraced and then traced, back to back, and the
last line carries per-layer self times and counts per round plus the tracing
overhead. See README.md in this directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
JOB_TIMEOUT_S = 60  # a hung job is killed and counted as failed
# Set-up samples per untraced round, spread between its jobs so that they see
# the same drift in machine speed as the jobs do.
SETUP_PER_ROUND = 4
PRIMES = (2147483647, 2147483629)

# ---------------------------------------------------------------------------
# workloads

OUT = "{OUT}"  # replaced by a fresh directory inside the checkout per job
S3_PERM = "rho=perm:[(1 2), (1 2 3)]"
A4 = "perm:[(1 2 3), (1 2)(3 4)]"
Q8 = "perm:[(1 2 3 4)(5 6 7 8), (1 5 3 7)(2 8 4 6)]"

# The README examples, then small groups over every task and format.
CLI_JOBS = {
    "readme_table": ["--group", "symmetric:3", "--task", "table"],
    "readme_egraph_ktheory": ["--group", "symmetric:3", "--rep", S3_PERM, "--task", "egraph,ktheory"],
    "readme_decompose_dgraph": ["--group", "symmetric:3", "--rep", "s=mult:[0,0,1]",
                                "--task", "decompose,dgraph", "--format", "json"],
    "readme_zskew": ["--rep", "c=zcocycle:[0,1,-1]", "--task", "skew", "--window", "2"],
    "readme_cskew": ["--group", "cyclic:2", "--rep", "c=cocycle:[1,1]", "--task", "skew"],
    "readme_freqs": ["--rep", "f=freqs:[1/2,-theta]", "--task", "circle"],
    "readme_export": ["--group", "symmetric:3", "--rep", S3_PERM, "--task", "export", "--out", OUT],
    "s3_ktheory_module_json": ["--group", "symmetric:3", "--rep", "mult:[1,1,1]", "--task", "ktheory",
                               "--convention", "module-count", "--format", "json"],
    "s3_out_json": ["--group", "symmetric:3", "--rep", "regular", "--task", "table,decompose",
                    "--format", "json", "--out", OUT],
    "s4_table_json": ["--group", "symmetric:4", "--task", "table", "--format", "json"],
    "s4_regular_text": ["--group", "symmetric:4", "--rep", "regular", "--task", "decompose,egraph,ktheory"],
    "s4_perm_dot": ["--group", "symmetric:4", "--rep", "perm:[(1 2), (1 2 3 4)]",
                    "--task", "egraph,dgraph", "--format", "dot"],
    "s4_export_module": ["--group", "symmetric:4", "--rep", "regular", "--rep", "t=trivial",
                         "--task", "export", "--convention", "module-count", "--out", OUT],
    "d4_table": ["--group", "dihedral:4", "--task", "table"],
    "d5_dgraph_dot": ["--group", "dihedral:5", "--rep", "regular", "--task", "dgraph", "--format", "dot"],
    "d6_tensor_json": ["--group", "dihedral:6", "--rep", "tensor(regular, trivial)",
                       "--task", "decompose", "--format", "json"],
    "d7_ktheory_module_json": ["--group", "dihedral:7", "--rep", "regular", "--task", "ktheory",
                               "--convention", "module-count", "--format", "json"],
    "d8_dsum_text": ["--group", "dihedral:8", "--rep", "dsum(trivial, regular)",
                     "--task", "table,decompose,egraph"],
    "c2_table": ["--group", "cyclic:2", "--task", "table"],
    "c3_ktheory": ["--group", "cyclic:3", "--rep", "regular", "--task", "ktheory"],
    "c4_decompose_json": ["--group", "cyclic:4", "--rep", "char:[4,0,0,0]", "--task", "decompose",
                          "--format", "json"],
    "c5_egraph_dot": ["--group", "cyclic:5", "--rep", "mult:[1,0,2,0,1]", "--task", "egraph",
                      "--format", "dot"],
    "c6_table_json": ["--group", "cyclic:6", "--task", "table", "--format", "json"],
    "c8_dgraph": ["--group", "cyclic:8", "--rep", "mult:[0,1,0,0,0,0,0,0]", "--task", "dgraph"],
    "c10_ktheory_json": ["--group", "cyclic:10", "--rep", "regular", "--task", "ktheory", "--format", "json"],
    "c12_table": ["--group", "cyclic:12", "--task", "table"],
    "c12_skew_dot": ["--group", "cyclic:12", "--rep", "c=cocycle:[1,5,7]", "--task", "skew", "--format", "dot"],
    "p23_skew_json": ["--group", "product:[2,3]", "--rep", "c=cocycle:[(1,0),(0,1),(1,2)]",
                      "--task", "skew", "--format", "json"],
    "a4_table_json": ["--group", A4, "--task", "table", "--format", "json"],
    "a4_ktheory": ["--group", A4, "--rep", "regular", "--task", "ktheory,decompose"],
    "q8_table": ["--group", Q8, "--task", "table"],
    "q8_regular_json": ["--group", Q8, "--rep", "regular", "--task", "egraph,dgraph,ktheory",
                        "--format", "json"],
    "q8_export": ["--group", Q8, "--rep", "regular", "--task", "export", "--out", OUT],
    "zskew_w3_json": ["--rep", "c=zcocycle:[(1,0),(0,1),(-1,-1)]", "--task", "skew", "--window", "3",
                      "--format", "json"],
    "angles_text": ["--rep", "a=angles:[1/3,1/2,5/6]", "--task", "circle"],
    "angles_freqs_json": ["--rep", "a=angles:[1/4,theta]", "--rep", "f=freqs:[1,2*theta]",
                          "--task", "circle", "--format", "json"],
}


def _cycle(points) -> str:
    return "(" + " ".join(str(p) for p in points) + ")"


def _dihedral_perm(n: int) -> str:
    """Natural action of dihedral:n on the n-gon: r = k -> k+1, s = k -> -k."""
    refl = "".join(_cycle((k + 1, n - k + 1)) for k in range(1, (n + 1) // 2))
    return f"perm:[{_cycle(range(1, n + 1))}, {refl or '()'}]"


# group -> (permutation representation on the generators, few classes)
# Groups with few classes also run tensor(regular, regular) and the d-graph.
PIPELINE_GROUPS = {
    "symmetric:6": ("perm:[(1 2), (1 2 3 4 5 6)]", True),
    "dihedral:20": (_dihedral_perm(20), True),
    "dihedral:60": (_dihedral_perm(60), False),
    "cyclic:30": (f"perm:[{_cycle(range(1, 31))}]", False),
    "symmetric:5": ("perm:[(1 2), (1 2 3 4 5)]", True),
    "perm:[(1 2 3), (3 4 5)]": ("perm:[(1 2 3), (3 4 5)]", True),
    "dihedral:12": (_dihedral_perm(12), True),
}


def cli_jobs(rng: random.Random) -> list[dict]:
    return [{"kind": "cli", "name": name, "argv": argv} for name, argv in CLI_JOBS.items()]


def pipeline_jobs(rng: random.Random) -> list[dict]:
    return [
        {"kind": "pipeline", "name": group, "group": group, "perm": perm, "tensor": few,
         "split_seed": rng.randrange(2**31)}
        for group, (perm, few) in PIPELINE_GROUPS.items()
    ]


def _z_cocycle(rng, rank: int, bound: int, edges: int) -> list[list[int]]:
    return [[rng.randint(-bound, bound) for _ in range(rank)] for _ in range(edges)]


def skew_jobs(rng: random.Random) -> list[dict]:
    jobs = []
    # Z^2 cocycles: sparse +-1 presentations of 49..169 vertices.
    for name, window, count in (("z2_w3", 3, 12), ("z2_w4", 4, 6), ("z2_w5", 5, 3),
                                ("z2_w6_a", 6, 1), ("z2_w6_b", 6, 1)):
        jobs.append({"kind": "ktheory", "name": name, "inputs": [
            {"cocycle": _z_cocycle(rng, 2, 2, 3), "rank": 2, "window": window}
            for _ in range(count)]})
    jobs.append({"kind": "ktheory", "name": "z1_w20_60", "inputs": [
        {"cocycle": _z_cocycle(rng, 1, 3, 3), "rank": 1, "window": window}
        for window in (20, 30, 40, 50, 60)]})
    for name in ("dual_12x12_a", "dual_12x12_b"):
        jobs.append({"kind": "ktheory", "name": name, "inputs": [
            {"cocycle": [[rng.randrange(12), rng.randrange(12)] for _ in range(3)],
             "orders": [12, 12]}]})
    # Dense random squares: no unit pivots to exploit.
    jobs.append({"kind": "ktheory", "name": "dense_20_40", "inputs": [
        {"matrix": [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]}
        for n in (20, 25, 30, 35, 40, 40)]})
    return jobs


WORKLOADS = {"cli_small": cli_jobs, "pipeline": pipeline_jobs, "ktheory_skew": skew_jobs}


# ---------------------------------------------------------------------------
# running one job


@dataclass
class Outcome:
    job: dict
    traced: bool
    wall: float
    rss_kb: int
    code: int
    stdout: bytes  # with the scratch --out path replaced by OUT
    stderr: str
    out_files: dict[str, bytes]
    trace: dict | None  # spans and counts written by a traced job
    error: str | None = None  # set by check()


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"  # fixed set and dict order, so traced counts repeat exactly
    return env


def _wait(cmd, stdout, stderr, cwd):
    """Run cmd to completion; return (wall seconds, exit code, max RSS in KB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, cwd=cwd, env=_child_env())
    timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def run_job(job: dict, traced: bool, tmp: Path) -> Outcome:
    work = Path(tempfile.mkdtemp(dir=tmp))
    try:
        spec = dict(job)
        out_dir = work / "out"
        if job["kind"] == "cli":
            spec["argv"] = [os.path.relpath(out_dir, ROOT) if a == OUT else a for a in job["argv"]]
        if traced:
            spec["trace"] = str(work / "trace.json")
        if job["kind"] == "cli" and not traced:
            cmd = [sys.executable, "-m", "repcorr.cli", *spec["argv"]]
        else:
            (work / "spec.json").write_text(json.dumps(spec))
            cmd = [sys.executable, *(["-X", "importtime"] if traced else []),
                   str(BENCH / "job.py"), str(work / "spec.json")]
        with open(work / "stdout", "wb") as so, open(work / "stderr", "wb") as se:
            wall, code, rss = _wait(cmd, so, se, ROOT)
        out_files = {}
        if out_dir.is_dir():
            for path in sorted(out_dir.rglob("*")):
                if path.is_file():
                    out_files[path.relative_to(out_dir).as_posix()] = path.read_bytes()
        trace = None
        if traced and (work / "trace.json").is_file():
            trace = json.loads((work / "trace.json").read_text())
        stdout = (work / "stdout").read_bytes()
        stdout = stdout.replace(os.path.relpath(out_dir, ROOT).encode(), b"OUT")
        return Outcome(job, traced, wall, rss, code, stdout,
                       (work / "stderr").read_text(errors="replace"), out_files, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# output checks


class CheckFailed(Exception):
    """A job's output is wrong."""


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_answer(o: Outcome) -> dict:
    return {"stdout": _sha(o.stdout), "files": {k: _sha(v) for k, v in o.out_files.items()}}


def check_cli(o: Outcome, golden: dict) -> None:
    if cli_answer(o) != golden["cli"][o.job["name"]]:
        raise CheckFailed("output differs from the golden answer")
    argv = o.job["argv"]
    if "module-count" in argv and "json" in argv and "ktheory" in ",".join(argv):
        # The two K-routes must agree under module-count (paper-min may not).
        for res in json.loads(o.stdout)["results"]:
            if res["task"] == "ktheory" and not res["agree"]:
                raise CheckFailed("K-routes disagree under module-count")


def check_pipeline(o: Outcome, golden: dict) -> None:
    res = json.loads(o.stdout)
    if sum(d * d for d in res["dims"]) != res["order"]:
        raise CheckFailed("sum of dim^2 differs from |G|")
    if res["reps"]["regular"]["mults"] != res["dims"] or not res["reload_same"]:
        raise CheckFailed("regular multiplicities or table round trip wrong")
    for entry in res["reps"].values():
        if entry["module-count"]["graph"] != entry["corr"]:
            raise CheckFailed("K-routes disagree under module-count")
    if res != golden["pipeline"][o.job["name"]]:
        raise CheckFailed("output differs from the golden answer")


def _rank_det_mod(m, p: int) -> tuple[int, int]:
    """Rank of an integer matrix over F_p, and its determinant mod p when square."""
    a = np.array(m, dtype=np.int64).reshape(len(m), -1) % p
    rows, cols = a.shape
    rank, det = 0, 1
    for c in range(cols):
        if rank == rows:
            break
        nz = np.nonzero(a[rank:, c])[0]
        if not len(nz):
            det = 0
            continue
        r = rank + int(nz[0])
        if r != rank:
            a[[rank, r]] = a[[r, rank]]
            det = -det
        pivot = int(a[rank, c])
        det = det * pivot % p
        a[rank] = a[rank] * pow(pivot, -1, p) % p
        a[rank + 1:] = (a[rank + 1:] - a[rank + 1:, c:c + 1] * a[rank]) % p
        rank += 1
    return rank, (det % p if rows == cols == rank else 0)


def _skew_presentation(item: dict):
    """Rebuild a skew product from its cocycle; return (n, stubs, a^t - I with
    the columns of vertices receiving no edge removed)."""
    cocycle = [tuple(c) for c in item["cocycle"]]
    orders = item.get("orders")
    if orders:
        elements = list(itertools.product(*(range(o) for o in orders)))
    else:
        w = item["window"]
        elements = list(itertools.product(range(-w, w + 1), repeat=item["rank"]))
    index = {h: t for t, h in enumerate(elements)}
    n = len(elements)
    a = np.zeros((n, n), dtype=np.int64)
    stubs = 0
    for src, h in enumerate(elements):
        for c in cocycle:
            h2 = tuple((x + y) % o for x, y, o in zip(h, c, orders)) if orders else \
                tuple(x + y for x, y in zip(h, c))
            if h2 in index:
                a[index[h2], src] += 1
            else:
                stubs += 1
    keep = [v for v in range(n) if a[v].sum()]
    return n, stubs, (a.T - np.eye(n, dtype=np.int64))[:, keep]


def _check_kgroups(mat, k) -> None:
    free, torsion, k1 = k
    rows, cols = mat.shape
    rank = cols - k1
    if rows - rank != free:
        raise CheckFailed("K0 free rank disagrees with rows - rank")
    if any(d <= 1 for d in torsion) or any(b % a for a, b in zip(torsion, torsion[1:])):
        raise CheckFailed("invariant factors break the divisibility chain")
    ranks_dets = [_rank_det_mod(mat, p) for p in PRIMES]
    if max(r for r, _ in ranks_dets) != rank:
        raise CheckFailed("rank differs from the rank modulo large primes")
    if rows == cols == rank:
        prod = 1
        for d in torsion:
            prod *= d
        for p, (_, det) in zip(PRIMES, ranks_dets):
            if det not in (prod % p, -prod % p):
                raise CheckFailed("|det A| differs from the product of invariant factors")


def check_ktheory(o: Outcome, golden: dict) -> None:
    res = json.loads(o.stdout)
    if len(res) != len(o.job["inputs"]):
        raise CheckFailed("wrong number of results")
    for item, out in zip(o.job["inputs"], res):
        if "matrix" in item:
            _check_kgroups(np.array(item["matrix"], dtype=np.int64), out["k"])
            continue
        n, stubs, mat = _skew_presentation(item)
        if (out["n"], out["stubs"]) != (n, stubs):
            raise CheckFailed("skew product has the wrong vertex or stub count")
        _check_kgroups(mat, out["k"])
        exit_, cofinal, simple, pis = out["simple"]
        if simple != (exit_ and cofinal) or (pis and not simple):
            raise CheckFailed("inconsistent simplicity report")


CHECKS = {"cli": check_cli, "pipeline": check_pipeline, "ktheory": check_ktheory}


def check(o: Outcome, golden: dict) -> None:
    """Set o.error when the job failed or its output is wrong."""
    if o.code != 0:
        o.error = f"exit code {o.code}: {o.stderr.strip()[-300:]}"
        return
    try:
        CHECKS[o.job["kind"]](o, golden)
    except (CheckFailed, KeyError, ValueError, TypeError) as exc:  # malformed output fails too
        o.error = f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# metrics


def setup_sample() -> float:
    """Wall time of a fresh interpreter importing repcorr.cli."""
    cmd = [sys.executable, "-c", "import repcorr.cli"]
    wall, code, _ = _wait(cmd, subprocess.DEVNULL, subprocess.DEVNULL, ROOT)
    if code != 0:
        raise RuntimeError("import repcorr.cli failed")
    return wall


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(outcomes: list[Outcome], setup: list[float]) -> dict:
    walls = [o.wall for o in outcomes]
    ok = sum(1 for o in outcomes if o.error is None)
    p90 = statistics.quantiles(walls, n=10, method="inclusive")[8] if len(walls) > 1 else walls[0]
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        "job_p50_s": _metric(statistics.median(walls), "s"),
        "job_p90_s": _metric(p90, "s"),
        "jobs_per_s": _metric(len(walls) / sum(walls), "1/s"),
        "peak_rss_mb": _metric(max(o.rss_kb for o in outcomes) / 1024, "MB"),
        "ok_ratio": _metric(ok / len(outcomes), "ratio"),
    }


# Per-layer metric -> the span (layer, function) whose self time it sums.
SPAN_METRICS = {
    "groups.construct_group_s": ("groups", "construct_group"),
    "groups.conjugacy_s": ("groups", "conjugacy"),
    "chartable.character_table_s": ("chartable", "character_table"),
    "chartable.load_table_s": ("chartable", "load_table"),
    "chartable.verify_table_s": ("chartable", "verify_table"),
    "reps.parse_rep_spec_s": ("reps", "parse_rep_spec"),
    "reps.tensor_s": ("reps", "tensor"),
    "reps.decompose_s": ("reps", "decompose"),
    "corrgraph.build_e_graph_s": ("corrgraph", "build_e_graph"),
    "corrgraph.build_d_graph_s": ("corrgraph", "build_d_graph"),
    "corrgraph.ktheory_corr_s": ("corrgraph", "ktheory_corr"),
    "graphs.skew_product_s": ("graphs", "skew_product"),
    "graphs.ktheory_graph_s": ("graphs", "ktheory_graph"),
    "graphs.simplicity_check_s": ("graphs", "simplicity_check"),
    "intlinalg.smith_normal_form_s": ("intlinalg", "smith_normal_form"),
}
COUNT_METRICS = ("groups.cayley_cells", "chartable.classes", "reps.decompose_calls",
                 "graphs.vertices", "intlinalg.snf_calls", "intlinalg.snf_cells",
                 "intlinalg.max_factor_bits", "cyclo.mul_calls")
LAYER_TOTALS = ("groups", "chartable", "reps", "corrgraph", "graphs", "intlinalg")


def self_times(spans: list) -> dict:
    """Self seconds per (layer, function): span time minus its children's."""
    child = defaultdict(float)
    for _, parent, _, _, t0, t1 in spans:
        if parent is not None:
            child[parent] += t1 - t0
    out = defaultdict(float)
    for sid, _, layer, name, t0, t1 in spans:
        out[layer, name] += t1 - t0 - child[sid]
    return out


def _numpy_import_s(stderr: str) -> float:
    """Cumulative import time of numpy from a ``-X importtime`` log."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[2].strip() == "numpy":
            return int(parts[1]) / 1e6
    return 0.0


def per_layer(outcomes: list[Outcome], rounds: int) -> dict:
    """Per-round averages over ``rounds`` rounds, each of which ran every job
    once untraced and once traced."""
    total = Counter()
    counts = Counter()
    max_bits = 0
    for o in outcomes:
        if not o.traced:
            total["untraced_round_s"] += o.wall
            continue
        total["round_s"] += o.wall
        total["cli.import_numpy_s"] += _numpy_import_s(o.stderr)
        if o.job["kind"] == "cli":
            total["cli.emit_bytes"] += len(o.stdout) + sum(map(len, o.out_files.values()))
        if o.trace is None:
            continue
        total["cli.import_s"] += o.trace["import_s"]
        for (layer, name), s in self_times(o.trace["spans"]).items():
            total[layer, name] += s
            total[layer] += s
        for key, n in o.trace["counts"].items():
            if key == "intlinalg.max_factor_bits":
                max_bits = max(max_bits, n)
            else:
                counts[key] += n
    k = rounds
    m = {
        "cli.import_s": _metric(total["cli.import_s"] / k, "s"),
        "cli.import_numpy_s": _metric(total["cli.import_numpy_s"] / k, "s"),
        "cli.run_s": _metric(total["cli"] / k, "s"),
        "cli.emit_bytes": _metric(total["cli.emit_bytes"] / k, "bytes"),
    }
    for metric, key in SPAN_METRICS.items():
        m[metric] = _metric(total[key] / k, "s")
    for layer in LAYER_TOTALS:
        m[f"{layer}.self_s"] = _metric(total[layer] / k, "s")
    for key in COUNT_METRICS:
        value = max_bits if key == "intlinalg.max_factor_bits" else counts[key] / k
        m[key] = _metric(value, "bits" if key.endswith("_bits") else "count")
    attributed = total["cli.import_s"] + sum(total[layer] for layer in ("cli", "trace") + LAYER_TOTALS)
    m["trace.hook_s"] = _metric(total["trace"] / k, "s")
    m["trace.unattributed_s"] = _metric((total["round_s"] - attributed) / k, "s")
    m["trace.round_s"] = _metric(total["round_s"] / k, "s")
    m["trace.untraced_round_s"] = _metric(total["untraced_round_s"] / k, "s")
    m["trace.overhead_pct"] = _metric(
        100 * (total["round_s"] / total["untraced_round_s"] - 1), "%")
    return m


# ---------------------------------------------------------------------------
# entry point


def run_workload(jobs: list[dict], seed: int, seconds: float, trace: bool, golden: dict,
                 tmp: Path, log=None) -> dict:
    """Run whole rounds of ``jobs`` for about ``seconds``; return the result object."""
    setup_sample()  # compiles bytecode, which an installed package ships with
    setup: list[float] = []
    order_rng = random.Random(seed)
    outcomes: list[Outcome] = []
    rounds = 0
    start = time.perf_counter()
    while True:
        order = list(jobs)
        order_rng.shuffle(order)
        outcomes.extend(run_round(order, trace, tmp, golden, setup))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            break
    failed = [o for o in outcomes if o.error is not None]
    for o in failed[:5]:
        print(f"FAILED {o.job['name']}: {o.error}", file=log or sys.stderr)
    log_jobs(outcomes, log or sys.stderr)
    metrics = per_layer(outcomes, rounds) if trace else end_to_end(outcomes, setup)
    return {"correct": not failed, "attempted": len(outcomes), "failed": len(failed),
            "metrics": metrics}


def log_jobs(outcomes: list[Outcome], log) -> None:
    """Median untraced wall per job name and, if traced, its top self times."""
    walls, self_s, traced = defaultdict(list), defaultdict(Counter), Counter()
    for o in outcomes:
        name = o.job["name"]
        if not o.traced:
            walls[name].append(o.wall)
        elif o.trace is not None:
            traced[name] += 1
            self_s[name].update({f"{l}.{f}": s for (l, f), s in self_times(o.trace["spans"]).items()})
    print(f"{len(outcomes)} jobs; median wall per job:", file=log)
    for name, ws in sorted(walls.items(), key=lambda kv: -statistics.median(kv[1])):
        top = ", ".join(f"{k} {v / traced[name]:.3f}" for k, v in self_s[name].most_common(3))
        print(f"  {name}: {statistics.median(ws):.3f} s" + (f"; self {top}" if top else ""), file=log)


def run_round(order: list[dict], trace: bool, tmp: Path, golden: dict,
              setup: list[float]) -> list[Outcome]:
    """Run the jobs in order. Untraced, append set-up samples to ``setup``.
    Traced, run each job untraced and then traced, back to back, so that the
    overhead estimate sees the same machine speed on both sides."""
    every = -(-len(order) // SETUP_PER_ROUND)
    out = []
    for k, job in enumerate(order):
        if not trace and k % every == 0:
            setup.append(setup_sample())
        for traced in (False, True) if trace else (False,):
            o = run_job(job, traced, tmp)
            check(o, golden)
            out.append(o)
    return out


def load_golden() -> dict:
    return json.loads((BENCH / "golden.json").read_text())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "repcorr" / "__init__.py").is_file():
        print("error: run from the root of a repcorr checkout (src/repcorr is missing)",
              file=sys.stderr)
        return 2
    jobs = WORKLOADS[args.workload](random.Random(f"{args.workload}:{args.seed}"))
    tmp = Path(tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT))
    try:
        result = run_workload(jobs, args.seed, args.seconds, bool(args.trace), load_golden(), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
