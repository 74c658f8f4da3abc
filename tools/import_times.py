"""Time interpreter start and `import repcorr.cli` in fresh interpreters, one JSON line.

Each of the --repeat rounds runs `python3 -c pass` and `python3 -c "import
repcorr.cli"`, swapping the two every other round, and one `python3 -X
importtime` child that times each repcorr module. The line holds the median
and quartiles (seconds, wall clock of the whole child process) of the first
two, the median self time in µs of each repcorr module, and the
PYTHONDONTWRITEBYTECODE value the children ran under: when it is set, every
start compiles what it runs from source.

The package runs each module on first use, and a module run that way gets no
-X importtime line. So the timing child imports `repcorr`, then reads the
namespace of each module in the package's lookup order, in which every module
comes after the ones it runs when it loads, and then imports `repcorr.cli`.
The self time of `repcorr`, `repcorr.cli` and `repcorr.record` is their -X
importtime self time; that of a module run on first use is the wall time of
its run less the cumulative time of the imports it makes directly, which -X
importtime lists in between.

`compile_us` gives, per module, the best of --repeat in-process `compile()`
runs on its source, the share of that compile; `pycache` counts the
`__pycache__` directories under src/, whose bytecode a child reads even
under PYTHONDONTWRITEBYTECODE, so two checkouts compared back to back should
both show 0.

    python3 tools/import_times.py [--repeat 20]

The package is imported from this checkout's src/, so a copy of this script
in another checkout times that checkout's code.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import timeit
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
RUNS = {"bare_s": "pass", "import_cli_s": "import repcorr.cli"}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def wall(code: str, env: dict) -> float:
    """Wall time of one fresh interpreter running code."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return time.perf_counter() - t0


# Runs each module of the package on first use, in the package's lookup
# order, between marker lines on stderr.
CHILD = """
import sys, time
import repcorr
for name in repcorr._MODULES:
    print("run", file=sys.stderr, flush=True)
    t0 = time.perf_counter()
    vars(sys.modules["repcorr." + name])
    print("ran", "repcorr." + name, round((time.perf_counter() - t0) * 1e6), file=sys.stderr, flush=True)
import repcorr.cli
"""


def self_us(env: dict) -> dict[str, int]:
    """Self µs of each repcorr module, from one -X importtime child."""
    r = subprocess.run([sys.executable, "-X", "importtime", "-c", CHILD],
                       env=env, capture_output=True, text=True, check=True)
    out, nested = {}, 0
    for line in r.stderr.splitlines():
        if line == "run":
            nested = 0
        elif line.startswith("ran "):
            _, name, us = line.split()
            out[name] = int(us) - nested
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        if not parts[2].startswith("  "):  # two more spaces per level of nesting
            nested += int(parts[1])  # a direct import: its cumulative time is not the run's own
        name = parts[2].strip()
        if name.startswith("repcorr"):
            out[name] = int(parts[0].split(":")[1])
    return out


def compile_us(repeat: int) -> dict[str, int]:
    """Best of repeat in-process compile() runs of each repcorr module, in µs."""
    out = {}
    for path in sorted((SRC / "repcorr").glob("*.py")):
        source = path.read_text()
        best = min(timeit.repeat(lambda: compile(source, str(path), "exec"), number=1, repeat=repeat))
        out["repcorr" if path.stem == "__init__" else f"repcorr.{path.stem}"] = round(best * 1e6)
    return out


def summary(times: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=20)
    args = ap.parse_args(argv)
    if args.repeat < 2:
        ap.error("--repeat must be at least 2 to give quartiles")
    env = _env()
    times = {key: [] for key in RUNS}
    modules: dict[str, list[int]] = {}
    for i in range(args.repeat):
        for key in (list(RUNS) if i % 2 == 0 else list(RUNS)[::-1]):
            times[key].append(wall(RUNS[key], env))
        for name, us in self_us(env).items():
            modules.setdefault(name, []).append(us)
    line = {key: summary(t) for key, t in times.items()}
    line["self_us"] = {name: round(statistics.median(us)) for name, us in sorted(modules.items())}
    line["compile_us"] = compile_us(args.repeat)
    line["pycache"] = sum(1 for _ in SRC.rglob("__pycache__"))
    line["repeat"] = args.repeat
    line["PYTHONDONTWRITEBYTECODE"] = os.environ.get("PYTHONDONTWRITEBYTECODE")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
