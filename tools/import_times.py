"""Time interpreter start and `import repcorr.cli` in fresh interpreters, one JSON line.

Each of the --repeat rounds runs `python3 -c pass`, `python3 -c "import
repcorr.cli"` and `python3 -X importtime -c "import repcorr.cli"`, swapping
the first two every other round. The line holds the median and quartiles
(seconds, wall clock of the whole child process) of the first two, the
median self time in µs of each repcorr module under -X importtime, and the
PYTHONDONTWRITEBYTECODE value the children ran under: when it is set, every
start compiles src/ from source. `compile_us` gives, per module, the best of
--repeat in-process `compile()` runs on its source, the share of that
compile; `pycache` counts the `__pycache__` directories under src/, whose
bytecode a child reads even under PYTHONDONTWRITEBYTECODE, so two
checkouts compared back to back should both show 0.

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


def self_us(env: dict) -> dict[str, int]:
    """Self µs of each repcorr module, from one -X importtime run."""
    r = subprocess.run([sys.executable, "-X", "importtime", "-c", RUNS["import_cli_s"]],
                       env=env, capture_output=True, text=True, check=True)
    out = {}
    for line in r.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip().startswith("repcorr"):
            out[parts[2].strip()] = int(parts[0].split(":")[1])
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
