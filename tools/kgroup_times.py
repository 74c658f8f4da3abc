"""Time K-groups in-process, one JSON line per input.

Inputs: skew products of the one-vertex three-edge graph over Z^2 with the
cocycle ((1,0),(0,1),(-1,-1)), one per window radius, then two seeded
rank-deficient squares, a 30x30 of rank at most 29 and a 40x40 of rank at
most 39 (the product of n x (n-1) and (n-1) x n factors with entries in
[-3, 3]). Each line holds the input's name, the tracemalloc peak in MiB
of building it (`skew_product`, or the seeded product) as `build_mib`, the
least wall time over the repeats of the K-group call alone (the input is
built outside the clock), the tracemalloc peak in MiB of one more call, made
after the timed repeats so that the tracing slows none of them, and the
K-groups as KGroups.k0_pretty and k1_pretty print them. It also reports
what the Smith reduction did, from one more _reduce of the matrix that the
memory call handed to smith_normal_form: the shape [rows, cols] of the
remainder B left after the unit pivots, and the bit lengths of D = |det B|
and of the modulus N of the remainder loop, both 0 where the loop ran
exactly.

    python3 tools/kgroup_times.py [--windows 12 14 18] [--repeat 1]

The package is imported from this checkout's src/, so a copy of this script
in another checkout times that checkout's code.
"""

import argparse
import json
import random
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repcorr import intlinalg  # noqa: E402
from repcorr.graphs import SkewSpec, ktheory_graph, skew_product  # noqa: E402
from repcorr.intlinalg import IntMatrix, coker_ker  # noqa: E402

COCYCLE = ((1, 0), (0, 1), (-1, -1))


def rank_deficient(n: int, seed: int) -> IntMatrix:
    """The product of seeded n x (n-1) and (n-1) x n factors in [-3, 3]."""
    rng = random.Random(seed)
    x = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n - 1)] for _ in range(n)])
    y = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n - 1)])
    return IntMatrix.from_rows(
        [[sum(a * b for a, b in zip(row, col)) for col in zip(*y.entries)] for row in x.entries]
    )


def inputs(windows: list[int]):
    """(name, zero-argument build of the input, its K-group call) per input."""
    for w in windows:
        yield (f"skew_z2_w{w}", lambda w=w: skew_product(SkewSpec(cocycle=COCYCLE, rank=2, window=w)),
               ktheory_graph)
    for n in (30, 40):
        yield f"rank{n - 1}_{n}x{n}", lambda n=n: rank_deficient(n, n), coker_ker


def traced_peak_mib(call) -> tuple[float, object]:
    """(the tracemalloc peak in MiB of call(), its result)."""
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return round(peak / 2**20, 2), out


def reduction(a: IntMatrix) -> dict:
    """The remainder's shape and the bit lengths of D and N for a."""
    r = intlinalg._reduce(intlinalg._sparse_rows(a), a.cols)
    d_bits = abs(r.b.det()).bit_length() if r.mod else 0
    return {"remainder": [r.b.rows, r.b.cols], "d_bits": d_bits, "n_bits": r.mod.bit_length()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--windows", type=int, nargs="*", default=[12, 14, 18])
    ap.add_argument("--repeat", type=int, default=1)
    args = ap.parse_args(argv)
    for name, build, kgroups in inputs(args.windows):
        build_mib, x = traced_peak_mib(build)
        best = None
        for _ in range(max(args.repeat, 1)):
            t0 = time.perf_counter()
            k = kgroups(x)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        seen = []
        snf = intlinalg.smith_normal_form
        intlinalg.smith_normal_form = lambda a: seen.append(a) or snf(a)
        try:
            peak_mib, _ = traced_peak_mib(lambda: kgroups(x))
        finally:
            intlinalg.smith_normal_form = snf
        print(json.dumps({"name": name, "build_mib": build_mib, "seconds": round(best, 4),
                          "peak_mib": peak_mib, "k0": k.k0_pretty(), "k1": k.k1_pretty(),
                          **reduction(*seen)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
