"""Time and size one skew K-group in a fresh process, one JSON line.

The input is the skew product of the one-vertex three-edge graph over Z^2
with the cocycle ((1,0),(0,1),(-1,-1)) on the window of radius W, which has
(2W + 1)^2 vertices. The script runs skew_product, ktheory_graph and
simplicity_check on it, in that order, and prints the window, the vertex
count, the K-groups as KGroups.k0_pretty and k1_pretty print them, and for
each call its wall time in seconds and the process's peak resident size
after it, `VmHWM` of /proc/self/status in MiB (null where that file is
absent). Run each window in its own process: the peak never falls.

    python3 tools/skew_memory.py 24

The package is imported from this checkout's src/, so a copy of this script
in another checkout measures that checkout's code.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repcorr.graphs import SkewSpec, ktheory_graph, simplicity_check, skew_product  # noqa: E402

COCYCLE = ((1, 0), (0, 1), (-1, -1))


def vmhwm_mib() -> float | None:
    """The process's peak resident size in MiB, or None without /proc."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return round(int(line.split()[1]) / 1024, 1)
    except OSError:
        pass
    return None


def timed(out: dict, call, arg):
    """call(arg), with its wall time and the peak after it put in out."""
    t0 = time.perf_counter()
    result = call(arg)
    out[call.__name__] = {"seconds": round(time.perf_counter() - t0, 4), "vmhwm_mib": vmhwm_mib()}
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("window", type=int)
    w = ap.parse_args(argv).window
    calls: dict = {}
    g = timed(calls, skew_product, SkewSpec(cocycle=COCYCLE, rank=2, window=w))
    k = timed(calls, ktheory_graph, g)
    timed(calls, simplicity_check, g)
    print(json.dumps({"window": w, "vertices": g.n, "k0": k.k0_pretty(), "k1": k.k1_pretty(),
                      **calls}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
