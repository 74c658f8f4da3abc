"""Time the group and character table layers in-process, one JSON line per group.

For each group spec a line holds the spec, the number of classes r and the
least wall time over the repeats of each call: `construct_group`,
`conjugacy` of that group, the eigenspace split (`_omega_vectors` at the
prime `character_table` picks), `character_table`, `verify_table` of the
computed table, `format_table` of it, `load_table` of that document
(which rebuilds the group and its classes, then parses and verifies the
table again), `Rep.character()` of the regular representation and
`tensor(regular, regular)`.

A table builds its integer term index (`CharTable.terms`) once, in its
first check, so the `verify_table` best-of reads the index that
`character_table`'s own check cached and times the evaluation alone;
`load_table` builds the index of its new table on every repeat.

    python3 tools/table_times.py [--groups dihedral:60 cyclic:30] [--repeat 3]

The package is imported from this checkout's src/, so a copy of this script
in another checkout times that checkout's code.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repcorr.chartable import (  # noqa: E402
    _least_prime, _omega_vectors, character_table, format_table, load_table, verify_table,
)
from repcorr.groups import conjugacy, construct_group  # noqa: E402
from repcorr.reps import regular_rep, tensor  # noqa: E402

GROUPS = ["dihedral:60", "cyclic:30", "symmetric:6", "product:[12,12]",
          "perm:[(1 2),(1 2 3 4 5 6 7)]"]


def best_of(repeat: int, call):
    """(least wall time over the repeats, the last result) of call()."""
    best = None
    for _ in range(max(repeat, 1)):
        t0 = time.perf_counter()
        out = call()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--groups", nargs="*", default=GROUPS)
    ap.add_argument("--repeat", type=int, default=1)
    args = ap.parse_args(argv)
    for spec in args.groups:
        group_s, g = best_of(args.repeat, lambda: construct_group(spec))
        classes_s, cd = best_of(args.repeat, lambda: conjugacy(g))
        line = {"group": spec, "classes": cd.count,
                "construct_group": group_s, "conjugacy": classes_s}
        p = _least_prime(cd.exponent, g.order)
        line["split"], _ = best_of(args.repeat, lambda: _omega_vectors(g, cd, p))
        line["character_table"], t = best_of(args.repeat, lambda: character_table(g, cd))
        line["verify_table"], _ = best_of(args.repeat, lambda: verify_table(t))
        line["format_table"], doc = best_of(args.repeat, lambda: format_table(t))
        line["load_table"], _ = best_of(args.repeat, lambda: load_table(doc))
        reg = regular_rep(t)
        line["regular_character"], _ = best_of(args.repeat, reg.character)
        line["tensor_regular"], _ = best_of(args.repeat, lambda: tensor(reg, reg))
        print(json.dumps({k: round(v, 4) if isinstance(v, float) else v
                          for k, v in line.items()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
