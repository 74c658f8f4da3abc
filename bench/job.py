"""One benchmark job, run in a fresh interpreter by bench/run.py.

Usage: python3 bench/job.py SPEC.json

The spec names a job kind and its generated inputs:

* ``cli``: call ``repcorr.cli.main(argv)`` in-process. Untraced CLI jobs do
  not come here; they run ``python3 -m repcorr.cli`` directly.
* ``pipeline``: one group through construct, conjugacy, table, the text
  round trip, two representations, both edge conventions and both K-routes.
* ``ktheory``: skew products and integer matrices through the SNF layer.

Pipeline and ktheory jobs print one JSON line of results for bench/run.py
to check. When the spec carries a ``trace`` path, the public functions of each
repcorr module are wrapped before the job runs, and the spans (with parent
ids) and counters are written to that path as JSON.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from collections import Counter

# Modules whose public functions get a span, keyed by layer name.
LAYERS = ("cli", "groups", "chartable", "reps", "corrgraph", "graphs", "intlinalg")


def _max_bits(*matrices) -> int:
    return max(
        (abs(x).bit_length() for m in matrices for row in m.entries for x in row),
        default=0,
    )


def _count_snf(counts, args, result) -> None:
    a = args[0]
    counts["intlinalg.snf_calls"] += 1
    counts["intlinalg.snf_cells"] += a.rows * a.cols
    bits = _max_bits(*result)
    if bits > counts["intlinalg.max_factor_bits"]:
        counts["intlinalg.max_factor_bits"] = bits


# Counters taken after a wrapped call returns: (layer, function) -> hook.
COUNT_HOOKS = {
    ("groups", "construct_group"): lambda c, a, r: c.update({"groups.cayley_cells": r.order**2}),
    ("chartable", "character_table"): lambda c, a, r: c.update({"chartable.classes": r.count}),
    ("reps", "decompose"): lambda c, a, r: c.update({"reps.decompose_calls": 1}),
    ("graphs", "ktheory_graph"): lambda c, a, r: c.update({"graphs.vertices": a[0].n}),
    ("intlinalg", "smith_normal_form"): _count_snf,
}


class Tracer:
    """In-memory spans ``[id, parent, layer, name, start, end]`` plus counters.

    A counter hook runs after its span has closed and gets a span of its own
    in layer ``trace``, so its cost is not charged to the caller's self time.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def _open(self, layer: str, name: str) -> list:
        rec = [len(self.spans), self.stack[-1] if self.stack else None, layer, name,
               time.perf_counter(), None]
        self.spans.append(rec)
        self.stack.append(rec[0])
        return rec

    def _close(self, rec: list) -> None:
        self.stack.pop()
        rec[5] = time.perf_counter()

    def wrap(self, layer: str, name: str, fn):
        hook = COUNT_HOOKS.get((layer, name))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if hook is not None:
                hrec = self._open("trace", "hook")
                hook(self.counts, args, result)
                self._close(hrec)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function of each layer module, in every repcorr
        namespace that holds it, so calls between modules nest as spans."""
        from repcorr.cyclo import Cyclo

        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"repcorr.{layer}")
            if mod is None:  # repcorr.cli is imported by CLI jobs only
                continue
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, self.wrap(layer, name, obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "repcorr" or mod_name.startswith("repcorr."):
                for name, obj in list(vars(mod).items()):
                    hit = wrappers.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        setattr(mod, name, hit[1])

        counts = self.counts
        mul = Cyclo.__mul__

        def counted_mul(a, b):
            counts["cyclo.mul_calls"] += 1
            return mul(a, b)

        Cyclo.__mul__ = counted_mul
        Cyclo.__rmul__ = counted_mul

    def dump(self, path: str, import_s: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": self.spans, "counts": self.counts}, fh)


# ---------------------------------------------------------------------------
# job kinds


def _kgroups(k) -> list:
    return [k.k0_free_rank, list(k.k0_torsion), k.k1_rank]


def run_cli(spec) -> int:
    import repcorr.cli

    code = repcorr.cli.main(spec["argv"])
    sys.stdout.flush()
    return code


def run_pipeline(spec) -> int:
    import repcorr as R

    g = R.construct_group(spec["group"])
    cd = R.conjugacy(g)
    table = R.character_table(g, cd, seed=spec["split_seed"])
    text = R.format_table(table)
    loaded = R.load_table(text)
    out = {
        "order": g.order,
        "dims": list(table.dims),
        "table_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "reload_same": R.format_table(loaded) == text,
        "reps": {},
    }
    reps = (R.regular_rep(table), R.parse_rep_spec(table, spec["perm"], name="perm"))
    for rep in reps:
        entry = {"mults": list(rep.mults), "corr": _kgroups(R.ktheory_corr(rep))}
        for conv in R.CONVENTIONS:
            eg = R.build_e_graph(rep, conv)
            mg = R.from_corr(eg)
            entry[conv] = {"B": [list(r) for r in eg.b_matrix.entries],
                           "graph": _kgroups(R.ktheory_graph(mg))}
            simp = R.simplicity_check(mg)
            entry[conv]["simple"] = [simp.every_cycle_has_exit, simp.cofinal, simp.simple,
                                     simp.purely_infinite_simple]
        out["reps"][rep.name] = entry
    if spec["tensor"]:
        reg = reps[0]
        out["tensor_mults"] = list(R.tensor(reg, reg).mults)
        out["d_graph_B"] = [list(r) for r in R.build_d_graph(reg).b_matrix.entries]
    print(json.dumps(out, sort_keys=True))
    return 0


def run_ktheory(spec) -> int:
    import repcorr as R

    out = []
    for item in spec["inputs"]:
        if "matrix" in item:
            k = R.coker_ker(R.IntMatrix.from_rows(item["matrix"]))
            out.append({"k": _kgroups(k)})
            continue
        orders = item.get("orders")
        g = R.skew_product(
            R.SkewSpec(
                cocycle=tuple(tuple(c) for c in item["cocycle"]),
                orders=tuple(orders) if orders else None,
                rank=item.get("rank", 0),
                window=item.get("window", 1),
            )
        )
        simp = R.simplicity_check(g)
        out.append({
            "n": g.n,
            "stubs": sum(s.count for s in g.stubs),
            "k": _kgroups(R.ktheory_graph(g)),
            "simple": [simp.every_cycle_has_exit, simp.cofinal, simp.simple,
                       simp.purely_infinite_simple],
        })
    print(json.dumps(out))
    return 0


KINDS = {"cli": run_cli, "pipeline": run_pipeline, "ktheory": run_ktheory}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    if spec["kind"] == "cli":
        import repcorr.cli  # noqa: F401
    else:
        import repcorr  # noqa: F401
    import_s = time.perf_counter() - t0
    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        tracer.install()
    try:
        return KINDS[spec["kind"]](spec)
    finally:
        if tracer is not None:
            tracer.dump(spec["trace"], import_s)


if __name__ == "__main__":
    sys.exit(main())
