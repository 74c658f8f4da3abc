"""Command line interface.

Typical runs:

    repcorr --group symmetric:3 --task table
    repcorr --group symmetric:3 --rep "rho=perm:[(1 2), (1 2 3)]" \
            --task egraph,ktheory --format json
    repcorr --rep c=zcocycle:[0,1,-1] --task skew --window 2
    repcorr --group cyclic:2 --rep c=cocycle:[1,1] --task skew
    repcorr --rep f=freqs:[1/2,-theta] --task circle
    repcorr --job run.job

Exit codes: 0 success, 2 bad arguments or specs, 3 failed verification,
4 I/O trouble.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

from . import chartable, corrgraph, graphs, groups, intlinalg, reps
from .errors import SpecError, VerificationError

__all__ = ["main", "run"]


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repcorr",
        description="Character tables, bimodule graphs and their K-theory "
        "for finite groups.",
    )
    p.add_argument("--group", help="group spec, e.g. symmetric:3 or cyclic:4")
    p.add_argument(
        "--rep",
        action="append",
        metavar="NAME=SPEC",
        help="representation or auxiliary input; repeatable. Bare SPEC gets "
        "a default name. Heads: trivial, regular, perm:[..], mult:[..], "
        "char:[..], tensor(..), dsum(..), cocycle:[..], zcocycle:[..], "
        "angles:[..], freqs:[..]",
    )
    p.add_argument(
        "--task", dest="tasks", metavar="TASK", help="comma separated tasks: " + ", ".join(TASKS)
    )
    p.add_argument("--convention", choices=list(_CONVENTIONS), default=None)
    p.add_argument("--seed", type=int, default=None, help="table algorithm seed")
    p.add_argument("--window", type=int, default=None, help="window radius for skew")
    p.add_argument("--out", help="write artifacts into this directory")
    p.add_argument("--format", choices=["text", "json", "dot"], default=None)
    p.add_argument("--job", help="job file with key=value lines")
    return p


# corrgraph.CONVENTIONS, spelled out so that reading the arguments runs no
# math module (tests/test_lazy_modules.py pins the two equal).
_CONVENTIONS = ("paper-min", "module-count")

# Every setting a job file or a flag can give, with its default. Flags win
# over the job file, which wins over these; job values of the integer
# settings are converted when the file is read.
_SETTINGS = {
    "group": None,
    "tasks": "",
    "convention": "paper-min",
    "seed": 0,
    "window": 1,
    "format": "text",
    "out": None,
}


def _read_job(path: str) -> dict:
    job: dict = {"reps": []}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise SpecError(f"{path}: job file is not valid UTF-8 ({exc.reason})") from exc
    for lineno, raw in enumerate(lines, 1):
        if "\0" in raw:
            raise SpecError(f"{path}:{lineno}: NUL byte in job file")
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SpecError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if key.startswith("rep."):
            name = key[4:]
            if not name.isidentifier():
                raise SpecError(f"{path}:{lineno}: bad rep name {name!r}")
            job["reps"].append((name, value))
        elif key not in _SETTINGS:
            raise SpecError(f"{path}:{lineno}: unknown key {key!r}")
        elif isinstance(_SETTINGS[key], int):
            try:
                job[key] = int(value)
            except ValueError as exc:
                raise SpecError(f"job key {key} must be an integer") from exc
        else:
            job[key] = value
    return job


def _gather_settings(args) -> dict:
    cfg = {**_SETTINGS, "reps": []}
    if args.job:
        cfg.update(_read_job(args.job))
    cfg.update((key, getattr(args, key)) for key in _SETTINGS if getattr(args, key) is not None)
    if args.rep:
        named = []
        for k, entry in enumerate(args.rep):
            head, eq, rest = entry.partition("=")
            if eq and head.strip().isidentifier():
                named.append((head.strip(), rest.strip()))
            else:
                named.append((f"rep{k + 1}", entry.strip()))
        cfg["reps"] = named
    if cfg["convention"] not in _CONVENTIONS:
        raise SpecError(f"unknown convention {cfg['convention']!r}")
    if cfg["format"] not in ("text", "json", "dot"):
        raise SpecError(f"unknown format {cfg['format']!r}")
    tasks = [t.strip() for t in cfg["tasks"].split(",") if t.strip()]
    if not tasks:
        raise SpecError("no tasks given; use --task or a job file")
    for t in tasks:
        if t not in TASKS:
            raise SpecError(f"unknown task {t!r}; choose from {', '.join(TASKS)}")
    cfg["tasks"] = list(dict.fromkeys(tasks))
    # each input names its output files, so a repeated name would overwrite them
    repeated = [name for name, count in Counter(name for name, _ in cfg["reps"]).items() if count > 1]
    if repeated:
        raise SpecError(f"input name {repeated[0]!r} is given more than once")
    return cfg


# ---------------------------------------------------------------------------
# auxiliary input specs


def _parse_cocycle(parts: list[str]) -> tuple[tuple[int, ...], ...]:
    values = []
    for part in parts:
        try:
            if part.startswith("(") and part.endswith(")"):
                values.append(tuple(int(tok) for tok in groups._split_top_level(part[1:-1], part)))
            else:
                values.append((int(part),))
        except ValueError as exc:
            raise SpecError(f"bad cocycle value {part!r}") from exc
    if not values:
        raise SpecError("cocycle needs at least one value")
    width = len(values[0])
    if width == 0 or any(len(v) != width for v in values):
        raise SpecError("cocycle values must share a positive length")
    return tuple(values)


def _dual_orders(group_spec: str | None) -> tuple[int, ...]:
    """Cyclic factor orders of the dual of an abelian group spec."""
    if group_spec is None:
        raise SpecError(
            "a finite dual group needs --group cyclic:n or product:[n1,...]"
        )
    orders = groups.cyclic_factors(group_spec)
    if orders is None:
        raise SpecError(
            f"group {group_spec!r} is not given as a product of cyclic factors; "
            "finite dual groups need cyclic:n or product:[n1,...]"
        )
    return orders


class _Inputs:
    """One run's settings, its character table (built on first use), its
    representations and its auxiliary inputs.

    The --rep entries are split into representations and auxiliary inputs.
    Cocycles are tagged "finite" (head cocycle:, dual group taken from the
    abelian --group spec) or "free" (head zcocycle:, dual group Z^d with the
    --window radius).
    """

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self._table: chartable.CharTable | None = None
        self.reps, self.cocycles, self.freq_lists = [], [], []
        for name, spec in cfg["reps"]:
            head, _, arg = spec.partition(":")
            head = head.strip()
            if head in ("cocycle", "zcocycle"):
                kind = "finite" if head == "cocycle" else "free"
                self.cocycles.append((name, kind, _parse_cocycle(groups._bracket_items(arg, spec))))
            elif head in ("angles", "freqs"):
                parts = groups._bracket_items(arg, spec)
                if not parts:
                    raise SpecError(f"{head} list is empty in {spec!r}")
                freqs = tuple(graphs.parse_frequency(x) for x in parts)
                self.freq_lists.append((name, head, freqs))
            else:
                self.reps.append(reps.parse_rep_spec(self.table(), spec, name=name))

    def table(self) -> chartable.CharTable:
        if self.cfg["group"] is None:
            raise SpecError("--group is required for this task")
        if self._table is None:
            self._table = chartable.character_table(
                groups.construct_group(self.cfg["group"]), seed=self.cfg["seed"]
            )
        return self._table

    def need_reps(self) -> list[reps.Rep]:
        self.table()
        if not self.reps:
            raise SpecError("this task needs at least one representation (--rep)")
        return self.reps


# ---------------------------------------------------------------------------
# task handlers do the math and return (stem, renderings): renderings maps
# "json" (to the payload), "txt" and, where the result is a graph, "dot" to
# a function that builds that rendering alone, so a run builds only what it
# emits. Every text and dot rendering ends in one newline, so a run's
# renderings concatenate.


_WORDS = {True: "yes", False: "no", None: "undecided"}


def _kgroups_payload(k: intlinalg.KGroups) -> dict:
    return {
        "k0": k.k0_pretty(),
        "k0_free_rank": k.k0_free_rank,
        "k0_torsion": list(k.k0_torsion),
        "k1": k.k1_pretty(),
        "k1_rank": k.k1_rank,
    }


def _corr_result(rep: reps.Rep, task: str, convention: str) -> tuple:
    if task == "egraph":
        g = corrgraph.build_e_graph(rep, convention)
    else:
        g = corrgraph.build_d_graph(rep)

    def payload() -> dict:
        graphs.cap_edge_copies(g)  # one entry per edge copy; the text lists one line per edge
        return {
            "task": task,
            "rep": rep.name,
            "convention": g.convention,
            "vertices": [
                {"index": i, "algebra_dim": d} for i, d in enumerate(g.dims)
            ],
            "edges": [
                {"src": e.src, "dst": e.dst, "label_rows": e.rows, "label_cols": e.cols}
                for e in g.edges
                for _ in range(e.count)
            ],
            "B": [list(row) for row in g.b_matrix.entries],
        }

    def text() -> str:
        return "\n".join([
            f"{task} for {rep.name} ({g.convention})",
            "vertices: " + ", ".join(g.names),
            "B matrix (B[k][i] = edges i->k):",
            *("  " + " ".join(map(str, row)) for row in g.b_matrix.entries),
            *(f"  pi{e.src} -> pi{e.dst}: {e.count} x M_{e.rows}x{e.cols}" for e in g.edges),
        ]) + "\n"

    return f"{task}_{rep.name}", {
        "json": payload, "txt": text, "dot": lambda: graphs.dot_export(g, task)
    }


def _table_results(inputs: _Inputs) -> list:
    t = inputs.table()

    def payload() -> dict:
        return {
            "task": "table",
            "group": t.group.spec,
            "classes": t.classes.count,
            "zeta": t.zeta_order,
            "class_sizes": list(t.classes.sizes),
            "class_representatives": [
                t.group.label(r) for r in t.classes.representatives
            ],
            "irreps": [
                {
                    "name": t.labels[i],
                    "dim": t.dims[i],
                    "values": [v.text() for v in t.values[i]],
                }
                for i in range(t.count)
            ],
        }

    return [("table", {"json": payload, "txt": lambda: chartable.format_table(t)})]


def _decompose_result(rep: reps.Rep, convention: str) -> tuple:
    injective = reps.is_pi_injective(rep)

    def payload() -> dict:
        return {
            "task": "decompose",
            "rep": rep.name,
            "dim": rep.dim,
            "mults": list(rep.mults),
            "pi_injective": injective,
            "character": [v.text() for v in rep.character()],
        }

    def text() -> str:
        mults = " ".join(f"{lbl}:{m}" for lbl, m in zip(rep.table.labels, rep.mults))
        return f"decompose {rep.name}: dim {rep.dim}, mults {mults}, pi injective: {_WORDS[injective]}\n"

    return f"decompose_{rep.name}", {"json": payload, "txt": text}


def _ktheory_result(rep: reps.Rep, convention: str) -> tuple:
    mg = graphs.from_corr(corrgraph.build_e_graph(rep, convention))
    via_graph = graphs.ktheory_graph(mg)
    via_bimodule = corrgraph.ktheory_corr(rep)
    agree = via_graph == via_bimodule
    simp = graphs.simplicity_check(mg)

    def payload() -> dict:
        sources, sinks = graphs.sources_sinks(mg)
        return {
            "task": "ktheory",
            "rep": rep.name,
            "convention": convention,
            "graph_path": _kgroups_payload(via_graph),
            "bimodule_path": _kgroups_payload(via_bimodule),
            "agree": agree,
            "authoritative": "bimodule_path",
            "sources": list(sources),
            "sinks": list(sinks),
            "simplicity": {n: getattr(simp, n) for n in simp._fields},
        }

    def text() -> str:
        return (
            f"ktheory for {rep.name} ({convention})\n"
            f"graph path:    K0 = {via_graph.k0_pretty()}, "
            f"K1 = {via_graph.k1_pretty()}\n"
            f"bimodule path: K0 = {via_bimodule.k0_pretty()}, "
            f"K1 = {via_bimodule.k1_pretty()}\n"
            f"paths agree: {'yes' if agree else 'no (bimodule path is authoritative)'}\n"
            f"simple: {_WORDS[simp.simple]}"
            f" (every cycle has an exit: {_WORDS[simp.every_cycle_has_exit]},"
            f" cofinal: {_WORDS[simp.cofinal]})\n"
            f"purely infinite simple: {_WORDS[simp.purely_infinite_simple]}\n"
        )

    return f"ktheory_{rep.name}", {"json": payload, "txt": text}


def _skew_results(inputs: _Inputs) -> list:
    if len(inputs.cocycles) != 1:
        raise SpecError(
            "skew needs exactly one cocycle:[...] or zcocycle:[...] input"
        )
    cname, kind, values = inputs.cocycles[0]
    if kind == "finite":
        orders = _dual_orders(inputs.cfg["group"])
        spec = graphs.SkewSpec(cocycle=values, orders=orders)
        dual = " x ".join(f"Z/{o}" for o in orders)
    else:
        rank, window = len(values[0]), inputs.cfg["window"]
        spec = graphs.SkewSpec(cocycle=values, orders=None, rank=rank, window=window)
        dual = f"Z^{rank} (window {window})"
    sk = graphs.skew_product(spec)
    # the dot listing's cap refuses the graph in every format
    edge_count = graphs.cap_edge_copies(sk)

    def payload() -> dict:
        sources, sinks = graphs.sources_sinks(sk)
        return {
            "task": "skew",
            "cocycle": cname,
            "dual_group": dual,
            "edges_per_vertex": len(values),
            "vertices": [
                {"index": i, "name": name} for i, name in enumerate(sk.names)
            ],
            "A": [list(row) for row in sk.a],
            "stubs": [
                {"src": s.src, "target": s.target, "count": s.count}
                for s in sk.stubs
            ],
            "sources": list(sources),
            "sinks": list(sinks),
        }

    def text() -> str:
        return "\n".join([
            f"skew product of the {len(values)}-edge rose by {cname} over {dual}",
            f"vertices: {sk.n}, edges: {edge_count}, stubs: {len(sk.stubs)}",
            "A matrix (A[v][w] = edges w->v):",
            *("  " + " ".join(map(str, row)) for row in sk.a),
            *(f"  stub: {sk.names[s.src]} -> {s.target} x{s.count}" for s in sk.stubs),
        ]) + "\n"

    return [(f"skew_{cname}", {
        "json": payload, "txt": text, "dot": lambda: graphs.dot_export(sk, "skew")
    })]


def _circle_result(name: str, kind: str, freqs) -> tuple:
    if kind == "angles":
        c = graphs.circle_analysis(graphs.CircleGraph(angles=freqs))
        found = {"orbit_group_order": c.orbit_group_order, "dense": c.dense}
        orbit = f"finite orbit group of order {c.orbit_group_order}"
        if c.dense:
            orbit = "dense, infinite orbit group"
        text = f"circle orbit for {name}: {orbit}\n"
    else:
        found = {"fills_line": graphs.semigroup_r_check(freqs)}
        text = f"frequency semigroup {name} fills the line: {_WORDS[found['fills_line']]}\n"
    payload = {"task": "circle", "input": name, "kind": kind, **found}
    return f"circle_{name}", {"json": lambda: payload, "txt": lambda: text}


def _circle_results(inputs: _Inputs) -> list:
    if not inputs.freq_lists:
        raise SpecError("circle needs angles:[...] or freqs:[...] inputs")
    return [_circle_result(*entry) for entry in inputs.freq_lists]


def _export_results(inputs: _Inputs) -> list:
    table = _table_results(inputs)
    if inputs.cfg["out"] is None:
        raise SpecError("export requires --out DIR")
    return table + _TASK_RESULTS["egraph"](inputs)


def _each_rep(result):
    """A task that adds result(rep, convention) for every representation."""
    return lambda inputs: [result(rep, inputs.cfg["convention"]) for rep in inputs.need_reps()]


# task name -> the (stem, renderings) results it adds, in this order
_TASK_RESULTS = {
    "table": _table_results,
    "decompose": _each_rep(_decompose_result),
    "egraph": _each_rep(lambda rep, convention: _corr_result(rep, "egraph", convention)),
    "dgraph": _each_rep(lambda rep, convention: _corr_result(rep, "dgraph", convention)),
    "ktheory": _each_rep(_ktheory_result),
    "skew": _skew_results,
    "circle": _circle_results,
    "export": _export_results,
}

TASKS = tuple(_TASK_RESULTS)


def _emit(cfg, results: list[tuple[str, dict]]) -> None:
    ext = "txt" if cfg["format"] == "text" else cfg["format"]
    if cfg["out"] is None:
        if ext == "json":
            doc = {
                "group": cfg["group"],
                "convention": cfg["convention"],
                "results": [renderings["json"]() for _, renderings in results],
            }
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            print("".join(_render(*res, ext) for res in results), end="")
        return
    os.makedirs(cfg["out"], exist_ok=True)
    for stem, renderings in results:
        # export writes the table as text and every other result as json,
        # plus dot where it has one; the other tasks write --format
        if "export" not in cfg["tasks"]:
            exts = [ext]
        elif stem == "table":
            exts = ["txt"]
        else:
            exts = [x for x in ("json", "dot") if x in renderings]
        for suffix in exts:
            body = _render(stem, renderings, suffix)
            path = os.path.join(cfg["out"], f"{stem}.{suffix}")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(body)
            print(f"wrote {path}")


def _render(stem: str, renderings: dict, ext: str) -> str:
    if ext not in renderings:
        raise SpecError(f"task output {stem} has no {ext} rendering")
    body = renderings[ext]()
    return json.dumps(body, indent=2, sort_keys=True) + "\n" if ext == "json" else body


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _gather_settings(args)
        inputs = _Inputs(cfg)
        results = [res for task in cfg["tasks"] for res in _TASK_RESULTS[task](inputs)]
        _emit(cfg, results)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4
    return 0


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
