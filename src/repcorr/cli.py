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

from .chartable import CharTable, character_table, format_table
from .corrgraph import CONVENTIONS, CorrGraph, build_d_graph, build_e_graph, ktheory_corr
from .errors import SpecError, VerificationError
from .graphs import (
    CircleGraph,
    circle_analysis,
    dot_export,
    from_corr,
    ktheory_graph,
    parse_frequency,
    semigroup_r_check,
    simplicity_check,
    skew_product,
    sources_sinks,
    SkewSpec,
)
from .groups import _int_list, _split_top_level, construct_group
from .intlinalg import KGroups
from .reps import is_pi_injective, parse_rep_spec

TASKS = ("table", "decompose", "egraph", "dgraph", "ktheory", "skew", "circle", "export")

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
        default=None,
        metavar="NAME=SPEC",
        help="representation or auxiliary input; repeatable. Bare SPEC gets "
        "a default name. Heads: trivial, regular, perm:[..], mult:[..], "
        "char:[..], tensor(..), dsum(..), cocycle:[..], zcocycle:[..], "
        "angles:[..], freqs:[..]",
    )
    p.add_argument("--task", help="comma separated tasks: " + ", ".join(TASKS))
    p.add_argument("--convention", choices=list(CONVENTIONS), default=None)
    p.add_argument("--seed", type=int, default=None, help="table algorithm seed")
    p.add_argument("--window", type=int, default=None, help="window radius for skew")
    p.add_argument("--out", help="write artifacts into this directory")
    p.add_argument("--format", choices=["text", "json", "dot"], default=None)
    p.add_argument("--job", help="job file with key=value lines")
    return p


_JOB_KEYS = ("group", "tasks", "convention", "seed", "window", "format", "out")


def _read_job(path: str) -> dict:
    job: dict = {"reps": []}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
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
            elif key in _JOB_KEYS:
                job[key] = value
            else:
                raise SpecError(f"{path}:{lineno}: unknown key {key!r}")
    return job


def _gather_settings(args) -> dict:
    cfg = {
        "group": None,
        "tasks": [],
        "convention": "paper-min",
        "seed": 0,
        "window": 1,
        "format": "text",
        "out": None,
        "reps": [],
    }
    if args.job:
        job = _read_job(args.job)
        cfg["reps"] = list(job.get("reps", []))
        for key in ("group", "convention", "format", "out"):
            if key in job:
                cfg[key] = job[key]
        if "tasks" in job:
            cfg["tasks"] = [t.strip() for t in job["tasks"].split(",") if t.strip()]
        for key in ("seed", "window"):
            if key in job:
                try:
                    cfg[key] = int(job[key])
                except ValueError as exc:
                    raise SpecError(f"job key {key} must be an integer") from exc
    if args.group is not None:
        cfg["group"] = args.group
    if args.task is not None:
        cfg["tasks"] = [t.strip() for t in args.task.split(",") if t.strip()]
    if args.convention is not None:
        cfg["convention"] = args.convention
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.window is not None:
        cfg["window"] = args.window
    if args.format is not None:
        cfg["format"] = args.format
    if args.out is not None:
        cfg["out"] = args.out
    if args.rep:
        named = []
        for k, entry in enumerate(args.rep):
            head, eq, rest = entry.partition("=")
            if eq and head.strip().isidentifier():
                named.append((head.strip(), rest.strip()))
            else:
                named.append((f"rep{k + 1}", entry.strip()))
        cfg["reps"] = named
    if cfg["convention"] not in CONVENTIONS:
        raise SpecError(f"unknown convention {cfg['convention']!r}")
    if cfg["format"] not in ("text", "json", "dot"):
        raise SpecError(f"unknown format {cfg['format']!r}")
    if not cfg["tasks"]:
        raise SpecError("no tasks given; use --task or a job file")
    seen = set()
    ordered = []
    for t in cfg["tasks"]:
        if t not in TASKS:
            raise SpecError(f"unknown task {t!r}; choose from {', '.join(TASKS)}")
        if t not in seen:
            seen.add(t)
            ordered.append(t)
    cfg["tasks"] = ordered
    return cfg


# ---------------------------------------------------------------------------
# auxiliary input specs


_AUX_HEADS = ("cocycle", "zcocycle", "angles", "freqs")


def _parse_cocycle(body: str) -> tuple[tuple[int, ...], ...]:
    parts = _split_top_level(body)
    values = []
    for part in parts:
        part = part.strip()
        try:
            if part.startswith("(") and part.endswith(")"):
                values.append(
                    tuple(int(tok.strip()) for tok in part[1:-1].split(",") if tok.strip())
                )
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


def _classify_inputs(cfg, need_table):
    """Split the --rep entries into representations and auxiliary inputs.

    Cocycles are tagged "finite" (head cocycle:, dual group taken from the
    abelian --group spec) or "free" (head zcocycle:, dual group Z^d with the
    --window radius).
    """
    reps, cocycles, freq_lists = [], [], []
    for name, spec in cfg["reps"]:
        head = spec.split(":", 1)[0].strip()
        if head in _AUX_HEADS:
            body = spec.split(":", 1)[1].strip()
            if not (body.startswith("[") and body.endswith("]")):
                raise SpecError(f"expected a bracketed list in {spec!r}")
            body = body[1:-1]
            if head in ("cocycle", "zcocycle"):
                kind = "finite" if head == "cocycle" else "free"
                cocycles.append((name, kind, _parse_cocycle(body)))
            else:
                parts = _split_top_level(body)
                if not parts:
                    raise SpecError(f"{head} list is empty in {spec!r}")
                freq_lists.append((name, head, tuple(parse_frequency(x) for x in parts)))
        else:
            reps.append(parse_rep_spec(need_table(), spec, name=name))
    return reps, cocycles, freq_lists


def _dual_orders(group_spec: str | None) -> tuple[int, ...]:
    """Cyclic factor orders of the dual of an abelian group spec."""
    if group_spec is None:
        raise SpecError(
            "a finite dual group needs --group cyclic:n or product:[n1,...]"
        )
    head, _, rest = group_spec.strip().partition(":")
    head = head.strip()
    if head == "cyclic":
        try:
            n = int(rest.strip())
        except ValueError as exc:
            raise SpecError(f"bad group spec {group_spec!r}") from exc
        if n < 1:
            raise SpecError(f"bad group spec {group_spec!r}")
        return (n,)
    if head == "product":
        orders = tuple(_int_list(rest, group_spec))
        if not orders or any(o < 1 for o in orders):
            raise SpecError(f"bad group spec {group_spec!r}")
        return orders
    raise SpecError(
        f"group {group_spec!r} is not given as a product of cyclic factors; "
        "finite dual groups need cyclic:n or product:[n1,...]"
    )


# ---------------------------------------------------------------------------
# task handlers produce (stem, payload, text, dot)


def _kgroups_payload(k: KGroups) -> dict:
    return {
        "k0": k.k0_pretty(),
        "k0_free_rank": k.k0_free_rank,
        "k0_torsion": list(k.k0_torsion),
        "k1": k.k1_pretty(),
        "k1_rank": k.k1_rank,
    }


def _corr_payload(g: CorrGraph, rep_name: str, task: str) -> dict:
    edges = []
    for e in sorted(g.edges, key=lambda e: (e.src, e.dst)):
        for _ in range(e.count):
            edges.append(
                {
                    "src": e.src,
                    "dst": e.dst,
                    "label_rows": e.rows,
                    "label_cols": e.cols,
                }
            )
    return {
        "task": task,
        "rep": rep_name,
        "convention": g.convention,
        "vertices": [
            {"index": i, "algebra_dim": d} for i, d in enumerate(g.dims)
        ],
        "edges": edges,
        "B": [list(row) for row in g.b_matrix.entries],
    }


def _corr_text(g: CorrGraph, rep_name: str, task: str) -> str:
    lines = [f"{task} for {rep_name} ({g.convention})"]
    lines.append("vertices: " + ", ".join(f"pi{i}:M{d}" for i, d in enumerate(g.dims)))
    lines.append("B matrix (B[k][i] = edges i->k):")
    for row in g.b_matrix.entries:
        lines.append("  " + " ".join(str(x) for x in row))
    for e in sorted(g.edges, key=lambda e: (e.src, e.dst)):
        lines.append(f"  pi{e.src} -> pi{e.dst}: {e.count} x M_{e.rows}x{e.cols}")
    return "\n".join(lines) + "\n"


def _run_tasks(cfg) -> list[tuple[str, dict, str, str | None]]:
    cache: list[CharTable] = []

    def need_table() -> CharTable:
        if cfg["group"] is None:
            raise SpecError("--group is required for this task")
        if not cache:
            cache.append(
                character_table(construct_group(cfg["group"]), seed=cfg["seed"])
            )
        return cache[0]

    reps, cocycles, freq_lists = _classify_inputs(cfg, need_table)

    def need_reps():
        if not reps:
            raise SpecError("this task needs at least one representation (--rep)")
        return reps

    results = []
    for task in cfg["tasks"]:
        if task == "table":
            t = need_table()
            doc = format_table(t)
            payload = {
                "task": "table",
                "group": t.group.spec,
                "classes": t.classes.count,
                "zeta": t.zeta_order,
                "class_sizes": list(t.classes.sizes),
                "class_representatives": [
                    t.group.labels[r] for r in t.classes.representatives
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
            results.append(("table", payload, doc, None))
        elif task == "decompose":
            need_table()
            for rep in need_reps():
                payload = {
                    "task": "decompose",
                    "rep": rep.name,
                    "dim": rep.dim,
                    "mults": list(rep.mults),
                    "pi_injective": is_pi_injective(rep),
                    "character": [v.text() for v in rep.character()],
                }
                text = (
                    f"decompose {rep.name}: dim {rep.dim}, "
                    "mults "
                    + " ".join(
                        f"{lbl}:{m}" for lbl, m in zip(rep.table.labels, rep.mults)
                    )
                    + f", pi injective: {'yes' if payload['pi_injective'] else 'no'}\n"
                )
                results.append((f"decompose_{rep.name}", payload, text, None))
        elif task in ("egraph", "dgraph"):
            need_table()
            results.extend(_corr_result(rep, task, cfg["convention"]) for rep in need_reps())
        elif task == "ktheory":
            need_table()
            for rep in need_reps():
                corr = build_e_graph(rep, cfg["convention"])
                mg = from_corr(corr)
                via_graph = ktheory_graph(mg)
                via_bimodule = ktheory_corr(rep)
                agree = via_graph == via_bimodule
                simp = simplicity_check(mg)
                sources, sinks = sources_sinks(mg)
                payload = {
                    "task": "ktheory",
                    "rep": rep.name,
                    "convention": cfg["convention"],
                    "graph_path": _kgroups_payload(via_graph),
                    "bimodule_path": _kgroups_payload(via_bimodule),
                    "agree": agree,
                    "authoritative": "bimodule_path",
                    "sources": list(sources),
                    "sinks": list(sinks),
                    "simplicity": {
                        "every_cycle_has_exit": simp.every_cycle_has_exit,
                        "cofinal": simp.cofinal,
                        "simple": simp.simple,
                        "purely_infinite_simple": simp.purely_infinite_simple,
                    },
                }
                text = (
                    f"ktheory for {rep.name} ({cfg['convention']})\n"
                    f"graph path:    K0 = {via_graph.k0_pretty()}, "
                    f"K1 = {via_graph.k1_pretty()}\n"
                    f"bimodule path: K0 = {via_bimodule.k0_pretty()}, "
                    f"K1 = {via_bimodule.k1_pretty()}\n"
                    f"paths agree: {'yes' if agree else 'no (bimodule path is authoritative)'}\n"
                    f"simple: {'yes' if simp.simple else 'no'}"
                    f" (every cycle has an exit: "
                    f"{'yes' if simp.every_cycle_has_exit else 'no'},"
                    f" cofinal: {'yes' if simp.cofinal else 'no'})\n"
                    f"purely infinite simple: "
                    f"{'yes' if simp.purely_infinite_simple else 'no'}\n"
                )
                results.append((f"ktheory_{rep.name}", payload, text, None))
        elif task == "skew":
            if len(cocycles) != 1:
                raise SpecError(
                    "skew needs exactly one cocycle:[...] or zcocycle:[...] input"
                )
            cname, kind, values = cocycles[0]
            if kind == "finite":
                orders = _dual_orders(cfg["group"])
                spec = SkewSpec(cocycle=values, orders=orders)
                dual = " x ".join(f"Z/{o}" for o in orders)
            else:
                rank = len(values[0])
                spec = SkewSpec(
                    cocycle=values, orders=None, rank=rank, window=cfg["window"]
                )
                dual = f"Z^{rank} (window {cfg['window']})"
            sk = skew_product(spec)
            sources, sinks = sources_sinks(sk)
            payload = {
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
            text_lines = [
                f"skew product of the {len(values)}-edge rose by {cname} "
                f"over {dual}",
                f"vertices: {sk.n}, edges: {sk.edge_count()}, stubs: {len(sk.stubs)}",
                "A matrix (A[v][w] = edges w->v):",
            ]
            for row in sk.a:
                text_lines.append("  " + " ".join(str(x) for x in row))
            for s in sk.stubs:
                text_lines.append(f"  stub: {sk.names[s.src]} -> {s.target} x{s.count}")
            results.append(
                (
                    f"skew_{cname}",
                    payload,
                    "\n".join(text_lines) + "\n",
                    dot_export(sk, "skew"),
                )
            )
        elif task == "circle":
            if not freq_lists:
                raise SpecError("circle needs angles:[...] or freqs:[...] inputs")
            for name, kind, freqs in freq_lists:
                if kind == "angles":
                    rep = circle_analysis(CircleGraph(angles=freqs))
                    payload = {
                        "task": "circle",
                        "input": name,
                        "kind": "angles",
                        "orbit_group_order": rep.orbit_group_order,
                        "dense": rep.dense,
                    }
                    if rep.dense:
                        text = f"circle orbit for {name}: dense, infinite orbit group\n"
                    else:
                        text = (
                            f"circle orbit for {name}: finite orbit group of "
                            f"order {rep.orbit_group_order}\n"
                        )
                    results.append((f"circle_{name}", payload, text, None))
                else:
                    verdict = semigroup_r_check(freqs)
                    payload = {
                        "task": "circle",
                        "input": name,
                        "kind": "freqs",
                        "fills_line": verdict,
                    }
                    word = {True: "yes", False: "no", None: "undecided"}[verdict]
                    text = f"frequency semigroup {name} fills the line: {word}\n"
                    results.append((f"circle_{name}", payload, text, None))
        elif task == "export":
            t = need_table()
            if cfg["out"] is None:
                raise SpecError("export requires --out DIR")
            results.append(("table", {"task": "table"}, format_table(t), None))
            results.extend(_corr_result(rep, "egraph", cfg["convention"]) for rep in need_reps())
    return results


def _corr_result(rep, task: str, convention: str) -> tuple[str, dict, str, str]:
    g = build_e_graph(rep, convention) if task == "egraph" else build_d_graph(rep)
    return (
        f"{task}_{rep.name}",
        _corr_payload(g, rep.name, task),
        _corr_text(g, rep.name, task),
        dot_export(g, task),
    )


def _emit(cfg, results) -> None:
    fmt = cfg["format"]
    if cfg["out"] is None:
        if fmt == "json":
            doc = {
                "group": cfg["group"],
                "convention": cfg["convention"],
                "results": [payload for _, payload, _, _ in results],
            }
            print(json.dumps(doc, indent=2, sort_keys=True))
        elif fmt == "dot":
            print("".join(_body(*res, "dot") for res in results), end="")
        else:
            print("\n".join(text.rstrip("\n") for _, _, text, _ in results))
        return
    os.makedirs(cfg["out"], exist_ok=True)
    for stem, payload, text, dot in results:
        # export writes the table as text and every other result as json,
        # plus dot where it has one; the other tasks write --format
        if "export" not in cfg["tasks"]:
            exts = ["txt" if fmt == "text" else fmt]
        elif stem == "table":
            exts = ["txt"]
        else:
            exts = ["json"] if dot is None else ["json", "dot"]
        for ext in exts:
            body = _body(stem, payload, text, dot, ext)
            path = os.path.join(cfg["out"], f"{stem}.{ext}")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(body)
            print(f"wrote {path}")


def _body(stem: str, payload: dict, text: str, dot: str | None, ext: str) -> str:
    if ext == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if ext == "dot":
        if dot is None:
            raise SpecError(f"task output {stem} has no dot rendering")
        return dot
    return text


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _gather_settings(args)
        results = _run_tasks(cfg)
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
