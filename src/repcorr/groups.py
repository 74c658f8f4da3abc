"""Finite groups as element lists with multiplication on demand.

Groups are built from a small spec grammar:

    cyclic:<n> | product:[n1,n2,...] | dihedral:<n> | symmetric:<n>
    | perm:[(1 2 3)(4 5), ...]

Element 0 is always the identity; the remaining elements are ordered by
breadth-first closure over the generators in spec order, multiplying on the
right. That ordering is part of the contract: class indices, character table
columns and graph vertex numbering all inherit it, and `reps.perm_rep` reads
each element's discovery edge off it.
"""

from __future__ import annotations

import os
import re
from math import lcm
from operator import itemgetter
from typing import Any, Callable, Sequence

from .errors import SpecError
from .record import record

__all__ = [
    "Group",
    "ClassData",
    "DEFAULT_ORDER_CAP",
    "MAX_PERM_POINTS",
    "construct_group",
    "cyclic_factors",
    "conjugacy",
    "class_mult_coeffs",
    "parse_cycles",
]

DEFAULT_ORDER_CAP = 5040
ORDER_CAP_ENV = "REPCORR_ORDER_CAP"
# A permutation on N points is allocated as an N-tuple, so the largest point
# is checked against this before anything is built.
MAX_PERM_POINTS = 1000


@record(norepr=("elements", "index", "op", "render"), nocompare=("index", "op", "render"))
class Group:
    spec: str
    order: int
    inv: tuple[int, ...]
    generators: tuple[int, ...]
    elements: tuple[Any, ...]
    # element -> index, the closing operation and the family's labelling
    # function; all three are determined by `elements` and the spec, so they
    # take no part in equality or hashing
    index: dict[Any, int]
    op: Callable[[Any, Any], Any]
    render: Callable[[Any], str]

    def mul(self, a: int, b: int) -> int:
        return self.index[self.op(self.elements[a], self.elements[b])]

    def label(self, a: int) -> str:
        """Element a in the family's notation, e.g. `(1 2 3)` or `s*r^2`."""
        return self.render(self.elements[a])


@record
class ClassData:
    classes: tuple[tuple[int, ...], ...]
    sizes: tuple[int, ...]
    representatives: tuple[int, ...]
    inverse_class: tuple[int, ...]
    class_of: tuple[int, ...]
    exponent: int

    @property
    def count(self) -> int:
        return len(self.classes)


def _order_cap() -> int:
    raw = os.environ.get(ORDER_CAP_ENV)
    if raw is None:
        return DEFAULT_ORDER_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise SpecError(f"{ORDER_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise SpecError(f"{ORDER_CAP_ENV} must be positive")
    return cap


def parse_cycles(text: str) -> tuple[int, ...]:
    """Parse disjoint-or-not cycle notation `(1 2 3)(4 5)` into a permutation
    tuple on 0-based points. `()` is the identity. Points are 1-based in the
    grammar. Cycles are applied right-to-left (rightmost acts first)."""
    text = text.strip()
    if not re.fullmatch(r"(\(\s*(\d+(\s+\d+)*)?\s*\))+", text):
        raise SpecError(f"bad cycle notation {text!r}")
    cycles = []
    for body in re.findall(r"\(([^()]*)\)", text):
        try:
            pts = [int(tok) for tok in body.split()]
        except ValueError as exc:  # a point with more digits than int() reads
            raise SpecError(f"cycle point beyond the cap of {MAX_PERM_POINTS}: {text!r}") from exc
        if any(p < 1 for p in pts):
            raise SpecError(f"cycle points are 1-based: {text!r}")
        if len(set(pts)) != len(pts):
            raise SpecError(f"repeated point inside a cycle: {text!r}")
        cycles.append([p - 1 for p in pts])
    n = max((p for c in cycles for p in c), default=-1) + 1
    if n > MAX_PERM_POINTS:
        raise SpecError(f"permutation on {n} points exceeds the cap of {MAX_PERM_POINTS}: {text!r}")
    perm = list(range(n))
    for cyc in cycles:
        if len(cyc) < 2:
            continue
        c = list(range(n))
        for i, p in enumerate(cyc):
            c[p] = cyc[(i + 1) % len(cyc)]
        perm = [perm[c[x]] for x in range(n)]
    return tuple(perm)


def _cycle_string(perm: tuple[int, ...]) -> str:
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        out.append("(" + " ".join(str(p + 1) for p in cyc) + ")")
    return "".join(out) if out else "()"


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # (p . q)(x) = p(q(x)): q acts first, matching left actions on points.
    # itemgetter of one index returns a scalar and of none raises, but on 0
    # or 1 points the only permutation is the identity.
    return itemgetter(*q)(p) if len(q) > 1 else tuple(p)


def _closure(identity, gens, mul, render, spec: str, cap: int) -> Group:
    elements = [identity]
    index = {identity: 0}
    # (parent, generator position) of each element after the identity
    parents: list[tuple[int, int]] = []
    head = 0
    while head < len(elements):
        x = elements[head]
        for gpos, g in enumerate(gens):
            y = mul(x, g)
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
                parents.append((head, gpos))
                if len(elements) > cap:
                    raise SpecError(
                        f"group order exceeds cap {cap} while closing {spec!r}"
                    )
        head += 1
    # x = p*g gives x^-1 = g^-1 * p^-1, and parents come before children
    gen_inv = []
    for g in gens:
        prev, y = identity, g
        while y != identity:
            prev, y = y, mul(y, g)
        gen_inv.append(prev)
    inv_elements = [identity]
    for p, t in parents:
        inv_elements.append(mul(gen_inv[t], inv_elements[p]))
    return Group(
        spec=spec,
        order=len(elements),
        inv=tuple(index[e] for e in inv_elements),
        generators=tuple(index[g] for g in gens),
        elements=tuple(elements),
        index=index,
        op=mul,
        render=render,
    )


_GROUP_RE = re.compile(r"^\s*(cyclic|product|dihedral|symmetric|perm)\s*:\s*(.+?)\s*$")


def _family(spec: str) -> tuple[str, str]:
    m = _GROUP_RE.match(spec)
    if not m:
        raise SpecError(f"bad group spec {spec!r}")
    return m.group(1), m.group(2)


def cyclic_factors(spec: str) -> tuple[int, ...] | None:
    """The factor orders of a `cyclic:n` or `product:[n1,...]` spec, or None
    for the other families. Raises SpecError for a malformed spec."""
    family, arg = _family(spec)
    if family == "cyclic":
        return (_positive_int(arg, spec),)
    if family == "product":
        factors = _int_list(arg, spec)
        if not factors or any(f < 1 for f in factors):
            raise SpecError(f"product factors must be positive: {spec!r}")
        return tuple(factors)
    return None


def construct_group(spec: str) -> Group:
    family, arg = _family(spec)
    cap = _order_cap()

    if family == "cyclic":
        (n,) = cyclic_factors(spec)
        if n > cap:
            raise SpecError(f"group order {n} exceeds cap {cap}")
        return _closure(0, [1 % n], lambda a, b: (a + b) % n, str, spec, cap)

    if family == "product":
        factors = cyclic_factors(spec)
        gens = []
        for i in range(len(factors)):
            g = [0] * len(factors)
            g[i] = 1 % factors[i]
            gens.append(tuple(g))

        def pmul(a, b):
            return tuple((x + y) % f for x, y, f in zip(a, b, factors))

        return _closure(
            tuple([0] * len(factors)),
            gens,
            pmul,
            lambda e: "(" + ",".join(str(x) for x in e) + ")",
            spec,
            cap,
        )

    if family == "dihedral":
        n = _positive_int(arg, spec)
        if n < 2:
            raise SpecError(f"dihedral:<n> needs n >= 2, got {n}")

        def dmul(a, b):
            k1, f1 = a
            k2, f2 = b
            return ((k1 + (k2 if f1 == 0 else -k2)) % n, f1 ^ f2)

        def dlabel(e):
            k, f = e
            rot = "e" if k == 0 else ("r" if k == 1 else f"r^{k}")
            return rot if f == 0 else ("s" if k == 0 else f"s*{rot}")

        return _closure((0, 0), [(1, 0), (0, 1)], dmul, dlabel, spec, cap)

    if family == "symmetric":
        n = _positive_int(arg, spec)
        if not 2 <= n <= 6:
            raise SpecError(f"symmetric:<n> supports 2 <= n <= 6, got {n}")
        transposition = tuple([1, 0] + list(range(2, n)))
        ncycle = tuple(list(range(1, n)) + [0])
        gens = [transposition] if n == 2 else [transposition, ncycle]
    else:  # perm:[(1 2 3)(4 5), ...]
        gen_texts = _bracket_items(arg, spec)
        if not gen_texts:
            raise SpecError(f"perm spec needs at least one generator: {spec!r}")
        raw = [parse_cycles(t) for t in gen_texts]
        n = max(1, *(len(p) for p in raw))
        gens = [p + tuple(range(len(p), n)) for p in raw]
    return _closure(tuple(range(n)), gens, _compose, _cycle_string, spec, cap)


def _positive_int(arg: str, spec: str) -> int:
    try:
        n = int(arg)
    except ValueError as exc:
        raise SpecError(f"bad integer in {spec!r}") from exc
    if n < 1:
        raise SpecError(f"need a positive integer in {spec!r}")
    return n


def _int_list(arg: str, spec: str) -> list[int]:
    body = arg.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise SpecError(f"expected a bracketed list in {spec!r}")
    inner = body[1:-1].strip()
    if not inner:
        return []
    try:
        return [int(tok.strip()) for tok in inner.split(",")]
    except ValueError as exc:
        raise SpecError(f"bad integer list in {spec!r}") from exc


def _bracket_items(arg: str, spec: str) -> list[str]:
    """The top-level comma-separated items of the bracketed list `[a, b, ...]`."""
    arg = arg.strip()
    if not (arg.startswith("[") and arg.endswith("]")):
        raise SpecError(f"expected a bracketed list in {spec!r}")
    return _split_top_level(arg[1:-1], spec)


def _split_top_level(text: str, spec: str) -> list[str]:
    """Split on commas that are not nested inside (), [] or {}.

    Blank text is the empty list; an empty item anywhere else, a trailing
    comma included, raises SpecError."""
    if not text.strip():
        return []
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i].strip())
            start = i + 1
    parts.append(text[start:].strip())
    if not all(parts):
        raise SpecError(f"empty list item in {spec!r}")
    return parts


def _power_path(g: Group, class_of: Sequence[int], x: int) -> list[int]:
    """The classes of x^0, x^1, ..., x^(o-1), o the order of x."""
    path, y = [], 0
    while True:
        path.append(class_of[y])
        y = g.mul(y, x)
        if y == 0:
            return path


def conjugacy(g: Group) -> ClassData:
    """Conjugacy classes, ordered by smallest member index (so class 0 is
    always {identity}), plus inverse-class map and the group exponent.

    Each class is the orbit of its smallest member under conjugation by the
    generators: conjugating by g^-1 is a power of conjugating by g, so that
    orbit is closed under conjugation by the whole group.

    The exponent e is the lcm of the element orders, and conjugates share an
    order, so e is the lcm over the representatives. It is found by walking
    the powers of a representative only when its class was met by no earlier
    walk, and taking the lcm of the walk lengths. A skipped class was met at
    some step k of the walk over x's powers, so it holds x^k, a conjugate of
    its representative; the representative's order is that of x^k, which
    divides o(x) and so adds nothing to the lcm. On cyclic:n only the
    identity and the generator are walked, n + 1 products in all."""
    n = g.order
    gens = [(s, g.inv[s]) for s in g.generators]
    class_of = [-1] * n
    classes: list[tuple[int, ...]] = []
    for a in range(n):
        if class_of[a] >= 0:
            continue
        idx = len(classes)
        class_of[a] = idx
        orbit = [a]
        for y in orbit:
            for s, s_inv in gens:
                z = g.mul(g.mul(s_inv, y), s)
                if class_of[z] < 0:
                    class_of[z] = idx
                    orbit.append(z)
        classes.append(tuple(sorted(orbit)))
    reps = tuple(c[0] for c in classes)
    inverse_class = tuple(class_of[g.inv[r]] for r in reps)
    exponent, met = 1, set()
    for r in reps:
        if class_of[r] not in met:
            path = _power_path(g, class_of, r)
            met.update(path)
            exponent = lcm(exponent, len(path))
    return ClassData(
        classes=tuple(classes),
        sizes=tuple(len(c) for c in classes),
        representatives=reps,
        inverse_class=inverse_class,
        class_of=tuple(class_of),
        exponent=exponent,
    )


def class_mult_coeffs(g: Group, cd: ClassData, i: int) -> tuple[tuple[int, ...], ...]:
    """The matrix M_i with M_i[j][k] = a_ijk, the number of pairs (x, y) in
    C_i x C_j with x*y equal to the representative g_k of C_k.

    Each x fixes y = x^-1 * g_k, so a_ijk = #{x in C_i : x^-1 * g_k in C_j}:
    one pass over C_i fills every (j, k) with |C_i| * r products."""
    if not 0 <= i < cd.count:
        raise SpecError(f"class index out of range: {i}")
    class_of = cd.class_of
    counts = [[0] * cd.count for _ in range(cd.count)]
    for x in cd.classes[i]:
        x_inv = g.inv[x]
        for k, gk in enumerate(cd.representatives):
            counts[class_of[g.mul(x_inv, gk)]][k] += 1
    return tuple(tuple(row) for row in counts)
