"""Directed multigraphs and the operator-algebra bookkeeping attached to them.

The convention throughout: a MultiGraph stores its adjacency as an
IntMatrix with a[v, w] = number of edges from w to v, matching the incidence
matrices of the correspondence layer (B[k][i] counts edges i -> k), and
every reader walks its nonzero entries. Everything downstream reads the
matrix in that orientation; the K-theory and simplicity tests work on the
reversed graph, whose ordinary row-to-column adjacency is exactly the stored
matrix.

Also here: skew products of the one-vertex n-edge graph by a cocycle with
values in an abelian dual group (finite targets in full, free abelian targets
restricted to a finite window with boundary stubs), orbit analysis for circle
rotations given by rational or marked-irrational angles, and a conservative
three-valued test for when a frequency semigroup fills the real line.
"""

from __future__ import annotations

import itertools
import re
from collections import defaultdict
from collections.abc import Iterable
from math import lcm

from . import corrgraph, intlinalg
from .errors import SpecError, too_long
from .matrix import IntMatrix
from .record import record

__all__ = [
    "MultiGraph",
    "Stub",
    "from_corr",
    "sources_sinks",
    "ktheory_graph",
    "SimplicityReport",
    "simplicity_check",
    "SkewSpec",
    "MAX_SKEW_VERTICES",
    "skew_product",
    "Frequency",
    "parse_frequency",
    "CircleGraph",
    "CircleReport",
    "circle_analysis",
    "semigroup_r_check",
    "MAX_EDGE_COPIES",
    "cap_edge_copies",
    "dot_export",
]


@record
class Stub:
    """An edge whose far end fell outside a finite window."""

    src: int
    target: str
    count: int


@record
class MultiGraph:
    a: IntMatrix  # a[v, w] = number of edges w -> v
    names: tuple[str, ...]
    stubs: tuple[Stub, ...] = ()

    @property
    def n(self) -> int:
        return self.a.rows

    def __post_init__(self):
        if self.a.cols != self.a.rows:
            raise SpecError("adjacency matrix is not square")
        if len(self.names) != self.a.rows:
            raise SpecError("vertex name count does not match vertex count")
        if any(x < 0 for row in self.a.nz for _, x in row):
            raise SpecError("edge multiplicities must be nonnegative")


def from_corr(corr: corrgraph.CorrGraph) -> MultiGraph:
    return MultiGraph(a=corr.b_matrix, names=corr.names)


def sources_sinks(g: MultiGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Vertices receiving no edges (zero rows), emitting none (zero columns)."""
    emitting = {w for row in g.a.nz for w, _ in row}
    sources = tuple(v for v, row in enumerate(g.a.nz) if not row)
    sinks = tuple(v for v in range(g.n) if v not in emitting)
    return sources, sinks


def ktheory_graph(g: MultiGraph) -> intlinalg.KGroups:
    """K-groups of the algebra of the graph with all arrows reversed.

    The presentation matrix is (a^t - I) with the columns of the vertices
    that receive nothing (zero rows of a, the sinks after reversal) removed;
    K_0 is its cokernel and K_1 its kernel. Column j is row v of a less
    e_v, for v the j-th kept vertex. So the presentation's rows are filled
    from the nonzero entries of the kept rows of a, one column at a time,
    and the entry at (v, j) is lowered by 1: no dense matrix is built.
    """
    kept = [(v, row) for v, row in enumerate(g.a.nz) if row]
    rows: list[dict[int, int]] = [{} for _ in range(g.n)]
    for j, (v, row) in enumerate(kept):
        for i, x in row:
            rows[i][j] = x
        rows[v][j] = rows[v].get(j, 0) - 1
    nz = tuple(tuple((j, x) for j, x in row.items() if x) for row in rows)
    return intlinalg.coker_ker(IntMatrix(g.n, len(kept), nz))


@record
class SimplicityReport:
    every_cycle_has_exit: bool
    cofinal: bool
    simple: bool
    purely_infinite_simple: bool


def simplicity_check(g: MultiGraph) -> SimplicityReport:
    """Simplicity of the reversed-graph algebra.

    Standard finite-graph criteria (Kumjian, Pask and Raeburn, Pacific J.
    Math. 184 (1998)), applied to the reversed orientation used by
    ktheory_graph, where row v of the stored matrix lists the edges leaving
    v: simple needs every cycle to have an exit plus cofinality (every
    vertex reaches every cycle and every sink); purely infinite additionally
    needs every vertex to reach some cycle. All three are read off the
    strongly connected components, found in one iterative pass of Tarjan's
    algorithm (SIAM J. Comput. 1 (1972)). A component holds a cycle when it
    has more than one vertex or a loop, and holds a target (a vertex on a
    cycle, or a sink) when it holds a cycle or is a sink vertex.

    Some cycle has no exit exactly when some component holds a cycle and
    each of its vertices emits exactly one edge (counted with multiplicity).
    Such a component is a cycle, since each vertex's one edge stays inside
    it, and no edge leaves it. Conversely, each vertex of a cycle without an
    exit emits only its cycle edge, so the cycle is a whole component.

    Cofinal exactly when at most one component holds a target. If two did,
    every vertex would reach both, so each would reach the other and they
    would be one component. If one does, every vertex reaches it: a walk
    from any vertex ends at a sink or closes a cycle, so it meets a target.

    Every vertex reaches a cycle exactly when no vertex is a sink. A sink
    reaches no cycle; if every vertex emits an edge, a walk never stops, so
    it closes a cycle.
    """
    # the reversed graph: heads[v] lists the vertices v has edges to, and
    # degree[v] counts those edges with multiplicity
    heads = [[w for w, _ in row] for row in g.a.nz]
    degree = [sum(x for _, x in row) for row in g.a.nz]
    # low[v]: None until v is seen; then the least stack position known to be
    # reachable from v while v is on the stack; n once its component closed
    low: list[int | None] = [None] * g.n
    stack: list[int] = []
    exitless, targets = False, 0
    for root in range(g.n):
        if low[root] is not None:
            continue
        low[root] = 0  # the stack is empty between roots
        stack.append(root)
        path = [(root, 0, iter(heads[root]))]
        while path:
            v, pos, succ = path[-1]
            for w in succ:
                if low[w] is None:
                    low[w] = len(stack)
                    path.append((w, len(stack), iter(heads[w])))
                    stack.append(w)
                    break
                low[v] = min(low[v], low[w])
            else:
                path.pop()
                if low[v] == pos:  # v roots a component: v and the stack above it
                    component = stack[pos:]
                    del stack[pos:]
                    for w in component:
                        low[w] = g.n
                    cycle = len(component) > 1 or v in heads[v]
                    exitless |= cycle and all(degree[w] == 1 for w in component)
                    targets += cycle or not heads[v]
                if path:
                    u = path[-1][0]
                    low[u] = min(low[u], low[v])
    simple = not exitless and targets <= 1
    return SimplicityReport(
        every_cycle_has_exit=not exitless,
        cofinal=targets <= 1,
        simple=simple,
        purely_infinite_simple=simple and all(heads),
    )


# ---------------------------------------------------------------------------
# skew products


# A skew product's vertex count is checked against this before anything is
# allocated. The build holds only the nonzero counts, so the cap bounds the
# dense vertex-by-vertex A that the CLI prints in text and JSON.
MAX_SKEW_VERTICES = 2500


@record
class SkewSpec:
    """A cocycle on the one-vertex graph with n edges, one character each.

    `orders` lists the cyclic factor orders of a finite dual group; for a
    free abelian dual set orders to None and give the rank plus a window
    radius. Characters are integer tuples: exact factor representatives in
    the finite case, arbitrary lattice points in the free case.
    """

    cocycle: tuple[tuple[int, ...], ...]
    orders: tuple[int, ...] | None = None
    rank: int = 0
    window: int = 1


def _name_of(h: tuple[int, ...]) -> str:
    return "(" + ",".join(str(x) for x in h) + ")"


def _check_vertex_count(factors: Iterable[int]) -> None:
    """Raise SpecError if the product of the factors exceeds MAX_SKEW_VERTICES,
    stopping as soon as the running product does, so nothing large is built."""
    count = 1
    for f in factors:
        count *= f
        if count > MAX_SKEW_VERTICES:
            raise SpecError(
                f"skew product would have more than {MAX_SKEW_VERTICES} vertices; "
                "use a smaller window or dual group"
            )


def skew_product(spec: SkewSpec) -> MultiGraph:
    """Skew product of the one-vertex n-edge graph by the given cocycle.

    Vertices are the points of a box of integer tuples: the residues of a
    finite dual group, or the window of lattice points with sup-norm at most
    the window radius. Each point chi emits one edge chi -> chi + c per
    cocycle character c. In a finite dual the coordinates of chi + c wrap
    modulo the factor orders, so every edge lands in the box; an edge leaving
    a window is reported as a boundary stub, never dropped silently.
    """
    if not spec.cocycle:
        raise SpecError("cocycle must assign at least one character")
    orders = spec.orders
    if orders is not None:
        if any(o < 1 for o in orders):
            raise SpecError("finite dual group needs positive factor orders")
        _check_vertex_count(orders)
        axes = [range(o) for o in orders]
        dual = "x".join(f"Z/{o}" for o in orders)
    else:
        if spec.rank < 1:
            raise SpecError("free dual group needs positive rank")
        if spec.window < 1:
            raise SpecError("window radius must be at least 1")
        _check_vertex_count(itertools.repeat(2 * spec.window + 1, spec.rank))
        axes = [range(-spec.window, spec.window + 1)] * spec.rank
        dual = f"Z^{spec.rank}"
    for c in spec.cocycle:
        # a finite dual takes characters as exact residues; a window takes
        # any lattice point
        if len(c) != len(axes) or (
            orders is not None and any(x not in r for x, r in zip(c, axes))
        ):
            raise SpecError(f"character {_name_of(tuple(c))} outside dual group {dual}")

    elements = list(itertools.product(*axes))
    index = {h: t for t, h in enumerate(elements)}
    nn = len(elements)
    names = tuple(_name_of(h) for h in elements)
    # into[v] counts the edges into v by source, filled in increasing source
    # order, so its items are row v of the adjacency matrix
    into: list[defaultdict[int, int]] = [defaultdict(int) for _ in range(nn)]
    stub_counts: defaultdict[tuple[int, str], int] = defaultdict(int)
    for src, h in enumerate(elements):
        for c in spec.cocycle:
            h2 = tuple(x + y for x, y in zip(h, c))
            if orders is not None:
                h2 = tuple(x % o for x, o in zip(h2, orders))
            if h2 in index:
                into[index[h2]][src] += 1
            else:
                stub_counts[src, _name_of(h2)] += 1
    stubs = tuple(
        Stub(s, t, c)
        for (s, t), c in sorted(stub_counts.items())
    )
    a = IntMatrix(nn, nn, tuple(tuple(row.items()) for row in into))
    return MultiGraph(a=a, names=names, stubs=stubs)


# ---------------------------------------------------------------------------
# circle rotations and frequency semigroups


@record
class Frequency:
    """A real number q * theta, with theta either 1 (irr None) or a named
    irrational. Distinct names are treated as rationally independent."""

    value: Fraction
    irr: str | None = None


_FREQ_NUM_RE = re.compile(r"([+-]?\d+(?:\s*/\s*\d+)?)(?:\s*\*\s*([A-Za-z_]\w*))?")
_FREQ_SYM_RE = re.compile(r"([+-]?)([A-Za-z_]\w*)")


def parse_frequency(text: str) -> Frequency:
    """Parse `q`, `q*name` or `[-]name`, q an integer or a fraction.
    `fractions` is imported here, so the other graph tasks never load it."""
    from fractions import Fraction

    s = text.strip()
    m = _FREQ_NUM_RE.fullmatch(s)
    if m:
        try:
            value = Fraction(m.group(1).replace(" ", ""))
        except ZeroDivisionError as exc:
            raise SpecError(f"zero denominator in frequency {text!r}") from exc
        except ValueError as exc:
            raise too_long("frequency") from exc
        return Frequency(value, m.group(2))
    m = _FREQ_SYM_RE.fullmatch(s)
    if m:
        return Frequency(Fraction(-1 if m.group(1) == "-" else 1), m.group(2))
    raise SpecError(f"bad frequency {text!r}")


@record
class CircleGraph:
    """A finite family of circle rotations: edge k sends z to angles[k] * z.

    Angles are fractions of a full turn, exact rationals or marked
    irrationals; Fraction keeps the rational ones in lowest terms.
    """

    angles: tuple[Frequency, ...]


@record
class CircleReport:
    orbit_group_order: int | str  # group order, or "infinite"
    dense: bool


def circle_analysis(c: CircleGraph) -> CircleReport:
    """Orbit of a point of the circle under the rotation family.

    All angles rational: the angles generate a finite cyclic rotation group
    whose order is the lcm of the reduced denominators, and orbits are
    finite. Any marked irrational angle with a nonzero coefficient makes
    every orbit dense.
    """
    live = [f for f in c.angles if f.value != 0]
    if any(f.irr is not None for f in live):
        return CircleReport(orbit_group_order="infinite", dense=True)
    order = lcm(1, *[f.value.denominator for f in live])
    return CircleReport(orbit_group_order=order, dense=False)


def semigroup_r_check(freqs) -> bool | None:
    """Does the additive semigroup of the given frequencies fill the line?

    True and False are sound answers; None means the simple criteria here do
    not decide the question.
    """
    freqs = list(freqs)
    if not freqs:
        raise SpecError("no frequencies given")
    live = [f for f in freqs if f.value != 0]
    if not live:
        return False
    if all(f.value > 0 for f in live) or all(f.value < 0 for f in live):
        return False
    if len({f.irr for f in live}) == 1:
        return False
    if len(live) == 2 and sum(1 for f in live if f.irr is not None) == 1:
        return True
    return None


# ---------------------------------------------------------------------------
# rendering


# JSON and dot output list one entry per edge copy, and a representation's
# multiplicities (up to MAX_REP_DIM) set the copy counts, so the listing is
# capped before it is built.
MAX_EDGE_COPIES = 10**6


def cap_edge_copies(obj: corrgraph.CorrGraph | MultiGraph) -> int:
    """The number of edge copies in obj; SpecError above MAX_EDGE_COPIES."""
    counts = obj.a if isinstance(obj, MultiGraph) else obj.b_matrix
    copies = sum(x for row in counts.nz for _, x in row)
    if copies > MAX_EDGE_COPIES:
        raise SpecError(
            f"graph has {copies:,} edge copies; listing them is capped at {MAX_EDGE_COPIES:,}"
        )
    return copies


def dot_export(obj: corrgraph.CorrGraph | MultiGraph, graph_name: str = "g") -> str:
    """Graphviz source, deterministic line order, arrows in drawn orientation.
    One line per edge copy, so SpecError above MAX_EDGE_COPIES copies."""
    cap_edge_copies(obj)
    lines = [f"digraph {graph_name} {{", "  rankdir=LR;"]
    lines += [f'  v{i} [label="{name}"];' for i, name in enumerate(obj.names)]
    if isinstance(obj, MultiGraph):
        for w, v, count in sorted((w, v, x) for v, row in enumerate(obj.a.nz) for w, x in row):
            for _ in range(count):
                lines.append(f"  v{w} -> v{v};")
        for t, s in enumerate(obj.stubs):
            lines.append(f'  stub{t} [label="{s.target}", shape=plaintext];')
            lines.append(f'  v{s.src} -> stub{t} [style=dashed, label="{s.count}"];')
    else:
        for e in obj.edges:
            for _ in range(e.count):
                lines.append(f'  v{e.src} -> v{e.dst} [label="M_{e.rows}x{e.cols}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
