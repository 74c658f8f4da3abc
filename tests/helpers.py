"""Operations that only the tests use, kept out of the package so that no run
of it compiles them: a matrix from dense rows of a given shape, integer
matrix products, transposes and column deletion, a multigraph from dense
adjacency rows, the dense skew product, sources and sinks and dot listing
that the graph layer once used (kept as oracles), the abelian test on a
group's generators, powers and orders of a group element, and a cyclotomic
number from its coefficient list."""

import itertools
from fractions import Fraction
from math import lcm
from operator import mul

from repcorr.cyclo import Cyclo
from repcorr.errors import SpecError
from repcorr.graphs import MultiGraph, SkewSpec, Stub
from repcorr.groups import Group
from repcorr.matrix import IntMatrix


def dense_matrix(rows: int, cols: int, entries) -> IntMatrix:
    """The rows x cols matrix with the dense rows entries. Unlike
    IntMatrix.from_rows, it keeps cols when there are no rows."""
    nz = tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in entries)
    return IntMatrix(rows, cols, nz)


def matmul(first: IntMatrix, *rest: IntMatrix) -> IntMatrix:
    """The product first * rest[0] * rest[1] * ..."""
    for other in rest:
        if first.cols != other.rows:
            raise SpecError(
                f"cannot multiply {first.rows}x{first.cols} by {other.rows}x{other.cols}"
            )
        cols = tuple(zip(*other.entries)) or ((),) * other.cols
        out = tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in first.entries)
        first = dense_matrix(first.rows, other.cols, out)
    return first


def transpose(a: IntMatrix) -> IntMatrix:
    return dense_matrix(
        a.cols, a.rows, tuple(tuple(a.entries[i][j] for i in range(a.rows)) for j in range(a.cols))
    )


def delete_columns(a: IntMatrix, drop: set[int]) -> IntMatrix:
    keep = [j for j in range(a.cols) if j not in drop]
    return dense_matrix(a.rows, len(keep), tuple(tuple(row[j] for j in keep) for row in a.entries))


def graph(rows, names=None, stubs=()) -> MultiGraph:
    """The multigraph with adjacency rows[v][w] = number of edges w -> v,
    its vertices named v0, v1, ... unless names are given. The shape is read
    off rows, so ragged or non-square rows reach MultiGraph's checks."""
    n = len(rows)
    names = tuple(f"v{i}" for i in range(n)) if names is None else tuple(names)
    return MultiGraph(dense_matrix(n, len(rows[0]) if rows else 0, rows), names, tuple(stubs))


def dense_skew_product(spec: SkewSpec) -> tuple[tuple[tuple[int, ...], ...], tuple[Stub, ...]]:
    """The dense adjacency rows and the stubs of skew_product(spec) for a
    valid spec, built as skew_product once built them: one n x n list of
    counts, one increment per edge, frozen row by row."""
    if spec.orders is not None:
        axes = [range(o) for o in spec.orders]
    else:
        axes = [range(-spec.window, spec.window + 1)] * spec.rank
    elements = list(itertools.product(*axes))
    index = {h: t for t, h in enumerate(elements)}
    n = len(elements)
    a = [[0] * n for _ in range(n)]
    stub_counts: dict[tuple[int, str], int] = {}
    for src, h in enumerate(elements):
        for c in spec.cocycle:
            h2 = tuple(x + y for x, y in zip(h, c))
            if spec.orders is not None:
                h2 = tuple(x % o for x, o in zip(h2, spec.orders))
            if h2 in index:
                a[index[h2]][src] += 1
            else:
                key = (src, "(" + ",".join(str(x) for x in h2) + ")")
                stub_counts[key] = stub_counts.get(key, 0) + 1
    stubs = tuple(Stub(s, t, c) for (s, t), c in sorted(stub_counts.items()))
    return tuple(tuple(row) for row in a), stubs


def dense_sources_sinks(rows) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Zero rows and zero columns of the dense adjacency rows."""
    sources = tuple(v for v, row in enumerate(rows) if not any(row))
    sinks = tuple(v for v, col in enumerate(zip(*rows)) if not any(col))
    return sources, sinks


def dense_dot(rows, names, stubs, graph_name: str = "g") -> str:
    """dot_export of a multigraph read off its dense adjacency rows: one
    arrow per edge copy, by source, then target."""
    n = len(rows)
    lines = [f"digraph {graph_name} {{", "  rankdir=LR;"]
    lines += [f'  v{i} [label="{name}"];' for i, name in enumerate(names)]
    for w in range(n):
        for v in range(n):
            for _ in range(rows[v][w]):
                lines.append(f"  v{w} -> v{v};")
    for t, s in enumerate(stubs):
        lines.append(f'  stub{t} [label="{s.target}", shape=plaintext];')
        lines.append(f'  v{s.src} -> stub{t} [style=dashed, label="{s.count}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def is_abelian(g: Group) -> bool:
    """True when the generators commute pairwise, which holds exactly when
    the group they generate is abelian."""
    gens = g.generators
    return all(g.mul(a, b) == g.mul(b, a) for a in gens for b in gens)


def power(g: Group, a: int, k: int) -> int:
    """a^k in g, by k multiplications from the identity."""
    x = 0
    for _ in range(k):
        x = g.mul(x, a)
    return x


def element_order(g: Group, a: int) -> int:
    """The least k >= 1 with a^k the identity, by k - 1 multiplications."""
    k, x = 1, a
    while x != 0:
        x = g.mul(x, a)
        k += 1
    return k


def cyclo_from_coeffs(conductor: int, coeffs: list[Fraction | int]) -> Cyclo:
    """sum_k coeffs[k] * zeta_conductor^k."""
    coeffs = [Fraction(c) for c in coeffs]
    den = lcm(*(c.denominator for c in coeffs))
    return Cyclo._from_terms(conductor, ((k, c.numerator * (den // c.denominator))
                                         for k, c in enumerate(coeffs) if c), den)
