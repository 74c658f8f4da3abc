"""Operations that only the tests use, kept out of the package so that no run
of it compiles them: a matrix from dense rows of a given shape, integer
matrix products, transposes and column deletion, a multigraph from dense
adjacency rows, the dense skew product, sources and sinks and dot listing
that the graph layer once used (kept as oracles), the abelian test on a
group's generators, powers and orders of a group element, a cyclotomic
number from its coefficient list, and the dense F_p eigenspace split that
the character table once ran (kept as an oracle for the sparse one)."""

import itertools
from fractions import Fraction
from math import lcm
from operator import mul

from repcorr.cyclo import Cyclo
from repcorr.errors import SpecError, VerificationError
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


# The dense F_p split as `chartable` ran it before its vectors became sparse:
# `_mat_vec`, `_kernel_mod` and `_split_piece`, kept verbatim (renamed
# `_dense_*`) as the oracle for the sparse split.


def _dense_mat_vec(m, v: list[int], p: int) -> list[int]:
    """m v mod p, reading only the nonzero entries of v."""
    nz = [(k, x) for k, x in enumerate(v) if x]
    return [sum(row[k] * x for k, x in nz) % p for row in m]


def _dense_kernel_mod(m: list[list[int]], p: int) -> list[list[int]]:
    """Basis of {x : m x = 0} over F_p, one vector per free column.

    Forward elimination brings m to row echelon form. Each free column then
    gets one vector, found by back-substitution with that free variable 1
    and the others 0: the basis read off the reduced echelon form, which
    depends only on the kernel. Every variable above that free column is 0
    (the later free ones by choice, the later pivot ones by induction), so
    each pivot row is read only up to it. A matrix of full column rank costs
    one forward pass.
    """
    rows = [[x % p for x in row] for row in m]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        inv = pow(rows[sel][c], -1, p)
        piv = [x * inv % p for x in rows[sel]]
        rows[sel], rows[r] = rows[r], piv
        pivots.append(c)
        if c + 1 == ncols:
            break  # no column is left to clear below the pivot
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], piv)]
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        vec = [0] * ncols
        vec[fc] = 1
        for row, pc in reversed(list(zip(rows, pivots))):
            if pc < fc:
                vec[pc] = -sum(map(mul, row[pc + 1:fc + 1], vec[pc + 1:fc + 1])) % p
        basis.append(vec)
    return basis


def _dense_split_piece(pivots: list[int], basis: list[list[int]], amat,
                       p: int) -> list[tuple[list[int], list[list[int]]]]:
    """Split the piece span(basis) into the eigenspaces of amat it contains.

    The basis is reduced at `pivots`: b_t[pivots[s]] = delta_ts. So the
    coordinates of a vector v of the span are v read at the pivots, and the
    k x k matrix C of amat on the piece has column j equal to amat b_j read
    there. Checking amat b_j = sum_t C[t][j] b_t at every other coordinate
    proves the piece invariant under amat.

    The eigenvalue candidates are the roots in F_p of the annihilating
    polynomial of the functional f(v) = v[0] under C: the first kernel
    vector of the matrix with columns f, C^t f, ..., (C^t)^k f. Every
    central character is 1 on the identity class, so f is nonzero on each
    eigenvector omega of the piece, and P(C^t) f = 0 gives
    0 = f(P(C) omega) = P(lam) f(omega), hence P(lam) = 0 for every
    eigenvalue lam of C. The kernel of C - lam I, for each root lam, lifted
    through the basis, is one new piece; `_dense_kernel_mod` returns a
    vector per free column s with 1 at s and 0 at the other free columns
    (and at every column above s), so the lifted vectors are reduced at the
    pivots of their free columns. Eigenvectors for distinct eigenvalues are
    independent, so the kernels fill at most the piece. They fall short only
    if C is not diagonalizable over F_p or some eigenvector is 0 at the
    identity class; neither can give a table, so a shortfall raises.
    """
    k = len(basis)
    pivot_set = set(pivots)
    images = [_dense_mat_vec(amat, b, p) for b in basis]
    cols = [[im[c] for c in pivots] for im in images]
    rest = [c for c in range(len(basis[0])) if c not in pivot_set]
    basis_at = [[b[c] for b in basis] for c in rest]
    for im, col in zip(images, cols):
        if any((im[c] - sum(map(mul, col, row))) % p for c, row in zip(rest, basis_at)):
            raise VerificationError("class matrix does not preserve an eigenspace")
    krylov = [[b[0] for b in basis]]
    for _ in range(k):
        krylov.append([sum(map(mul, col, krylov[-1])) % p for col in cols])
    poly = _dense_kernel_mod(list(zip(*krylov)), p)[0]
    crows = [list(row) for row in zip(*cols)]
    by_coord = list(zip(*basis))
    pieces = []
    for lam in range(p):
        acc = 0
        for c in reversed(poly):
            acc = (acc * lam + c) % p
        if acc:
            continue
        for t in range(k):
            crows[t][t] -= lam
        kern = _dense_kernel_mod(crows, p)
        for t in range(k):
            crows[t][t] += lam
        pieces.append(([pivots[max(s for s, c in enumerate(w) if c)] for w in kern],
                       [[sum(map(mul, w, at)) % p for at in by_coord] for w in kern]))
    if sum(len(b) for _, b in pieces) != k:
        raise VerificationError("class matrix failed to diagonalize over F_p")
    return pieces
