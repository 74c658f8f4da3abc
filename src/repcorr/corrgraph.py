"""Labelled graphs attached to a representation's bimodule.

Fix a finite group with irreducible blocks of sizes n_0..n_{r-1} and a
representation with multiplicity vector m. The bimodule carried by the
representation splits into rectangular matrix blocks between the algebra
summands, and the graph records one vertex per summand plus the block data
as labelled parallel edges. Two bookkeeping conventions are supported:

* ``paper-min``: an edge from vertex i to vertex k appears m_k * min(n_i,
  n_k) times carrying a max(n_i, n_k)-by-n_i block.
* ``module-count``: the edge appears m_k * n_i times carrying an n_k-by-n_i
  block, which is the count of simple bimodule summands.

Both conventions book the same total dimension. The adjacency matrix is kept
in the B[k][i] = (number of edges i -> k) orientation throughout, and a graph
is that matrix: its edges, one per nonzero count, and their block labels are
derived from B and the block sizes by the convention's label rule.
`build_e_graph` checks the dimension bookkeeping on B itself, so the edge
records are built only by the outputs that list them.

`build_d_graph` records the plain tensor-decomposition graph instead: B[k][j]
counts the k-th irreducible inside (representation) tensor (j-th
irreducible).

`pimsner_matrices` carries the K-theory data of the bimodule itself: the
induced matrix on classes of block projections, the block ideal where the
left action is injective and compact, and the resulting reduced matrix whose
cokernel and kernel are K_0 and K_1.
"""

from __future__ import annotations

from functools import cached_property
from math import prod

from . import intlinalg, reps
from .errors import SpecError, VerificationError
from .matrix import IntMatrix
from .record import record

__all__ = [
    "CorrEdge",
    "CorrGraph",
    "CONVENTIONS",
    "build_e_graph",
    "build_d_graph",
    "PimsnerData",
    "pimsner_matrices",
    "ktheory_corr",
]

CONVENTIONS = ("paper-min", "module-count")

# The block an edge i -> k carries, as (rows, cols) from the block sizes
# (n_i, n_k), per convention: the graph's one labelling rule.
_LABELS = {
    "paper-min": lambda ni, nk: (max(ni, nk), ni),
    "module-count": lambda ni, nk: (nk, ni),
    "mckay": lambda ni, nk: (nk, ni),
}


@record
class CorrEdge:
    src: int
    dst: int
    rows: int
    cols: int
    count: int


@record
class CorrGraph:
    """Vertices are algebra summands; b_matrix counts the edges, and each
    edge carries the rectangular block its convention's label rule gives."""

    dims: tuple[int, ...]
    b_matrix: IntMatrix  # b[k][i] = number of edges i -> k
    convention: str

    @property
    def names(self) -> tuple[str, ...]:
        """Vertex i is named pi{i}:M{n_i}, after its algebra summand."""
        return tuple(f"pi{i}:M{d}" for i, d in enumerate(self.dims))

    @cached_property
    def edges(self) -> tuple[CorrEdge, ...]:
        """One edge per nonzero count of b_matrix, in (src, dst) order."""
        label, dims, b = _LABELS[self.convention], self.dims, self.b_matrix.entries
        return tuple(
            CorrEdge(i, k, *label(ni, dims[k]), b[k][i])
            for i, ni in enumerate(dims)
            for k in range(len(dims))
            if b[k][i]
        )


def build_e_graph(rep: reps.Rep, convention: str = "paper-min") -> CorrGraph:
    """Graph of the bimodule attached to a representation."""
    if convention not in CONVENTIONS:
        raise SpecError(
            f"unknown convention {convention!r}; pick one of {CONVENTIONS}"
        )
    dims = rep.table.dims
    per_unit = min if convention == "paper-min" else (lambda ni, nk: ni)  # edges i -> k per m_k
    b = [[mk * per_unit(ni, nk) for ni in dims] for mk, nk in zip(rep.mults, dims)]
    label = _LABELS[convention]
    for i, ni in enumerate(dims):
        # the edges i -> k book B[k][i] blocks of rows x cols each
        x = sum(row[i] * prod(label(ni, nk)) for row, nk in zip(b, dims))
        if x != rep.dim * ni * ni:
            raise VerificationError(
                f"dimension bookkeeping failed at vertex {i}: {x} != {rep.dim * ni ** 2}"
            )
    return CorrGraph(dims=dims, b_matrix=IntMatrix.from_rows(b), convention=convention)


def build_d_graph(rep: reps.Rep) -> CorrGraph:
    """Tensor-decomposition graph: B[k][j] = multiplicity of block k in
    (rep) tensor (irreducible j)."""
    if rep.dim == 0:
        raise SpecError("representation has dimension zero, no graph to build")
    table = rep.table
    chi = rep.character()
    cols = [reps.decompose(table, [x * y for x, y in zip(chi, row)]) for row in table.values]
    b = IntMatrix.from_rows(list(zip(*cols)))
    return CorrGraph(dims=table.dims, b_matrix=b, convention="mckay")


@record
class PimsnerData:
    m_matrix: IntMatrix  # action on classes of block projections
    j_cols: tuple[int, ...]  # blocks where the left action is injective
    reduced: IntMatrix  # (I - M) restricted to those columns


def pimsner_matrices(rep: reps.Rep) -> PimsnerData:
    dims = rep.table.dims
    r = len(dims)
    m = IntMatrix.from_rows([[rep.mults[i] * dims[j] for i in range(r)] for j in range(r)])
    j_cols = tuple(i for i in range(r) if rep.mults[i] > 0)
    reduced = [[(i == j) - rep.mults[i] * dims[j] for i in j_cols] for j in range(r)]
    return PimsnerData(m_matrix=m, j_cols=j_cols, reduced=IntMatrix.from_rows(reduced))


def ktheory_corr(rep: reps.Rep) -> intlinalg.KGroups:
    """K-groups computed straight from the bimodule data.

    The zero representation is legal: no block acts, the reduced matrix has
    no columns, and K_0 is free on every vertex.
    """
    return intlinalg.coker_ker(pimsner_matrices(rep).reduced)
