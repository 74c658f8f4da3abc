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
in the B[k][i] = (number of edges i -> k) orientation throughout.

`build_d_graph` records the plain tensor-decomposition graph instead: B[k][j]
counts the k-th irreducible inside (representation) tensor (j-th
irreducible).

`pimsner_matrices` carries the K-theory data of the bimodule itself: the
induced matrix on classes of block projections, the block ideal where the
left action is injective and compact, and the resulting reduced matrix whose
cokernel and kernel are K_0 and K_1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SpecError, VerificationError
from .intlinalg import IntMatrix, KGroups, coker_ker
from .reps import Rep, decompose

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


@dataclass(frozen=True)
class CorrEdge:
    src: int
    dst: int
    rows: int
    cols: int
    count: int


@dataclass(frozen=True)
class CorrGraph:
    """Vertices are algebra summands; edges carry rectangular block labels."""

    dims: tuple[int, ...]
    edges: tuple[CorrEdge, ...]
    b_matrix: IntMatrix  # b[k][i] = number of edges i -> k
    convention: str

    @property
    def vertex_count(self) -> int:
        return len(self.dims)


def build_e_graph(rep: Rep, convention: str = "paper-min") -> CorrGraph:
    """Graph of the bimodule attached to a representation."""
    if convention not in CONVENTIONS:
        raise SpecError(
            f"unknown convention {convention!r}; pick one of {CONVENTIONS}"
        )
    dims = rep.table.dims
    r = len(dims)
    edges = []
    b = [[0] * r for _ in range(r)]
    for i in range(r):
        for k in range(r):
            mk = rep.mults[k]
            if not mk:
                continue
            if convention == "paper-min":
                count = mk * min(dims[i], dims[k])
                rows, cols = max(dims[i], dims[k]), dims[i]
            else:
                count = mk * dims[i]
                rows, cols = dims[k], dims[i]
            b[k][i] = count
            edges.append(CorrEdge(src=i, dst=k, rows=rows, cols=cols, count=count))
    for i in range(r):
        booked = sum(e.count * e.rows * e.cols for e in edges if e.src == i)
        if booked != rep.dim * dims[i] * dims[i]:
            raise VerificationError(
                f"dimension bookkeeping failed at vertex {i}: "
                f"{booked} != {rep.dim * dims[i] ** 2}"
            )
    return CorrGraph(
        dims=dims,
        edges=tuple(sorted(edges, key=lambda e: (e.src, e.dst))),
        b_matrix=IntMatrix.from_rows(b),
        convention=convention,
    )


def build_d_graph(rep: Rep) -> CorrGraph:
    """Tensor-decomposition graph: B[k][j] = multiplicity of block k in
    (rep) tensor (irreducible j)."""
    if rep.dim == 0:
        raise SpecError("representation has dimension zero, no graph to build")
    table = rep.table
    dims = table.dims
    r = len(dims)
    chi = rep.character()
    b = [[0] * r for _ in range(r)]
    edges = []
    for j in range(r):
        col = decompose(table, [x * y for x, y in zip(chi, table.values[j])])
        for k in range(r):
            if col[k]:
                b[k][j] = col[k]
                edges.append(
                    CorrEdge(src=j, dst=k, rows=dims[k], cols=dims[j], count=col[k])
                )
    return CorrGraph(
        dims=dims,
        edges=tuple(sorted(edges, key=lambda e: (e.src, e.dst))),
        b_matrix=IntMatrix.from_rows(b),
        convention="mckay",
    )


@dataclass(frozen=True)
class PimsnerData:
    m_matrix: IntMatrix  # action on classes of block projections
    j_cols: tuple[int, ...]  # blocks where the left action is injective
    reduced: IntMatrix  # (I - M) restricted to those columns


def pimsner_matrices(rep: Rep) -> PimsnerData:
    dims = rep.table.dims
    r = len(dims)
    m = IntMatrix.from_rows(
        [[rep.mults[i] * dims[j] for i in range(r)] for j in range(r)]
    )
    j_cols = tuple(i for i in range(r) if rep.mults[i] > 0)
    eye = IntMatrix.identity(r)
    full = IntMatrix.from_rows(
        [[eye[j, i] - m[j, i] for i in range(r)] for j in range(r)]
    )
    drop = {i for i in range(r) if rep.mults[i] == 0}
    return PimsnerData(m_matrix=m, j_cols=j_cols, reduced=full.delete_columns(drop))


def ktheory_corr(rep: Rep) -> KGroups:
    """K-groups computed straight from the bimodule data.

    The zero representation is legal: no block acts, the reduced matrix has
    no columns, and K_0 is free on every vertex.
    """
    return coker_ker(pimsner_matrices(rep).reduced)
