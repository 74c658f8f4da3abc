import random
from dataclasses import dataclass
from functools import reduce
from math import prod
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import delete_columns, transpose
from test_groups import ALL_SMALL_SPECS

from repcorr import corrgraph
from repcorr.chartable import character_table
from repcorr.corrgraph import (
    CONVENTIONS,
    CorrEdge,
    build_d_graph,
    build_e_graph,
    ktheory_corr,
    pimsner_matrices,
)
from repcorr.errors import SpecError, VerificationError
from repcorr.graphs import cap_edge_copies, from_corr, ktheory_graph
from repcorr.groups import construct_group
from repcorr.intlinalg import IntMatrix
from repcorr.reps import Rep, decompose, dsum, parse_rep_spec, regular_rep, rep_from_mults, trivial_rep

_TABLES = {}


def table_for(spec):
    if spec not in _TABLES:
        _TABLES[spec] = character_table(construct_group(spec))
    return _TABLES[spec]


POOL = [
    "cyclic:2",
    "cyclic:3",
    "cyclic:6",
    "product:[2,2]",
    "dihedral:4",
    "dihedral:5",
    "symmetric:3",
    "symmetric:4",
    "perm:[(1 2 3), (1 2)(3 4)]",
]


def rows(m: IntMatrix):
    return [list(r) for r in m.entries]


def test_sym3_natural_rep_min_convention_matrix():
    t = table_for("symmetric:3")
    rho = parse_rep_spec(t, "perm:[(1 2), (1 2 3)]")
    g = build_e_graph(rho, "paper-min")
    assert rows(g.b_matrix) == [[1, 1, 1], [0, 0, 0], [1, 1, 2]]
    # the edge from the 2-dim block into the trivial block carries a 2x2 label
    edge = next(e for e in g.edges if e.src == 2 and e.dst == 0)
    assert (edge.rows, edge.cols, edge.count) == (2, 2, 1)


def test_sym3_natural_rep_module_count_matrix():
    t = table_for("symmetric:3")
    rho = parse_rep_spec(t, "perm:[(1 2), (1 2 3)]")
    g = build_e_graph(rho, "module-count")
    assert rows(g.b_matrix) == [[1, 1, 2], [0, 0, 0], [1, 1, 2]]
    edge = next(e for e in g.edges if e.src == 2 and e.dst == 0)
    assert (edge.rows, edge.cols, edge.count) == (1, 2, 2)


def test_sym3_twodim_square_both_conventions():
    t = table_for("symmetric:3")
    sq = parse_rep_spec(t, "tensor(mult:[0,0,1], mult:[0,0,1])")
    assert sq.mults == (1, 1, 1)
    pm = build_e_graph(sq, "paper-min")
    assert rows(pm.b_matrix) == [[1, 1, 1], [1, 1, 1], [1, 1, 2]]
    mc = build_e_graph(sq, "module-count")
    assert rows(mc.b_matrix) == [[1, 1, 2], [1, 1, 2], [1, 1, 2]]


def test_module_count_matrix_is_pimsner_transpose():
    rng = random.Random(3)
    for _ in range(200):
        t = table_for(rng.choice(POOL))
        mults = tuple(rng.randrange(0, 3) for _ in range(t.count))
        if not any(mults):
            continue
        rep = rep_from_mults(t, mults)
        g = build_e_graph(rep, "module-count")
        p = pimsner_matrices(rep)
        assert g.b_matrix == transpose(p.m_matrix)


def test_b_matrix_additive_under_direct_sum():
    rng = random.Random(5)
    for _ in range(100):
        t = table_for(rng.choice(POOL))
        a = rep_from_mults(t, tuple(rng.randrange(0, 3) for _ in range(t.count)))
        b = rep_from_mults(t, tuple(rng.randrange(0, 3) for _ in range(t.count)))
        if a.dim == 0 or b.dim == 0:
            continue
        for conv in ("paper-min", "module-count"):
            ga = build_e_graph(a, conv).b_matrix
            gb = build_e_graph(b, conv).b_matrix
            gs = build_e_graph(dsum(a, b), conv).b_matrix
            assert all(
                gs[i, j] == ga[i, j] + gb[i, j]
                for i in range(gs.rows)
                for j in range(gs.cols)
            )


def test_zero_multiplicity_rows_vanish():
    rng = random.Random(9)
    for _ in range(200):
        t = table_for(rng.choice(POOL))
        mults = tuple(rng.randrange(0, 2) for _ in range(t.count))
        if not any(mults):
            continue
        rep = rep_from_mults(t, mults)
        for conv in ("paper-min", "module-count"):
            b = build_e_graph(rep, conv).b_matrix
            for k in range(t.count):
                row_zero = all(b[k, i] == 0 for i in range(t.count))
                assert row_zero == (mults[k] == 0)


def test_dimension_bookkeeping_per_vertex():
    rng = random.Random(13)
    for _ in range(200):
        t = table_for(rng.choice(POOL))
        mults = tuple(rng.randrange(0, 3) for _ in range(t.count))
        rep = rep_from_mults(t, mults)
        if rep.dim == 0:
            continue
        for conv in ("paper-min", "module-count"):
            g = build_e_graph(rep, conv)
            for i in range(t.count):
                booked = sum(
                    e.count * e.rows * e.cols for e in g.edges if e.src == i
                )
                assert booked == rep.dim * t.dims[i] ** 2


def test_mckay_graph_of_sym3_natural_rep():
    t = table_for("symmetric:3")
    rho = parse_rep_spec(t, "perm:[(1 2), (1 2 3)]")
    d = build_d_graph(rho)
    assert rows(d.b_matrix) == [[1, 0, 1], [0, 1, 1], [1, 1, 2]]
    assert d.convention == "mckay"


def test_mckay_graph_of_trivial_rep_is_identity():
    for spec in POOL:
        t = table_for(spec)
        d = build_d_graph(trivial_rep(t))
        assert d.b_matrix == IntMatrix.identity(t.count)


def test_mckay_kgroups_match_the_character_oracle():
    # For B = build_d_graph(rep), sum_k B[k][j]*chi_k(g_c) = chi(g_c)*chi_j(g_c)
    # with chi = rep.character(), so B^t = X*diag(chi)*X^-1 for the table X,
    # and a^t - I is similar over Q to diag(chi(g_c) - 1). Every vertex
    # receives an edge, so ktheory_graph drops no column: K0's free rank and
    # K1's rank are z = #{c : chi(g_c) = 1}, and for z = 0 K0 is finite of
    # order |det(a^t - I)| = |prod_c (1 - chi(g_c))|. The oracle uses no Smith form.
    rng = random.Random(33)
    for spec in ALL_SMALL_SPECS:
        t = table_for(spec)
        reps = [regular_rep(t)]
        reps += [rep_from_mults(t, [int(i == k) for i in range(t.count)]) for k in range(t.count)]
        for _ in range(2):
            mults = [rng.randrange(3) for _ in range(t.count)]
            mults[rng.randrange(t.count)] += 1  # never the zero representation
            reps.append(rep_from_mults(t, mults))
        for rep in reps:
            g = from_corr(build_d_graph(rep))
            assert all(map(any, g.a.entries)), (spec, rep.mults)
            chi = rep.character()
            z = sum(1 for x in chi if x == 1)
            k = ktheory_graph(g)
            assert (k.k0_free_rank, k.k1_rank) == (z, z), (spec, rep.mults)
            if z == 0:
                order = reduce(mul, (1 - x for x in chi)).as_integer()
                assert order is not None and prod(k.k0_torsion) == abs(order), (spec, rep.mults)


def test_mckay_graph_has_no_empty_columns():
    rng = random.Random(17)
    for _ in range(100):
        t = table_for(rng.choice(POOL))
        mults = tuple(rng.randrange(0, 3) for _ in range(t.count))
        rep = rep_from_mults(t, mults)
        if rep.dim == 0:
            continue
        b = build_d_graph(rep).b_matrix
        for j in range(t.count):
            assert any(b[k, j] for k in range(t.count))


def test_zero_rep_gives_edgeless_graph_and_free_k0():
    t = table_for("symmetric:3")
    zero = rep_from_mults(t, (0, 0, 0))
    g = build_e_graph(zero)
    assert g.edges == ()
    assert rows(g.b_matrix) == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    p = pimsner_matrices(zero)
    assert p.j_cols == ()
    assert (p.reduced.rows, p.reduced.cols) == (3, 0)
    k = ktheory_corr(zero)
    assert (k.k0_free_rank, k.k0_torsion, k.k1_rank) == (3, (), 0)
    with pytest.raises(SpecError):
        build_d_graph(zero)


def test_pimsner_matrix_of_sym3_regular_rep():
    t = table_for("symmetric:3")
    reg = regular_rep(t)
    p = pimsner_matrices(reg)
    assert rows(p.m_matrix) == [[1, 1, 2], [1, 1, 2], [2, 2, 4]]
    assert p.j_cols == (0, 1, 2)
    assert rows(p.reduced) == [[0, -1, -2], [-1, 0, -2], [-2, -2, -3]]
    k = ktheory_corr(reg)
    assert k.k0_free_rank == 0
    assert k.k0_torsion == (5,)
    assert k.k1_rank == 0


def test_pimsner_reduced_drops_missing_blocks():
    t = table_for("symmetric:3")
    rho = parse_rep_spec(t, "perm:[(1 2), (1 2 3)]")
    p = pimsner_matrices(rho)
    assert p.j_cols == (0, 2)
    assert rows(p.reduced) == [[0, -1], [-1, -1], [-2, -1]]
    k = ktheory_corr(rho)
    assert (k.k0_free_rank, k.k0_torsion, k.k1_rank) == (1, (), 0)


def test_left_action_blocks_match_support():
    rng = random.Random(19)
    for _ in range(100):
        t = table_for(rng.choice(POOL))
        mults = tuple(rng.randrange(0, 2) for _ in range(t.count))
        if not any(mults):
            continue
        rep = rep_from_mults(t, mults)
        p = pimsner_matrices(rep)
        assert p.j_cols == tuple(i for i, m in enumerate(mults) if m)
        assert p.reduced.cols == sum(1 for m in mults if m)
        assert p.reduced.rows == t.count


# ---------------------------------------------------------------------------
# the builders as they were, with the edges stored beside B: the oracle for
# the graph derived from B


@dataclass(frozen=True)
class _ReferenceCorrGraph:
    dims: tuple[int, ...]
    edges: tuple[CorrEdge, ...]
    b_matrix: IntMatrix  # b[k][i] = number of edges i -> k
    convention: str


def _reference_build_e_graph(rep: Rep, convention: str = "paper-min") -> _ReferenceCorrGraph:
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
    return _ReferenceCorrGraph(
        dims=dims,
        edges=tuple(sorted(edges, key=lambda e: (e.src, e.dst))),
        b_matrix=IntMatrix.from_rows(b),
        convention=convention,
    )


def _reference_build_d_graph(rep: Rep) -> _ReferenceCorrGraph:
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
    return _ReferenceCorrGraph(
        dims=dims,
        edges=tuple(sorted(edges, key=lambda e: (e.src, e.dst))),
        b_matrix=IntMatrix.from_rows(b),
        convention="mckay",
    )


def _outcome(build, *args):
    """(dims, edges, b_matrix, convention) of the built graph, or the type
    and message of the error the build raised."""
    try:
        g = build(*args)
    except (SpecError, VerificationError) as exc:
        return type(exc), str(exc)
    return g.dims, g.edges, g.b_matrix, g.convention


_ORACLE_GROUPS = ["symmetric:3", "symmetric:4", "dihedral:5", "cyclic:6", "perm:[(1 2 3), (1 2)(3 4)]"]


@st.composite
def _reps(draw):
    t = table_for(draw(st.sampled_from(_ORACLE_GROUPS)))
    return rep_from_mults(t, tuple(draw(st.lists(st.integers(0, 4), min_size=t.count, max_size=t.count))))


def _reference_reduced(rep: Rep) -> IntMatrix:
    """The reduced Pimsner matrix as it was built: I - M in full, then the
    columns of the blocks that do not act deleted."""
    m = pimsner_matrices(rep).m_matrix
    r = m.rows
    eye = IntMatrix.identity(r)
    full = IntMatrix.from_rows([[eye[j, i] - m[j, i] for i in range(r)] for j in range(r)])
    return delete_columns(full, {i for i in range(r) if rep.mults[i] == 0})


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_reps())
@example(rep_from_mults(table_for("symmetric:3"), (0, 0, 0)))
def test_graphs_match_the_builders_with_stored_edges(rep):
    for conv in CONVENTIONS:
        assert _outcome(build_e_graph, rep, conv) == _outcome(_reference_build_e_graph, rep, conv)
    assert _outcome(build_d_graph, rep) == _outcome(_reference_build_d_graph, rep)
    assert pimsner_matrices(rep).reduced == _reference_reduced(rep)
    graphs = [build_e_graph(rep, conv) for conv in CONVENTIONS]
    graphs += [build_d_graph(rep)] if rep.dim else []
    for g in graphs:
        assert cap_edge_copies(g) == sum(e.count for e in g.edges)


def test_wrong_label_rule_fails_the_bookkeeping_check(monkeypatch):
    # Rows n_k in place of max(n_i, n_k) book too little on the edge from
    # S3's 2-dimensional block, vertex 2, into the trivial block.
    rho = parse_rep_spec(table_for("symmetric:3"), "perm:[(1 2), (1 2 3)]")
    build_e_graph(rho, "paper-min")
    monkeypatch.setitem(corrgraph._LABELS, "paper-min", lambda ni, nk: (nk, ni))
    with pytest.raises(VerificationError, match="failed at vertex 2: 10 != 12"):
        build_e_graph(rho, "paper-min")


def test_the_builders_read_no_edge_list(monkeypatch):
    # The bookkeeping is checked on B, so building a graph never lists its
    # edges; only the outputs that print them do.
    def refuse(g):
        raise AssertionError("an edge list was built")

    monkeypatch.setattr(corrgraph.CorrGraph, "edges", property(refuse))
    rng = random.Random(23)
    for spec in POOL:
        t = table_for(spec)
        reps = [regular_rep(t)]
        reps += [rep_from_mults(t, tuple(rng.randrange(0, 4) for _ in range(t.count))) for _ in range(5)]
        for rep in reps:
            for conv in CONVENTIONS:
                g = build_e_graph(rep, conv)
                assert cap_edge_copies(g) == sum(map(sum, g.b_matrix.entries))


def test_an_unknown_convention_is_refused():
    rep = regular_rep(character_table(construct_group("symmetric:3")))
    with pytest.raises(SpecError, match=r"^unknown convention 'bogus'; pick one of "
                                        r"\('paper-min', 'module-count'\)$"):
        build_e_graph(rep, "bogus")
