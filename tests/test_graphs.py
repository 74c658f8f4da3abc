import itertools
import random
import tracemalloc
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dense_dot, dense_skew_product, dense_sources_sinks, graph
from repcorr.chartable import character_table
from repcorr.corrgraph import build_d_graph, build_e_graph
from repcorr.cyclo import zeta
from repcorr.errors import SpecError
from repcorr.graphs import (
    MAX_SKEW_VERTICES,
    CircleGraph,
    CircleReport,
    Frequency,
    MultiGraph,
    SimplicityReport,
    SkewSpec,
    cap_edge_copies,
    circle_analysis,
    dot_export,
    from_corr,
    ktheory_graph,
    parse_frequency,
    semigroup_r_check,
    simplicity_check,
    skew_product,
    sources_sinks,
)
from repcorr.graphs import _check_vertex_count
from repcorr.groups import construct_group, cyclic_factors
from repcorr.reps import parse_rep_spec, rep_from_mults

_TABLES = {}


def table_for(spec):
    if spec not in _TABLES:
        _TABLES[spec] = character_table(construct_group(spec))
    return _TABLES[spec]


def kt(g):
    k = ktheory_graph(g)
    return (k.k0_free_rank, k.k0_torsion, k.k1_rank)


def test_sym3_natural_rep_graph_matches_bimodule_matrix_and_ktheory():
    t = table_for("symmetric:3")
    rho = parse_rep_spec(t, "perm:[(1 2), (1 2 3)]")
    g = from_corr(build_e_graph(rho, "paper-min"))
    # the multigraph stores the same from-w-to-v matrix as the builder
    assert [list(r) for r in g.a.entries] == [[1, 1, 1], [0, 0, 0], [1, 1, 2]]
    assert kt(g) == (1, (), 0)
    sources, sinks = sources_sinks(g)
    assert sources == (1,)
    assert sinks == ()


def test_edgeless_graph_gives_free_k0():
    for k in (1, 2, 5):
        g = graph([[0] * k for _ in range(k)])
        assert kt(g) == (k, (), 0)


def test_single_loop_is_circle_algebra():
    g = graph([[1]])
    assert kt(g) == (1, (), 1)
    rep = simplicity_check(g)
    assert not rep.every_cycle_has_exit
    assert not rep.simple


def test_two_loops_is_cuntz_algebra():
    g = graph([[2]])
    assert kt(g) == (0, (), 0)
    rep = simplicity_check(g)
    assert rep.every_cycle_has_exit and rep.cofinal
    assert rep.simple and rep.purely_infinite_simple


def test_three_loops_torsion():
    g = graph([[3]])
    assert kt(g) == (0, (2,), 0)


def test_single_edge_is_matrix_algebra():
    # one edge 1 -> 0, so vertex 1 receives nothing
    g = graph([[0, 1], [0, 0]])
    assert sources_sinks(g) == ((1,), (0,))
    assert kt(g) == (1, (), 0)
    rep = simplicity_check(g)
    # a graph with a source can still be simple when nothing cyclic exists
    assert rep.simple and not rep.purely_infinite_simple


def test_disjoint_vertices_not_simple():
    g = graph([[0, 0], [0, 0]])
    rep = simplicity_check(g)
    assert not rep.cofinal and not rep.simple


def test_plain_cycle_not_simple():
    g = graph([[0, 1], [1, 0]])
    rep = simplicity_check(g)
    assert not rep.every_cycle_has_exit
    assert not rep.simple


def test_graph_with_missing_block_is_never_simple():
    t = table_for("symmetric:3")
    rho = parse_rep_spec(t, "perm:[(1 2), (1 2 3)]")  # sign block missing
    for conv in ("paper-min", "module-count"):
        g = from_corr(build_e_graph(rho, conv))
        rep = simplicity_check(g)
        assert not rep.cofinal and not rep.simple


def test_regular_rep_graph_is_simple_and_purely_infinite():
    t = table_for("symmetric:3")
    g = from_corr(build_e_graph(parse_rep_spec(t, "regular"), "module-count"))
    rep = simplicity_check(g)
    assert rep.simple and rep.purely_infinite_simple


def test_sources_sinks_chain():
    # edges 2 -> 1 and 1 -> 0 in the stored from-w-to-v convention
    g = graph([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    sources, sinks = sources_sinks(g)
    assert sources == (2,)
    assert sinks == (0,)


def test_skew_by_order_two_doubles_cuntz_graph():
    sk = skew_product(SkewSpec(cocycle=((1,), (1,)), orders=(2,)))
    assert sk.n == 2
    assert [list(r) for r in sk.a.entries] == [[0, 2], [2, 0]]
    assert sk.names == ("(0)", "(1)")
    assert sk.stubs == ()


def test_skew_trivial_cocycle_gives_loop_multiple_of_identity():
    for n_edges in (1, 3):
        for orders in ((4,), (2, 2)):
            k = 1
            for o in orders:
                k *= o
            zero = tuple([(0,) * len(orders)] * n_edges)
            sk = skew_product(SkewSpec(cocycle=zero, orders=orders))
            assert sk.n == k
            expect = [
                [n_edges if i == j else 0 for j in range(k)] for i in range(k)
            ]
            assert [list(r) for r in sk.a.entries] == expect


def test_skew_free_rank_one_line_with_stub():
    sk = skew_product(SkewSpec(cocycle=((1,),), orders=None, rank=1, window=2))
    assert sk.n == 5
    assert sk.names == ("(-2)", "(-1)", "(0)", "(1)", "(2)")
    for t in range(4):
        # the edge leaving lattice point t lands one step up
        assert sk.a[t + 1, t] == 1
    assert len(sk.stubs) == 1
    assert sk.stubs[0].src == 4
    assert sk.stubs[0].target == "(3)"
    assert sk.stubs[0].count == 1


def test_skew_symmetric_band_on_window():
    # characters enumerate the integers between -2 and 2
    c = tuple((v,) for v in (0, 1, -1, 2, -2))
    sk = skew_product(SkewSpec(cocycle=c, orders=None, rank=1, window=2))
    vals = list(range(-2, 3))
    for v in range(5):
        for w in range(5):
            expect = 1 if abs(vals[v] - vals[w]) <= 2 else 0
            assert sk.a[v, w] == expect
    assert sum(s.count for s in sk.stubs) == 6


def test_skew_window_consistency():
    c = ((1,), (-1,), (2,))
    small = skew_product(SkewSpec(cocycle=c, orders=None, rank=1, window=2))
    large = skew_product(SkewSpec(cocycle=c, orders=None, rank=1, window=4))
    si = {name: t for t, name in enumerate(small.names)}
    li = {name: t for t, name in enumerate(large.names)}
    for name_a, sa in si.items():
        for name_b, sb in si.items():
            assert small.a[sa, sb] == large.a[li[name_a], li[name_b]]


@st.composite
def window_and_finite_duals(draw):
    """(cocycle over Z^k with |c|_inf <= C, window W, modulus m > 2W + C)."""
    rank = draw(st.integers(1, 3))
    w = draw(st.integers(1, 3 if rank < 3 else 1))
    bound = draw(st.integers(0, 2))
    m = draw(st.integers(2 * w + bound + 1, 2 * w + bound + 3))
    chars = st.tuples(*[st.integers(-bound, bound)] * rank)
    return tuple(draw(st.lists(chars, min_size=1, max_size=4))), w, m


@settings(derandomize=True, max_examples=120, deadline=None)
@given(window_and_finite_duals())
def test_window_agrees_with_the_finite_skew_product(case):
    # Send a window point h to h mod m. For window points h, h' and a
    # character c, |h' - h - c|_inf <= 2W + C < m, so h' = h + c mod m only
    # if h' = h + c: the edge counts agree. As 2W < m, the residues of the
    # window points are distinct, and an edge leaves the window exactly when
    # its residue lands outside theirs.
    cocycle, w, m = case
    rank = len(cocycle[0])
    win = skew_product(SkewSpec(cocycle=cocycle, rank=rank, window=w))
    fin = skew_product(SkewSpec(cocycle=tuple(tuple(x % m for x in c) for c in cocycle),
                                orders=(m,) * rank))
    at = {name: t for t, name in enumerate(fin.names)}
    res = [at["(" + ",".join(str(int(x) % m) for x in name[1:-1].split(",")) + ")"]
           for name in win.names]
    assert len(set(res)) == win.n and fin.n == m**rank
    for v in range(win.n):
        assert list(win.a.entries[v]) == [fin.a[res[v], res[u]] for u in range(win.n)]
    outside = set(range(fin.n)) - set(res)
    for u in range(win.n):
        stubs = sum(s.count for s in win.stubs if s.src == u)
        assert stubs == sum(fin.a[r, res[u]] for r in outside)


# The abelian bridge: over a finite abelian group G with dual G^, the skew
# product by a cocycle c_1..c_n in G^ is the tensor-decomposition graph of the
# representation chi_{c_1} + ... + chi_{c_n}, because chi_h (x) chi_c =
# chi_{h+c}. The bijection sends the dual element h to the table row of
# chi_h(x) = prod_i zeta_{o_i}^{h_i x_i}, found by value.

_ABELIAN = ["cyclic:2", "cyclic:3", "cyclic:5", "cyclic:6", "cyclic:12", "product:[2,2]",
            "product:[2,3]", "product:[4,2]", "product:[3,3]", "product:[2,2,2]"]
_DUAL_ROWS = {}


def dual_rows(spec):
    """{h: row of chi_h in table_for(spec)} over the whole dual group."""
    if spec not in _DUAL_ROWS:
        t = table_for(spec)
        orders = cyclic_factors(spec)
        xs = [t.group.elements[r] for r in t.classes.representatives]
        xs = [x if isinstance(x, tuple) else (x,) for x in xs]
        rows = {}
        for h in itertools.product(*map(range, orders)):
            chi = [prod(zeta(o, hi * xi) for o, hi, xi in zip(orders, h, x)) for x in xs]
            (rows[h],) = [k for k, row in enumerate(t.values) if list(row) == chi]
        _DUAL_ROWS[spec] = rows
    return _DUAL_ROWS[spec]


@st.composite
def abelian_cocycles(draw):
    spec = draw(st.sampled_from(_ABELIAN))
    chars = st.tuples(*(st.integers(0, o - 1) for o in cyclic_factors(spec)))
    return spec, tuple(draw(st.lists(chars, min_size=1, max_size=4)))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(abelian_cocycles())
def test_finite_skew_product_is_the_d_graph_of_the_cocycle_characters(case):
    spec, cocycle = case
    t, rows = table_for(spec), dual_rows(spec)
    sk = skew_product(SkewSpec(cocycle=cocycle, orders=cyclic_factors(spec)))
    mults = [0] * t.count
    for c in cocycle:
        mults[rows[c]] += 1
    d = from_corr(build_d_graph(rep_from_mults(t, mults)))
    pi = [rows[tuple(int(x) for x in name[1:-1].split(","))] for name in sk.names]
    assert sorted(pi) == list(range(t.count)) and sk.stubs == ()
    # Both store a[v][w] = number of edges w -> v, so this pins the direction.
    for v in range(sk.n):
        assert [sk.a[v, w] for w in range(sk.n)] == [d.a[pi[v], pi[w]] for w in range(sk.n)]
    assert kt(sk) == kt(d)


def _character_sums(spec: SkewSpec) -> tuple[int, int | None]:
    """(#{g : lambda_g = 1}, |prod_g (lambda_g - 1)| when that count is 0)
    for a finite dual, lambda_g = sum_i chi_{c_i}(g), with no SNF.

    The vertices are the elements of the finite dual, and each c_i adds the
    edges x -> x + c_i, so a^t - I is multiplication by sum_i delta_{c_i}
    - 1 on Z[dual]: square, as every vertex receives n edges, and normal.
    The characters chi_g(x) = prod_j zeta_{o_j}^(g_j x_j), g in G,
    diagonalise it with eigenvalues conj(lambda_g) - 1. So the kernel rank,
    the cokernel's free rank and the number of g with lambda_g = 1 agree,
    and a nonsingular a^t - I has |det| = the order of its cokernel.
    """
    big = lcm(*spec.orders)
    ones, det = 0, 1
    for g in itertools.product(*(range(o) for o in spec.orders)):
        lam = sum(zeta(big, sum(x * y * (big // o) for x, y, o in zip(c, g, spec.orders)))
                  for c in spec.cocycle)
        if lam == 1:
            ones += 1
        else:
            det = det * (lam - 1)
    return ones, None if ones else abs(det.as_integer())


def test_finite_dual_kgroups_match_the_character_sums():
    # The finite duals of the ktheory_skew bench, with two to four characters
    # and with three drawn as its dual_12x12 jobs draw them: with three, some
    # g of order 2 nearly always has lambda_g = 1 + 1 - 1.
    rng = random.Random(16)
    specs = []
    for size in (2, 2, 3, 3, 4, 4, 3, 3, 3, 3):
        cocycle = tuple((rng.randrange(12), rng.randrange(12)) for _ in range(size))
        specs.append(SkewSpec(cocycle=cocycle, orders=(12, 12)))
    for _ in range(6):
        cocycle = tuple((rng.randrange(4), rng.randrange(6)) for _ in range(rng.randint(1, 4)))
        specs.append(SkewSpec(cocycle=cocycle, orders=(4, 6)))
    for n in range(2, 31):
        cocycle = tuple((rng.randrange(n),) for _ in range(rng.randint(1, 4)))
        specs.append(SkewSpec(cocycle=cocycle, orders=(n,)))
    # A zero factor: over Z/4, lambda_g = 1 + i^g + i^-g is 1 at g = 1, 3.
    specs.append(SkewSpec(cocycle=((0,), (1,), (3,)), orders=(4,)))
    seen = set()
    for spec in specs:
        g = skew_product(spec)
        assert sources_sinks(g)[0] == (), spec  # every vertex receives an edge
        k = ktheory_graph(g)
        ones, det = _character_sums(spec)
        assert k.k1_rank == k.k0_free_rank == ones, spec
        if not ones:
            assert prod(k.k0_torsion) == det, spec
        seen.add((spec.orders if len(spec.orders) == 2 else "Z/n", ones > 0))
    # Both branches run, on the Z/12 x Z/12, the Z/4 x Z/6 and the Z/n duals.
    assert seen == {(d, b) for d in ((12, 12), (4, 6), "Z/n") for b in (False, True)}
    assert _character_sums(specs[-1])[0] == 2


def test_skew_rejects_bad_specs():
    with pytest.raises(SpecError, match="at least one character"):
        skew_product(SkewSpec(cocycle=(), orders=(2,)))
    with pytest.raises(SpecError, match="outside dual group"):
        skew_product(SkewSpec(cocycle=((2,),), orders=(2,)))
    with pytest.raises(SpecError, match="outside dual group"):
        skew_product(SkewSpec(cocycle=((-1,),), orders=(3,)))
    with pytest.raises(SpecError, match="outside dual group"):
        skew_product(SkewSpec(cocycle=((1, 0),), orders=(2,)))
    with pytest.raises(SpecError, match="outside dual group"):
        skew_product(SkewSpec(cocycle=((1, 0),), orders=None, rank=1))
    with pytest.raises(SpecError, match="positive factor orders"):
        skew_product(SkewSpec(cocycle=((0,),), orders=(0,)))
    with pytest.raises(SpecError, match="positive rank"):
        skew_product(SkewSpec(cocycle=((1,),), orders=None, rank=0))
    with pytest.raises(SpecError, match="window radius"):
        skew_product(SkewSpec(cocycle=((1,),), orders=None, rank=1, window=0))


def test_skew_vertex_cap_raises_before_allocating():
    huge = [
        SkewSpec(cocycle=((1,),), orders=None, rank=1, window=10**9),
        SkewSpec(cocycle=((1,) * 40,), orders=None, rank=40, window=1),
        SkewSpec(cocycle=((1,),), orders=(10**9,)),
        SkewSpec(cocycle=((0,),), orders=None, rank=10**9, window=1),
    ]
    for spec in huge:
        tracemalloc.start()
        try:
            with pytest.raises(SpecError, match=f"more than {MAX_SKEW_VERTICES} vertices"):
                skew_product(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000, (spec, peak)


def test_skew_vertex_cap_boundary():
    assert MAX_SKEW_VERTICES == 2500
    _check_vertex_count((50, 50))
    _check_vertex_count([2 * 24 + 1] * 2)  # Z^2, window 24: 2401 vertices
    with pytest.raises(SpecError):
        _check_vertex_count((50, 51))
    with pytest.raises(SpecError):
        _check_vertex_count([2 * 25 + 1] * 2)


def test_simplicity_reports_on_skew_products():
    # Z^2 window 3 with the (1,0),(0,1),(-1,-1) cocycle: every vertex lies
    # on a cycle of the reversed graph (the three steps sum to zero).
    g = skew_product(SkewSpec(cocycle=((1, 0), (0, 1), (-1, -1)), rank=2, window=3))
    r = simplicity_check(g)
    assert (r.every_cycle_has_exit, r.cofinal, r.simple, r.purely_infinite_simple) == (
        True, True, True, True,
    )
    # A one-way drift has no cycles, and its rows y = const never meet, so no
    # vertex reaches the sinks of the other rows: not cofinal.
    g = skew_product(SkewSpec(cocycle=((1, 0),), rank=2, window=2))
    r = simplicity_check(g)
    assert not r.cofinal and not r.simple and r.every_cycle_has_exit


def _reachability(succ):
    """reach[v]: every vertex a path from v ends at, v itself included (BFS)."""
    reach = []
    for v in range(len(succ)):
        seen = {v}
        queue = [v]
        for w in queue:
            for x in succ[w]:
                if x not in seen:
                    seen.add(x)
                    queue.append(x)
        reach.append(seen)
    return reach


def _reference_simplicity(g):
    """The criteria read straight off one reach set per vertex, as
    `simplicity_check` once did: a cycle has no exit when some vertex reaches
    only vertices that emit one edge; cofinal when every vertex reaches every
    vertex on a cycle and every sink; purely infinite when, in addition,
    every vertex reaches a cycle."""
    n, rev = g.n, g.a.entries
    succ = [[w for w in range(n) if rev[v][w]] for v in range(n)]
    reach = _reachability(succ)
    on_cycle = {v for v in range(n) if any(v in reach[w] for w in succ[v])}
    sinks = {v for v in range(n) if not succ[v]}
    single = {v for v in range(n) if sum(rev[v]) == 1}
    every_cycle_has_exit = not any(r <= single for r in reach)
    cofinal = all(sinks | on_cycle <= r for r in reach)
    simple = every_cycle_has_exit and cofinal
    return SimplicityReport(
        every_cycle_has_exit=every_cycle_has_exit,
        cofinal=cofinal,
        simple=simple,
        purely_infinite_simple=simple and all(not on_cycle.isdisjoint(r) for r in reach),
    )


def _reference_every_cycle_has_exit(g):
    """The functional-graph walk `simplicity_check` used before: a cycle with
    no exit lives inside the part where every vertex emits exactly one edge."""
    rev = g.a.entries
    succ = [[w for w in range(g.n) if rev[v][w]] for v in range(g.n)]
    next_of = {v: succ[v][0] for v in range(g.n) if sum(rev[v]) == 1}
    state = {v: 0 for v in next_of}  # 0 unseen, 1 in progress, 2 done
    for v in next_of:
        if state[v]:
            continue
        path = []
        w = v
        while w in next_of and state[w] == 0:
            state[w] = 1
            path.append(w)
            w = next_of[w]
        if w in next_of and state[w] == 1:
            return False
        for u in path:
            state[u] = 2
    return True


@st.composite
def _multigraphs(draw):
    n = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n), min_size=n, max_size=n))
    return graph(rows)


@st.composite
def _skew_products(draw):
    if draw(st.booleans()):
        orders = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=2)))
        chars = st.tuples(*[st.integers(0, o - 1) for o in orders])
        cocycle = tuple(draw(st.lists(chars, min_size=1, max_size=3)))
        return skew_product(SkewSpec(cocycle=cocycle, orders=orders))
    rank = draw(st.integers(1, 2))
    chars = st.tuples(*[st.integers(-2, 2)] * rank)
    cocycle = tuple(draw(st.lists(chars, min_size=1, max_size=3)))
    return skew_product(SkewSpec(cocycle=cocycle, rank=rank, window=draw(st.integers(1, 2))))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.one_of(_multigraphs(), _skew_products()))
def test_cycle_exit_test_matches_reference_walk(g):
    assert simplicity_check(g).every_cycle_has_exit == _reference_every_cycle_has_exit(g)
    assert simplicity_check(g) == _reference_simplicity(g)


@pytest.mark.parametrize(
    "cocycle",
    [((1, 0), (0, 1), (-1, -1)), ((1, 0),), ((1, 1), (-1, 0), (0, -1)), ((1, 0), (-1, 0))],
)
def test_simplicity_matches_reach_sets_on_skew_windows(cocycle):
    for window in range(1, 13):
        g = skew_product(SkewSpec(cocycle=cocycle, rank=2, window=window))
        assert simplicity_check(g) == _reference_simplicity(g), window


def test_simplicity_on_long_path_and_cycle():
    # 2,401 vertices, the size of a skew window 24, far past the recursion
    # limit: v -> v + 1 in the reversed graph, then the same closed up.
    n = 2401
    unit = [(0,) * w + (1,) + (0,) * (n - w - 1) for w in range(n)]
    path = graph(unit[1:] + [(0,) * n])
    assert simplicity_check(path) == SimplicityReport(True, True, True, False)
    cycle = graph(unit[1:] + unit[:1])
    assert simplicity_check(cycle) == SimplicityReport(False, True, False, False)


def test_cycle_exit_cases():
    # an exitless 2-cycle fed by a vertex off the cycle
    assert not simplicity_check(graph([[0, 1, 0], [0, 0, 1], [0, 1, 0]])).every_cycle_has_exit
    # a doubled edge on the cycle is an exit
    assert simplicity_check(graph([[0, 2], [1, 0]])).every_cycle_has_exit
    # a 2-cycle one of whose vertices also feeds a sink
    assert simplicity_check(graph([[0, 1, 0], [1, 0, 1], [0, 0, 0]])).every_cycle_has_exit


def test_parse_frequency_forms():
    assert parse_frequency("1/2") == Frequency(Fraction(1, 2), None)
    assert parse_frequency("-3") == Frequency(Fraction(-3), None)
    assert parse_frequency("2/4") == Frequency(Fraction(1, 2), None)
    assert parse_frequency("1/3*theta") == Frequency(Fraction(1, 3), "theta")
    assert parse_frequency("theta") == Frequency(Fraction(1), "theta")
    assert parse_frequency("-theta") == Frequency(Fraction(-1), "theta")
    for bad in ("", "1//2", "2x3", "*a", "1.5"):
        with pytest.raises(SpecError):
            parse_frequency(bad)


def angles(*texts):
    return CircleGraph(angles=tuple(parse_frequency(t) for t in texts))


def test_circle_rational_orbits():
    assert circle_analysis(angles("1/3")) == CircleReport(3, False)
    assert circle_analysis(angles("1/2", "1/3")) == CircleReport(6, False)
    assert circle_analysis(angles("0")) == CircleReport(1, False)
    assert circle_analysis(angles("2/4", "-1/2")) == CircleReport(2, False)


def test_circle_irrational_is_dense():
    rep = circle_analysis(angles("1/2", "theta"))
    assert rep == CircleReport("infinite", True)
    # a zero coefficient kills the marker
    rep = circle_analysis(CircleGraph(angles=(Frequency(Fraction(0), "theta"),)))
    assert rep == CircleReport(1, False)


def test_circle_empty_family_is_trivial():
    assert circle_analysis(CircleGraph(angles=())) == CircleReport(1, False)


def test_semigroup_decision_table():
    f = parse_frequency
    with pytest.raises(SpecError):
        semigroup_r_check([])
    assert semigroup_r_check([f("0")]) is False
    assert semigroup_r_check([f("1"), f("2")]) is False
    assert semigroup_r_check([f("-1/2")]) is False
    assert semigroup_r_check([f("1"), f("-1")]) is False
    assert semigroup_r_check([f("theta"), f("-theta")]) is False
    assert semigroup_r_check([f("1"), f("-theta")]) is True
    assert semigroup_r_check([f("-1"), f("theta")]) is True
    assert semigroup_r_check([f("1/2"), f("-1/3*b")]) is True
    assert semigroup_r_check([f("1"), f("2"), f("-theta")]) is None
    assert semigroup_r_check([f("a"), f("-b")]) is None


def test_dot_export_corr_graph():
    t = table_for("symmetric:3")
    rho = parse_rep_spec(t, "perm:[(1 2), (1 2 3)]")
    dot = dot_export(build_e_graph(rho, "paper-min"), "egraph")
    assert dot.startswith("digraph egraph {")
    assert '"pi2:M2"' in dot
    assert 'v2 -> v0 [label="M_2x2"];' in dot
    assert dot == dot_export(build_e_graph(rho, "paper-min"), "egraph")


def test_dot_export_trivial_rep_figure():
    # one loop at the trivial vertex and one edge into it from each other block
    t = table_for("symmetric:3")
    dot = dot_export(build_e_graph(parse_rep_spec(t, "trivial"), "paper-min"))
    arrows = [line for line in dot.splitlines() if "->" in line]
    assert len(arrows) == 3
    assert sum("v0 -> v0" in line for line in arrows) == 1
    assert sum("v1 -> v0" in line for line in arrows) == 1
    assert sum("v2 -> v0" in line for line in arrows) == 1


def test_dot_export_multigraph_with_stubs():
    sk = skew_product(SkewSpec(cocycle=((1,),), orders=None, rank=1, window=1))
    dot = dot_export(sk)
    assert dot.count("->") == 2 + 1  # two window edges plus one stub edge
    assert "style=dashed" in dot
    assert '"(2)"' in dot
    assert dot == dot_export(skew_product(SkewSpec(cocycle=((1,),), rank=1, window=1)))


def test_graph_readers_build_no_dense_adjacency():
    # IntMatrix.entries is a cached property, so a dense view, once built,
    # sits in the matrix's instance dict: no reader may put it there.
    specs = [SkewSpec(cocycle=((1, 0), (0, 1), (-1, -1)), rank=2, window=6),
             SkewSpec(cocycle=((1, 0), (0, 5), (11, 7)), orders=(12, 12))]
    for spec in specs:
        g = skew_product(spec)
        ktheory_graph(g), simplicity_check(g), sources_sinks(g)
        cap_edge_copies(g), dot_export(g)
        assert "entries" not in vars(g.a), spec


@st.composite
def _oracle_skew_specs(draw):
    """Finite duals Z/m (m <= 12) and Z/a x Z/b (a, b <= 6), and windows of
    rank 1-2 and radius 1-4 whose characters may leave the window (stubs),
    with a repeated character (multi-edges) and the zero character (loops)
    drawn half the time each."""
    kind = draw(st.sampled_from(("Z/m", "Z/a x Z/b", "window")))
    rank = window = 0
    if kind == "window":
        rank, window = draw(st.integers(1, 2)), draw(st.integers(1, 4))
        orders = None
        chars = st.tuples(*[st.integers(-2 * window - 1, 2 * window + 1)] * rank)
    else:
        orders = (draw(st.integers(1, 12)),) if kind == "Z/m" else (
            draw(st.integers(1, 6)), draw(st.integers(1, 6)))
        chars = st.tuples(*(st.integers(0, o - 1) for o in orders))
    cocycle = draw(st.lists(chars, min_size=1, max_size=4))
    if draw(st.booleans()):
        cocycle.append(cocycle[0])
    if draw(st.booleans()):
        cocycle.append((0,) * len(cocycle[0]))
    return SkewSpec(cocycle=tuple(cocycle), orders=orders, rank=rank, window=window or 1)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_oracle_skew_specs())
def test_sparse_skew_product_matches_the_dense_build(spec):
    rows, stubs = dense_skew_product(spec)
    g = skew_product(spec)
    assert g.stubs == stubs
    assert sources_sinks(g) == dense_sources_sinks(rows)
    assert dot_export(g, "skew") == dense_dot(rows, g.names, stubs, "skew")
    assert cap_edge_copies(g) == sum(map(sum, rows))
    assert g.a.entries == rows


def test_multigraph_validation():
    with pytest.raises(SpecError):
        graph([[0, 0]], names=("a",))
    with pytest.raises(SpecError):
        graph([[-1]], names=("a",))
    with pytest.raises(SpecError):
        graph([[0]], names=())
    assert graph([[0, 2], [1, 0]]).n == 2 and MultiGraph._fields == ("a", "names", "stubs")
