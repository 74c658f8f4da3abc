"""End-to-end acceptance checks.

One test per numbered criterion; each prints a `[criterion N] PASS/FAIL`
verdict line so a full run doubles as a checklist. Criterion 7 is split: the
property suites and the cross-path K-theory check under the module-count
convention pass, while the same cross-path check under the paper-min
convention is recorded by a separate, deliberately failing test. The
minimal-edge convention collapses edge multiplicities that the K-theory
presentation needs, so the two paths genuinely disagree there; the decisions
ledger has the worked counterexample.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from math import gcd

from published_tables import expected_doc
from snf_oracle import _carried_reduce
from repcorr.chartable import (
    CharTable,
    character_table,
    load_table,
    tables_equal_up_to_row_order,
)
from repcorr.corrgraph import build_d_graph, build_e_graph, ktheory_corr
from repcorr.cyclo import Cyclo, zeta
from repcorr.graphs import (
    Frequency,
    SkewSpec,
    from_corr,
    ktheory_graph,
    semigroup_r_check,
    skew_product,
    sources_sinks,
)
from repcorr.groups import construct_group
from repcorr.intlinalg import IntMatrix, smith_normal_form
from repcorr.reps import (
    decompose,
    is_pi_injective,
    parse_rep_spec,
    regular_rep,
    rep_from_mults,
    tensor,
)

# groups of order at most 24 for the randomized property suites
POOL = (
    [f"cyclic:{n}" for n in range(1, 13)]
    + ["cyclic:24"]
    + [
        "product:[2,2]",
        "product:[2,4]",
        "product:[3,3]",
        "product:[2,2,2]",
        "product:[2,6]",
        "product:[4,4]",
        "product:[2,10]",
    ]
    + [f"dihedral:{n}" for n in range(2, 13)]
    + ["symmetric:3", "symmetric:4"]
    + [
        "perm:[(1 2 3), (1 2)(3 4)]",  # alternating group on 4 points
        "perm:[(1 2 3 4)(5 6 7 8), (1 5 3 7)(2 8 4 6)]",  # quaternions
    ]
)

_TABLES: dict[str, CharTable] = {}


def table_for(spec: str) -> CharTable:
    if spec not in _TABLES:
        _TABLES[spec] = character_table(construct_group(spec))
    return _TABLES[spec]


def sym3_rep(text: str):
    return parse_rep_spec(table_for("symmetric:3"), text)


def rows(m: IntMatrix) -> list[list[int]]:
    return [list(r) for r in m.entries]


def kt(k) -> tuple:
    return (k.k0_free_rank, k.k0_torsion, k.k1_rank)


@contextmanager
def verdict(capfd, criterion: int, note: str = ""):
    suffix = f" ({note})" if note else ""
    try:
        yield
    except BaseException:
        with capfd.disabled():
            print(f"[criterion {criterion}] FAIL{suffix}")
        raise
    else:
        with capfd.disabled():
            print(f"[criterion {criterion}] PASS{suffix}")


def test_criterion_1_sym3_character_table(capfd):
    with verdict(capfd, 1, "symmetric:3 character table"):
        t = table_for("symmetric:3")
        # columns are the classes of the identity, a transposition, a 3-cycle
        assert t.classes.sizes == (1, 3, 2)
        orders = [
            t.group.element_order(r) for r in t.classes.representatives
        ]
        assert orders == [1, 2, 3]
        assert tuple(sorted(t.dims)) == (1, 1, 2)
        expected = [
            [1, 1, 1],
            [1, -1, 1],
            [2, 0, -1],
        ]
        got = [[v for v in row] for row in t.values]
        for want in expected:
            want_row = [Cyclo.from_rational(x) for x in want]
            assert sum(1 for row in got if row == want_row) == 1


def test_criterion_2_sym3_perm_rep_graph_and_ktheory(capfd):
    with verdict(capfd, 2, "permutation rep graph, sources, K-groups"):
        rho = sym3_rep("perm:[(1 2), (1 2 3)]")
        g = build_e_graph(rho, "paper-min")
        assert rows(g.b_matrix) == [[1, 1, 1], [0, 0, 0], [1, 1, 2]]
        mg = from_corr(g)
        sources, sinks = sources_sinks(mg)
        assert sources == (1,)
        assert sinks == ()
        assert kt(ktheory_graph(mg)) == (1, (), 0)
        assert kt(ktheory_corr(rho)) == (1, (), 0)


def test_criterion_3_incidence_additivity_identities(capfd):
    with verdict(capfd, 3, "per-irreducible incidence sums"):
        t = table_for("symmetric:3")
        iota = rep_from_mults(t, (1, 0, 0))
        eps = rep_from_mults(t, (0, 1, 0))
        sigma = rep_from_mults(t, (0, 0, 1))
        rho = sym3_rep("perm:[(1 2), (1 2 3)]")
        sigma_sq = tensor(sigma, sigma)

        def b(rep):
            return rows(build_e_graph(rep, "paper-min").b_matrix)

        def madd(a, bb):
            return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, bb)]

        assert b(rho) == madd(b(iota), b(sigma))
        assert b(sigma_sq) == madd(madd(b(iota), b(eps)), b(sigma))
        assert b(sigma_sq) == [[1, 1, 1], [1, 1, 1], [1, 1, 2]]


def test_criterion_4_mckay_graph_of_perm_rep(capfd):
    with verdict(capfd, 4, "tensor-decomposition graph"):
        rho = sym3_rep("perm:[(1 2), (1 2 3)]")
        d = build_d_graph(rho)
        assert rows(d.b_matrix) == [[1, 0, 1], [0, 1, 1], [1, 1, 2]]
        sources, _ = sources_sinks(from_corr(d))
        assert sources == ()


def test_criterion_5_tensor_and_regular_decompositions(capfd):
    with verdict(capfd, 5, "tensor and regular multiplicities"):
        t = table_for("symmetric:3")
        sigma = rep_from_mults(t, (0, 0, 1))
        assert tensor(sigma, sigma).mults == (1, 1, 1)
        assert regular_rep(t).mults == (1, 1, 2)


def test_criterion_6_truncated_rotation_family_skew(capfd):
    with verdict(capfd, 6, "all-ones window incidence"):
        for w in (1, 2, 3):
            c = [(0,)]
            for v in range(1, 2 * w + 1):
                c.extend([(v,), (-v,)])
            sk = skew_product(
                SkewSpec(cocycle=tuple(c), orders=None, rank=1, window=w)
            )
            n = 2 * w + 1
            assert sk.n == n
            assert all(x == 1 for row in sk.a for x in row)
            # the remaining characters leave the window as boundary stubs
            assert sum(s.count for s in sk.stubs) == n * len(c) - n * n


def _random_mults(rng, count, top=3):
    return tuple(rng.randrange(0, top) for _ in range(count))


def test_criterion_7_property_suites(capfd):
    note = "500-case suites; cross-path K-theory under module-count"
    with verdict(capfd, 7, note):
        rng = random.Random(20240814)

        # character-table orthogonality, both ways
        for _ in range(500):
            t = table_for(rng.choice(POOL))
            n = t.group.order
            i1, i2 = rng.randrange(t.count), rng.randrange(t.count)
            acc = Cyclo.from_rational(0)
            for j in range(t.count):
                acc = acc + (
                    Cyclo.from_rational(t.classes.sizes[j])
                    * t.values[i1][j]
                    * t.values[i2][j].conj()
                )
            assert acc == Cyclo.from_rational(n if i1 == i2 else 0)
            j1, j2 = rng.randrange(t.count), rng.randrange(t.count)
            acc = Cyclo.from_rational(0)
            for i in range(t.count):
                acc = acc + t.values[i][j1] * t.values[i][j2].conj()
            want = Fraction(n, t.classes.sizes[j1]) if j1 == j2 else 0
            assert acc == Cyclo.from_rational(want)

        # decompose round-trip on random nonnegative combinations
        for _ in range(500):
            t = table_for(rng.choice(POOL))
            mults = _random_mults(rng, t.count)
            assert decompose(t, rep_from_mults(t, mults).character()) == mults

        # incidence additivity under direct sum, both conventions
        for _ in range(500):
            t = table_for(rng.choice(POOL))
            conv = rng.choice(("paper-min", "module-count"))
            a = rep_from_mults(t, _random_mults(rng, t.count))
            b = rep_from_mults(t, _random_mults(rng, t.count))
            ab = rep_from_mults(t, tuple(x + y for x, y in zip(a.mults, b.mults)))
            ga = build_e_graph(a, conv).b_matrix
            gb = build_e_graph(b, conv).b_matrix
            gs = build_e_graph(ab, conv).b_matrix
            assert rows(gs) == [
                [ga[i, j] + gb[i, j] for j in range(ga.cols)]
                for i in range(ga.rows)
            ]

        # source criterion: zero row k of B exactly when m_k = 0
        for _ in range(500):
            t = table_for(rng.choice(POOL))
            conv = rng.choice(("paper-min", "module-count"))
            r = rep_from_mults(t, _random_mults(rng, t.count))
            g = build_e_graph(r, conv)
            sources, _ = sources_sinks(from_corr(g))
            for k in range(t.count):
                zero_row = all(g.b_matrix[k, i] == 0 for i in range(t.count))
                assert zero_row == (r.mults[k] == 0)
                assert (k in sources) == (r.mults[k] == 0)
            assert is_pi_injective(r) == (sources == ())

        # Smith normal form: exactness, unimodularity, divisibility, minors
        checked_minors = 0
        for _ in range(500):
            nr, nc = rng.randrange(1, 5), rng.randrange(1, 5)
            small = rng.random() < 0.6
            top = 2 if small else 9
            a = IntMatrix.from_rows(
                [
                    [rng.randrange(-top, top + 1) for _ in range(nc)]
                    for _ in range(nr)
                ]
            )
            s = smith_normal_form(a).s
            # the transforms come from the oracle, whose s must agree
            u, s_oracle, v = _carried_reduce(a).factors()
            assert s_oracle == s
            assert (u @ a @ v).entries == s.entries
            assert u.det() in (-1, 1) and v.det() in (-1, 1)
            diag = [s[i, i] for i in range(min(nr, nc))]
            assert all(x >= 0 for x in diag)
            for x, y in zip(diag, diag[1:]):
                assert (x == 0 and y == 0) or (x != 0 and y % x == 0)
            if nr <= 3 and nc <= 3 and small:
                checked_minors += 1
                prev = 1
                for k in range(1, min(nr, nc) + 1):
                    g = 0
                    for rsel in combinations(range(nr), k):
                        for csel in combinations(range(nc), k):
                            minor = IntMatrix.from_rows(
                                [[a[i, j] for j in csel] for i in rsel]
                            ).det()
                            g = gcd(g, minor)
                    want = 0 if g == 0 or prev == 0 else g // prev
                    assert diag[k - 1] == want
                    prev = g
        assert checked_minors >= 100

        # cross-path K-theory equality under the module-count convention
        for _ in range(500):
            t = table_for(rng.choice(POOL))
            r = rep_from_mults(t, _random_mults(rng, t.count))
            via_graph = ktheory_graph(from_corr(build_e_graph(r, "module-count")))
            assert kt(via_graph) == kt(ktheory_corr(r))


def test_criterion_7_crosspath_paper_min(capfd):
    """Cross-path K-theory equality under the paper-min convention.

    This is the one acceptance clause the package does not meet, on purpose:
    collapsing parallel edges to min(n_i, n_k) per occurrence changes the
    graph algebra's K-theory presentation whenever a block of dimension
    greater than one is hit with multiplicity, so the graph path and the
    bimodule path genuinely disagree. Smallest counterexample: the square of
    the two-dimensional irreducible of symmetric:3 has graph-path K_0 = 0
    but bimodule-path K_0 = Z/3. The module-count convention (previous test)
    agrees everywhere.
    """
    note = "cross-path K-theory under paper-min; known to be unattainable"
    with verdict(capfd, 7, note):
        rng = random.Random(20240814)
        mismatches = []
        cases = []
        t3 = table_for("symmetric:3")
        cases.append(rep_from_mults(t3, (1, 1, 1)))  # square of the 2-dim irrep
        for _ in range(499):
            t = table_for(rng.choice(POOL))
            cases.append(rep_from_mults(t, _random_mults(rng, t.count)))
        for r in cases:
            via_graph = kt(ktheory_graph(from_corr(build_e_graph(r, "paper-min"))))
            via_bimodule = kt(ktheory_corr(r))
            if via_graph != via_bimodule:
                mismatches.append((r.table.group.spec, r.mults, via_graph, via_bimodule))
        assert not mismatches, (
            f"{len(mismatches)}/{len(cases)} cases disagree; first: "
            f"group {mismatches[0][0]} mults {mismatches[0][1]} "
            f"graph {mismatches[0][2]} bimodule {mismatches[0][3]}"
        )


def test_criterion_8_tables_against_references(capfd):
    with verdict(capfd, 8, "cyclic formula and published tables"):
        def key(row):
            return tuple((c.nums, c.den) for c in row)

        for n in range(1, 13):
            t = table_for(f"cyclic:{n}")
            assert t.count == n
            got = sorted(
                (key(tuple(v.to_conductor(n) for v in row)) for row in t.values)
            )
            want = sorted(
                key(tuple(zeta(n, j * k).to_conductor(n) for k in range(n)))
                for j in range(n)
            )
            assert got == want
        for spec in (
            ["dihedral:2", "dihedral:3", "dihedral:4", "dihedral:5", "dihedral:6"]
            + ["symmetric:2", "symmetric:3", "symmetric:4", "symmetric:5"]
        ):
            loaded = load_table(expected_doc(spec))
            assert tables_equal_up_to_row_order(loaded, table_for(spec))


def test_criterion_9_semigroup_fragments(capfd):
    with verdict(capfd, 9, "line-filling semigroup fragments"):
        rng = random.Random(5)
        f = Frequency

        def rational(lo, hi):
            return f(Fraction(rng.randrange(lo, hi + 1), rng.randrange(1, 7)))

        # all-positive families are decidably false
        assert semigroup_r_check([f(Fraction(1)), f(Fraction(2))]) is False
        for _ in range(200):
            fam = [rational(1, 9) for _ in range(rng.randrange(1, 5))]
            if rng.random() < 0.5:
                fam.append(f(Fraction(rng.randrange(1, 5)), "theta"))
            assert semigroup_r_check(fam) is False

        # mixed-sign all-rational families are decidably false
        assert semigroup_r_check([f(Fraction(1)), f(Fraction(-1))]) is False
        for _ in range(200):
            fam = [rational(1, 9), rational(-9, -1)]
            fam += [rational(-9, 9) for _ in range(rng.randrange(0, 3))]
            assert semigroup_r_check(fam) is False

        # opposite signs with exactly one marked irrational: decidably true
        assert semigroup_r_check([f(Fraction(1)), f(Fraction(-1), "sqrt2")]) is True
        for _ in range(200):
            q = rational(1, 9)
            marked = f(Fraction(-rng.randrange(1, 5)), "theta")
            pair = [q, marked] if rng.random() < 0.5 else [marked, q]
            assert semigroup_r_check(pair) is True
