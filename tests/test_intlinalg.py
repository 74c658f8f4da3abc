import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repcorr.errors import SpecError, VerificationError
from repcorr.intlinalg import (
    IntMatrix,
    _check_snf,
    _reduce,
    coker_ker,
    format_matrix,
    parse_matrix,
    smith_normal_form,
)

# ---------------------------------------------------------------------------
# Reference oracle: the previous dense smith_normal_form, kept verbatim (only
# renamed). It certifies with a dense triple product and Bareiss determinants
# of the whole u and v.


def _reference_find_pivot(m: list[list[int]], start: int) -> tuple[int, int] | None:
    # Smallest nonzero absolute value; ties broken by lowest row, then column.
    best = None
    best_val = None
    for i in range(start, len(m)):
        for j in range(start, len(m[0]) if m else 0):
            v = abs(m[i][j])
            if v != 0 and (best_val is None or v < best_val):
                best, best_val = (i, j), v
    return best


def _reference_snf(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (u, s, v) with u*a*v = s, u and v unimodular, s diagonal with
    each diagonal entry nonnegative and dividing the next.

    The reduction is fully deterministic: the pivot is always the entry of
    smallest nonzero absolute value (lowest row, then column, on ties).
    """
    nr, nc = a.rows, a.cols
    s = [list(row) for row in a.entries]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def row_op(i: int, k: int, q: int) -> None:
        # row i -= q * row k, mirrored into u
        for j in range(nc):
            s[i][j] -= q * s[k][j]
        for j in range(nr):
            u[i][j] -= q * u[k][j]

    def col_op(j: int, k: int, q: int) -> None:
        # col j -= q * col k, mirrored into v
        for i in range(nr):
            s[i][j] -= q * s[i][k]
        for i in range(nc):
            v[i][j] -= q * v[i][k]

    def swap_rows(i: int, k: int) -> None:
        s[i], s[k] = s[k], s[i]
        u[i], u[k] = u[k], u[i]

    def swap_cols(j: int, k: int) -> None:
        for row in s:
            row[j], row[k] = row[k], row[j]
        for row in v:
            row[j], row[k] = row[k], row[j]

    t = 0
    limit = min(nr, nc)
    while t < limit:
        pos = _reference_find_pivot(s, t)
        if pos is None:
            break
        while True:
            i, j = pos
            if (i, j) != (t, t):
                if i != t:
                    swap_rows(i, t)
                if j != t:
                    swap_cols(j, t)
            if s[t][t] < 0:
                for j2 in range(nc):
                    s[t][j2] = -s[t][j2]
                for j2 in range(nr):
                    u[t][j2] = -u[t][j2]
            p = s[t][t]
            dirty = False
            for i2 in range(t + 1, nr):
                if s[i2][t] != 0:
                    row_op(i2, t, s[i2][t] // p)
                    if s[i2][t] != 0:
                        dirty = True
            for j2 in range(t + 1, nc):
                if s[t][j2] != 0:
                    col_op(j2, t, s[t][j2] // p)
                    if s[t][j2] != 0:
                        dirty = True
            if not dirty:
                # Pivot must divide everything below and to the right.
                offender = None
                for i2 in range(t + 1, nr):
                    for j2 in range(t + 1, nc):
                        if s[i2][j2] % p != 0:
                            offender = i2
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                row_op(t, offender, -1)  # pull the offending row up, re-clear
            pos = _reference_find_pivot(s, t)
        t += 1

    um = IntMatrix.from_rows(u)
    sm = IntMatrix.from_rows(s) if nr else IntMatrix.zeros(0, nc)
    vm = IntMatrix.from_rows(v) if nc else IntMatrix.zeros(nc, nc)
    if nr == 0:
        sm = IntMatrix.zeros(0, nc)
    _reference_check_snf(a, um, sm, vm)
    return um, sm, vm


def _reference_check_snf(a: IntMatrix, u: IntMatrix, s: IntMatrix, v: IntMatrix) -> None:
    if u.matmul(a).matmul(v).entries != s.entries:
        raise VerificationError("SNF check failed: u*a*v != s")
    if a.rows and u.det() not in (1, -1):
        raise VerificationError("SNF check failed: u not unimodular")
    if a.cols and v.det() not in (1, -1):
        raise VerificationError("SNF check failed: v not unimodular")
    diag = [s.entries[i][i] for i in range(min(s.rows, s.cols))]
    for i in range(s.rows):
        for j in range(s.cols):
            if i != j and s.entries[i][j] != 0:
                raise VerificationError("SNF check failed: s not diagonal")
    for d1, d2 in zip(diag, diag[1:]):
        if d1 < 0 or d2 < 0 or (d1 == 0 and d2 != 0) or (d1 != 0 and d2 % d1 != 0):
            raise VerificationError("SNF check failed: divisibility chain broken")


def _minor_gcds_oracle(a: IntMatrix) -> list[int]:
    """Invariant factors via gcds of k x k minors: d_k = g_k / g_{k-1}."""
    n = min(a.rows, a.cols)
    gs = [1]
    for k in range(1, n + 1):
        g = 0
        for rows in combinations(range(a.rows), k):
            for cols in combinations(range(a.cols), k):
                sub = IntMatrix.from_rows(
                    [[a.entries[i][j] for j in cols] for i in rows]
                )
                g = gcd(g, sub.det())
        gs.append(g)
    out = []
    for k in range(1, n + 1):
        if gs[k] == 0:
            out.append(0)
        else:
            out.append(gs[k] // gs[k - 1])
    return out


def _diag(s: IntMatrix) -> list[int]:
    return [s.entries[i][i] for i in range(min(s.rows, s.cols))]


def test_snf_worked_example():
    a = parse_matrix("0 1; 1 1; 1 1")
    u, s, v = smith_normal_form(a)
    assert _diag(s) == [1, 1]
    assert s.rows == 3 and s.cols == 2
    assert all(s.entries[2][j] == 0 for j in range(2))
    assert u.matmul(a).matmul(v).entries == s.entries


def test_snf_divisibility_example():
    a = parse_matrix("2 4; 6 8")
    _, s, _ = smith_normal_form(a)
    assert _diag(s) == [2, 4]
    assert abs(a.det()) == 8


def test_snf_zero_matrix():
    a = IntMatrix.zeros(3, 2)
    u, s, v = smith_normal_form(a)
    assert _diag(s) == [0, 0]
    assert u.det() in (1, -1) and v.det() in (1, -1)


def test_snf_empty_shapes():
    for rows, cols in [(0, 3), (3, 0), (0, 0)]:
        a = IntMatrix.zeros(rows, cols)
        _, s, _ = smith_normal_form(a)
        assert s.rows == rows and s.cols == cols
    kg = coker_ker(IntMatrix.zeros(3, 0))
    assert kg.k0_free_rank == 3 and kg.k0_torsion == () and kg.k1_rank == 0


def test_coker_ker_pimsner_regular_s3_matrix():
    a = parse_matrix("0 -1 -2; -1 0 -2; -2 -2 -3")
    kg = coker_ker(a)
    assert kg.k0_free_rank == 0
    assert kg.k0_torsion == (5,)
    assert kg.k1_rank == 0
    assert kg.k0_pretty() == "Z/5"
    assert kg.k1_pretty() == "0"


def test_coker_free_part():
    a = parse_matrix("0 1; 1 1; 1 1")
    kg = coker_ker(a)
    assert kg.k0_free_rank == 1 and kg.k0_torsion == () and kg.k1_rank == 0


def test_snf_random_against_minor_gcds():
    rng = random.Random(1)
    for _ in range(500):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        a = IntMatrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        )
        _, s, _ = smith_normal_form(a)
        assert _diag(s) == _minor_gcds_oracle(a)


def test_snf_random_factor_properties():
    rng = random.Random(2)
    for _ in range(500):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        u, s, v = smith_normal_form(a)
        assert u.matmul(a).matmul(v).entries == s.entries
        assert u.det() in (1, -1)
        assert v.det() in (1, -1)
        d = _diag(s)
        for x, y in zip(d, d[1:]):
            assert x >= 0 and y >= 0
            if x == 0:
                assert y == 0
            else:
                assert y % x == 0


def _random_unimodular(rng: random.Random, n: int) -> IntMatrix:
    m = IntMatrix.identity(n)
    rows = [list(r) for r in m.entries]
    for _ in range(10):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-3, 3)
        for k in range(n):
            rows[i][k] += q * rows[j][k]
    return IntMatrix.from_rows(rows)


def test_coker_ker_unimodular_invariance():
    rng = random.Random(3)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = IntMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        )
        p = _random_unimodular(rng, rows)
        q = _random_unimodular(rng, cols)
        assert coker_ker(a) == coker_ker(p.matmul(a).matmul(q))


def test_matrix_text_roundtrip():
    a = parse_matrix("0 -1; -1 0; -1 -2")
    assert a.rows == 3 and a.cols == 2
    assert parse_matrix(format_matrix(a)).entries == a.entries


def test_parse_matrix_rejects_garbage():
    with pytest.raises(SpecError):
        parse_matrix("1 x; 2 3")
    with pytest.raises(SpecError):
        parse_matrix("1 2; 3")
    with pytest.raises(SpecError):
        parse_matrix("   ")


def test_det_bareiss_matches_expansion():
    rng = random.Random(4)

    def det_expand(rows):
        n = len(rows)
        if n == 0:
            return 1
        if n == 1:
            return rows[0][0]
        total = 0
        for j in range(n):
            sub = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * det_expand(sub)
        return total

    for _ in range(200):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert IntMatrix.from_rows(rows).det() == det_expand(rows)


# ---------------------------------------------------------------------------
# the certificate


def _reduction_of(rows):
    a = IntMatrix.from_rows(rows)
    r = _reduce(a)
    _check_snf(a, r)  # the honest reduction passes
    return a, r


def _with_row_doubled(m: IntMatrix, i: int) -> IntMatrix:
    rows = [list(row) for row in m.entries]
    rows[i] = [2 * x for x in rows[i]]
    return IntMatrix.from_rows(rows)


def test_certificate_rejects_phase1_u_with_row_doubled():
    # A zero row of a leaves u*a*v = s intact when u's last row is doubled;
    # only the unimodularity check (u * u1_inv = diag(I_k, u2)) can see it.
    a, r = _reduction_of([[1, 0], [0, 0]])
    assert r.units == 1
    bad = r._replace(u=_with_row_doubled(r.u, 1))
    assert (bad.u @ a @ bad.v).entries == bad.s.entries
    with pytest.raises(VerificationError, match="u not unimodular"):
        _check_snf(a, bad)


def test_certificate_rejects_phase2_u_with_row_doubled():
    # No unit pivot: u1 = I, so B is u itself, certified by det B.
    a, r = _reduction_of([[0, 0], [0, 0]])
    assert r.units == 0
    bad = r._replace(u=_with_row_doubled(r.u, 0))
    assert bad.u.det() == 2
    with pytest.raises(VerificationError, match="u not unimodular"):
        _check_snf(a, bad)


def test_certificate_rejects_v_with_column_doubled():
    a, r = _reduction_of([[1, 0], [0, 0]])
    bad = r._replace(v=_with_row_doubled(r.v.transpose(), 1).transpose())
    assert (bad.u @ a @ bad.v).entries == bad.s.entries
    with pytest.raises(VerificationError, match="v not unimodular"):
        _check_snf(a, bad)


def _trivial_reduction(rows):
    """u = v = I and s = a: honest except where a itself is not in SNF."""
    a = IntMatrix.from_rows(rows)
    return a, _reduce(IntMatrix.zeros(a.rows, a.cols))._replace(s=a)


def test_certificate_rejects_offdiagonal_s():
    a, r = _trivial_reduction([[1, 1], [0, 1]])
    with pytest.raises(VerificationError, match="not diagonal"):
        _check_snf(a, r)


def test_certificate_rejects_broken_divisibility():
    for rows in ([[2, 0], [0, 3]], [[0, 0], [0, 1]], [[-1, 0], [0, 1]]):
        a, r = _trivial_reduction(rows)
        with pytest.raises(VerificationError, match="divisibility"):
            _check_snf(a, r)


def test_certificate_rejects_wrong_product():
    a, r = _reduction_of([[2, 4], [6, 8]])
    s = [list(row) for row in r.s.entries]
    s[1][1] *= 2  # still diagonal with a divisibility chain
    with pytest.raises(VerificationError, match=r"u\*a\*v != s"):
        _check_snf(a, r._replace(s=IntMatrix.from_rows(s)))
    v = [list(row) for row in r.v.entries]
    v[0][1] += 1
    with pytest.raises(VerificationError, match=r"u\*a\*v != s"):
        _check_snf(a, r._replace(v=IntMatrix.from_rows(v)))


def test_reduction_clears_unit_pivots_of_a_skew_presentation():
    # a^t - I of the 3-loop skew product over Z/5: all +-1, so phase 1
    # leaves a remainder of one row and one column.
    n = 5
    rows = [[(1 if (i - j) % n in (1, 2) else 0) - (i == j) for j in range(n)] for i in range(n)]
    a, r = _reduction_of(rows)
    assert r.units == n - 1
    assert _diag(r.s) == _diag(_reference_snf(a)[1])


def test_unit_pivot_rule_is_least_markowitz_cost_then_lowest_row():
    # (0,0) and (1,1) both cost 0; the tie goes to row 0, so no row operation
    # is needed and column 1 is cleared by one column operation.
    u, _, v = smith_normal_form(parse_matrix("1 1; 0 1"))
    assert u.entries == ((1, 0), (0, 1))
    assert v.entries == ((1, -1), (0, 1))
    # Row 0 has no zero-cost entry, (2,1) costs 0: it is the first pivot,
    # then (0,0); u and v put the pivots in that order.
    u, s, v = smith_normal_form(parse_matrix("1 1; 1 1; 0 1"))
    assert u.entries == ((0, 0, 1), (1, 0, -1), (-1, 1, 0))
    assert v.entries == ((0, 1), (1, 0))
    assert _diag(s) == [1, 1]
    # Equal cost within a row: the lower column wins.
    _, _, v = smith_normal_form(parse_matrix("1 1"))
    assert v.entries == ((1, -1), (0, 1))


# ---------------------------------------------------------------------------
# property test against the reference oracle and the minor-gcd oracle


def _matrices(max_rows, max_cols, entries):
    return st.integers(0, max_rows).flatmap(
        lambda nr: st.integers(0, max_cols).flatmap(
            lambda nc: st.lists(
                st.lists(entries, min_size=nc, max_size=nc), min_size=nr, max_size=nr
            ).map(lambda rows: IntMatrix(nr, nc, tuple(tuple(r) for r in rows)))
        )
    )


_SPARSE_UNIT = st.sampled_from([0, 0, 0, 0, 0, 1, -1, 1, -1, 2])
_DENSE = st.integers(-9, 9)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.one_of(
        _matrices(15, 15, _SPARSE_UNIT),
        _matrices(8, 8, _DENSE),
        _matrices(3, 3, st.just(0)),
    )
)
def test_snf_matches_reference_oracles(a):
    u, s, v = smith_normal_form(a)
    _, s_ref, _ = _reference_snf(a)
    assert s.entries == s_ref.entries
    assert (u @ a @ v).entries == s.entries
    if a.rows <= 4 and a.cols <= 4:
        assert _diag(s) == _minor_gcds_oracle(a)
