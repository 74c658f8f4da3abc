import random
from itertools import combinations
from math import gcd
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import delete_columns, dense_matrix, matmul
from snf_oracle import (
    _carried_check_snf,
    _carried_reduce,
    _sparse_mul,
)

from repcorr import intlinalg
from repcorr.errors import SpecError, VerificationError
from repcorr.graphs import SkewSpec, ktheory_graph, skew_product
from repcorr.intlinalg import (
    IntMatrix,
    KGroups,
    SmithForm,
    _axpy,
    _check_snf,
    _nearest,
    _reduce,
    _sparse_rows,
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
    if matmul(u, a, v).entries != s.entries:
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


# ---------------------------------------------------------------------------
# Reference oracle: the previous one-loop sparse reduction and its certificate,
# kept verbatim (only renamed). It carries whole-width transforms through the
# Euclid part and certifies with the whole-matrix product u*a*v.


class _ParentReduction(NamedTuple):
    """A Smith reduction with the data that certifies it.

    Rows of u and s, and columns of s and v, are in pivot order: the pivots
    in the order they were retired, then the rest by index. u1 and v1 are the
    transforms after the first k = units pivots, all units, and no other
    operation; u1_inv and v1_inv are their exact inverses as sparse rows, in
    the same order. Every later operation stays off those k rows and columns,
    so u = diag(I_k, B) * u1 and v = v1 * diag(I_k, C).
    """

    u: IntMatrix
    s: IntMatrix
    v: IntMatrix
    units: int
    u1_inv: list[dict[int, int]]
    v1_inv: list[dict[int, int]]


def _parent_reduce(a: IntMatrix) -> _ParentReduction:
    """The elimination loop described in smith_normal_form, uncertified."""
    nr, nc = a.rows, a.cols
    # The active block: rows[i] holds row i's entries in active columns,
    # cols[j] the active rows with an entry in column j. Both dicts keep
    # increasing index order, as keys are only removed.
    rows = dict(enumerate(_sparse_rows(a)))
    cols: dict[int, set[int]] = {j: set() for j in range(nc)}
    for i, row in rows.items():
        for j in row:
            cols[j].add(i)
    u = [{i: 1} for i in range(nr)]  # rows of u
    v = [{j: 1} for j in range(nc)]  # columns of v
    u1_inv = [{i: 1} for i in range(nr)]  # columns of u1^-1
    v1_inv = [{j: 1} for j in range(nc)]  # rows of v1^-1
    units = None  # set at the first non-unit pivot, where the inverses stop
    pivots: list[tuple[int, int, int]] = []

    def sub(k: int, c: int, vec: dict[int, int]) -> None:
        # Block row k -= c * vec, keeping cols in step.
        rk = rows[k]
        for l, x in vec.items():
            y = rk.get(l, 0) - c * x
            if y:
                rk[l] = y
                cols[l].add(k)
            else:
                del rk[l]
                cols[l].discard(k)

    def row_op(k: int, q: int, i: int) -> None:
        # Row k -= q * row i, so u row k -= q * u row i and, inversely,
        # u1^-1 column i += q * u1^-1 column k.
        sub(k, q, rows[i])
        _axpy(u[k], -q, u[i])
        if units is None:
            _axpy(u1_inv[i], q, u1_inv[k])

    while True:
        best = None
        for i, row in rows.items():
            r1 = len(row) - 1
            for j, x in row.items():
                ax = abs(x)
                if best is None or ax <= best[0]:
                    key = (ax, r1 * (len(cols[j]) - 1), i, j)
                    if best is None or key < best:
                        best = key
            if best is not None and best[:2] == (1, 0):
                break  # a later row can only tie, and ties go to the lower row
        if best is None:
            break
        ax, _, i, j = best
        prow = rows[i]
        p = prow[j]
        if ax != 1 and units is None:
            units = len(pivots)
        for k in [k for k in cols[j] if k != i]:
            row_op(k, _nearest(rows[k][j], p), i)
        # Clear row i: col l -= q * col j, mirrored the same way into v, v1^-1.
        qs = {l: q for l, x in prow.items() if l != j and (q := _nearest(x, p))}
        for k in cols[j]:
            sub(k, rows[k][j], qs)
        for l, q in qs.items():
            _axpy(v[l], -q, v[j])
            if units is None:
                _axpy(v1_inv[j], q, v1_inv[l])
        if len(prow) > 1 or len(cols[j]) > 1:
            continue  # a remainder is left, so the next pivot is smaller
        if ax != 1:
            bad = next((k for k, rk in rows.items() if any(x % p for x in rk.values())), None)
            if bad is not None:
                row_op(i, -1, bad)  # pull the first offending row up, re-clear
                continue
        del rows[i], cols[j]
        if p < 0:
            u[i] = {m: -y for m, y in u[i].items()}
            if units is None:
                u1_inv[i] = {m: -y for m, y in u1_inv[i].items()}
        pivots.append((i, j, ax))

    row_order = [i for i, _, _ in pivots] + list(rows)
    col_order = [j for _, j, _ in pivots] + list(cols)
    w_rows: list[dict[int, int]] = [{} for _ in range(nr)]
    for t, i in enumerate(row_order):
        for m, x in u1_inv[i].items():
            w_rows[m][t] = x
    s = [[0] * nc for _ in range(nr)]
    for t, (_, _, d) in enumerate(pivots):
        s[t][t] = d
    return _ParentReduction(
        u=dense_matrix(nr, nr, tuple(tuple(u[i].get(m, 0) for m in range(nr)) for i in row_order)),
        s=dense_matrix(nr, nc, tuple(tuple(row) for row in s)),
        v=dense_matrix(nc, nc, tuple(tuple(v[j].get(m, 0) for j in col_order) for m in range(nc))),
        units=len(pivots) if units is None else units,
        u1_inv=w_rows,
        v1_inv=[v1_inv[j] for j in col_order],
    )


def _parent_is_unit_block(m: list[dict[int, int]], k: int) -> bool:
    """Whether the n x n sparse rows m are diag(I_k, B) with det B = +-1."""
    n = len(m)
    if any(m[t] != {t: 1} for t in range(k)) or any(
        not k <= c < n for row in m[k:] for c in row
    ):
        return False
    b = tuple(tuple(row.get(c, 0) for c in range(k, n)) for row in m[k:])
    return dense_matrix(n - k, n - k, b).det() in (1, -1)


def _parent_check_snf(a: IntMatrix, r: _ParentReduction) -> None:
    """Certify a reduction exactly, or raise VerificationError: u*a*v = s by
    a product that skips zeros, u * u1_inv = diag(I_k, B) and v1_inv * v =
    diag(I_k, C) with det B = det C = +-1, and s diagonal with a nonnegative
    divisibility chain. smith_normal_form's docstring proves that this makes
    u and v unimodular.
    """
    u, s, v = r.u, r.s, r.v
    nr, nc, k = a.rows, a.cols, r.units
    shapes = (u.rows, u.cols, s.rows, s.cols, v.rows, v.cols, len(r.u1_inv), len(r.v1_inv))
    if shapes != (nr, nr, nr, nc, nc, nc, nr, nc) or not 0 <= k <= min(nr, nc):
        raise VerificationError("SNF check failed: factor shapes do not match")
    su, sv = _sparse_rows(u), _sparse_rows(v)
    if _sparse_mul(_sparse_mul(su, _sparse_rows(a)), sv) != _sparse_rows(s):
        raise VerificationError("SNF check failed: u*a*v != s")
    if not _parent_is_unit_block(_sparse_mul(su, r.u1_inv), k):
        raise VerificationError("SNF check failed: u not unimodular")
    if not _parent_is_unit_block(_sparse_mul(r.v1_inv, sv), k):
        raise VerificationError("SNF check failed: v not unimodular")
    diag = [s.entries[i][i] for i in range(min(s.rows, s.cols))]
    for i in range(s.rows):
        for j in range(s.cols):
            if i != j and s.entries[i][j] != 0:
                raise VerificationError("SNF check failed: s not diagonal")
    for d1, d2 in zip(diag, diag[1:]):
        if d1 < 0 or d2 < 0 or (d1 == 0 and d2 != 0) or (d1 != 0 and d2 % d1 != 0):
            raise VerificationError("SNF check failed: divisibility chain broken")


def _carried_kgroups(a: IntMatrix) -> KGroups:
    """coker_ker as it was: certified factors, then s's diagonal."""
    r = _carried_reduce(a)
    _carried_check_snf(a, r)
    d = _diag(r.factors()[1])
    rank = sum(1 for x in d if x)
    return KGroups(a.rows - rank, tuple(x for x in d if x > 1), a.cols - rank)


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


def _oracle_factors(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """(u, s, v) from the transform oracle, whose s must be smith_normal_form's."""
    u, s, v = _carried_reduce(a).factors()
    assert s == smith_normal_form(a).s
    return u, s, v


def test_snf_worked_example():
    a = parse_matrix("0 1; 1 1; 1 1")
    u, s, v = _oracle_factors(a)
    assert _diag(s) == [1, 1]
    assert s.rows == 3 and s.cols == 2
    assert all(s.entries[2][j] == 0 for j in range(2))
    assert matmul(u, a, v).entries == s.entries


def test_snf_divisibility_example():
    a = parse_matrix("2 4; 6 8")
    s = smith_normal_form(a).s
    assert _diag(s) == [2, 4]
    assert abs(a.det()) == 8


def test_snf_zero_matrix():
    a = IntMatrix.zeros(3, 2)
    u, s, v = _oracle_factors(a)
    assert _diag(s) == [0, 0]
    assert u.det() in (1, -1) and v.det() in (1, -1)


def test_snf_empty_shapes():
    for rows, cols in [(0, 3), (3, 0), (0, 0)]:
        a = IntMatrix.zeros(rows, cols)
        s = smith_normal_form(a).s
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
        s = smith_normal_form(a).s
        assert _diag(s) == _minor_gcds_oracle(a)


def test_snf_random_factor_properties():
    rng = random.Random(2)
    for _ in range(500):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        u, s, v = _oracle_factors(a)
        assert matmul(u, a, v).entries == s.entries
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
        assert coker_ker(a) == coker_ker(matmul(p, a, q))


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
# the certificate: one tampering test per clause


def _check(a: IntMatrix, r) -> None:
    _check_snf(_sparse_rows(a), a.cols, r)


def _reduction_of(rows):
    a = IntMatrix.from_rows(rows)
    r = _reduce(_sparse_rows(a), a.cols)
    _check(a, r)  # the honest reduction passes
    return a, r


def test_certificate_rejects_factor_shapes():
    # B = [[2, 0]] is not square, so the remainder loop runs exactly.
    a, r = _reduction_of([[1, 0, 0], [0, 2, 0]])
    with pytest.raises(VerificationError, match="factor shapes"):
        _check(a, r._replace(pivots=r.pivots + [(1, 1)]))
    # The right number of pivots, but a pivot row outside a.
    with pytest.raises(VerificationError, match="factor shapes"):
        _check(a, r._replace(pivots=[(2, 0)]))
    # A remainder pivot repeated: still a divisibility chain, but no
    # one-to-one map into the remainder's shape.
    assert r.pivots2 == [(0, 0, 2)]
    with pytest.raises(VerificationError, match="factor shapes"):
        _check(a, r._replace(pivots2=r.pivots2 * 2))


def test_certificate_rejects_phase1_u_with_row_doubled():
    # A zero row of a leaves u1*a*v1 = diag(I_k, B) intact when u1's last
    # row is doubled, here by row 1 -= -1 * row 1; only the clause k != i of
    # the replay can see it.
    a, r = _reduction_of([[1, 0], [0, 0]])
    assert r.units == 1
    rows = _sparse_rows(a)
    _axpy(rows[1], 1, rows[1])
    assert rows == _sparse_rows(a)
    with pytest.raises(VerificationError, match="row operation not elementary"):
        _check(a, r._replace(log=r.log + [("row", 1, -1, 1)]))


def test_certificate_rejects_phase2_u_with_row_doubled():
    # No unit pivot and det B = 0: empty logs and the exact loop. Doubling
    # row 1 of u2 by row 1 -= -1 * row 1 in the remainder's log leaves
    # u2*B*v2 = s2 intact on this zero B; only the clause k != i can see it.
    a, r = _reduction_of([[0, 0], [0, 0]])
    assert r.units == 0 and r.log == r.log2 == [] and r.mod == 0
    with pytest.raises(VerificationError, match="row operation not elementary"):
        _check(a, r._replace(log2=[("row", 1, -1, 1)]))


def test_certificate_rejects_v_with_column_doubled():
    # Column 1 of a is zero, so doubling it by column 1 -= -1 * column 1
    # leaves the replay intact; only the clause that j is not a key sees it.
    a, r = _reduction_of([[1, 0], [0, 0]])
    with pytest.raises(VerificationError, match="column clear not elementary"):
        _check(a, r._replace(log=r.log + [("col", 1, {1: -1})]))
    # The same for v2, in the remainder's log.
    a, r = _reduction_of([[0, 0], [0, 0]])
    with pytest.raises(VerificationError, match="column clear not elementary"):
        _check(a, r._replace(log2=[("col", 1, {1: -1})]))


def test_certificate_rejects_a_changed_multiplier():
    # Pivot (0, 0): row 1 -= 3 * row 0, then column 1 -= 2 * column 0.
    a, r = _reduction_of([[1, 2], [3, 8]])
    assert r.log == [("row", 1, 3, 0), ("col", 0, {1: 2})]
    for log in ([("row", 1, 4, 0), r.log[1]], [r.log[0], ("col", 0, {1: 3})]):
        with pytest.raises(VerificationError, match=r"u1\*a\*v1 != diag\(I, B\)"):
            _check(a, r._replace(log=log))


def test_certificate_rejects_a_changed_multiplier_in_the_remainder_log():
    # No unit and a non-square B, so the remainder loop runs on B itself.
    a, r = _reduction_of([[2, 4, 0], [6, 8, 0]])
    assert r.units == 0 and r.mod == 0
    assert r.log2 == [("row", 1, 3, 0), ("col", 0, {1: 2}), ("neg", 1)]
    for log2 in ([("row", 1, 4, 0)] + r.log2[1:],
                 [r.log2[0], ("col", 0, {1: 3}), r.log2[2]]):
        with pytest.raises(VerificationError, match=r"u2\*B\*v2 is not diag\(s2\)"):
            _check(a, r._replace(log2=log2))


def test_certificate_rejects_a_dropped_negation():
    a, r = _reduction_of([[-1, 0], [0, 2]])
    assert r.log == [("neg", 0)]
    with pytest.raises(VerificationError, match=r"u1\*a\*v1 != diag\(I, B\)"):
        _check(a, r._replace(log=[]))


def test_certificate_rejects_a_dropped_negation_in_the_remainder_log():
    # The pivot -2 is retired as 2 by a negation of its row.
    a, r = _reduction_of([[-2, 0]])
    assert r.pivots2 == [(0, 0, 2)] and r.log2 == [("neg", 0)]
    with pytest.raises(VerificationError, match=r"u2\*B\*v2 is not diag\(s2\)"):
        _check(a, r._replace(log2=[]))


def test_certificate_rejects_a_row_doubling_in_the_remainder_log():
    # In the loop modulo N, row 0 -= -1 * row 0 doubles a row of u2.
    a, r = _reduction_of([[2, 4], [6, 8]])
    assert r.mod == 2
    with pytest.raises(VerificationError, match="row operation not elementary"):
        _check(a, r._replace(log2=r.log2 + [("row", 0, -1, 0)]))


def test_certificate_refuses_other_operations():
    a, r = _reduction_of([[1, 0], [0, 0]])
    for op in (("scale", 1, 2), ("row", 1, 1), ("row", 1, 1, 2), ("row", 1, 1, -1),
               ("row", 1, 1 / 2, 0), ("neg", 2), ("col", 0, {2: 1}), ("col", 0, {1: 0.5})):
        with pytest.raises(VerificationError, match="not elementary|unknown operation"):
            _check(a, r._replace(log=r.log + [op]))


def _trivial_reduction(rows):
    """Empty logs, B = a and the claim s2 = diag(a): honest except where a
    itself is not in SNF."""
    a = IntMatrix.from_rows(rows)
    zero = IntMatrix.zeros(a.rows, a.cols)
    pivots2 = [(t, t, a.entries[t][t]) for t in range(min(a.rows, a.cols))]
    return a, _reduce(_sparse_rows(zero), zero.cols)._replace(b=a, pivots2=pivots2)


def test_certificate_rejects_offdiagonal_s():
    a, r = _trivial_reduction([[1, 1], [0, 1]])
    with pytest.raises(VerificationError, match="not diag"):
        _check(a, r)


def test_certificate_rejects_broken_divisibility():
    for rows in ([[2, 0], [0, 3]], [[0, 0], [0, 1]], [[-1, 0], [0, 1]], [[-2]]):
        a, r = _trivial_reduction(rows)
        with pytest.raises(VerificationError, match="divisibility"):
            _check(a, r)


def test_certificate_rejects_wrong_product():
    # The unit phase: a remainder B that the replayed log does not give.
    a, r = _reduction_of([[1, 2], [3, 8]])
    assert r.units == 1 and r.b.entries == ((2,),)
    with pytest.raises(VerificationError, match=r"u1\*a\*v1 != diag\(I, B\)"):
        _check(a, r._replace(b=IntMatrix.from_rows([[4]])))
    # The exact remainder loop: the last d doubled, still a divisibility
    # chain, and a column clear appended to the remainder's log.
    a, r = _reduction_of([[2, 4, 0], [6, 8, 0]])
    assert r.mod == 0 and r.pivots2 == [(0, 0, 2), (1, 1, 4)]
    with pytest.raises(VerificationError, match=r"u2\*B\*v2 is not diag\(s2\)"):
        _check(a, r._replace(pivots2=[(0, 0, 2), (1, 1, 8)]))
    with pytest.raises(VerificationError, match=r"u2\*B\*v2 is not diag\(s2\)"):
        _check(a, r._replace(log2=r.log2 + [("col", 0, {1: 1})]))


def test_certificate_rejects_a_wrong_modulus():
    # Z/6 + Z/10 + Z/15: N = gcd(det B, y) = 30.
    a, r = _reduction_of([[6, 0, 0], [0, 10, 0], [0, 0, 15]])
    assert r.mod == 30
    for mod in (60, 15, 1):
        with pytest.raises(VerificationError, match=r"N != gcd\(det B, y\)"):
            _check(a, r._replace(mod=mod))
    # Read as exact, the log taken modulo 30 does not replay.
    with pytest.raises(VerificationError, match=r"u2\*B\*v2 is not diag\(s2\)"):
        _check(a, r._replace(mod=0))
    # A modulus claimed for a remainder that is not square.
    a, r = _reduction_of([[2, 4, 0], [6, 8, 0]])
    with pytest.raises(VerificationError, match="factor shapes"):
        _check(a, r._replace(mod=2))


def test_certificate_rejects_a_wrong_solution():
    a, r = _reduction_of([[6, 0, 0], [0, 10, 0], [0, 0, 15]])
    y0, y1 = r.ys
    for ys in (((y0[0] + 1,) + y0[1:], y1), (y0,), (y0[:2], y1), (y0, y1, y1)):
        with pytest.raises(VerificationError, match=r"B\*y != det\(B\)\*v"):
            _check(a, r._replace(ys=ys))


def test_certificate_rejects_a_modular_log_that_does_not_replay():
    a, r = _reduction_of([[6, 0, 0], [0, 10, 0], [0, 0, 15]])
    assert r.mod == 30 and r.log2[0] == ("row", 0, -1, 1)
    # The log is checked modulo N, so a multiplier moved by N still replays.
    _check(a, r._replace(log2=[("row", 0, 29, 1)] + r.log2[1:]))
    for op in (("row", 0, 0, 1), ("row", 0, -1, 2), ("neg", 0)):
        with pytest.raises(VerificationError, match=r"u2\*B\*v2 is not diag\(s2\)"):
            _check(a, r._replace(log2=[op] + r.log2[1:]))
    with pytest.raises(VerificationError, match=r"u2\*B\*v2 is not diag\(s2\)"):
        _check(a, r._replace(log2=r.log2[:-1]))


def test_certificate_rejects_a_last_factor_off_its_residue():
    # Z/2 + Z/4: N = 2, B = 0 modulo 2, so t = (2, 2) and s = (2, 8/2).
    a, r = _reduction_of([[2, 0], [0, 4]])
    assert (r.mod, r.pivots2) == (2, []) and smith_normal_form(a).diagonal == (2, 4)
    # Two claimed unit pivots give t = (1, 1) and the chain s = (1, 8), but
    # gcd(8, N) = 2 != t_2.
    with pytest.raises(VerificationError, match=r"gcd\(s_m, N\) != t_m"):
        _check(a, r._replace(pivots2=[(0, 0, 1), (1, 1, 1)]))


def test_reduction_clears_unit_pivots_of_a_skew_presentation():
    # a^t - I of the 3-loop skew product over Z/5: all +-1, so phase 1
    # leaves a remainder of one row and one column.
    n = 5
    rows = [[(1 if (i - j) % n in (1, 2) else 0) - (i == j) for j in range(n)] for i in range(n)]
    a, r = _reduction_of(rows)
    assert r.units == n - 1
    assert _diag(smith_normal_form(a).s) == _diag(_reference_snf(a)[1])


def test_both_remainder_paths_run():
    rng = random.Random(12)
    dense = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(12)] for _ in range(12)])
    a, r = _reduction_of(dense.entries)
    # The modular route: N = 1 here, as coker B is cyclic, so no pivot is
    # left modulo N and s2 is (1, ..., 1, |det B|).
    assert r.b.rows == r.b.cols > 0 and r.mod == 1 and r.pivots2 == r.log2 == []
    assert smith_normal_form(a).diagonal[-1] == abs(a.det())
    # Z/6 + Z/10 + Z/15 = Z/30 + Z/30: N = 30, and the loop runs modulo N.
    a, r = _reduction_of([[6, 0, 0], [0, 10, 0], [0, 0, 15]])
    assert r.units == 0 and r.mod == 30 and r.pivots2 and r.log2
    assert smith_normal_form(a).diagonal == (1, 30, 30)
    # rank 2 in a 4x4 square with no unit: det B = 0, so the exact loop.
    low = matmul(IntMatrix.from_rows([[2, 4], [6, 2], [4, 8], [2, 6]]),
                 IntMatrix.from_rows([[2, 0, 4, 6], [0, 2, 2, 4]]))
    a, r = _reduction_of(low.entries)
    assert r.units == 0 and r.b.rows == r.b.cols == 4 and r.mod == 0


def test_transforms_stay_near_the_determinant_size():
    # The two-factor reduction's transforms, from the oracle; the single loop
    # before it reached 2,759-2,937 bits on these inputs.
    for seed in range(3):
        rng = random.Random(seed)
        a = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(40)] for _ in range(40)])
        u, _, v = _oracle_factors(a)
        bits = max(abs(x).bit_length() for m in (u, v) for row in m.entries for x in row)
        assert bits < 400, (seed, bits)


def test_unit_pivot_rule_is_least_markowitz_cost_then_lowest_row():
    # (0,0) and (1,1) both cost 0; the tie goes to row 0, so no row operation
    # is needed and column 1 is cleared by one column operation. The
    # transforms come from the oracle, which pivots by the same rule.
    u, _, v = _oracle_factors(parse_matrix("1 1; 0 1"))
    assert u.entries == ((1, 0), (0, 1))
    assert v.entries == ((1, -1), (0, 1))
    # Row 0 has no zero-cost entry, (2,1) costs 0: it is the first pivot,
    # then (0,0); u and v put the pivots in that order.
    u, s, v = _oracle_factors(parse_matrix("1 1; 1 1; 0 1"))
    assert u.entries == ((0, 0, 1), (1, 0, -1), (-1, 1, 0))
    assert v.entries == ((0, 1), (1, 0))
    assert _diag(s) == [1, 1]
    # Equal cost within a row: the lower column wins.
    _, _, v = _oracle_factors(parse_matrix("1 1"))
    assert v.entries == ((1, -1), (0, 1))


# ---------------------------------------------------------------------------
# property test against the reference oracle and the minor-gcd oracle


def _matrices_of(nr, nc, entries):
    return st.lists(st.lists(entries, min_size=nc, max_size=nc), min_size=nr, max_size=nr).map(
        lambda rows: dense_matrix(nr, nc, tuple(tuple(r) for r in rows))
    )


def _matrices(max_rows, max_cols, entries):
    return st.integers(0, max_rows).flatmap(
        lambda nr: st.integers(0, max_cols).flatmap(lambda nc: _matrices_of(nr, nc, entries))
    )


_SPARSE_UNIT = st.sampled_from([0, 0, 0, 0, 0, 1, -1, 1, -1, 2])
_DENSE = st.integers(-9, 9)
# Entries in [-3, 3], mostly 0, for the canonical form on shapes up to 6 x 6.
_MOSTLY_ZERO = st.sampled_from([0] * 8 + [-3, -2, -1, 1, 2, 3])


# Square with rank below the size: an n x r times an r x n factor, r < n.
_RANK_DEFICIENT = st.integers(2, 8).flatmap(
    lambda n: st.integers(1, n - 1).flatmap(
        lambda r: st.tuples(
            _matrices_of(n, r, st.integers(-3, 3)), _matrices_of(r, n, st.integers(-3, 3))
        ).map(lambda xy: matmul(*xy))
    )
)


@settings(derandomize=True, max_examples=360, deadline=None)
@given(
    st.one_of(
        _matrices(15, 15, _SPARSE_UNIT),
        _matrices(8, 8, _DENSE),
        _matrices(3, 3, st.just(0)),
        _matrices_of(12, 12, _DENSE).filter(lambda a: a.det() != 0),
        _RANK_DEFICIENT,
        _matrices(6, 6, _MOSTLY_ZERO),
    )
)
def test_snf_matches_reference_oracles(a):
    # The canonical form: a is built from its nonzero entries, and equals,
    # and hashes equal to, the matrix from_rows builds from its dense view.
    nr, nc, dense = a.rows, a.cols, a.entries
    assert len(dense) == nr and all(len(row) == nc for row in dense)
    assert a.nz == tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in dense)
    same = IntMatrix.from_rows(dense) if nr else IntMatrix.zeros(0, nc)
    assert same == a and hash(same) == hash(a) and same.entries == dense
    # zeros and identity give the dense views the dense constructors gave.
    assert IntMatrix.zeros(nr, nc).entries == tuple((0,) * nc for _ in range(nr))
    eye = tuple(tuple(1 if i == j else 0 for j in range(nc)) for i in range(nc))
    assert IntMatrix.identity(nc).entries == eye
    f = smith_normal_form(a)
    diag = f.diagonal + (0,) * min(nr, nc)
    assert f.s.entries == tuple(tuple(diag[i] if i == j else 0 for j in range(nc)) for i in range(nr))
    carried = _carried_reduce(a)
    _carried_check_snf(a, carried)
    u, s, v = carried.factors()
    assert s == f.s and (f.rows, f.cols) == (a.rows, a.cols)
    assert f.diagonal == tuple(d for d in _diag(s) if d)
    parent = _parent_reduce(a)
    _parent_check_snf(a, parent)
    assert s.entries == parent.s.entries
    _, s_ref, _ = _reference_snf(a)
    assert s.entries == s_ref.entries
    _reference_check_snf(a, u, s, v)  # the dense product and whole determinants
    if a.rows <= 4 and a.cols <= 4:
        assert _diag(s) == _minor_gcds_oracle(a)


def _chain_product(n: int, ones: int, steps: list[int], seed: int) -> IntMatrix:
    """U*diag(d_1, ..., d_n)*V for seeded unimodular U and V: ones leading
    1s, then d_t = d_(t-1)*x_t for the steps x_t, the first raised to 2 or
    more."""
    chain, d = [], 1
    for t, x in enumerate(steps):
        if t >= ones:
            d *= max(x, 2) if t == ones else x
        chain.append(d)
    diag = IntMatrix.from_rows([[chain[i] if i == j else 0 for j in range(n)] for i in range(n)])
    rng = random.Random(seed)
    return matmul(_random_unimodular(rng, n), diag, _random_unimodular(rng, n))


# U*diag(chain)*V with at least two invariant factors above 1: the remainder
# is then square with N >= s_1*...*s_(m-1) > 1, so the loop runs modulo N.
_TWO_TORSION = st.integers(3, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(0, n - 2),
        st.lists(st.integers(1, 6), min_size=n, max_size=n),
        st.integers(0, 2**32),
    )
).map(lambda t: _chain_product(*t))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.one_of(_TWO_TORSION, _matrices_of(20, 20, _DENSE).filter(lambda a: a.det() != 0)))
def test_snf_matches_the_hermite_route_on_nonsingular_squares(a):
    # The oracle runs the Hermite step and the exact loop on the remainder.
    diag = smith_normal_form(a).diagonal
    assert diag == tuple(_diag(_carried_reduce(a).factors()[1]))
    if len(diag) >= 2 and diag[-2] > 1:
        assert _reduce(_sparse_rows(a), a.cols).mod > 1


def test_modular_route_gives_the_skew_window_k_groups():
    # The skew Z^2 cocycle ((1,0),(0,1),(-1,-1)): windows 8 and 10 leave
    # 22x22 and 34x34 remainders with N > 1, and keep the K-groups the
    # Hermite route gave.
    want = {
        8: ("Z/19 + Z/250313470728110008329853052697163205974383755", 22),
        10: ("Z/23 + Z/611777 + Z/7810457382067595323715573952418394210339972580265825480250939661",
             34),
    }
    for window, (k0, size) in want.items():
        g = skew_product(SkewSpec(cocycle=((1, 0), (0, 1), (-1, -1)), rank=2, window=window))
        k = ktheory_graph(g)
        assert (k.k0_pretty(), k.k1_pretty()) == (k0, "0")
        pres = _dense_presentation(g)
        r = _reduce(_sparse_rows(pres), pres.cols)
        assert r.b.rows == r.b.cols == size and r.mod > 1 and r.pivots2


# ---------------------------------------------------------------------------
# the K-group path


def _dense_presentation(g) -> IntMatrix:
    """a^t - I without the columns of vertices that receive no edge, built
    densely as ktheory_graph once did."""
    n = g.n
    t = IntMatrix.from_rows([[g.a[j][i] - (i == j) for j in range(n)] for i in range(n)])
    return delete_columns(t, {v for v in range(n) if not any(g.a[v])})


def test_kgroups_go_through_smith_normal_form(monkeypatch):
    # Both K-group routes call the public smith_normal_form, looked up in the
    # module, so a wrapper installed there (as a profiler's is) sees every
    # Smith reduction and its input.
    seen = []

    def counted(a):
        seen.append(a)
        return smith(a)

    smith = intlinalg.smith_normal_form
    monkeypatch.setattr(intlinalg, "smith_normal_form", counted)
    rng = random.Random(13)
    specs = [SkewSpec(cocycle=((1,), (2,), (3,)), rank=1, window=20)]  # drops 3 columns
    for window in (3, 4, 5, 6):
        cocycle = tuple(tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(3))
        specs.append(SkewSpec(cocycle=cocycle, rank=2, window=window))
    for window in (20, 30, 40, 50, 60):
        cocycle = tuple((rng.randint(-3, 3),) for _ in range(3))
        specs.append(SkewSpec(cocycle=cocycle, rank=1, window=window))
    cocycle = tuple((rng.randrange(12), rng.randrange(12)) for _ in range(3))
    specs.append(SkewSpec(cocycle=cocycle, orders=(12, 12)))
    dropped = 0
    for spec in specs:
        g = skew_product(spec)
        pres = _dense_presentation(g)
        dropped += g.n - pres.cols
        seen.clear()
        assert ktheory_graph(g) == _carried_kgroups(pres), spec
        assert seen == [pres]
    assert dropped > 0
    for n in (20, 30, 40):
        a = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        seen.clear()
        assert coker_ker(a) == _carried_kgroups(a)
        assert seen == [a]


def _rank_deficient(n: int, seed: int) -> IntMatrix:
    """The product of seeded n x (n-1) and (n-1) x n factors in [-3, 3]."""
    rng = random.Random(seed)
    x = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n - 1)] for _ in range(n)])
    y = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n - 1)])
    return matmul(x, y)


def test_kgroups_never_assemble_transforms(monkeypatch):
    # coker_ker reads the certified diagonal alone and never builds s.
    def refuse(*args):
        raise AssertionError("a K-group built s")

    monkeypatch.setattr(intlinalg.SmithForm, "s", property(refuse))
    seen = []
    smith = intlinalg.smith_normal_form
    monkeypatch.setattr(intlinalg, "smith_normal_form", lambda a: seen.append(a) or smith(a))
    # The seeded inputs of test_kgroups_go_through_smith_normal_form.
    rng = random.Random(13)
    specs = [SkewSpec(cocycle=((1,), (2,), (3,)), rank=1, window=20)]
    for window in (3, 4, 5, 6):
        cocycle = tuple(tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(3))
        specs.append(SkewSpec(cocycle=cocycle, rank=2, window=window))
    for window in (20, 30, 40, 50, 60):
        cocycle = tuple((rng.randint(-3, 3),) for _ in range(3))
        specs.append(SkewSpec(cocycle=cocycle, rank=1, window=window))
    cocycle = tuple((rng.randrange(12), rng.randrange(12)) for _ in range(3))
    specs.append(SkewSpec(cocycle=cocycle, orders=(12, 12)))
    for spec in specs:
        g = skew_product(spec)
        seen.clear()
        k = ktheory_graph(g)
        # The presentation reaches the Smith form as its nonzero entries
        # alone: a K-group never builds its dense view.
        [pres] = seen
        assert "entries" not in vars(pres), spec
        assert k == _carried_kgroups(_dense_presentation(g)), spec
    squares = [
        IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        for n in (20, 30, 40)
    ]
    # Rank-deficient remainders, where the exact loop runs.
    squares += [_rank_deficient(30, 30), _rank_deficient(40, 40)]
    for a in squares:
        assert coker_ker(a) == _carried_kgroups(a)
    assert [coker_ker(a).k1_rank for a in squares[-2:]] == [1, 1]


def test_smith_form_returns_no_transform():
    # Iterating gives s alone, the one value bench/job.py's counter hook
    # unpacks, and there is no u or v to read.
    for a in (parse_matrix("2 4; 6 8"), parse_matrix("0 1; 1 1; 1 1"), IntMatrix.zeros(2, 0)):
        f = smith_normal_form(a)
        assert list(f) == [f.s]
        assert f == SmithForm(a.rows, a.cols, f.diagonal)
    assert not hasattr(SmithForm, "u") and not hasattr(SmithForm, "v")


def test_det_refuses_a_non_square_matrix():
    with pytest.raises(SpecError, match=r"^determinant of a non-square matrix$"):
        IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]).det()
