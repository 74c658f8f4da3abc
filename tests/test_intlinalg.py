import random
from itertools import combinations
from math import gcd, prod
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repcorr import intlinalg
from repcorr.errors import SpecError, VerificationError
from repcorr.graphs import SkewSpec, ktheory_graph, skew_product
from repcorr.intlinalg import (
    IntMatrix,
    KGroups,
    SmithForm,
    _axpy,
    _check_snf,
    _dense,
    _hermite_mod,
    _nearest,
    _reduce,
    _solve,
    _sparse_mul,
    _sparse_rows,
    _transpose,
    _unit_rows,
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
        u=IntMatrix(nr, nr, tuple(tuple(u[i].get(m, 0) for m in range(nr)) for i in row_order)),
        s=IntMatrix(nr, nc, tuple(tuple(row) for row in s)),
        v=IntMatrix(nc, nc, tuple(tuple(v[j].get(m, 0) for j in col_order) for m in range(nc))),
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
    return IntMatrix(n - k, n - k, b).det() in (1, -1)


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


# ---------------------------------------------------------------------------
# Reference oracle: the two-factor reduction and its certificate before the
# unit phase was logged, kept verbatim (only renamed). The unit phase carries
# u1, v1 and their inverses, the certificate multiplies them out, and
# factors() assembles the public (u, s, v) that smith_normal_form must still
# return byte for byte.


class _CarriedLoop(NamedTuple):
    """One run of the elimination loop (see smith_normal_form) over a block.

    pivots are (row, column, |p|) in the order they were retired. u holds the
    rows of the row transform and v the columns of the column transform, by
    the block's own indices; a units-only run also carries u_inv (the columns
    of u^-1) and v_inv (the rows of v^-1). rows and cols are the active block
    left over: every row and column not retired, in increasing index order.
    """

    pivots: list[tuple[int, int, int]]
    u: list[dict[int, int]]
    v: list[dict[int, int]]
    u_inv: list[dict[int, int]]
    v_inv: list[dict[int, int]]
    rows: dict[int, dict[int, int]]
    cols: dict[int, set[int]]


def _carried_eliminate(block: list[dict[int, int]], ncols: int, units_only: bool) -> _CarriedLoop:
    """Run the elimination loop on the sparse rows block.

    With units_only it stops before the first pivot that is not a unit and
    carries the inverses of both transforms; otherwise it runs until the
    active block is empty and carries no inverse.
    """
    # rows[i] holds row i's entries in active columns, cols[j] the active
    # rows with an entry in column j. Both dicts keep increasing index order,
    # as keys are only removed.
    rows = dict(enumerate(block))
    cols: dict[int, set[int]] = {j: set() for j in range(ncols)}
    for i, row in rows.items():
        for j in row:
            cols[j].add(i)
    u = [{i: 1} for i in range(len(block))]
    v = [{j: 1} for j in range(ncols)]
    u_inv = [{i: 1} for i in range(len(block))] if units_only else []
    v_inv = [{j: 1} for j in range(ncols)] if units_only else []
    pivots: list[tuple[int, int, int]] = []
    # keys[i] is the least pivot key in row i. It changes only with row i or
    # with the nonzero count of one of its columns, so each step rescans only
    # the rows in stale and the rows of the columns in moved.
    keys: dict[int, tuple[int, int, int, int]] = {}
    stale, moved = set(rows), set()

    def sub(k: int, c: int, vec: dict[int, int]) -> None:
        # Block row k -= c * vec, keeping cols, stale and moved in step.
        rk = rows[k]
        stale.add(k)
        for l, x in vec.items():
            y = rk.get(l, 0) - c * x
            if not y:
                del rk[l]
                cols[l].discard(k)
                moved.add(l)
            else:
                if l not in rk:
                    cols[l].add(k)
                    moved.add(l)
                rk[l] = y

    def row_op(k: int, q: int, i: int) -> None:
        # Row k -= q * row i, so u row k -= q * u row i and, inversely,
        # u^-1 column i += q * u^-1 column k.
        sub(k, q, rows[i])
        _axpy(u[k], -q, u[i])
        if units_only:
            _axpy(u_inv[i], q, u_inv[k])

    while True:
        stale.update(*(cols[l] for l in moved if l in cols))
        moved.clear()
        for i in stale:
            row = rows.get(i)
            if not row:
                keys.pop(i, None)
                continue
            r1 = len(row) - 1
            best = None
            for j, x in row.items():
                ax = abs(x)
                if best is None or ax <= best[0]:
                    key = (ax, r1 * (len(cols[j]) - 1), i, j)
                    if best is None or key < best:
                        best = key
            keys[i] = best
        stale.clear()
        best = min(keys.values(), default=None)
        if best is None or (units_only and best[0] != 1):
            break
        ax, _, i, j = best
        prow = rows[i]
        p = prow[j]
        for k in [k for k in cols[j] if k != i]:
            row_op(k, _nearest(rows[k][j], p), i)
        # Clear row i: col l -= q * col j, mirrored the same way into v, v^-1.
        qs = {l: q for l, x in prow.items() if l != j and (q := _nearest(x, p))}
        for k in cols[j]:
            sub(k, rows[k][j], qs)
        for l, q in qs.items():
            _axpy(v[l], -q, v[j])
            if units_only:
                _axpy(v_inv[j], q, v_inv[l])
        if len(prow) > 1 or len(cols[j]) > 1:
            continue  # a remainder is left, so the next pivot is smaller
        if ax != 1:
            bad = next((k for k, rk in rows.items() if any(x % p for x in rk.values())), None)
            if bad is not None:
                row_op(i, -1, bad)  # pull the first offending row up, re-clear
                continue
        del rows[i], cols[j], keys[i]
        if p < 0:
            u[i] = {m: -y for m, y in u[i].items()}
            if units_only:
                u_inv[i] = {m: -y for m, y in u_inv[i].items()}
        pivots.append((i, j, ax))
    return _CarriedLoop(pivots, u, v, u_inv, v_inv, rows, cols)


class _CarriedReduction(NamedTuple):
    """A Smith reduction in two factors, with the data that certifies it.

    The unit phase retires k = units unit pivots of a with the transforms u1
    and v1, kept with their exact inverses as sparse rows, so that
    u1*a*v1 = diag(I_k, b). Its rows and columns are in pivot order: the
    pivots in the order they were retired, then the remainder b's rows and
    columns by index. hermite is None or (t, h): the Hermite step's
    unimodular t and triangular h = b*t, taken when b is square with
    det b != 0. The remainder loop then runs on m = h, or on m = b without the
    step, and gives u2*m*v2 = s2, again in pivot order.
    """

    units: int
    u1: list[dict[int, int]]
    u1_inv: list[dict[int, int]]
    v1: list[dict[int, int]]
    v1_inv: list[dict[int, int]]
    b: IntMatrix
    hermite: tuple[IntMatrix, IntMatrix] | None
    u2: IntMatrix
    s2: IntMatrix
    v2: IntMatrix

    def factors(self) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
        """(u, s, v) = (diag(I_k, u2)*u1, diag(I_k, s2), v1*diag(I_k, t*v2))."""
        k, nr, nc = self.units, len(self.u1), len(self.v1)
        w = self.v2 if self.hermite is None else self.hermite[0] @ self.v2
        u = _dense(self.u1[:k] + _sparse_mul(_sparse_rows(self.u2), self.u1[k:]), nr).entries
        v1 = _dense(self.v1, nc).entries
        v_right = IntMatrix(nc, nc - k, tuple(row[k:] for row in v1)) @ w
        s = [[0] * nc for _ in range(nr)]
        for t in range(k):
            s[t][t] = 1
        for t, row in enumerate(self.s2.entries):
            s[k + t][k:] = row
        return (
            IntMatrix(nr, nr, u),
            IntMatrix(nr, nc, tuple(tuple(row) for row in s)),
            IntMatrix(nc, nc, tuple(row[:k] + rest for row, rest in zip(v1, v_right.entries))),
        )


def _carried_reduce(a: IntMatrix) -> _CarriedReduction:
    """The two-factor reduction described in smith_normal_form, uncertified."""
    nr, nc = a.rows, a.cols
    one = _carried_eliminate(_sparse_rows(a), nc, units_only=True)
    k = len(one.pivots)
    row_order = [i for i, _, _ in one.pivots] + list(one.rows)
    col_order = [j for _, j, _ in one.pivots] + list(one.cols)
    b = IntMatrix(nr - k, nc - k, tuple(
        tuple(one.rows[i].get(j, 0) for j in col_order[k:]) for i in row_order[k:]
    ))
    hermite = None
    m = b
    if b.rows == b.cols > 0 and (d := b.det()):
        h = _hermite_mod(b, abs(d))
        hermite = (_carried_solve(b, h), h)
        m = h
    two = _carried_eliminate(_sparse_rows(m), m.cols, units_only=False)
    rows2 = [i for i, _, _ in two.pivots] + list(two.rows)
    cols2 = [j for _, j, _ in two.pivots] + list(two.cols)
    s2 = [[0] * m.cols for _ in range(m.rows)]
    for t, (_, _, x) in enumerate(two.pivots):
        s2[t][t] = x
    return _CarriedReduction(
        units=k,
        u1=[one.u[i] for i in row_order],
        u1_inv=_transpose(one.u_inv, row_order, nr),
        v1=_transpose(one.v, col_order, nc),
        v1_inv=[one.v_inv[j] for j in col_order],
        b=b,
        hermite=hermite,
        u2=_dense([two.u[i] for i in rows2], m.rows),
        s2=IntMatrix(m.rows, m.cols, tuple(tuple(row) for row in s2)),
        v2=_dense(_transpose(two.v, cols2, m.cols), m.cols),
    )


def _carried_solve(b: IntMatrix, h: IntMatrix) -> IntMatrix:
    """The integer matrix t with b*t = h, for b square with det b != 0, by
    fraction-free (Bareiss) elimination on [b | h] and back substitution.

    Bareiss leaves row i led by a leading minor of b, and the last pivot is
    det = +-det b. Back substitution computes y = det * t row by row; each
    division by a leading minor is exact, because the rows still hold for
    the rational solution t and det * t is integral by Cramer's rule. t is
    integral exactly when det divides every entry of y; if not, h is not in
    the column lattice of b and VerificationError is raised.
    """
    m = b.rows
    aug = [list(rb) + list(rh) for rb, rh in zip(b.entries, h.entries)]
    prev = 1
    for k in range(m):
        piv = next(i for i in range(k, m) if aug[i][k])
        aug[k], aug[piv] = aug[piv], aug[k]
        pk = aug[k]
        p = pk[k]
        for i in range(k + 1, m):
            ri = aug[i]
            f = ri[k]
            ri[k:] = [(x * p - f * y) // prev for x, y in zip(ri[k:], pk[k:])]
        prev = p
    y: list[list[int]] = [[] for _ in range(m)]
    for i in range(m - 1, -1, -1):
        row = aug[i]
        acc = [prev * x for x in row[m:]]
        for j in range(i + 1, m):
            c = row[j]
            if c:
                acc = [s - c * t for s, t in zip(acc, y[j])]
        y[i] = [s // row[i] for s in acc]
    if any(s % prev for row in y for s in row):
        raise VerificationError("SNF check failed: Hermite transform not integral")
    return IntMatrix(m, m, tuple(tuple(s // prev for s in row) for row in y))


def _carried_check_snf(a: IntMatrix, r: _CarriedReduction) -> None:
    """Certify a two-factor reduction exactly, or raise VerificationError.
    The clauses are listed, and shown to make u and v unimodular, in
    smith_normal_form's docstring.
    """
    nr, nc, k = a.rows, a.cols, r.units
    b, u2, s2, v2 = r.b, r.u2, r.s2, r.v2
    mr, mc = nr - k, nc - k
    shapes = (len(r.u1), len(r.u1_inv), len(r.v1), len(r.v1_inv), b.rows, b.cols,
              u2.rows, u2.cols, s2.rows, s2.cols, v2.rows, v2.cols)
    if not 0 <= k <= min(nr, nc) or shapes != (nr, nr, nc, nc, mr, mc, mr, mr, mr, mc, mc, mc):
        raise VerificationError("SNF check failed: factor shapes do not match")
    diag_ib = _unit_rows(k) + [{k + j: x for j, x in enumerate(row) if x} for row in b.entries]
    if _sparse_mul(_sparse_mul(r.u1, _sparse_rows(a)), r.v1) != diag_ib:
        raise VerificationError("SNF check failed: u1*a*v1 != diag(I, B)")
    if _sparse_mul(r.u1, r.u1_inv) != _unit_rows(nr):
        raise VerificationError("SNF check failed: u1 not unimodular")
    if _sparse_mul(r.v1_inv, r.v1) != _unit_rows(nc):
        raise VerificationError("SNF check failed: v1 not unimodular")
    m = b
    if r.hermite is not None:
        t, h = r.hermite
        if (mr, t.rows, t.cols, h.rows, h.cols) != (mc,) + (mr,) * 4:
            raise VerificationError("SNF check failed: factor shapes do not match")
        if any(h.entries[i][j] for i in range(mr) for j in range(i)):
            raise VerificationError("SNF check failed: H not upper triangular")
        if b @ t != h:
            raise VerificationError("SNF check failed: B*U != H")
        d = b.det()
        if not d or abs(prod(h.entries[i][i] for i in range(mr))) != abs(d):
            raise VerificationError("SNF check failed: |prod diag H| != |det B|")
        m = h
    u2m = _sparse_mul(_sparse_rows(u2), _sparse_rows(m))
    if _sparse_mul(u2m, _sparse_rows(v2)) != _sparse_rows(s2):
        raise VerificationError("SNF check failed: u2*B*v2 != s2")
    if u2.det() not in (1, -1):
        raise VerificationError("SNF check failed: u2 not unimodular")
    if v2.det() not in (1, -1):
        raise VerificationError("SNF check failed: v2 not unimodular")
    diag = [s2.entries[i][i] for i in range(min(mr, mc))]
    if any(x for i, row in enumerate(s2.entries) for j, x in enumerate(row) if i != j):
        raise VerificationError("SNF check failed: s not diagonal")
    if any(d < 0 for d in diag) or any(
        (d2 if d1 == 0 else d2 % d1) for d1, d2 in zip(diag, diag[1:])
    ):
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
# the certificate: one tampering test per clause


def _check(a: IntMatrix, r) -> None:
    _check_snf(_sparse_rows(a), a.cols, r)


def _reduction_of(rows):
    a = IntMatrix.from_rows(rows)
    r = _reduce(_sparse_rows(a), a.cols)
    _check(a, r)  # the honest reduction passes
    return a, r


def test_certificate_rejects_factor_shapes():
    a, r = _reduction_of([[1, 0], [0, 2]])
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
    # No unit pivot and det B = 0: empty logs and no Hermite step. Doubling
    # row 1 of u2 by row 1 -= -1 * row 1 in the remainder's log leaves
    # u2*B*v2 = s2 intact on this zero B; only the clause k != i can see it.
    a, r = _reduction_of([[0, 0], [0, 0]])
    assert r.units == 0 and r.log == r.log2 == [] and r.m is r.b
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
    assert r.units == 0 and r.m is r.b
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
    # After the Hermite step, row 0 -= -1 * row 0 doubles a row of u2.
    a, r = _reduction_of([[2, 4], [6, 8]])
    assert r.m != r.b
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
    return a, _reduce(_sparse_rows(zero), zero.cols)._replace(b=a, m=a, pivots2=pivots2)


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
    # The remainder loop: the last d doubled, still a divisibility chain,
    # and a column clear appended to the remainder's log.
    a, r = _reduction_of([[2, 4], [6, 8]])
    assert r.pivots2 == [(1, 1, 2), (0, 0, 4)]
    with pytest.raises(VerificationError, match=r"u2\*B\*v2 is not diag\(s2\)"):
        _check(a, r._replace(pivots2=[(1, 1, 2), (0, 0, 8)]))
    with pytest.raises(VerificationError, match=r"u2\*B\*v2 is not diag\(s2\)"):
        _check(a, r._replace(log2=r.log2 + [("col", 0, {1: 1})]))


def test_certificate_rejects_wrong_hermite_transform(monkeypatch):
    # U is solved for only when v is read, and B*U = H is checked there.
    a, r = _reduction_of([[2, 4], [6, 8]])
    wrong = [list(row) for row in _solve(r.b, r.m).entries]
    wrong[0][0] += 1
    monkeypatch.setattr(intlinalg, "_solve", lambda b, h: IntMatrix.from_rows(wrong))
    form = SmithForm(r)
    assert form.u == smith_normal_form(a).u  # u needs no U
    with pytest.raises(VerificationError, match=r"B\*U != H"):
        form.v


def test_certificate_rejects_lower_triangular_entry_in_h():
    # H has the lattice of B = 2I (B = H*X with X = [[1, 0], [-1, 1]]) and
    # |prod diag H| = det B; only the shape of H is wrong.
    a, r = _reduction_of([[2, 0], [0, 2]])
    h = IntMatrix.from_rows([[2, 0], [2, 2]])
    assert h @ IntMatrix.from_rows([[1, 0], [-1, 1]]) == r.b
    with pytest.raises(VerificationError, match="H not upper triangular"):
        _check(a, r._replace(m=h))


def test_certificate_rejects_hermite_diagonal_off_det():
    # H = I is triangular with B = H*B, and an honest empty remainder on I
    # gives s2 = I; but det H = 1 while det B = 4 (the lattice of H is
    # larger): only |prod diag H| = |det B| can see it.
    a, r = _reduction_of([[2, 0], [0, 2]])
    bad = r._replace(m=IntMatrix.identity(2), pivots2=[(0, 0, 1), (1, 1, 1)], log2=[])
    with pytest.raises(VerificationError, match=r"\|prod diag H\| != \|det B\|"):
        _check(a, bad)


def test_certificate_rejects_a_hermite_form_of_another_lattice():
    # H = [[4, 0], [0, 2]] is triangular with |prod diag H| = 8 = |det B|,
    # but B = H*X needs X = [[1/2, 1], [3, 4]].
    a, r = _reduction_of([[2, 4], [6, 8]])
    assert r.m.entries == ((4, 2), (0, 2))
    with pytest.raises(VerificationError, match="B = H\\*X has no integral X"):
        _check(a, r._replace(m=IntMatrix.from_rows([[4, 0], [0, 2]])))


def test_hermite_solve_rejects_a_non_integral_transform():
    # e_0 is not in the column lattice 2Z x 2Z, so U = B^-1 * H has a 1/2.
    b = IntMatrix.from_rows([[2, 0], [0, 2]])
    with pytest.raises(VerificationError, match="not integral"):
        _solve(b, IntMatrix.from_rows([[1, 0], [0, 4]]))
    assert _solve(b, IntMatrix.from_rows([[2, 2], [0, 4]])).entries == ((1, 1), (0, 2))


def test_reduction_clears_unit_pivots_of_a_skew_presentation():
    # a^t - I of the 3-loop skew product over Z/5: all +-1, so phase 1
    # leaves a remainder of one row and one column.
    n = 5
    rows = [[(1 if (i - j) % n in (1, 2) else 0) - (i == j) for j in range(n)] for i in range(n)]
    a, r = _reduction_of(rows)
    assert r.units == n - 1
    assert _diag(SmithForm(r).s) == _diag(_reference_snf(a)[1])


def test_both_remainder_paths_run():
    rng = random.Random(12)
    dense = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(12)] for _ in range(12)])
    a, r = _reduction_of(dense.entries)
    assert r.m != r.b and r.b.rows == r.b.cols > 0
    h = r.m.entries
    assert not any(h[i][j] for i in range(len(h)) for j in range(i))
    assert abs(prod(h[i][i] for i in range(len(h)))) == abs(r.b.det())
    assert r.b @ _solve(r.b, r.m) == r.m
    # rank 2 in a 4x4 square with no unit: det B = 0, so no Hermite step.
    low = IntMatrix.from_rows([[2, 4], [6, 2], [4, 8], [2, 6]]) @ IntMatrix.from_rows(
        [[2, 0, 4, 6], [0, 2, 2, 4]]
    )
    a, r = _reduction_of(low.entries)
    assert r.units == 0 and r.b.rows == r.b.cols == 4 and r.m is r.b


def test_transforms_stay_near_the_determinant_size():
    # The parent's single loop reached 2,759-2,937 bits on these inputs.
    for seed in range(3):
        rng = random.Random(seed)
        a = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(40)] for _ in range(40)])
        u, _, v = smith_normal_form(a)
        bits = max(abs(x).bit_length() for m in (u, v) for row in m.entries for x in row)
        assert bits < 400, (seed, bits)


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


def _matrices_of(nr, nc, entries):
    return st.lists(st.lists(entries, min_size=nc, max_size=nc), min_size=nr, max_size=nr).map(
        lambda rows: IntMatrix(nr, nc, tuple(tuple(r) for r in rows))
    )


def _matrices(max_rows, max_cols, entries):
    return st.integers(0, max_rows).flatmap(
        lambda nr: st.integers(0, max_cols).flatmap(lambda nc: _matrices_of(nr, nc, entries))
    )


_SPARSE_UNIT = st.sampled_from([0, 0, 0, 0, 0, 1, -1, 1, -1, 2])
_DENSE = st.integers(-9, 9)


# Square with rank below the size: an n x r times an r x n factor, r < n.
_RANK_DEFICIENT = st.integers(2, 8).flatmap(
    lambda n: st.integers(1, n - 1).flatmap(
        lambda r: st.tuples(
            _matrices_of(n, r, st.integers(-3, 3)), _matrices_of(r, n, st.integers(-3, 3))
        ).map(lambda xy: xy[0] @ xy[1])
    )
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.one_of(
        _matrices(15, 15, _SPARSE_UNIT),
        _matrices(8, 8, _DENSE),
        _matrices(3, 3, st.just(0)),
        _matrices_of(12, 12, _DENSE).filter(lambda a: a.det() != 0),
        _RANK_DEFICIENT,
    )
)
def test_snf_matches_reference_oracles(a):
    f = smith_normal_form(a)
    u, s, v = f
    assert f.diagonal == tuple(d for d in _diag(s) if d)
    carried = _carried_reduce(a)
    _carried_check_snf(a, carried)
    assert (u, s, v) == carried.factors()  # the logged unit phase changes no transform
    parent = _parent_reduce(a)
    _parent_check_snf(a, parent)
    assert s.entries == parent.s.entries
    _, s_ref, _ = _reference_snf(a)
    assert s.entries == s_ref.entries
    _reference_check_snf(a, u, s, v)  # the dense product and whole determinants
    if a.rows <= 4 and a.cols <= 4:
        assert _diag(s) == _minor_gcds_oracle(a)


# ---------------------------------------------------------------------------
# the K-group path


def _dense_presentation(g) -> IntMatrix:
    """a^t - I without the columns of vertices that receive no edge, built
    densely as ktheory_graph once did."""
    n = g.n
    t = IntMatrix.from_rows([[g.a[j][i] - (i == j) for j in range(n)] for i in range(n)])
    return t.delete_columns({v for v in range(n) if g.in_degree(v) == 0})


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
    return x @ y


def test_kgroups_never_assemble_transforms(monkeypatch):
    # coker_ker reads the certified diagonal alone: no Hermite transform U,
    # no factor u1, u2 or v2 replayed on identity rows or columns, and no
    # s, u or v.
    def refuse(*args):
        raise AssertionError("a K-group assembled a transform")

    monkeypatch.setattr(intlinalg, "_solve", refuse)
    monkeypatch.setattr(intlinalg, "_factor", refuse)
    monkeypatch.setattr(intlinalg.SmithForm, "s", property(refuse))
    monkeypatch.setattr(intlinalg.SmithForm, "u", property(refuse))
    monkeypatch.setattr(intlinalg.SmithForm, "v", property(refuse))
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
        assert ktheory_graph(g) == _carried_kgroups(_dense_presentation(g)), spec
    squares = [
        IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        for n in (20, 30, 40)
    ]
    # Rank-deficient remainders, where no Hermite step applies.
    squares += [_rank_deficient(30, 30), _rank_deficient(40, 40)]
    for a in squares:
        assert coker_ker(a) == _carried_kgroups(a)
    assert [coker_ker(a).k1_rank for a in squares[-2:]] == [1, 1]
