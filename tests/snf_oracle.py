"""The transform oracle for Smith normal form.

smith_normal_form returns the certified diagonal and no transform. This is
the two-factor reduction as it was before the unit phase was logged, kept
verbatim (only renamed): it carries u1, v1 and their inverses through the
unit phase, solves the Hermite transform t with b*t = h, and factors()
assembles (u, s, v) with u*a*v = s. The tests read u and v from here, and
check that its s equals smith_normal_form(a).s.
"""

from math import prod
from typing import NamedTuple

from repcorr.errors import VerificationError
from repcorr.intlinalg import (
    IntMatrix,
    _axpy,
    _dense,
    _hermite_mod,
    _nearest,
    _sparse_rows,
    _transpose,
)


def _sparse_mul(x: list[dict[int, int]], y: list[dict[int, int]]) -> list[dict[int, int]]:
    """Row-by-row product x*y of sparse matrices, touching only nonzeros."""
    out = []
    for row in x:
        acc: dict[int, int] = {}
        for m, c in row.items():
            _axpy(acc, c, y[m])
        out.append(acc)
    return out


def _unit_rows(n: int) -> list[dict[int, int]]:
    return [{t: 1} for t in range(n)]


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
