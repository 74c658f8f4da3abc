"""Exact integer matrix kernel: Smith normal form, cokernel/kernel data.

Everything here runs on arbitrary-precision Python integers. Intermediate
entries in a Smith reduction can blow up well past machine words, so there is
deliberately no fixed-width fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import SpecError, VerificationError

__all__ = [
    "IntMatrix",
    "KGroups",
    "smith_normal_form",
    "coker_ker",
    "parse_matrix",
    "format_matrix",
]


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major. Zero rows or columns are legal."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(rows: list[list[int]] | tuple) -> "IntMatrix":
        data = tuple(tuple(int(x) for x in row) for row in rows)
        ncols = len(data[0]) if data else 0
        for row in data:
            if len(row) != ncols:
                raise SpecError("ragged matrix rows")
        return IntMatrix(len(data), ncols, data)

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(
            n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        )

    def __getitem__(self, pos: tuple[int, int]) -> int:
        i, j = pos
        return self.entries[i][j]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)),
        )

    def matmul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise SpecError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                row.append(sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols)))
            out.append(tuple(row))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        return self.matmul(other)

    def delete_columns(self, drop: set[int]) -> "IntMatrix":
        keep = [j for j in range(self.cols) if j not in drop]
        return IntMatrix(
            self.rows,
            len(keep),
            tuple(tuple(row[j] for j in keep) for row in self.entries),
        )

    def det(self) -> int:
        """Exact determinant via fraction-free Bareiss elimination."""
        if self.rows != self.cols:
            raise SpecError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class KGroups:
    """Finitely generated abelian group data for a coker/ker pair.

    k0 = Z^k0_free_rank + sum of Z/d for d in k0_torsion (divisibility order),
    k1 = Z^k1_rank.
    """

    k0_free_rank: int
    k0_torsion: tuple[int, ...]
    k1_rank: int

    def k0_pretty(self) -> str:
        return _pretty_group(self.k0_free_rank, self.k0_torsion)

    def k1_pretty(self) -> str:
        return _pretty_group(self.k1_rank, ())


def _pretty_group(free: int, torsion: tuple[int, ...]) -> str:
    parts = []
    if free == 1:
        parts.append("Z")
    elif free > 1:
        parts.append(f"Z^{free}")
    parts.extend(f"Z/{d}" for d in torsion)
    return " + ".join(parts) if parts else "0"


def parse_matrix(text: str) -> IntMatrix:
    """Parse the textual matrix form: rows separated by ';', entries by spaces."""
    rows = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            rows.append([int(tok) for tok in chunk.split()])
        except ValueError as exc:
            raise SpecError(f"bad matrix entry in {chunk!r}") from exc
    if not rows:
        raise SpecError("empty matrix text")
    return IntMatrix.from_rows(rows)


def format_matrix(a: IntMatrix) -> str:
    return "; ".join(" ".join(str(x) for x in row) for row in a.entries)


def _find_pivot(m: list[list[int]], start: int) -> tuple[int, int] | None:
    # Smallest nonzero absolute value; ties broken by lowest row, then column.
    best = None
    best_val = None
    for i in range(start, len(m)):
        for j in range(start, len(m[0]) if m else 0):
            v = abs(m[i][j])
            if v != 0 and (best_val is None or v < best_val):
                best, best_val = (i, j), v
    return best


def _euclid_snf(
    block: list[list[int]], nr: int, nc: int
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Dense Smith reduction of the nr x nc block; return (u, s, v) as lists
    with u*block*v = s. The pivot is always the entry of smallest nonzero
    absolute value (lowest row, then column, on ties)."""
    s = [list(row) for row in block]
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
        pos = _find_pivot(s, t)
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
            pos = _find_pivot(s, t)
        t += 1
    return u, s, v


# Sparse vectors and matrices: a vector is {index: nonzero entry}, a matrix a
# list of such rows (or columns, where a comment says so).


def _axpy(dst: dict[int, int], c: int, src: dict[int, int]) -> None:
    """dst += c * src, dropping entries that cancel."""
    for key, x in src.items():
        y = dst.get(key, 0) + c * x
        if y:
            dst[key] = y
        else:
            dst.pop(key, None)


def _sparse_rows(m: IntMatrix) -> list[dict[int, int]]:
    return [{j: x for j, x in enumerate(row) if x} for row in m.entries]


def _sparse_mul(x: list[dict[int, int]], y: list[dict[int, int]]) -> list[dict[int, int]]:
    """Row-by-row product x*y of sparse matrices, touching only nonzeros."""
    out = []
    for row in x:
        acc: dict[int, int] = {}
        for m, c in row.items():
            _axpy(acc, c, y[m])
        out.append(acc)
    return out


class _Reduction(NamedTuple):
    """A Smith reduction with the data that certifies it.

    u = diag(I_k, u2) * u1 and v = v1 * diag(I_k, v2), where k = units is
    the number of unit pivots cleared in phase 1 (u1, v1: phase-1 transforms
    with the pivots permuted to the top left) and u2, v2 reduce the remainder
    block. u1_inv and v1_inv are the exact inverses of u1 and v1, as sparse
    rows.
    """

    u: IntMatrix
    s: IntMatrix
    v: IntMatrix
    units: int
    u1_inv: list[dict[int, int]]
    v1_inv: list[dict[int, int]]
    u2: IntMatrix
    v2: IntMatrix


def _reduce(a: IntMatrix) -> _Reduction:
    """The two-phase reduction described in smith_normal_form, uncertified."""
    nr, nc = a.rows, a.cols
    # Phase 1 works on the active block: rows[i] holds row i's entries in
    # active columns, cols[j] the active rows with an entry in column j.
    # Both dicts keep increasing index order, as entries are only removed.
    rows = dict(enumerate(_sparse_rows(a)))
    cols: dict[int, set[int]] = {j: set() for j in range(nc)}
    for i, row in rows.items():
        for j in row:
            cols[j].add(i)
    u1 = [{i: 1} for i in range(nr)]  # rows of u1
    u1_inv = [{i: 1} for i in range(nr)]  # columns of u1^-1
    v1 = [{j: 1} for j in range(nc)]  # columns of v1
    v1_inv = [{j: 1} for j in range(nc)]  # rows of v1^-1
    pivots: list[tuple[int, int]] = []
    while True:
        best = None
        for i, row in rows.items():
            r1 = len(row) - 1
            for j, x in row.items():
                if x == 1 or x == -1:
                    key = (r1 * (len(cols[j]) - 1), i, j)
                    if best is None or key < best:
                        best = key
            if best is not None and best[0] == 0:
                break  # a later row can only tie, and ties go to the lower row
        if best is None:
            break
        _, i, j = best
        prow = rows.pop(i)
        p = prow.pop(j)
        col = cols.pop(j)
        col.discard(i)
        for l in prow:
            cols[l].discard(i)
        # Clear column j: row k -= q * row i, so u1 row k -= q * u1 row i and,
        # inversely, u1^-1 column i += q * u1^-1 column k.
        for k in col:
            rk = rows[k]
            q = rk.pop(j) * p
            for l, x in prow.items():
                y = rk.get(l, 0) - q * x
                if y:
                    rk[l] = y
                    cols[l].add(k)
                else:
                    del rk[l]
                    cols[l].discard(k)
            _axpy(u1[k], -q, u1[i])
            _axpy(u1_inv[i], q, u1_inv[k])
        # Clear row i: col l -= q * col j, mirrored the same way into v1, v1^-1.
        for l, x in prow.items():
            q = x * p
            _axpy(v1[l], -q, v1[j])
            _axpy(v1_inv[j], q, v1_inv[l])
        if p == -1:
            u1[i] = {m: -y for m, y in u1[i].items()}
            u1_inv[i] = {m: -y for m, y in u1_inv[i].items()}
        pivots.append((i, j))

    # Phase 2: the dense Euclid loop on the unit-free remainder.
    k = len(pivots)
    rest_rows, rest_cols = list(rows), list(cols)
    block = [[rows[i].get(j, 0) for j in rest_cols] for i in rest_rows]
    u2, s2, v2 = _euclid_snf(block, len(rest_rows), len(rest_cols))

    # Pivots to the top left, then u = diag(I_k, u2) * u1, v = v1 * diag(I_k, v2).
    row_order = [i for i, _ in pivots] + rest_rows
    col_order = [j for _, j in pivots] + rest_cols
    u_rows = [u1[i] for i in row_order[:k]]
    for row in u2:
        acc: dict[int, int] = {}
        for i, c in zip(rest_rows, row):
            if c:
                _axpy(acc, c, u1[i])
        u_rows.append(acc)
    v_cols = [v1[j] for j in col_order[:k]]
    for t in range(len(rest_cols)):
        acc = {}
        for j, row in zip(rest_cols, v2):
            if row[t]:
                _axpy(acc, row[t], v1[j])
        v_cols.append(acc)
    w_rows: list[dict[int, int]] = [{} for _ in range(nr)]
    for t, i in enumerate(row_order):
        for m, x in u1_inv[i].items():
            w_rows[m][t] = x

    s = [[0] * nc for _ in range(nr)]
    for t in range(k):
        s[t][t] = 1
    for r, row in enumerate(s2):
        s[k + r][k:] = row
    return _Reduction(
        u=IntMatrix(nr, nr, tuple(tuple(row.get(m, 0) for m in range(nr)) for row in u_rows)),
        s=IntMatrix(nr, nc, tuple(tuple(row) for row in s)),
        v=IntMatrix(nc, nc, tuple(tuple(col.get(m, 0) for col in v_cols) for m in range(nc))),
        units=k,
        u1_inv=w_rows,
        v1_inv=[v1_inv[j] for j in col_order],
        u2=IntMatrix.from_rows(u2),
        v2=IntMatrix.from_rows(v2),
    )


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (u, s, v) with u*a*v = s, u and v unimodular, s diagonal with
    each diagonal entry nonnegative and dividing the next.

    s is unique. u and v are not; the two deterministic phases below fix them.

    Phase 1 (unit pivots, after Havas, Holt and Rees, Linear Algebra Appl.
    192, 1993) works on sparse rows. While the active block holds an entry
    of absolute value 1, it pivots on the one of least Markowitz cost
    (row nonzeros - 1) * (column nonzeros - 1), ties going to the lowest
    row and then the lowest column, clears the pivot's row and column, and
    scales the pivot to 1. It carries u1, v1 and their inverses, each
    elementary operation mirrored by its inverse. The sparse presentations
    a^t - I of graphs and skew products are mostly cleared here.

    Phase 2 hands the unit-free remainder block to a dense Euclid loop whose
    pivot is the entry of smallest nonzero absolute value (lowest row, then
    column, on ties).

    Every call is certified exactly before it returns. Besides u*a*v = s and
    the shape of s, unimodularity is checked without a determinant of u or
    v: with the pivots moved to the top left, u = diag(I_k, u2) * u1, and the
    check is u * u1^-1 = diag(I_k, u2) plus det u2 = +-1 by Bareiss on the
    small phase-2 block. For integer matrices u, w with u*w = diag(I_k, u2),
    det u * det w = det u2 = +-1; a product of two integers is +-1 only if
    each factor is, so det u = +-1 (w = I gives the plain case u*w = I).
    The same argument covers v with v1^-1 * v = diag(I_k, v2).
    """
    r = _reduce(a)
    _check_snf(a, r)
    return r.u, r.s, r.v


def _block_identity(k: int, m: IntMatrix) -> list[dict[int, int]]:
    """Sparse rows of diag(I_k, m)."""
    return [{t: 1} for t in range(k)] + [
        {k + j: x for j, x in enumerate(row) if x} for row in m.entries
    ]


def _check_snf(a: IntMatrix, r: _Reduction) -> None:
    """Certify a reduction exactly, or raise VerificationError: u*a*v = s by
    a product that skips zeros, u * u1_inv = diag(I_k, u2), v1_inv * v =
    diag(I_k, v2), det u2 = det v2 = +-1, and s diagonal with a nonnegative
    divisibility chain. smith_normal_form's docstring proves that this makes
    u and v unimodular.
    """
    u, s, v = r.u, r.s, r.v
    nr, nc, k = a.rows, a.cols, r.units
    shapes = (u.rows, u.cols, s.rows, s.cols, v.rows, v.cols, len(r.u1_inv), len(r.v1_inv),
              r.u2.rows, r.u2.cols, r.v2.rows, r.v2.cols)
    if shapes != (nr, nr, nr, nc, nc, nc, nr, nc, nr - k, nr - k, nc - k, nc - k):
        raise VerificationError("SNF check failed: factor shapes do not match")
    su, sv = _sparse_rows(u), _sparse_rows(v)
    if _sparse_mul(_sparse_mul(su, _sparse_rows(a)), sv) != _sparse_rows(s):
        raise VerificationError("SNF check failed: u*a*v != s")
    if _sparse_mul(su, r.u1_inv) != _block_identity(k, r.u2) or r.u2.det() not in (1, -1):
        raise VerificationError("SNF check failed: u not unimodular")
    if _sparse_mul(r.v1_inv, sv) != _block_identity(k, r.v2) or r.v2.det() not in (1, -1):
        raise VerificationError("SNF check failed: v not unimodular")
    diag = [s.entries[i][i] for i in range(min(s.rows, s.cols))]
    for i in range(s.rows):
        for j in range(s.cols):
            if i != j and s.entries[i][j] != 0:
                raise VerificationError("SNF check failed: s not diagonal")
    for d1, d2 in zip(diag, diag[1:]):
        if d1 < 0 or d2 < 0 or (d1 == 0 and d2 != 0) or (d1 != 0 and d2 % d1 != 0):
            raise VerificationError("SNF check failed: divisibility chain broken")


def coker_ker(a: IntMatrix) -> KGroups:
    """K-groups of the integer map a: Z^cols -> Z^rows.

    coker = Z^rows / im(a) described by free rank plus invariant factors > 1,
    ker rank = cols - rank(a).
    """
    _, s, _ = smith_normal_form(a)
    diag = [s.entries[i][i] for i in range(min(s.rows, s.cols))]
    rank = sum(1 for d in diag if d != 0)
    torsion = tuple(d for d in diag if d > 1)
    return KGroups(
        k0_free_rank=a.rows - rank,
        k0_torsion=torsion,
        k1_rank=a.cols - rank,
    )
