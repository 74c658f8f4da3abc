"""Exact integer matrix kernel: Smith normal form, cokernel/kernel data.

Everything here runs on arbitrary-precision Python integers. Intermediate
entries in a Smith reduction can blow up well past machine words, so there is
deliberately no fixed-width fast path.

The Smith reduction is one elimination loop over the sparse rows of the
active block. It pivots on the entry of least (|x|, Markowitz cost, row,
column), so units go first, and clears the pivot's column and row with
nearest-integer quotients, so a remainder is at most half the pivot and the
loop falls into Euclid's algorithm once the units are gone. The inverses of
the transforms are carried only up to the first non-unit pivot; they are
what lets the exact certificate prove u and v unimodular with a determinant
of the small block that follows (see smith_normal_form).
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


def _nearest(x: int, p: int) -> int:
    """A quotient q with |x - q*p| <= |p|/2."""
    q, r = divmod(x, p)
    return q + 1 if 2 * abs(r) > abs(p) else q


class _Reduction(NamedTuple):
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


def _reduce(a: IntMatrix) -> _Reduction:
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
    return _Reduction(
        u=IntMatrix(nr, nr, tuple(tuple(u[i].get(m, 0) for m in range(nr)) for i in row_order)),
        s=IntMatrix(nr, nc, tuple(tuple(row) for row in s)),
        v=IntMatrix(nc, nc, tuple(tuple(v[j].get(m, 0) for j in col_order) for m in range(nc))),
        units=len(pivots) if units is None else units,
        u1_inv=w_rows,
        v1_inv=[v1_inv[j] for j in col_order],
    )


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (u, s, v) with u*a*v = s, u and v unimodular, s diagonal with
    each diagonal entry nonnegative and dividing the next.

    s is unique. u and v are not; one deterministic loop fixes them. It works
    on the sparse rows of the active block, in the manner of Havas, Holt and
    Rees (Linear Algebra Appl. 192, 1993), and repeats these steps:

    - Pivot on the active entry with the least key (|x|, Markowitz cost
      (row nonzeros - 1) * (column nonzeros - 1), row, column). So while a
      unit is left, the pivot is a unit; the sparse presentations a^t - I of
      graphs and skew products are mostly cleared by units.
    - Clear the pivot's column, then its row, with nearest-integer quotients,
      so each remainder is at most |p|/2. A nonzero remainder makes the next
      pivot smaller than this one, as in Euclid's algorithm.
    - Once the pivot's row and column are otherwise empty, retire it, scaled
      to |p|, if it divides every active entry. If it does not, add the first
      offending row to the pivot row and go on. Every later pivot is an
      integer combination of active entries, so the diagonal is a
      divisibility chain.

    The loop also carries the inverses u1^-1 and v1^-1, each elementary
    operation mirrored by its inverse, but only while every operation so far
    has used a unit pivot; k = units is the number of pivots retired by then.

    Every call is certified exactly before it returns. Besides u*a*v = s and
    the shape of s, unimodularity is checked without a determinant of u or
    v. Every operation after the first k pivots stays off their rows and
    columns, so with the pivots in order at the top left u = diag(I_k, B) * u1.
    The check is that u * u1^-1 has the form diag(I_k, B), and det B = +-1 by
    Bareiss on that small block. For integer matrices u, w with
    u*w = diag(I_k, B), det u * det w = det B = +-1; a product of two integers
    is +-1 only if each factor is, so det u = +-1 (w = I gives the plain case
    u*w = I). The same argument covers v with v1^-1 * v = diag(I_k, C).
    """
    r = _reduce(a)
    _check_snf(a, r)
    return r.u, r.s, r.v


def _is_unit_block(m: list[dict[int, int]], k: int) -> bool:
    """Whether the n x n sparse rows m are diag(I_k, B) with det B = +-1."""
    n = len(m)
    if any(m[t] != {t: 1} for t in range(k)) or any(
        not k <= c < n for row in m[k:] for c in row
    ):
        return False
    b = tuple(tuple(row.get(c, 0) for c in range(k, n)) for row in m[k:])
    return IntMatrix(n - k, n - k, b).det() in (1, -1)


def _check_snf(a: IntMatrix, r: _Reduction) -> None:
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
    if not _is_unit_block(_sparse_mul(su, r.u1_inv), k):
        raise VerificationError("SNF check failed: u not unimodular")
    if not _is_unit_block(_sparse_mul(r.v1_inv, sv), k):
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
