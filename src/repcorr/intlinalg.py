"""Exact integer matrix kernel: Smith normal form, cokernel/kernel data.

Everything here runs on arbitrary-precision Python integers. Intermediate
entries in a Smith reduction can blow up well past machine words, so there is
deliberately no fixed-width fast path.

The Smith reduction is one elimination loop over the sparse rows of an
active block. It pivots on the entry of least (|x|, Markowitz cost, row,
column), so units go first, and clears the pivot's column and row with
nearest-integer quotients, so a remainder is at most half the pivot and the
loop falls into Euclid's algorithm once the units are gone.

The loop carries no transform: it logs its elementary operations (row k
-= q*row i with k != i, one column clear per pivot, and a row negation for
a pivot -1), and a transform is that log applied to identity rows or
columns. The reduction is split into two factors at the first pivot that is
not a unit, and the loop runs again on the remainder B alone. When B is
square with D = |det B| != 0, a Hermite step first replaces B by a
triangular basis H of its column lattice, computed modulo D. Both factors
are certified by one kind of check: the factor's log is replayed on a fresh
sparse copy of its matrix and must give the claimed diagonal in pivot
order. smith_normal_form certifies s's diagonal this way and nothing else;
s, u and v are built only when they are read, so K-groups, which read the
diagonal alone, never build s or a transform. The proofs, also given in
smith_normal_form:

- A replayed log. Every logged operation is an integer matrix of
  determinant +-1 (k != i and j not a key make the determinant lemma give
  1), so a replay that gives diag(I_k, B) from a, or diag(s2) from the
  remainder, proves it with unimodular factors.
- The Hermite step. B = H*X with X integral gives B*Z^m inside H*Z^m, and
  |prod diag H| = |det B| != 0 gives both lattices the index |det B| in
  Z^m, so they are equal and coker B = coker H.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property
from math import prod
from operator import mul
from typing import NamedTuple

from .errors import SpecError, VerificationError
from .record import record

__all__ = [
    "IntMatrix",
    "KGroups",
    "SmithForm",
    "smith_normal_form",
    "coker_ker",
    "parse_matrix",
    "format_matrix",
]


@record
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
        cols = tuple(zip(*other.entries)) or ((),) * other.cols
        out = tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in self.entries)
        return IntMatrix(self.rows, other.cols, out)

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
        return self._echelon.det

    @cached_property
    def _echelon(self) -> "_Echelon":
        """The fraction-free elimination of a square matrix, run once: det,
        the Hermite modulus and _solve all read this one elimination."""
        n = self.rows
        m = [list(row) for row in self.entries]
        steps: list[tuple[int, list[int]]] = []
        sign = prev = 1
        for k in range(n):
            piv = next((i for i in range(k, n) if m[i][k]), None)
            if piv is None:
                return _Echelon(0, m, steps)
            if piv != k:
                m[k], m[piv] = m[piv], m[k]
                sign = -sign
            mk, p = m[k], m[k][k]
            fs = [m[i][k] for i in range(k + 1, n)]
            for i, f in enumerate(fs, k + 1):
                if f or p != prev:  # else row i is unchanged
                    tail = zip(m[i][k + 1 :], mk[k + 1 :])
                    m[i][k:] = [0] + [(x * p - f * y) // prev for x, y in tail]
            steps.append((piv, fs))
            prev = p
        return _Echelon(sign * prev, m, steps)


class _Echelon(NamedTuple):
    """A fraction-free (Bareiss) elimination of a square matrix.

    Step k swaps row steps[k][0] into place k, then replaces each row i > k
    by (row_i * p - f * row_k) / prev, with p the pivot rows[k][k], prev the
    pivot before it (1 at k = 0) and f = steps[k][1][i - k - 1], row i's entry
    in column k. Each division is exact, and each pivot is a leading minor of
    the row-permuted matrix, so the last pivot is +-det. If some column has no
    pivot, det is 0 and rows and steps stop there.
    """

    det: int
    rows: list[list[int]]
    steps: list[tuple[int, list[int]]]


@record
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


class _Loop(NamedTuple):
    """One run of the elimination loop (see smith_normal_form) over a block.

    pivots are (row, column, |p|) in the order they were retired, and log
    holds the run's elementary operations in order (see _replay), by the
    block's own indices. rows and cols are the active block left over: every
    row and column not retired, in increasing index order.
    """

    pivots: list[tuple[int, int, int]]
    log: list[tuple]
    rows: dict[int, dict[int, int]]
    cols: dict[int, set[int]]


def _eliminate(block: list[dict[int, int]], ncols: int, units_only: bool) -> _Loop:
    """Run the elimination loop on a copy of the sparse rows block, logging
    its operations. With units_only it stops before the first pivot that is
    not a unit; otherwise it runs until the active block is empty.
    """
    # rows[i] holds row i's entries in active columns, cols[j] the active
    # rows with an entry in column j. Both dicts keep increasing index order,
    # as keys are only removed.
    rows = {i: dict(row) for i, row in enumerate(block)}
    cols: dict[int, set[int]] = {j: set() for j in range(ncols)}
    for i, row in rows.items():
        for j in row:
            cols[j].add(i)
    log: list[tuple] = []
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
        sub(k, q, rows[i])
        log.append(("row", k, q, i))

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
        # Clear row i: col l -= q * col j.
        qs = {l: q for l, x in prow.items() if l != j and (q := _nearest(x, p))}
        for k in cols[j]:
            sub(k, rows[k][j], qs)
        if qs:
            log.append(("col", j, qs))
        if len(prow) > 1 or len(cols[j]) > 1:
            continue  # a remainder is left, so the next pivot is smaller
        if ax != 1:
            bad = next((k for k, rk in rows.items() if any(x % p for x in rk.values())), None)
            if bad is not None:
                row_op(i, -1, bad)  # pull the first offending row up, re-clear
                continue
        del rows[i], cols[j], keys[i]
        if p < 0:
            log.append(("neg", i))
        pivots.append((i, j, ax))
    return _Loop(pivots, log, rows, cols)


def _replay(log: list[tuple], vecs: list[dict[int, int]], kind: str) -> None:
    """Apply the operations of one kind in a log of _eliminate to vecs, in
    place and in log order: for kind "row", the row operations and negations
    to the sparse rows vecs; for kind "col", the column clears to the sparse
    columns vecs. Raise VerificationError for any operation, of either kind, that is
    not one of the three that _eliminate logs, each of determinant +-1:

    - ("row", k, q, i): row k -= q * row i, for an integer q and k != i;
    - ("col", j, {l: q}): column l -= q * column j for each key l != j;
    - ("neg", i): row i = -row i.

    Row and column operations commute, as (x*a)*y = x*(a*y), so the row
    operations of a log can be replayed first and its column clears after.
    """
    n = len(vecs)

    def index(x: object) -> bool:
        return type(x) is int and 0 <= x < n

    for op in log:
        if op[0] == "row" and len(op) == 4:
            if kind == "row":
                _, k, q, i = op
                if k == i or not (index(k) and index(i)) or type(q) is not int:
                    raise VerificationError("SNF check failed: log row operation not elementary")
                _axpy(vecs[k], -q, vecs[i])
        elif op[0] == "neg" and len(op) == 2:
            if kind == "row":
                if not index(i := op[1]):
                    raise VerificationError("SNF check failed: log negation not elementary")
                vecs[i] = {m: -y for m, y in vecs[i].items()}
        elif op[0] == "col" and len(op) == 3:
            if kind == "col":
                _, j, qs = op
                if not index(j) or j in qs or not all(
                    index(l) and type(q) is int for l, q in qs.items()
                ):
                    raise VerificationError("SNF check failed: log column clear not elementary")
                vj = vecs[j]
                for l, q in qs.items():
                    _axpy(vecs[l], -q, vj)
        else:
            raise VerificationError("SNF check failed: unknown operation in the log")


def _transpose(vecs: list[dict[int, int]], order: list[int], n: int) -> list[dict[int, int]]:
    """Sparse rows of the matrix with n rows whose column t is vecs[order[t]]."""
    out: list[dict[int, int]] = [{} for _ in range(n)]
    for t, i in enumerate(order):
        for m, x in vecs[i].items():
            out[m][t] = x
    return out


def _dense(rows: list[dict[int, int]], ncols: int) -> IntMatrix:
    out = []
    for row in rows:
        full = [0] * ncols
        for j, x in row.items():
            full[j] = x
        out.append(tuple(full))
    return IntMatrix(len(rows), ncols, tuple(out))


def _unit_rows(n: int) -> list[dict[int, int]]:
    return [{t: 1} for t in range(n)]


def _pivot_order(pivots: list[tuple], n: int, side: int) -> list[int]:
    """Rows (side 0) or columns (side 1) in pivot order: the pivots' in the
    order they were retired, then the rest by index."""
    first = [p[side] for p in pivots]
    done = set(first)
    return first + [i for i in range(n) if i not in done]


def _factor(log: list[tuple], pivots: list[tuple], n: int, kind: str) -> list[dict[int, int]]:
    """The operations of one kind in log applied to n identity rows (kind
    "row") or columns (kind "col"), put in pivot order: the sparse rows of
    u1 or u2, or the sparse columns of v2."""
    vecs = _unit_rows(n)
    _replay(log, vecs, kind)
    return [vecs[i] for i in _pivot_order(pivots, n, int(kind == "col"))]


class _Reduction(NamedTuple):
    """A Smith reduction in two factors, as logs, with the data that
    certifies it.

    The unit phase retires the unit pivots (row, column), in order, by the
    operations in log (see _replay). Let u1 and v1 be the log applied to
    identity rows and columns, with rows and columns put in pivot order
    (_pivot_order); then u1*a*v1 = diag(I_k, b) for k = units. m is the
    matrix the remainder loop ran on: b, or the Hermite form of b when b is
    square with det b != 0. The loop retires pivots2 (row, column, d) by the
    operations in log2; with u2 and v2 built from log2 the same way,
    u2*m*v2 = s2 = diag(d_1, d_2, ...).
    """

    pivots: list[tuple[int, int]]
    log: list[tuple]
    b: IntMatrix
    m: IntMatrix
    pivots2: list[tuple[int, int, int]]
    log2: list[tuple]

    @property
    def units(self) -> int:
        return len(self.pivots)


def _reduce(a: list[dict[int, int]], ncols: int) -> _Reduction:
    """The two-factor reduction, described in smith_normal_form, of the
    matrix with sparse rows a and ncols columns; uncertified."""
    one = _eliminate(a, ncols, units_only=True)
    k = len(one.pivots)
    b = IntMatrix(len(a) - k, ncols - k, tuple(
        tuple(row.get(j, 0) for j in one.cols) for row in one.rows.values()
    ))
    m = b
    if b.rows == b.cols > 0 and (d := b.det()):
        m = _hermite_mod(b, abs(d))
    two = _eliminate(_sparse_rows(m), m.cols, units_only=False)
    return _Reduction([(i, j) for i, j, _ in one.pivots], one.log, b, m, two.pivots, two.log)


def _xgcd(x: int, y: int) -> tuple[int, int, int]:
    """(g, c, e) with c*x + e*y = g = gcd(x, y) >= 0."""
    c0, c1, e0, e1 = 1, 0, 0, 1
    while y:
        q = x // y
        x, y = y, x - q * y
        c0, c1 = c1, c0 - q * c1
        e0, e1 = e1, e0 - q * e1
    return (x, c0, e0) if x >= 0 else (-x, -c0, -e0)


def _hermite_mod(b: IntMatrix, d: int) -> IntMatrix:
    """An upper triangular basis h of the column lattice b*Z^m, by column
    operations modulo d = |det b| > 0: Cohen's Algorithm 2.4.8 (HNF modulo D,
    after Domich, Kannan and Trotter). Every entry stays below d.

    Row i, from the last up, is cleared left of the diagonal by extended-gcd
    steps between column i and each column j < i, with every entry reduced
    modulo R. The diagonal entry is then gcd(x, R) for the remaining entry x,
    column i is fixed as its multiple by the gcd cofactor, the columns to the
    right are reduced by it in row i, and R is divided by that gcd. Only rows
    0..i of the working columns can be nonzero at that point, so each column
    shrinks as i falls. The columns to the right are also reduced modulo d:
    d*e_t lies in the lattice, and a triangular set of lattice vectors with
    the same diagonal still has determinant d, so it is still a basis.
    """
    m = b.rows
    a = [list(col) for col in zip(*b.entries)]
    w: list[list[int]] = [[] for _ in range(m)]
    r = d
    for i in range(m - 1, -1, -1):
        for j in range(i - 1, -1, -1):
            y = a[j][i]
            if not y:
                continue
            x = a[i][i]
            ck, cj = a[i][: i + 1], a[j][: i + 1]
            if x and not y % x:  # the common case once x is 1: column i stays
                q = y // x
                a[j] = [(t - q * s) % r for s, t in zip(ck, cj)]
                continue
            g, c, e = _xgcd(x, y)
            p, q = x // g, y // g
            a[i] = [(c * s + e * t) % r for s, t in zip(ck, cj)]
            a[j] = [(p * t - q * s) % r for s, t in zip(ck, cj)]
        g, c, _ = _xgcd(a[i][i], r)
        wi = [c * s % r for s in a[i][: i + 1]]
        if not wi[i]:
            wi[i] = r
        for j in range(i + 1, m):
            q = w[j][i] // wi[i]
            if q:
                w[j][: i + 1] = [(s - q * t) % d for s, t in zip(w[j], wi)]
        w[i] = wi
        r //= g
    return IntMatrix(m, m, tuple(
        tuple(w[c][i] if i <= c else 0 for c in range(m)) for i in range(m)
    ))


def _solve(b: IntMatrix, h: IntMatrix) -> IntMatrix:
    """The integer matrix t with b*t = h, for b square with det b != 0: the
    steps of b's one fraction-free elimination (IntMatrix._echelon) applied
    to h, then back substitution.

    The steps applied to h give the right half of the elimination of [b | h],
    whose divisions are exact for the same reason as b's own: row i is led
    by a leading minor of b, and the last pivot is det = +-det b. Back
    substitution computes y = det * t row by row; each division by a leading
    minor is exact, because the rows still hold for the rational solution t
    and det * t is integral by Cramer's rule. t is integral exactly when det
    divides every entry of y; if not, h is not in the column lattice of b and
    VerificationError is raised.
    """
    m, e = b.rows, b._echelon
    z = [list(row) for row in h.entries]
    prev = 1
    for k, (piv, fs) in enumerate(e.steps):
        z[k], z[piv] = z[piv], z[k]
        zk, p = z[k], e.rows[k][k]
        for i, f in enumerate(fs, k + 1):
            if f or p != prev:
                z[i] = [(x * p - f * w) // prev for x, w in zip(z[i], zk)]
        prev = p
    y: list[list[int]] = [[] for _ in range(m)]
    for i in range(m - 1, -1, -1):
        row = e.rows[i]
        acc = [prev * x for x in z[i]]
        for j in range(i + 1, m):
            c = row[j]
            if c:
                acc = [s - c * t for s, t in zip(acc, y[j])]
        y[i] = [s // row[i] for s in acc]
    if any(s % prev for row in y for s in row):
        raise VerificationError("SNF check failed: Hermite transform not integral")
    return IntMatrix(m, m, tuple(tuple(s // prev for s in row) for row in y))


def smith_normal_form(a: IntMatrix) -> "SmithForm":
    """Return the Smith normal form of a as a SmithForm: s, and u and v
    with u*a*v = s, u and v unimodular, s diagonal with each diagonal entry
    nonnegative and dividing the next. s's nonzero diagonal is certified
    here and kept as SmithForm.diagonal; s, u and v are built the first time
    they are read, and iterating gives (u, s, v).

    s is unique. u and v are not; one deterministic reduction fixes them. Its
    core is one loop over the sparse rows of an active block, in the manner
    of Havas, Holt and Rees (Linear Algebra Appl. 192, 1993), which repeats
    these steps:

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

    The loop carries no transform: it logs its elementary operations in
    order, each row k -= q*row i with k != i, one column clear {l: q} per
    pivot (column l -= q*column j, j not a key) and a row negation when the
    pivot is -1. The reduction runs in two factors, split at the first pivot
    that is not a unit (Kannan and Bachem, SIAM J. Comput. 8, 1979, keep
    transforms small the same way, by working on what is left):

    1. The unit phase runs the loop on a until no unit is left. Its log
       applied to identity rows and columns gives u1 and v1 with, pivots
       first, u1*a*v1 = diag(I_k, B) for the remainder B.
    2. If B is square with D = |det B| != 0 (one Bareiss elimination of B's
       entries, which the unit phase keeps small), the Hermite step replaces
       B by a column basis H of its lattice, upper triangular with entries
       below D (_hermite_mod, after Domich, Kannan and Trotter, Math. Oper.
       Res. 12, 1987). For these inputs H is the identity outside a few
       rows.
    3. The loop runs again on M = H, or on M = B without the Hermite step
       (also when B is not square or det B = 0). Its log applied to identity
       rows and columns gives u2*M*v2 = s2 = diag(d_1, ..., d_r).

    Then s = diag(I_k, s2), u = diag(I_k, u2)*u1 and v = v1*diag(I_k, U*v2),
    with U the exact transform B*U = H (_solve; U = I without the Hermite
    step), so u*a*v = diag(I_k, u2*B*U*v2) = diag(I_k, s2) = s.

    The certificate of s reads the logs and H, never a transform, and is
    exact integer arithmetic throughout:

    - Unit phase: the log, replayed by _replay (which refuses any operation
      of another kind) on a fresh sparse copy of a, leaves every pivot column
      exactly {i_t: 1} and B in pivot order on what is left.
    - Hermite step: H is upper triangular, |prod diag H| = |det B| != 0 with
      det B from B's own cached elimination (never a number kept in the
      reduction), and B = H*X for an integral X, found by back substitution
      on H's sparse rows (_left_divides).
    - Remainder: the d_t are positive and each divides the next, and the
      remainder's log, replayed on a fresh sparse copy of M, leaves every
      pivot column exactly {i_t: d_t} and every other column empty.

    Why that proves s:

    - A replayed log. Row k -= q*row i multiplies on the left by
      I - q*e_k*e_i^t, and a column clear {l: q} multiplies on the right by
      I - e_j*w^t with w = sum of q*e_l. By the matrix determinant lemma,
      det(I + x*y^t) = 1 + y^t*x, these have determinant 1 - q*[k = i] and
      1 - w_j, so k != i and j not a key make each 1; a negation has
      determinant -1, and putting rows and columns in pivot order is a
      permutation. With integer multipliers, the log applied to identity rows
      and columns gives integral factors of determinant +-1, and the replay
      shows that they take a to diag(I_k, B) and M to s2 exactly. The
      remainder loop's "pull the offending row up" step is row i -= -1*row
      k; k = i never happens, as the pivot row then holds only the pivot,
      which divides itself, and _replay refuses k = i anyway.
    - The Hermite step. B = H*X gives B*Z^m inside H*Z^m. Both lattices
      have index |det B| = |prod diag H| = |det H| in Z^m, so they are
      equal, and coker B = coker H. Equivalently det X = +-1, so X is
      unimodular and U = X^-1 is integral. (B*adj(B) = det(B)*I puts D*Z^m
      in B*Z^m, which is why H can be computed modulo D; the certificate
      does not rely on that, whatever algorithm produced H.)
    - So diag(I_k, s2) is the Smith form of diag(I_k, B), hence of a, and
      its diagonal is a chain, since 1 divides everything.

    Reading u or v replays the logs on identity rows and columns and, for v,
    solves B*U = H, refusing a non-integral U and checking B*U = H exactly.
    Then U = X^-1, and u and v are unimodular by the proofs above.
    """
    rows = _sparse_rows(a)
    r = _reduce(rows, a.cols)
    _check_snf(rows, a.cols, r)
    return SmithForm(r)


class SmithForm:
    """The result of smith_normal_form: the certified nonzero diagonal of s
    (k unit pivots, then the d_t), and s, u and v, built the first time they
    are read; u and v are assembled from the reduction's logs. Iterating
    gives (u, s, v), so u, s, v = smith_normal_form(a) unpacks."""

    def __init__(self, r: _Reduction) -> None:
        self._r = r
        self.diagonal = (1,) * r.units + tuple(d for _, _, d in r.pivots2)

    @cached_property
    def s(self) -> IntMatrix:
        """The certified diagonal, padded with zeros to a's shape."""
        k, b = self._r.units, self._r.b
        diag = [{t: d} for t, d in enumerate(self.diagonal)]
        return _dense(diag + [{}] * (k + b.rows - len(diag)), k + b.cols)

    @cached_property
    def u(self) -> IntMatrix:
        """diag(I_k, u2)*u1, with u1 and u2 rebuilt from the logs."""
        r = self._r
        k, m = r.units, r.m
        u1 = _factor(r.log, r.pivots, k + m.rows, "row")
        u2 = _factor(r.log2, r.pivots2, m.rows, "row")
        return _dense(u1[:k] + _sparse_mul(u2, u1[k:]), k + m.rows)

    @cached_property
    def v(self) -> IntMatrix:
        """v1*diag(I_k, U*v2), with v1 and v2 rebuilt from the logs and the
        Hermite transform U with B*U = H solved for (U = I without the
        Hermite step). _solve refuses a non-integral U.

        The clears build v1 = E_1*...*E_m*P from identity columns, for E_i
        the clears in log order and P the permutation to pivot order, so v
        is computed as E_1*(...*(E_m*(P*diag(I_k, U*v2)))). A clear {l: q_l}
        of column j is E = I - e_j*q^t, which subtracts from row j each row
        l, q_l times; that touches only the clears' pairs, where the product
        of v1's remainder columns with U*v2 would be dense.
        """
        r = self._r
        k, b, m = r.units, r.b, r.m
        v2 = _factor(r.log2, r.pivots2, m.cols, "col")
        w = _dense(_transpose(v2, list(range(m.cols)), m.cols), m.cols)
        if m != b:
            t = _solve(b, m)
            if b @ t != m:
                raise VerificationError("SNF check failed: B*U != H")
            w = t @ w
        nc = k + m.cols
        col_order = _pivot_order(r.pivots, nc, 1)
        v: list[dict[int, int]] = [{} for _ in range(nc)]
        for t, j in enumerate(col_order[:k]):
            v[j] = {t: 1}
        for j, row in zip(col_order[k:], w.entries):
            v[j] = {k + c: x for c, x in enumerate(row) if x}
        for op in reversed(r.log):
            if op[0] == "col":
                _, j, qs = op
                for l, q in qs.items():
                    _axpy(v[j], -q, v[l])
        return _dense(v, nc)

    def __iter__(self) -> Iterator[IntMatrix]:
        return iter((self.u, self.s, self.v))


def _replays_to(a: list[dict[int, int]], ncols: int, log: list[tuple],
                pivots: list[tuple[int, int, int]], rest: IntMatrix) -> bool:
    """Whether log, replayed on a fresh copy of the sparse rows a (row
    operations first, then the column clears), gives diag(d_1, ..., d_r,
    rest) in pivot order for the pivots (row, column, d). Raise
    VerificationError if the pivots are no one-to-one map into a's shape
    that leaves rest's shape.
    """
    nr, k = len(a), len(pivots)
    row_order, col_order = _pivot_order(pivots, nr, 0), _pivot_order(pivots, ncols, 1)
    if (
        sorted(row_order) != list(range(nr))
        or sorted(col_order) != list(range(ncols))
        or (rest.rows, rest.cols) != (nr - k, ncols - k)
    ):
        raise VerificationError("SNF check failed: factor shapes do not match")
    work = [dict(row) for row in a]
    _replay(log, work, "row")
    cols = _transpose(work, list(range(nr)), ncols)
    _replay(log, cols, "col")
    rest_cols = list(zip(*rest.entries)) if rest.rows else [()] * rest.cols
    want = [{i: d} for i, _, d in pivots] + [
        {row_order[k + t]: x for t, x in enumerate(col) if x} for col in rest_cols
    ]
    return [cols[j] for j in col_order] == want


def _check_snf(a: list[dict[int, int]], ncols: int, r: _Reduction) -> None:
    """Certify the s of a two-factor reduction of the matrix with sparse rows
    a and ncols columns exactly, or raise VerificationError. The clauses are
    listed, and shown to prove s, in smith_normal_form's docstring; the
    Hermite clauses run whenever the remainder loop ran on some m != b.
    """
    b, m = r.b, r.m
    if not _replays_to(a, ncols, r.log, [(i, j, 1) for i, j in r.pivots], b):
        raise VerificationError("SNF check failed: u1*a*v1 != diag(I, B)")
    if m != b:
        n = b.rows
        if (b.cols, m.rows, m.cols) != (n, n, n):
            raise VerificationError("SNF check failed: factor shapes do not match")
        if any(m.entries[i][j] for i in range(n) for j in range(i)):
            raise VerificationError("SNF check failed: H not upper triangular")
        d = b.det()
        if not d or abs(prod(m.entries[i][i] for i in range(n))) != abs(d):
            raise VerificationError("SNF check failed: |prod diag H| != |det B|")
        if not _left_divides(m, b):
            raise VerificationError("SNF check failed: B = H*X has no integral X")
    diag = [d for _, _, d in r.pivots2]
    if any(type(d) is not int or d < 1 for d in diag) or any(
        d2 % d1 for d1, d2 in zip(diag, diag[1:])
    ):
        raise VerificationError("SNF check failed: divisibility chain broken")
    rest = IntMatrix.zeros(m.rows - len(diag), m.cols - len(diag))
    if not _replays_to(_sparse_rows(m), m.cols, r.log2, r.pivots2, rest):
        raise VerificationError("SNF check failed: u2*B*v2 is not diag(s2)")


def _left_divides(h: IntMatrix, b: IntMatrix) -> bool:
    """Whether b = h*x for an integral x, h upper triangular with a nonzero
    diagonal: back substitution on h's sparse rows, x from the last row up.
    A Hermite form is the identity outside a few rows, so most rows of x are
    rows of b."""
    hs = _sparse_rows(h)
    x: list[list[int]] = [[] for _ in hs]
    for i in range(len(hs) - 1, -1, -1):
        p = hs[i].pop(i)
        acc = b.entries[i]
        for j, c in hs[i].items():
            acc = [s - c * y for s, y in zip(acc, x[j])]
        if any(s % p for s in acc):
            return False
        x[i] = [s // p for s in acc]
    return True


def coker_ker(a: IntMatrix) -> KGroups:
    """K-groups of the integer map a: Z^cols -> Z^rows.

    coker = Z^rows / im(a) described by free rank plus invariant factors > 1,
    ker rank = cols - rank(a).
    """
    diag = smith_normal_form(a).diagonal
    rank = len(diag)
    return KGroups(
        k0_free_rank=a.rows - rank,
        k0_torsion=tuple(d for d in diag if d > 1),
        k1_rank=a.cols - rank,
    )
