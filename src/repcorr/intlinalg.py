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
a pivot -1). The reduction is split into two factors at the first pivot
that is not a unit, and the loop runs again on the remainder B alone. When
B is square with D = |det B| != 0, that run works modulo N = gcd(D,
adj(B)*v_1, adj(B)*v_2) for two fixed probe vectors v_k, and the last
invariant factor is D over the others. Both factors are certified by one
kind of check: the factor's log is replayed on a fresh sparse copy of its
matrix, modulo N where the run was, and must give the claimed diagonal in
pivot order. smith_normal_form returns that certified diagonal and no
transform; s is built only when it is read, so K-groups, which read the
diagonal alone, never build it. The proofs, also given in
smith_normal_form:

- A replayed log. Every logged operation is an integer matrix of
  determinant +-1 (k != i and j not a key make the determinant lemma give
  1), so a replay that gives diag(I_k, B) from a, or the remainder's
  diagonal from B, proves it with unimodular factors, modulo N for a
  modular run.
- The modulus. With s_1 | ... | s_m the Smith form of B, s_m*B^-1 is
  integral, so B*y_k = det(B)*v_k makes D/N divide s_m, and every s_i with
  i < m divides D/s_m, hence N. The replay modulo N shows coker B /
  N*coker B = the sum of Z/gcd(d_i, N), and invariant factors are unique,
  so gcd(d_i, N) = s_i for i < m.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property
from itertools import chain, compress
from math import gcd, prod
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
    """Immutable integer matrix held as its nonzero entries: nz[i] is the
    tuple of row i's (column, value) pairs with value != 0, in increasing
    column order. So two matrices are equal, and hash equal, exactly when
    their entries are, however they were built. Zero rows or columns are
    legal."""

    rows: int
    cols: int
    nz: tuple[tuple[tuple[int, int], ...], ...]

    @staticmethod
    def from_rows(rows: list[list[int]] | tuple) -> "IntMatrix":
        data = [tuple(map(int, row)) for row in rows]
        ncols = len(data[0]) if data else 0
        if any(len(row) != ncols for row in data):
            raise SpecError("ragged matrix rows")
        nz = tuple(tuple(zip(compress(range(ncols), row), compress(row, row))) for row in data)
        return IntMatrix(len(data), ncols, nz)

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, ((),) * rows)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(((i, 1),) for i in range(n)))

    @cached_property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The dense rows, built the first time they are read."""
        out = [[0] * self.cols for _ in self.nz]
        for full, row in zip(out, self.nz):
            for j, x in row:
                full[j] = x
        return tuple(map(tuple, out))

    def __getitem__(self, pos: tuple[int, int]) -> int:
        i, j = pos
        return self.entries[i][j]

    def det(self) -> int:
        """Exact determinant via fraction-free Bareiss elimination."""
        if self.rows != self.cols:
            raise SpecError("determinant of a non-square matrix")
        return self._bareiss[0]

    @cached_property
    def _bareiss(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(det B, ys) for the square matrix B, run once: ys holds
        y = adj(B)*v for each probe v of _probes, and is empty when det B = 0.
        The reduction and its certificate both read them for the same
        remainder B.

        The elimination runs on [B | v_1 v_2]. Step k swaps the first row
        with a nonzero entry in column k into place k, then replaces each row
        i > k by (row_i * p - f * row_k) / prev, with p the pivot in place
        (k, k), prev the pivot before it (1 at k = 0) and f row i's entry in
        column k. Each division is exact, and each pivot is a leading minor
        of the row-permuted matrix, so the last pivot is +-det. If some
        column has no pivot, det is 0. Each step combines rows, so the
        eliminated rows still hold for x = B^-1*v: back substitution, from
        the last row up, gives z = prev*x, every division exact as z is
        integral by Cramer's rule, and adj(B)*v = det*x = sign*z.
        """
        n = self.rows
        m = [list(row) + list(v) for row, v in zip(self.entries, zip(*_probes(n)))]
        sign = prev = 1
        for k in range(n):
            piv = next((i for i in range(k, n) if m[i][k]), None)
            if piv is None:
                return 0, ()
            if piv != k:
                m[k], m[piv] = m[piv], m[k]
                sign = -sign
            mk, p = m[k], m[k][k]
            for i in range(k + 1, n):
                f = m[i][k]
                if f or p != prev:  # else row i is unchanged
                    tail = zip(m[i][k + 1 :], mk[k + 1 :])
                    m[i][k:] = [0] + [(x * p - f * y) // prev for x, y in tail]
            prev = p
        z: list[list[int]] = [[]] * n
        for i in range(n - 1, -1, -1):
            row = m[i]
            acc = [prev * c for c in row[n:]]
            for j in range(i + 1, n):
                if c := row[j]:
                    acc = [s - c * t for s, t in zip(acc, z[j])]
            z[i] = [s // row[i] for s in acc]
        return sign * prev, tuple(tuple(sign * t for t in y) for y in zip(*z))


def _probes(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two fixed probe vectors of length n that _bareiss solves for."""
    return (1,) * n, tuple(range(1, n + 1))


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


def _axpy(dst: dict[int, int], c: int, src: dict[int, int], mod: int = 0) -> dict[int, int]:
    """dst += c * src, dropping entries that cancel; return dst. Unless mod is
    0, this runs modulo mod, and the entries it writes are residues in
    (-mod/2, mod/2]; so _axpy({}, 1, v, mod) is v reduced."""
    h = mod // 2
    for key, x in src.items():
        y = dst.get(key, 0) + c * x
        if mod:
            y = h - (h - y) % mod
        if y:
            dst[key] = y
        else:
            dst.pop(key, None)
    return dst


def _sparse_rows(m: IntMatrix) -> list[dict[int, int]]:
    return [dict(row) for row in m.nz]


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


def _eliminate(block: list[dict[int, int]], ncols: int, units_only: bool, mod: int = 0) -> _Loop:
    """Run the elimination loop on a copy of the sparse rows block, logging
    its operations. With units_only it stops before the first pivot that is
    not a unit; otherwise it runs until the active block is empty. With mod
    != 0 it runs modulo mod on residues in (-mod/2, mod/2], and a unit
    modulo mod ranks and clears as a unit (see smith_normal_form).
    """
    # rows[i] holds row i's entries in active columns, cols[j] the active
    # rows with an entry in column j. Both dicts keep increasing index order,
    # as keys are only removed.
    half = mod // 2
    rows = {i: _axpy({}, 1, row, mod) if mod else dict(row) for i, row in enumerate(block)}
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
            if mod:
                y = half - (half - y) % mod
            if y:
                if l not in rk:
                    cols[l].add(k)
                    moved.add(l)
                rk[l] = y
            elif l in rk:  # modulo mod, c*x can be 0 where row k has no entry
                del rk[l]
                cols[l].discard(k)
                moved.add(l)

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
                if mod and ax > 1 and gcd(x, mod) == 1:
                    ax = 1  # a unit modulo mod ranks with the units
                if best is None or ax <= best[0]:
                    key = (ax, r1 * (len(cols[j]) - 1), i, j)
                    if best is None or key < best:
                        best = key
            keys[i] = best
        stale.clear()
        best = min(keys.values(), default=None)
        if best is None or (units_only and best[0] != 1):
            break
        _, _, i, j = best
        prow = rows[i]
        p = prow[j]
        g = gcd(p, mod)  # |p| when mod is 0
        inv = pow(p, -1, mod) if mod and g == 1 else 0

        def quotient(x: int) -> int:
            # x - q*p is 0 modulo mod for a unit p modulo mod, else at most |p|/2
            return x * inv % mod if inv else _nearest(x, p)

        for k in [k for k in cols[j] if k != i]:
            row_op(k, quotient(rows[k][j]), i)
        # Clear row i: col l -= q * col j.
        qs = {l: q for l, x in prow.items() if l != j and (q := quotient(x))}
        for k in cols[j]:
            sub(k, rows[k][j], qs)
        if qs:
            log.append(("col", j, qs))
        if len(prow) > 1 or len(cols[j]) > 1:
            continue  # a remainder is left, so the next pivot is smaller
        if g != 1:
            bad = next((k for k, rk in rows.items() if any(x % g for x in rk.values())), None)
            if bad is not None:
                row_op(i, -1, bad)  # pull the first offending row up, re-clear
                continue
        del rows[i], cols[j], keys[i]
        if p < 0:
            log.append(("neg", i))
        pivots.append((i, j, abs(p)))
    return _Loop(pivots, log, rows, cols)


def _replay(log: list[tuple], vecs: list[dict[int, int]], kind: str, mod: int = 0) -> None:
    """Apply the operations of one kind in a log of _eliminate to vecs, in
    place and in log order, modulo mod unless mod is 0: for kind "row", the
    row operations and negations to the sparse rows vecs; for kind "col", the
    column clears to the sparse columns vecs. Raise VerificationError for
    any operation, of either kind, that is not one of the three that
    _eliminate logs, each of determinant +-1:

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
                _axpy(vecs[k], -q, vecs[i], mod)
        elif op[0] == "neg" and len(op) == 2:
            if kind == "row":
                if not index(i := op[1]):
                    raise VerificationError("SNF check failed: log negation not elementary")
                vecs[i] = _axpy({}, -1, vecs[i], mod)
        elif op[0] == "col" and len(op) == 3:
            if kind == "col":
                _, j, qs = op
                if not index(j) or j in qs or not all(
                    index(l) and type(q) is int for l, q in qs.items()
                ):
                    raise VerificationError("SNF check failed: log column clear not elementary")
                vj = vecs[j]
                for l, q in qs.items():
                    _axpy(vecs[l], -q, vj, mod)
        else:
            raise VerificationError("SNF check failed: unknown operation in the log")


def _transpose(vecs: list[dict[int, int]], order: list[int], n: int) -> list[dict[int, int]]:
    """Sparse rows of the matrix with n rows whose column t is vecs[order[t]]."""
    out: list[dict[int, int]] = [{} for _ in range(n)]
    for t, i in enumerate(order):
        for m, x in vecs[i].items():
            out[m][t] = x
    return out


def _pivot_order(pivots: list[tuple], n: int, side: int) -> list[int]:
    """Rows (side 0) or columns (side 1) in pivot order: the pivots' in the
    order they were retired, then the rest by index."""
    first = [p[side] for p in pivots]
    done = set(first)
    return first + [i for i in range(n) if i not in done]


class _Reduction(NamedTuple):
    """A Smith reduction in two factors, as logs, with the data that
    certifies it.

    The unit phase retires the unit pivots (row, column), in order, by the
    operations in log (see _replay). Let u1 and v1 be the log applied to
    identity rows and columns, with rows and columns put in pivot order
    (_pivot_order); then u1*a*v1 = diag(I_k, b) for k = units. mod is 0, or
    N = gcd(det b, ys) when b is square with det b != 0, ys holding
    adj(b)*v for each probe v (_probes). The remainder loop runs on b modulo
    mod (exactly for 0) and retires pivots2 (row, column, d) by the
    operations in log2; with u2 and v2 built from log2 the same way,
    u2*b*v2 = diag(d_1, d_2, ...) modulo mod.
    """

    pivots: list[tuple[int, int]]
    log: list[tuple]
    b: IntMatrix
    mod: int
    ys: tuple[tuple[int, ...], ...]
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
        tuple((t, x) for t, j in enumerate(one.cols) if (x := row.get(j))) for row in one.rows.values()
    ))
    d, ys = b._bareiss if b.rows == b.cols > 0 else (0, ())
    mod = gcd(d, *chain(*ys))  # 0 when d is 0
    two = _eliminate(_sparse_rows(b), b.cols, units_only=False, mod=mod)
    return _Reduction([(i, j) for i, j, _ in one.pivots], one.log, b, mod, ys, two.pivots, two.log)


def smith_normal_form(a: IntMatrix) -> "SmithForm":
    """Return the Smith normal form of a as a SmithForm: the nonzero
    diagonal of the s with u*a*v = s for some unimodular u and v, s diagonal
    with each diagonal entry nonnegative and dividing the next. The diagonal
    is certified here; s itself is built the first time it is read. No
    transform is returned.

    s is unique. One deterministic reduction finds it. Its core is one loop
    over the sparse rows of an active block, in the manner of Havas, Holt
    and Rees (Linear Algebra Appl. 192, 1993), which repeats these steps:

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
    that is not a unit (Kannan and Bachem, SIAM J. Comput. 8, 1979, work on
    what is left the same way):

    1. The unit phase runs the loop on a until no unit is left. Its log
       takes a, pivots first, to diag(I_k, B) for the remainder B.
    2. If B is square (m x m) with D = |det B| != 0, one Bareiss elimination
       of [B | v_1 v_2] (IntMatrix._bareiss, on B's entries, which the unit
       phase keeps small) gives det B and y_k = adj(B)*v_k for two fixed
       probe vectors v_k (_probes), and N = gcd(D, y_1, y_2). The loop runs
       again on B modulo N, after Eberly, Giesbrecht and Villard (FOCS
       2000) and Saunders and Wan (ISSAC 2004): entries are kept as residues
       in (-N/2, N/2] and leave the block when they are 0 modulo N; a unit
       modulo N ranks as |x| = 1 and clears its column and row in one step,
       with q = x*p^-1 mod N; and a pivot p is retired once gcd(p, N)
       divides every active entry. Its log takes B to diag(d_1, ..., d_r)
       modulo N. With t_i = gcd(d_i, N), padded with N to m entries,
       s2 = (t_1, ..., t_(m-1), D / (t_1*...*t_(m-1))). N = 1 leaves no
       entry, so no modular step runs at all.
    3. Otherwise (B not square, or det B = 0) the loop runs again on B
       exactly. Its log takes B to s2 = diag(d_1, ..., d_r).

    Then s = diag(I_k, s2). The certificate of s reads the logs, never a
    transform, and is exact integer arithmetic throughout:

    - Unit phase: the log, replayed by _replay (which refuses any operation
      of another kind) on a fresh sparse copy of a, leaves every pivot column
      exactly {i_t: 1} and B in pivot order on what is left.
    - Modulus: B*y_k = det(B)*v_k exactly, with det B from B's own cached
      elimination (never a number kept in the reduction), and N is
      gcd(D, y_1, y_2) recomputed from the y_k.
    - Remainder: the d_t are positive, s2 is a divisibility chain, and
      gcd(s_m, N) = t_m in the modular case; the remainder's log, replayed on
      a fresh sparse copy of B (modulo N in the modular case), leaves every
      pivot column {i_t: d_t} and every other column empty.

    Why that proves s:

    - A replayed log. Row k -= q*row i multiplies on the left by
      I - q*e_k*e_i^t, and a column clear {l: q} multiplies on the right by
      I - e_j*w^t with w = sum of q*e_l. By the matrix determinant lemma,
      det(I + x*y^t) = 1 + y^t*x, these have determinant 1 - q*[k = i] and
      1 - w_j, so k != i and j not a key make each 1; a negation has
      determinant -1, and putting rows and columns in pivot order is a
      permutation. With integer multipliers, the log applied to identity rows
      and columns gives integral factors of determinant +-1, and the replay
      shows that they take a to diag(I_k, B), and B to s2 exactly or to
      diag(d_1, ..., d_r) modulo N. The remainder loop's "pull the offending
      row up" step is row i -= -1*row k; k = i never happens, as the pivot
      row then holds only the pivot, which divides itself, and _replay
      refuses k = i anyway.
    - The modulus. Let s_1 | ... | s_m be the Smith form of B, so that
      D = s_1*...*s_m. s_m annihilates coker B, so s_m*B^-1 is integral, and
      y_k = det(B)*B^-1*v_k gives D | s_m*y_k; so D | s_m*N, and e = D/N
      divides s_m. Hence D/s_m = s_1*...*s_(m-1) divides N, and s_i | N for
      every i < m. This holds for any v_k, so the probes affect only the
      speed (how small N is), never the answer.
    - The replay modulo N. The logged operations are unimodular over Z, so
      they stay invertible modulo N, and the replay shows
      coker B / N*coker B = Z^m / (B*Z^m + N*Z^m), the sum of Z/t_i. The same
      group is the sum of Z/gcd(s_i, N). Both lists are chains: the gcd(s_i,
      N) as the s_i are, and the t_i since s2 is a chain and t_(m-1), which
      divides N and s_m, divides gcd(s_m, N) = t_m. Invariant factors are
      unique, so t_i = gcd(s_i, N) = s_i for i < m, and s_m = D / (s_1*...*
      s_(m-1)).
    - So diag(I_k, s2) is the Smith form of diag(I_k, B), hence of a, and
      its diagonal is a chain, since 1 divides everything.
    """
    rows = _sparse_rows(a)
    r = _reduce(rows, a.cols)
    return SmithForm(a.rows, a.cols, (1,) * r.units + _check_snf(rows, a.cols, r))


@record
class SmithForm:
    """The result of smith_normal_form for a rows x cols matrix: diagonal is
    the certified nonzero diagonal of s, k unit pivots and then the d_t."""

    rows: int
    cols: int
    diagonal: tuple[int, ...]

    @cached_property
    def s(self) -> IntMatrix:
        """The diagonal, padded with zeros to the shape rows x cols."""
        diag = tuple(((t, d),) for t, d in enumerate(self.diagonal))
        return IntMatrix(self.rows, self.cols, diag + ((),) * (self.rows - len(diag)))

    def __iter__(self) -> Iterator[IntMatrix]:
        """Yield s alone. The one reader is bench/job.py's counter hook,
        which unpacks the result; ROADMAP direction 1 replaces that hook,
        and this method goes with it."""
        return iter((self.s,))


def _replays_to(a: list[dict[int, int]], ncols: int, log: list[tuple],
                pivots: list[tuple[int, int, int]], rest: IntMatrix, mod: int = 0) -> bool:
    """Whether log, replayed modulo mod (exactly for 0) on a fresh copy of the
    sparse rows a (row operations first, then the column clears), gives
    diag(d_1, ..., d_r, rest) in pivot order for the pivots (row, column,
    d). Raise VerificationError if the pivots are no one-to-one map into a's
    shape that leaves rest's shape.
    """
    nr, k = len(a), len(pivots)
    row_order, col_order = _pivot_order(pivots, nr, 0), _pivot_order(pivots, ncols, 1)
    if (
        sorted(row_order) != list(range(nr))
        or sorted(col_order) != list(range(ncols))
        or (rest.rows, rest.cols) != (nr - k, ncols - k)
    ):
        raise VerificationError("SNF check failed: factor shapes do not match")
    work = [_axpy({}, 1, row, mod) if mod else dict(row) for row in a]
    _replay(log, work, "row", mod)
    cols = _transpose(work, list(range(nr)), ncols)
    _replay(log, cols, "col", mod)
    want = [{i: d} for i, _, d in pivots] + [{} for _ in range(rest.cols)]
    for t, row in enumerate(rest.nz):
        for j, x in row:
            want[k + j][row_order[k + t]] = x
    return [cols[j] for j in col_order] == want


def _check_snf(a: list[dict[int, int]], ncols: int, r: _Reduction) -> tuple[int, ...]:
    """Certify the s of a two-factor reduction of the matrix with sparse rows
    a and ncols columns exactly, and return its diagonal after the unit
    pivots, or raise VerificationError. The clauses are listed, and shown to
    prove s, in smith_normal_form's docstring.
    """
    b, mod = r.b, r.mod
    if not _replays_to(a, ncols, r.log, [(i, j, 1) for i, j in r.pivots], b):
        raise VerificationError("SNF check failed: u1*a*v1 != diag(I, B)")
    s = diag = [d for _, _, d in r.pivots2]
    if any(type(d) is not int or d < 1 for d in diag):
        raise VerificationError("SNF check failed: divisibility chain broken")
    if mod:
        if not 0 < b.rows == b.cols >= len(diag):
            raise VerificationError("SNF check failed: factor shapes do not match")
        n, det, probes = b.rows, b.det(), _probes(b.rows)
        if not det or len(r.ys) != len(probes) or any(
            len(y) != n or [sum(map(mul, row, y)) for row in b.entries] != [det * x for x in v]
            for y, v in zip(r.ys, probes)
        ):
            raise VerificationError("SNF check failed: B*y != det(B)*v")
        if mod != gcd(det, *chain(*r.ys)):
            raise VerificationError("SNF check failed: N != gcd(det B, y)")
        t = [gcd(d, mod) for d in diag] + [mod] * (n - len(diag))
        s = t[:-1] + [abs(det) // prod(t[:-1])]
        if gcd(s[-1], mod) != t[-1]:
            raise VerificationError("SNF check failed: gcd(s_m, N) != t_m")
    if any(d2 % d1 for d1, d2 in zip(s, s[1:])):
        raise VerificationError("SNF check failed: divisibility chain broken")
    rest = IntMatrix.zeros(b.rows - len(diag), b.cols - len(diag))
    if not _replays_to(_sparse_rows(b), b.cols, r.log2, r.pivots2, rest, mod):
        raise VerificationError("SNF check failed: u2*B*v2 is not diag(s2)")
    return tuple(s)


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
