"""Integer matrices held as their nonzero entries, and the one sparse row
update.

`IntMatrix` is the one storage format for every count and presentation
matrix in the package: the correspondence graphs' B and the Pimsner
matrices, a multigraph's adjacency, and the Smith layer's input. Dense rows
are built only when `entries` is read, and the exact determinant (with the
two probe solutions the Smith certificate reads) only when `det` is called.

`_axpy` adds a multiple of one sparse vector to another, over the integers
or modulo m. Both eliminations in the package run on it: the Smith layer
over Z or modulo N (`intlinalg`), and the F_p eigenspace split of a
character table (`chartable`), so a table run needs no Smith layer.
"""

from functools import cached_property
from itertools import compress

from .errors import SpecError
from .record import record

__all__ = ["IntMatrix"]


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
