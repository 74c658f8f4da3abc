"""Exact character tables of finite groups.

`character_table` runs the classic modular algorithm: build the class
multiplication matrices, split a simultaneous eigenbasis over F_p for a prime
p = 1 (mod exponent), p > 2*sqrt(|G|), then lift eigenvalue data back to exact
cyclotomic values in Q(zeta_exponent) through the discrete-log correspondence
between roots of unity in F_p and powers of zeta. The row orthogonality
relation X S X* = n I is verified exactly before a table is returned, so a
bug in the modular stage cannot leak a wrong table; for a square table it
implies the column relation (the proof is in `verify_table`).

The split needs one F_p routine, `_kernel_mod`. A piece span(b_1..b_k) is
split by a matrix A by taking, for each lam in F_p, the kernel of the matrix
with columns (A - lam I) b_j, until the eigenvectors found fill the piece;
filling it is also what proves the piece invariant under A.

Random choices (the eigenspace splitting combinations) come from a seeded
PRNG; if random combinations fail to split, a deterministic pass over every
class matrix finishes the job, which makes the result reproducible and the
abort path effectively unreachable.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from functools import cached_property
from math import isqrt, lcm

from .cyclo import Cyclo, parse_cyclo, zeta
from .errors import SpecError, VerificationError, too_long
from .groups import ClassData, Group, class_mult_coeffs, conjugacy, construct_group

__all__ = [
    "CharTable",
    "character_table",
    "load_table",
    "format_table",
    "tables_equal_up_to_row_order",
]

_MAX_RANDOM_SPLITS = 12


@dataclass(frozen=True)
class CharTable:
    group: Group
    classes: ClassData
    dims: tuple[int, ...]
    values: tuple[tuple[Cyclo, ...], ...]  # rows = irreps, columns = classes
    labels: tuple[str, ...]
    zeta_order: int
    # (i, j) with i <= j -> row i tensor row j, filled on demand by reps.tensor
    fusion_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def count(self) -> int:
        return len(self.dims)

    @cached_property
    def weights(self) -> tuple[tuple[Cyclo, ...], ...]:
        """W[i][j] = conj(chi_i(g_j)) * |C_j|, the factor S X* of X S X* read
        by rows; `verify_table` and `reps.decompose` share it."""
        sizes = self.classes.sizes
        return tuple(tuple(v.conj().scale(s) for v, s in zip(row, sizes)) for row in self.values)


# ---------------------------------------------------------------------------
# modular linear algebra helpers (dense, tiny matrices)


def _mat_vec(m: list[list[int]], v: list[int], p: int) -> list[int]:
    return [sum(mi[k] * v[k] for k in range(len(v))) % p for mi in m]


def _kernel_mod(m: list[list[int]], p: int) -> list[list[int]]:
    """Basis of {x : m x = 0} over F_p, one vector per free column.

    Forward elimination brings m to row echelon form. Each free column then
    gets one vector, found by back-substitution with that free variable 1
    and the others 0: the basis read off the reduced echelon form, which
    depends only on the kernel. A matrix of full column rank costs one
    forward pass.
    """
    rows = [[x % p for x in row] for row in m]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        inv = pow(rows[sel][c], -1, p)
        piv = [x * inv % p for x in rows[sel]]
        rows[sel], rows[r] = rows[r], piv
        pivots.append(c)
        if c + 1 == ncols:
            break  # no column is left to clear below the pivot
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], piv)]
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        vec = [0] * ncols
        vec[fc] = 1
        for row, pc in reversed(list(zip(rows, pivots))):
            vec[pc] = -sum(row[j] * vec[j] for j in range(pc + 1, ncols)) % p
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# the algorithm proper


def _least_prime(exponent: int, order: int) -> int:
    bound = 2 * isqrt(order) + 1
    p = exponent + 1
    while True:
        if p > bound and p > 2 and _is_prime(p):
            return p
        p += exponent if exponent > 1 else 1


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in range(2, isqrt(n) + 1):
        if n % q == 0:
            return False
    return True


def _primitive_root(p: int) -> int:
    factors = set()
    n = p - 1
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors.add(d)
            n //= d
        d += 1
    if n > 1:
        factors.add(n)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise VerificationError(f"no primitive root mod {p}")


def _split_subspace(basis: list[list[int]], amat: list[list[int]], p: int) -> list[list[list[int]]]:
    """Split span(basis) into the eigenspaces of amat that it contains.

    For lam = 0, 1, ..., p - 1 the kernel of the r x k matrix whose column j
    is (amat - lam I) b_j gives the coordinates, in `basis`, of the
    lam-eigenvectors inside the span; each kernel vector is lifted through
    `basis`. The scan stops once the kernel dimensions add up to k.

    A total of exactly k also proves that the span is invariant under amat:
    eigenvectors for distinct eigenvalues are independent, so k of them
    inside the k-dimensional span fill it, and a span of eigenvectors is
    mapped into itself. Any other total raises.
    """
    k, r = len(basis), len(basis[0])
    images = [_mat_vec(amat, b, p) for b in basis]
    pieces = []
    total = 0
    for lam in range(p):
        shifted = [[a[i] - lam * b[i] for a, b in zip(images, basis)] for i in range(r)]
        kern = _kernel_mod(shifted, p)
        if not kern:
            continue
        total += len(kern)
        pieces.append([[sum(c * b[t] for c, b in zip(w, basis)) % p for t in range(r)]
                       for w in kern])
        if total >= k:
            break
    if total != k:
        raise VerificationError("class matrix failed to diagonalize over F_p")
    return pieces


def _omega_vectors(class_mats: list[list[list[int]]], p: int, seed: int) -> list[list[int]]:
    r = len(class_mats)
    rng = random.Random(seed)
    # start from the standard basis of F_p^r
    full = []
    for i in range(r):
        e = [0] * r
        e[i] = 1
        full.append(e)
    pending: list[list[list[int]]] = [full]
    finished: list[list[int]] = []

    def push(piece: list[list[int]]) -> None:
        if len(piece) == 1:
            finished.append(piece[0])
        else:
            pending.append(piece)

    for _ in range(_MAX_RANDOM_SPLITS):
        if not pending:
            break
        coefs = [rng.randrange(p) for _ in range(r)]
        amat = [[sum(coefs[i] * class_mats[i][j][k] for i in range(r)) % p
                 for k in range(r)] for j in range(r)]
        work, pending = pending, []
        for piece in work:
            for sub in _split_subspace(piece, amat, p):
                push(sub)
    if pending:
        # guaranteed full split: distinct central characters differ on some class
        for i in range(r):
            if not pending:
                break
            work, pending = pending, []
            for piece in work:
                for sub in _split_subspace(piece, class_mats[i], p):
                    push(sub)
    if pending:
        raise VerificationError(
            "eigenspace splitting did not converge; class algebra is inconsistent"
        )
    if len(finished) != r:
        raise VerificationError("wrong number of central characters")
    out = []
    for v in finished:
        if v[0] % p == 0:
            raise VerificationError("central character vanishes on the identity class")
        inv = pow(v[0], -1, p)
        out.append([x * inv % p for x in v])
    return out


def character_table(g: Group, cd: ClassData | None = None, seed: int = 0) -> CharTable:
    """Compute the exact character table of g.

    Rows are ordered with the trivial character first, then by (dimension,
    lexicographic value order); columns follow the conjugacy class order.
    """
    if cd is None:
        cd = conjugacy(g)
    r = cd.count
    e = cd.exponent
    n = g.order
    p = _least_prime(e, n)

    class_mats = [class_mult_coeffs(g, cd, i) for i in range(r)]
    # (class_mats[i])[j][k] = a_ijk so that M_i omega = omega_i * omega
    omegas = _omega_vectors(class_mats, p, seed)

    size_inv = [pow(s, -1, p) for s in cd.sizes]
    rows = []
    for om in omegas:
        t2 = sum(om[j] * om[cd.inverse_class[j]] * size_inv[j] for j in range(r)) % p
        if t2 == 0:
            raise VerificationError("degree formula degenerated mod p")
        d2 = n * pow(t2, -1, p) % p
        dim = None
        for d in range(1, isqrt(n) + 1):
            if d * d % p == d2:
                dim = d
                break
        if dim is None:
            raise VerificationError("no integer degree matches the modular data")
        chi_hat = [dim * om[j] * size_inv[j] % p for j in range(r)]
        rows.append((dim, chi_hat))

    if sum(d * d for d, _ in rows) != n:
        raise VerificationError("sum of squared degrees misses the group order")

    z = pow(_primitive_root(p), (p - 1) // e, p)
    z_inv = pow(z, -1, p)
    z_inv_pows = [1] * e
    for s in range(1, e):
        z_inv_pows[s] = z_inv_pows[s - 1] * z_inv % p

    class_of_power = []
    for j in range(r):
        rep = cd.representatives[j]
        path = []
        x = 0
        for _ in range(e):
            path.append(cd.class_of[x])
            x = g.mul(x, rep)
        class_of_power.append(path)

    e_inv = pow(e, -1, p)
    table_rows: list[tuple[int, tuple[Cyclo, ...]]] = []
    for dim, chi_hat in rows:
        vals = []
        for j in range(r):
            powers = class_of_power[j]
            mults = []
            for s in range(e):
                acc = 0
                for l in range(e):
                    acc += chi_hat[powers[l]] * z_inv_pows[s * l % e]
                mults.append(acc % p * e_inv % p)
            if sum(mults) != dim:
                raise VerificationError("root-of-unity multiplicities failed to lift")
            vals.append(Cyclo.from_coeffs(e, mults))
        table_rows.append((dim, tuple(vals)))

    trivial = [row for row in table_rows if all(v.as_integer() == 1 for v in row[1])]
    if len(trivial) != 1:
        raise VerificationError("trivial character missing or duplicated")
    rest = [row for row in table_rows if row is not trivial[0]]
    rest.sort(key=lambda row: (row[0], tuple(v.coeffs() for v in row[1])))
    ordered = trivial + rest

    table = CharTable(
        group=g,
        classes=cd,
        dims=tuple(d for d, _ in ordered),
        values=tuple(vals for _, vals in ordered),
        labels=tuple(f"chi{i}" for i in range(r)),
        zeta_order=e,
    )
    verify_table(table)
    return table


def verify_table(t: CharTable) -> None:
    """Exact consistency checks: a square table, the dimensions, the trivial
    row, and the row relation X S X* = n I. Here X is the table (rows =
    irreducibles, columns = classes), S = diag(|C_j|) and X* = conj(X)^t;
    entry (i, i2) is sum_j chi_i(g_j) W[i2][j]. Only the pairs i <= i2 are
    summed, since entry (i2, i) is the conjugate of entry (i, i2).

    The column relation needs no pass of its own. X is square, so
    X (S X*/n) = I makes S X*/n a two-sided inverse of X. Then
    (S X*/n) X = I, that is X* X = n S^-1, which is the column relation
    sum_i conj(chi_i(g_j)) chi_i(g_j2) = delta_{j,j2} n / |C_j|.
    """
    n = t.group.order
    r = t.classes.count
    if len(t.dims) != r or len(t.values) != r or any(len(row) != r for row in t.values):
        raise VerificationError("table is not square")
    if sum(d * d for d in t.dims) != n:
        raise VerificationError("sum of squared dims must equal the group order")
    for i in range(r):
        if t.values[i][0].as_integer() != t.dims[i]:
            raise VerificationError(f"row {i}: identity value must equal the dimension")
    if any(v.as_integer() != 1 for v in t.values[0]):
        raise VerificationError("row 0 must be the trivial character")
    w = t.weights
    for i in range(r):
        for i2 in range(i, r):
            acc = sum((x * y for x, y in zip(t.values[i], w[i2])), Cyclo.from_rational(0))
            if acc.as_integer() != (n if i == i2 else 0):
                raise VerificationError(
                    f"row orthogonality fails for rows {i}, {i2}"
                )


def _row_key(dim: int, vals: tuple[Cyclo, ...], conductor: int):
    return (dim, tuple((v.to_conductor(conductor).nums, v.to_conductor(conductor).den)
                       for v in vals))


def tables_equal_up_to_row_order(a: CharTable, b: CharTable) -> bool:
    if a.group.order != b.group.order or a.classes.count != b.classes.count:
        return False
    conductor = lcm(a.zeta_order, b.zeta_order)
    ka = sorted(_row_key(d, v, conductor) for d, v in zip(a.dims, a.values))
    kb = sorted(_row_key(d, v, conductor) for d, v in zip(b.dims, b.values))
    return ka == kb


# ---------------------------------------------------------------------------
# the table document format

_IRREP_RE = re.compile(r"^irrep\s+(\S+)\s+dim\s+(\d+)\s*:\s*(.+)$")


def format_table(t: CharTable) -> str:
    lines = [
        f"group {t.group.spec}",
        f"classes {t.classes.count}",
        f"zeta {t.zeta_order}",
    ]
    for label, dim, row in zip(t.labels, t.dims, t.values):
        vals = " | ".join(v.to_conductor(t.zeta_order).text() for v in row)
        lines.append(f"irrep {label} dim {dim} : {vals}")
    return "\n".join(lines) + "\n"


def load_table(text: str, order_cap: int | None = None) -> CharTable:
    """Parse and fully verify a character table document.

    Header lines `group`, `classes`, `zeta` in order, then one `irrep` line
    per row; the trivial character must come first. Any failed invariant
    raises VerificationError; malformed syntax raises SpecError.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(lines) < 4:
        raise SpecError("table document too short")
    header: dict[str, str] = {}
    for ln in lines[:3]:
        parts = ln.split(None, 1)
        if len(parts) != 2 or parts[0] not in ("group", "classes", "zeta"):
            raise SpecError(f"bad header line {ln!r}")
        header[parts[0]] = parts[1]
    if set(header) != {"group", "classes", "zeta"}:
        raise SpecError("table document must declare group, classes and zeta")
    g = construct_group(header["group"], order_cap)
    cd = conjugacy(g)
    try:
        declared_classes = int(header["classes"])
        zeta_order = int(header["zeta"])
    except ValueError as exc:
        raise SpecError("classes and zeta must be integers") from exc
    if zeta_order < 1:
        raise SpecError("zeta order must be positive")
    if declared_classes != cd.count:
        raise VerificationError(
            f"document declares {declared_classes} classes, group has {cd.count}"
        )
    labels, dims, rows = [], [], []
    for ln in lines[3:]:
        m = _IRREP_RE.match(ln)
        if not m:
            raise SpecError(f"bad irrep line {ln!r}")
        labels.append(m.group(1))
        try:
            dims.append(int(m.group(2)))
        except ValueError as exc:
            raise too_long(f"dim of irrep {m.group(1)!r}") from exc
        cells = [c.strip() for c in m.group(3).split("|")]
        if len(cells) != cd.count:
            raise VerificationError(
                f"irrep {m.group(1)!r} has {len(cells)} values, expected {cd.count}"
            )
        rows.append(tuple(parse_cyclo(c, zeta_order) for c in cells))
    if len(rows) != cd.count:
        raise VerificationError(f"expected {cd.count} irrep rows, found {len(rows)}")
    table = CharTable(
        group=g,
        classes=cd,
        dims=tuple(dims),
        values=tuple(rows),
        labels=tuple(labels),
        zeta_order=zeta_order,
    )
    verify_table(table)
    return table
