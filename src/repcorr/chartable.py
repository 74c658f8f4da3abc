"""Exact character tables of finite groups.

`character_table` runs the classic modular algorithm (Dixon, Numer. Math.
10 (1967); Schneider, J. Symbolic Comput. 9 (1990)): split F_p^r into the
common eigenvectors of the class multiplication matrices, for a prime
p = 1 (mod exponent), p > 2*sqrt(|G|), then lift eigenvalue data back to
exact cyclotomic values in Q(zeta_exponent) through the discrete-log
correspondence between roots of unity in F_p and powers of zeta; the lift
walks one representative's powers per rational class, for one period, and
moves the result to the other classes of its Galois orbit (`_lift`). The
row orthogonality relation X S X* = n I is verified exactly before a table
is returned, by evaluation at primes q = 1 (mod N) whose product exceeds a
bound on every residual, so a bug in the modular stage cannot leak a wrong
table; for a square table it implies the column relation. Each distinct
value is evaluated once per map, and the pair sums run once per prime, for
the maps zeta_N -> omega^(+-1): every other map is discharged by the class
power map g -> g^u, which reads its image off those, or summed in full when
the table does not allow it (the proofs are in `verify_table`).

The split is deterministic and needs one F_p routine, `_kernel_mod`. Pieces
are split by one class matrix at a time, each built only when a piece still
needs it (`_omega_vectors`). A piece is kept reduced at pivot coordinates,
which gives the matrix of a class matrix on it, an exact invariance check,
and eigenvalue candidates as the roots of one annihilating polynomial
(`_split_piece`). No random number is drawn; `seed` is accepted for
compatibility and has no effect.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import count
from math import gcd, isqrt, lcm
from operator import mul

from .cyclo import Cyclo, _factor, parse_cyclo
from .errors import SpecError, VerificationError, too_long
from .groups import ClassData, Group, _power_path, class_mult_coeffs, conjugacy, construct_group
from .record import record

__all__ = [
    "CharTable",
    "character_table",
    "load_table",
    "format_table",
    "tables_equal_up_to_row_order",
    "MAX_TABLE_CLASSES",
]

# A table's split, lift and check grow with the class count r, which the
# order cap does not bound (an abelian group has one class per element), so
# r is checked right after `conjugacy`, before any class matrix is built.
MAX_TABLE_CLASSES = 256


def _check_class_count(cd: ClassData) -> None:
    if cd.count > MAX_TABLE_CLASSES:
        raise SpecError(f"group has {cd.count} conjugacy classes; character tables are "
                        f"capped at {MAX_TABLE_CLASSES}")


@record
class CharTable:
    group: Group
    classes: ClassData
    dims: tuple[int, ...]
    values: tuple[tuple[Cyclo, ...], ...]  # rows = irreps, columns = classes
    labels: tuple[str, ...]
    zeta_order: int

    @property
    def count(self) -> int:
        return len(self.dims)

    @cached_property
    def terms(self) -> tuple[int, list[int], list[list[int]], list[_Terms]]:
        """`_integer_terms` of the values, built once per table and read,
        never changed, by `verify_table`, `weights` and `Rep.character`."""
        return _integer_terms(self.values)

    @cached_property
    def weights(self) -> tuple[int, list[_Row]]:
        """S X* read by rows as integer terms, cached for `reps.decompose`:
        (N, rows) with rows[i] = (D_i, cells), N and D_i as `terms` gives
        them and cells[j] the terms of D_i chi_ij with each term (k, c)
        replaced by (-k, c |C_j|). That is D_i conj(chi_ij) |C_j|, as conj
        sends zeta_N^k to zeta_N^-k; no value is built or reduced."""
        big_n, dens, index, terms = self.terms
        sizes = self.classes.sizes
        return big_n, [(d, [[(-k, c * s) for k, c in terms[a]] for a, s in zip(row, sizes)])
                       for d, row in zip(dens, index)]


_Row = tuple[int, list[list[tuple[int, int]]]]  # (D, cells): cells[j] the terms of D chi_j
_Terms = tuple[tuple[int, int], ...]  # (exponent at zeta_N, integer coefficient) pairs


def _integer_terms(values) -> tuple[int, list[int], list[list[int]], list[_Terms]]:
    """(N, dens, index, terms) for a table of values, N the lcm of their
    conductors and dens[i] the lcm D_i of row i's denominators. The terms
    of D_i chi_ij are terms[index[i][j]]: each distinct tuple of terms is
    listed once, and built once per distinct (D_i / den, conductor,
    numerators)."""
    big_n = lcm(*(v.conductor for row in values for v in row))
    ids: dict[_Terms, int] = {}
    built: dict[tuple, int] = {}
    dens, index = [], []
    for row in values:
        d = lcm(*(v.den for v in row))
        cells = []
        for v in row:
            key = (d // v.den, v.conductor, v.nums)
            if key not in built:
                cell = tuple(v._terms(big_n // v.conductor, key[0]))
                built[key] = ids.setdefault(cell, len(ids))
            cells.append(built[key])
        dens.append(d)
        index.append(cells)
    return big_n, dens, index, list(ids)


# ---------------------------------------------------------------------------
# modular linear algebra helpers (dense, tiny matrices)


def _mat_vec(m, v: list[int], p: int) -> list[int]:
    """m v mod p, reading only the nonzero entries of v."""
    nz = [(k, x) for k, x in enumerate(v) if x]
    return [sum(row[k] * x for k, x in nz) % p for row in m]


def _kernel_mod(m: list[list[int]], p: int) -> list[list[int]]:
    """Basis of {x : m x = 0} over F_p, one vector per free column.

    Forward elimination brings m to row echelon form. Each free column then
    gets one vector, found by back-substitution with that free variable 1
    and the others 0: the basis read off the reduced echelon form, which
    depends only on the kernel. Every variable above that free column is 0
    (the later free ones by choice, the later pivot ones by induction), so
    each pivot row is read only up to it. A matrix of full column rank costs
    one forward pass.
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
            if pc < fc:
                vec[pc] = -sum(map(mul, row[pc + 1:fc + 1], vec[pc + 1:fc + 1])) % p
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# the algorithm proper


def _primes_one_mod(n: int, above: int):
    """Odd primes q = 1 (mod n) with q > above, in increasing order."""
    q = above + 1 + -above % n  # the least q > above with q = 1 (mod n)
    while True:
        if q > 2 and _is_prime(q):
            yield q
        q += n


def _least_prime(exponent: int, order: int) -> int:
    return next(_primes_one_mod(exponent, 2 * isqrt(order) + 1))


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in range(2, isqrt(n) + 1):
        if n % q == 0:
            return False
    return True


def _primitive_root(p: int) -> int:
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q, _ in _factor(p - 1)):
            return g
    raise VerificationError(f"no primitive root mod {p}")


_Piece = tuple[list[int], list[list[int]]]  # (pivots, basis)


def _split_piece(pivots: list[int], basis: list[list[int]], amat, p: int) -> list[_Piece]:
    """Split the piece span(basis) into the eigenspaces of amat it contains.

    The basis is reduced at `pivots`: b_t[pivots[s]] = delta_ts. So the
    coordinates of a vector v of the span are v read at the pivots, and the
    k x k matrix C of amat on the piece has column j equal to amat b_j read
    there. Checking amat b_j = sum_t C[t][j] b_t at every other coordinate
    proves the piece invariant under amat.

    The eigenvalue candidates are the roots in F_p of the annihilating
    polynomial of the functional f(v) = v[0] under C: the first kernel
    vector of the matrix with columns f, C^t f, ..., (C^t)^k f. Every
    central character is 1 on the identity class, so f is nonzero on each
    eigenvector omega of the piece, and P(C^t) f = 0 gives
    0 = f(P(C) omega) = P(lam) f(omega), hence P(lam) = 0 for every
    eigenvalue lam of C. The kernel of C - lam I, for each root lam, lifted
    through the basis, is one new piece; `_kernel_mod` returns a vector per
    free column s with 1 at s and 0 at the other free columns (and at every
    column above s), so the lifted vectors are reduced at the pivots of
    their free columns. Eigenvectors for distinct eigenvalues are
    independent, so the kernels fill at most the piece. They fall short only
    if C is not diagonalizable over F_p or some eigenvector is 0 at the
    identity class; neither can give a table, so a shortfall raises.
    """
    k = len(basis)
    pivot_set = set(pivots)
    images = [_mat_vec(amat, b, p) for b in basis]
    cols = [[im[c] for c in pivots] for im in images]
    rest = [c for c in range(len(basis[0])) if c not in pivot_set]
    basis_at = [[b[c] for b in basis] for c in rest]
    for im, col in zip(images, cols):
        if any((im[c] - sum(map(mul, col, row))) % p for c, row in zip(rest, basis_at)):
            raise VerificationError("class matrix does not preserve an eigenspace")
    krylov = [[b[0] for b in basis]]
    for _ in range(k):
        krylov.append([sum(map(mul, col, krylov[-1])) % p for col in cols])
    poly = _kernel_mod(list(zip(*krylov)), p)[0]
    crows = [list(row) for row in zip(*cols)]
    by_coord = list(zip(*basis))
    pieces = []
    for lam in range(p):
        acc = 0
        for c in reversed(poly):
            acc = (acc * lam + c) % p
        if acc:
            continue
        for t in range(k):
            crows[t][t] -= lam
        kern = _kernel_mod(crows, p)
        for t in range(k):
            crows[t][t] += lam
        pieces.append(([pivots[max(s for s, c in enumerate(w) if c)] for w in kern],
                       [[sum(map(mul, w, at)) % p for at in by_coord] for w in kern]))
    if sum(len(b) for _, b in pieces) != k:
        raise VerificationError("class matrix failed to diagonalize over F_p")
    return pieces


def _omega_vectors(g: Group, cd: ClassData, p: int) -> list[list[int]]:
    """The central characters omega, scaled to omega[0] = 1, read mod p.

    M_i omega = omega_i omega for every class matrix M_i, so the omegas are
    the common eigenvectors of the M_i. Starting from all of F_p^r, each
    pending piece is split by one class matrix at a time, built only when a
    piece still needs it: the classes of the generators first, then the
    others by (size, index). M_0 is the identity and is never built. Distinct
    central characters differ on some class, so for consistent data every
    piece ends one-dimensional; a piece left over raises.
    """
    r = cd.count
    gen_classes = [c for c in dict.fromkeys(cd.class_of[x] for x in g.generators) if c]
    others = sorted(set(range(1, r)) - set(gen_classes), key=lambda i: (cd.sizes[i], i))
    pieces = [(list(range(r)), [[int(i == j) for j in range(r)] for i in range(r)])]
    for i in gen_classes + others:
        if all(len(basis) == 1 for _, basis in pieces):
            break
        amat = class_mult_coeffs(g, cd, i)
        pieces = [sub for piece in pieces for sub in
                  (_split_piece(*piece, amat, p) if len(piece[1]) > 1 else [piece])]
    if any(len(basis) > 1 for _, basis in pieces):
        raise VerificationError(
            "eigenspace splitting did not converge; class algebra is inconsistent"
        )
    out = []
    for _, (v,) in pieces:
        if v[0] % p == 0:
            raise VerificationError("central character vanishes on the identity class")
        inv = pow(v[0], -1, p)
        out.append([x * inv % p for x in v])
    return out


def _lift(g: Group, cd: ClassData, p: int,
          rows: list[tuple[int, list[int]]]) -> list[tuple[int, tuple[Cyclo, ...]]]:
    """Lift each row (dim, chi_hat), a character read mod p class by class,
    to exact values in Q(zeta_e), e the exponent.

    Let z be a primitive e-th root of unity mod p. A class representative g
    acts with e-th roots of unity as eigenvalues; if zeta^s occurs mults[s]
    times, then chi(g^l) = sum_s mults[s] zeta^(sl), and the orthogonality of
    the characters of Z/e gives mults[s] = (1/e) sum_{l<e} chi(g^l) z^(-sl)
    mod p. Each mults[s] lies in [0, dim] and dim < p, so the residue is the
    integer itself; the check sum(mults) == dim guards the modular data.

    Period o = o(g): the powers of g are walked only until they return to the
    identity. chi(g^l) depends on l mod o, so writing l = l' + o*t with
    l' < o and t < e/o,

        sum_{l<e} chi(g^l) z^(-sl)
            = sum_{l'<o} chi(g^l') z^(-sl') * sum_{t<e/o} w^t,  w = z^(-so).

    w^(e/o) = z^(-se) = 1. If e/o divides s then w = 1 and the inner sum is
    e/o. Otherwise w != 1, as z has order e exactly, so w - 1 is a unit mod p
    and the inner sum is (w^(e/o) - 1)/(w - 1) = 0. Hence mults[s] = 0 unless
    s = (e/o) s', and then

        mults[s] = (1/o) sum_{l<o} chi(g^l) z^(-(e/o) s' l),

    where (e/o) s' l mod e = (e/o)(s' l mod o): an o x o transform per class
    in place of an e x e one. The multiplicities are integers, so each value
    is built from them directly, with denominator 1.

    One transform per rational class. Write m_s (s < o) for the multiplicity
    of zeta_o^s in g, the output of g's transform. For k prime to o the
    eigenvalues of g^k are the k-th powers of those of g, so
    chi(g^k) = sum_s m_s zeta_o^(ks): the multiplicities of g^k are those of
    g moved by s -> ks mod o. The residues move the same way. A
    representative h of the class of g^k is conjugate to g^k, so h^l lies in
    the class of g^(kl mod o), and substituting l' = kl mod o in h's
    transform gives h's residue at ks mod o as g's at s. So only the first
    class of each orbit {class of g^k : gcd(k, o) = 1} walks its powers and
    runs the transform. Every other class c of the orbit takes the moved
    residues, for any k that reaches it, and gets the value and the check
    sum(m) == dim that its own transform would give. Its datum chi_hat(c) is
    read by the orbit's transform, as g^k is one of the powers walked. A
    separate comparison of sum_s m_s z^((e/o)(ks mod o)) with chi_hat(c)
    mod p would add nothing: inverting the transform, it holds for every
    residue vector. Values with the same terms are one value, built and
    reduced once.
    """
    e = cd.exponent
    z_inv = pow(pow(_primitive_root(p), (p - 1) // e, p), -1, p)
    z_inv_pows = [1] * e
    for s in range(1, e):
        z_inv_pows[s] = z_inv_pows[s - 1] * z_inv % p

    transforms: dict[int, list[list[int]]] = {}
    orbits = []
    lifted: set[int] = set()
    for j, rep in enumerate(cd.representatives):
        if j in lifted:
            continue
        path = _power_path(g, cd.class_of, rep)
        o = len(path)
        moves: dict[int, int] = {}  # class -> one k with class of g^k, gcd(k, o) = 1
        for k in range(o):
            if gcd(k, o) == 1:
                moves.setdefault(path[k], k)
        lifted.update(moves)
        if o not in transforms:
            transforms[o] = [[z_inv_pows[e // o * (s * l % o)] for l in range(o)] for s in range(o)]
        orbits.append((path, e // o, pow(o, -1, p), transforms[o], moves.items()))

    out = []
    built: dict[tuple, Cyclo] = {}  # one value per distinct list of terms
    for dim, chi_hat in rows:
        vals = [None] * cd.count
        for path, step, o_inv, transform, moves in orbits:
            seq = [chi_hat[c] for c in path]
            mults = [sum(map(mul, seq, t)) % p * o_inv % p for t in transform]
            if sum(mults) != dim:
                raise VerificationError("root-of-unity multiplicities failed to lift")
            o = len(path)
            for c, k in moves:
                terms = tuple(sorted((k * s % o * step, m) for s, m in enumerate(mults) if m))
                if terms not in built:
                    built[terms] = Cyclo._from_terms(e, terms, 1)
                vals[c] = built[terms]
        out.append((dim, tuple(vals)))
    return out


def character_table(g: Group, cd: ClassData | None = None, seed: int = 0) -> CharTable:
    """Compute the exact character table of g.

    Rows are ordered with the trivial character first, then by (dimension,
    lexicographic value order); columns follow the conjugacy class order.
    The algorithm is deterministic: `seed` is accepted for compatibility
    and has no effect.
    """
    if cd is None:
        cd = conjugacy(g)
    _check_class_count(cd)
    r = cd.count
    e = cd.exponent
    n = g.order
    p = _least_prime(e, n)

    omegas = _omega_vectors(g, cd, p)

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

    table_rows = _lift(g, cd, p, rows)

    trivial = [row for row in table_rows if all(v.as_integer() == 1 for v in row[1])]
    if len(trivial) != 1:
        raise VerificationError("trivial character missing or duplicated")
    rest = [row for row in table_rows if row is not trivial[0]]
    rest.sort(key=lambda row: (row[0], tuple(v.nums for v in row[1])))  # every den is 1
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


def _failing_pairs(x, y, sizes, inverse, want, q: int) -> set[tuple[int, int]]:
    """The pairs (i, k), i <= k, at which M = x S y^t - want is nonzero mod
    q at (i, k) or at (k, i), for the images x and y of the table under a
    pair of maps {u, -u} and S = diag(sizes). M[i][k] is the residual of
    the pair (i, k) under u, and M[k][i] = sum_j |C_j| y_ij x_kj - want_ik
    is its residual under -u, so one pass of r^2 sums serves both maps.

    When y is x with its columns read through `inverse` (iota(j) the class
    of g_j^-1, a permutation with |C_iota(j)| = |C_j| and iota^2 = 1), M is
    symmetric, and the r(r+1)/2 sums over i <= k suffice: reindexing
    j -> iota(j), M[k][i] = sum_j |C_j| x_kj x_i,iota(j) - want_ki
    = sum_j |C_j| x_ij x_k,iota(j) - want_ik = M[i][k]. That holds for every
    true table, real or not, since chi(g^-1) = conj(chi(g)) and the image
    under -u of a value is the image under u of its conjugate."""
    r = len(x)
    sym = y == [[row[j] for j in inverse] for row in x]
    weighted = [list(map(mul, sizes, row)) for row in x]
    return {(min(i, k), max(i, k)) for i in range(r) for k in range(i if sym else 0, r)
            if (sum(map(mul, weighted[i], y[k])) - want[i][k]) % q}


def verify_table(t: CharTable) -> None:
    """Exact consistency checks: a square table, the dimensions, the trivial
    row, and the row relation X S X* = n I. Here X is the table (rows =
    irreducibles, columns = classes), S = diag(|C_j|) and X* = conj(X)^t.
    Only the pairs i <= i2 are checked, since entry (i2, i) is the conjugate
    of entry (i, i2), and the first failing pair in that order is reported.

    The column relation needs no pass of its own. X is square, so
    X (S X*/n) = I makes S X*/n a two-sided inverse of X. Then
    (S X*/n) X = I, that is X* X = n S^-1, which is the column relation
    sum_i conj(chi_i(g_j)) chi_i(g_j2) = delta_{j,j2} n / |C_j|.

    The row relation is checked by evaluation at primes, exactly. Every
    value lies in Q(zeta_L), L the lcm of the conductors; a value of
    conductor c with coefficients a_k is sum_k a_k zeta_L^((L/c) k). If g is
    the gcd of L and every exponent with a nonzero coefficient, every value
    is a polynomial in zeta_L^g, a primitive N-th root of unity for
    N = L/g, so the values lie in Q(zeta_N) with the exponents divided by
    g; a rational table has N = 1. Row i times the lcm D_i of its
    denominators has integer coefficients a_ij, so each residual

        R = D_i D_k (sum_j chi_ij conj(chi_kj) |C_j| - n delta_ik)

    lies in Z[zeta_N], and every Galois conjugate of it has absolute value
    at most B = max_{i<=k} sum_j |C_j| |a_ij|_1 |a_kj|_1 + n D_i D_k delta_ik.
    By Cauchy-Schwarz a term with i != k is at most the larger of the terms
    (i, i) and (k, k), so B is the largest diagonal term, an O(r^2) sum.
    For odd primes q = 1 (mod N) above min(B, 2^31), taken in increasing
    order until their product M exceeds B, and each unit u mod N, the ring
    map phi_u: zeta_N -> omega^u mod q (omega of order N mod q) must send
    every R to 0; it sends conj(x) to phi_-u(x).

    That suffices. q splits completely in Q(zeta_N): the phi(N) maps are the
    reductions modulo the phi(N) distinct primes above q. An R that vanishes
    under all of them lies in every prime above q, hence in their product
    q Z[zeta_N]. The ideals q Z[zeta_N] for distinct q are coprime, so
    R = M gamma with gamma in Z[zeta_N]. Every conjugate of gamma has
    absolute value at most B/M < 1, so |Norm(gamma)| < 1; the norm is an
    integer, hence 0, and gamma = 0. Conversely a zero R vanishes under
    every map, so the check accepts exactly the tables that satisfy the
    relation, and the failing pairs collected over all maps are exactly
    the pairs with R != 0, the least of which is reported. One prime is the
    common case: the first prime above B already exceeds it. Starting no
    higher than 2^31 keeps the trial division of each candidate short when
    B is larger, and then several primes are taken.

    Write a_ij(X) for the integer polynomial whose terms are those of
    D_i chi_ij, so D_i chi_ij = a_ij(zeta_N), and phi_u(a_ij) for
    a_ij(omega^u) mod q. Each distinct cell is evaluated once per map, from
    one table of powers of omega per prime, and the images of the table are
    read off by index. The maps go one pair {u, -u} at a time, and
    `_failing_pairs` sums both in one pass of r^2 pair sums, or r(r+1)/2
    when the image under -u is the one under u with the columns read
    through the inverse-class map, as for every true table. That pass runs
    for {1, -1} at each prime; every other pair is discharged by the class
    power map when the table allows it:

    - Let e be the exponent of G and u' = u (mod N) with gcd(u', e) = 1:
      u + tN for the least such t >= 0, which exists, since a prime of e
      that divides N does not divide u, and one that does not rules out one
      t mod itself. Let pi(j) be the class of g_j^u'. |G| and e have the
      same prime factors, so x -> x^u' is a bijection of G; it commutes
      with conjugation, so pi is a permutation of the classes with
      |C_pi(j)| = |C_j|.
    - If phi_u(a_ij) = phi_1(a_i,pi(j)) and phi_-u(a_ij) = phi_-1(a_i,pi(j))
      for all i, j, then reindexing j -> pi(j) in
      sum_j |C_j| phi_u(a_ij) phi_-u(a_kj) gives the residual of (i, k)
      under 1 mod q, and the same holds for -u and -1. So these maps fail
      exactly the pairs that the maps 1 and -1 already failed at q, and
      their sums are skipped. Otherwise they are summed in full.
    - For a true table the images always agree. The automorphism
      zeta_M -> zeta_M^u' of Q(zeta_M), M = lcm(N, e), sends zeta_N to
      zeta_N^u and acts on Q(zeta_e) as sigma_u', and
      chi(g^u') = sigma_u'(chi(g)) since u' is prime to o(g). So
      a_i,pi(j)(zeta_N) = D_i chi_i(g_j^u') = a_ij(zeta_N^u) in Z[zeta_N],
      and the ring maps zeta_N -> omega^(+-1) give the two equalities.

    The power map walks each representative's powers once per call, at
    most r e multiplications, and only when N > 2 gives a second pair. A
    table that is orthogonal but breaks the Galois action is summed in full
    at every map, holding one pair of images besides the pair for {1, -1}.
    """
    n = t.group.order
    cd = t.classes
    r = cd.count
    if len(t.dims) != r or len(t.values) != r or any(len(row) != r for row in t.values):
        raise VerificationError("table is not square")
    if sum(d * d for d in t.dims) != n:
        raise VerificationError("sum of squared dims must equal the group order")
    for i in range(r):
        if t.values[i][0].as_integer() != t.dims[i]:
            raise VerificationError(f"row {i}: identity value must equal the dimension")
    if any(v.as_integer() != 1 for v in t.values[0]):
        raise VerificationError("row 0 must be the trivial character")

    sizes = cd.sizes
    big_n, dens, index, terms = t.terms
    least = gcd(big_n, *(k for cell in terms for k, _ in cell))
    big_n //= least
    terms = [[(k // least, c) for k, c in cell] for cell in terms]
    norms = [sum(abs(c) for _, c in cell) for cell in terms]
    want = [[n * dens[i] * dens[i] if i == k else 0 for k in range(r)] for i in range(r)]
    bound = max(sum(s * norms[a] * norms[a] for s, a in zip(sizes, row)) + want[i][i]
                for i, row in enumerate(index))
    units = [u for u in range(big_n // 2 + 1) if gcd(u, big_n) == 1]
    perms = [None]
    if len(units) > 1:
        paths = [_power_path(t.group, cd.class_of, x) for x in cd.representatives]
        for u in units[1:]:
            u1 = next(v for v in count(u, big_n) if gcd(v, cd.exponent) == 1)
            perms.append([path[u1 % len(path)] for path in paths])
    failing = set()
    product = 1
    for q in _primes_one_mod(big_n, min(bound, 2**31)):
        omega = pow(_primitive_root(q), (q - 1) // big_n, q)
        pows = [1] * big_n
        for k in range(1, big_n):
            pows[k] = pows[k - 1] * omega % q

        def image(w: int) -> list[list[int]]:
            vals = [sum(c * pows[w * k % big_n] for k, c in cell) % q for cell in terms]
            return [[vals[a] for a in row] for row in index]

        base = None
        for u, perm in zip(units, perms):
            x = image(u)
            pair = (x, x if 2 * u % big_n == 0 else image(-u % big_n))
            if base is None:
                base = pair
            elif all(im == [[row[j] for j in perm] for row in b] for im, b in zip(pair, base)):
                continue
            failing |= _failing_pairs(*pair, sizes, cd.inverse_class, want, q)
        product *= q
        if product > bound:
            break
    if failing:
        i, k = min(failing)
        raise VerificationError(f"row orthogonality fails for rows {i}, {k}")


def _row_key(dim: int, vals: tuple[Cyclo, ...], conductor: int):
    return (dim, tuple((w.nums, w.den) for w in (v.to_conductor(conductor) for v in vals)))


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
    # one rendering per distinct value, keyed by its fields: hashing a Cyclo
    # itself sums Fractions over its coefficients
    texts = {(v.conductor, v.nums, v.den): v for row in t.values for v in row}
    texts = {key: v.to_conductor(t.zeta_order).text() for key, v in texts.items()}
    for label, dim, row in zip(t.labels, t.dims, t.values):
        vals = " | ".join(texts[v.conductor, v.nums, v.den] for v in row)
        lines.append(f"irrep {label} dim {dim} : {vals}")
    return "\n".join(lines) + "\n"


def load_table(text: str) -> CharTable:
    """Parse and fully verify a character table document.

    Header lines `group`, `classes` and `zeta`, each once and in any order,
    then one `irrep` line per row; the trivial character must come first.
    Any failed invariant raises VerificationError; malformed syntax raises
    SpecError.
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
    g = construct_group(header["group"])
    cd = conjugacy(g)
    _check_class_count(cd)
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
    parsed: dict[str, Cyclo] = {}  # one parse per distinct cell text
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
        for c in cells:
            if c not in parsed:
                parsed[c] = parse_cyclo(c, zeta_order)
        rows.append(tuple(parsed[c] for c in cells))
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
