import ast
import inspect
import itertools
import math
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import _dense_split_piece, cyclo_from_coeffs, element_order, is_abelian, power
from published_tables import expected_doc
from test_groups import ALL_SMALL_SPECS
from test_table_golden import PIPELINE_SPECS

from repcorr import chartable
from repcorr.chartable import (
    MAX_TABLE_CLASSES,
    CharTable,
    _kernel_mod,
    _least_prime,
    _omega_vectors,
    _split_piece,
    character_table,
    format_table,
    load_table,
    tables_equal_up_to_row_order,
    verify_table,
)
from repcorr.cyclo import Cyclo, zeta
from repcorr.errors import SpecError, VerificationError
from repcorr.groups import class_mult_coeffs, conjugacy, construct_group
from repcorr.reps import decompose, regular_rep

SPEC_POOL = [
    "cyclic:1",
    "cyclic:2",
    "cyclic:3",
    "cyclic:4",
    "cyclic:5",
    "cyclic:6",
    "cyclic:8",
    "cyclic:12",
    "product:[2,2]",
    "product:[2,4]",
    "product:[3,3]",
    "product:[2,2,2]",
    "dihedral:3",
    "dihedral:4",
    "dihedral:5",
    "dihedral:6",
    "symmetric:3",
    "symmetric:4",
    "perm:[(1 2 3), (1 2)(3 4)]",  # alternating group on 4 points
    "perm:[(1 2 3 4)(5 6 7 8), (1 5 3 7)(2 8 4 6)]",  # quaternion group
]

_CACHE = {}


def table_for(spec):
    if spec not in _CACHE:
        _CACHE[spec] = character_table(construct_group(spec))
    return _CACHE[spec]


def has_row(table, expected_values):
    for row in table.values:
        if len(row) == len(expected_values) and all(
            a == b for a, b in zip(row, expected_values)
        ):
            return True
    return False


def test_cyclic_tables_match_root_of_unity_formula():
    for n in range(1, 13):
        t = table_for(f"cyclic:{n}")
        assert t.count == n
        assert t.dims == (1,) * n
        # classes are singletons ordered by element value, so class j is j
        for k in range(n):
            expected = tuple(zeta(n, (k * j) % n).to_conductor(t.zeta_order) for j in range(n))
            assert has_row(t, expected), (n, k)


def test_symmetric_3_table_values():
    t = table_for("symmetric:3")
    assert t.dims == (1, 1, 2)
    assert [v.as_integer() for v in t.values[0]] == [1, 1, 1]
    assert [v.as_integer() for v in t.values[1]] == [1, -1, 1]
    assert [v.as_integer() for v in t.values[2]] == [2, 0, -1]


def test_klein_four_table_is_all_signs():
    t = table_for("product:[2,2]")
    assert t.dims == (1, 1, 1, 1)
    seen = set()
    for row in t.values:
        ints = tuple(v.as_integer() for v in row)
        assert ints[0] == 1
        assert all(x in (1, -1) for x in ints)
        seen.add(ints)
    assert len(seen) == 4


def test_dihedral_4_and_quaternion_share_dims_not_tables():
    d4 = table_for("dihedral:4")
    q8 = table_for("perm:[(1 2 3 4)(5 6 7 8), (1 5 3 7)(2 8 4 6)]")
    assert sorted(d4.dims) == sorted(q8.dims) == [1, 1, 1, 1, 2]


def test_alternating_4_has_cube_roots():
    t = table_for("perm:[(1 2 3), (1 2)(3 4)]")
    assert sorted(t.dims) == [1, 1, 1, 3]
    omega = zeta(3)
    found = any(
        any(v == omega.to_conductor(t.zeta_order) for v in row) for row in t.values
    )
    assert found


def test_every_pool_table_passes_exact_verification():
    for spec in SPEC_POOL:
        t = table_for(spec)
        verify_table(t)
        assert t.count == t.classes.count
        assert t.dims[0] == 1
        assert list(t.dims) == sorted(t.dims)
        assert sum(d * d for d in t.dims) == t.group.order


def test_table_is_independent_of_seed():
    rng = random.Random(20260814)
    for _ in range(60):
        spec = rng.choice(SPEC_POOL)
        seed = rng.randrange(1, 10**6)
        g = construct_group(spec)
        alt = character_table(g, seed=seed)
        base = table_for(spec)
        assert tables_equal_up_to_row_order(alt, base), (spec, seed)
        assert alt.values == base.values  # ordering is canonical, not seed luck


def test_abelian_iff_all_dims_one():
    for spec in SPEC_POOL:
        t = table_for(spec)
        g = construct_group(spec)
        assert (set(t.dims) == {1}) == is_abelian(g)


def test_format_load_roundtrip():
    for spec in ("symmetric:3", "dihedral:4", "cyclic:6", "perm:[(1 2 3), (1 2)(3 4)]"):
        t = table_for(spec)
        doc = format_table(t)
        back = load_table(doc)
        assert tables_equal_up_to_row_order(t, back)
        assert back.values == t.values


S3_DOC = """\
group symmetric:3
classes 3
zeta 6
irrep chi0 dim 1 : 1 | 1 | 1
irrep chi1 dim 1 : 1 | -1 | 1
irrep chi2 dim 2 : 2 | 0 | -1
"""


def test_load_table_accepts_handwritten_document():
    t = load_table(S3_DOC)
    assert t.dims == (1, 1, 2)
    assert t.labels == ("chi0", "chi1", "chi2")
    assert tables_equal_up_to_row_order(t, table_for("symmetric:3"))


def test_load_table_accepts_row_permutation_and_comments():
    doc = """\
# hand-entered table
group symmetric:3
classes 3
zeta 1

irrep triv dim 1 : 1 | 1 | 1
irrep std dim 2 : 2 | 0 | -1
irrep sgn dim 1 : 1 | -1 | 1
"""
    t = load_table(doc)
    assert tables_equal_up_to_row_order(t, table_for("symmetric:3"))
    # the three headers load in any order
    doc = """\
zeta 3
group cyclic:3
classes 3
irrep chi0 dim 1 : 1 | 1 | 1
irrep chi1 dim 1 : 1 | -1 - z | z
irrep chi2 dim 1 : 1 | z | -1 - z
"""
    assert load_table(doc).values == table_for("cyclic:3").values


def test_load_table_rejects_corrupted_value():
    bad = S3_DOC.replace("2 | 0 | -1", "2 | 1 | -1")
    with pytest.raises(VerificationError, match="orthogonality"):
        load_table(bad)


def test_load_table_rejects_wrong_dimension():
    bad = S3_DOC.replace("chi2 dim 2", "chi2 dim 1")
    with pytest.raises(VerificationError):
        load_table(bad)


def test_load_table_rejects_nontrivial_first_row():
    doc = """\
group symmetric:3
classes 3
zeta 6
irrep chi1 dim 1 : 1 | -1 | 1
irrep chi0 dim 1 : 1 | 1 | 1
irrep chi2 dim 2 : 2 | 0 | -1
"""
    with pytest.raises(VerificationError, match="trivial"):
        load_table(doc)


def test_load_table_rejects_wrong_class_count():
    bad = S3_DOC.replace("classes 3", "classes 4")
    with pytest.raises(VerificationError, match="classes"):
        load_table(bad)


def test_load_table_rejects_missing_rows():
    bad = "\n".join(S3_DOC.splitlines()[:-1]) + "\n"
    with pytest.raises(VerificationError, match="rows"):
        load_table(bad)


def test_load_table_rejects_zero_denominator():
    with pytest.raises(SpecError, match="zero denominator"):
        load_table(S3_DOC.replace("2 | 0 | -1", "2 | 1/0 | -1"))


_LONG = "9" * 5000  # beyond Python's default 4,300-digit int string limit


@pytest.mark.parametrize(
    "old, new",
    [("2 | 0 | -1", f"2 | {_LONG} | -1"), ("2 | 0 | -1", f"2 | z^{_LONG} | -1"),
     ("chi2 dim 2", f"chi2 dim {_LONG}")],
    ids=["coefficient", "exponent", "dim"],
)
def test_load_table_rejects_long_integer_literals(old, new):
    with pytest.raises(SpecError, match="more than 4300 digits"):
        load_table(S3_DOC.replace(old, new))


def test_load_table_rejects_malformed_syntax():
    with pytest.raises(SpecError):
        load_table("group symmetric:3\nclasses 3\n")
    with pytest.raises(SpecError):
        load_table(S3_DOC.replace("irrep chi1 dim 1 :", "irrep chi1 :"))
    with pytest.raises(SpecError):
        load_table(S3_DOC.replace("zeta 6", "conductor 6"))


def test_load_table_rejects_a_row_with_the_wrong_cell_count():
    with pytest.raises(VerificationError, match=r"^irrep 'chi2' has 2 values, expected 3$"):
        load_table(S3_DOC.replace("2 | 0 | -1", "2 | 0"))


@pytest.mark.parametrize("old, new", [("classes 3", "classes three"), ("zeta 6", "zeta 6/1")])
def test_load_table_rejects_non_integer_headers(old, new):
    with pytest.raises(SpecError, match=r"^classes and zeta must be integers$"):
        load_table(S3_DOC.replace(old, new))


def test_tables_of_groups_of_different_order_compare_unequal():
    a, b = table_for("symmetric:3"), table_for("cyclic:3")
    assert a.classes.count == b.classes.count and a.group.order != b.group.order
    assert tables_equal_up_to_row_order(a, b) is False


def test_tables_of_different_groups_compare_unequal():
    a = table_for("cyclic:4")
    b = table_for("product:[2,2]")
    assert not tables_equal_up_to_row_order(a, b)


def test_second_orthogonality_spot_check():
    t = table_for("symmetric:3")
    cd = t.classes
    for j in range(3):
        acc = Cyclo.from_rational(0)
        for i in range(3):
            acc = acc + t.values[i][j] * t.values[i][j].conj()
        assert acc.as_rational() == t.group.order / cd.sizes[j] or acc.as_integer() == t.group.order // cd.sizes[j]


def test_character_values_lie_in_declared_cyclotomic_field():
    for spec in SPEC_POOL:
        t = table_for(spec)
        cd = conjugacy(construct_group(spec))
        for row in t.values:
            for v in row:
                assert t.zeta_order % v.conductor == 0
        assert t.zeta_order == cd.exponent


def _sparse(rows) -> list[dict[int, int]]:
    """Dense rows as the split's sparse vectors."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def _densify(vecs, n: int, p: int) -> list[list[int]]:
    """Sparse vectors as dense residue lists in [0, p)."""
    return [[v.get(j, 0) % p for j in range(n)] for v in vecs]


def _class_data(spec):
    g = construct_group(spec)
    cd = conjugacy(g)
    mats = [class_mult_coeffs(g, cd, i) for i in range(cd.count)]
    return g, cd, mats, _least_prime(cd.exponent, g.order)


def test_omega_vectors_match_reference_split():
    # The 37 groups of the table golden corpus. The random split with the
    # characteristic-polynomial pieces is checked on the small ones too.
    for spec in dict.fromkeys(ALL_SMALL_SPECS + PIPELINE_SPECS):
        g, cd, mats, p = _class_data(spec)
        got = sorted(_omega_vectors(g, cd, p))
        assert got == sorted(_random_omega_vectors(mats, p, 0)), spec
        if spec in ALL_SMALL_SPECS:
            assert got == sorted(_random_omega_vectors(mats, p, 0, _reference_split_subspace)), spec


def test_sparse_split_matches_the_dense_split_piece_by_piece(monkeypatch):
    # Each piece `_omega_vectors` splits is split again by the dense split
    # that the sparse one replaced, on the same piece and class matrix made
    # dense: equal pivots and equal bases mod p at every step.
    sparse_split = chartable._split_piece
    steps = []

    def both(pivots, basis, acols, p):
        r = len(acols)
        amat = [[col.get(j, 0) for col in acols] for j in range(r)]
        got = sparse_split(pivots, basis, acols, p)
        want = _dense_split_piece(pivots, _densify(basis, r, p), amat, p)
        assert [(piv, _densify(b, r, p)) for piv, b in got] == want, (spec, pivots)
        steps.append(spec)
        return got

    monkeypatch.setattr(chartable, "_split_piece", both)
    specs = SPEC_POOL + ["dihedral:60", "cyclic:30", "product:[6,6]"]
    for spec in specs:
        g, cd, _, p = _class_data(spec)
        _omega_vectors(g, cd, p)
    assert set(steps) == set(specs) - {"cyclic:1"}  # one class: nothing to split


def test_corrupted_class_matrix_fails_like_the_reference(monkeypatch):
    # One a_ijk changed at a time in the class matrices `character_table`
    # builds. A change the split reads either raises (a piece is not
    # invariant or does not diagonalize, or a later check fails) or, like
    # one in a matrix the split never builds, leaves the table as it was:
    # no wrong table escapes.
    real = class_mult_coeffs
    raised = 0
    for spec in ("symmetric:3", "symmetric:4", "dihedral:4"):
        good = table_for(spec)
        g, cd = good.group, good.classes
        for i, j, k in itertools.product(range(cd.count), repeat=3):
            def corrupted(g_, cd_, i_, i=i, j=j, k=k):
                mat = [list(row) for row in real(g_, cd_, i_)]
                if i_ == i:
                    mat[j][k] += 1
                return mat

            monkeypatch.setattr(chartable, "class_mult_coeffs", corrupted)
            try:
                t = character_table(g, cd)
            except VerificationError:
                raised += 1
            else:
                assert (t.dims, t.values) == (good.dims, good.values), (spec, i, j, k)
    assert raised > 50


def test_split_rejects_a_piece_that_is_not_an_eigenbasis():
    p = 7
    shift = [[0, 0], [1, 0]]  # e0 -> e1: span(e0) is not invariant
    jordan = [[1, 1], [0, 1]]  # invariant but not diagonalizable
    for basis, amat in (([[1, 0]], shift), ([[1, 0], [0, 1]], jordan)):
        with pytest.raises(VerificationError):
            _split_piece(list(range(len(basis))), _sparse(basis), _sparse(zip(*amat)), p)
        for split in (_scan_split_subspace, _reference_split_subspace):
            with pytest.raises(VerificationError):
                split(basis, amat, p)
    # The eigenvector e1 is 0 at coordinate 0, where every central character
    # is 1, so its eigenvalue 5 is no root of the functional's polynomial.
    with pytest.raises(VerificationError):
        _split_piece([0, 1], [{0: 1}, {1: 1}], [{0: 2}, {1: 5}], p)
    assert _split_piece([0, 1], [{0: 1}, {1: 1}], [{0: 2}, {0: 3, 1: 5}], p) == \
        [([0], [{0: 1}]), ([1], [{0: 1, 1: 1}])]
    assert _scan_split_subspace([[1, 0], [0, 1]], [[2, 0], [0, 5]], p) == [[[1, 0]], [[0, 1]]]


def test_character_table_draws_no_random_number(monkeypatch):
    tree = ast.parse(inspect.getsource(chartable))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "random" not in imported
    assert not hasattr(chartable, "_MAX_RANDOM_SPLITS")

    def forbidden(*args, **kwargs):
        raise AssertionError("a random number was drawn")

    monkeypatch.setattr(random.Random, "__init__", forbidden)
    for spec in SPEC_POOL:
        assert character_table(construct_group(spec), seed=2**40).values == table_for(spec).values


def _null_count(m, p):
    """#{x : m x = 0} over F_p, counting every combination of the columns."""
    sums = Counter({(0,) * len(m): 1})
    for j in range(len(m[0])):
        col = [row[j] for row in m]
        nxt = Counter()
        for s, count in sums.items():
            for a in range(p):
                nxt[tuple((x + a * y) % p for x, y in zip(s, col))] += count
        sums = nxt
    return sums[(0,) * len(m)]


_ENTRIES = st.one_of(st.just(0), st.integers(-40, 40))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 31]),
    st.integers(1, 6).flatmap(
        lambda nr: st.integers(1, 8).flatmap(
            lambda nc: st.lists(st.lists(_ENTRIES, min_size=nc, max_size=nc),
                                min_size=nr, max_size=nr)
        )
    ),
)
def test_kernel_mod_is_a_null_space_basis(p, m):
    ncols = len(m[0])
    sparse = _kernel_mod(_sparse(m), ncols, p)
    assert all(x and -p < 2 * x <= p for v in sparse for x in v.values())
    basis = _densify(sparse, ncols, p)
    assert basis == _reference_kernel_mod(m, p)
    for x in basis:
        assert len(x) == ncols and all(0 <= c < p for c in x)
        assert all(sum(a * c for a, c in zip(row, x)) % p == 0 for row in m)
    if basis:
        # independent: no nonzero combination of the basis vectors vanishes
        assert _reference_kernel_mod([list(col) for col in zip(*basis)], p) == []
    if p <= 5:
        assert p ** len(basis) == _null_count(m, p)


# ---------------------------------------------------------------------------
# The split as it was before it became deterministic: random combinations of
# the class matrices, each piece split by a scan over every lam in F_p, and a
# fallback pass over every class matrix. Kept verbatim (renamed, with the
# piece splitter a parameter and `_reference_kernel_mod` as its kernel, so
# that the oracle runs none of the code it checks) as the oracle for
# `_omega_vectors`.


def _scan_split_subspace(basis: list[list[int]], amat: list[list[int]], p: int) -> list[list[list[int]]]:
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
    images = [_reference_mat_vec(amat, b, p) for b in basis]
    pieces = []
    total = 0
    for lam in range(p):
        shifted = [[a[i] - lam * b[i] for a, b in zip(images, basis)] for i in range(r)]
        kern = _reference_kernel_mod(shifted, p)
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


def _random_omega_vectors(class_mats: list[list[list[int]]], p: int, seed: int,
                          split=_scan_split_subspace) -> list[list[int]]:
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

    for _ in range(12):
        if not pending:
            break
        coefs = [rng.randrange(p) for _ in range(r)]
        amat = [[sum(coefs[i] * class_mats[i][j][k] for i in range(r)) % p
                 for k in range(r)] for j in range(r)]
        work, pending = pending, []
        for piece in work:
            for sub in split(piece, amat, p):
                push(sub)
    if pending:
        # guaranteed full split: distinct central characters differ on some class
        for i in range(r):
            if not pending:
                break
            work, pending = pending, []
            for piece in work:
                for sub in split(piece, class_mats[i], p):
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


# ---------------------------------------------------------------------------
# The split as it was before it became one kernel routine: the restriction
# matrix, a span solve, the Lagrange characteristic polynomial and its
# eigenvalues. Kept verbatim (renamed `_reference_*`) as the oracle for the
# eigenvectors `_scan_split_subspace` found directly.


def _reference_mat_vec(m: list[list[int]], v: list[int], p: int) -> list[int]:
    return [sum(mi[k] * v[k] for k in range(len(v))) % p for mi in m]


def _reference_kernel_mod(m: list[list[int]], p: int) -> list[list[int]]:
    """Basis of {x : m x = 0} over F_p, deterministic echelon order."""
    rows = [row[:] for row in m]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, len(rows)):
            if rows[i][c] % p:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for ri, pc in enumerate(pivots):
            vec[pc] = (-rows[ri][fc]) % p
        basis.append(vec)
    return basis


def _reference_solve_in_span(basis: list[list[int]], targets: list[list[int]], p: int) -> list[list[int]]:
    """Express each target vector in the given (independent) basis.

    Returns the coordinate vectors; raises if a target is outside the span.
    """
    k = len(basis)
    n = len(basis[0])
    t = len(targets)
    aug = [[basis[j][i] for j in range(k)] + [tv[i] for tv in targets] for i in range(n)]
    pivots = []
    r = 0
    for c in range(k):
        sel = None
        for i in range(r, n):
            if aug[i][c] % p:
                sel = i
                break
        if sel is None:
            raise VerificationError("subspace basis is not independent")
        aug[r], aug[sel] = aug[sel], aug[r]
        inv = pow(aug[r][c], -1, p)
        aug[r] = [(x * inv) % p for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c] % p:
                f = aug[i][c]
                aug[i] = [(x - f * y) % p for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, n):
        if any(x % p for x in aug[i][k:]):
            raise VerificationError("vector escaped its invariant subspace")
    return [[aug[ri][k + j] for ri in range(r)] for j in range(t)]


def _reference_charpoly_mod(m: list[list[int]], p: int) -> list[int]:
    """det(m - x I) coefficients (constant first) via interpolation; needs
    p > deg. Falls back on the caller for tiny p."""
    k = len(m)
    pts = list(range(k + 1))
    vals = [_reference_det_mod([[m[i][j] - (x if i == j else 0) for j in range(k)] for i in range(k)], p)
            for x in pts]
    # Lagrange interpolation over F_p
    coeffs = [0] * (k + 1)
    for i, xi in enumerate(pts):
        num = [1]
        denom = 1
        for j, xj in enumerate(pts):
            if i == j:
                continue
            num = _reference_poly_mul_mod(num, [-xj % p, 1], p)
            denom = denom * (xi - xj) % p
        scale = vals[i] * pow(denom, -1, p) % p
        for d, c in enumerate(num):
            coeffs[d] = (coeffs[d] + scale * c) % p
    return coeffs


def _reference_poly_mul_mod(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _reference_det_mod(m: list[list[int]], p: int) -> int:
    m = [row[:] for row in m]
    n = len(m)
    det = 1
    for c in range(n):
        sel = None
        for i in range(c, n):
            if m[i][c] % p:
                sel = i
                break
        if sel is None:
            return 0
        if sel != c:
            m[c], m[sel] = m[sel], m[c]
            det = -det
        det = det * m[c][c] % p
        inv = pow(m[c][c], -1, p)
        for i in range(c + 1, n):
            if m[i][c] % p:
                f = m[i][c] * inv % p
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[c])]
    return det % p


def _reference_eigenvalues_mod(r: list[list[int]], p: int) -> list[int]:
    k = len(r)
    if p <= k + 1:
        return [lam for lam in range(p)
                if _reference_det_mod([[r[i][j] - (lam if i == j else 0) for j in range(k)]
                             for i in range(k)], p) == 0]
    poly = _reference_charpoly_mod(r, p)
    out = []
    for lam in range(p):
        acc = 0
        for c in reversed(poly):
            acc = (acc * lam + c) % p
        if acc == 0:
            out.append(lam)
    return out


def _reference_split_subspace(basis: list[list[int]], amat: list[list[int]], p: int) -> list[list[list[int]]]:
    k = len(basis)
    images = [_reference_mat_vec(amat, b, p) for b in basis]
    rcols = _reference_solve_in_span(basis, images, p)
    # restriction matrix: column j = coordinates of A * basis[j]
    rmat = [[rcols[j][i] for j in range(k)] for i in range(k)]
    eigs = _reference_eigenvalues_mod(rmat, p)
    pieces = []
    total = 0
    for lam in eigs:
        shifted = [[(rmat[i][j] - (lam if i == j else 0)) % p for j in range(k)] for i in range(k)]
        kern = _reference_kernel_mod(shifted, p)
        if not kern:
            continue
        total += len(kern)
        lifted = []
        for w in kern:
            vec = [0] * len(basis[0])
            for j, c in enumerate(w):
                if c:
                    for t in range(len(vec)):
                        vec[t] = (vec[t] + c * basis[j][t]) % p
            lifted.append(vec)
        pieces.append(lifted)
    if total != k:
        raise VerificationError("class matrix failed to diagonalize over F_p")
    return pieces


# ---------------------------------------------------------------------------
# `verify_table` as it was before the column pass was dropped: the row
# relation and then the column relation, each summed directly. Kept verbatim
# (renamed `_reference_verify_table`) as the oracle for the row pass alone.


def _reference_verify_table(t: CharTable) -> None:
    """Exact consistency checks: dimensions, both orthogonality relations."""
    n = t.group.order
    cd = t.classes
    r = cd.count
    if len(t.dims) != r or len(t.values) != r:
        raise VerificationError("table is not square")
    if sum(d * d for d in t.dims) != n:
        raise VerificationError("sum of squared dims must equal the group order")
    for i in range(r):
        if t.values[i][0].as_integer() != t.dims[i]:
            raise VerificationError(f"row {i}: identity value must equal the dimension")
    if any(v.as_integer() != 1 for v in t.values[0]):
        raise VerificationError("row 0 must be the trivial character")
    conj_rows = [tuple(v.conj() for v in row) for row in t.values]
    for i in range(r):
        for i2 in range(i, r):
            acc = Cyclo.from_rational(0)
            for j in range(r):
                acc = acc + t.values[i][j] * conj_rows[i2][j] * cd.sizes[j]
            want = n if i == i2 else 0
            if acc.as_integer() != want:
                raise VerificationError(
                    f"row orthogonality fails for rows {i}, {i2}"
                )
    for j in range(r):
        for j2 in range(j, r):
            acc = Cyclo.from_rational(0)
            for i in range(r):
                acc = acc + t.values[i][j] * conj_rows[i][j2]
            want = Fraction(n, cd.sizes[j]) if j == j2 else Fraction(0)
            if acc.as_rational() != want:
                raise VerificationError(
                    f"column orthogonality fails for classes {j}, {j2}"
                )


def test_verify_table_rejects_a_ragged_table():
    t = table_for("symmetric:3")
    short = (t.values[0], t.values[1][:2], t.values[2])
    with pytest.raises(VerificationError, match="table is not square"):
        verify_table(t._replace(values=short))


def test_row_relation_and_reference_accept_every_small_table():
    for spec in ALL_SMALL_SPECS:
        t = table_for(spec)
        verify_table(t)
        _reference_verify_table(t)


def _corruptions(t: CharTable, rng: random.Random):
    """(name, table) pairs that break the table of t, each way named once."""
    r = t.count
    rows = [list(row) for row in t.values]

    def with_rows(new_rows):
        return t._replace(values=tuple(tuple(row) for row in new_rows))

    cells = [(i, j) for i in range(r) for j in range(r)]
    for i, j in rng.sample(cells, min(len(cells), 16)):
        bad = [list(row) for row in rows]
        bad[i][j] = bad[i][j] + 1
        yield f"cell {i},{j}", with_rows(bad)
    sizes = t.classes.sizes
    for j in range(1, r):
        for j2 in range(j + 1, r):
            if sizes[j] != sizes[j2]:
                bad = [list(row) for row in rows]
                for row in bad:
                    row[j], row[j2] = row[j2], row[j]
                yield f"columns {j},{j2} swapped", with_rows(bad)
    for i in range(r):
        bad = [list(row) for row in rows]
        bad[i] = [-v for v in bad[i]]
        yield f"row {i} negated", with_rows(bad)
        bad = [list(row) for row in rows]
        bad[i] = bad[i][:-1]
        yield f"row {i} short", with_rows(bad)
    # Two rows of one degree d replaced by 2a - b and (a + 2b)/3: the first
    # column, the sum of squared degrees and every off-diagonal entry of
    # X S X* stay right, and only the diagonal (norms 5n and 5n/9) is wrong.
    for i in range(1, r):
        for k in range(i + 1, r):
            if t.dims[i] == t.dims[k]:
                bad = [list(row) for row in rows]
                bad[i] = [a * 2 - b for a, b in zip(rows[i], rows[k])]
                bad[k] = [(a + b * 2) * Fraction(1, 3) for a, b in zip(rows[i], rows[k])]
                yield f"rows {i},{k} rotated", with_rows(bad)


def test_corrupted_tables_fail_both_verifiers():
    rng = random.Random(20261018)
    for spec in ("symmetric:4", "cyclic:12", "dihedral:7"):
        t = table_for(spec)
        names = set()
        for name, bad in _corruptions(t, rng):
            names.add(name.split()[-1])
            with pytest.raises(VerificationError):
                verify_table(bad)
            with pytest.raises((VerificationError, IndexError)):
                _reference_verify_table(bad)
        assert {"negated", "short", "rotated"} <= names, spec
        assert ("swapped" in names) == (len(set(t.classes.sizes[1:])) > 1), spec


def test_column_swaps_between_equal_class_sizes_pass_both_verifiers():
    # X P with P S P = S satisfies X S X* = n I again, so orthogonality alone
    # cannot tell these columns apart: both verifiers accept the swap.
    t = table_for("cyclic:12")
    bad = t._replace(values=tuple(row[:1] + row[5:6] + row[2:5] + row[1:2] + row[6:]
                                for row in t.values))
    assert bad.values != t.values
    verify_table(bad)
    _reference_verify_table(bad)


# A fuzz test for `load_table`: S3, S4 and C4 documents with edited cells and
# degrees, dropped, duplicated or reordered lines and changed headers. The
# documents are typed in, so the test does not depend on `character_table`.
C4_DOC = """\
group cyclic:4
classes 4
zeta 4
irrep chi0 dim 1 : 1 | 1 | 1 | 1
irrep chi1 dim 1 : 1 | -1 | 1 | -1
irrep chi2 dim 1 : 1 | z | -1 | -z
irrep chi3 dim 1 : 1 | -z | -1 | z
"""
_FUZZ_DOCS = (S3_DOC, expected_doc("symmetric:4"), C4_DOC)
_CELLS = ("0", "1", "-1", "2", "-2", "3", "1/2", "z", "-z", "z^2", "1 + z", "2*z^3", "1/0", "x", "")
_HEADERS = ("group symmetric:3", "group symmetric:4", "group cyclic:4", "group dihedral:4",
            "group cyclic:5", "group bogus:1", "group", "classes 3", "classes 4", "classes 5",
            "classes x", "zeta 1", "zeta 2", "zeta 4", "zeta 12", "zeta 0", "zeta -1", "zeta x",
            "conductor 4", "# comment")


@st.composite
def _mutated_documents(draw):
    lines = draw(st.sampled_from(_FUZZ_DOCS)).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("cell", "cell", "dim", "drop", "duplicate", "swap", "header")))
        k = draw(st.integers(0, len(lines) - 1))
        line = lines[k]
        if kind in ("cell", "dim") and line.startswith("irrep"):
            head, cells = line.split(" : ")
            cells = cells.split(" | ")
            if kind == "cell":
                c = draw(st.integers(0, len(cells) - 1))
                cells[c] = draw(st.sampled_from(_CELLS + tuple(cells)))
            else:
                head = head.rsplit(" ", 1)[0] + f" {draw(st.integers(0, 4))}"
            lines[k] = head + " : " + " | ".join(cells)
        elif kind == "drop":
            del lines[k]
        elif kind == "duplicate":
            lines.insert(k, line)
        elif kind == "swap":
            k2 = draw(st.integers(0, len(lines) - 1))
            lines[k], lines[k2] = lines[k2], line
        elif kind == "header":
            lines[min(k, 2)] = draw(st.sampled_from(_HEADERS))
        if not lines:
            break
    return "\n".join(lines) + "\n"


def _load_outcome(doc):
    try:
        return load_table(doc)
    except (SpecError, VerificationError) as exc:
        return type(exc)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_mutated_documents())
def test_load_table_fuzz_accepts_exactly_when_the_reference_does(doc):
    got = _load_outcome(doc)
    with mock.patch.object(chartable, "verify_table", _reference_verify_table):
        want = _load_outcome(doc)
    assert got == want, doc


def test_verify_reports_the_reference_failure():
    rng = random.Random(20261021)
    for spec in ("symmetric:4", "cyclic:12", "dihedral:7"):
        for name, bad in _corruptions(table_for(spec), rng):
            try:
                _reference_verify_table(bad)
            except VerificationError as exc:
                want = str(exc)
            except IndexError:
                continue
            with pytest.raises(VerificationError) as got:
                verify_table(bad)
            assert str(got.value) == want, (spec, name)


def test_row_pass_multiplies_no_cyclotomic_values(monkeypatch):
    tables = [table_for(spec) for spec in SPEC_POOL]

    def forbidden(a, b):
        raise AssertionError("Cyclo multiplication in verify_table")

    monkeypatch.setattr(Cyclo, "__mul__", forbidden)
    monkeypatch.setattr(Cyclo, "__rmul__", forbidden)
    for t in tables:
        verify_table(t)


def _c2_doc(zeta_order, cell):
    return (f"group cyclic:2\nclasses 2\nzeta {zeta_order}\n"
            f"irrep a dim 1 : 1 | 1\nirrep b dim 1 : 1 | {cell}\n")


def _rejected_by_both(doc):
    with pytest.raises(VerificationError) as got:
        load_table(doc)
    with mock.patch.object(chartable, "verify_table", _reference_verify_table):
        with pytest.raises(VerificationError) as want:
            load_table(doc)
    assert str(got.value) == str(want.value)


def test_a_residual_below_the_first_prime_needs_the_second():
    # The primes start above min(B, 2^31), so a second one is drawn only for
    # B > 2^31. Take q the first prime above 2^31 and the cell c = q - 1:
    # residual (0, 1) is 1 + c = q, residual (1, 1) is c^2 - 1 = (q - 2) q
    # and B = 1 + c^2 + n > q. q divides both residuals, so only the second
    # prime, which brings the product above B, sees that the table is wrong.
    q = next(chartable._primes_one_mod(1, 2**31))
    c = q - 1
    assert (1 + c) % q == 0 and (c * c - 1) % q == 0 and 1 + c * c + 2 > q
    _rejected_by_both(_c2_doc(1, str(c)))


def test_verify_takes_one_prime_at_the_least_conductor(monkeypatch):
    # Rational tables evaluate at N = 1, one map. A5's sqrt(5), written in
    # the power basis of Q(zeta_30), keeps exponents prime to 30.
    drawn = []
    real = chartable._primes_one_mod

    def recorded(n, above):
        for q in real(n, above):
            drawn.append(n)
            yield q

    for spec, n in (("symmetric:5", 1), ("symmetric:6", 1), ("cyclic:12", 12),
                    ("perm:[(1 2 3), (3 4 5)]", 30)):
        t = table_for(spec)
        with monkeypatch.context() as m:
            m.setattr(chartable, "_primes_one_mod", recorded)
            drawn.clear()
            verify_table(t)
        assert drawn == [n], spec


def test_a_rational_table_at_a_huge_declared_zeta_loads_quickly():
    # Declared zeta 999999 (466,560 units); the values need conductor 1.
    start = time.perf_counter()
    t = load_table(_c2_doc(999999, "-1"))
    assert time.perf_counter() - start < 2
    assert t.values[1][1].as_integer() == -1


def test_a_residual_that_vanishes_under_one_unit_is_still_caught():
    # Over Q(zeta_64) the first odd prime 1 (mod 64) is 193. A real value
    # delta = c0 + sum of +-(z^a + z^-a) with delta(omega) = 0 mod 193 makes
    # the cell -1 + delta give residuals conj(delta) and |delta - 1|^2 - 1,
    # both zero under zeta -> omega (u = 1, and u = -1 since delta is real),
    # while B stays below 193. Only the other units see that delta != 0.
    q = next(chartable._primes_one_mod(64, 0))
    omega = pow(chartable._primitive_root(q), (q - 1) // 64, q)
    eta = {a: (pow(omega, a, q) + pow(omega, -a, q)) % q for a in range(1, 16)}
    found = next((c0, a, b) for a in eta for b in eta if a < b
                 for c0 in range(-8, 11) if (c0 + eta[a] - eta[b]) % q == 0)
    c0, a, b = found
    cell = f"{c0 - 1} + z^{a} + z^{64 - a} - z^{b} - z^{64 - b}"
    # |cell|_1 <= |c0 - 1| + 4 <= 13, so B <= 1 + 13^2 + 2 < q: one prime.
    assert abs(c0 - 1) + 4 <= 13
    _rejected_by_both(_c2_doc(64, cell))


def test_fractional_coefficients_are_cleared_before_evaluation():
    # Read without its denominator, -1/3 would look like -1, a valid table.
    _rejected_by_both(_c2_doc(1, "-1/3"))
    _rejected_by_both(C4_DOC.replace("1 | z | -1 | -z", "1 | 1/3*z | -1 | -1/3*z"))


def test_a_zeta_above_the_conductor_cap_is_refused_before_any_work():
    start = time.perf_counter()
    with pytest.raises(SpecError, match="exceeds cap"):
        load_table(_c2_doc(10**12, "-1"))
    assert time.perf_counter() - start < 5


def test_a_large_declared_zeta_loads_quickly():
    doc = _c2_doc(30030, "-1")
    start = time.perf_counter()
    t = load_table(doc)
    assert time.perf_counter() - start < 5
    assert t.zeta_order == 30030 and t.values[1][1].as_integer() == -1


def test_a_large_declared_zeta_decomposes_quickly():
    # decompose reads the conjugated table, so it reduces mod Phi_30030
    t = load_table(_c2_doc(30030, "-1"))
    start = time.perf_counter()
    mults = decompose(t, regular_rep(t).character())
    assert time.perf_counter() - start < 5
    assert mults == (1, 1)


def test_verification_holds_one_pair_of_unit_images_at_a_time():
    # Holding the image of the table under all 5,760 units of Z/30030 at
    # once peaks near 6 MB; the table of powers of omega is about 1 MB. The
    # cell z needs conductor 30030 itself, and a rejected table is walked
    # over every unit before the least failing pair is reported.
    doc = _c2_doc(30030, "z")
    tracemalloc.start()
    try:
        with pytest.raises(VerificationError, match="orthogonality"):
            load_table(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000, peak


# ---------------------------------------------------------------------------
# `verify_table` as it was before the distinct-value evaluation and the
# power-map discharge: every cell evaluated under every unit, and the pair
# sums run for every pair {u, -u}. Kept verbatim (renamed
# `_reference_row_pass`, with its `_integer_terms` as
# `_reference_integer_terms`) as the oracle for the row pass.


def _reference_integer_terms(values):
    """(N, rows) for a table of values, N the lcm of their conductors: row i
    is (D_i, cells), D_i the lcm of the row's denominators and cells[j] the
    (exponent at zeta_N, integer coefficient) terms of D_i chi_ij."""
    big_n = lcm(*(v.conductor for row in values for v in row))
    rows = []
    for row in values:
        d = lcm(*(v.den for v in row))
        rows.append((d, [[(k * (big_n // v.conductor), c * (d // v.den)) for k, c in v._terms()]
                         for v in row]))
    return big_n, rows


def _reference_row_pass(t: CharTable) -> None:
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
    For odd primes q = 1 (mod N) above min(B, 2^31), taken in increasing
    order until their product M exceeds B, and each unit u mod N, the ring
    map zeta_N -> omega^u mod q (omega of order N mod q) must send every R
    to 0; it sends conj(x) to the image of x under the map for -u.

    That suffices. q splits completely in Q(zeta_N): the phi(N) maps are the
    reductions modulo the phi(N) distinct primes above q. An R that vanishes
    under all of them lies in every prime above q, hence in their product
    q Z[zeta_N]. The ideals q Z[zeta_N] for distinct q are coprime, so
    R = M gamma with gamma in Z[zeta_N]. Every conjugate of gamma has
    absolute value at most B/M < 1, so |Norm(gamma)| < 1; the norm is an
    integer, hence 0, and gamma = 0. Conversely a zero R vanishes under
    every map, so the check accepts exactly the tables that satisfy the
    relation. One prime is the common case: the first prime above B
    already exceeds it. Starting no higher than 2^31 keeps the trial
    division of each candidate short when B is larger, and then several
    primes are taken. Only the nonzero coefficients are evaluated, from one
    table of powers of omega per prime. The maps are walked one pair
    {u, -u} at a time: each image of the table is evaluated once and used in
    both orientations, so only two images are held at once, and the failing
    pairs of all maps are collected to report the least. When the two images
    are equal, as for every real table, one orientation is run: the second
    would pair the same two images and repeat the same sums.
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

    sizes = t.classes.sizes
    big_n, terms = _reference_integer_terms(t.values)
    dens = [d for d, _ in terms]
    least = gcd(big_n, *(k for _, row in terms for cell in row for k, _ in cell))
    big_n //= least
    rows = [[[(k // least, c) for k, c in cell] for cell in row] for _, row in terms]
    norms = [[sum(abs(c) for _, c in cell) for cell in row] for row in rows]
    want = [[n * dens[i] * dens[i] if i == k else 0 for k in range(r)] for i in range(r)]
    bound = max(sum(map(mul, sizes, map(mul, norms[i], norms[k]))) + want[i][k]
                for i in range(r) for k in range(i, r))
    failing = set()
    product = 1
    for q in chartable._primes_one_mod(big_n, min(bound, 2**31)):
        omega = pow(chartable._primitive_root(q), (q - 1) // big_n, q)
        pows = [1] * big_n
        for k in range(1, big_n):
            pows[k] = pows[k - 1] * omega % q
        for u in range(big_n // 2 + 1):
            if gcd(u, big_n) != 1:
                continue
            images = [[[sum(c * pows[w * k % big_n] for k, c in cell) % q for cell in row]
                       for row in rows] for w in {u, -u % big_n}]
            if images[0] == images[-1]:
                del images[1:]
            for x, y in zip(images, reversed(images)):
                weighted = [list(map(mul, sizes, row)) for row in x]
                failing.update((i, k) for i in range(r) for k in range(i, r)
                               if (sum(map(mul, weighted[i], y[k])) - want[i][k]) % q)
        product *= q
        if product > bound:
            break
    if failing:
        i, k = min(failing)
        raise VerificationError(f"row orthogonality fails for rows {i}, {k}")


def _verify_outcome(verify, t):
    """The message verify(t) raises, or None, and the (N, start) of the
    prime walk it begins, which pins N and the bound B up to 2^31."""
    walks = []
    real = chartable._primes_one_mod

    def recorded(n, above):
        walks.append((n, above))
        return real(n, above)

    with mock.patch.object(chartable, "_primes_one_mod", recorded):
        try:
            verify(t)
        except VerificationError as exc:
            return str(exc), walks
    return None, walks


_ORACLE_SPECS = SPEC_POOL + ["dihedral:60"]


def test_verify_matches_the_reference_row_pass_on_true_tables():
    for spec in _ORACLE_SPECS:
        t = table_for(spec)
        want = _verify_outcome(_reference_row_pass, t)
        assert want[0] is None and len(want[1]) == 1, spec
        assert _verify_outcome(verify_table, t) == want, spec


def test_verify_matches_the_reference_row_pass_on_corrupted_tables():
    # dihedral:60 has 580 corruptions (the others at most 95): its 16 cell
    # edits and a seeded sample of 44 of the others keep every kind and the
    # run short.
    rng = random.Random(20261019)
    for spec in ("symmetric:4", "cyclic:12", "dihedral:7", "dihedral:60"):
        cases = list(_corruptions(table_for(spec), rng))
        if len(cases) > 100:
            cells = [case for case in cases if case[0].startswith("cell")]
            cases = cells + rng.sample([case for case in cases if case not in cells], 60 - len(cells))
        kinds = {name.split()[-1] for name, _ in cases}
        assert kinds >= {"negated", "short", "rotated"} and cases[0][0].startswith("cell"), spec
        for name, bad in cases:
            want = _verify_outcome(_reference_row_pass, bad)
            assert want[0] is not None, (spec, name)
            assert _verify_outcome(verify_table, bad) == want, (spec, name)


def _load_message(doc):
    try:
        return load_table(doc).values
    except (SpecError, VerificationError) as exc:
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_mutated_documents())
def test_load_table_fuzz_matches_the_reference_row_pass(doc):
    got = _load_message(doc)
    with mock.patch.object(chartable, "verify_table", _reference_row_pass):
        want = _load_message(doc)
    assert got == want, doc


@pytest.mark.parametrize("spec", ["cyclic:12", "symmetric:4", "perm:[(1 2 3), (1 2)(3 4)]"])
def test_failing_pairs_match_both_orientations_summed_apart(spec):
    # Random images mod 7, so that about one residual in seven is zero: y
    # unrelated to x, where the pairs need both orientations, and y equal
    # to x read through the inverse-class map, where M is symmetric.
    t = table_for(spec)
    r, sizes, inverse = t.count, t.classes.sizes, t.classes.inverse_class
    rng = random.Random(spec)
    q = 7
    for trial in range(20):
        x = [[rng.randrange(q) for _ in range(r)] for _ in range(r)]
        y = ([[rng.randrange(q) for _ in range(r)] for _ in range(r)] if trial % 2
             else [[row[j] for j in inverse] for row in x])
        want = [[0] * r for _ in range(r)]
        for i in range(r):
            want[i][i] = rng.randrange(q)

        def residual(a, b, i, k):
            return (sum(s * u * v for s, u, v in zip(sizes, a[i], b[k])) - want[i][k]) % q

        expected = {(i, k) for i in range(r) for k in range(i, r)
                    if residual(x, y, i, k) or residual(y, x, i, k)}
        assert chartable._failing_pairs(x, y, sizes, inverse, want, q) == expected, (spec, trial)


def _count_pair_sums(monkeypatch):
    calls = []
    real = chartable._failing_pairs

    def counted(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(chartable, "_failing_pairs", counted)
    return calls


def test_a_true_table_sums_one_unit_pair_per_prime(monkeypatch):
    # phi(60) = 16 and phi(30) = 8 maps, and one prime each: the pair {1, -1}
    # is summed and the other pairs are discharged by the power map.
    tables = {spec: table_for(spec) for spec in ("dihedral:60", "cyclic:30")}
    calls = _count_pair_sums(monkeypatch)
    for spec, t in tables.items():
        calls.clear()
        verify_table(t)
        assert len(calls) == 1, spec


def test_an_orthogonal_table_that_breaks_the_galois_action_is_summed_in_full(monkeypatch):
    # C12 with the columns of g and g^2 swapped: every class has size 1, so
    # the table stays orthogonal, but chi(g^5) = sigma_5(chi(g)) fails in
    # the swapped columns. Every pair of units beyond {1, -1} (5 and 7 mod
    # 12) falls back to its own sums, and the table is still accepted.
    t = table_for("cyclic:12")
    g, cd = t.group, t.classes
    x = g.generators[0]
    a, b = cd.class_of[x], cd.class_of[g.mul(x, x)]
    swap = list(range(t.count))
    swap[a], swap[b] = b, a
    bad = t._replace(values=tuple(tuple(row[j] for j in swap) for row in t.values))
    assert bad.values != t.values
    calls = _count_pair_sums(monkeypatch)
    verify_table(bad)
    assert len(calls) == 2
    _reference_row_pass(bad)


# ---------------------------------------------------------------------------
# The lift as it was before the period-o transform: the e x e loop per class
# over the powers of each representative. Kept verbatim, as a function of the
# modular rows (renamed `_reference_lift`), as the oracle for `_lift`.


def _reference_lift(g, cd, p, rows):
    r = cd.count
    e = cd.exponent
    z = pow(chartable._primitive_root(p), (p - 1) // e, p)
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
    table_rows = []
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
            vals.append(cyclo_from_coeffs(e, mults))
        table_rows.append((dim, tuple(vals)))
    return table_rows


A5 = "perm:[(1 2 3 4 5), (1 2 3)]"


def test_lift_matches_the_reference(monkeypatch):
    calls = []
    real = chartable._lift

    def recorded(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(chartable, "_lift", recorded)
    for spec in ALL_SMALL_SPECS + ["dihedral:60", "cyclic:30", A5, "product:[6,6]"]:
        character_table(construct_group(spec))  # the split draws no seed
        args, got = calls.pop()
        want = _reference_lift(*args)
        assert [(d, [(v.conductor, v.nums, v.den) for v in vals]) for d, vals in got] == \
            [(d, [(v.conductor, v.nums, v.den) for v in vals]) for d, vals in want], spec


def _rational_classes(g, cd) -> list[list[int]]:
    """The orbits {class of x^k : gcd(k, o(x)) = 1}, each listed from its
    least class, found by powering the representatives."""
    orbits = {}
    for x in cd.representatives:
        o = element_order(g, x)
        orbit = sorted({cd.class_of[power(g, x, k)] for k in range(1, o + 1) if math.gcd(k, o) == 1})
        orbits[orbit[0]] = orbit
    return list(orbits.values())


def _lift_args(spec):
    """The arguments character_table passes to `_lift` for spec."""
    seen = []
    real = chartable._lift
    with mock.patch.object(chartable, "_lift", lambda *a: seen.append(a) or real(*a)):
        character_table(construct_group(spec))
    return seen[0]


def test_lift_walks_the_powers_of_one_class_per_rational_class(monkeypatch):
    walked = []
    real = chartable._power_path
    monkeypatch.setattr(chartable, "_power_path", lambda g, cd, x: walked.append(x) or real(g, cd, x))
    for spec in ("dihedral:60", "cyclic:30"):
        g, cd, p, rows = _lift_args(spec)
        walked.clear()
        chartable._lift(g, cd, p, rows)
        assert walked == [cd.representatives[orbit[0]] for orbit in _rational_classes(g, cd)], spec


def test_lifted_values_agree_with_the_modular_data_at_every_class():
    # Each value, read at a primitive e-th root of unity mod p, is the
    # modular datum of its class, also at the classes lifted by a move.
    for spec in ("dihedral:60", "cyclic:30", A5):
        g, cd, p, rows = _lift_args(spec)
        e = cd.exponent
        z = pow(chartable._primitive_root(p), (p - 1) // e, p)
        for (_, chi_hat), (_, vals) in zip(rows, chartable._lift(g, cd, p, rows)):
            assert [sum(c * pow(z, k, p) for k, c in enumerate(v.nums)) % p for v in vals] == \
                [x % p for x in chi_hat], spec


def test_a_corrupted_datum_at_a_moved_class_fails_the_lift():
    for spec in ("dihedral:60", "cyclic:30", A5):
        g, cd, p, rows = _lift_args(spec)
        moved = [c for orbit in _rational_classes(g, cd) for c in orbit[1:]]
        assert moved, spec
        for c in moved:
            i = c % len(rows)
            dim, chi_hat = rows[i]
            bad = list(chi_hat)
            bad[c] = (bad[c] + 1) % p
            with pytest.raises(VerificationError, match="failed to lift"):
                chartable._lift(g, cd, p, rows[:i] + [(dim, bad)] + rows[i + 1:])


def _refuse_class_matrices(*args):
    raise AssertionError("a class matrix was built")


def test_the_class_cap_refuses_a_table_right_after_conjugacy(monkeypatch):
    # Above the cap neither call builds a class matrix: the refusal comes
    # right after conjugacy. cyclic:5040 is under the order cap.
    assert MAX_TABLE_CLASSES == 256
    monkeypatch.setattr(chartable, "_omega_vectors", _refuse_class_matrices)
    for spec, r in (("cyclic:257", 257), ("dihedral:508", 257), ("cyclic:5040", 5040)):
        with pytest.raises(SpecError, match=f"has {r} conjugacy classes; .* capped at 256"):
            character_table(construct_group(spec))
        with pytest.raises(SpecError, match=f"has {r} conjugacy classes"):
            load_table(f"group {spec}\nclasses {r}\nzeta 1\nirrep chi0 dim 1 : 1\n")
    # At the cap both go on: character_table to its first class matrix, and
    # load_table to the document's class count.
    with pytest.raises(AssertionError, match="class matrix"):
        character_table(construct_group("cyclic:256"))
    with pytest.raises(VerificationError, match="declares 255 classes, group has 256"):
        load_table("group cyclic:256\nclasses 255\nzeta 1\nirrep chi0 dim 1 : 1\n")


def test_the_class_cap_boundary(monkeypatch):
    # The cap is read on each call: at the cap a table is built and loaded,
    # one class more is refused.
    monkeypatch.setattr(chartable, "MAX_TABLE_CLASSES", 4)
    t = character_table(construct_group("cyclic:4"))
    assert load_table(format_table(t)) == t
    for spec in ("cyclic:5", "product:[5]"):
        with pytest.raises(SpecError, match="has 5 conjugacy classes; .* capped at 4"):
            character_table(construct_group(spec))
    with pytest.raises(SpecError, match="capped at 4"):
        load_table(format_table(character_table(construct_group("symmetric:3")))
                   .replace("group symmetric:3", "group cyclic:5"))
