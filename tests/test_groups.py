import random
import tracemalloc
from math import lcm

import pytest
from helpers import element_order, is_abelian, power

from repcorr.errors import SpecError, VerificationError
from repcorr.groups import (
    DEFAULT_ORDER_CAP,
    MAX_PERM_POINTS,
    ClassData,
    Group,
    _compose,
    class_mult_coeffs,
    conjugacy,
    construct_group,
    cyclic_factors,
    parse_cycles,
)


def _cayley_table(g):
    return [[g.mul(a, b) for b in range(g.order)] for a in range(g.order)]


def _validate(g, table=None):
    """Full group-law check on a Cayley table (built from g.mul by default):
    identity, latin square, inverses, associativity."""
    n = g.order
    m = _cayley_table(g) if table is None else table
    if len(m) != n or any(len(row) != n for row in m):
        raise VerificationError("mult table shape mismatch")
    if m[0] != list(range(n)) or [row[0] for row in m] != list(range(n)):
        raise VerificationError("element 0 is not an identity")
    for a in range(n):
        if sorted(m[a]) != list(range(n)):
            raise VerificationError(f"row {a} is not a permutation")
        if sorted(row[a] for row in m) != list(range(n)):
            raise VerificationError(f"column {a} is not a permutation")
        if m[a][g.inv[a]] != 0 or m[g.inv[a]][a] != 0:
            raise VerificationError(f"bad inverse for element {a}")
    for a in range(n):
        ma = m[a]
        for b in range(n):
            # (a*b)*c == a*(b*c) for every c
            if m[ma[b]] != [ma[bc] for bc in m[b]]:
                raise VerificationError(f"associativity fails at element {a}")


def test_cyclic_basics():
    g = construct_group("cyclic:6")
    assert g.order == 6
    _validate(g)
    cd = conjugacy(g)
    assert cd.count == 6
    assert cd.sizes == (1,) * 6
    assert cd.exponent == 6


def test_cyclic_element_order_is_power_order():
    g = construct_group("cyclic:5")
    # BFS from the generator lists 0, g, g^2, ...
    for k in range(5):
        assert power(g, 1, k) == k


def test_symmetric_3_classes():
    g = construct_group("symmetric:3")
    assert g.order == 6
    _validate(g)
    cd = conjugacy(g)
    assert cd.sizes == (1, 3, 2)
    assert cd.exponent == 6
    assert cd.classes[0] == (0,)


def test_dihedral_4():
    g = construct_group("dihedral:4")
    assert g.order == 8
    _validate(g)
    cd = conjugacy(g)
    assert cd.count == 5


def test_dihedral_6_exponent():
    g = construct_group("dihedral:6")
    assert g.order == 12
    cd = conjugacy(g)
    assert cd.count == 6
    # brute force over the Cayley table: element orders are 1, 2, 3, 6
    assert sorted(set(element_order(g, a) for a in range(g.order))) == [1, 2, 3, 6]
    assert cd.exponent == 6


def test_product_group():
    g = construct_group("product:[2,3]")
    assert g.order == 6
    _validate(g)
    assert is_abelian(g)
    cd = conjugacy(g)
    assert cd.count == 6
    assert cd.exponent == 6


def test_perm_group_a4():
    g = construct_group("perm:[(1 2 3), (1 2)(3 4)]")
    assert g.order == 12
    _validate(g)
    cd = conjugacy(g)
    assert cd.sizes[0] == 1
    assert sorted(cd.sizes) == [1, 3, 4, 4]


def test_perm_identity_only():
    g = construct_group("perm:[()]")
    assert g.order == 1
    cd = conjugacy(g)
    assert cd.count == 1 and cd.exponent == 1


def test_order_cap(monkeypatch):
    monkeypatch.setenv("REPCORR_ORDER_CAP", "100")
    with pytest.raises(SpecError):
        construct_group("symmetric:6")
    monkeypatch.setenv("REPCORR_ORDER_CAP", "720")
    g = construct_group("symmetric:6")
    assert g.order == 720


def test_default_order_cap(monkeypatch):
    monkeypatch.delenv("REPCORR_ORDER_CAP", raising=False)
    assert DEFAULT_ORDER_CAP == 5040
    assert construct_group("product:[70,72]").order == 5040
    with pytest.raises(SpecError, match="exceeds cap 5040"):
        construct_group("product:[71,71]")


def test_order_cap_env(monkeypatch):
    monkeypatch.setenv("REPCORR_ORDER_CAP", "10")
    with pytest.raises(SpecError):
        construct_group("cyclic:11")
    monkeypatch.setenv("REPCORR_ORDER_CAP", "nope")
    with pytest.raises(SpecError):
        construct_group("cyclic:2")


def test_bad_specs():
    for bad in ["cyclic:0", "cyclic:x", "nonsense:3", "product:3", "perm:[]",
                "dihedral:1", "symmetric:7", "perm:[(0 1)]"]:
        with pytest.raises(SpecError):
            construct_group(bad)


def test_parse_cycles():
    assert parse_cycles("(1 2 3)") == (1, 2, 0)
    assert parse_cycles("(1 2)(3 4)") == (1, 0, 3, 2)
    assert parse_cycles("()") == ()
    # non-disjoint cycles compose right-to-left
    assert parse_cycles("(1 2)(2 3)") == parse_cycles("(1 2 3)")
    with pytest.raises(SpecError):
        parse_cycles("(1 1)")
    with pytest.raises(SpecError):
        parse_cycles("1 2")


def test_perm_point_cap_raises_before_allocating():
    huge = "9" * 5000  # more digits than int() converts by default
    for spec in ("perm:[(1 300000)]", "perm:[(1 2), (3 1000000000)]", f"perm:[(1 {huge})]"):
        tracemalloc.start()
        try:
            with pytest.raises(SpecError, match=f"the cap of {MAX_PERM_POINTS}"):
                construct_group(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000, (spec, peak)


def test_perm_point_cap_boundary():
    assert MAX_PERM_POINTS == 1000
    assert len(parse_cycles("(1 1000)")) == 1000
    assert construct_group("perm:[(1 1000)]").order == 2
    with pytest.raises(SpecError):
        parse_cycles("(1 1001)")


def test_cyclic_factors_share_construct_group_grammar():
    assert cyclic_factors("cyclic:4") == (4,)
    assert cyclic_factors(" product: [2, 3] ") == (2, 3)
    assert cyclic_factors("symmetric:3") is None
    assert cyclic_factors("perm:[(1 2)]") is None
    for bad in ("cyclic:0", "cyclic:x", "cyclic:", "product:[]", "product:[2,0]", "product:2", "bogus:1"):
        with pytest.raises(SpecError) as from_factors:
            cyclic_factors(bad)
        with pytest.raises(SpecError) as from_group:
            construct_group(bad)
        assert str(from_factors.value) == str(from_group.value)


def test_validate_catches_broken_table():
    g = construct_group("cyclic:3")
    broken = _cayley_table(g)
    broken[1][1] = 1  # no longer a latin square
    with pytest.raises(VerificationError):
        _validate(g, broken)


ALL_SMALL_SPECS = [
    "cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6",
    "cyclic:7", "cyclic:8", "cyclic:9", "cyclic:10", "cyclic:11", "cyclic:12",
    "product:[2,2]", "product:[2,4]", "product:[2,2,2]", "product:[3,3]",
    "product:[2,3,4]", "product:[2,2,6]",
    "dihedral:2", "dihedral:3", "dihedral:4", "dihedral:5", "dihedral:6",
    "dihedral:8", "dihedral:10", "dihedral:12",
    "symmetric:2", "symmetric:3", "symmetric:4", "symmetric:5",
    "perm:[(1 2 3), (1 2)(3 4)]",            # A4
    "perm:[(1 2 3 4)(5 6 7 8), (1 5 3 7)(2 8 4 6)]",  # Q8
]


def test_every_constructed_group_validates():
    for spec in ALL_SMALL_SPECS:
        g = construct_group(spec)
        assert g.order <= 200
        _validate(g)


def test_conjugacy_partition_properties():
    for spec in ALL_SMALL_SPECS:
        g = construct_group(spec)
        cd = conjugacy(g)
        members = sorted(e for c in cd.classes for e in c)
        assert members == list(range(g.order))
        assert cd.classes[0] == (0,)
        firsts = [c[0] for c in cd.classes]
        assert firsts == sorted(firsts)
        for k, rep in enumerate(cd.representatives):
            assert cd.class_of[g.inv[rep]] == cd.inverse_class[k]
        for c in cd.classes:
            orders = {element_order(g, e) for e in c}
            assert len(orders) == 1


def test_exponent_is_the_lcm_of_all_element_orders():
    for spec in ALL_SMALL_SPECS + ["dihedral:60", "product:[6,6]"]:
        g = construct_group(spec)
        assert conjugacy(g).exponent == lcm(*(element_order(g, x) for x in range(g.order))), spec


@pytest.mark.parametrize("spec", ["cyclic:5040", "product:[70,72]"])
def test_conjugacy_makes_fewer_than_six_products_per_element(spec, monkeypatch):
    # Walking the powers of every representative would cost sum o(x)
    # products, 9,424,233 on cyclic:5040; only classes no walk met are walked.
    g = construct_group(spec)
    calls = [0]
    real = Group.mul

    def counted(self, a, b):
        calls[0] += 1
        return real(self, a, b)

    monkeypatch.setattr(Group, "mul", counted)
    conjugacy(g)
    assert calls[0] < 6 * g.order


def test_class_mult_identity_column():
    g = construct_group("symmetric:3")
    cd = conjugacy(g)
    for j in range(cd.count):
        a = class_mult_coeffs(g, cd, 0)[j]
        assert a == tuple(1 if k == j else 0 for k in range(cd.count))


def test_class_mult_s3_transpositions():
    g = construct_group("symmetric:3")
    cd = conjugacy(g)
    i = cd.class_of[1]  # class of the first transposition
    a = class_mult_coeffs(g, cd, i)[i]
    assert a[0] == 3


def test_class_mult_cyclic4():
    g = construct_group("cyclic:4")
    cd = conjugacy(g)
    i = cd.class_of[1]
    a = class_mult_coeffs(g, cd, i)[i]
    expected = tuple(1 if cd.representatives[k] == g.mul(1, 1) else 0
                     for k in range(cd.count))
    assert a == expected


def test_class_mult_counting_identity():
    rng = random.Random(7)
    for _ in range(50):
        spec = rng.choice(ALL_SMALL_SPECS)
        g = construct_group(spec)
        cd = conjugacy(g)
        i = rng.randrange(cd.count)
        j = rng.randrange(cd.count)
        a = class_mult_coeffs(g, cd, i)[j]
        assert sum(ak * sk for ak, sk in zip(a, cd.sizes)) == cd.sizes[i] * cd.sizes[j]


def test_class_data_matches_cayley_table_oracle():
    """Classes, their order, inverses, the exponent and every a_ijk agree
    with brute force over the full Cayley table."""
    for spec in ALL_SMALL_SPECS:
        g = construct_group(spec)
        n = g.order
        m = _cayley_table(g)
        inv = [m[a].index(0) for a in range(n)]
        assert g.inv == tuple(inv), spec
        classes, class_of = [], [-1] * n
        for a in range(n):
            if class_of[a] < 0:
                orbit = tuple(sorted({m[m[x][a]][inv[x]] for x in range(n)}))
                for e in orbit:
                    class_of[e] = len(classes)
                classes.append(orbit)
        exponent = 1
        for a in range(n):
            k, x = 1, a
            while x != 0:
                x, k = m[x][a], k + 1
            exponent = lcm(exponent, k)
        cd = conjugacy(g)
        reps = [c[0] for c in classes]
        assert cd.classes == tuple(classes), spec
        assert cd.class_of == tuple(class_of), spec
        assert cd.representatives == tuple(reps), spec
        assert cd.inverse_class == tuple(class_of[inv[r]] for r in reps), spec
        assert cd.exponent == exponent, spec
        for i, ci in enumerate(classes):
            got = class_mult_coeffs(g, cd, i)
            for j, cj in enumerate(classes):
                hits = [0] * n
                for x in ci:
                    for y in cj:
                        hits[m[x][y]] += 1
                assert got[j] == tuple(hits[r] for r in reps), (spec, i, j)


def test_compose_matches_the_generator_expression():
    rng = random.Random(25)
    for n in (0, 1, 2, 7, 60):
        for _ in range(20):
            p, q = rng.sample(range(n), n), rng.sample(range(n), n)
            p, q = tuple(p), tuple(q)
            got = _compose(p, q)
            assert type(got) is tuple
            assert got == tuple(p[q[x]] for x in range(len(p)))


# Every element's label, in element order.
_LABELS = {
    "cyclic:5": ("0", "1", "2", "3", "4"),
    "product:[2,3]": ("(0,0)", "(1,0)", "(0,1)", "(1,1)", "(0,2)", "(1,2)"),
    "dihedral:4": ("e", "r", "s", "r^2", "s*r", "s*r^3", "r^3", "s*r^2"),
    "symmetric:4": (
        "()", "(1 2)", "(1 2 3 4)", "(2 3 4)", "(1 3 4)", "(1 3)(2 4)", "(1 3 4 2)", "(1 3 2 4)",
        "(1 2 4 3)", "(1 4 2 3)", "(1 4 3 2)", "(2 4 3)", "(1 4)(2 3)", "(1 4 3)", "(1 4 2)",
        "(1 3 2)", "(1 4)", "(1 3)", "(2 4)", "(2 3)", "(3 4)", "(1 2 4)", "(1 2 3)",
        "(1 2)(3 4)",
    ),
    "perm:[(1 2 3),(1 2)(3 4)]": (
        "()", "(1 2 3)", "(1 2)(3 4)", "(1 3 2)", "(1 3 4)", "(2 4 3)", "(2 3 4)", "(1 2 4)",
        "(1 4 3)", "(1 4 2)", "(1 3)(2 4)", "(1 4)(2 3)",
    ),
}


@pytest.mark.parametrize("spec", sorted(_LABELS))
def test_labels_are_rendered_on_demand(spec):
    g = construct_group(spec)
    assert tuple(g.label(x) for x in range(g.order)) == _LABELS[spec]


def test_a_zero_order_cap_is_refused(monkeypatch):
    monkeypatch.setenv("REPCORR_ORDER_CAP", "0")
    with pytest.raises(SpecError, match=r"^REPCORR_ORDER_CAP must be positive$"):
        construct_group("cyclic:2")


def test_class_mult_coeffs_refuses_an_out_of_range_class():
    g = construct_group("symmetric:3")
    cd = conjugacy(g)
    for i in (-1, cd.count):
        with pytest.raises(SpecError, match=rf"^class index out of range: {i}$"):
            class_mult_coeffs(g, cd, i)
