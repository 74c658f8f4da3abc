import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cyclo import _reference_add, _reference_scale
from test_groups import ALL_SMALL_SPECS
from test_table_golden import PIPELINE_SPECS

from repcorr import chartable, cyclo, reps
from repcorr.chartable import CharTable, character_table
from repcorr.corrgraph import build_d_graph
from repcorr.cyclo import Cyclo, zeta
from repcorr.errors import SpecError, VerificationError
from repcorr.groups import MAX_PERM_POINTS, construct_group
from repcorr.reps import (
    MAX_REP_DIM,
    MAX_SPEC_DEPTH,
    Rep,
    decompose,
    dsum,
    is_pi_injective,
    parse_rep_spec,
    perm_rep,
    regular_rep,
    rep_from_character,
    rep_from_mults,
    tensor,
    trivial_rep,
)

_TABLES = {}


def table_for(spec):
    if spec not in _TABLES:
        _TABLES[spec] = character_table(construct_group(spec))
    return _TABLES[spec]


POOL = [
    "cyclic:2",
    "cyclic:3",
    "cyclic:6",
    "product:[2,2]",
    "dihedral:4",
    "dihedral:5",
    "symmetric:3",
    "symmetric:4",
    "perm:[(1 2 3), (1 2)(3 4)]",
]


def test_trivial_and_regular_basics():
    for spec in POOL:
        t = table_for(spec)
        triv = trivial_rep(t)
        reg = regular_rep(t)
        assert triv.dim == 1
        assert reg.dim == t.group.order
        assert reg.mults == t.dims
        ch = reg.character()
        assert ch[0].as_integer() == t.group.order
        assert all(v == 0 for v in ch[1:])


def test_natural_permutation_action_of_sym3():
    t = table_for("symmetric:3")
    rep = parse_rep_spec(t, "perm:[(1 2), (1 2 3)]")
    assert rep.dim == 3
    assert rep.mults == (1, 0, 1)
    vals = [v.as_integer() for v in rep.character()]
    assert vals == [3, 1, 0]


def test_standard_tensor_square_of_sym3():
    t = table_for("symmetric:3")
    std = rep_from_mults(t, (0, 0, 1))
    sq = tensor(std, std)
    assert sq.mults == (1, 1, 1)
    assert sq.dim == 4


def test_character_decompose_roundtrip_random():
    rng = random.Random(7)
    for _ in range(300):
        t = table_for(rng.choice(POOL))
        mults = tuple(rng.randrange(0, 4) for _ in range(t.count))
        rep = rep_from_mults(t, mults)
        assert decompose(t, rep.character()) == mults


def test_dsum_adds_characters_and_tensor_multiplies_dims():
    rng = random.Random(11)
    for _ in range(150):
        t = table_for(rng.choice(POOL))
        a = rep_from_mults(t, tuple(rng.randrange(0, 3) for _ in range(t.count)))
        b = rep_from_mults(t, tuple(rng.randrange(0, 3) for _ in range(t.count)))
        s = dsum(a, b)
        assert s.mults == tuple(x + y for x, y in zip(a.mults, b.mults))
        ca, cb, cs = a.character(), b.character(), s.character()
        assert all((x + y) == z for x, y, z in zip(ca, cb, cs))
        p = tensor(a, b)
        assert p.dim == a.dim * b.dim
        assert p.mults == tensor(b, a).mults
        cp = p.character()
        assert all((x * y) == z for x, y, z in zip(ca, cb, cp))


def test_tensor_and_d_graph_count_their_decompositions(monkeypatch):
    calls = []
    real = reps.decompose

    def counted(table, values):
        calls.append(1)
        return real(table, values)

    monkeypatch.setattr(reps, "decompose", counted)
    t = table_for("symmetric:4")
    reg = regular_rep(t)
    tensor(reg, reg)
    assert len(calls) == 1
    build_d_graph(reg)
    assert len(calls) == 1 + t.count


def test_tensor_with_trivial_is_identity():
    for spec in POOL:
        t = table_for(spec)
        reg = regular_rep(t)
        assert tensor(reg, trivial_rep(t)).mults == reg.mults


def test_decompose_rejects_bad_class_functions():
    t = table_for("symmetric:3")
    with pytest.raises(VerificationError, match="expected 3"):
        decompose(t, (Cyclo.from_rational(1),))
    # indicator of the transposition class: fractional inner products
    f = (Cyclo.from_rational(0), Cyclo.from_rational(1), Cyclo.from_rational(0))
    with pytest.raises(VerificationError, match="nonnegative integer"):
        decompose(t, f)
    # sign minus trivial: integral but negative
    g = (Cyclo.from_rational(0), Cyclo.from_rational(-2), Cyclo.from_rational(0))
    with pytest.raises(VerificationError, match="nonnegative integer"):
        decompose(t, g)
    # irrational class function
    h = (Cyclo.from_rational(1), zeta(6), Cyclo.from_rational(0))
    with pytest.raises(VerificationError):
        decompose(t, h)


def test_perm_rep_rejects_non_homomorphism():
    t = table_for("symmetric:3")
    with pytest.raises(VerificationError, match="homomorphism"):
        parse_rep_spec(t, "perm:[(1 2), (1 2)]")
    with pytest.raises(SpecError, match="generators"):
        parse_rep_spec(t, "perm:[(1 2)]")
    with pytest.raises(SpecError, match="permutation"):
        perm_rep(t, [(0, 0, 1), (1, 2, 0)])


def test_rep_from_mults_validation():
    t = table_for("symmetric:3")
    with pytest.raises(SpecError):
        rep_from_mults(t, (1, 0))
    with pytest.raises(SpecError):
        rep_from_mults(t, (1, -1, 0))


def test_parse_rep_spec_grammar():
    t = table_for("symmetric:3")
    assert parse_rep_spec(t, "trivial").mults == (1, 0, 0)
    assert parse_rep_spec(t, "regular").mults == (1, 1, 2)
    assert parse_rep_spec(t, "mult:[1,0,1]").mults == (1, 0, 1)
    assert parse_rep_spec(t, "char:[3, 1, 0]").mults == (1, 0, 1)
    assert parse_rep_spec(t, "tensor(mult:[0,0,1], mult:[0,0,1])").mults == (1, 1, 1)
    assert parse_rep_spec(t, "dsum(trivial, regular)").mults == (2, 1, 2)
    nested = parse_rep_spec(t, "tensor(perm:[(1 2), (1 2 3)], dsum(trivial, trivial))")
    assert nested.dim == 6
    named = parse_rep_spec(t, "regular", name="rho")
    assert named.name == "rho"


def test_parse_rep_spec_with_cyclotomic_character_values():
    t = table_for("cyclic:3")
    rep = parse_rep_spec(t, "char:[1, z, z^2]")
    assert rep.dim == 1
    assert sum(rep.mults) == 1


def test_parse_rep_spec_rejects_garbage():
    t = table_for("symmetric:3")
    for bad in (
        "bogus",
        "mult:[1,0",
        "mult:[1,x,0]",
        "tensor(trivial)",
        "perm:(1 2)",
        "char:[110]",
    ):
        with pytest.raises((SpecError, VerificationError)):
            parse_rep_spec(t, bad)


def test_perm_rep_point_cap_raises_before_allocating():
    t = table_for("symmetric:3")
    tracemalloc.start()
    try:
        with pytest.raises(SpecError, match=f"exceeds the cap of {MAX_PERM_POINTS}"):
            parse_rep_spec(t, "perm:[(1 2), (1 300000)]")
        with pytest.raises(SpecError, match=f"the cap of {MAX_PERM_POINTS}"):
            parse_rep_spec(t, "perm:[(1 2), (1 " + "9" * 5000 + ")]")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak


def test_dimension_cap_raises_before_allocating():
    # 4,000 nines per multiplicity: dimensions of 12,000 digits, which no
    # output could print. Tensor and sum results are capped the same way.
    t = table_for("symmetric:3")
    nines = "9" * 4000
    big = f"mult:[{10**6},{10**6},{10**6}]"
    tracemalloc.start()
    try:
        for spec in (f"mult:[{nines},{nines},{nines}]", f"char:[{nines},{nines},{nines}]",
                     f"tensor({big},{big})", f"dsum(mult:[{MAX_REP_DIM},0,0],trivial)"):
            with pytest.raises(SpecError, match="exceeds the cap"):
                parse_rep_spec(t, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200_000, peak
    assert parse_rep_spec(t, f"mult:[{MAX_REP_DIM},0,0]").dim == MAX_REP_DIM


def _nested(head: str, depth: int) -> str:
    return f"{head}(trivial, " * depth + "regular" + ")" * depth


def test_spec_nesting_is_capped_before_recursing():
    # At the cap both heads parse; one level more is refused before the
    # recursion that would exhaust the interpreter's stack.
    t = table_for("cyclic:2")
    assert MAX_SPEC_DEPTH == 100
    assert parse_rep_spec(t, _nested("dsum", MAX_SPEC_DEPTH)).mults == (MAX_SPEC_DEPTH + 1, 1)
    assert parse_rep_spec(t, _nested("tensor", MAX_SPEC_DEPTH)).mults == (1, 1)
    for head in ("dsum", "tensor"):
        for depth in (MAX_SPEC_DEPTH + 1, 500, 5000):
            with pytest.raises(SpecError, match=f"nests deeper than {MAX_SPEC_DEPTH} levels"):
                parse_rep_spec(t, _nested(head, depth))


def test_pi_injectivity_tracks_support():
    t = table_for("symmetric:3")
    assert is_pi_injective(regular_rep(t))
    assert is_pi_injective(rep_from_mults(t, (1, 1, 1)))
    assert not is_pi_injective(trivial_rep(t))
    assert not is_pi_injective(rep_from_mults(t, (1, 0, 1)))


def test_rep_from_character_matches_perm_construction():
    t = table_for("perm:[(1 2 3), (1 2)(3 4)]")
    natural = parse_rep_spec(t, "perm:[(1 2 3), (1 2)(3 4)]")
    vals = natural.character()
    again = rep_from_character(t, vals)
    assert again.mults == natural.mults
    assert natural.dim == 4



def _two_pass_perm_rep(table: CharTable, images) -> tuple[int, ...]:
    """perm_rep's multiplicities by the two-pass route: extend the images
    along breadth-first parents recomputed from the group's generators, then
    recheck every (element, generator) product."""
    g = table.group
    parent, reached = {0: None}, [0]
    for x in reached:
        for t, s in enumerate(g.generators):
            y = g.mul(x, s)
            if y not in parent:
                parent[y] = (x, t)
                reached.append(y)
    npoints = max(len(p) for p in images)
    images = [tuple(p) + tuple(range(len(p), npoints)) for p in images]

    def compose(p, q):
        return tuple(p[q[x]] for x in range(len(p)))

    perm_of = {0: tuple(range(npoints))}
    for y in reached[1:]:
        x, t = parent[y]
        perm_of[y] = compose(perm_of[x], images[t])
    for x in range(g.order):
        for t, s in enumerate(g.generators):
            if perm_of[g.mul(x, s)] != compose(perm_of[x], images[t]):
                raise VerificationError(
                    "generator images do not extend to a homomorphism; "
                    f"relation fails at element {g.label(x)!r} and generator {t}"
                )
    fixed = [sum(1 for i, q in enumerate(perm_of[r]) if q == i)
             for r in table.classes.representatives]
    return decompose(table, [Cyclo.from_rational(f) for f in fixed])


# Generator images that define a homomorphism, besides the trivial ones.
_HOMOMORPHISMS = {
    "symmetric:4": [[(1, 0, 2, 3), (1, 2, 3, 0)], [(1, 0), (1, 0)], [(1, 0), (0, 1)]],
    "dihedral:6": [[(1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1)], [(0, 1), (1, 0)]],
    "perm:[(1 2 3),(1 2)(3 4)]": [[(1, 2, 0, 3), (1, 0, 3, 2)], [(1, 2, 0), (0, 1, 2)]],
    "perm:[(1 2 3 4)(5 6 7 8),(1 5 3 7)(2 8 4 6)]": [
        [(1, 2, 3, 0, 5, 6, 7, 4), (4, 7, 6, 5, 2, 1, 0, 3)], [(1, 0), (0, 1)], [(1, 0), (1, 0)],
    ],
}


@pytest.mark.parametrize("spec", sorted(_HOMOMORPHISMS))
def test_perm_rep_matches_the_two_pass_check(spec):
    t = table_for(spec)
    rng = random.Random(spec)
    ngens = len(t.group.generators)
    cases = [[()] * ngens, *_HOMOMORPHISMS[spec]]
    for _ in range(40):
        n = rng.randint(1, 6)
        cases.append([rng.sample(range(n), n) for _ in range(ngens)])
    homomorphisms = failures = 0
    for images in cases:
        try:
            expected = _two_pass_perm_rep(t, images)
        except VerificationError as exc:
            with pytest.raises(VerificationError) as info:
                perm_rep(t, images)
            assert str(info.value) == str(exc)
            failures += 1
        else:
            assert perm_rep(t, images).mults == expected
            homomorphisms += 1
    assert homomorphisms > len(_HOMOMORPHISMS[spec]) and failures > 0

# ---------------------------------------------------------------------------
# `decompose` as it was before the rebuild of the character was dropped: the
# inner products and then the reconstruction, class by class. Kept verbatim
# (renamed `_rebuild_decompose`) as the oracle for the inner products alone.


def _rebuild_decompose(table: CharTable, values) -> tuple[int, ...]:
    """Multiplicity of each irreducible in a class function, exactly.

    Raises VerificationError unless the input is a nonnegative integer
    combination of the table rows that reconstructs the input on the nose.
    """
    values = tuple(values)
    if len(values) != table.count:
        raise VerificationError(
            f"class function has {len(values)} values, expected {table.count}"
        )
    n = table.group.order
    sizes = table.classes.sizes
    mults = []
    for i in range(table.count):
        acc = Cyclo.from_rational(0)
        for j in range(table.count):
            acc = acc + values[j] * table.values[i][j].conj() * sizes[j]
        q = acc.as_rational()
        if q is None:
            raise VerificationError(
                f"inner product with {table.labels[i]} is not rational"
            )
        m = Fraction(q, n)
        if m.denominator != 1 or m < 0:
            raise VerificationError(
                f"multiplicity of {table.labels[i]} is {m}, not a nonnegative integer"
            )
        mults.append(int(m))
    for j in range(table.count):
        acc = Cyclo.from_rational(0)
        for i, m in enumerate(mults):
            if m:
                acc = acc + table.values[i][j] * m
        if acc != values[j]:
            raise VerificationError(
                "class function is not a character: reconstruction differs "
                f"on class {j}"
            )
    return tuple(mults)


def _both_decompose(t, values):
    """The outcomes of decompose and of the rebuilding reference: the
    multiplicities, or "raised" for a VerificationError."""
    out = []
    for f in (decompose, _rebuild_decompose):
        try:
            out.append(f(t, values))
        except VerificationError:
            out.append("raised")
    return out


ORACLE_POOL = POOL + ["cyclic:12", "dihedral:7", "perm:[(1 2 3 4)(5 6 7 8), (1 5 3 7)(2 8 4 6)]"]


def test_decompose_matches_the_reference_on_random_characters():
    rng = random.Random(20261018)
    for _ in range(120):
        t = table_for(rng.choice(ORACLE_POOL))
        mults = tuple(rng.randrange(0, 4) for _ in range(t.count))
        assert _both_decompose(t, rep_from_mults(t, mults).character()) == [mults, mults]


def test_decompose_and_the_reference_reject_the_same_class_functions():
    rng = random.Random(20261019)
    for spec in ("symmetric:4", "cyclic:12", "dihedral:7"):
        t = table_for(spec)
        z = zeta(t.zeta_order)
        for _ in range(40):
            i = rng.randrange(t.count)
            chi = rep_from_mults(t, tuple(rng.randrange(0, 3) for _ in range(t.count))).character()
            row = t.values[i]
            bad = {
                "fractional": [v + x * Fraction(1, 2) for v, x in zip(chi, row)],
                "negative": [v - x * 3 for v, x in zip(chi, row)],
                "irrational": [v + x * z for v, x in zip(chi, row)],
            }
            for kind, values in bad.items():
                assert _both_decompose(t, values) == ["raised", "raised"], (spec, kind)


# ---------------------------------------------------------------------------
# `decompose` as it was before it summed integer terms: one Cyclo product,
# reduced mod Phi_N, per class of each inner product, with the weights
# conj(chi_ij) |C_j| as Cyclo values. Kept verbatim but for its docstring
# (renamed `_reference_decompose`), except that the weights, which
# `CharTable.weights` now holds as integer terms, are built by
# `_reference_weights`, the body of the old cached property.


def _reference_weights(table: CharTable) -> tuple[tuple[Cyclo, ...], ...]:
    sizes = table.classes.sizes
    return tuple(tuple(v.conj() * s for v, s in zip(row, sizes)) for row in table.values)


def _reference_decompose(table: CharTable, values) -> tuple[int, ...]:
    values = tuple(values)
    if len(values) != table.count:
        raise VerificationError(
            f"class function has {len(values)} values, expected {table.count}"
        )
    n = table.group.order
    mults = []
    for label, w in zip(table.labels, _reference_weights(table)):
        acc = sum((f * x for f, x in zip(values, w)), Cyclo.from_rational(0))
        q = acc.as_rational()
        if q is None:
            raise VerificationError(f"inner product with {label} is not rational")
        m = Fraction(q, n)
        if m.denominator != 1 or m < 0:
            raise VerificationError(
                f"multiplicity of {label} is {m}, not a nonnegative integer"
            )
        mults.append(int(m))
    return tuple(mults)


def _outcome(f, t, values):
    """f(t, values), or the message of the VerificationError it raises."""
    try:
        return f(t, values)
    except VerificationError as exc:
        return str(exc)


@st.composite
def _class_functions(draw):
    """A table and a class function on it: an integer combination of its
    rows, some coefficients negative, plus a few terms q zeta_c^k with
    fractional q and conductors foreign to the table, and every value
    embedded at a multiple of its conductor."""
    t = table_for(draw(st.sampled_from(HYPOTHESIS_POOL)))
    coeffs = draw(st.lists(st.integers(-2, 3), min_size=t.count, max_size=t.count))
    values = [sum((row[j] * c for c, row in zip(coeffs, t.values) if c), Cyclo.from_rational(0))
              for j in range(t.count)]
    for _ in range(draw(st.integers(0, 2))):
        j = draw(st.integers(0, t.count - 1))
        c = draw(st.sampled_from([1, 2, 3, 4, 5, 8, 12]))
        q = draw(st.fractions(-3, 3, max_denominator=4).filter(bool))
        values[j] = values[j] + zeta(c, draw(st.integers(0, c - 1))) * q
    return t, [v.to_conductor(v.conductor * draw(st.sampled_from([1, 2, 3, 5]))) for v in values]


HYPOTHESIS_POOL = ["symmetric:3", "cyclic:6", "dihedral:5", "cyclic:12",
                   "perm:[(1 2 3), (1 2)(3 4)]", "perm:[(1 2 3 4)(5 6 7 8), (1 5 3 7)(2 8 4 6)]"]


@settings(max_examples=200, deadline=None)
@given(_class_functions())
def test_decompose_matches_the_cyclo_inner_products(case):
    t, values = case
    assert _outcome(decompose, t, values) == _outcome(_reference_decompose, t, values)


def test_decompose_reduces_once_per_multiplicity(monkeypatch):
    t = character_table(construct_group("dihedral:60"))
    t.weights  # cached before counting
    mults = tuple(range(t.count))
    values = rep_from_mults(t, mults).character()
    calls = []
    real = cyclo._reduce_mod_phi
    monkeypatch.setattr(cyclo, "_reduce_mod_phi", lambda c, n: calls.append(n) or real(c, n))
    assert decompose(t, values) == mults
    assert 0 < len(calls) <= t.count


# ---------------------------------------------------------------------------
# `tensor` as it was before it decomposed one product character: the sum over
# pairs of rows of the decomposed row products, each decomposed once. Kept
# verbatim (renamed `_reference_tensor`), except that the memo of row products
# lives for one call instead of on the table.


def _reference_fusion(table: CharTable, i: int, j: int, memo: dict) -> tuple[int, ...]:
    """Row i tensor row j, decomposed once per table and unordered pair."""
    key = (i, j) if i <= j else (j, i)
    if key not in memo:
        values = [table.values[i][c] * table.values[j][c] for c in range(table.count)]
        memo[key] = decompose(table, values)
    return memo[key]


def _reference_tensor(a: Rep, b: Rep, name: str = "") -> Rep:
    if a.table is not b.table and a.table != b.table:
        raise SpecError("tensor operands must share a character table")
    memo: dict = {}
    out = [0] * a.table.count
    for i, mi in enumerate(a.mults):
        if not mi:
            continue
        for j, mj in enumerate(b.mults):
            if not mj:
                continue
            for k, nk in enumerate(_reference_fusion(a.table, i, j, memo)):
                out[k] += mi * mj * nk
    return Rep(a.table, tuple(out), name)


def test_tensor_matches_the_reference():
    for spec in ORACLE_POOL:
        t = table_for(spec)
        reg = regular_rep(t)
        assert tensor(reg, reg) == _reference_tensor(reg, reg)
    rng = random.Random(20261020)
    for _ in range(60):
        t = table_for(rng.choice(ORACLE_POOL))
        a, b = (rep_from_mults(t, tuple(rng.randrange(0, 3) for _ in range(t.count)))
                for _ in range(2))
        assert tensor(a, b) == _reference_tensor(a, b)


def test_operands_on_different_tables_are_refused():
    a, b = regular_rep(table_for("cyclic:3")), regular_rep(table_for("symmetric:3"))
    with pytest.raises(SpecError, match=r"^tensor operands must share a character table$"):
        tensor(a, b)
    with pytest.raises(SpecError, match=r"^direct sum operands must share a character table$"):
        dsum(a, b)


# ---------------------------------------------------------------------------
# `Rep.character` as it was before it summed the table's integer terms: a
# Cyclo sum per class of the rows scaled by their multiplicities. Kept
# verbatim as a function of the rep (renamed `_reference_character`), with
# its sum and `scale` on the arithmetic oracles of test_cyclo.


def _reference_character(rep: Rep) -> tuple[Cyclo, ...]:
    vals = []
    for j in range(rep.table.count):
        acc = Cyclo.from_rational(0)
        for i, m in enumerate(rep.mults):
            if m:
                acc = _reference_add(acc, _reference_scale(rep.table.values[i][j], m))
        vals.append(acc)
    return tuple(vals)


@pytest.mark.parametrize("spec", list(dict.fromkeys(ALL_SMALL_SPECS + PIPELINE_SPECS)))
def test_character_matches_the_cyclo_sum(spec):
    t = table_for(spec)
    rng = random.Random(f"character {spec}")
    cases = [(0,) * t.count, t.dims] + [tuple(rng.randrange(0, 4) for _ in range(t.count))
                                        for _ in range(4)]
    for mults in cases:
        got, want = rep_from_mults(t, mults).character(), _reference_character(rep_from_mults(t, mults))
        assert got == want, (spec, mults)
        assert [v.text() for v in got] == [v.text() for v in want], (spec, mults)


def test_character_matches_the_cyclo_sum_on_fractional_rows():
    # A verified table has integer coefficients, so every row's D_i is 1;
    # rows scaled by 1/2, 1/3, ... exercise the common denominator.
    t = table_for("cyclic:6")
    t = t._replace(values=tuple(tuple(v * Fraction(1, i + 2) for v in row)
                                for i, row in enumerate(t.values)))
    rng = random.Random(20261020)
    for _ in range(20):
        rep = Rep(t, tuple(rng.randrange(0, 4) for _ in range(t.count)))
        assert [v.text() for v in rep.character()] == [v.text() for v in _reference_character(rep)]


def test_a_table_builds_its_integer_terms_once(monkeypatch):
    calls = []
    real = chartable._integer_terms
    monkeypatch.setattr(chartable, "_integer_terms", lambda values: calls.append(values) or real(values))
    tables = [character_table(construct_group(spec)) for spec in ("symmetric:4", "dihedral:12")]
    tables.append(chartable.load_table(chartable.format_table(tables[0])))
    for t in tables:
        reg = regular_rep(t)
        assert decompose(t, reg.character()) == t.dims
        assert tensor(reg, reg).dim == t.group.order ** 2
        assert rep_from_mults(t, (0,) * t.count).character() == (0,) * t.count
    assert len(calls) == len(tables)
    assert all(values is t.values for values, t in zip(calls, tables))
