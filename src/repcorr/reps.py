"""Finite-dimensional representations described by their characters.

A representation here is a multiplicity vector over the irreducible rows of a
character table; that is exactly the data the correspondence and graph layers
need. Constructors cover the trivial and regular representations, permutation
actions given by generator images, explicit multiplicity vectors and explicit
character value lists; `tensor` and `dsum` combine them. `decompose` inverts
a character exactly and refuses anything that is not a genuine character.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .chartable import CharTable, _integer_terms
from .cyclo import Cyclo, parse_cyclo
from .errors import SpecError, VerificationError
from .groups import _bracket_items, _compose, _int_list, _split_top_level, parse_cycles
from .record import record

__all__ = [
    "MAX_REP_DIM",
    "MAX_SPEC_DEPTH",
    "Rep",
    "trivial_rep",
    "regular_rep",
    "perm_rep",
    "rep_from_mults",
    "rep_from_character",
    "decompose",
    "tensor",
    "dsum",
    "is_pi_injective",
    "parse_rep_spec",
]


# A representation's dimension times the largest degree bounds every edge
# count the graphs build from it, and the edge counts bound the K-group
# torsion through Hadamard's inequality. Capping the dimension keeps those
# integers far below the 4,300 digits Python will print.
MAX_REP_DIM = 10**12

# tensor(...) and dsum(...) specs are parsed recursively, a few interpreter
# frames per level, so their nesting is capped far below the recursion limit.
MAX_SPEC_DEPTH = 100


@record
class Rep:
    """A representation recorded as irreducible multiplicities."""

    table: CharTable
    mults: tuple[int, ...]
    name: str = ""

    def __post_init__(self):
        if self.dim > MAX_REP_DIM:
            raise SpecError(f"representation dimension exceeds the cap of {MAX_REP_DIM:,}")

    @property
    def dim(self) -> int:
        return sum(m * d for m, d in zip(self.mults, self.table.dims))

    def character(self) -> tuple[Cyclo, ...]:
        """sum_i m_i chi_i, one `Cyclo._from_terms` call per class on the
        table's integer terms (`CharTable.terms`): with D the lcm of the D_i
        of the rows that occur, D chi(g_j) = sum_i m_i (D / D_i) D_i chi_ij."""
        big_n, dens, index, terms = self.table.terms
        den = lcm(*(d for m, d in zip(self.mults, dens) if m))
        used = [(m * (den // d), row) for m, d, row in zip(self.mults, dens, index) if m]
        return tuple(Cyclo._from_terms(big_n, ((k, c * f) for f, row in used for k, c in terms[row[j]]),
                                       den) for j in range(self.table.count))

    def renamed(self, name: str) -> "Rep":
        return self._replace(name=name)


def trivial_rep(table: CharTable, name: str = "trivial") -> Rep:
    mults = (1,) + (0,) * (table.count - 1)
    return Rep(table, mults, name)


def regular_rep(table: CharTable, name: str = "regular") -> Rep:
    return Rep(table, table.dims, name)


def rep_from_mults(table: CharTable, mults, name: str = "") -> Rep:
    mults = tuple(int(m) for m in mults)
    if len(mults) != table.count:
        raise SpecError(
            f"expected {table.count} multiplicities, got {len(mults)}"
        )
    if any(m < 0 for m in mults):
        raise SpecError("multiplicities must be nonnegative")
    return Rep(table, mults, name)


def decompose(table: CharTable, values) -> tuple[int, ...]:
    """Multiplicity of each irreducible in a class function, exactly.

    The multiplicities are the inner products m_i = (1/n) sum_j f_j W[i][j]
    with the table's weights W = S X* (`CharTable.weights`). Raises
    VerificationError unless each one is a nonnegative integer.

    Then f is the character sum_i m_i chi_i, with no rebuild to compare:
    every `CharTable` the package builds has passed `verify_table`, so
    X S X* = n I and S X*/n is the inverse of the square X. Hence
    c = f S X*/n gives c X = f (S X* X)/n = f for every class function f,
    in any cyclotomic field containing both.

    Each inner product is summed on integer terms in Q(zeta_L), L the lcm
    of the conductors of f and of the table. A product of two terms is one
    term with the exponents added, so the terms of every f_j W[i][j] go
    into one accumulator, read mod L, that `Cyclo._from_terms` reduces mod
    Phi_L once. The reduced form is unique, so rationality reads the same
    as off a sum of reduced products.
    """
    values = tuple(values)
    if len(values) != table.count:
        raise VerificationError(
            f"class function has {len(values)} values, expected {table.count}"
        )
    n = table.group.order
    wn, rows = table.weights
    fn, (fden,), (findex,), fterms = _integer_terms([values])
    big_n = lcm(wn, fn)
    fs, ws = big_n // fn, big_n // wn
    fcells = [[(a * fs, x) for a, x in fterms[c]] for c in findex]
    mults = []
    for label, (d, cells) in zip(table.labels, rows):
        acc = Cyclo._from_terms(big_n, ((a + b * ws, x * y) for fcell, cell in zip(fcells, cells)
                                        for b, y in cell for a, x in fcell), fden * d)
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


def rep_from_character(table: CharTable, values, name: str = "") -> Rep:
    return Rep(table, decompose(table, values), name)


def perm_rep(table: CharTable, images, name: str = "") -> Rep:
    """Representation by permutation matrices, given images of the group
    generators as permutations of {0,...,N-1}.

    One pass over the elements in index order maps each product x*g_t to
    rho(x) . p_t. The group numbers its elements in breadth-first discovery
    order, so the first visit to an element is its discovery edge and fixes
    its image; every later visit must give the same image, so a spec that
    does not define a homomorphism is rejected rather than silently accepted.
    """
    g = table.group
    if len(images) != len(g.generators):
        raise SpecError(
            f"group has {len(g.generators)} generators, got {len(images)} images"
        )
    npoints = max((len(p) for p in images), default=0)
    images = [tuple(p) + tuple(range(len(p), npoints)) for p in images]
    for p in images:
        if sorted(p) != list(range(npoints)):
            raise SpecError(f"generator image {p} is not a permutation")

    perm_of: list[tuple[int, ...] | None] = [None] * g.order
    perm_of[0] = tuple(range(npoints))
    for x in range(g.order):
        for t, gen in enumerate(g.generators):
            y = g.mul(x, gen)
            image = _compose(perm_of[x], images[t])
            if perm_of[y] is None:
                perm_of[y] = image
            elif perm_of[y] != image:
                raise VerificationError(
                    "generator images do not extend to a homomorphism; "
                    f"relation fails at element {g.label(x)!r} and generator {t}"
                )
    values = []
    for rep_elt in table.classes.representatives:
        fixed = sum(1 for i, q in enumerate(perm_of[rep_elt]) if q == i)
        values.append(Cyclo.from_rational(fixed))
    return Rep(table, decompose(table, values), name)


def tensor(a: Rep, b: Rep, name: str = "") -> Rep:
    """The tensor product, decomposed once from the product character."""
    if a.table is not b.table and a.table != b.table:
        raise SpecError("tensor operands must share a character table")
    values = [x * y for x, y in zip(a.character(), b.character())]
    return Rep(a.table, decompose(a.table, values), name)


def dsum(a: Rep, b: Rep, name: str = "") -> Rep:
    if a.table is not b.table and a.table != b.table:
        raise SpecError("direct sum operands must share a character table")
    return Rep(a.table, tuple(x + y for x, y in zip(a.mults, b.mults)), name)


def is_pi_injective(rep: Rep) -> bool:
    """True when every irreducible occurs, i.e. the left action of the group
    algebra on the associated bimodule has trivial kernel."""
    return all(m > 0 for m in rep.mults)


# ---------------------------------------------------------------------------
# rep spec grammar


def parse_rep_spec(table: CharTable, text: str, name: str = "") -> Rep:
    """Build a representation from a spec string.

    Grammar:
        trivial | regular
        | perm:[<cycles>, <cycles>, ...]     one image per group generator
        | mult:[m0,m1,...]                   multiplicity per table row
        | char:[v0, v1, ...]                 character values per class
        | tensor(spec, spec, ...)            tensor product
        | dsum(spec, spec, ...)              direct sum

    tensor and dsum nest at most MAX_SPEC_DEPTH levels.
    """
    rep = _parse(table, text.strip())
    return rep.renamed(name) if name else rep


def _parse(table: CharTable, text: str, depth: int = 1) -> Rep:
    if text == "trivial":
        return trivial_rep(table)
    if text == "regular":
        return regular_rep(table)
    if text.startswith("perm:"):
        parts = _bracket_items(text[5:], text)
        return perm_rep(table, [parse_cycles(part) for part in parts], name=text)
    if text.startswith("mult:"):
        return rep_from_mults(table, _int_list(text[5:], text), name=text)
    if text.startswith("char:"):
        parts = _bracket_items(text[5:], text)
        values = [parse_cyclo(part, table.zeta_order) for part in parts]
        return rep_from_character(table, values, name=text)
    for head, op in (("tensor", tensor), ("dsum", dsum)):
        if text.startswith(head + "(") and text.endswith(")"):
            if depth > MAX_SPEC_DEPTH:
                raise SpecError(f"representation spec nests deeper than {MAX_SPEC_DEPTH} levels")
            parts = _split_top_level(text[len(head) + 1 : -1], text)
            if len(parts) < 2:
                raise SpecError(f"{head} needs at least two operands: {text!r}")
            reps = [_parse(table, part, depth + 1) for part in parts]
            acc = reps[0]
            for nxt in reps[1:]:
                acc = op(acc, nxt)
            return acc.renamed(text)
    raise SpecError(f"bad representation spec {text!r}")

