"""Operations that only the tests use, kept out of the package so that no run
of it compiles them: a matrix from dense rows of a given shape, integer
matrix products, transposes and column deletion, the abelian test on a
group's generators, powers and orders of a group element, and a cyclotomic
number from its coefficient list."""

from fractions import Fraction
from math import lcm
from operator import mul

from repcorr.cyclo import Cyclo
from repcorr.errors import SpecError
from repcorr.groups import Group
from repcorr.intlinalg import IntMatrix


def dense_matrix(rows: int, cols: int, entries) -> IntMatrix:
    """The rows x cols matrix with the dense rows entries. Unlike
    IntMatrix.from_rows, it keeps cols when there are no rows."""
    nz = tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in entries)
    return IntMatrix(rows, cols, nz)


def matmul(first: IntMatrix, *rest: IntMatrix) -> IntMatrix:
    """The product first * rest[0] * rest[1] * ..."""
    for other in rest:
        if first.cols != other.rows:
            raise SpecError(
                f"cannot multiply {first.rows}x{first.cols} by {other.rows}x{other.cols}"
            )
        cols = tuple(zip(*other.entries)) or ((),) * other.cols
        out = tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in first.entries)
        first = dense_matrix(first.rows, other.cols, out)
    return first


def transpose(a: IntMatrix) -> IntMatrix:
    return dense_matrix(
        a.cols, a.rows, tuple(tuple(a.entries[i][j] for i in range(a.rows)) for j in range(a.cols))
    )


def delete_columns(a: IntMatrix, drop: set[int]) -> IntMatrix:
    keep = [j for j in range(a.cols) if j not in drop]
    return dense_matrix(a.rows, len(keep), tuple(tuple(row[j] for j in keep) for row in a.entries))


def is_abelian(g: Group) -> bool:
    """True when the generators commute pairwise, which holds exactly when
    the group they generate is abelian."""
    gens = g.generators
    return all(g.mul(a, b) == g.mul(b, a) for a in gens for b in gens)


def power(g: Group, a: int, k: int) -> int:
    """a^k in g, by k multiplications from the identity."""
    x = 0
    for _ in range(k):
        x = g.mul(x, a)
    return x


def element_order(g: Group, a: int) -> int:
    """The least k >= 1 with a^k the identity, by k - 1 multiplications."""
    k, x = 1, a
    while x != 0:
        x = g.mul(x, a)
        k += 1
    return k


def cyclo_from_coeffs(conductor: int, coeffs: list[Fraction | int]) -> Cyclo:
    """sum_k coeffs[k] * zeta_conductor^k."""
    coeffs = [Fraction(c) for c in coeffs]
    den = lcm(*(c.denominator for c in coeffs))
    return Cyclo._from_terms(conductor, ((k, c.numerator * (den // c.denominator))
                                         for k, c in enumerate(coeffs) if c), den)
