"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored in conductor N's power basis {1, z, ..., z^(phi(N)-1)}
after reduction mod the N-th cyclotomic polynomial, with rational
coefficients. Internally a Cyclo keeps an integer numerator vector plus one
common positive denominator.

Every value, whether a rational, a coefficient list, a root of unity, a
parsed text, an embedding into a larger conductor, a complex conjugate, a
sum or a product, is formed by one constructor, `Cyclo._from_terms`, from
exponent/coefficient pairs: exponents are read mod N, the integer
coefficients are summed into one list, reduced mod Phi_N and to lowest
terms once. A sum or a product lifts each operand's terms to Q(zeta_lcm)
first, so conductors mix everywhere; a product of two terms is one term
with the exponents added, and a rational multiple is a product with a
rational. Only negation builds a record directly: the negated numerators of
a reduced value are still reduced. Phi_N itself is the Moebius product
of the binomials 1 - x^d over the divisors d of N, formed mod
x^(phi(N)+1) (see `cyclotomic_polynomial`).

The conductor is capped, in that constructor, so a buggy caller cannot
request a gigantic field by accident.
"""

from __future__ import annotations

import cmath
import re
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm, prod

from .errors import SpecError, too_long
from .record import record

__all__ = [
    "Cyclo",
    "CONDUCTOR_CAP",
    "cyclotomic_polynomial",
    "zeta",
    "parse_cyclo",
]

CONDUCTOR_CAP = 10**6


@lru_cache(maxsize=None)
def _factor(n: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of n > 0, primes increasing, found by
    trial division up to sqrt(n)."""
    out, q = [], 2
    while q * q <= n:
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        if e:
            out.append((q, e))
        q += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@lru_cache(maxsize=None)
def _phi(n: int) -> int:
    """Euler's phi(n), the product of q^(e-1) (q - 1) over the prime powers
    q^e that exactly divide n."""
    return prod(q ** (e - 1) * (q - 1) for q, e in _factor(n))


def _mobius(n: int) -> int:
    f = _factor(n)
    return 0 if any(e > 1 for _, e in f) else (-1) ** len(f)


@lru_cache(maxsize=None)
def _trace_weights(n: int) -> tuple[Fraction, ...]:
    """Tr(z^k) / phi(n) for each power-basis exponent k < phi(n) of Q(zeta_n).

    Tr(zeta_n^k) is the Ramanujan sum c_n(k) = mu(m) phi(n) / phi(m) with
    m = n / gcd(k, n), so the weight is mu(m) / phi(m).
    """
    return tuple(Fraction(_mobius(n // gcd(k, n)), _phi(n // gcd(k, n))) for k in range(_phi(n)))


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, constant term first, monic.

    Moebius inversion of x^n - 1 = prod_{d|n} Phi_d(x) gives
    Phi_n = prod_{d|n} (x^d - 1)^mu(n/d). For n > 1 the exponents mu(n/d)
    sum to 0, so the signs cancel and Phi_n = prod_{d|n} (1 - x^d)^mu(n/d).
    Each 1 - x^d is a unit of Z[[x]] with inverse sum_t x^(dt), and
    truncation mod x^m is a ring map Z[[x]] -> Z[x]/(x^m). So with
    m = phi(n) + 1 the product can be formed mod x^m: multiply by 1 - x^d
    for each d with mu(n/d) = 1, then divide by 1 - x^d, which is adding
    x^d times the running result from the bottom up, for each d with
    mu(n/d) = -1. Phi_n has degree phi(n) < m, so the truncation is Phi_n
    itself, and a binomial with d >= m is 1 mod x^m. That is phi(n) + 1
    coefficients and a pass over them per divisor, in place of a long
    division of x^n - 1 by every Phi_d (Arnold and Monagan, Math. Comp. 80
    (2011)).
    """
    if n < 1:
        raise SpecError(f"conductor must be positive, got {n}")
    if n == 1:
        return (-1, 1)
    m = _phi(n) + 1
    out = [1] + [0] * (m - 1)
    divisors = [d for d in range(1, m) if n % d == 0]
    for d in divisors:
        if _mobius(n // d) == 1:
            for i in range(m - 1, d - 1, -1):
                out[i] -= out[i - d]
    for d in divisors:
        if _mobius(n // d) == -1:
            for i in range(d, m):
                out[i] += out[i - d]
    return tuple(out)


def _reduce_mod_phi(coeffs: list[int], n: int) -> tuple[int, ...]:
    """coeffs (constant term first, changed in place) reduced mod Phi_n,
    padded to phi(n) entries. x^phi = -sum_j a_j x^j over the nonzero
    coefficients a_j of Phi_n below its leading one, so only those are read."""
    phi = _phi(n)
    if len(coeffs) > phi:
        low = [(j, a) for j, a in enumerate(cyclotomic_polynomial(n)[:phi]) if a]
        for i in range(len(coeffs) - 1, phi - 1, -1):
            c = coeffs[i]
            if c:
                for j, a in low:
                    coeffs[i - phi + j] -= c * a
        del coeffs[phi:]
    return tuple(coeffs) + (0,) * (phi - len(coeffs))


@record
class Cyclo:
    """One element of Q(zeta_conductor), normalized."""

    conductor: int
    nums: tuple[int, ...]
    den: int

    @staticmethod
    def _from_terms(conductor: int, terms, den: int) -> "Cyclo":
        """sum c z^k / den over the (k, c) terms, with integer c, any integer
        k, read mod the conductor, and den > 0. The one constructor of a
        value: the terms are summed into one list, reduced mod Phi_N and to
        lowest terms once. Also the one conductor-cap check of the class."""
        if conductor > CONDUCTOR_CAP:
            raise SpecError(f"conductor {conductor} exceeds cap {CONDUCTOR_CAP}")
        nums: list[int] = []
        for k, c in terms:
            k %= conductor
            if k >= len(nums):
                nums += [0] * (k + 1 - len(nums))
            nums[k] += c
        nums = _reduce_mod_phi(nums, conductor)
        g = gcd(den, *nums)
        if g > 1:
            nums, den = tuple(x // g for x in nums), den // g
        return Cyclo(conductor, nums, den)

    @staticmethod
    def from_rational(value: Fraction | int) -> "Cyclo":
        value = Fraction(value)
        return Cyclo._from_terms(1, [(0, value.numerator)], value.denominator)

    def _terms(self, step: int = 1, f: int = 1):
        """The nonzero terms (k, c) of den * self, lifted to conductor
        step * N (zeta_N = zeta_(step N)^step) and with each c times f."""
        return ((k * step, c * f) for k, c in enumerate(self.nums) if c)

    def to_conductor(self, n: int) -> "Cyclo":
        """Embed into Q(zeta_n); n must be a multiple of the conductor."""
        if n == self.conductor:
            return self
        if n % self.conductor != 0:
            raise SpecError(
                f"cannot embed conductor {self.conductor} element into Q(zeta_{n})"
            )
        return Cyclo._from_terms(n, self._terms(n // self.conductor), self.den)

    @staticmethod
    def _coerce(value) -> "Cyclo | None":
        if isinstance(value, Cyclo):
            return value
        if isinstance(value, (int, Fraction)):
            return Cyclo.from_rational(value)
        return None

    def __add__(self, other) -> "Cyclo":
        other = Cyclo._coerce(other)
        if other is None:
            return NotImplemented
        n, den = lcm(self.conductor, other.conductor), lcm(self.den, other.den)
        return Cyclo._from_terms(n, chain(self._terms(n // self.conductor, den // self.den),
                                          other._terms(n // other.conductor, den // other.den)), den)

    __radd__ = __add__

    def __neg__(self) -> "Cyclo":
        return Cyclo(self.conductor, tuple(-x for x in self.nums), self.den)

    def __sub__(self, other) -> "Cyclo":
        other = Cyclo._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Cyclo":
        other = Cyclo._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Cyclo":
        """A product of two terms is one term with the exponents added."""
        other = Cyclo._coerce(other)
        if other is None:
            return NotImplemented
        n = lcm(self.conductor, other.conductor)
        b = list(other._terms(n // other.conductor))
        return Cyclo._from_terms(n, ((k + l, c * d) for k, c in self._terms(n // self.conductor)
                                     for l, d in b), self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        other = Cyclo._coerce(other)
        if other is None:
            return NotImplemented
        n = lcm(self.conductor, other.conductor)
        a, b = self.to_conductor(n), other.to_conductor(n)
        return a.nums == b.nums and a.den == b.den

    def __hash__(self) -> int:
        # The normalised trace Tr/phi(N) is exact, and embedding into a larger
        # conductor multiplies Tr by the degree of the extension, so values
        # that compare equal at different conductors hash equal.
        weights = _trace_weights(self.conductor)
        return hash(sum((c * w for c, w in zip(self.nums, weights) if c), Fraction(0)) / self.den)

    def conj(self) -> "Cyclo":
        """Complex conjugate, i.e. zeta -> zeta^(N-1)."""
        return Cyclo._from_terms(self.conductor, ((-k, c) for k, c in self._terms()), self.den)

    def as_rational(self) -> Fraction | None:
        if any(self.nums[1:]):
            return None
        return Fraction(self.nums[0] if self.nums else 0, self.den)

    def as_integer(self) -> int | None:
        q = self.as_rational()
        if q is None or q.denominator != 1:
            return None
        return q.numerator

    def embed(self) -> complex:
        """Numerical value under zeta_N -> exp(2*pi*i/N)."""
        z = cmath.exp(2j * cmath.pi / self.conductor)
        total = 0j
        p = 1 + 0j
        for c in self.nums:
            total += c * p
            p *= z
        return total / self.den

    def __repr__(self) -> str:
        return f"Cyclo({self.conductor}, {self.text()!r})"

    def text(self) -> str:
        """Render as `c0 + c1*z + c2*z^2 + ...`, omitting zero terms."""
        parts: list[str] = []
        for k, x in self._terms():
            g = gcd(x, self.den)
            mag = str(abs(x) // g) + ("" if g == self.den else f"/{self.den // g}")
            if k == 0:
                body = mag
            else:
                zpow = "z" if k == 1 else f"z^{k}"
                body = zpow if mag == "1" else f"{mag}*{zpow}"
            if not parts:
                parts.append(body if x > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if x > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"


def zeta(n: int, k: int = 1) -> Cyclo:
    """zeta_n^k as an exact element of Q(zeta_n)."""
    if n < 1:
        raise SpecError(f"conductor must be positive, got {n}")
    return Cyclo._from_terms(n, [(k, 1)], 1)


_TERM_RE = re.compile(
    r"""^(?:
        (?P<coef>-?\d+(?:/\d+)?)(?:\*(?P<zc>z(?:\^(?P<kc>\d+))?))?
        |
        (?P<z>z(?:\^(?P<k>\d+))?)
    )$""",
    re.VERBOSE,
)


def parse_cyclo(text: str, conductor: int) -> Cyclo:
    """Parse `c0 + c1*z + ...` where z stands for zeta_conductor.

    Coefficients are integers or fractions p/q; terms may appear in any order
    and powers may repeat (they are summed).
    """
    if conductor > CONDUCTOR_CAP:
        raise SpecError(f"conductor {conductor} exceeds cap {CONDUCTOR_CAP}")
    s = text.strip()
    if not s:
        raise SpecError("empty cyclotomic value")
    s = s.replace("-", "+-")
    terms = []  # (exponent, numerator, denominator)
    for raw in s.split("+"):
        term = raw.strip().replace(" ", "")
        if not term:
            continue
        neg = term.startswith("-")
        if neg:
            term = term[1:]
        m = _TERM_RE.match(term)
        if not m:
            raise SpecError(f"bad cyclotomic term {raw.strip()!r} in {text!r}")
        num, _, den = (m.group("coef") or "1").partition("/")
        k = m.group("k") or m.group("kc") or ("1" if m.group("z") or m.group("zc") else "0")
        try:
            num, den = int(num), int(den or 1)
            if den == 0:
                raise SpecError(f"zero denominator in cyclotomic term {raw.strip()!r}")
            k = int(k)
        except ValueError as exc:
            raise too_long("cyclotomic value") from exc
        terms.append((k, -num if neg else num, den))
    den = lcm(*(d for _, _, d in terms))
    return Cyclo._from_terms(conductor, ((k, num * (den // d)) for k, num, d in terms), den)
