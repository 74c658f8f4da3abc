"""Exception types shared across the package.

The CLI maps these onto exit codes: spec/grammar problems exit 2,
verification failures exit 3 and I/O trouble exits 4.
"""

import sys

__all__ = ["RepcorrError", "SpecError", "VerificationError"]


class RepcorrError(Exception):
    """Base class for all errors raised by this package."""


class SpecError(RepcorrError):
    """A textual spec (group, rep, matrix, job file, ...) failed to parse
    or named something that does not exist."""


class VerificationError(RepcorrError):
    """An exact self-check failed: orthogonality, a non-integer or negative
    multiplicity, an inconsistent permutation action, a bad SNF factor."""


def too_long(what: str) -> SpecError:
    """The SpecError for an integer literal beyond Python's int string limit,
    where int() and Fraction() raise ValueError."""
    return SpecError(f"{what}: a number has more than {sys.get_int_max_str_digits()} digits")
