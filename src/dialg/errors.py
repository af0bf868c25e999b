"""Exception types shared across the package, the one internal check and the
one refusal of an exhaustive search.

Every layer imports guard_search and DEFAULT_SEARCH_BOUND from here, so how
a search over too many candidates is refused is decided in one place, beside
the error it raises, and no layer imports another for it.
"""

DEFAULT_SEARCH_BOUND = 10**6


class DialgError(Exception):
    """Base class for all dialg errors."""


class FieldMismatchError(DialgError):
    """Operands live over different fields or have incompatible dimensions."""


class NonPrimeError(DialgError):
    """A prime-field modulus failed the primality check."""


class NotInvertibleError(DialgError):
    """A square matrix has no inverse."""


class ParseError(DialgError):
    """A dialg v1 file is malformed; carries the offending line number."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno
        self.message = message


class NotAssociativeError(DialgError):
    """A single-product algebra required to be associative is not."""


class NotADialgebraError(DialgError):
    """A candidate fails the dialgebra laws where a valid one is required."""


class NotAnIdealError(DialgError):
    """A subspace passed as an ideal is not closed under multiplication."""


class NotADerivationError(DialgError):
    """A matrix does not satisfy the Leibniz product rule."""


class DerivationSquareError(DialgError):
    """A derivation matrix does not square to zero."""


class NotZeroCubedError(DialgError):
    """An algebra required to satisfy A*(A*A) = (A*A)*A = 0 does not."""


class UnsupportedOverRationalsError(DialgError):
    """The requested exhaustive computation is only available over GF(p)."""


class SearchBoundExceededError(DialgError):
    """An exhaustive search would exceed the configured candidate budget."""


class InternalCheckError(DialgError):
    """An internal consistency check failed; indicates a bug, not bad input."""


def _require(condition, message):
    """The one internal check: a false condition is a bug, reported as
    InternalCheckError(message)."""
    if not condition:
        raise InternalCheckError(message)


def guard_search(what, candidates, bound):
    """Refuse an exhaustive search over more candidates than the bound allows."""
    if candidates > bound:
        raise SearchBoundExceededError(
            f"{what} needs {candidates} candidates, over the search bound {bound}"
        )
