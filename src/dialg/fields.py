"""Exact scalar arithmetic over the rationals and prime fields GF(p).

Rational values are stored as `fractions.Fraction` (always in lowest terms
with positive denominator), prime-field values as residues in [0, p).
Nothing in this module is ever floating point.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from .errors import FieldMismatchError, NonPrimeError, UnsupportedOverRationalsError

RATIONAL = "rational"
PRIME = "prime"

# The one rule for a number read from text, for use with fullmatch: ASCII
# digits with an optional sign, and in a rational coefficient an optional
# /<den> with a positive denominator and no leading zero. int() and
# Fraction() would also read other Unicode digits, underscores, surrounding
# whitespace, decimals and exponents. Every number in a file, `--ideal`,
# `--prime`, `--dim` and DIALG_SEARCH_BOUND is read by Field.scalar or
# ASCII_INT, so by these two patterns alone.
ASCII_INT = re.compile(r"[+-]?\d+", re.ASCII)
_RATIONAL_COEFF = re.compile(r"([+-]?\d+)(?:/([1-9]\d*))?", re.ASCII)


# Miller-Rabin with these bases is exact below MILLER_RABIN_BOUND
# (Sorenson and Webster, 2015).
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(p):
    """Deterministic Miller-Rabin primality test, exact below MILLER_RABIN_BOUND.

    Larger moduli raise NonPrimeError rather than risk a wrong answer.
    """
    if not isinstance(p, int) or p < 2:
        return False
    if p >= MILLER_RABIN_BOUND:
        raise NonPrimeError(
            f"cannot certify {p} as a prime: moduli must be below {MILLER_RABIN_BOUND}"
        )
    for b in MILLER_RABIN_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in MILLER_RABIN_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Field:
    """The field of rationals or GF(p).

    Instances are interned: there is one object per field, so identity
    comparison (`a.field is b.field`) is a valid equality test and is what
    the hot arithmetic paths use.
    """

    __slots__ = ("kind", "p", "_zero", "_one")
    _instances: dict = {}

    def __new__(cls, kind, p=None):
        key = (kind, p)
        cached = cls._instances.get(key)
        if cached is not None:
            return cached
        if kind == RATIONAL:
            if p is not None:
                raise ValueError("the rational field takes no modulus")
        elif kind == PRIME:
            if not is_prime(p):
                raise NonPrimeError(f"{p!r} is not a prime")
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        inst = object.__new__(cls)
        inst.kind = kind
        inst.p = p
        inst._zero = None
        inst._one = None
        cls._instances[key] = inst
        return inst

    def __reduce__(self):
        # Unpickling and copying go through __new__, so they return the interned instance.
        return (Field, (self.kind, self.p))

    @classmethod
    def rationals(cls):
        return cls(RATIONAL)

    @classmethod
    def prime(cls, p):
        return cls(PRIME, p)

    @property
    def is_finite(self):
        return self.kind == PRIME

    def scalar(self, value):
        """Coerce an int, Fraction, string or Scalar into this field.

        A string is read by the one rule for numbers (ASCII_INT and
        _RATIONAL_COEFF): over Q an integer or <num>/<den>, over GF(p) an
        integer, reduced mod p; any other string raises ValueError. Over GF(p) only integer values are accepted; a fraction
        like 1/2 is rejected because the file format and the classification
        tables treat prime-field coefficients as residues.
        """
        if isinstance(value, Scalar):
            if value.field is not self:
                raise FieldMismatchError(f"scalar over {value.field} given to {self}")
            return value
        if self.kind == RATIONAL:
            if isinstance(value, (int, Fraction)):
                return Scalar(self, Fraction(value))
            if isinstance(value, str):
                match = _RATIONAL_COEFF.fullmatch(value)
                if not match:
                    raise ValueError(f"bad rational coefficient {value!r}")
                return Scalar(self, Fraction(int(match[1]), int(match[2] or 1)))
            raise TypeError(f"cannot make a rational scalar from {value!r}")
        if isinstance(value, str):
            if not ASCII_INT.fullmatch(value):
                raise ValueError(f"coefficient {value!r} is not in {self}")
            value = int(value)
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise ValueError(f"{value} is not an integer residue for {self}")
            value = value.numerator
        if not isinstance(value, int):
            raise TypeError(f"cannot make a {self} scalar from {value!r}")
        return Scalar(self, value % self.p)

    @property
    def zero(self):
        if self._zero is None:
            self._zero = self.scalar(0)
        return self._zero

    @property
    def one(self):
        if self._one is None:
            self._one = self.scalar(1)
        return self._one

    def reduce(self, values):
        """A list of raw accumulated values (ints over GF(p); Fractions, or int
        numerators, over Q) in canonical form: reduced mod p over GF(p),
        unchanged over Q."""
        if self.kind == PRIME:
            p = self.p
            return [v % p for v in values]
        return values

    def integral(self, values):
        """(values times den, den), ints: over Q a row that holds a Fraction is
        scaled by den, the lcm of its denominators; int rows, and every row
        over GF(p), are returned as they are, with den = 1."""
        if self.kind == PRIME or all(type(v) is int for v in values):
            return values, 1
        den = lcm(*(v.denominator for v in values))
        return [v.numerator * (den // v.denominator) for v in values], den

    def normalize(self, values, head):
        """A nonzero reduced int row in the one form an echelon row is kept
        in, given its pivot value head: scaled to pivot 1 over GF(p), and
        over Q the primitive int row (gcd 1) with a positive pivot. Either is
        the reduced row times a unique scale, so both fix the RREF."""
        if self.kind == PRIME:
            inv, p = self.reciprocal(head), self.p
            return [inv * v % p for v in values]
        g = gcd(*values)
        if head < 0:
            g = -g
        return values if g == 1 else [v // g for v in values]

    def numerators(self, rows):
        """Rows of raw (index, value) terms as int numerators over one common
        denominator, the lcm of the value denominators: (rows, den). Over
        GF(p) the residues are their own numerators: (rows, 1), unchanged."""
        if self.kind == PRIME:
            return rows, 1
        den = lcm(*(a.denominator for terms in rows for _, a in terms))
        scaled = [[(k, a.numerator * (den // a.denominator)) for k, a in terms] for terms in rows]
        return scaled, den

    def divide(self, numerators, den):
        """The raw values numerator / den of integer numerators over a common
        denominator, one division each: Fractions over Q (0 for a zero
        numerator), residues mod p over GF(p), where den is always 1."""
        if self.kind == PRIME:
            return self.reduce(numerators)
        return [Fraction(v, den) if v else 0 for v in numerators]

    def reciprocal(self, value):
        """The inverse of a nonzero raw value (an int residue, or an int or
        Fraction over Q, whose inverse is always a Fraction)."""
        if not value:
            raise ZeroDivisionError(f"zero has no inverse in {self}")
        if self.kind == PRIME:
            return pow(value, -1, self.p)
        return Fraction(1, value)

    def elements(self):
        """All field elements, in residue order. Finite fields only."""
        if self.kind != PRIME:
            raise UnsupportedOverRationalsError("cannot enumerate the rationals")
        return [Scalar(self, v) for v in range(self.p)]

    def __repr__(self):
        return str(self)

    def __str__(self):
        if self.kind == RATIONAL:
            return "rational"
        return f"prime {self.p}"


class Scalar:
    """An exact element of a Field. Immutable and hashable."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        # Trusts that value is already normalized; use Field.scalar to coerce.
        self.field = field
        self.value = value

    def _coerced(self, other):
        if not isinstance(other, Scalar):
            raise TypeError(f"expected a Scalar, got {other!r}")
        if other.field is not self.field:
            raise FieldMismatchError(f"mixing {self.field} and {other.field} scalars")
        return other

    def _reduced(self, value):
        """A Scalar of this field holding a raw sum, difference or product of
        values, reduced mod p over GF(p)."""
        f = self.field
        return Scalar(f, value % f.p if f.kind == PRIME else value)

    def __add__(self, other):
        return self._reduced(self.value + self._coerced(other).value)

    def __sub__(self, other):
        return self._reduced(self.value - self._coerced(other).value)

    def __mul__(self, other):
        return self._reduced(self.value * self._coerced(other).value)

    def __neg__(self):
        return self._reduced(-self.value)

    def __truediv__(self, other):
        other = self._coerced(other)
        return self * other.inverse()

    def inverse(self):
        return Scalar(self.field, self.field.reciprocal(self.value))

    def __bool__(self):
        return self.value != 0

    def __reduce__(self):
        return (Scalar, (self.field, self.value))

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.field is other.field and self.value == other.value

    def __hash__(self):
        return hash((id(self.field), self.value))

    def __repr__(self):
        return f"Scalar({self} over {self.field})"

    def __str__(self):
        return str(self.value)
