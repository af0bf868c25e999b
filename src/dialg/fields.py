"""Exact scalar arithmetic over the rationals and prime fields GF(p).

Rational values are stored as `fractions.Fraction` (always in lowest terms
with positive denominator), prime-field values as residues in [0, p).
Nothing in this module is ever floating point.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FieldMismatchError, NonPrimeError, UnsupportedOverRationalsError

RATIONAL = "rational"
PRIME = "prime"


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

        Over GF(p) only integer values are accepted (reduced mod p); a
        fraction like 1/2 is rejected because the file format and the
        classification tables treat prime-field coefficients as residues.
        """
        if isinstance(value, Scalar):
            if value.field is not self:
                raise FieldMismatchError(f"scalar over {value.field} given to {self}")
            return value
        if self.kind == RATIONAL:
            if isinstance(value, (int, Fraction)):
                return Scalar(self, Fraction(value))
            if isinstance(value, str):
                return Scalar(self, Fraction(value))
            raise TypeError(f"cannot make a rational scalar from {value!r}")
        if isinstance(value, str):
            try:
                value = int(value, 10)
            except ValueError:
                raise ValueError(f"{value!r} is not an integer residue for {self}")
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
        """A list of raw accumulated values (ints over GF(p), Fractions over Q)
        in canonical form: reduced mod p over GF(p), unchanged over Q."""
        if self.kind == PRIME:
            p = self.p
            return [v % p for v in values]
        return values

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

    def __add__(self, other):
        other = self._coerced(other)
        f = self.field
        v = self.value + other.value
        if f.kind == PRIME:
            v %= f.p
        return Scalar(f, v)

    def __sub__(self, other):
        other = self._coerced(other)
        f = self.field
        v = self.value - other.value
        if f.kind == PRIME:
            v %= f.p
        return Scalar(f, v)

    def __mul__(self, other):
        other = self._coerced(other)
        f = self.field
        v = self.value * other.value
        if f.kind == PRIME:
            v %= f.p
        return Scalar(f, v)

    def __neg__(self):
        f = self.field
        v = -self.value
        if f.kind == PRIME:
            v %= f.p
        return Scalar(f, v)

    def __truediv__(self, other):
        other = self._coerced(other)
        return self * other.inverse()

    def inverse(self):
        f = self.field
        if not self.value:
            raise ZeroDivisionError(f"zero has no inverse in {f}")
        if f.kind == PRIME:
            return Scalar(f, pow(self.value, f.p - 2, f.p))
        return Scalar(f, 1 / self.value)

    def __bool__(self):
        return self.value != 0

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
