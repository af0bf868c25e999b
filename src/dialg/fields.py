"""Exact scalar arithmetic over the rationals and prime fields GF(p).

Rational values are stored as `fractions.Fraction` (always in lowest terms
with positive denominator), prime-field values as residues in [0, p).
Nothing in this module is ever floating point.

The one value rule lives here, in `_Value`, the lowest module that holds
values: a subclass compares, hashes and pickles by its public slots, sets
each slot once, by `_fill` in its constructor, and refuses any later
assignment or deletion; a lazy cache fills through `_set`. `Field` uses
it, as do `Scalar`, linalg's `Vec`, `Mat` and `Subspace`, the tables of
algebras (`BilinearProduct`, `Algebra`, `Dialgebra`) and identities'
`BarUnitSet`, so none of them, the shared constants `Field.zero` and
`Field.one` included, can be changed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter

from .errors import FieldMismatchError, NonPrimeError, UnsupportedOverRationalsError

RATIONAL = "rational"
PRIME = "prime"

# The one rule for a number read from text, for use with fullmatch: ASCII
# digits with an optional sign, and in a rational coefficient an optional
# /<den> with a positive denominator and no leading zero. int() and
# Fraction() would also read other Unicode digits, underscores, surrounding
# whitespace, decimals and exponents. Every number in a file, `--ideal`,
# `--prime`, `--dim` and DIALG_SEARCH_BOUND is read by Field.parse (which
# Field.scalar calls on a string) or ASCII_INT, so by these two patterns
# alone.
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


# Sets an attribute past _Value's freeze: the one way a lazy cache fills.
_set = object.__setattr__


class _Value:
    """The one value rule. Two values are equal when their types are the same
    and their public slots agree, basis_names aside, and equal values hash
    alike. A pickle carries exactly the public slots, in __slots__ order, as
    the constructor's arguments (a class whose constructor takes other
    arguments reduces to one that takes its slots): the lazy caches, the
    slots named with an underscore, are rebuilt on read. Each slot is set
    once, by _fill in the constructor, through the slot setters found here
    once per class; any later assignment or deletion raises AttributeError."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
        public = [name for name in cls.__slots__ if not name.startswith("_")]
        if public:
            cls._args = attrgetter(*public)
            cls._key = attrgetter(*(name for name in public if name != "basis_names"))

    def _fill(self, *values):
        """Set the slots, in the order of __slots__, to values."""
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __reduce__(self):
        return type(self), self._args(self)


class Field(_Value):
    """The field of rationals or GF(p).

    Instances are interned: there is one object per field, so identity
    comparison (`a.field is b.field`) is a valid equality test and is what
    the hot arithmetic paths use. Unpickling and copying go through __new__,
    so they return the interned instance.
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
        inst._fill(kind, p, None, None)
        cls._instances[key] = inst
        return inst

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

        A string is read by Field.parse. Over GF(p) only integer values are
        accepted; a fraction like 1/2 is rejected because the file format
        and the classification tables treat prime-field coefficients as
        residues.
        """
        if isinstance(value, Scalar):
            if value.field is not self:
                raise FieldMismatchError(f"scalar over {value.field} given to {self}")
            return value
        if isinstance(value, str):
            value = self.parse(value)
        if self.kind == RATIONAL:
            if isinstance(value, (int, Fraction)):
                return Scalar(self, Fraction(value))
            raise TypeError(f"cannot make a rational scalar from {value!r}")
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise ValueError(f"{value} is not an integer residue for {self}")
            value = value.numerator
        if not isinstance(value, int):
            raise TypeError(f"cannot make a {self} scalar from {value!r}")
        return Scalar(self, value % self.p)

    def parse(self, text):
        """The raw value of a number read from text by the one rule for
        numbers (ASCII_INT and _RATIONAL_COEFF): over GF(p) an integer,
        reduced mod p; over Q an int, or a Fraction for <num>/<den>. Any
        other string raises ValueError. Plain ASCII digits, the common case,
        take no regex."""
        plain = text.isdigit() and text.isascii()
        if self.kind == PRIME:
            if not (plain or ASCII_INT.fullmatch(text)):
                raise ValueError(f"coefficient {text!r} is not in {self}")
            return int(text) % self.p
        match = plain or _RATIONAL_COEFF.fullmatch(text)
        if not match:
            raise ValueError(f"bad rational coefficient {text!r}")
        return int(text) if plain or match[2] is None else Fraction(int(match[1]), int(match[2]))

    @property
    def zero(self):
        if self._zero is None:
            _set(self, "_zero", self.scalar(0))
        return self._zero

    @property
    def one(self):
        if self._one is None:
            _set(self, "_one", self.scalar(1))
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


class Scalar(_Value):
    """An exact element of a Field: a value under the one value rule, so it
    compares, hashes and pickles by (field, value) and cannot be changed."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        # Trusts that value is already normalized; use Field.scalar to coerce.
        self._fill(field, value)

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

    def __repr__(self):
        return f"Scalar({self} over {self.field})"

    def __str__(self):
        return str(self.value)
