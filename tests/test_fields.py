import copy
import math
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialg import Field, FieldMismatchError, NonPrimeError, is_prime, parse_dialgebra
from dialg.fields import MILLER_RABIN_BOUND
from helpers import GF2, GF3, GF5, GF7, QQ, random_scalar

FIELDS = [QQ, GF2, GF3, GF5, GF7]


@pytest.mark.parametrize("p", [4, 1, 0, -7, 9, 100])
def test_non_prime_modulus_rejected(p):
    with pytest.raises(NonPrimeError):
        Field.prime(p)


def test_fields_are_interned():
    assert Field.prime(5) is Field.prime(5)
    assert Field.rationals() is Field.rationals()
    assert Field.prime(5) is not Field.prime(7)


@pytest.mark.parametrize("field", FIELDS)
def test_field_axioms_on_random_triples(field):
    rng = random.Random(f"axioms {field}")
    for _ in range(200):
        a = random_scalar(field, rng)
        b = random_scalar(field, rng)
        c = random_scalar(field, rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == field.zero
        if a:
            assert a * a.inverse() == field.one
            assert a / a == field.one


def test_rationals_stay_in_lowest_terms():
    s = QQ.scalar("2/4")
    assert s.value == Fraction(1, 2)
    assert str(s) == "1/2"
    assert str(QQ.scalar(Fraction(-3, 6))) == "-1/2"


def test_prime_field_reduces_mod_p():
    assert GF5.scalar(12).value == 2
    assert GF5.scalar(-1).value == 4
    assert str(GF3.scalar(5)) == "2"
    big = Field.prime(3000017)
    pairs = [(GF5, a, b) for a in range(5) for b in range(5)]
    pairs += [(big, a, b) for a in (0, 1, 2, 1234567, big.p - 1) for b in (1, 2999999, big.p - 1)]
    for field, a, b in pairs:
        x, y = field.scalar(a), field.scalar(b)
        results = [(x + y, a + b), (x - y, a - b), (x * y, a * b), (-x, -a)]
        if b:
            results.append((x / y, a * pow(b, -1, field.p)))
        for got, want in results:
            assert got.value in range(field.p) and got.value == want % field.p


def test_prime_field_rejects_fractions():
    with pytest.raises(ValueError):
        GF2.scalar(Fraction(1, 2))
    with pytest.raises(ValueError):
        GF5.scalar("1/2")


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        GF3.zero.inverse()
    with pytest.raises(ZeroDivisionError):
        QQ.one / QQ.zero


def test_rational_reciprocal_is_a_fraction_of_an_int_or_a_fraction():
    cases = ((3, Fraction(1, 3)), (-4, Fraction(-1, 4)), (Fraction(2, 7), Fraction(7, 2)))
    for value, inverse in cases:
        got = QQ.reciprocal(value)
        assert got == inverse and type(got) is Fraction


def test_mixed_field_arithmetic_raises():
    with pytest.raises(FieldMismatchError):
        GF2.one + GF3.one
    with pytest.raises(FieldMismatchError):
        QQ.one * GF5.one


def test_scalar_truthiness_and_equality():
    assert not GF3.zero
    assert GF3.scalar(2)
    assert GF3.scalar(2) != GF3.scalar(1)
    assert GF3.scalar(2) == GF3.scalar(5)
    assert GF3.scalar(1) != GF5.scalar(1)


def test_field_elements_enumeration():
    assert [s.value for s in GF3.elements()] == [0, 1, 2]
    with pytest.raises(Exception):
        QQ.elements()


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_agrees_with_trial_division_below_10_5():
    assert all(is_prime(n) == _trial_division(n) for n in range(10**5))


def test_is_prime_on_large_primes_and_strong_pseudoprimes():
    assert is_prime(2**61 - 1)
    assert is_prime(10**14 + 31)
    for carmichael in (561, 41041, 3215031751):
        assert not is_prime(carmichael)
    # Strong pseudoprime to the bases 2..37, caught by base 41.
    assert not is_prime(318665857834031151167461)
    assert not is_prime((10**9 + 7) * (10**9 + 9))


def test_moduli_past_the_certified_bound_are_refused():
    with pytest.raises(NonPrimeError, match=str(MILLER_RABIN_BOUND)):
        Field.prime(2**89 - 1)
    with pytest.raises(NonPrimeError, match=str(MILLER_RABIN_BOUND)):
        is_prime(MILLER_RABIN_BOUND)


def test_a_14_digit_prime_modulus_parses_quickly():
    start = time.perf_counter()
    d = parse_dialgebra("dialg 1\nfield prime 100000000000031\ndim 1\n")
    assert time.perf_counter() - start < 0.1
    assert d.field.p == 100000000000031


@pytest.mark.parametrize("field", FIELDS)
def test_fields_and_scalars_survive_pickle_and_copy(field):
    assert pickle.loads(pickle.dumps(field)) is field
    assert copy.deepcopy(field) is field
    assert copy.copy(field) is field
    for s in (field.zero, field.one, field.scalar(3)):
        for clone in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
            assert clone == s and clone.field is field


@st.composite
def raw_views(draw):
    """(field, values, den): raw values over a positive den, 1 over GF(p)."""
    field = draw(st.sampled_from([QQ, GF3, Field.prime(9973)]))
    if field.is_finite:
        value, den = st.integers(-(10**6), 10**6), st.just(1)
    else:
        fraction = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
        value, den = st.one_of(st.integers(-60, 60), fraction), st.integers(1, 36)
    return field, draw(st.lists(value, max_size=5)), draw(den)


@settings(max_examples=300)
@given(raw_views(), st.integers(2, 9))
def test_canonical_divides_back_and_is_the_one_view_is_canonical_accepts(view, k):
    field, values, den = view
    num, d = field.canonical(list(values), den)
    assert [Fraction(x) for x in field.divide(num, d)] == [
        Fraction(v % field.p if field.is_finite else v) / den for v in values
    ]
    assert field.is_canonical(num, d) and field.is_canonical(tuple(num), d)
    assert not field.is_canonical([k * x for x in num], k * d)
    for bad_den in (0, -d, True, float(d)):
        assert not field.is_canonical(num, bad_den)
    if num:
        assert not field.is_canonical([bool(num[0]), *num[1:]], d)
    if field.is_finite:
        assert not field.is_canonical([*num, field.p], d)
        assert not field.is_canonical([*num, -1], d)
