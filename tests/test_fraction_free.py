"""Fraction-free elimination: echelon rows kept on integers, Scalars made at the exit.

Annihilators, bar-units, fingerprints and quotients by the annihilator,
computed from the int product views, against the Scalar-row route in
helpers; and the exact form (Fractions over Q) of every echelon result,
against the Scalar elimination.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dialg import (
    KIND_I,
    KIND_II,
    KIND_III,
    KIND_IV,
    Dialgebra,
    Field,
    Mat,
    NotAnIdealError,
    NotInvertibleError,
    Subspace,
    Vec,
    annihilators,
    bar_units,
    canonical_dialgebra,
    fingerprint,
    from_associative,
    kernel,
    quotient,
    rref,
    solve,
)
from dialg.linalg import _span
from dialg.structure import _ann
from helpers import (
    GF2,
    QQ,
    reference_annihilators,
    reference_bar_units,
    reference_fingerprint,
    reference_inverse,
    reference_kernel,
    reference_quotient,
    reference_rref,
    reference_solve,
    reference_span,
    upper_triangular_algebra,
)

GF9973 = Field.prime(9973)
FIELDS = [QQ, GF2, GF9973]
SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
PROFILE = ("rann_left", "lann_left", "rann_right", "lann_right", "ann")


def exact(x):
    """Every Scalar of a Vec, Mat or Subspace as (type, value): equal only
    when the values and their representations agree."""
    if isinstance(x, Subspace):
        return x.ambient_dim, x.pivots, exact(x.basis)
    if isinstance(x, Mat):
        return x.ncols, [exact(r) for r in x.rows]
    return [(type(c.value), c.value) for c in x.coords]


def constants(field):
    if field.is_finite:
        return st.one_of(st.sampled_from([0, 1, -1]), st.integers(0, field.p - 1))
    return st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6))


def tables(field, n):
    keys = st.tuples(*[st.integers(0, n - 1)] * 3)
    return st.dictionaries(keys, constants(field), max_size=n**3 // 2 + 1)


@st.composite
def dialgebras(draw):
    """Sparse drawn tables (often with annihilators), equal or distinct, or
    a canonical dim-2 form (with a bar-unit for IV) moved by a drawn matrix."""
    field = draw(st.sampled_from(FIELDS))
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        left = draw(tables(field, n))
        right = left if draw(st.booleans()) else draw(tables(field, n))
        return Dialgebra.from_entries(field, n, left, right)
    kind = draw(st.sampled_from([KIND_I, KIND_II, KIND_III, KIND_IV]))
    k = field.scalar(draw(st.sampled_from([1, 3, -1]))) if kind == KIND_II else None
    d = canonical_dialgebra(kind, field, k)
    t = Mat.from_rows(field, [[draw(constants(field)) for _ in range(2)] for _ in range(2)])
    try:
        return d.rebase(t)
    except NotInvertibleError:
        return d


ZERO_DIAGONAL = Dialgebra.from_entries(QQ, 1, {}, {(0, 0, 0): 1})
UNITAL_LINE = Dialgebra.from_entries(QQ, 1, {(0, 0, 0): 1}, {(0, 0, 0): 1})
DISTINCT = Dialgebra.from_entries(
    QQ, 3, {(0, 1, 0): Fraction(2, 3), (1, 1, 1): 1}, {(1, 0, 0): Fraction(-5, 7), (1, 1, 1): 1}
)


@SETTINGS
@given(dialgebras())
@example(Dialgebra.trivial(QQ, 1))
@example(Dialgebra.trivial(GF9973, 1))
@example(ZERO_DIAGONAL)
@example(UNITAL_LINE)
@example(DISTINCT)
@example(canonical_dialgebra(KIND_IV, GF2))
def test_annihilator_systems_agree_with_the_scalar_route(d):
    prof, want = annihilators(d), reference_annihilators(d)
    for name in PROFILE:
        assert exact(getattr(prof, name)) == exact(getattr(want, name)), name
    assert exact(_ann(d.left, d.right)) == exact(want.ann)
    bu, ref = bar_units(d), reference_bar_units(d)
    assert bu.is_empty == ref.is_empty
    if not ref.is_empty:
        assert exact(bu.point) == exact(ref.point)
        assert exact(bu.direction) == exact(ref.direction)
    assert fingerprint(d) == reference_fingerprint(d)
    expected = reference_quotient(d, want.ann)
    if expected is None:
        with pytest.raises(NotAnIdealError):
            quotient(d, prof.ann)
    else:
        quot, proj = quotient(d, prof.ann)
        assert quot == expected[0] and quot.products_equal() == expected[0].products_equal()
        assert exact(proj) == exact(expected[1])


@pytest.mark.parametrize(
    "d",
    [Dialgebra.trivial(QQ, 0), *(from_associative(upper_triangular_algebra(f)) for f in FIELDS)],
    ids=["trivial-0", "T2/Q", "T2/GF2", "T2/GF9973"],
)
def test_fingerprint_ranks_agree_with_the_reference(d):
    assert fingerprint(d) == reference_fingerprint(d)


def test_a_zero_diagonal_row_keeps_its_equation():
    # e_1 <| e = e_1 has no solution when the left product is zero; dropping
    # the zero row (1, 1) would leave e = e_1 from the right product alone.
    assert bar_units(ZERO_DIAGONAL).is_empty
    assert reference_bar_units(ZERO_DIAGONAL).is_empty
    unit = bar_units(UNITAL_LINE)
    assert unit.point == Vec.of(QQ, [1]) and unit.direction.dim == 0


mixed = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7)),
)
raw_rows = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(mixed, min_size=n, max_size=n), min_size=1, max_size=5)
)


@SETTINGS
@given(raw_rows)
@example([[2, 4]])
@example([[3, 6, 0], [0, Fraction(1, 2), 5]])
@example([[Fraction(4, 3), 2], [-6, Fraction(2, 5)]])
def test_echelon_results_over_q_are_the_scalar_ones(rows):
    """Int rows with pivots other than 1, and rows mixing ints and Fractions,
    give byte for byte the Scalar elimination's results."""
    n = len(rows[0])
    m = Mat.from_rows(QQ, rows, n)
    red, pivots = reference_rref(m)
    assert exact(rref(m)[0]) == exact(red)
    span = reference_span(QQ, n, m.rows)
    assert exact(_span(QQ, n, [list(r) for r in rows])) == exact(span)
    assert exact(Subspace.from_vectors(QQ, n, m.rows)) == exact(span)
    assert exact(kernel(m)) == exact(reference_kernel(m))
    b = Vec.of(QQ, [Fraction(i + 1, 3) for i in range(m.nrows)])
    got, want = solve(m, b), reference_solve(m, b)
    assert (got is None) == (want is None)
    if want is not None:
        assert exact(got[0]) == exact(want[0]) and exact(got[1]) == exact(want[1])
    square = Mat.from_rows(QQ, (rows * n)[:n], n)  # repeated rows when too few
    want = reference_inverse(square)
    if want is None:
        with pytest.raises(NotInvertibleError):
            square.inverse()
    else:
        assert exact(square.inverse()) == exact(want)
