"""The slab law checks against the Scalar-loop references in helpers: larger
sparse tables, hand-built edge triples and the first violation that the
early-stopping callers report; and Fractions out of every echelon form over Q."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dialg import (
    KIND_I,
    KIND_II,
    KIND_III,
    KIND_IV,
    Algebra,
    Dialgebra,
    Field,
    Mat,
    NotADialgebraError,
    NotAssociativeError,
    ProductTag,
    Subspace,
    Vec,
    canonical_dialgebra,
    check_associative,
    check_dialgebra,
    check_leibniz,
    classify_dim2,
    from_associative,
    from_differential,
    is_valid_dialgebra,
    kernel,
    leibniz_bracket,
    opposite,
    rref,
    solve,
)
from dialg.identities import _law, _slab
from dialg.linalg import _span
from helpers import (
    QQ,
    associative_zoo,
    direct_sum,
    inner_derivation_by_e12,
    matrix_algebra,
    reference_check_associative,
    reference_check_dialgebra,
    reference_check_leibniz,
    table_entries,
    upper_triangular_algebra,
)

GF9973 = Field.prime(9973)
SETTINGS = settings(max_examples=8, suppress_health_check=[HealthCheck.too_slow])
# Pairwise coprime denominators, so that the common denominators of a law's
# four tables differ and must be brought together.
COPRIME = [Fraction(1, 2), Fraction(2, 7), Fraction(5, 11), Fraction(10**12, 13)]


def as_triples(reports):
    return [(r.law, r.triple, r.residual) for r in reports]


def small_blocks(field):
    """Valid dialgebras of dimension 2 and 3 over field."""
    blocks = [canonical_dialgebra(kind, field) for kind in (KIND_I, KIND_III, KIND_IV)]
    blocks.append(canonical_dialgebra(KIND_II, field, 2))
    blocks += [from_associative(a) for a in associative_zoo(field)]
    blocks.append(from_differential(upper_triangular_algebra(field), inner_derivation_by_e12(field)))
    return blocks + [opposite(b) for b in blocks]


BLOCKS = {field: small_blocks(field) for field in (QQ, GF9973)}
LARGE = {
    field: [from_associative(matrix_algebra(field, 3)),
            from_associative(upper_triangular_algebra(field, 4))]
    for field in (QQ, GF9973)
}


def nonzero_values(field):
    if field.is_finite:
        return st.one_of(st.sampled_from([1, -1]), st.integers(1, field.p - 1))
    return st.sampled_from(COPRIME + [-v for v in COPRIME] + [Fraction(1), Fraction(-3)])


def rescaled(draw, d):
    """d in a basis of nonzero multiples of its own, one of them shifted by
    another basis vector: denominators over Q, other residues over GF(p)."""
    n, values = d.dim, nonzero_values(d.field)
    rows = [[draw(values) if i == j else 0 for j in range(n)] for i in range(n)]
    if n > 1 and draw(st.booleans()):
        rows[0][1] = draw(values)
    return d.rebase(Mat.from_rows(d.field, rows, n))


def perturbed(draw, d):
    """d with one structure constant of one product changed."""
    n, field = d.dim, d.field
    tables = [table_entries(d.left), table_entries(d.right)]
    key = draw(st.tuples(*[st.integers(0, n - 1)] * 3))
    side = tables[draw(st.integers(0, 1))]
    side[key] = side.get(key, field.zero) + field.scalar(draw(nonzero_values(field)))
    return Dialgebra.from_entries(field, n, *tables)


@st.composite
def sparse_tables(draw):
    """A dim-6 to dim-10 table with one perturbed constant, over Q or GF(9973):
    a direct sum of small valid blocks and zero blocks, or from-associative
    M_3 or T_4."""
    field = draw(st.sampled_from([QQ, GF9973]))
    if draw(st.booleans()):
        d = draw(st.sampled_from(LARGE[field]))
    else:
        target, blocks, dim = draw(st.integers(6, 10)), [], 0
        while dim < target:
            if target - dim >= 2 and draw(st.integers(0, 3)):
                block = draw(st.sampled_from([b for b in BLOCKS[field] if b.dim <= target - dim]))
                blocks.append(block)
                dim += block.dim
            else:
                blocks.append(draw(st.integers(1, min(2, target - dim))))
                dim += blocks[-1]
        d = direct_sum(field, blocks)
    if draw(st.booleans()):
        d = rescaled(draw, d)
    return perturbed(draw, d)


@SETTINGS
@given(sparse_tables())
def test_larger_sparse_tables_agree_with_the_reference(d):
    assert 6 <= d.dim <= 10
    assert as_triples(check_dialgebra(d)) == reference_check_dialgebra(d)
    for tag in ProductTag:
        a = d.as_single(tag)
        assert as_triples(check_associative(a)) == reference_check_associative(a)
        assert as_triples(check_leibniz(a)) == reference_check_leibniz(a)


def assert_first_violation(call, error, expected, message):
    """call raises error naming expected's first entry, or succeeds when expected is empty."""
    if not expected:
        call()
        return
    law, triple, _ = expected[0]
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message(law, triple)


def fails(law, triple):
    return f"input fails {law} at {triple}"


@SETTINGS
@given(sparse_tables())
def test_early_stopping_callers_report_the_reference_first_violation(d):
    expected = reference_check_dialgebra(d)
    assert is_valid_dialgebra(d) == (not expected)
    assert_first_violation(lambda: leibniz_bracket(d), NotADialgebraError, expected, fails)
    for tag in ProductTag:
        a = d.as_single(tag)
        assert_first_violation(
            lambda: from_associative(a),
            NotAssociativeError,
            reference_check_associative(a),
            lambda law, triple: f"input is not associative, e.g. at {triple}",
        )


@st.composite
def dim2_tables(draw):
    """A canonical dim-2 form, rescaled and perturbed or not, or a random table."""
    field = draw(st.sampled_from([QQ, GF9973]))
    if draw(st.booleans()):
        keys = st.tuples(*[st.integers(0, 1)] * 3)
        values = nonzero_values(field).map(field.scalar)
        left, right = (draw(st.dictionaries(keys, values, max_size=4)) for _ in range(2))
        return Dialgebra.from_entries(field, 2, left, right)
    d = draw(st.sampled_from([b for b in BLOCKS[field] if b.dim == 2]))
    if draw(st.booleans()):
        d = rescaled(draw, d)
    return perturbed(draw, d) if draw(st.booleans()) else d


@settings(max_examples=40)
@given(dim2_tables())
def test_classify_dim2_reports_the_reference_first_violation(d):
    expected = reference_check_dialgebra(d)
    assert is_valid_dialgebra(d) == (not expected)
    assert_first_violation(lambda: classify_dim2(d), NotADialgebraError, expected, fails)


# Hand-built edge triples.


def second_term_only(field):
    """e1 e1 = e0 and e1 e0 = e1: on (1, 1, 1) the first term (e1 e1) e1 =
    e0 e1 makes no row, and the residual is -e1 from e1 (e1 e1) alone."""
    return Algebra.from_entries(field, 2, {(1, 1, 0): 1, (1, 0, 1): 1})


@pytest.mark.parametrize("field", [QQ, GF9973])
def test_a_violation_reached_only_through_the_second_term_is_reported(field):
    a = second_term_only(field)
    firsts, second, den = _law(a.product, a.product, a.product, a.product)
    assert _slab(2, 1, firsts, ([], second[1]))[3] is None
    reports = check_associative(a)
    assert as_triples(reports) == reference_check_associative(a)
    assert ("assoc", (1, 1, 1), Vec.of(field, [0, -1])) in as_triples(reports)
    d = Dialgebra(field, 2, a.product, a.product)
    assert as_triples(check_dialgebra(d)) == reference_check_dialgebra(d)
    assert as_triples(check_leibniz(a)) == reference_check_leibniz(a)


@pytest.mark.parametrize("field", [QQ, GF9973])
def test_two_nonzero_terms_that_cancel_are_not_reported(field):
    # e0 e0 = 1/2 e0 (or 2 e0): (e0 e0) e0 = e0 (e0 e0), both nonzero.
    half = Fraction(1, 2) if not field.is_finite else 2
    a = Algebra.from_entries(field, 2, {(0, 0, 0): half})
    firsts, second, den = _law(a.product, a.product, a.product, a.product)
    assert _slab(2, 0, firsts, second)[0] == [0, 0]
    assert check_associative(a) == reference_check_associative(a) == []
    # A law with a nonzero residual elsewhere still skips the cancelled triple.
    d = Dialgebra.from_entries(field, 2, {(0, 0, 0): half}, {(0, 0, 0): half, (0, 1, 1): 1})
    reports = as_triples(check_dialgebra(d))
    assert reports == reference_check_dialgebra(d)
    assert reports and all(triple != (0, 0, 0) for _, triple, _ in reports)


def test_a_residual_that_vanishes_only_mod_p_is_not_reported():
    # On (0, 1, 1): (e0 e1) e1 = 2 e2 e1 = 6 e0, e0 (e1 e1) = e0 e2 = e0, so
    # the row holds the numerators 6 - 1 = 5: zero over GF(5), not over Q.
    entries = {(0, 1, 2): 2, (2, 1, 0): 3, (1, 1, 2): 1, (0, 2, 0): 1}
    for field in (Field.prime(5), QQ):
        a = Algebra.from_entries(field, 3, entries)
        firsts, second, den = _law(a.product, a.product, a.product, a.product)
        assert _slab(3, 0, firsts, second)[1 * 3 + 1] == [5, 0, 0]
        reports = as_triples(check_associative(a))
        assert reports == reference_check_associative(a)
        at_011 = [r for r in reports if r[1] == (0, 1, 1)]
        assert at_011 == ([] if field.is_finite else [("assoc", (0, 1, 1), Vec.of(QQ, [5, 0, 0]))])


# Over Q every Scalar leaves an echelon form as a Fraction, even from a raw
# int row whose pivot is already 1.


def assert_fractions(vecs):
    for v in vecs:
        assert all(type(c.value) is Fraction for c in v.coords)


int_rows = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.sampled_from([0, 1, 1, -1, 2, 3]), min_size=n, max_size=n), max_size=4
    )
)


@settings(max_examples=60)
@given(int_rows)
@example([[1, 2]])  # once left as ints by the pivot step, where [[2, 4]] gave Fractions
def test_echelon_forms_over_q_hold_fractions(rows):
    if not rows:
        return
    n = len(rows[0])
    span = _span(QQ, n, [list(r) for r in rows])
    assert_fractions(span.basis.rows)
    m = Mat.from_rows(QQ, rows, n)
    reduced, _ = rref(m)
    assert_fractions(reduced.rows)
    assert_fractions(kernel(m).basis.rows)
    sub = Subspace.from_vectors(QQ, n, m.rows)
    assert sub == span
    assert_fractions(sub.basis.rows)
    assert_fractions(sub.intersect(span).basis.rows + sub.sum(span).basis.rows)
    assert_fractions([sub.reduce(Vec.of(QQ, [1] * n))])
    result = solve(m, Vec.of(QQ, [1] * len(rows)))
    if result is not None:
        assert_fractions([result[0]] + list(result[1].basis.rows))

