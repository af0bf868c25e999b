"""The raw contraction kernel against the Scalar-loop references in helpers."""

from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dialg import (
    Dialgebra,
    Field,
    Mat,
    NotInvertibleError,
    ProductTag,
    Vec,
    check_associative,
    check_dialgebra,
    check_leibniz,
    is_valid_dialgebra,
)
from helpers import (
    GF2,
    QQ,
    random_valid_dialgebras,
    reference_apply,
    reference_check_associative,
    reference_check_dialgebra,
    reference_check_leibniz,
    reference_rebase,
)

FIELDS = [QQ, GF2, Field.prime(9973), Field.prime(3000017)]
VALID = random_valid_dialgebras(24, seed=7)
SETTINGS = settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def scalars(draw, field):
    if field.is_finite:
        # Bias towards 0, 1 and -1 so that residuals cancel now and then.
        value = draw(st.one_of(st.sampled_from([0, 1, -1]), st.integers(0, field.p - 1)))
    else:
        value = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    return field.scalar(value)


def sparse_scalars(field):
    return st.one_of(st.just(field.zero), scalars(field))


@st.composite
def random_dialgebras(draw):
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 5))

    def entries():
        keys = st.tuples(*[st.integers(0, n - 1)] * 3)
        return draw(st.dictionaries(keys, scalars(field), max_size=2 * n * n))

    return Dialgebra.from_entries(field, n, entries(), entries())


@st.composite
def dialgebras(draw):
    """A random table, or a valid dialgebra with at most one changed constant."""
    if draw(st.booleans()):
        return draw(random_dialgebras())
    d = draw(st.sampled_from(VALID))
    if draw(st.booleans()):
        n, field = d.dim, d.field
        tables = [
            {(i, j, k): prod.entry(i, j, k) for i in range(n) for j in range(n) for k in range(n)}
            for prod in (d.left, d.right)
        ]
        key = draw(st.tuples(*[st.integers(0, n - 1)] * 3))
        side = tables[draw(st.integers(0, 1))]
        side[key] = side[key] + draw(scalars(field))
        d = Dialgebra.from_entries(field, n, *tables)
    return d


def as_triples(reports):
    return [(r.law, r.triple, r.residual) for r in reports]


@SETTINGS
@given(dialgebras())
def test_law_checks_agree_with_the_scalar_reference(d):
    expected = reference_check_dialgebra(d)
    assert as_triples(check_dialgebra(d)) == expected
    assert is_valid_dialgebra(d) == (not expected)
    for tag in ProductTag:
        a = d.as_single(tag)
        assert as_triples(check_associative(a)) == reference_check_associative(a)
        assert as_triples(check_leibniz(a)) == reference_check_leibniz(a)


@SETTINGS
@given(st.data())
def test_apply_agrees_with_the_scalar_reference(data):
    d = data.draw(dialgebras())
    for prod in (d.left, d.right):
        x, y = (Vec(d.field, data.draw(st.tuples(*[sparse_scalars(d.field)] * d.dim)))
                for _ in range(2))
        assert prod.apply(x, y) == reference_apply(prod, x, y)


@SETTINGS
@given(st.data())
def test_rebase_agrees_with_the_scalar_reference_and_inverts(data):
    d = data.draw(dialgebras())
    rows = data.draw(st.lists(st.tuples(*[scalars(d.field)] * d.dim), min_size=d.dim, max_size=d.dim))
    t = Mat(d.field, [Vec(d.field, r) for r in rows], d.dim)
    try:
        t_inv = t.inverse()
    except NotInvertibleError:
        return
    rebased = d.rebase(t)
    assert rebased.left == reference_rebase(d.left, t)
    assert rebased.right == reference_rebase(d.right, t)
    assert rebased.rebase(t_inv) == d


def test_the_pool_of_valid_dialgebras_passes_the_reference():
    assert all(reference_check_dialgebra(d) == [] for d in VALID)
