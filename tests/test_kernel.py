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
    Subspace,
    Vec,
    check_associative,
    check_dialgebra,
    check_leibniz,
    generated_ideal,
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
    reference_closure,
    reference_rebase,
    reference_subspace_product,
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


# Over Q the product tables are int numerators over one common denominator
# per table; these draw entries with pairwise coprime denominators, often a
# different set in the left and the right product, so that the common
# denominators of a law's four tables differ and must be brought together.
COPRIME = [Fraction(1, 2), Fraction(2, 7), Fraction(5, 11), Fraction(10**12, 13)]
VALID_Q = [d for d in VALID if d.field is QQ]


def coprime_values(pool):
    return st.sampled_from(pool + [-v for v in pool] + [Fraction(1), Fraction(-3)])


def triangular(draw, values, n, lower):
    """An invertible triangular matrix: diagonal from values, the other side zero."""
    entries = st.one_of(st.just(Fraction(0)), values)
    rows = [
        [draw(values) if i == j else draw(entries) if (j < i) == lower else Fraction(0)
         for j in range(n)]
        for i in range(n)
    ]
    return Mat.from_rows(QQ, rows, n)


@st.composite
def coprime_dialgebras(draw):
    """A random table over Q, or a valid one rebased by a matrix with coprime denominators."""
    pools = [draw(st.lists(st.sampled_from(COPRIME), min_size=1, max_size=4, unique=True))
             for _ in range(2)]
    if not draw(st.booleans()):
        n = draw(st.integers(1, 4))
        keys = st.tuples(*[st.integers(0, n - 1)] * 3)
        left, right = (
            draw(st.dictionaries(keys, coprime_values(pool).map(QQ.scalar), max_size=2 * n * n))
            for pool in pools
        )
        return Dialgebra.from_entries(QQ, n, left, right)
    d = draw(st.sampled_from(VALID_Q))
    values = coprime_values(pools[0] + pools[1])
    lo, up = (triangular(draw, values, d.dim, lower) for lower in (True, False))
    return d.rebase(lo @ up)


def coprime_mats(n):
    entries = st.one_of(st.just(Fraction(0)), coprime_values(COPRIME))
    return st.lists(st.tuples(*[entries] * n), min_size=n, max_size=n).map(
        lambda rows: Mat.from_rows(QQ, rows, n)
    )


def assert_fractions(vecs):
    """Every Q Scalar leaves the kernel as a Fraction, never an int or a float."""
    for v in vecs:
        assert all(type(c.value) is Fraction for c in v.coords)


def table_rows(prod):
    return [v for row in prod.rows for v in row]


@SETTINGS
@given(coprime_dialgebras())
def test_law_checks_over_coprime_denominators_agree_with_the_reference(d):
    reports = check_dialgebra(d)
    assert as_triples(reports) == reference_check_dialgebra(d)
    assert_fractions(r.residual for r in reports)
    for tag in ProductTag:
        a = d.as_single(tag)
        reports = check_leibniz(a)
        assert as_triples(reports) == reference_check_leibniz(a)
        assert_fractions(r.residual for r in reports)


@SETTINGS
@given(st.data())
def test_products_over_coprime_denominators_agree_with_the_references(data):
    d = data.draw(coprime_dialgebras())
    n = d.dim
    u, v, t = (data.draw(coprime_mats(n)) for _ in range(3))
    for prod in (d.left, d.right):
        x, y = u.rows[0], v.rows[0]
        product = prod.apply(x, y)
        assert product == reference_apply(prod, x, y)
        spans = [Subspace.from_vectors(QQ, n, m.rows) for m in (u, v)]
        square = prod.subspace_product(*spans)
        assert square == reference_subspace_product(prod, *spans)
        assert_fractions([product] + list(square.basis.rows))
    seed = Subspace.from_vectors(QQ, n, u.rows[:1])
    ideal = generated_ideal(d, seed)
    assert ideal == reference_closure(seed, (d.left, d.right))
    assert_fractions(ideal.basis.rows)
    try:
        rebased = d.rebase(t)
    except NotInvertibleError:
        return
    assert rebased.left == reference_rebase(d.left, t)
    assert rebased.right == reference_rebase(d.right, t)
    assert_fractions(table_rows(rebased.left) + table_rows(rebased.right))
