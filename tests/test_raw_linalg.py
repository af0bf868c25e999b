"""Row reduction and products on raw field values against the Scalar references in helpers."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dialg import (
    Algebra,
    Dialgebra,
    Field,
    Mat,
    NotInvertibleError,
    Subspace,
    Vec,
    ZeroCubedTriple,
    all_subspaces,
    annihilators,
    generated_ideal,
    is_isomorphism,
    kernel,
    rref,
    solve,
)
from dialg.structure import _subspace_count
from helpers import (
    GF2,
    GF3,
    QQ,
    random_valid_dialgebras,
    reference_intersect,
    reference_inverse,
    reference_is_isomorphism,
    reference_kernel,
    reference_mat_vec,
    reference_reduce,
    reference_rref,
    reference_solve,
    reference_span,
    reference_vec_mat,
    reference_zero_cubed_apply,
)

FIELDS = [QQ, GF2, Field.prime(9973), Field.prime(3000017)]
SETTINGS = settings(max_examples=80, suppress_health_check=[HealthCheck.too_slow])
# Fraction sizes over Q: small, or large enough that denominators rarely share a factor.
BIGS = st.sampled_from([3, 10**6])
VALID = random_valid_dialgebras(40, seed=13)


@st.composite
def scalars(draw, field, big=3):
    """A scalar of GF(p), or over Q a fraction with numerator and denominator
    up to big in size."""
    if field.is_finite:
        # Bias towards 0, 1 and -1 so that rows cancel now and then.
        value = draw(st.one_of(st.sampled_from([0, 1, -1]), st.integers(0, field.p - 1)))
    else:
        value = Fraction(draw(st.integers(-big, big)), draw(st.integers(1, big)))
    return field.scalar(value)


@st.composite
def vecs(draw, field, n, big=3):
    return Vec(field, draw(st.tuples(*[scalars(field, big)] * n)))


@st.composite
def matrices(draw, field, nrows=None, ncols=None, dependent=True, big=3):
    """A matrix of any shape from 0x0 to 5x5, its scalars drawn with big; if
    dependent, often rank deficient, since some rows are drawn as
    combinations of earlier rows."""
    nrows = draw(st.integers(0, 5)) if nrows is None else nrows
    ncols = draw(st.integers(0, 5)) if ncols is None else ncols
    rows = []
    for _ in range(nrows):
        if rows and dependent and draw(st.booleans()):
            row = Vec.zero(field, ncols)
            for r in rows:
                row = row + r.scale(draw(scalars(field, big)))
        else:
            row = draw(vecs(field, ncols, big))
        rows.append(row)
    return Mat(field, rows, ncols)


def systems(field):
    """A matrix from matrices(field), or a tall one of up to 16 rows and 4
    columns, the shape of the n^2 x n annihilator and 2n^2 x n bar-unit
    systems, where row reduction reaches full rank before the last row."""
    tall = st.tuples(st.integers(6, 16), st.integers(0, 4))
    return matrices(field) | tall.flatmap(lambda shape: matrices(field, *shape))


def same_subspace(u, v):
    return u == v and u.pivots == v.pivots and u.dim == v.dim and u.basis == v.basis


@SETTINGS
@given(st.data())
def test_rref_kernel_and_span_agree_with_the_scalar_reference(data):
    field = data.draw(st.sampled_from(FIELDS))
    m = data.draw(systems(field))
    red, pivots = reference_rref(m)
    assert rref(m) == (red, len(pivots))
    span = Subspace.from_vectors(field, m.ncols, m.rows)
    assert same_subspace(span, reference_span(field, m.ncols, m.rows))
    assert span.pivots == tuple(pivots)
    assert same_subspace(kernel(m), reference_kernel(m))


@SETTINGS
@given(st.data())
def test_solve_agrees_with_the_scalar_reference(data):
    field = data.draw(st.sampled_from(FIELDS))
    m = data.draw(systems(field))
    if data.draw(st.booleans()):
        b = data.draw(vecs(field, m.nrows))  # often inconsistent
    else:
        b = m @ data.draw(vecs(field, m.ncols))  # always consistent
    got, want = solve(m, b), reference_solve(m, b)
    if want is None:
        assert got is None
    else:
        assert got[0] == want[0] and same_subspace(got[1], want[1])
        assert m @ got[0] == b


@SETTINGS
@given(st.data())
def test_inverse_agrees_with_the_scalar_reference(data):
    field = data.draw(st.sampled_from(FIELDS))
    n = data.draw(st.integers(0, 5))
    m = data.draw(matrices(field, n, n, dependent=data.draw(st.booleans())))
    want = reference_inverse(m)
    try:
        got = m.inverse()
    except NotInvertibleError:
        assert want is None
    else:
        assert got == want


@SETTINGS
@given(st.data())
def test_subspace_reduce_and_intersect_agree_with_the_scalar_reference(data):
    field, big = data.draw(st.sampled_from(FIELDS)), data.draw(BIGS)
    n = data.draw(st.integers(0, 5))
    u, other = (Subspace.from_vectors(field, n, data.draw(matrices(field, ncols=n, big=big)).rows)
                for _ in range(2))
    # Besides two drawn spans: the zero and full spaces, u itself from its
    # rows reversed, and spans nested in u and around it.
    rows = u.basis.rows
    w = data.draw(st.sampled_from([
        other,
        Subspace.zero(field, n),
        Subspace.full(field, n),
        Subspace.from_vectors(field, n, rows[::-1]),
        Subspace.from_vectors(field, n, rows[: data.draw(st.integers(0, len(rows)))]),
        Subspace.from_vectors(field, n, rows + other.basis.rows),
    ]))
    if data.draw(st.booleans()):
        u, w = w, u
    v = data.draw(vecs(field, n, big))
    assert u.reduce(v) == reference_reduce(u, v)
    assert u.contains(v) == (not reference_reduce(u, v))
    assert same_subspace(u.intersect(w), reference_intersect(u, w))


def assert_canonical(u):
    """u equals the span of its own RREF basis, with the same pivots and hash."""
    again = Subspace.from_vectors(u.field, u.ambient_dim, u.basis.rows)
    assert u == again and u.pivots == again.pivots and hash(u) == hash(again)


@SETTINGS
@given(st.data())
def test_subspace_equality_is_set_equality_whatever_built_it(data):
    field = data.draw(st.sampled_from([QQ, GF2, Field.prime(9973)]))
    n, big = data.draw(st.integers(0, 4)), 10**6
    m = data.draw(matrices(field, ncols=n, big=big))
    u, w = (Subspace.from_vectors(field, n, data.draw(matrices(field, ncols=n, big=big)).rows)
            for _ in range(2))
    direction = solve(m, m @ data.draw(vecs(field, n, big)))[1]
    keys = st.tuples(*[st.integers(0, n - 1)] * 3)
    left, right = (data.draw(st.dictionaries(keys, scalars(field, big), max_size=6)) if n else {}
                   for _ in range(2))
    d = Dialgebra.from_entries(field, n, left, right)
    ann = annihilators(d)
    for x in [
        u, w, kernel(m), direction, u.sum(w), u.intersect(w),
        ann.rann_left, ann.lann_left, ann.rann_right, ann.lann_right, ann.ann,
        generated_ideal(d, u), Algebra(field, n, d.left).square_space(),
        d.right.subspace_product(u, w),
    ]:
        assert_canonical(x)


def test_every_enumerated_subspace_of_gf3_cubed_is_canonical_and_distinct():
    subspaces = list(all_subspaces(GF3, 3))
    for u in subspaces:
        assert_canonical(u)
    assert len(set(subspaces)) == len(subspaces) == _subspace_count(3, 3)


@SETTINGS
@given(st.data())
def test_products_agree_with_the_scalar_reference(data):
    field, big = data.draw(st.sampled_from(FIELDS)), data.draw(BIGS)
    m = data.draw(matrices(field, big=big))
    v = data.draw(vecs(field, m.nrows, big))
    x = data.draw(vecs(field, m.ncols, big))
    assert v @ m == reference_vec_mat(v, m)
    assert m @ x == reference_mat_vec(m, x)
    other = data.draw(matrices(field, nrows=m.ncols, big=big))
    assert m @ other == Mat(field, [reference_vec_mat(r, other) for r in m.rows], other.ncols)


@SETTINGS
@given(st.data())
def test_zero_cubed_apply_agrees_with_the_scalar_reference(data):
    field, big = data.draw(st.sampled_from(FIELDS)), data.draw(BIGS)
    z_dim, x_dim = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    keys = st.tuples(st.integers(0, x_dim - 1), st.integers(0, x_dim - 1), st.integers(0, z_dim - 1))
    entries = {}
    if x_dim and z_dim:
        entries = data.draw(st.dictionaries(keys, scalars(field, big), max_size=6))
    t = ZeroCubedTriple.from_entries(field, z_dim, x_dim, entries)
    x, y = data.draw(vecs(field, x_dim, big)), data.draw(vecs(field, x_dim, big))
    assert t.apply(x, y) == reference_zero_cubed_apply(t, x, y)


@SETTINGS
@given(st.data())
def test_is_isomorphism_agrees_with_the_basis_pair_loop(data):
    a = data.draw(st.sampled_from(VALID))
    field, n = a.field, a.dim
    s = data.draw(matrices(field, n, n, dependent=False))
    try:
        s_inv = s.inverse()
    except NotInvertibleError:
        s, s_inv = Mat.identity(field, n), Mat.identity(field, n)
    # b is a moved copy of a, a itself, or another member of the pool.
    others = [d for d in VALID if d.field is field and d.dim == n]
    b = data.draw(st.sampled_from([a.rebase(s), a] + others))
    # t is the inverse move (an isomorphism onto a moved b), the identity, a
    # singular matrix (zero, or the inverse move with its first row replaced
    # by its last), a drawn matrix (often singular) or one of the wrong shape.
    singular = [Mat.zero(field, n, n), Mat(field, s_inv.rows[-1:] + s_inv.rows[1:], n)]
    fixed = [s_inv, Mat.identity(field, n), Mat.identity(field, n + 1), *singular]
    t = data.draw(st.sampled_from(fixed) | matrices(field, n, n))
    assert is_isomorphism(a, b, t) == reference_is_isomorphism(a, b, t)


@pytest.mark.parametrize("field", [QQ, GF2, Field.prime(9973)], ids=["QQ", "GF2", "GF9973"])
def test_a_singular_map_is_no_isomorphism_even_where_the_equations_hold(field):
    # On zero products every homomorphism equation reads 0 = 0, so only the
    # rank of t decides.
    zero = Dialgebra.trivial(field, 2)
    rank_one = Mat.from_rows(field, [[1, 2], [2, 4]])
    for t in (Mat.zero(field, 2, 2), rank_one):
        assert not is_isomorphism(zero, zero, t)
        assert not reference_is_isomorphism(zero, zero, t)
    assert is_isomorphism(zero, zero, Mat.from_rows(field, [[1, 2], [0, 1]]))


def test_int_rows_over_q_reduce_to_fraction_rows():
    # Product tables hand int numerator rows to the pivot step; its pivots stay Fractions.
    from dialg.linalg import _span

    u = _span(QQ, 3, [[3, 1, 0], [0, 2, 5]])
    assert u == Subspace.from_vectors(QQ, 3, [[1, Fraction(1, 3), 0], [0, 1, Fraction(5, 2)]])
    assert all(type(c.value) is Fraction for r in u.basis.rows for c in r.coords)
