import copy
import pickle
import random

import pytest

from dialg import (
    KIND_I,
    KIND_II,
    KIND_III,
    Dialgebra,
    FieldMismatchError,
    ProductTag,
    Subspace,
    Vec,
    canonical_dialgebra,
)
from helpers import GF2, GF5, QQ, random_invertible, random_scalar, random_vec

L, R = ProductTag.LEFT, ProductTag.RIGHT


def unit(field, n, i):
    return Vec.unit(field, n, i)


def test_multiply_reads_the_tables_of_I():
    d = canonical_dialgebra(KIND_I, QQ)
    r, s = unit(QQ, 2, 0), unit(QQ, 2, 1)
    assert d.multiply(R, s, r) == r
    assert d.multiply(L, r, s) == Vec.zero(QQ, 2)
    assert d.multiply(L, s, s) == s
    assert d.multiply(R, s, s) == s


def test_multiply_of_zero_is_zero():
    d = canonical_dialgebra(KIND_III, QQ)
    z = Vec.zero(QQ, 2)
    rng = random.Random(2)
    for _ in range(10):
        y = random_vec(QQ, 2, rng)
        assert d.multiply(L, z, y) == z
        assert d.multiply(R, y, z) == z


@pytest.mark.parametrize("field", [QQ, GF5])
def test_multiply_is_bilinear(field):
    d = canonical_dialgebra(KIND_I, field)
    rng = random.Random(23)
    for _ in range(40):
        a, b = random_scalar(field, rng), random_scalar(field, rng)
        x, x2, y = (random_vec(field, 2, rng) for _ in range(3))
        for tag in (L, R):
            lhs = d.multiply(tag, x.scale(a) + x2.scale(b), y)
            rhs = d.multiply(tag, x, y).scale(a) + d.multiply(tag, x2, y).scale(b)
            assert lhs == rhs
            lhs = d.multiply(tag, y, x.scale(a) + x2.scale(b))
            rhs = d.multiply(tag, y, x).scale(a) + d.multiply(tag, y, x2).scale(b)
            assert lhs == rhs


def test_product_subspace_dimensions_of_the_canonical_forms():
    full = Subspace.full(QQ, 2)
    d = canonical_dialgebra(KIND_I, QQ)
    left_square = d.product_subspace(L, full, full)
    assert left_square.dim == 1
    assert left_square.contains(unit(QQ, 2, 1))  # span of s
    assert canonical_dialgebra(KIND_III, QQ).product_subspace(L, full, full).dim == 2


def test_product_subspace_of_trivial_is_zero():
    d = Dialgebra.trivial(QQ, 2)
    full = Subspace.full(QQ, 2)
    assert d.product_subspace(L, full, full) == Subspace.zero(QQ, 2)


def test_product_subspace_is_monotone():
    rng = random.Random(31)
    d = canonical_dialgebra(KIND_I, GF5).rebase(random_invertible(GF5, 2, rng))
    full = Subspace.full(GF5, 2)
    for vecs in ([unit(GF5, 2, 0)], [unit(GF5, 2, 1)], []):
        u = Subspace.from_vectors(GF5, 2, vecs)
        for tag in (L, R):
            inner = d.product_subspace(tag, u, u)
            outer = d.product_subspace(tag, full, full)
            assert inner.is_subspace_of(outer)


def test_as_single_views():
    d = canonical_dialgebra(KIND_I, QQ)
    la = d.as_single(L)
    s = unit(QQ, 2, 1)
    assert la.multiply(s, s) == s
    assert la.multiply(s, unit(QQ, 2, 0)) == Vec.zero(QQ, 2)
    trivial = Dialgebra.trivial(QQ, 2).as_single(R)
    assert trivial.product.is_zero()
    d2 = canonical_dialgebra(KIND_II, GF2, 1)
    assert d2.as_single(R).multiply(s_gf2 := unit(GF2, 2, 1), s_gf2) == unit(GF2, 2, 0)


def test_dimension_mismatch_rejected():
    d = canonical_dialgebra(KIND_I, QQ)
    with pytest.raises(FieldMismatchError):
        d.multiply(L, Vec.zero(QQ, 3), Vec.zero(QQ, 2))
    with pytest.raises(FieldMismatchError):
        d.multiply(L, Vec.zero(GF2, 2), Vec.zero(GF2, 2))


def test_rebase_composition():
    rng = random.Random(9)
    d = canonical_dialgebra(KIND_I, QQ)
    t1 = random_invertible(QQ, 2, rng)
    t2 = random_invertible(QQ, 2, rng)
    assert d.rebase(t1).rebase(t2) == d.rebase(t2 @ t1)


def test_rebase_by_identity_is_identity():
    from dialg import Mat

    d = canonical_dialgebra(KIND_III, GF5)
    assert d.rebase(Mat.identity(GF5, 2)) == d


def test_products_equal_flag():
    from dialg import from_associative
    from helpers import square_algebra

    assert from_associative(square_algebra(QQ)).products_equal()
    assert not canonical_dialgebra(KIND_I, QQ).products_equal()


@pytest.mark.parametrize("field", [QQ, GF2, GF5])
def test_vectors_and_dialgebras_survive_pickle_and_deepcopy(field):
    d = canonical_dialgebra(KIND_II, field, 1).rebase(random_invertible(field, 2, random.Random(3)))
    d.left.sparse  # a built raw view travels along and stays equal
    v = Vec.of(field, [1, 2])
    for obj in (v, d):
        for clone in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert clone == obj and clone.field is field
    clone = pickle.loads(pickle.dumps(d))
    assert clone.left.sparse == d.left.sparse
    assert clone.left.apply(v, v) == d.left.apply(v, v)
