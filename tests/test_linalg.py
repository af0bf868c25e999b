import random
from itertools import product

import pytest

from dialg import (
    FieldMismatchError,
    Mat,
    NotInvertibleError,
    Subspace,
    Vec,
    all_subspaces,
    kernel,
    rref,
    solve,
)
from helpers import GF2, GF3, GF5, QQ, random_invertible, random_subspace, random_vec


def mat(field, rows):
    return Mat.from_rows(field, rows, ncols=len(rows[0]) if rows else None)


def test_rref_identity_is_fixed():
    m = Mat.identity(GF2, 2)
    red, rank = rref(m)
    assert red == m and rank == 2


def test_rref_proportional_rows_collapse():
    red, rank = rref(mat(QQ, [[2, 4], [1, 2]]))
    assert rank == 1
    assert red.row(0) == Vec.of(QQ, [1, 2])
    assert not red.row(1)


def test_rref_gf2_hand_elimination():
    # rows (1,1), (1,0): eliminate to the full standard basis.
    red, rank = rref(mat(GF2, [[1, 1], [1, 0]]))
    assert rank == 2
    assert red == Mat.identity(GF2, 2)


@pytest.mark.parametrize("field", [QQ, GF2, GF3, GF5])
def test_rref_is_idempotent(field):
    rng = random.Random(7)
    for _ in range(30):
        rows = [random_vec(field, 4, rng) for _ in range(rng.randrange(1, 5))]
        m = Mat(field, tuple(rows), 4)
        red, _ = rref(m)
        again, _ = rref(red)
        assert again == red


@pytest.mark.parametrize("field", [QQ, GF2, GF3, GF5])
def test_rank_nullity(field):
    rng = random.Random(11)
    for _ in range(30):
        ncols = rng.randrange(1, 5)
        rows = [random_vec(field, ncols, rng) for _ in range(rng.randrange(1, 5))]
        m = Mat(field, tuple(rows), ncols)
        _, rank = rref(m)
        assert rank + kernel(m).dim == ncols


def test_kernel_of_zero_matrix_is_everything():
    assert kernel(Mat.zero(QQ, 2, 2)) == Subspace.full(QQ, 2)


def test_kernel_of_identity_is_zero():
    assert kernel(Mat.identity(GF3, 3)) == Subspace.zero(GF3, 3)


def test_kernel_rank_one_rational():
    # (1 2; 2 4) kills (-2, 1); canonical basis (1, -1/2).
    k = kernel(mat(QQ, [[1, 2], [2, 4]]))
    assert k.dim == 1
    assert k.basis.row(0) == Vec.of(QQ, [1, "-1/2"])


def test_kernel_vectors_actually_solve():
    rng = random.Random(3)
    for field in (QQ, GF3):
        for _ in range(20):
            rows = [random_vec(field, 3, rng) for _ in range(2)]
            m = Mat(field, tuple(rows), 3)
            for b in kernel(m).basis.rows:
                assert not (m @ b)


def test_solve_against_exhaustive_enumeration():
    # Independent oracle: enumerate every x over the finite field.
    rng = random.Random(5)
    for field in (GF2, GF3):
        for _ in range(25):
            nrows, ncols = rng.randrange(1, 4), rng.randrange(1, 4)
            m = Mat(field, tuple(random_vec(field, ncols, rng) for _ in range(nrows)), ncols)
            b = random_vec(field, nrows, rng)
            expected = {
                tuple(s.value for s in x.coords)
                for x in (
                    Vec(field, coords)
                    for coords in product(field.elements(), repeat=ncols)
                )
                if m @ x == b
            }
            got = solve(m, b)
            if got is None:
                assert expected == set()
            else:
                point, hom = got
                found = {
                    tuple(s.value for s in (point + h).coords) for h in hom.elements()
                }
                assert found == expected


def test_subspace_sum_is_idempotent():
    u = Subspace.from_vectors(QQ, 3, [Vec.of(QQ, [1, 2, 3]), Vec.of(QQ, [0, 1, 1])])
    assert u.sum(u) == u


def test_axis_lines_intersect_trivially():
    u = Subspace.from_vectors(QQ, 2, [Vec.of(QQ, [1, 0])])
    v = Subspace.from_vectors(QQ, 2, [Vec.of(QQ, [0, 1])])
    assert u.intersect(v) == Subspace.zero(QQ, 2)


def test_two_distinct_lines_span_gf2_plane():
    u = Subspace.from_vectors(GF2, 2, [Vec.of(GF2, [1, 0])])
    v = Subspace.from_vectors(GF2, 2, [Vec.of(GF2, [1, 1])])
    total = u.sum(v)
    assert total == Subspace.full(GF2, 2)
    # All four plane vectors really appear.
    assert {tuple(s.value for s in w.coords) for w in total.elements()} == {
        (0, 0), (1, 0), (0, 1), (1, 1),
    }


@pytest.mark.parametrize("field", [QQ, GF2, GF3])
def test_dimension_formula(field):
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randrange(1, 5)
        u = random_subspace(field, n, rng)
        v = random_subspace(field, n, rng)
        assert u.dim + v.dim == u.sum(v).dim + u.intersect(v).dim


def test_contains_and_reduce():
    u = Subspace.from_vectors(QQ, 3, [Vec.of(QQ, [1, 0, 2]), Vec.of(QQ, [0, 1, 1])])
    assert u.contains(Vec.of(QQ, [2, 3, 7]))
    assert not u.contains(Vec.of(QQ, [0, 0, 1]))


def test_subspace_equality_is_canonical():
    u = Subspace.from_vectors(QQ, 2, [Vec.of(QQ, [2, 4])])
    v = Subspace.from_vectors(QQ, 2, [Vec.of(QQ, [1, 2])])
    assert u == v
    assert hash(u) == hash(v)


def test_mismatched_spaces_raise():
    u = Subspace.from_vectors(QQ, 2, [Vec.of(QQ, [1, 0])])
    v = Subspace.from_vectors(GF2, 2, [Vec.of(GF2, [1, 0])])
    with pytest.raises(FieldMismatchError):
        u.sum(v)
    w = Subspace.from_vectors(QQ, 3, [Vec.of(QQ, [1, 0, 0])])
    with pytest.raises(FieldMismatchError):
        u.intersect(w)


def test_all_subspaces_counts():
    # Lines through the origin: p + 1 of them in a plane, plus 0 and the plane.
    assert len(list(all_subspaces(GF2, 2))) == 5
    assert len(list(all_subspaces(GF3, 2))) == 6
    assert len(list(all_subspaces(GF2, 3))) == 16


def test_all_subspaces_are_distinct_and_canonical():
    seen = set(all_subspaces(GF3, 2))
    assert len(seen) == 6


def test_matrix_inverse_round_trip():
    rng = random.Random(17)
    for field in (QQ, GF5):
        for n in (1, 2, 3):
            m = random_invertible(field, n, rng)
            assert m @ m.inverse() == Mat.identity(field, n)
            assert m.inverse() @ m == Mat.identity(field, n)


def test_singular_matrix_has_no_inverse():
    with pytest.raises(NotInvertibleError):
        mat(QQ, [[1, 2], [2, 4]]).inverse()


def test_row_vector_matrix_action():
    m = mat(QQ, [[1, 2], [3, 4]])
    assert Vec.of(QQ, [1, 1]) @ m == Vec.of(QQ, [4, 6])
    assert m @ Vec.of(QQ, [1, 1]) == Vec.of(QQ, [3, 7])


@pytest.mark.parametrize("field", [QQ, GF2, GF5])
def test_transpose_and_matrix_vector_product_are_the_entrywise_ones(field):
    rng = random.Random(f"transpose {field}")
    for nrows, ncols in [(0, 3), (3, 0), (0, 0), (1, 1), (2, 3), (4, 4), (3, 5)]:
        m = Mat(field, [random_vec(field, ncols, rng) for _ in range(nrows)], ncols)
        t = m.transpose()
        assert t.shape == (ncols, nrows) and t.transpose() == m
        assert all(t.entry(j, i) == m.entry(i, j) for i in range(nrows) for j in range(ncols))
        x = random_vec(field, ncols, rng)
        want = [sum((m.entry(i, j) * x[j] for j in range(ncols)), field.zero) for i in range(nrows)]
        assert m @ x == Vec(field, want)


def test_zero_row_matrix_keeps_shape():
    m = Mat(QQ, (), 3)
    red, rank = rref(m)
    assert rank == 0 and red.ncols == 3
    assert kernel(m) == Subspace.full(QQ, 3)
