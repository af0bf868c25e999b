import random
from collections import Counter
from itertools import product

import numpy as np
import pytest

from dialg import (
    DEFAULT_SEARCH_BOUND,
    KIND_FROM_ASSOCIATIVE,
    KIND_I,
    KIND_II,
    KIND_III,
    KIND_IV,
    KIND_TRIVIAL,
    KIND_ZERO_CUBED_LEFT,
    KIND_ZERO_CUBED_RIGHT,
    Field,
    Algebra,
    Mat,
    NonPrimeError,
    NotInvertibleError,
    SearchBoundExceededError,
    are_isomorphic,
    automorphism_group,
    census,
    check_associative,
    check_dialgebra,
    enumerate_valid_dialgebras,
    is_valid_dialgebra,
)
from dialg.gfsearch import (
    arrays_to_dialgebra,
    associative_indices,
    int_tensor_to_product,
    valid_pairs,
)
from helpers import (
    GF2,
    GF3,
    all_tensors,
    int_matrix_to_mat,
    reference_associative_indices,
    reference_valid_pairs,
)

ALLOWED_KINDS = {
    KIND_TRIVIAL,
    KIND_ZERO_CUBED_LEFT,
    KIND_ZERO_CUBED_RIGHT,
    KIND_FROM_ASSOCIATIVE,
    KIND_I,
    KIND_II,
    KIND_III,
    KIND_IV,
}


def test_census_parameters_out_of_range():
    with pytest.raises(SearchBoundExceededError, match="needs 1960321 candidates"):
        census(11)
    with pytest.raises(ValueError):
        census(2, dim=3)


def test_enumerate_valid_dialgebras_refuses_at_the_call():
    with pytest.raises(SearchBoundExceededError, match="needs 1960321 candidates"):
        enumerate_valid_dialgebras(11)
    with pytest.raises(ValueError, match="dim must be 2, got 3"):
        enumerate_valid_dialgebras(3, dim=3)


def test_census_honours_the_search_bound():
    with pytest.raises(
        SearchBoundExceededError, match="needs 243 candidates, over the search bound 100$"
    ):
        census(3, bound=100)


def test_census_refuses_non_primes():
    with pytest.raises(NonPrimeError):
        census(4)


def test_gf5_census_has_p_plus_11_classes_that_partition_the_valid_set():
    classes = census(5)
    assert len(classes) == 5 + 11
    assert sum(c.label.kind == KIND_II for c in classes) == 4
    assert sum(c.orbit_size for c in classes) == 1177
    # Orbit-stabilizer: every orbit of GL(2, 5), of order 480, times its stabilizer.
    for c in classes:
        assert c.orbit_size * len(automorphism_group(c.representative)) == 480


def test_gf7_census_has_p_plus_11_classes_that_partition_the_valid_set():
    classes = census(7)
    assert len(classes) == 7 + 11
    assert sum(c.label.kind == KIND_II for c in classes) == 6
    assert sum(c.orbit_size for c in classes) == 3889
    # Orbit-stabilizer again, with |GL(2, 7)| = 2016.
    for c in classes:
        assert c.orbit_size * len(automorphism_group(c.representative)) == 2016


def test_gf2_census_shape(census_gf2):
    kinds = Counter(c.label.kind for c in census_gf2)
    assert set(kinds) <= ALLOWED_KINDS
    for named in (KIND_I, KIND_II, KIND_III, KIND_IV):
        assert kinds[named] == 1
    assert kinds[KIND_TRIVIAL] == 1
    assert kinds[KIND_ZERO_CUBED_LEFT] == 1
    assert kinds[KIND_ZERO_CUBED_RIGHT] == 1


def test_gf2_trivial_class_is_a_singleton_orbit(census_gf2):
    trivial = [c for c in census_gf2 if c.label.kind == KIND_TRIVIAL]
    assert len(trivial) == 1 and trivial[0].orbit_size == 1


def test_gf2_orbits_partition_the_valid_set(census_gf2, valid_gf2):
    assert sum(c.orbit_size for c in census_gf2) == len(valid_gf2)


def test_gf2_representatives_are_valid_and_lex_sorted(census_gf2):
    reps = []
    for c in census_gf2:
        assert check_dialgebra(c.representative) == []
        key = tuple(
            e.value
            for prod in (c.representative.left, c.representative.right)
            for i in range(2)
            for j in range(2)
            for e in prod.row(i, j).coords
        )
        reps.append(key)
    assert reps == sorted(reps)


def test_gf2_representatives_are_pairwise_non_isomorphic(census_gf2):
    reps = [c.representative for c in census_gf2]
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert are_isomorphic(reps[i], reps[j]) is None


def test_gf3_II_family_has_two_classes(census_gf3):
    ks = sorted(str(c.label.k) for c in census_gf3 if c.label.kind == KIND_II)
    assert ks == ["1", "2"]


def test_gf3_orbits_partition_the_valid_set(census_gf3, valid_gf3):
    assert sum(c.orbit_size for c in census_gf3) == len(valid_gf3)
    kinds = Counter(c.label.kind for c in census_gf3)
    assert set(kinds) <= ALLOWED_KINDS
    for named in (KIND_I, KIND_III, KIND_IV):
        assert kinds[named] == 1


def test_every_valid_gf2_pair_passes_the_scalar_checker(valid_gf2):
    # Positive half of the fast-filter agreement: everything the vectorized
    # enumeration accepted really satisfies the laws.
    for d in valid_gf2:
        assert check_dialgebra(d) == []


def test_rejected_pairs_really_fail_the_scalar_checker():
    # Negative half, on a deterministic sample of non-valid pairs.
    tensors = all_tensors(2, 2)
    _, pairs = valid_pairs(2, 2)
    accepted = set(pairs)
    rng = random.Random(1234)
    checked = 0
    while checked < 300:
        li = rng.randrange(len(tensors))
        ri = rng.randrange(len(tensors))
        if (li, ri) in accepted:
            continue
        d = arrays_to_dialgebra(GF2, tensors[li], tensors[ri])
        assert check_dialgebra(d) != []
        checked += 1


def test_orbit_members_classify_like_their_representative(census_gf2):
    from dialg import classify_dim2
    from dialg.gfsearch import gl_matrices

    mats, _ = gl_matrices(2, 2)
    for c in census_gf2:
        if c.label.kind not in (KIND_I, KIND_II, KIND_III, KIND_IV):
            continue
        for g in range(len(mats)):
            member = c.representative.rebase(int_matrix_to_mat(GF2, mats[g]))
            label = classify_dim2(member)
            assert label.kind == c.label.kind
            assert label.k == c.label.k


def test_all_tensors_enumeration_is_lexicographic():
    tensors = all_tensors(2, 2)
    assert len(tensors) == 256
    flat0 = tensors[0].reshape(-1)
    flat1 = tensors[1].reshape(-1)
    assert list(flat0) == [0] * 8
    assert list(flat1) == [0] * 7 + [1]
    for p in (2, 3):
        expected = list(product(range(p), repeat=8))
        assert all_tensors(p, 2).reshape(len(expected), 8).tolist() == [list(t) for t in expected]


@pytest.mark.parametrize("p, n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 2)])
def test_gl_matrices_are_the_invertible_matrices_in_lexicographic_order(p, n):
    from dialg.gfsearch import gl_matrices

    field = Field.prime(p)
    expected = []
    for entries in product(range(p), repeat=n * n):
        m = Mat.from_rows(field, [entries[r * n : (r + 1) * n] for r in range(n)])
        try:
            expected.append((m, m.inverse()))
        except NotInvertibleError:
            pass
    mats, invs = gl_matrices(p, n)
    assert len(mats) == len(invs) == len(expected)
    for g, (m, inv) in enumerate(expected):
        assert mats[g].tolist() == [[c.value for c in row] for row in m.rows]
        assert invs[g].tolist() == [[c.value for c in row] for row in inv.rows]


def test_vectorized_rebase_agrees_with_the_scalar_route(valid_gf3):
    from dialg.gfsearch import (
        dialgebra_to_arrays,
        gl_matrices,
        transform_tensor_batch,
    )

    d = valid_gf3[len(valid_gf3) // 2]
    left, right = dialgebra_to_arrays(d)
    mats, invs = gl_matrices(3, 2)
    batch_left = transform_tensor_batch(left, mats, invs, 3)
    batch_right = transform_tensor_batch(right, mats, invs, 3)
    for g in range(0, len(mats), 7):
        direct = d.rebase(int_matrix_to_mat(GF3, mats[g]))
        fast = arrays_to_dialgebra(GF3, batch_left[g], batch_right[g])
        assert direct == fast


@pytest.mark.parametrize("p", [2, 3, 5])
def test_law_screen_matches_the_einsum_reference(p):
    for n in (1, 2):
        assert associative_indices(p, n).tolist() == reference_associative_indices(p, n).tolist()
        tables, pairs = valid_pairs(p, n)
        assert pairs == reference_valid_pairs(p, n)
        # Each pair's tables are the dense tensors its codes index.
        tensors = all_tensors(p, n)
        assert tables.tolist() == [[tensors[li].tolist(), tensors[ri].tolist()] for li, ri in pairs]


@pytest.mark.parametrize("p, n", [(2, 2), (31, 1)])
def test_narrow_growth_returns_int64_tables_and_codes(p, n):
    codes = associative_indices(p, n)
    assert codes.dtype == np.int64
    assert codes.tolist() == reference_associative_indices(p, n).tolist()
    tables, pairs = valid_pairs(p, n)
    assert tables.dtype == np.int64
    assert pairs == reference_valid_pairs(p, n)


@pytest.mark.parametrize("field", [GF2, GF3], ids=["gf2", "gf3"])
def test_associative_indices_agree_with_the_exact_checker(field):
    assoc = set(associative_indices(field.p, 2).tolist())
    for index, tensor in enumerate(all_tensors(field.p, 2)):
        algebra = Algebra(field, 2, int_tensor_to_product(field, tensor))
        assert (check_associative(algebra) == []) == (index in assoc)


def test_valid_pairs_agree_with_the_exact_checker_on_associative_gf2_pairs():
    tensors = all_tensors(2, 2)
    _, pairs = valid_pairs(2, 2)
    accepted = set(pairs)
    assoc = associative_indices(2, 2).tolist()
    assert len(assoc) ** 2 == 784
    for li, ri in product(assoc, repeat=2):
        d = arrays_to_dialgebra(GF2, tensors[li], tensors[ri])
        assert is_valid_dialgebra(d) == ((li, ri) in accepted)


def test_gf5_screen_counts_are_pinned():
    assert len(associative_indices(5, 2)) == 793
    _, pairs = valid_pairs(5, 2)
    assert len(pairs) == 1177
    assert all(a < b for a, b in zip(pairs, pairs[1:]))


@pytest.mark.parametrize("p, n, needed", [(3, 3, 3**13), (11, 2, 1960321)])
def test_pair_growth_is_refused_beyond_the_search_bound(p, n, needed):
    message = f"needs {needed} candidates, over the search bound {DEFAULT_SEARCH_BOUND}$"
    with pytest.raises(SearchBoundExceededError, match=message):
        valid_pairs(p, n)
