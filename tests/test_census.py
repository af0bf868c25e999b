import random
from collections import Counter
from itertools import combinations, product

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
    Dialgebra,
    InternalCheckError,
    Mat,
    NonPrimeError,
    NotInvertibleError,
    SearchBoundExceededError,
    are_isomorphic,
    automorphism_group,
    canonical_dialgebra,
    census,
    check_associative,
    check_dialgebra,
    classify_dim2,
    enumerate_valid_dialgebras,
    is_valid_dialgebra,
)
from dialg.gfsearch import valid_pairs
from helpers import (
    GF2,
    GF3,
    all_tensors,
    arrays_to_dialgebra,
    associative_indices,
    dialgebra_to_arrays,
    grown_valid_dialgebras,
    int_matrix_to_mat,
    int_tensor_to_product,
    reference_associative_indices,
    reference_census,
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
    # (p + 11) |GL(2, p)| = 28 * 78336 at p = 17.
    with pytest.raises(
        SearchBoundExceededError, match=r"^census over GF\(17\) in dim 2 needs 2193408 candidates"
    ):
        census(17)
    with pytest.raises(ValueError):
        census(2, dim=3)
    # Refused before any work that grows with p.
    with pytest.raises(SearchBoundExceededError, match=r"over GF\(1000000007\)"):
        census(1000000007, bound=1)


def test_enumerate_valid_dialgebras_refuses_at_the_call():
    # It is charged as the census is: (p + 11) |GL(2, p)|.
    with pytest.raises(
        SearchBoundExceededError, match=r"^census over GF\(17\) in dim 2 needs 2193408 candidates"
    ):
        enumerate_valid_dialgebras(17)
    with pytest.raises(ValueError, match="dim must be 2, got 3"):
        enumerate_valid_dialgebras(3, dim=3)
    assert len(list(enumerate_valid_dialgebras(2, bound=78))) == 49
    with pytest.raises(SearchBoundExceededError, match="needs 78 candidates, over the search bound 77$"):
        enumerate_valid_dialgebras(2, bound=77)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_enumeration_is_the_grown_valid_set_in_growth_order(p):
    # The growth needs more than the default bound from p = 11 on; at 11 this
    # is the valid_pairs call of test_census_agrees_with_the_growth_route[11],
    # so it is cached.
    grown = grown_valid_dialgebras(p, DEFAULT_SEARCH_BOUND if p < 11 else 10**9)
    enumerated = list(enumerate_valid_dialgebras(p))
    assert enumerated == grown
    for d in enumerated:
        assert (d.right is d.left) == (d.right == d.left)


def test_census_honours_the_search_bound():
    with pytest.raises(
        SearchBoundExceededError, match="needs 672 candidates, over the search bound 100$"
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


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_census_agrees_with_the_growth_route(p):
    # The growth needs more than the default bound from p = 11 on; the
    # census from the normal forms does not.
    classes = census(p)
    reference = reference_census(p, DEFAULT_SEARCH_BOUND if p < 11 else 10**9)
    assert [tuple(c) for c in classes] == reference
    assert sum(c.orbit_size for c in classes) == (p * p - 1) * (p + 2) ** 2 + 1
    gl_order = (p * p - 1) * (p * p - p)
    for c in classes:
        assert c.orbit_size * len(automorphism_group(c.representative)) == gl_order


def test_gf13_census_partitions_the_grown_valid_set():
    classes = census(13)
    assert len(classes) == 13 + 11
    assert sum(c.orbit_size for c in classes) == len(valid_pairs(13, 2, bound=10**9)[1])
    assert sum(c.orbit_size for c in classes) == 37801


@pytest.mark.parametrize("p, count", [(2, 49), (3, 201), (5, 1177), (7, 3889)])
def test_the_orbits_sum_to_the_mass_formula(p, count):
    # N(p) = (p^2 - 1)(p + 2)^2 + 1 valid pairs, the sum of |GL(2, p)| / |Aut|
    # over the p + 11 normal forms.
    assert (p * p - 1) * (p + 2) ** 2 + 1 == count
    assert sum(c.orbit_size for c in census(p)) == count


def test_a_missing_normal_form_fails_the_mass_formula(monkeypatch):
    # Without II_1 the other p + 10 orbits are still distinct, so only the
    # sum of the orbit sizes shows the gap.
    import dialg.classify as classify

    forms = classify._normal_forms(5)
    ii_1 = forms[len(classify._CANONICAL_POINTS)]  # II_k for k = 1..p-1 follow them
    assert ii_1[0] == ii_1[1]
    monkeypatch.setattr(classify, "_normal_forms", lambda p: [f for f in forms if f != ii_1])
    with pytest.raises(InternalCheckError, match=r"do not sum to N\(5\) = 1177"):
        census(5)
    with pytest.raises(InternalCheckError, match=r"do not sum to N\(5\) = 1177"):
        list(enumerate_valid_dialgebras(5))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_the_census_seeds_are_the_classifiers_tables(p):
    # The first p + 5 normal forms are the canonical tables, in the order of
    # _CANONICAL_POINTS and then II_k for k = 1..p-1, as flat residues.
    from dialg.classify import _CANONICAL_POINTS, _normal_forms

    field = Field.prime(p)
    kinds = [(kind, None) for kind in _CANONICAL_POINTS] + [(KIND_II, k) for k in range(1, p)]
    assert len(kinds) == p + 5
    tables = [canonical_dialgebra(kind, field, k) for kind, k in kinds]
    flat = [tuple(tuple(int(x) for x in a.ravel()) for a in dialgebra_to_arrays(d)) for d in tables]
    assert _normal_forms(p)[: p + 5] == flat


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_the_six_from_associative_forms(p):
    from dialg.classify import _normal_forms

    field = Field.prime(p)
    tables = _normal_forms(p)[-6:]
    forms = [arrays_to_dialgebra(field, *(np.reshape(t, (2, 2, 2)) for t in form)) for form in tables]
    for d in forms:
        assert d.products_equal()
        assert check_dialgebra(d) == []
        assert classify_dim2(d).kind == KIND_FROM_ASSOCIATIVE
    for a, b in combinations(forms, 2):
        assert are_isomorphic(a, b) is None
    # F + 0, left unit, right unit, F[e], F x F and GF(p^2).
    orders = [p - 1, p * (p - 1), p * (p - 1), p - 1, 2, 2]
    assert [len(automorphism_group(d)) for d in forms] == orders
    # GF(p^2) = F[x] / (x^2 - a x - b): x^2 = x + 1 over GF(2), else x^2 = b
    # for the least non-square b.
    field_table = tables[-1][0]
    a, b = field_table[7], field_table[6]
    squares = {x * x % p for x in range(p)}
    if p == 2:
        assert (a, b) == (1, 1)
    else:
        assert a == 0 and b not in squares and set(range(b)) <= squares


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


@pytest.mark.parametrize("p, n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 2), (7, 2)])
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


@pytest.mark.parametrize(
    "p, n, width",
    [(2, 4, "uint8"), (3, 3, "uint8"), (13, 2, "uint8"), (17, 2, "uint16"),
     (251, 1, "uint16"), (257, 1, "uint32"), (2, 0, "uint8")],
)
def test_gl_inverses_hold_at_the_width_edges(p, n, width):
    # Inverses are unique, so M @ M^-1 = I mod p for every g pins them all.
    from dialg.gfsearch import _work_dtype, gl_matrices

    assert _work_dtype(p) == np.dtype(width)
    mats, invs = gl_matrices(p, n)
    count = 1
    for k in range(n):
        count *= p**n - p**k
    assert len(mats) == len(invs) == count
    assert mats.dtype == invs.dtype == np.int64
    assert not mats.flags.writeable and not invs.flags.writeable
    products = np.einsum("gij,gjk->gik", mats, invs) % p
    assert (products == np.eye(n, dtype=np.int64)).all()


def test_gl_list_is_charged_its_order_against_the_search_bound():
    from dialg.gfsearch import gl_matrices

    assert len(gl_matrices(3, 3, bound=11232)[0]) == 11232
    with pytest.raises(
        SearchBoundExceededError,
        match=r"^GL\(3, 3\) list needs 11232 candidates, over the search bound 11231$",
    ):
        gl_matrices(3, 3, bound=11231)
    # Refused before anything is allocated: unguarded, this list alone
    # outgrows a few GB of memory.
    with pytest.raises(
        SearchBoundExceededError,
        match=rf"^GL\(5, 2\) list needs 9999360 candidates, over the search bound {DEFAULT_SEARCH_BOUND}$",
    ):
        gl_matrices(2, 5)


def test_census_charges_the_gl_list_against_its_own_bound(monkeypatch):
    import dialg.gfsearch as gfsearch

    bounds = []
    real = gfsearch.gl_matrices

    def spy(p, n, bound=DEFAULT_SEARCH_BOUND):
        bounds.append(bound)
        return real(p, n, bound)

    monkeypatch.setattr(gfsearch, "gl_matrices", spy)
    # The census builds no GL list: it is charged (2 + 11) |GL(2, 2)| = 78.
    assert len(census(2, bound=78)) == 13
    over = "needs 78 candidates, over the search bound 77$"
    with pytest.raises(SearchBoundExceededError, match=over):
        census(2, bound=77)
    assert bounds == []
    zero = np.zeros((2, 2, 2), dtype=np.int64)
    with pytest.raises(SearchBoundExceededError, match=r"^GL\(2, 3\) list needs 48 candidates"):
        gfsearch.pair_orbit(zero, zero, 3, 47)


def test_cold_gl_list_stays_at_residue_width_in_memory():
    # numpy reports its buffers to tracemalloc, so the peak repeats exactly.
    # The two returned int64 arrays of GL(4, 2) take 5.2 MB: the bound leaves
    # room for residue-width work arrays, not for int64 ones.
    import tracemalloc

    from dialg.gfsearch import gl_matrices

    gl_matrices.cache_clear()
    tracemalloc.start()
    try:
        gl_matrices(2, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 10**6


def test_vectorized_rebase_agrees_with_the_scalar_route(valid_gf3):
    from dialg.gfsearch import (
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


# The growth's residual dtype holds 2 n p^2: in dim 1 it switches from uint8
# to uint16 between p = 11 and 13 and to uint32 between p = 181 and 191, and
# p = 257 also widens the digits to uint16. In dim 2 it switches between
# p = 7 and 11, where the default bound refuses the growth.
@pytest.mark.parametrize(
    "p, n", [(2, 2), (31, 1), (11, 1), (13, 1), (181, 1), (191, 1), (257, 1)]
)
def test_narrow_growth_returns_int64_tables_and_codes(p, n):
    codes = associative_indices(p, n)
    assert codes.dtype == np.int64
    assert codes.tolist() == reference_associative_indices(p, n).tolist()
    tables, pairs = valid_pairs(p, n)
    assert tables.dtype == np.int64
    assert pairs == reference_valid_pairs(p, n)


@pytest.mark.parametrize(
    "p, n, width",
    [(11, 1, "uint8"), (13, 1, "uint16"), (181, 1, "uint16"), (191, 1, "uint32"),
     (7, 2, "uint8"), (11, 2, "uint16")],
)
def test_growth_residuals_widen_at_2_n_p_squared(p, n, width):
    from dialg.gfsearch import _growth_dtype

    assert _growth_dtype(p, n) == np.dtype(width)


def test_law_table_is_expanded_once_per_laws_and_dim():
    from dialg.identities import DIALGEBRA_LAWS, _law_equations

    _law_equations.cache_clear()
    valid_pairs.cache_clear()
    # helpers.associative_indices hands _grow its laws as a list.
    assert associative_indices(3, 2).tolist() == reference_associative_indices(3, 2).tolist()
    associative_indices(5, 2)
    valid_pairs(2, 2)
    valid_pairs(3, 2)
    info = _law_equations.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 2, 2)
    # Plain ints, one list entry per column of the flattened pair.
    equations = _law_equations(DIALGEBRA_LAWS, 2)
    assert len(equations) == 16 and sum(map(len, equations)) == 5 * 2**4
    for col, filed in enumerate(equations):
        for law, triple, out, lhs, rhs in filed:
            columns = [c for pair in lhs + rhs for c in pair]
            assert all(type(c) is int for c in (*triple, out, *columns))
            assert max(columns) == col


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
