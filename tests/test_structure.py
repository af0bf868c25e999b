import random
from fractions import Fraction
from functools import reduce
from itertools import islice, product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dialg.structure as structure
from dialg import (
    KIND_I,
    KIND_II,
    Algebra,
    BilinearProduct,
    Dialgebra,
    Field,
    FieldMismatchError,
    NotZeroCubedError,
    ProductTag,
    SearchBoundExceededError,
    Subspace,
    UnsupportedOverRationalsError,
    Vec,
    ZeroCubedTriple,
    algebra_annihilator,
    algebra_ideals,
    algebra_prime,
    algebra_semiprime,
    algebra_simple,
    all_subspaces,
    annihilators,
    are_isomorphic,
    automorphism_group,
    canonical_dialgebra,
    from_associative,
    generated_ideal,
    is_ideal,
    is_valid_dialgebra,
    is_zero_cubed,
    structure_flags,
    triples_equivalent,
    zero_cubed_build,
    zero_cubed_decompose,
)
from dialg.gfsearch import gl_matrices
from dialg.structure import is_algebra_ideal
from helpers import (
    GF2,
    GF3,
    GF5,
    QQ,
    int_matrix_to_mat,
    matrix_algebra,
    random_invertible,
    random_nonzero_scalar,
    random_scalar,
    random_valid_dialgebras,
    reference_closure,
    reference_ideals,
    reference_prime,
    reference_semiprime,
    reference_simple,
    reference_subspace_product,
    reference_triples_equivalent,
    square_algebra,
    upper_triangular_algebra,
)

L, R = ProductTag.LEFT, ProductTag.RIGHT


def span(field, n, rows):
    return Subspace.from_vectors(field, n, [Vec.of(field, r) for r in rows])


def test_annihilators_of_I():
    prof = annihilators(canonical_dialgebra(KIND_I, QQ))
    r_line = span(QQ, 2, [[1, 0]])
    assert prof.rann_left == r_line
    assert prof.lann_right == r_line
    assert prof.ann == r_line
    assert prof.rann_right.dim == 0


def test_annihilators_of_the_trivial_dialgebra():
    prof = annihilators(Dialgebra.trivial(QQ, 2))
    full = Subspace.full(QQ, 2)
    assert prof.rann_left == full
    assert prof.lann_left == full
    assert prof.rann_right == full
    assert prof.lann_right == full
    assert prof.ann == full


def test_annihilators_of_a_unital_line():
    d = from_associative(Algebra.from_entries(QQ, 1, {(0, 0, 0): 1}))
    prof = annihilators(d)
    for sub in (prof.rann_left, prof.lann_left, prof.rann_right, prof.lann_right, prof.ann):
        assert sub.dim == 0


def test_ann_is_the_stated_intersection():
    for d in random_valid_dialgebras(30, seed=4):
        prof = annihilators(d)
        assert prof.ann == prof.rann_left.intersect(prof.lann_right)


def test_is_ideal_examples_from_I():
    d = canonical_dialgebra(KIND_I, QQ)
    assert is_ideal(d, span(QQ, 2, [[1, 0]]))
    assert not is_ideal(d, span(QQ, 2, [[0, 1]]))  # s |> r = r escapes
    assert is_ideal(d, Subspace.zero(QQ, 2))


def test_generated_ideal_examples_from_I():
    d = canonical_dialgebra(KIND_I, QQ)
    assert generated_ideal(d, span(QQ, 2, [[0, 1]])) == Subspace.full(QQ, 2)
    assert generated_ideal(d, span(QQ, 2, [[1, 0]])) == span(QQ, 2, [[1, 0]])
    assert generated_ideal(d, Subspace.zero(QQ, 2)) == Subspace.zero(QQ, 2)


def test_generated_ideal_is_an_ideal_containing_the_seed():
    rng = random.Random(42)
    for d in random_valid_dialgebras(20, seed=6):
        seed_vecs = [Vec.of(d.field, [rng.randint(-2, 2) if not d.field.is_finite else rng.randrange(d.field.p) for _ in range(d.dim)])]
        seed = Subspace.from_vectors(d.field, d.dim, seed_vecs)
        grown = generated_ideal(d, seed)
        assert seed.is_subspace_of(grown)
        assert is_ideal(d, grown)


# Each ideal entry point with a subspace of the wrong field, or of a smaller
# or larger ambient space, than the dim-2 GF(2) algebra it is asked about.
WRONG_SPACES = [
    Subspace.from_vectors(GF3, 2, [Vec.of(GF3, [1, 0])]),
    Subspace.from_vectors(GF2, 1, [Vec.of(GF2, [1])]),
    Subspace.from_vectors(GF2, 3, [Vec.of(GF2, [1, 0, 0])]),
]
IDEAL_ENTRY_POINTS = {
    "is_ideal": lambda a, u: is_ideal(from_associative(a), u),
    "generated_ideal": lambda a, u: generated_ideal(from_associative(a), u),
    "is_algebra_ideal": is_algebra_ideal,
}


@pytest.mark.parametrize("u", WRONG_SPACES, ids=["wrong-field", "smaller-dim", "larger-dim"])
@pytest.mark.parametrize("entry", IDEAL_ENTRY_POINTS.values(), ids=IDEAL_ENTRY_POINTS.keys())
def test_ideal_entry_points_refuse_a_subspace_of_another_space(entry, u):
    with pytest.raises(FieldMismatchError):
        entry(square_algebra(GF2), u)


def _values(field):
    if field is QQ:
        return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    return st.integers(0, field.p - 1)


@st.composite
def closure_cases(draw):
    """(u, products, stop): one or two random tables of dim 0-4 over Q,
    GF(2), GF(3) or GF(5), not necessarily associative; u is the zero space,
    the full space or the span of random vectors; stop is None or u.dim + 1."""
    field = draw(st.sampled_from([QQ, GF2, GF3, GF5]))
    n = draw(st.integers(0, 4))
    values = _values(field)

    def table():
        if n == 0:
            return BilinearProduct.zero(field, 0)
        idx = st.integers(0, n - 1)
        entries = draw(st.dictionaries(st.tuples(idx, idx, idx), values, max_size=2 * n))
        return BilinearProduct.from_entries(field, n, entries)

    products = tuple(table() for _ in range(draw(st.integers(1, 2))))
    kind = draw(st.sampled_from(["zero", "full", "span"]))
    if kind == "zero":
        u = Subspace.zero(field, n)
    elif kind == "full":
        u = Subspace.full(field, n)
    else:
        vectors = draw(st.lists(st.lists(values, min_size=n, max_size=n), max_size=n))
        u = Subspace.from_vectors(field, n, [Vec.of(field, v) for v in vectors])
    stop = draw(st.sampled_from([None, u.dim + 1]))
    return u, products, stop


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(closure_cases())
def test_raw_closure_matches_the_vec_closure(case):
    u, products, stop = case
    assert structure._closure(u, products, stop) == reference_closure(u, products, stop)


@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(closure_cases(), st.data())
def test_raw_subspace_product_matches_the_vec_span(case, data):
    u, products, _ = case
    v = data.draw(st.sampled_from([u, Subspace.full(u.field, u.ambient_dim)]))
    for m in products:
        assert m.subspace_product(u, v) == reference_subspace_product(m, u, v)
        assert m.subspace_product(v, u) == reference_subspace_product(m, v, u)


def test_field_line_is_simple():
    d = from_associative(Algebra.from_entries(GF2, 1, {(0, 0, 0): 1}))
    flags = structure_flags(d)
    assert flags.simple_left and flags.simple_right


def test_II_1_over_gf2_is_not_semiprime():
    flags = structure_flags(canonical_dialgebra(KIND_II, GF2, 1))
    assert flags.semiprime_left is False
    # span{r} is an ideal of the left view squaring to zero.
    a = canonical_dialgebra(KIND_II, GF2, 1).as_single(L)
    line = span(GF2, 2, [[1, 0]])
    assert line in set(algebra_ideals(a))
    assert a.product.subspace_product(line, line).dim == 0


def test_square_type_algebra_is_not_semiprime_over_gf3():
    a = square_algebra(GF3)
    assert algebra_semiprime(a) is False
    assert algebra_prime(a) is False
    assert algebra_simple(a) is False


def test_structure_flags_unsupported_over_the_rationals():
    flags = structure_flags(canonical_dialgebra(KIND_I, QQ))
    assert flags.products_equal is False
    for name in ("simple_left", "simple_right", "semiprime_left", "semiprime_right", "prime_left", "prime_right"):
        assert getattr(flags, name) is None


def test_structure_flags_respects_the_search_bound():
    with pytest.raises(SearchBoundExceededError):
        structure_flags(canonical_dialgebra(KIND_I, GF5), bound=3)


def _gf5_I():
    return canonical_dialgebra(KIND_I, GF5)


@pytest.mark.parametrize(
    "search, needed",
    [
        (lambda bound: structure_flags(_gf5_I(), bound=bound), 25),
        (lambda bound: algebra_simple(upper_triangular_algebra(GF3), bound=bound), 27),
        (lambda bound: are_isomorphic(_gf5_I(), _gf5_I(), bound=bound), 625),
        (lambda bound: automorphism_group(_gf5_I(), bound=bound), 625),
        (
            lambda bound: triples_equivalent(
                ZeroCubedTriple.from_entries(GF3, 1, 2, {}),
                ZeroCubedTriple.from_entries(GF3, 1, 2, {}),
                bound=bound,
            ),
            243,
        ),
    ],
    ids=[
        "structure_flags",
        "algebra_simple",
        "are_isomorphic",
        "automorphism_group",
        "triples_equivalent",
    ],
)
def test_search_bound_error_states_candidates_and_bound(search, needed):
    with pytest.raises(
        SearchBoundExceededError, match=f"needs {needed} candidates, over the search bound 20$"
    ):
        search(20)


@pytest.mark.parametrize("p, n", [(2, 0), (2, 3), (2, 5), (3, 2), (3, 3), (5, 2)])
def test_algebra_ideals_bound_counts_every_subspace(p, n):
    zero = Algebra.from_entries(Field.prime(p), n, {})
    count = len(list(all_subspaces(zero.field, n)))
    assert len(algebra_ideals(zero, bound=count)) == count
    with pytest.raises(
        SearchBoundExceededError,
        match=f"^ideal enumeration in GF\\({p}\\)\\^{n} needs {count} candidates, "
        f"over the search bound {count - 1}$",
    ):
        algebra_ideals(zero, bound=count - 1)


def test_algebra_ideals_refuses_more_subspaces_than_the_bound():
    # GF(2)^5 has 32 vectors but 374 subspaces, all of them ideals here.
    with pytest.raises(
        SearchBoundExceededError, match="needs 374 candidates, over the search bound 100$"
    ):
        algebra_ideals(Algebra.from_entries(GF2, 5, {}), bound=100)


# (p, dim) of the random tables checked against the ideal-list formulas.
PERFECTION_SIZES = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)]


@st.composite
def small_algebras(draw):
    """Single-product tables over GF(p), mostly not associative; a split point
    m > 0 keeps only the blocks of a direct sum F^m + F^(n-m)."""
    p, n = draw(st.sampled_from(PERFECTION_SIZES))
    m = draw(st.integers(0, n - 1))
    idx = st.integers(0, n - 1)
    entries = draw(
        st.dictionaries(st.tuples(idx, idx, idx), st.integers(1, p - 1), max_size=n**3)
    )
    blocks = {key: c for key, c in entries.items() if m == 0 or len({t < m for t in key}) == 1}
    return Algebra.from_entries(Field.prime(p), n, blocks)


def _check_perfection_against_the_ideal_list(a):
    ideals = algebra_ideals(a)
    assert ideals == reference_ideals(a)
    assert algebra_simple(a) is reference_simple(a, ideals)
    assert algebra_semiprime(a) is reference_semiprime(a, ideals)
    assert algebra_prime(a) is reference_prime(a, ideals)


@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(small_algebras())
def test_perfection_predicates_match_the_ideal_list_formulas(a):
    _check_perfection_against_the_ideal_list(a)


def test_perfection_of_the_zero_dimensional_algebra():
    a = Algebra.from_entries(GF2, 0, {})
    _check_perfection_against_the_ideal_list(a)
    assert (algebra_simple(a), algebra_semiprime(a), algebra_prime(a)) == (False, True, True)


def test_structure_flags_draws_only_lines_from_the_subspace_lattice(monkeypatch):
    drawn = []

    def counted(field, n):
        for u in all_subspaces(field, n):
            drawn.append(u.dim)
            yield u

    monkeypatch.setattr(structure, "all_subspaces", counted)
    flags = structure_flags(from_associative(upper_triangular_algebra(GF2, 3)))
    assert (flags.simple_left, flags.semiprime_left, flags.prime_left) == (False, False, False)
    # At most one closure per vector of GF(2)^6 and product; the lattice has 2825.
    assert len(drawn) <= 2 * 2**6
    assert max(drawn) <= 1


def test_semiprime_squares_the_principal_ideals_in_line_order(monkeypatch):
    # M_2 + T_2 over GF(2): the matrix units E_ab of M_2 at 2a + b, then T_2.
    t2 = upper_triangular_algebra(GF2).product.sparse
    entries = {(2 * a + b, 2 * b + c, 2 * a + c): 1 for a, b, c in product(range(2), repeat=3)}
    entries.update(
        {(i + 4, j + 4, k + 4): v for i, row in enumerate(t2) for j, g in enumerate(row) for k, v in g}
    )
    a = Algebra.from_entries(GF2, 7, entries)
    principal = []
    for line in islice(all_subspaces(GF2, 7), 1, 2**7):
        ideal = reference_closure(line, (a.product,))
        if ideal not in principal:
            principal.append(ideal)
    squared = []
    for u in principal:
        squared.append((u, u))
        if reference_subspace_product(a.product, u, u).dim == 0:
            break
    full = Subspace.full(GF2, 7)
    meet = reduce(Subspace.intersect, principal, full)

    calls = []
    original = BilinearProduct.subspace_product

    def recorded(self, u, v):
        calls.append((u, v))
        return original(self, u, v)

    monkeypatch.setattr(BilinearProduct, "subspace_product", recorded)
    assert algebra_semiprime(a) is False
    # A*A first, then (v)(v) in line order up to the first zero square, then K*K.
    assert 1 < len(squared) < len(principal)
    assert calls == [(full, full)] + squared + [(meet, meet)]


def test_split_pair_is_semiprime_but_not_prime():
    from helpers import split_pair_algebra

    a = split_pair_algebra(GF3)
    assert algebra_semiprime(a) is True
    assert algebra_prime(a) is False  # the two factor lines annihilate each other
    assert algebra_simple(a) is False


def test_is_zero_cubed():
    assert is_zero_cubed(square_algebra(QQ))
    assert is_zero_cubed(Algebra.from_entries(QQ, 2, {}))
    assert not is_zero_cubed(upper_triangular_algebra(QQ))


def _one_zero_product_inputs(field, rng):
    """Sparse random tables, zero_cubed_build of random pairings under random
    base changes (dims 1 to 4), and T_2 and M_2, associative but not zero-cubed."""
    for n in range(1, 5):
        for _ in range(6):
            cells = rng.sample(list(product(range(n), repeat=3)), rng.randint(1, n))
            yield Algebra.from_entries(field, n, {c: random_nonzero_scalar(field, rng) for c in cells})
        for z in range(n + 1):
            x = n - z
            entries = {
                (a, b, c): random_scalar(field, rng)
                for a in range(x)
                for b in range(x)
                for c in range(z)
            }
            t = ZeroCubedTriple.from_entries(field, z, x, entries)
            yield zero_cubed_build(t).rebase(random_invertible(field, n, rng))
    yield upper_triangular_algebra(field)
    yield matrix_algebra(field, 2)


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=["GF2", "GF3", "QQ"])
def test_one_zero_product_is_a_dialgebra_iff_zero_cubed(field):
    # x <| y = 0 with x |> y = xy, or the other way round, satisfies the
    # dialgebra laws exactly when A(AA) = (AA)A = 0 (Loday, Dialgebras).
    # The law checker is a second route to the associativity that
    # is_zero_cubed reads off the two subspace products.
    rng = random.Random(19)
    answers = set()
    for a in _one_zero_product_inputs(field, rng):
        zero = BilinearProduct.zero(field, a.dim)
        zero_cubed = is_zero_cubed(a)
        assert is_valid_dialgebra(Dialgebra(field, a.dim, zero, a.product)) == zero_cubed
        assert is_valid_dialgebra(Dialgebra(field, a.dim, a.product, zero)) == zero_cubed
        if zero_cubed:
            triple, witness = zero_cubed_decompose(a)
            assert a.rebase(witness) == zero_cubed_build(triple)
        answers.add(zero_cubed)
    assert answers == {False, True}


def test_decompose_the_square_type_algebra():
    t, witness = zero_cubed_decompose(square_algebra(QQ))
    assert t.z_dim == 1 and t.x_dim == 1
    assert t.f[0][0] == Vec.of(QQ, [1])
    assert square_algebra(QQ).rebase(witness) == zero_cubed_build(t)


def test_decompose_the_trivial_algebra():
    a = Algebra.from_entries(QQ, 2, {})
    t, witness = zero_cubed_decompose(a)
    assert t.z_dim == 2 and t.x_dim == 0
    assert a.rebase(witness) == zero_cubed_build(t)


def test_decompose_rejects_non_zero_cubed_input():
    with pytest.raises(NotZeroCubedError):
        zero_cubed_decompose(upper_triangular_algebra(QQ))


def test_decompose_round_trip_over_gf3():
    rng = random.Random(8)
    for _ in range(25):
        z, x = rng.randrange(0, 3), rng.randrange(0, 3)
        entries = {
            (a, b, c): rng.randrange(3)
            for a in range(x)
            for b in range(x)
            for c in range(z)
        }
        t = ZeroCubedTriple.from_entries(GF3, z, x, entries)
        built = zero_cubed_build(t)
        t2, witness = zero_cubed_decompose(built)
        assert built.rebase(witness) == zero_cubed_build(t2)
        if t.radical().dim == 0:
            # Canonical pairings decompose back to the same block sizes.
            assert (t2.z_dim, t2.x_dim) == (t.z_dim, t.x_dim)
            assert t2.image().dim == t.image().dim


def test_triples_equivalent_to_itself():
    t = ZeroCubedTriple.from_entries(GF3, 1, 1, {(0, 0, 0): 1})
    found = triples_equivalent(t, t)
    assert found is not None


def test_scaled_pairings_are_equivalent_over_gf3():
    t1 = ZeroCubedTriple.from_entries(GF3, 1, 1, {(0, 0, 0): 1})
    t2 = ZeroCubedTriple.from_entries(GF3, 1, 1, {(0, 0, 0): 2})
    found = triples_equivalent(t1, t2)
    assert found is not None
    alpha, beta = found
    # f2(x beta, y beta) = f1(x, y) alpha on the basis pair.
    x = Vec.unit(GF3, 1, 0)
    assert t2.apply(x @ beta, x @ beta) == t1.f[0][0] @ alpha


def test_zero_and_square_pairings_are_inequivalent():
    t1 = ZeroCubedTriple.from_entries(GF2, 1, 1, {})
    t2 = ZeroCubedTriple.from_entries(GF2, 1, 1, {(0, 0, 0): 1})
    assert triples_equivalent(t1, t2) is None


def test_dimension_mismatch_is_inequivalent():
    t1 = ZeroCubedTriple.from_entries(GF2, 1, 1, {})
    t2 = ZeroCubedTriple.from_entries(GF2, 2, 0, {})
    assert triples_equivalent(t1, t2) is None


# Block sizes (z, x) per field that keep the reference double loop small.
TRIPLE_SHAPES = {
    2: [(0, 0), (0, 2), (1, 0), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)],
    3: [(0, 0), (1, 1), (1, 2), (2, 1), (2, 2)],
    5: [(1, 1), (1, 2), (2, 1)],
}


@st.composite
def triple_pairs(draw):
    """Two pairings of one shape: independent, or the second a moved copy
    f2(u, v) = f1(u B, v B) alpha of the first, B the inverse of beta."""
    field = draw(st.sampled_from([GF2, GF3, GF5]))
    z, x = draw(st.sampled_from(TRIPLE_SHAPES[field.p]))
    values = st.integers(0, field.p - 1)

    def pairing():
        cells = product(range(x), range(x), range(z))
        return ZeroCubedTriple.from_entries(field, z, x, {cell: draw(values) for cell in cells})

    def invertible(n):
        mats, invs = gl_matrices(field.p, n)
        g = draw(st.integers(0, len(mats) - 1))
        return int_matrix_to_mat(field, mats[g]), int_matrix_to_mat(field, invs[g])

    t1 = pairing()
    if draw(st.booleans()):
        return t1, pairing()
    (alpha, _), (_, back) = invertible(z), invertible(x)
    f2 = tuple(
        tuple(t1.apply(back.rows[a], back.rows[b]) @ alpha for b in range(x)) for a in range(x)
    )
    return t1, ZeroCubedTriple(field, z, x, f2)


@settings(max_examples=120, suppress_health_check=[HealthCheck.too_slow])
@given(triple_pairs())
def test_triples_equivalent_matches_the_double_loop(pair):
    t1, t2 = pair
    assert triples_equivalent(t1, t2) == reference_triples_equivalent(t1, t2)


def test_triples_equivalent_unsupported_over_the_rationals():
    t = ZeroCubedTriple.from_entries(QQ, 1, 1, {(0, 0, 0): 1})
    with pytest.raises(UnsupportedOverRationalsError):
        triples_equivalent(t, t)


def test_annihilator_ideals_on_random_valid_dialgebras():
    for d in random_valid_dialgebras(40, seed=14):
        prof = annihilators(d)
        assert is_ideal(d, prof.rann_left)
        assert is_ideal(d, prof.lann_right)


def test_product_difference_lands_in_the_annihilator():
    for d in random_valid_dialgebras(40, seed=15):
        prof = annihilators(d)
        units = [Vec.unit(d.field, d.dim, i) for i in range(d.dim)]
        for y, z in product(units, repeat=2):
            diff = d.multiply(L, y, z) - d.multiply(R, y, z)
            assert prof.ann.contains(diff)


def test_full_left_annihilator_forces_zero_left_product():
    # <| = 0 with a square-type right product: the right view is zero-cubed.
    d = Dialgebra.from_entries(GF3, 2, {}, {(1, 1, 0): 1})
    prof = annihilators(d)
    assert prof.rann_left == Subspace.full(GF3, 2)
    assert d.left.is_zero()
    right = d.as_single(R)
    assert is_zero_cubed(right)


def test_zero_right_annihilator_forces_equal_products():
    for d in random_valid_dialgebras(60, seed=16):
        if annihilators(d).rann_left.dim == 0:
            assert d.products_equal()


def test_quotient_by_right_annihilator_kills_it_when_left_square_is_full():
    from dialg import quotient

    count = 0
    for d in random_valid_dialgebras(60, seed=17):
        full = Subspace.full(d.field, d.dim)
        if d.product_subspace(L, full, full) == full:
            q, _ = quotient(d, annihilators(d).rann_left)
            assert annihilators(q).rann_left.dim == 0
            count += 1
    assert count > 0


def test_algebra_annihilator_of_upper_triangular():
    assert algebra_annihilator(upper_triangular_algebra(QQ)).dim == 0
    assert algebra_annihilator(square_algebra(QQ)) == span(QQ, 2, [[1, 0]])
