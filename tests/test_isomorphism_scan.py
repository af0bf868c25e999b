"""The equation-at-a-time GL(n, p) isomorphism scan against its einsum
oracle, and the row-by-row search behind are_isomorphic and
automorphism_group against that scan."""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dialg import (
    DEFAULT_SEARCH_BOUND,
    Field,
    are_isomorphic,
    automorphism_group,
    census,
    from_associative,
    is_isomorphism,
)
from dialg.classify import _gl_isomorphisms
from dialg.glsearch import isomorphisms
from dialg.gfsearch import gl_matrices, isomorphism_indices, transform_tensor_batch
from helpers import (
    arrays_to_dialgebra,
    dialgebra_to_arrays,
    int_matrix_to_mat,
    matrix_algebra,
    random_valid_dialgebras,
    reference_isomorphism_indices,
    unshared,
    upper_triangular_algebra,
)

# Every (p, n) whose GL(n, p) scan the default search bound admits, dims 0-4.
SCANNABLE = [
    (p, n) for p in (2, 3, 5, 7) for n in range(5) if p ** (n * n) <= DEFAULT_SEARCH_BOUND
]

# Valid dialgebras over finite fields whose GL scan the default bound admits.
VALID = [
    d
    for d in random_valid_dialgebras(40, seed=61)
    if d.field.is_finite and d.field.p ** (d.dim * d.dim) <= DEFAULT_SEARCH_BOUND
]


def moved(pair, p, g):
    """The tensor pair rewritten on the basis gl_matrices(p, n)[0][g]."""
    mats, invs = gl_matrices(p, pair[0].shape[0])
    return tuple(transform_tensor_batch(t, mats[g : g + 1], invs[g : g + 1], p)[0] for t in pair)


def assert_same_scan(a, b, p):
    """isomorphism_indices against its einsum reference, and the row search
    behind are_isomorphic and automorphism_group against isomorphism_indices,
    hit for hit and in order."""
    got = isomorphism_indices(a, b, p)
    want = reference_isomorphism_indices(a, b, p)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    field = Field.prime(p)
    mats, _ = gl_matrices(p, a[0].shape[0])
    da, db = (arrays_to_dialgebra(field, *pair) for pair in (a, b))
    searched = list(_gl_isomorphisms(da, db, DEFAULT_SEARCH_BOUND))
    assert searched == [int_matrix_to_mat(field, mats[g]) for g in got.tolist()]
    return got


@pytest.mark.parametrize("p", [2, 3])
def test_scan_matches_the_reference_on_census_pairs(p, census_gf2, census_gf3):
    classes = census_gf2 if p == 2 else census_gf3
    reps = [dialgebra_to_arrays(cls.representative) for cls in classes]
    count = len(gl_matrices(p, 2)[0])
    for index, rep in enumerate(reps):
        hits = assert_same_scan(rep, moved(rep, p, (7 * index + 3) % count), p)
        assert len(hits) * classes[index].orbit_size == count
        other = reps[(index + 1) % len(reps)]
        assert len(assert_same_scan(rep, other, p)) == 0


@pytest.mark.parametrize("p, n", SCANNABLE)
@settings(max_examples=8, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_scan_matches_the_reference_on_random_tables(p, n, data):
    entries = st.lists(st.integers(0, p - 1), min_size=n**3, max_size=n**3)

    def tables():
        return tuple(np.array(data.draw(entries), dtype=np.int64).reshape(n, n, n) for _ in "lr")

    a = tables()
    if data.draw(st.booleans()):
        b = moved(a, p, data.draw(st.integers(0, len(gl_matrices(p, n)[0]) - 1)))
        assert len(assert_same_scan(a, b, p)) > 0
    else:
        assert_same_scan(a, tables(), p)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_dim0_scan_has_the_one_empty_matrix(p):
    empty = (np.zeros((0, 0, 0), dtype=np.int64),) * 2
    assert assert_same_scan(empty, empty, p).tolist() == [0]


def test_non_isomorphic_pairs_give_no_hit():
    # A product that is zero on one side and nonzero on the other.
    zero = np.zeros((2, 2, 2), dtype=np.int64)
    square = zero.copy()
    square[1, 1, 0] = 1
    assert len(assert_same_scan((zero, zero), (zero, square), 5)) == 0
    assert len(assert_same_scan((square, zero), (zero, square), 5)) == 0


@settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_isomorphisms_to_a_rebased_copy_are_as_many_as_automorphisms(data):
    d = data.draw(st.sampled_from(VALID))
    p, n = d.field.p, d.dim
    mats, _ = gl_matrices(p, n)
    t0 = int_matrix_to_mat(d.field, mats[data.draw(st.integers(0, len(mats) - 1))])
    b = d.rebase(t0)
    hits = isomorphism_indices(dialgebra_to_arrays(d), dialgebra_to_arrays(b), p)
    assert len(hits) == len(automorphism_group(d))
    witnesses = [int_matrix_to_mat(d.field, mats[g]) for g in hits.tolist()]
    assert all(is_isomorphism(d, b, w) for w in witnesses)
    assert are_isomorphic(d, b) == witnesses[0]


@pytest.mark.parametrize("p", [2, 3])
def test_every_census_pair_against_itself_and_three_partners(p, valid_gf2, valid_gf3):
    valid = [dialgebra_to_arrays(d) for d in (valid_gf2 if p == 2 else valid_gf3)]
    rng = random.Random(1000 + p)
    count = len(gl_matrices(p, 2)[0])
    for a in valid:
        for b in [a, moved(a, p, rng.randrange(count)), *rng.sample(valid, 2)]:
            assert_same_scan(a, b, p)


def residues(m):
    return tuple(tuple(c.value for c in row.coords) for row in m.rows)


def times(x, y, p):
    """The product of two square matrices given as rows of residues."""
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) % p for col in zip(*y)) for row in x)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_automorphism_groups_are_groups_of_the_stabilizer_order(p, census_gf2, census_gf3):
    classes = {2: census_gf2, 3: census_gf3}.get(p) or census(p)
    gl_order = (p * p - 1) * (p * p - p)
    for c in classes:
        group = automorphism_group(c.representative)
        assert len(group) * c.orbit_size == gl_order
        # Closure on raw residue rows: |Aut| reaches 480 over GF(5).
        members = {residues(g) for g in group}
        assert len(members) == len(group)
        assert all(residues(g.inverse()) in members for g in group)
        assert all(times(x, y, p) in members for x in members for y in members)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", ["T2", "M2"])
def test_shared_products_search_one_equation_set(p, name):
    # T_2 and M_2 as from-associative dialgebras hold one product object, so
    # the row search files one equation set; the hits and their order are
    # those of the scan over both products. The einsum scan runs where
    # GL(n, p) is small; GL(4, 3) and GL(4, 5) are too large to list, so
    # there the search on a copy with two equal product objects, which
    # files both sets, is the oracle.
    field = Field.prime(p)
    alg = upper_triangular_algebra(field) if name == "T2" else matrix_algebra(field, 2)
    d = from_associative(alg)
    assert d.right is d.left
    # glsearch itself: the search bound refuses T_2 over GF(5) and M_2 over
    # GF(3) and GF(5) by their p^(n^2) charge.
    got = list(isomorphisms(d, d))
    assert got == list(isomorphisms(unshared(d), unshared(d)))
    assert all(is_isomorphism(d, d, t) for t in got)
    # |Aut T_2| = p (p - 1) and Aut M_2 = PGL(2, p).
    assert len(got) == (p * (p - 1) if name == "T2" else p * (p * p - 1))
    if p ** (d.dim * d.dim) <= 2**16:
        pair = dialgebra_to_arrays(d)
        mats, _ = gl_matrices(p, d.dim)
        want = reference_isomorphism_indices(pair, pair, p).tolist()
        assert got == [int_matrix_to_mat(field, mats[g]) for g in want]
