"""The equation-at-a-time GL(n, p) isomorphism scan against its einsum oracle."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dialg import (
    DEFAULT_SEARCH_BOUND,
    are_isomorphic,
    automorphism_group,
    is_isomorphism,
)
from dialg.gfsearch import (
    dialgebra_to_arrays,
    gl_matrices,
    int_matrix_to_mat,
    isomorphism_indices,
    transform_tensor_batch,
)
from helpers import random_valid_dialgebras, reference_isomorphism_indices

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
    got = isomorphism_indices(a, b, p)
    want = reference_isomorphism_indices(a, b, p)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
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
