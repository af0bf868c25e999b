import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialg import (
    KIND_I,
    KIND_II,
    KIND_III,
    KIND_IV,
    Algebra,
    Dialgebra,
    Field,
    ProductTag,
    Vec,
    bar_units,
    canonical_dialgebra,
    check_associative,
    check_dialgebra,
    check_leibniz,
    from_associative,
    is_valid_dialgebra,
    law_residual,
)
from dialg.identities import DIALGEBRA_LAWS, _law_equations, dialgebra_violations
from helpers import (
    GF2,
    GF3,
    GF5,
    QQ,
    associative_zoo,
    random_invertible,
    random_valid_dialgebras,
    random_vec,
    split_pair_algebra,
    table_entries,
)

L, R = ProductTag.LEFT, ProductTag.RIGHT


def test_both_views_of_I_are_associative():
    d = canonical_dialgebra(KIND_I, QQ)
    assert check_associative(d.as_single(L)) == []
    assert check_associative(d.as_single(R)) == []


def test_zero_product_is_associative():
    assert check_associative(Algebra.from_entries(QQ, 2, {})) == []


def test_one_dimensional_scaled_idempotent_is_associative():
    assert check_associative(Algebra.from_entries(QQ, 1, {(0, 0, 0): 2})) == []


def test_non_associative_table_is_caught_with_witnesses():
    # r*r = s, r*s = r, everything else zero.
    a = Algebra.from_entries(QQ, 2, {(0, 0, 1): 1, (0, 1, 0): 1})
    reports = check_associative(a)
    assert reports
    assert (0, 0, 1) in {rep.triple for rep in reports}


@pytest.mark.parametrize("kind", [KIND_I, KIND_III, KIND_IV])
def test_canonical_forms_are_valid(kind):
    assert check_dialgebra(canonical_dialgebra(kind, QQ)) == []


@pytest.mark.parametrize("k", [1, 2, 3])
def test_family_II_is_valid_over_the_rationals(k):
    assert check_dialgebra(canonical_dialgebra(KIND_II, QQ, k)) == []


def test_single_entry_mutation_of_I_is_invalid():
    d = canonical_dialgebra(KIND_I, QQ)
    mutated = Dialgebra.from_entries(
        QQ, 2, {(1, 1, 1): 1}, {(1, 0, 1): 1, (1, 1, 1): 1}
    )  # s |> r changed from r to s
    assert check_dialgebra(d) == []
    reports = check_dialgebra(mutated)
    assert reports


def test_from_associative_always_valid():
    assert check_dialgebra(from_associative(split_pair_algebra(QQ))) == []


def test_violation_witnesses_are_sound():
    mutated = Dialgebra.from_entries(
        QQ, 2, {(1, 1, 1): 1}, {(1, 0, 1): 1, (1, 1, 1): 1}
    )
    units = [Vec.unit(QQ, 2, i) for i in range(2)]
    for rep in check_dialgebra(mutated):
        i, j, k = rep.triple
        res = law_residual(mutated, rep.law, units[i], units[j], units[k])
        assert res and res == rep.residual


def test_violating_laws_are_reported_completely():
    mutated = Dialgebra.from_entries(QQ, 2, {(1, 1, 1): 1}, {(1, 0, 1): 1, (1, 1, 1): 1})
    units = [Vec.unit(QQ, 2, i) for i in range(2)]
    reported = {(rep.law, rep.triple) for rep in check_dialgebra(mutated)}
    for law in DIALGEBRA_LAWS:
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    res = law_residual(mutated, law, units[i], units[j], units[k])
                    assert bool(res) == ((law, (i, j, k)) in reported)


def test_leibniz_bracket_of_I_satisfies_the_identity():
    # [r, s] = -r, all other brackets zero.
    a = Algebra.from_entries(QQ, 2, {(0, 1, 0): -1})
    assert check_leibniz(a) == []


def test_abelian_bracket_is_leibniz():
    assert check_leibniz(Algebra.from_entries(QQ, 2, {})) == []


def test_non_leibniz_bracket_is_caught():
    # [r,s] = r, [s,r] = r, [s,s] = s: fails at (s, s, s).
    a = Algebra.from_entries(QQ, 2, {(0, 1, 0): 1, (1, 0, 0): 1, (1, 1, 1): 1})
    reports = check_leibniz(a)
    assert reports
    assert (1, 1, 1) in {rep.triple for rep in reports}


def test_bar_units_of_IV_form_an_affine_line():
    bu = bar_units(canonical_dialgebra(KIND_IV, QQ))
    assert not bu.is_empty
    assert bu.point == Vec.of(QQ, [0, 1])
    assert bu.direction.dim == 1
    assert bu.direction.contains(Vec.of(QQ, [1, 0]))
    # alpha * r + s is a bar unit for several alpha
    for alpha in (-2, 0, 1, 5):
        assert bu.contains(Vec.of(QQ, [alpha, 1]))


def test_bar_units_of_III_is_empty():
    assert bar_units(canonical_dialgebra(KIND_III, QQ)).is_empty


def test_unital_algebra_gives_a_bar_unit():
    a = split_pair_algebra(QQ)
    bu = bar_units(from_associative(a))
    assert bu.contains(Vec.of(QQ, [1, 1]))


def test_every_returned_bar_unit_works():
    d = canonical_dialgebra(KIND_IV, GF2)
    units = [Vec.unit(GF2, 2, i) for i in range(2)]
    found = list(bar_units(d).elements())
    assert found
    for e in found:
        for x in units:
            assert d.multiply(L, x, e) == x
            assert d.multiply(R, e, x) == x


def test_bar_units_sampled_over_the_rationals():
    d = canonical_dialgebra(KIND_IV, QQ)
    bu = bar_units(d)
    units = [Vec.unit(QQ, 2, i) for i in range(2)]
    for i in range(5):
        e = bu.point
        for row in bu.direction.basis.rows:
            e = e + row.scale(QQ.scalar(i - 2))
        for x in units:
            assert d.multiply(L, x, e) == x
            assert d.multiply(R, e, x) == x


def test_laws_hold_on_random_triples_of_valid_dialgebras():
    # Multilinearity: basis-level validity extends to arbitrary elements.
    rng = random.Random(99)
    for d in random_valid_dialgebras(200, seed=41):
        x = random_vec(d.field, d.dim, rng)
        y = random_vec(d.field, d.dim, rng)
        z = random_vec(d.field, d.dim, rng)
        for law in DIALGEBRA_LAWS:
            assert not law_residual(d, law, x, y, z)


GF_FIELDS = (GF2, GF3, GF5, Field.prime(9973))
VALID_STARTS = {
    field: [canonical_dialgebra(kind, field) for kind in (KIND_I, KIND_III, KIND_IV)]
    + [canonical_dialgebra(KIND_II, field, 1)]
    + [from_associative(a) for a in associative_zoo(field)]
    for field in GF_FIELDS
}


@st.composite
def gf_dialgebras(draw):
    """A dialgebra over a prime field in dim 1 to 3: a valid one, rebased or
    not, with one structure constant moved or not, or two random sparse
    tables, which are mostly not valid."""
    field = draw(st.sampled_from(GF_FIELDS))
    if draw(st.booleans()):
        n = draw(st.integers(1, 3))
        keys = st.tuples(*[st.integers(0, n - 1)] * 3)
        left, right = (draw(st.dictionaries(keys, st.integers(1, field.p - 1), max_size=4)) for _ in "lr")
        return Dialgebra.from_entries(field, n, left, right)
    d = draw(st.sampled_from(VALID_STARTS[field]))
    if draw(st.booleans()):
        d = d.rebase(random_invertible(field, d.dim, random.Random(draw(st.integers(0, 2**32)))))
    if draw(st.booleans()):
        left, right = table_entries(d.left), table_entries(d.right)
        moved = draw(st.sampled_from([left, right]))
        key = draw(st.tuples(*[st.integers(0, d.dim - 1)] * 3))
        moved[key] = moved.get(key, field.zero) + field.scalar(draw(st.integers(1, field.p - 1)))
        d = Dialgebra.from_entries(field, d.dim, left, right)
    return d


@settings(max_examples=150, deadline=None)
@given(gf_dialgebras())
def test_law_equations_vanish_exactly_where_no_violation_is_reported(d):
    # The census's expansion of the law table, evaluated in pure Python on the
    # flattened (left, right) pair, against the exact checker's slabs: each
    # (law, triple, out) with a nonzero residual, and its value, agree.
    n, p = d.dim, d.field.p
    flat = [c.value for prod in (d.left, d.right) for row in prod.rows for v in row for c in v.coords]
    labels, violated = [], {}
    for filed in _law_equations(DIALGEBRA_LAWS, n):
        for law, triple, out, lhs, rhs in filed:
            labels.append((law, triple, out))
            residual = sum(flat[x] * flat[y] for x, y in lhs) - sum(flat[u] * flat[v] for u, v in rhs)
            if residual % p:
                violated[law, triple, out] = residual % p
    assert len(set(labels)) == len(labels) == len(DIALGEBRA_LAWS) * n**4
    reported = {
        (r.law, r.triple, out): c.value
        for r in dialgebra_violations(d)
        for out, c in enumerate(r.residual.coords)
        if c
    }
    assert violated == reported
    assert (not violated) == is_valid_dialgebra(d)
