"""Equal left and right products are one object, and every routine gives the
same answers, reports and tables from that one object as from two equal ones."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dialg.classify as classify
import dialg.identities as identities
import dialg.structure as structure
from dialg import (
    Algebra,
    BilinearProduct,
    Dialgebra,
    DialgError,
    Field,
    ProductTag,
    annihilators,
    check_dialgebra,
    fingerprint,
    from_associative,
    is_valid_dialgebra,
    leibniz_bracket,
    opposite,
    quotient,
    structure_flags,
)
from dialg.identities import DIALGEBRA_LAWS, dialgebra_violations
from helpers import (
    QQ,
    associative_zoo,
    direct_sum,
    matrix_algebra,
    random_invertible,
    reference_check_associative,
    reference_check_dialgebra,
    reference_rebase,
    table_entries,
    unshared,
    upper_triangular_algebra,
)

GF9973 = Field.prime(9973)
SETTINGS = settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])


def associatives(field):
    zoo = associative_zoo(field) + [upper_triangular_algebra(field, 3), matrix_algebra(field, 2)]
    pair = direct_sum(field, [from_associative(upper_triangular_algebra(field)), 1])
    return zoo + [pair.as_single(ProductTag.LEFT)]


ASSOCIATIVES = {field: associatives(field) for field in (QQ, Field.prime(3), GF9973)}


@st.composite
def tables(draw, fields=(QQ, GF9973)):
    """(field, g): a product drawn associative, rebased or not, or as random
    constants in dimension 1 to 3, which are mostly not associative."""
    field = draw(st.sampled_from(fields))
    if draw(st.booleans()):
        g = draw(st.sampled_from(ASSOCIATIVES[field])).product
        if draw(st.booleans()):
            rng = random.Random(draw(st.integers(0, 2**32)))
            g = g.rebase(t := random_invertible(field, g.dim, rng), t.inverse())
        return field, g
    n = draw(st.integers(1, 3))
    keys = st.tuples(*[st.integers(0, n - 1)] * 3)
    values = st.integers(-3, 3).filter(bool) if field is QQ else st.integers(1, field.p - 1)
    return field, BilinearProduct.from_entries(field, n, draw(st.dictionaries(keys, values)))


def shared(field, g):
    """The Dialgebra on g and a separately built copy of g."""
    copy = BilinearProduct.from_entries(field, g.dim, table_entries(g))
    d = Dialgebra(field, g.dim, g, copy)
    assert d.right is d.left and d.products_equal()
    return d


def outcome(call):
    try:
        return "value", call()
    except DialgError as exc:
        return "error", type(exc).__name__, str(exc)


def as_triples(reports):
    return [(r.law, r.triple, r.residual) for r in reports]


@SETTINGS
@given(tables())
def test_one_product_object_checks_like_the_reference(table):
    field, g = table
    d = shared(field, g)
    got = as_triples(check_dialgebra(d))
    assert got == reference_check_dialgebra(d)
    assert got == as_triples(check_dialgebra(unshared(d)))
    # With equal products every law is associativity: each failing triple
    # is listed under all five laws, in law order.
    assoc = reference_check_associative(Algebra(field, g.dim, g))
    assert got == [(law, t, r) for law in DIALGEBRA_LAWS for _, t, r in assoc]
    assert is_valid_dialgebra(d) == (not assoc)


@SETTINGS
@given(tables(), st.integers(0, 2**32))
def test_one_product_object_rebases_like_the_reference(table, seed):
    field, g = table
    d = shared(field, g)
    t = random_invertible(field, g.dim, random.Random(seed))
    moved = d.rebase(t)
    assert moved.right is moved.left
    assert moved.left == reference_rebase(g, t) == unshared(d).rebase(t).right


@SETTINGS
@given(tables())
def test_one_product_object_gives_the_invariants_of_two(table):
    field, g = table
    d = shared(field, g)
    twin = unshared(d)
    assert not twin.products_equal()
    # The twin breaks the sharing invariant on purpose, so it reports its
    # products as unequal; every other field must agree.
    assert fingerprint(d) == fingerprint(twin)._replace(products_equal=True)
    prof = annihilators(d)
    assert prof == annihilators(twin)
    got = outcome(lambda: quotient(d, prof.ann))
    assert got == outcome(lambda: quotient(twin, prof.ann))
    if got[0] == "value":
        assert got[1][0].right is got[1][0].left
    assert outcome(lambda: leibniz_bracket(d)) == outcome(lambda: leibniz_bracket(twin))


@settings(max_examples=25, deadline=None)
@given(tables(fields=(Field.prime(3),)))
def test_one_product_object_gives_the_structure_flags_of_two(table):
    field, g = table
    d = shared(field, g)
    flags = structure_flags(d)
    assert flags.products_equal
    assert flags == structure_flags(unshared(d))._replace(products_equal=True)


@pytest.mark.parametrize("field", [QQ, GF9973])
def test_early_stopping_builds_one_slab(field, monkeypatch):
    # e1 times anything is 0, so no triple starting at e1 fails; (e2 e2) e1 =
    # e1 e1 = 0 but e2 (e2 e1) = e2 e1 = e1, so the first violation is
    # (1, 1, 0), found in the second slab of the first law.
    g = BilinearProduct.from_entries(field, 2, {(1, 1, 0): 1, (1, 0, 0): 1})
    d = shared(field, g)
    built = []
    slab = identities._slab

    def counted(n, i, firsts, second):
        built.append(i)
        return slab(n, i, firsts, second)

    monkeypatch.setattr(identities, "_slab", counted)
    assert not is_valid_dialgebra(d)
    assert built == [0, 1]
    first = next(dialgebra_violations(d))
    assert (first.law, first.triple) == ("assoc-left", (1, 1, 0))
    built.clear()
    check_dialgebra(d)
    # One law's slabs serve all five.
    assert built == [0, 1]


@pytest.mark.parametrize("field", [QQ, GF9973])
def test_products_one_constant_apart_stay_two_objects(field):
    g = matrix_algebra(field, 2).product
    entries = table_entries(g)
    entries[(3, 3, 0)] = field.one
    d = Dialgebra(field, g.dim, g, BilinearProduct.from_entries(field, g.dim, entries))
    assert d.right is not d.left and not d.products_equal()
    assert d.left == from_associative(matrix_algebra(field, 2)).left
    assert len(check_dialgebra(d)) == len(reference_check_dialgebra(d)) > 0


@pytest.mark.parametrize("field", [QQ, GF9973])
def test_opposite_keeps_one_product_object(field):
    d = from_associative(matrix_algebra(field, 2))
    assert d.right is d.left
    op = opposite(d)
    assert op.right is op.left
    assert op == opposite(unshared(d))
    transposed = tuple(tuple(d.left.rows[j][i] for j in range(d.dim)) for i in range(d.dim))
    assert op.left == BilinearProduct(field, d.dim, transposed)


def test_every_constructor_shares_equal_products():
    from dialg import parse_dialgebra, serialize_dialgebra

    a = upper_triangular_algebra(QQ)
    d = from_associative(a)
    entries = table_entries(a.product)
    for built in (
        d,
        Dialgebra.from_entries(QQ, a.dim, entries, dict(entries)),
        parse_dialgebra(serialize_dialgebra(d)),
        d.rebase(random_invertible(QQ, a.dim, random.Random(5))),
        quotient(d, annihilators(d).ann)[0],
        opposite(d),
        Dialgebra.trivial(QQ, 2),
    ):
        assert built.right is built.left


def counted_calls(monkeypatch, owner, name):
    """Wrap owner.name so that each call appends to the list returned."""
    calls, f = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return f(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("field", [QQ, Field.prime(3)])
def test_a_shared_product_is_worked_on_once(field, monkeypatch):
    d = from_associative(upper_triangular_algebra(field))
    t = random_invertible(field, d.dim, random.Random(3))
    # (owner, method, routine, calls on a shared product); the twin doubles them.
    cases = [
        (BilinearProduct, "rebase", lambda e: e.rebase(t), 1),
        (BilinearProduct, "transpose_args", opposite, 1),
        (BilinearProduct, "multiplication_rows", annihilators, 2),
        (classify, "_ranks", fingerprint, 1),
    ]
    if field is not QQ:
        # Over Q structure_flags answers None without deciding perfection.
        cases.append((structure, "_perfection", structure_flags, 1))
    for owner, name, routine, once in cases:
        calls = counted_calls(monkeypatch, owner, name)
        for e, want in ((d, once), (unshared(d), 2 * once)):
            calls.clear()
            routine(e)
            assert len(calls) == want, (name, e.products_equal())
