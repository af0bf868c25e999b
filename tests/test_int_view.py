"""A table is its int view: every route to a table gives one canonical
(sparse, den), parsing, rebasing, quotients and brackets build no Vec
rows until a caller reads them, and a pickle or deep copy of any table
carries its view alone, so the copy has no rows until they are read.
"""

import copy
import pickle
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialg import (
    KIND_I,
    KIND_II,
    KIND_IV,
    Algebra,
    BilinearProduct,
    Dialgebra,
    Field,
    Vec,
    annihilators,
    canonical_dialgebra,
    census,
    check_associative,
    check_dialgebra,
    fingerprint,
    leibniz_bracket,
    opposite,
    parse_algebra,
    parse_dialgebra,
    quotient,
    serialize_algebra,
    serialize_dialgebra,
)
from helpers import (
    GF7,
    QQ,
    matrix_algebra,
    random_invertible,
    random_valid_dialgebras,
    reference_quotient,
    reference_rebase,
    table_entries,
)

FIELDS = [QQ, Field.prime(7), Field.prime(9973)]


@st.composite
def tables(draw):
    """(field, dim, entries): a table's nonzero and zero coefficients, as ints,
    Fractions or strings."""
    field = draw(st.sampled_from(FIELDS))
    dim = draw(st.integers(1, 3))
    idx = st.integers(0, dim - 1)
    keys = draw(st.lists(st.tuples(idx, idx, idx), unique=True, max_size=8))
    if field.is_finite:
        value = st.integers(-(10**6), 10**6)
    else:
        fraction = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
        value = st.one_of(st.integers(-50, 50), fraction, fraction.map(str))
    return field, dim, {key: draw(value) for key in keys}


def _view(prod):
    return prod.sparse, prod.den


def _routes(prod, seed):
    """The same table by every route that builds one."""
    field, n = prod.field, prod.dim
    rows = [[Vec.of(field, [prod.entry(i, j, k).value for k in range(n)]) for j in range(n)]
            for i in range(n)]
    yield "rows", BilinearProduct(field, n, rows)
    yield "parse", parse_algebra(serialize_algebra(Algebra(field, n, prod))).product
    t = random_invertible(field, n, random.Random(seed))
    yield "rebase", Algebra(field, n, prod).rebase(t).rebase(t.inverse()).product
    other = BilinearProduct.from_entries(field, n, {(0, 0, 0): 1})
    yield "opposite", opposite(opposite(Dialgebra(field, n, prod, other))).left
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield f"pickle {protocol}", pickle.loads(pickle.dumps(prod, protocol))
    yield "deepcopy", copy.deepcopy(prod)


@settings(max_examples=120)
@given(tables(), st.integers(0, 2**16))
def test_every_route_gives_one_table_with_one_view(table, seed):
    field, dim, entries = table
    prod = BilinearProduct.from_entries(field, dim, entries)
    values = [field.scalar(c).value for c in entries.values()]
    # den is the lcm of the reduced entry denominators (1 over GF(p)), and
    # every numerator is its entry times den.
    assert prod.den == lcm(*(Fraction(v).denominator for v in values if v))
    for (i, j, k), c in entries.items():
        want = field.scalar(c).value * prod.den
        assert dict(prod.sparse[i][j]).get(k, 0) == want
    for route, again in _routes(prod, seed):
        assert again == prod and hash(again) == hash(prod), route
        assert _view(again) == _view(prod), route


def _no_rows(*products):
    return all(prod._rows is None for prod in products)


def _read_all(d):
    """serialize_dialgebra, check_dialgebra and fingerprint, which read only the view."""
    return serialize_dialgebra(d), check_dialgebra(d), fingerprint(d)


def _scalars_are_typed(prod):
    """Every Scalar holds a Fraction over Q and an int over GF(p)."""
    kind = int if prod.field.is_finite else Fraction
    return all(type(c.value) is kind for row in prod.rows for v in row for c in v.coords)


VALID = random_valid_dialgebras(8, seed=11) + [
    Dialgebra(f, 4, m.product, m.product) for f in FIELDS for m in [matrix_algebra(f, 2)]
]


@pytest.mark.parametrize("index", range(len(VALID)))
def test_derived_tables_build_no_rows_until_read(index):
    d = VALID[index]
    parsed = parse_dialgebra(serialize_dialgebra(d))
    t = random_invertible(d.field, d.dim, random.Random(index))
    rebased = parsed.rebase(t)
    q, _ = quotient(rebased, annihilators(rebased).ann)
    bracket = leibniz_bracket(rebased)
    tables = {"parsed": parsed, "rebased": rebased, "quotient": q,
              "bracket": Dialgebra(d.field, d.dim, bracket.product, bracket.product)}
    for name, table in tables.items():
        _read_all(table)
        assert _no_rows(table.left, table.right), name
    check_associative(bracket)
    assert _no_rows(bracket.product)
    # Read afterwards, the rows are the Vecs the Scalar reference builds.
    q_want = reference_quotient(rebased, annihilators(rebased).ann)[0]
    want = {
        "parsed": (d.left, d.right),
        "rebased": (reference_rebase(d.left, t), reference_rebase(d.right, t)),
        "quotient": (q_want.left, q_want.right),
    }
    for name, (left, right) in want.items():
        table = tables[name]
        assert table.left.rows == left.rows and table.right.rows == right.rows, name
        assert table_entries(table.left) == table_entries(left), name
    for prod in (parsed.left, rebased.right, q.left, bracket.product):
        assert _scalars_are_typed(prod)
        n = prod.dim
        assert all(prod.entry(i, j, k) is prod.rows[i][j].coords[k]
                   for i in range(n) for j in range(n) for k in range(n))


def _tables(index):
    """A parsed, rebased, quotient and from_entries table from VALID[index],
    and a census and a canonical table."""
    d = VALID[index]
    parsed = parse_dialgebra(serialize_dialgebra(d))
    rebased = parsed.rebase(random_invertible(d.field, d.dim, random.Random(index)))
    q, _ = quotient(rebased, annihilators(rebased).ann)
    kind, k = ((KIND_I, None), (KIND_II, 2), (KIND_IV, None))[index % 3]
    return {
        "parsed": parsed,
        "rebased": rebased,
        "quotient": q,
        "from_entries": Dialgebra.from_entries(
            d.field, d.dim, table_entries(d.left), table_entries(d.right)
        ),
        "census": census(3)[index % 14].representative,
        "canonical": canonical_dialgebra(kind, (QQ, GF7)[index % 2], k),
    }


@pytest.mark.parametrize("index", range(len(VALID)))
def test_a_pickle_or_copy_of_a_table_carries_no_rows(index):
    for name, table in _tables(index).items():
        # Rows read first: a copy still carries only the view.
        table.left.rows, table.right.rows
        copies = [pickle.loads(pickle.dumps(table, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for again in copies + [copy.deepcopy(table)]:
            assert again == table and hash(again) == hash(table), name
            assert (again.right is again.left) == (table.right is table.left), name
            assert _no_rows(again.left, again.right), name
            assert again.left.rows == table.left.rows and again.right.rows == table.right.rows
