"""A table is its int view: every route to a table gives one canonical
(sparse, den), parsing, rebasing, quotients and brackets build no Vec
rows until a caller reads them, and a pickle or deep copy of any table
carries its view alone, so the copy has no rows until they are read.
Library code computes on the int view alone: with a table's rows and the
Scalar and Vec operators made to raise, every public library call still
answers, and with a Vec's coords made to raise, it builds a Scalar only by
input coercion (Field.scalar).
"""

import copy
import pickle
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dialg
from dialg import (
    KIND_I,
    KIND_II,
    KIND_III,
    KIND_IV,
    Algebra,
    BilinearProduct,
    Dialgebra,
    DialgError,
    Field,
    Mat,
    ParamTable,
    Scalar,
    Subspace,
    Vec,
    ZeroCubedTriple,
    annihilators,
    canonical_dialgebra,
    census,
    check_associative,
    check_dialgebra,
    fingerprint,
    from_associative,
    from_differential,
    leibniz_bracket,
    opposite,
    parse_algebra,
    parse_dialgebra,
    quotient,
    serialize_algebra,
    serialize_dialgebra,
    zero_cubed_build,
)
from helpers import (
    GF3,
    GF5,
    GF7,
    QQ,
    associative_zoo,
    inner_derivation_by_e12,
    matrix_algebra,
    random_invertible,
    random_valid_dialgebras,
    reference_quotient,
    reference_rebase,
    table_entries,
    upper_triangular_algebra,
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


class _Forbidden(Exception):
    """Raised by a table's rows and by the Scalar and Vec operators in the sweep."""


def _forbid(name):
    def raiser(*args):
        raise _Forbidden(name)

    return raiser


def _sweep_calls(field):
    """Named calls of every public library function on inputs built here, over
    field; the calls must not read a table's rows or do Scalar or Vec
    arithmetic. law_residual, BarUnitSet.contains and BarUnitSet.elements
    are left out: their contract is Vec arithmetic. So is dim2_constraints
    of a ParamTable, whose residuals are Scalars; it is called on raw values,
    as the classifier calls it."""
    rng, finite = random.Random(29), field.is_finite
    ut, zoo = upper_triangular_algebra(field), associative_zoo(field)
    deriv = inner_derivation_by_e12(field)
    valid = [canonical_dialgebra(kind, field) for kind in (KIND_I, KIND_III, KIND_IV)]
    valid += [canonical_dialgebra(KIND_II, field, 2), from_associative(ut)]
    valid.append(from_differential(ut, deriv))
    valid += [d.rebase(random_invertible(field, d.dim, rng)) for d in list(valid)]
    swap = Dialgebra.from_entries(field, 2, {(0, 0, 1): 1, (1, 1, 0): 1}, {(0, 0, 1): 1})
    lines = [Dialgebra.from_entries(field, 1, {(0, 0, 0): x}, {(0, 0, 0): y})
             for x, y in ((0, 0), (2, 2), (1, 0), (0, 3), (2, 1))]
    t3 = random_invertible(field, 3, rng)
    triple = ZeroCubedTriple.from_entries(field, 1, 2, {(0, 1, 0): 1, (1, 0, 0): -1, (1, 1, 0): 2})
    zc = zero_cubed_build(triple)
    zc_rebased = zc.rebase(t3)
    x, y = (Vec.of(field, v) for v in ([1, 2], [0, 1]))
    u3, line3 = Vec.of(field, [1, -1, 2]), Subspace.from_vectors(field, 3, [[1, 0, 1]])
    plane3 = Subspace.from_vectors(field, 3, [[1, 2, 0], [0, 1, 1]])
    m = Mat.from_rows(field, [[1, 2, 0], [0, 1, 1], [1, 0, 2]])
    not_derivation = Mat.from_rows(field, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    texts = [serialize_dialgebra(d) for d in valid] + [serialize_algebra(ut)]
    params = (1, 0, 1, 0, 0, 1)
    calls = {
        "check_dialgebra": lambda: [dialg.check_dialgebra(d) for d in valid + [swap]],
        "is_valid_dialgebra": lambda: [dialg.is_valid_dialgebra(d) for d in valid + [swap]],
        "check_associative": lambda: [dialg.check_associative(a) for a in zoo + [ut]],
        "check_leibniz": lambda: [dialg.check_leibniz(leibniz_bracket(d)) for d in valid],
        "fingerprint": lambda: [dialg.fingerprint(d) for d in valid + lines],
        "classify_dim2": lambda: [dialg.classify_dim2(d) for d in valid if d.dim == 2],
        "dim2_constraints": lambda: dialg.dim2_constraints(params),
        "param_dialgebra": lambda: dialg.param_dialgebra(ParamTable.of(field, params)),
        "is_isomorphism": lambda: dialg.is_isomorphism(valid[-1], valid[-1], Mat.identity(field, 3)),
        "annihilators": lambda: [dialg.annihilators(d) for d in valid],
        "algebra_annihilator": lambda: dialg.algebra_annihilator(ut),
        "bar_units": lambda: [dialg.bar_units(d) for d in valid],
        "generated_ideal": lambda: dialg.generated_ideal(valid[5], line3),
        "is_ideal": lambda: dialg.is_ideal(valid[5], plane3),
        "structure_flags": lambda: [dialg.structure_flags(d) for d in valid],
        "from_associative": lambda: [dialg.from_associative(a) for a in zoo],
        "opposite": lambda: [dialg.opposite(d) for d in valid],
        "leibniz_bracket": lambda: [dialg.leibniz_bracket(d) for d in valid],
        "quotient": lambda: [dialg.quotient(d, annihilators(d).ann) for d in valid],
        "from_differential": lambda: dialg.from_differential(ut.rebase(t3), t3 @ deriv @ t3.inverse()),
        "from_differential refusal": lambda: dialg.from_differential(ut, not_derivation),
        "is_zero_cubed": lambda: [dialg.is_zero_cubed(a) for a in zoo + [zc, zc_rebased]],
        "zero_cubed_build": lambda: dialg.zero_cubed_build(triple),
        "zero_cubed_decompose": lambda: dialg.zero_cubed_decompose(zc_rebased),
        "ZeroCubedTriple": lambda: (triple.apply(x, y), triple.image(), triple.radical()),
        "rebase": lambda: [d.rebase(t3) for d in valid if d.dim == 3] + [ut.rebase(t3)],
        "apply": lambda: (ut.multiply(u3, u3), valid[5].multiply(dialg.ProductTag.LEFT, u3, u3)),
        "subspace products": lambda: (ut.square_space(), ut.product.subspace_product(line3, plane3)),
        "round trip": lambda: [parse_dialgebra(t) for t in texts[:-1]] + [parse_algebra(texts[-1])],
        "serialize": lambda: [serialize_dialgebra(d) for d in valid + lines],
        "linalg": lambda: (dialg.rref(m), dialg.kernel(m), dialg.solve(m, u3), m.inverse(), m @ m,
                           u3 @ m, m.transpose(), m @ u3, line3.sum(plane3), line3.intersect(plane3),
                           plane3.reduce(u3), plane3.contains(u3), line3.is_subspace_of(plane3)),
        "are_isomorphic dim 1": lambda: [dialg.are_isomorphic(a, b) for a in lines for b in lines],
        "are_isomorphic dim 2": lambda: [dialg.are_isomorphic(valid[i], valid[i + 6]) for i in (0, 1, 2, 3)],
    }
    if finite:
        calls.update({
            "automorphism_group dim 1": lambda: [dialg.automorphism_group(a) for a in lines],
            "automorphism_group dim 2": lambda: dialg.automorphism_group(valid[0]),
            "census": lambda: dialg.census(field.p),
            "enumerate_valid_dialgebras": lambda: list(dialg.enumerate_valid_dialgebras(field.p)),
            "algebra_ideals": lambda: dialg.algebra_ideals(ut),
            "algebra perfection": lambda: [f(a) for f in (dialg.algebra_simple, dialg.algebra_semiprime,
                                                          dialg.algebra_prime) for a in zoo],
            "triples_equivalent": lambda: dialg.triples_equivalent(triple, triple),
            "all_subspaces": lambda: list(dialg.all_subspaces(field, 2)),
            "subspace elements": lambda: list(line3.elements()),
        })
    if field.p == 3:  # GF(5) and up refuse a GL(3, p) scan at the default bound
        calls.update({
            "are_isomorphic dim 3": lambda: dialg.are_isomorphic(valid[4], valid[10]),
            "automorphism_group dim 3": lambda: dialg.automorphism_group(valid[5]),
        })
    return calls


@pytest.mark.parametrize("field", [QQ, GF3, GF5], ids=str)
def test_no_library_call_builds_a_scalar_but_by_coercion(field, monkeypatch):
    """A Vec is its int view too: the sweep reads no Vec's coords (nor, so,
    its items or a Mat's entries) and builds a Scalar only in Field.scalar,
    the input coercion that ClassLabel.k and ParamTable.of go through."""
    calls = _sweep_calls(field)
    coercing = []
    scalar, init = Field.scalar, Scalar.__init__

    def coerce(self, value):
        coercing.append(value)
        try:
            return scalar(self, value)
        finally:
            coercing.pop()

    def build(self, *args):
        if not coercing:
            raise _Forbidden("Scalar.__init__")
        init(self, *args)

    monkeypatch.setattr(Field, "scalar", coerce)
    monkeypatch.setattr(Scalar, "__init__", build)
    monkeypatch.setattr(Vec, "coords", property(_forbid("Vec.coords")))
    tripped = {}
    for name, call in calls.items():
        try:
            call()
        except _Forbidden as e:
            tripped[name] = str(e)
        except DialgError:
            assert name.endswith("refusal"), name
    assert tripped == {}


@pytest.mark.parametrize("field", [QQ, GF3, GF5], ids=str)
def test_no_library_call_reads_rows_or_does_scalar_or_vec_arithmetic(field, monkeypatch):
    calls = _sweep_calls(field)
    monkeypatch.setattr(BilinearProduct, "rows", property(_forbid("BilinearProduct.rows")))
    for name in ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "inverse"):
        monkeypatch.setattr(Scalar, name, _forbid(f"Scalar.{name}"))
    for name in ("__add__", "__sub__", "__neg__", "scale"):
        monkeypatch.setattr(Vec, name, _forbid(f"Vec.{name}"))
    tripped = {}
    for name, call in calls.items():
        try:
            call()
        except _Forbidden as e:
            tripped[name] = str(e)
        except DialgError:
            assert name.endswith("refusal"), name
    assert tripped == {}
