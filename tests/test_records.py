"""The result records: named tuples, except BarUnitSet, which models a set.

Each keeps the repr, hash, equality and immutability it had as a frozen
dataclass, pickles to an equal record, and ZeroCubedTriple checks its grid
on every way to build one. The slotted value classes the records hold
pickle at every protocol as well, without their lazy caches.
"""

import copy
import io
import json
import pickle

import pytest

from dialg import (
    KIND_I,
    KIND_TRIVIAL,
    Algebra,
    BarUnitSet,
    BilinearProduct,
    Dialgebra,
    FieldMismatchError,
    Fingerprint,
    Mat,
    ParamTable,
    Subspace,
    Vec,
    ZeroCubedTriple,
    annihilators,
    bar_units,
    canonical_dialgebra,
    check_dialgebra,
    classify_dim2,
    fingerprint,
    from_associative,
    serialize_dialgebra,
    structure_flags,
)
from dialg.cli import main
from helpers import GF3, QQ, upper_triangular_algebra

I_QQ = canonical_dialgebra(KIND_I, QQ)

# (record, its repr as a frozen dataclass printed it)
RECORDS = {
    "ViolationReport": (
        lambda: check_dialgebra(
            Dialgebra.from_entries(QQ, 2, {(1, 1, 1): 1}, {(1, 0, 1): 1, (1, 1, 1): 1})
        )[0],
        "ViolationReport(law='assoc-right', triple=(1, 0, 0), residual=Vec(0, 1))",
    ),
    "BarUnitSet": (
        lambda: bar_units(from_associative(upper_triangular_algebra(GF3))),
        "BarUnitSet(point=Vec(1, 0, 1), direction=Subspace(dim 0 of F^3: ))",
    ),
    "BarUnitSet-empty": (
        lambda: bar_units(canonical_dialgebra(KIND_TRIVIAL, GF3)),
        "BarUnitSet(point=None, direction=None)",
    ),
    "Fingerprint": (
        lambda: fingerprint(I_QQ),
        "Fingerprint(dim_left_square=1, dim_right_square=2, dim_rann_left=1, dim_lann_left=1,"
        " dim_rann_right=0, dim_lann_right=1, dim_ann=1, products_equal=False,"
        " has_bar_unit=False)",
    ),
    "AnnihilatorProfile": (
        lambda: annihilators(I_QQ),
        "AnnihilatorProfile(rann_left=Subspace(dim 1 of F^2: 1 0),"
        " lann_left=Subspace(dim 1 of F^2: 1 0), rann_right=Subspace(dim 0 of F^2: ),"
        " lann_right=Subspace(dim 1 of F^2: 1 0), ann=Subspace(dim 1 of F^2: 1 0))",
    ),
    "StructureFlags": (
        lambda: structure_flags(canonical_dialgebra(KIND_I, GF3)),
        "StructureFlags(products_equal=False, simple_left=False, simple_right=False,"
        " semiprime_left=False, semiprime_right=False, prime_left=False, prime_right=False)",
    ),
    "StructureFlags-rational": (
        lambda: structure_flags(I_QQ),
        "StructureFlags(products_equal=False, simple_left=None, simple_right=None,"
        " semiprime_left=None, semiprime_right=None, prime_left=None, prime_right=None)",
    ),
    "ClassLabel": (
        lambda: classify_dim2(I_QQ),
        "ClassLabel(kind='I', k=None, sublabel=None, witness=Mat(2x2: 1 0; 0 1),"
        " canonical=Dialgebra(dim 2 over rational, left=BilinearProduct[(1,1,1)=1],"
        " right=BilinearProduct[(1,0,0)=1, (1,1,1)=1]))",
    ),
    "ParamTable": (
        lambda: ParamTable.of(QQ, (0, 1, 0, 0, 2, 0)),
        "ParamTable(x1=Scalar(0 over rational), x2=Scalar(1 over rational),"
        " x3=Scalar(0 over rational), x4=Scalar(0 over rational),"
        " x5=Scalar(2 over rational), x6=Scalar(0 over rational))",
    ),
    "CensusClass": (
        None,  # census_gf2[0], from the session fixture
        "CensusClass(representative=Dialgebra(dim 2 over prime 2, left=BilinearProduct[0],"
        " right=BilinearProduct[0]), label=ClassLabel(kind='trivial-both', k=None,"
        " sublabel='trivial', witness=Mat(2x2: 1 0; 0 1), canonical=Dialgebra(dim 2 over"
        " prime 2, left=BilinearProduct[0], right=BilinearProduct[0])), orbit_size=1)",
    ),
    "ZeroCubedTriple": (
        lambda: ZeroCubedTriple.from_entries(QQ, 1, 2, {(0, 1, 0): 1, (1, 0, 0): -1}),
        "ZeroCubedTriple(field=rational, z_dim=1, x_dim=2,"
        " f=((Vec(0), Vec(1)), (Vec(-1), Vec(0))))",
    ),
}


@pytest.fixture(params=list(RECORDS))
def record(request, census_gf2):
    build, text = RECORDS[request.param]
    return (census_gf2[0] if build is None else build()), text


def _fields(r):
    return (r.point, r.direction) if isinstance(r, BarUnitSet) else tuple(r)


def test_repr_is_the_dataclass_repr(record):
    r, text = record
    assert repr(r) == text


def test_hash_and_equality_are_those_of_the_field_tuple(record):
    r, _ = record
    assert hash(r) == hash(_fields(r))
    copy = type(r)(*_fields(r))
    assert copy == r and hash(copy) == hash(r)


def test_fields_cannot_be_assigned(record):
    r, _ = record
    name = type(r)._fields[0] if not isinstance(r, BarUnitSet) else "point"
    with pytest.raises(AttributeError):
        setattr(r, name, None)
    with pytest.raises(AttributeError):
        delattr(r, name)


PROTOCOLS = range(0, pickle.HIGHEST_PROTOCOL + 1)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_pickle_round_trip_gives_an_equal_record(record, protocol):
    r, text = record
    back = pickle.loads(pickle.dumps(r, protocol))
    assert type(back) is type(r) and back == r and repr(back) == text


# The slotted classes the records hold, each built afresh on every call.
VALUES = {
    "Scalar": lambda: QQ.scalar("-3/4"),
    "Vec": lambda: Vec.of(GF3, [1, 2, 0]),
    "Mat": lambda: Mat.from_rows(QQ, [[1, "1/2"], [0, 3]]),
    "Subspace": lambda: Subspace.from_vectors(QQ, 3, [[2, 4, 1], [0, 3, 3]]),
    "BilinearProduct": lambda: canonical_dialgebra(KIND_I, QQ).right,
    "Algebra": lambda: upper_triangular_algebra(GF3),
    "Dialgebra": lambda: canonical_dialgebra(KIND_I, QQ),
    "Dialgebra-shared": lambda: from_associative(upper_triangular_algebra(GF3)),
}


def _read_lazy_views(value):
    """Fill the caches that a Subspace or a product builds on first read."""
    if isinstance(value, Subspace):
        value.basis, value._row_terms()
    products = {
        BilinearProduct: lambda: [value],
        Algebra: lambda: [value.product],
        Dialgebra: lambda: [value.left, value.right],
    }.get(type(value), list)()
    for prod in products:
        prod.sparse, prod.den


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("name", list(VALUES))
def test_a_pickle_round_trip_gives_an_equal_value_without_its_caches(name, protocol):
    value = VALUES[name]()
    _read_lazy_views(value)
    data = pickle.dumps(value, protocol)
    assert data == pickle.dumps(VALUES[name](), protocol)
    back = pickle.loads(data)
    assert type(back) is type(value) and back == value and repr(back) == repr(value)
    assert back.field is value.field
    if isinstance(value, Dialgebra):
        assert (back.right is back.left) == (value.right is value.left)


def test_a_deep_copy_of_a_shared_product_dialgebra_keeps_one_product():
    d = VALUES["Dialgebra-shared"]()
    assert d.right is d.left
    clone = copy.deepcopy(d)
    assert clone == d and clone.right is clone.left and clone.left is not d.left


def test_fingerprint_fields_are_in_info_key_order(tmp_path):
    path = tmp_path / "i.dialg"
    path.write_text(serialize_dialgebra(I_QQ))
    out = io.StringIO()
    assert main(["info", "--json", str(path)], out) == 0
    assert list(json.loads(out.getvalue()))[2:] == list(Fingerprint._fields)


BAD_GRIDS = [
    # A 2-coordinate value on a 1-dimensional Z; a 1x1 grid for a
    # 2-dimensional X; a value over another field.
    (QQ, 1, 1, ((Vec.of(QQ, [1, 5]),),)),
    (QQ, 1, 2, ((Vec.of(QQ, [1]),),)),
    (QQ, 1, 1, ((Vec.of(GF3, [1]),),)),
]


@pytest.mark.parametrize("bad", BAD_GRIDS)
def test_zero_cubed_triple_checks_its_grid_on_every_way_to_build_one(bad):
    with pytest.raises(FieldMismatchError):
        ZeroCubedTriple(*bad)
    with pytest.raises(FieldMismatchError):
        ZeroCubedTriple._make(bad)
    good = ZeroCubedTriple(QQ, 1, 1, ((Vec.of(QQ, [1]),),))
    with pytest.raises(FieldMismatchError):
        good._replace(**dict(zip(ZeroCubedTriple._fields, bad)))
    # A triple that skipped the check does not survive a pickle round trip.
    unchecked = tuple.__new__(ZeroCubedTriple, bad)
    for protocol in PROTOCOLS:
        with pytest.raises(FieldMismatchError):
            pickle.loads(pickle.dumps(unchecked, protocol))


def test_zero_cubed_triple_builds_by_keyword_make_and_replace():
    t = RECORDS["ZeroCubedTriple"][0]()
    assert ZeroCubedTriple(field=t.field, z_dim=t.z_dim, x_dim=t.x_dim, f=t.f) == t
    assert ZeroCubedTriple._make(t) == t and t._replace() == t
    with pytest.raises(TypeError):
        ZeroCubedTriple._make(tuple(t)[:3])


@pytest.mark.parametrize("build", ["BarUnitSet", "BarUnitSet-empty"])
def test_bar_unit_set_does_not_answer_about_its_fields(build):
    s = RECORDS[build][0]()
    with pytest.raises(TypeError):
        s.point in s
    with pytest.raises(TypeError):
        iter(s)
    with pytest.raises(TypeError):
        len(s)
