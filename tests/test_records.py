"""The result records: named tuples, except BarUnitSet, which models a set.

Each keeps the repr, hash, equality and immutability it had as a frozen
dataclass, pickles to an equal record, and ZeroCubedTriple checks its dims
and grid on every way to build one and holds the grid as nested tuples, so
it hashes and no cell changes after the check. The slotted value classes
the records hold pickle at every protocol as well, without their lazy
caches, compare and hash by their type and public slots, basis names
aside, and every class under the one value rule (the tables, Scalar, Vec,
Mat, Subspace, BarUnitSet and Field) refuses every assignment and deletion,
so the shared constants Field.zero and Field.one cannot be changed. Every
value's pickle carries exactly its public slots, a BilinearProduct's and a
Vec's their int view, so a pickle or copy of a table builds and carries no
rows, and equal Vecs and Mats pickle alike whatever route built them;
pickles of tables written when they carried their rows, and of Vecs
written when they carried their Scalars, still load to equal values, and a
pickled view that is not canonical (not dim x dim, or not the one int view
its table has) is refused on loading, as is a Scalar or Subspace pickle
that no constructor makes; pickles of Scalars and Subspaces written when
they loaded unchecked still load. The source
keeps the three rules of the value class to their own modules: the freeze,
value and pickle methods are defined where the class docstrings say.
"""

import ast
import copy
import io
import json
import pickle
import re
from collections import Counter
from pathlib import Path

import pytest

from dialg import (
    KIND_I,
    KIND_II,
    KIND_III,
    KIND_TRIVIAL,
    Algebra,
    BarUnitSet,
    BilinearProduct,
    Dialgebra,
    Field,
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
    parse_dialgebra,
    quotient,
    serialize_dialgebra,
    structure_flags,
    zero_cubed_build,
)
from dialg.cli import main
from helpers import GF3, GF5, QQ, upper_triangular_algebra

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


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("name", list(VALUES))
def test_a_pickle_round_trip_gives_an_equal_value_without_its_caches(name, protocol):
    value = VALUES[name]()
    _views(value)
    data = pickle.dumps(value, protocol)
    assert data == pickle.dumps(VALUES[name](), protocol)
    back = pickle.loads(data)
    assert type(back) is type(value) and back == value and repr(back) == repr(value)
    assert back.field is value.field
    if isinstance(value, Dialgebra):
        assert (back.right is back.left) == (value.right is value.left)


# Every class under the one value rule, fields._Value, and both kinds of field.
FROZEN = {
    **VALUES,
    "BarUnitSet": RECORDS["BarUnitSet"][0],
    "QQ": lambda: QQ,
    "GF(5)": lambda: Field.prime(5),
}


def _parts(value):
    """value and the values it holds whose caches fill on first read."""
    if isinstance(value, Algebra):
        return [value, value.product]
    if isinstance(value, Dialgebra):
        return [value, value.left, value.right]
    return [value, value.direction] if isinstance(value, BarUnitSet) else [value]


def _views(value):
    """The lazy views of value's parts, read (and so filled), in the order of
    the cache slots they fill. A table's lazy part is its rows and a Vec's
    its coords: the int view of each is its value, set by the constructor."""
    views = []
    for part in _parts(value):
        if isinstance(part, Subspace):
            views += [part.basis, part._row_terms()]
        if isinstance(part, BilinearProduct):
            views += [part.rows]
        if isinstance(part, Vec):
            views += [part.coords]
        if isinstance(part, Field):
            views += [part.zero, part.one]
    return views


def _caches(value):
    """The lazy caches of value's parts: each part's slots named with an underscore."""
    return [
        getattr(part, slot)
        for part in _parts(value)
        for slot in type(part).__slots__
        if slot.startswith("_")
    ]


@pytest.mark.parametrize("name", list(FROZEN))
def test_a_table_cannot_be_changed_and_still_fills_its_lazy_view(name):
    value = FROZEN[name]()
    want = _views(value)
    text = repr(value)
    for obj in _parts(value):
        for slot in type(obj).__slots__:
            with pytest.raises(AttributeError):
                setattr(obj, slot, getattr(obj, slot))
            with pytest.raises(AttributeError):
                delattr(obj, slot)
    assert repr(value) == text and _views(value) == want
    # A deep copy and a pickle round trip fill the views on first read; a
    # field is interned, so both give the field itself.
    for again in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert again == value and (again is value) == isinstance(value, Field)
        if again is not value:
            # Every cache, a table's rows included, is unfilled on loading.
            for part in _parts(again):
                for slot in type(part).__slots__:
                    if slot.startswith("_"):
                        assert getattr(part, slot) is None, slot
        views = _views(again)
        assert views == want
        assert all(view is cache for view, cache in zip(views, _caches(again), strict=True))


def test_a_prime_field_keeps_its_modulus():
    f = Field.prime(5)
    with pytest.raises(AttributeError):
        f.p = 7
    with pytest.raises(AttributeError):
        del f.kind
    assert f is Field.prime(5) and str(f) == "prime 5"
    assert (f.scalar(3) + f.scalar(4)).value == 2


def test_the_field_constants_cannot_be_changed():
    f = Field.prime(3)
    with pytest.raises(AttributeError):
        f.one.value = 2
    with pytest.raises(AttributeError):
        f.zero.value = 1
    with pytest.raises(AttributeError):
        del f.one.field
    assert (f.zero.value, f.one.value) == (0, 1) and f.one.field is f
    assert repr(Mat.identity(f, 2)) == "Mat(2x2: 1 0; 0 1)"
    assert Vec.unit(f, 2, 0) == Vec.of(f, [1, 0])


def test_a_subspace_in_a_set_stays_found():
    s = VALUES["Subspace"]()
    subspaces = {s}
    with pytest.raises(AttributeError):
        s.rows = ((1, 0, 0),)
    with pytest.raises(AttributeError):
        s.ambient_dim = 4
    assert s in subspaces and VALUES["Subspace"]() in subspaces


# The slotted values again, and a BarUnitSet: every class but Field whose
# equality, hash and pickle come from fields._Value.
RULE_VALUES = {**VALUES, "BarUnitSet": RECORDS["BarUnitSet"][0]}


def _public_slots(value):
    return tuple(getattr(value, s) for s in type(value).__slots__ if not s.startswith("_"))


@pytest.mark.parametrize("name", list(RULE_VALUES))
def test_a_value_is_its_type_and_public_slots(name):
    value = RULE_VALUES[name]()
    # A pickle carries the public slots, and its loader rebuilds the value
    # from them.
    load, args = value.__reduce__()
    slots = _public_slots(value)
    assert len(args) == len(slots) and all(a is b for a, b in zip(args, slots))
    for again in (RULE_VALUES[name](), load(*args)):
        assert type(again) is type(value)
        assert again == value and hash(again) == hash(value)
        assert _public_slots(again) == slots
    if isinstance(value, (Algebra, Dialgebra)):
        names = [f"b{i}" for i in range(value.dim)]
        renamed = type(value)(*slots[:-1], names)
        assert renamed.basis_names != value.basis_names
        assert renamed == value and hash(renamed) == hash(value)
        for protocol in PROTOCOLS:
            back = pickle.loads(pickle.dumps(renamed, protocol))
            assert back == value and back.basis_names == tuple(names)
    for other_name, build in RULE_VALUES.items():
        other = build()
        if type(other) is not type(value):
            assert (value == other) is False and (value != other) is True, other_name
    assert (value == slots) is False


GF7_TEXT = "dialg 1\nfield prime 7\ndim 2\nleft 2 2 1 3\nright 1 2 2 5\n"
OLD_TABLES = {
    "canonical": lambda: canonical_dialgebra(KIND_I, QQ).right,
    "parsed": lambda: parse_dialgebra(GF7_TEXT),
}

# Pickles of OLD_TABLES written when a table's pickle carried its rows, to
# load through the public constructor BilinearProduct(field, dim, rows).
OLD_PICKLES = {
    ("canonical", 0): (
        b'cdialg.algebras\nBilinearProduct\np0\n(cdialg.fields\nField\n'
        b'p1\n(Vrational\np2\nNtp3\nRp4\nI2\n((cdialg.linalg\nVec\np5\n'
        b'(g4\n(cdialg.fields\nScalar\np6\n(g4\ncfractions\nFraction\np7\n'
        b'(I0\nI1\ntp8\nRp9\ntp10\nRp11\ng11\ntp12\ntp13\nRp14\ng5\n(g4\n'
        b'(g11\ng11\ntp15\ntp16\nRp17\ntp18\n(g5\n(g4\n(g6\n(g4\ng7\n(I1\n'
        b'I1\ntp19\nRp20\ntp21\nRp22\ng11\ntp23\ntp24\nRp25\ng5\n(g4\n(g6\n'
        b'(g4\ng7\n(I0\nI1\ntp26\nRp27\ntp28\nRp29\ng6\n(g4\ng7\n(I1\nI1\n'
        b'tp30\nRp31\ntp32\nRp33\ntp34\ntp35\nRp36\ntp37\ntp38\ntp39\nRp40\n'
        b'.'
    ),
    ("canonical", 5): (
        b'\x80\x05\x95\n\x01\x00\x00\x00\x00\x00\x00\x8c\x0edialg.algebras\x94\x8c\x0fBili'
        b'nearProduct\x94\x93\x94\x8c\x0cdialg.fields\x94\x8c\x05Field\x94\x93\x94\x8c\x08'
        b'rational\x94N\x86\x94R\x94K\x02\x8c\x0cdialg.linalg\x94\x8c\x03Vec\x94\x93\x94h'
        b'\x08h\x03\x8c\x06Scalar\x94\x93\x94h\x08\x8c\tfractions\x94\x8c\x08Fraction\x94'
        b'\x93\x94K\x00K\x01\x86\x94R\x94\x86\x94R\x94h\x14\x86\x94\x86\x94R\x94h\x0bh\x08'
        b'h\x14h\x14\x86\x94\x86\x94R\x94\x86\x94h\x0bh\x08h\rh\x08h\x10K\x01K\x01\x86\x94'
        b'R\x94\x86\x94R\x94h\x14\x86\x94\x86\x94R\x94h\x0bh\x08h\rh\x08h\x10K\x00K\x01'
        b'\x86\x94R\x94\x86\x94R\x94h\rh\x08h\x10K\x01K\x01\x86\x94R\x94\x86\x94R\x94\x86'
        b'\x94\x86\x94R\x94\x86\x94\x86\x94\x87\x94R\x94.'
    ),
    ("parsed", 0): (
        b'cdialg.algebras\nDialgebra\np0\n(cdialg.fields\nField\np1\n(Vprime\n'
        b'p2\nI7\ntp3\nRp4\nI2\ncdialg.algebras\nBilinearProduct\np5\n(g4\n'
        b'I2\n((cdialg.linalg\nVec\np6\n(g4\n(cdialg.fields\nScalar\np7\n'
        b'(g4\nI0\ntp8\nRp9\ng9\ntp10\ntp11\nRp12\ng6\n(g4\n(g9\ng9\ntp13\n'
        b'tp14\nRp15\ntp16\n(g6\n(g4\n(g9\ng9\ntp17\ntp18\nRp19\ng6\n(g4\n'
        b'(g7\n(g4\nI3\ntp20\nRp21\ng9\ntp22\ntp23\nRp24\ntp25\ntp26\ntp27\n'
        b'Rp28\ng5\n(g4\nI2\n((g6\n(g4\n(g9\ng9\ntp29\ntp30\nRp31\ng6\n'
        b'(g4\n(g9\ng7\n(g4\nI5\ntp32\nRp33\ntp34\ntp35\nRp36\ntp37\n(g6\n'
        b'(g4\n(g9\ng9\ntp38\ntp39\nRp40\ng6\n(g4\n(g9\ng9\ntp41\ntp42\n'
        b'Rp43\ntp44\ntp45\ntp46\nRp47\nNtp48\nRp49\n.'
    ),
    ("parsed", 5): (
        b'\x80\x05\x95+\x01\x00\x00\x00\x00\x00\x00\x8c\x0edialg.algebras\x94\x8c\tDialgeb'
        b'ra\x94\x93\x94(\x8c\x0cdialg.fields\x94\x8c\x05Field\x94\x93\x94\x8c\x05prime'
        b'\x94K\x07\x86\x94R\x94K\x02h\x00\x8c\x0fBilinearProduct\x94\x93\x94h\x08K\x02'
        b'\x8c\x0cdialg.linalg\x94\x8c\x03Vec\x94\x93\x94h\x08h\x03\x8c\x06Scalar\x94\x93'
        b'\x94h\x08K\x00\x86\x94R\x94h\x11\x86\x94\x86\x94R\x94h\rh\x08h\x11h\x11\x86\x94'
        b'\x86\x94R\x94\x86\x94h\rh\x08h\x11h\x11\x86\x94\x86\x94R\x94h\rh\x08h\x0fh\x08K'
        b'\x03\x86\x94R\x94h\x11\x86\x94\x86\x94R\x94\x86\x94\x86\x94\x87\x94R\x94h\nh\x08'
        b'K\x02h\rh\x08h\x11h\x11\x86\x94\x86\x94R\x94h\rh\x08h\x11h\x0fh\x08K\x05\x86\x94'
        b'R\x94\x86\x94\x86\x94R\x94\x86\x94h\rh\x08h\x11h\x11\x86\x94\x86\x94R\x94h\rh'
        b'\x08h\x11h\x11\x86\x94\x86\x94R\x94\x86\x94\x86\x94\x87\x94R\x94Nt\x94R\x94.'
    ),
}


@pytest.mark.parametrize("key", list(OLD_PICKLES), ids=[f"{n}-{p}" for n, p in OLD_PICKLES])
def test_a_pickle_that_carries_rows_still_loads(key):
    name, protocol = key
    want = OLD_TABLES[name]()
    back = pickle.loads(OLD_PICKLES[key])
    assert type(back) is type(want) and back == want and hash(back) == hash(want)
    assert repr(back) == repr(want)
    # A table's pickle now carries its view, and is shorter.
    assert len(pickle.dumps(want, protocol)) < len(OLD_PICKLES[key])


OLD_VALUES = {
    "Vec": lambda: Vec.of(QQ, [1, "-1/2", 0]),
    "Mat": lambda: Mat.from_rows(GF5, [[1, 2], [0, 3]]),
    "ClassLabel": lambda: classify_dim2(
        canonical_dialgebra(KIND_III, QQ).rebase(Mat.from_rows(QQ, [[2, 0], [1, 3]]))
    ),
    "ZeroCubedTriple": lambda: ZeroCubedTriple.from_entries(
        QQ, 1, 2, {(0, 1, 0): 1, (1, 0, 0): "-1/2"}
    ),
}

# Pickles of OLD_VALUES written when a Vec's pickle carried its Scalars, to
# load through the public constructor Vec(field, coords).
OLD_VALUE_PICKLES = {
    ("Vec", 0): (
        b'cdialg.linalg\nVec\np0\n(cdialg.fields\nField\np1\n(Vrational\np2\nNt'
        b'p3\nRp4\n(cdialg.fields\nScalar\np5\n(g4\ncfractions\nFraction\np6\n('
        b'I1\nI1\ntp7\nRp8\ntp9\nRp10\ng5\n(g4\ng6\n(I-1\nI2\ntp11\nRp12\ntp13'
        b'\nRp14\ng5\n(g4\ng6\n(I0\nI1\ntp15\nRp16\ntp17\nRp18\ntp19\ntp20\nRp2'
        b'1\n.'
    ),
    ("Vec", 5): (
        b'\x80\x05\x95\xa2\x00\x00\x00\x00\x00\x00\x00\x8c\x0cdialg.linalg\x94'
        b'\x8c\x03Vec\x94\x93\x94\x8c\x0cdialg.fields\x94\x8c\x05Field\x94\x93'
        b'\x94\x8c\x08rational\x94N\x86\x94R\x94h\x03\x8c\x06Scalar\x94\x93\x94'
        b'h\x08\x8c\tfractions\x94\x8c\x08Fraction\x94\x93\x94K\x01K\x01\x86'
        b'\x94R\x94\x86\x94R\x94h\nh\x08h\rJ\xff\xff\xff\xffK\x02\x86\x94R\x94'
        b'\x86\x94R\x94h\nh\x08h\rK\x00K\x01\x86\x94R\x94\x86\x94R\x94\x87\x94'
        b'\x86\x94R\x94.'
    ),
    ("Mat", 0): (
        b'cdialg.linalg\nMat\np0\n(cdialg.fields\nField\np1\n(Vprime\np2\nI5\nt'
        b'p3\nRp4\n(cdialg.linalg\nVec\np5\n(g4\n(cdialg.fields\nScalar\np6\n(g'
        b'4\nI1\ntp7\nRp8\ng6\n(g4\nI2\ntp9\nRp10\ntp11\ntp12\nRp13\ng5\n(g4\n('
        b'g6\n(g4\nI0\ntp14\nRp15\ng6\n(g4\nI3\ntp16\nRp17\ntp18\ntp19\nRp20\nt'
        b'p21\nI2\ntp22\nRp23\n.'
    ),
    ("Mat", 5): (
        b'\x80\x05\x95\x96\x00\x00\x00\x00\x00\x00\x00\x8c\x0cdialg.linalg\x94'
        b'\x8c\x03Mat\x94\x93\x94\x8c\x0cdialg.fields\x94\x8c\x05Field\x94\x93'
        b'\x94\x8c\x05prime\x94K\x05\x86\x94R\x94h\x00\x8c\x03Vec\x94\x93\x94h'
        b'\x08h\x03\x8c\x06Scalar\x94\x93\x94h\x08K\x01\x86\x94R\x94h\x0ch\x08K'
        b'\x02\x86\x94R\x94\x86\x94\x86\x94R\x94h\nh\x08h\x0ch\x08K\x00\x86\x94'
        b'R\x94h\x0ch\x08K\x03\x86\x94R\x94\x86\x94\x86\x94R\x94\x86\x94K\x02'
        b'\x87\x94R\x94.'
    ),
    ("ClassLabel", 0): (
        b'ccopy_reg\n_reconstructor\np0\n(cdialg.classify\nClassLabel\np1\nc__b'
        b'uiltin__\ntuple\np2\n(VIII\np3\nNNcdialg.linalg\nMat\np4\n(cdialg.fie'
        b'lds\nField\np5\n(Vrational\np6\nNtp7\nRp8\n(cdialg.linalg\nVec\np9\n('
        b'g8\n(cdialg.fields\nScalar\np10\n(g8\ncfractions\nFraction\np11\n(I1'
        b'\nI1\ntp12\nRp13\ntp14\nRp15\ng10\n(g8\ng11\n(I0\nI1\ntp16\nRp17\ntp1'
        b'8\nRp19\ntp20\ntp21\nRp22\ng9\n(g8\n(g10\n(g8\ng11\n(I-1\nI6\ntp23\nR'
        b'p24\ntp25\nRp26\ng10\n(g8\ng11\n(I1\nI3\ntp27\nRp28\ntp29\nRp30\ntp31'
        b'\ntp32\nRp33\ntp34\nI2\ntp35\nRp36\ncdialg.algebras\nDialgebra\np37\n'
        b'(g8\nI2\nc__builtin__\ngetattr\np38\n(cdialg.algebras\nBilinearProduc'
        b't\np39\nV_of\np40\ntp41\nRp42\n(g8\nI2\n(((t((I0\nI1\ntp43\ntp44\ntp4'
        b'5\n((t((I1\nI1\ntp46\ntp47\ntp48\ntp49\nI1\ntp50\nRp51\ng38\n(g39\ng4'
        b'0\ntp52\nRp53\n(g8\nI2\n(((t(ttp54\n((t((I1\nI1\ntp55\ntp56\ntp57\ntp'
        b'58\nI1\ntp59\nRp60\n(Vr\np61\nVs\np62\ntp63\ntp64\nRp65\ntp66\ntp67\n'
        b'Rp68\n.'
    ),
    ("ClassLabel", 5): (
        b'\x80\x05\x95\xb1\x01\x00\x00\x00\x00\x00\x00\x8c\x0edialg.classify'
        b'\x94\x8c\nClassLabel\x94\x93\x94(\x8c\x03III\x94NN\x8c\x0cdialg.linal'
        b'g\x94\x8c\x03Mat\x94\x93\x94\x8c\x0cdialg.fields\x94\x8c\x05Field\x94'
        b'\x93\x94\x8c\x08rational\x94N\x86\x94R\x94h\x04\x8c\x03Vec\x94\x93'
        b'\x94h\x0ch\x07\x8c\x06Scalar\x94\x93\x94h\x0c\x8c\tfractions\x94\x8c'
        b'\x08Fraction\x94\x93\x94K\x01K\x01\x86\x94R\x94\x86\x94R\x94h\x10h'
        b'\x0ch\x13K\x00K\x01\x86\x94R\x94\x86\x94R\x94\x86\x94\x86\x94R\x94h'
        b'\x0eh\x0ch\x10h\x0ch\x13J\xff\xff\xff\xffK\x06\x86\x94R\x94\x86\x94R'
        b'\x94h\x10h\x0ch\x13K\x01K\x03\x86\x94R\x94\x86\x94R\x94\x86\x94\x86'
        b'\x94R\x94\x86\x94K\x02\x87\x94R\x94\x8c\x0edialg.algebras\x94\x8c\tDi'
        b'algebra\x94\x93\x94(h\x0cK\x02\x8c\x08builtins\x94\x8c\x07getattr\x94'
        b'\x93\x94h-\x8c\x0fBilinearProduct\x94\x93\x94\x8c\x03_of\x94\x86\x94R'
        b'\x94(h\x0cK\x02)K\x00K\x01\x86\x94\x85\x94\x86\x94)K\x01K\x01\x86\x94'
        b'\x85\x94\x86\x94\x86\x94K\x01t\x94R\x94h2h4h5\x86\x94R\x94(h\x0cK\x02'
        b'))\x86\x94)K\x01K\x01\x86\x94\x85\x94\x86\x94\x86\x94K\x01t\x94R\x94'
        b'\x8c\x01r\x94\x8c\x01s\x94\x86\x94t\x94R\x94t\x94\x81\x94.'
    ),
    ("ZeroCubedTriple", 0): (
        b'cdialg.constructions\nZeroCubedTriple\np0\n(cdialg.fields\nField\np1'
        b'\n(Vrational\np2\nNtp3\nRp4\nI1\nI2\n((cdialg.linalg\nVec\np5\n(g4\n('
        b'cdialg.fields\nScalar\np6\n(g4\ncfractions\nFraction\np7\n(I0\nI1\ntp'
        b'8\nRp9\ntp10\nRp11\ntp12\ntp13\nRp14\ng5\n(g4\n(g6\n(g4\ng7\n(I1\nI1'
        b'\ntp15\nRp16\ntp17\nRp18\ntp19\ntp20\nRp21\ntp22\n(g5\n(g4\n(g6\n(g4'
        b'\ng7\n(I-1\nI2\ntp23\nRp24\ntp25\nRp26\ntp27\ntp28\nRp29\ng5\n(g4\n(g'
        b'11\ntp30\ntp31\nRp32\ntp33\ntp34\ntp35\nRp36\n.'
    ),
    ("ZeroCubedTriple", 5): (
        b'\x80\x05\x95\xfd\x00\x00\x00\x00\x00\x00\x00\x8c\x13dialg.constructio'
        b'ns\x94\x8c\x0fZeroCubedTriple\x94\x93\x94(\x8c\x0cdialg.fields\x94'
        b'\x8c\x05Field\x94\x93\x94\x8c\x08rational\x94N\x86\x94R\x94K\x01K\x02'
        b'\x8c\x0cdialg.linalg\x94\x8c\x03Vec\x94\x93\x94h\x08h\x03\x8c\x06Scal'
        b'ar\x94\x93\x94h\x08\x8c\tfractions\x94\x8c\x08Fraction\x94\x93\x94K'
        b'\x00K\x01\x86\x94R\x94\x86\x94R\x94\x85\x94\x86\x94R\x94h\x0bh\x08h\r'
        b'h\x08h\x10K\x01K\x01\x86\x94R\x94\x86\x94R\x94\x85\x94\x86\x94R\x94'
        b'\x86\x94h\x0bh\x08h\rh\x08h\x10J\xff\xff\xff\xffK\x02\x86\x94R\x94'
        b'\x86\x94R\x94\x85\x94\x86\x94R\x94h\x0bh\x08h\x14\x85\x94\x86\x94R'
        b'\x94\x86\x94\x86\x94t\x94R\x94.'
    ),
}


@pytest.mark.parametrize(
    "key", list(OLD_VALUE_PICKLES), ids=[f"{n}-{p}" for n, p in OLD_VALUE_PICKLES]
)
def test_a_pickle_of_a_vec_that_carries_scalars_still_loads(key):
    name, protocol = key
    want = OLD_VALUES[name]()
    back = pickle.loads(OLD_VALUE_PICKLES[key])
    assert type(back) is type(want) and back == want and hash(back) == hash(want)
    assert repr(back) == repr(want) and pickle.dumps(back, protocol) == pickle.dumps(want, protocol)


def _one_vec(f):
    """Routes to the Vec (0, 1, 0) over f, and to the zero Vec of length 3."""
    e1 = Vec.of(f, [0, 1, 0])
    # Numerators to reduce: residues over GF(p), a common factor over Q.
    raw = ([5, 6, 0], 1) if f.is_finite else ([0, 3, 0], 3)
    unit = [
        e1,
        Vec.from_numerators(f, *raw),
        Vec.unit(f, 3, 1),
        e1 @ Mat.identity(f, 3),
        Mat.from_rows(f, [[1, 0, 0], [0, 2, 0], [0, 0, 1]]).inverse().rows[1].scale(f.scalar(2)),
        Mat.identity(f, 3).inverse().rows[1],
    ]
    zero = [Vec.zero(f, 3), Vec.of(f, [0, 0, 0]), Vec.from_numerators(f, [0, 0, 0], 1), e1 - e1]
    return [unit, zero]


def _one_mat(f):
    """Routes to the identity of size 2 over f, and to the projection [-1; 1]
    of quotient by the line of (1, 1) in the trivial dialgebra of dim 2."""
    one = Mat.identity(f, 2)
    identity = [one, Mat.from_rows(f, [[1, 0], [0, 1]]), one @ one, one.inverse(),
                Mat.from_rows(f, [[2, 0], [0, 2]]).inverse() @ Mat.from_rows(f, [[2, 0], [0, 2]])]
    line = Subspace.from_vectors(f, 2, [[1, 1]])
    proj = quotient(Dialgebra.trivial(f, 2), line)[1]
    raw = ([-1], 1) if f.is_finite else ([-2], 2)
    projection = [proj, Mat.from_rows(f, [[-1], [1]]), proj @ Mat.identity(f, 1),
                  Mat(f, [Vec.from_numerators(f, *raw), Vec.unit(f, 1, 0)], 1)]
    return [identity, projection]


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("field", [QQ, GF5], ids=str)
def test_equal_vecs_and_mats_pickle_alike_whatever_built_them(field, protocol):
    for group in _one_vec(field) + _one_mat(field):
        assert all(v == group[0] for v in group)
        assert len({pickle.dumps(v, protocol) for v in group}) == 1, group[0]


class _Forged:
    """Pickles as a table whose view is (sparse, den) on dim over field, as only
    a hand-built pickle can hold it."""

    def __init__(self, field, dim, sparse, den):
        self.args = field, dim, sparse, den

    def __reduce__(self):
        return BilinearProduct._of, self.args


BAD_VIEWS = {
    "three-rows": (QQ, 2, (((), ()), ((), ()), ((), ())), 1),
    "short-row": (QQ, 2, (((), ()), ((),)), 1),
    "no-rows": (QQ, 1, (), 1),
    "zero-numerator": (QQ, 2, ((((0, 0),), ()), ((), ())), 1),
    "common-factor": (QQ, 2, ((((0, 2),), ()), ((), ())), 2),
    "zero-table-over-den-2": (QQ, 2, (((), ()), ((), ())), 2),
    "k-out-of-range": (QQ, 2, ((((5, 1),), ()), ((), ())), 1),
    "negative-k": (QQ, 2, ((((-1, 1),), ()), ((), ())), 1),
    "k-decreasing": (QQ, 2, ((((1, 1), (0, 1)), ()), ((), ())), 1),
    "k-repeated": (QQ, 2, ((((0, 1), (0, 1)), ()), ((), ())), 1),
    "float-numerator": (QQ, 2, ((((0, 1.0),), ()), ((), ())), 1),
    "bool-numerator": (QQ, 2, ((((0, True),), ()), ((), ())), 1),
    "zero-den": (QQ, 2, (((), ()), ((), ())), 0),
    "negative-den": (QQ, 2, ((((0, 1),), ()), ((), ())), -1),
    "float-den": (QQ, 2, (((), ()), ((), ())), 1.0),
    "list-cell": (QQ, 2, (([(0, 1)], ()), ((), ())), 1),
    "residue-p": (GF5, 2, ((((0, 5),), ()), ((), ())), 1),
    "negative-residue": (GF5, 2, ((((0, -1),), ()), ((), ())), 1),
    "den-over-GF5": (GF5, 2, ((((0, 1),), ()), ((), ())), 2),
    "bool-dim": (QQ, True, ((((0, 1),),),), 1),
}


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("bad", BAD_VIEWS.values(), ids=list(BAD_VIEWS))
def test_a_pickled_view_that_is_not_dim_by_dim_is_refused(bad, protocol):
    data = pickle.dumps(_Forged(*bad), protocol)
    with pytest.raises(FieldMismatchError):
        pickle.loads(data)


class _ForgedVec:
    """Pickles as a Vec whose view is (num, den) over field."""

    def __init__(self, field, num, den):
        self.args = field, num, den

    def __reduce__(self):
        return Vec._of, self.args


BAD_VEC_VIEWS = {
    "common-factor": (QQ, (2, 0), 2),
    "zero-over-den-2": (QQ, (0, 0), 2),
    "zero-den": (QQ, (1,), 0),
    "negative-den": (QQ, (-1,), -1),
    "float-den": (QQ, (1,), 1.0),
    "list-num": (QQ, [1], 1),
    "float-numerator": (QQ, (1.0,), 1),
    "bool-numerator": (QQ, (True,), 1),
    "residue-p": (GF5, (5,), 1),
    "negative-residue": (GF5, (-1,), 1),
    "den-over-GF5": (GF5, (1,), 2),
}


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("bad", BAD_VEC_VIEWS.values(), ids=list(BAD_VEC_VIEWS))
def test_a_pickled_vec_view_that_is_not_canonical_is_refused(bad, protocol):
    data = pickle.dumps(_ForgedVec(*bad), protocol)
    with pytest.raises(FieldMismatchError, match="vector view is not canonical"):
        pickle.loads(data)
    # A canonical view loads to its Vec.
    good = Vec.of(QQ, ["1/2", 0])
    assert pickle.loads(pickle.dumps(_ForgedVec(QQ, (1, 0), 2), protocol)) == good


class _Tampered(pickle.Pickler):
    """Pickles target as its own __reduce__ would, with the loader's arguments
    replaced by edit(args): a pickle edited by hand."""

    def __init__(self, file, protocol, target, edit):
        super().__init__(file, protocol)
        self.target, self.edit = target, edit

    def reducer_override(self, obj):
        if obj is not self.target:
            return NotImplemented
        loader, args = obj.__reduce__()
        return loader, self.edit(args)


def _tampered(value, protocol, edit):
    out = io.BytesIO()
    _Tampered(out, protocol, value, edit).dump(value)
    return out.getvalue()


def _line(f):
    return Subspace.from_vectors(f, 2, [[1, 2]])


# Per value class with a canonical form: a value, and edits of its pickled
# arguments that no constructor makes.
TAMPERED = {
    "Scalar": (lambda: GF5.scalar(2), {
        "residue-out-of-range": lambda a: (a[0], 7),
        "negative-residue": lambda a: (a[0], -3),
        "bool-residue": lambda a: (a[0], True),
        "float-residue": lambda a: (a[0], 2.0),
    }),
    "Scalar-rational": (lambda: QQ.scalar("-3/4"), {
        "int-value": lambda a: (a[0], -3),
        "float-value": lambda a: (a[0], -0.75),
    }),
    "Vec": (lambda: Vec.of(QQ, [1, "-1/2"]), {
        "common-factor": lambda a: (a[0], tuple(2 * x for x in a[1]), 2 * a[2]),
    }),
    "Subspace": (lambda: _line(QQ), {
        "wrong-pivots": lambda a: (*a[:3], (1,)),
        "scaled-rows": lambda a: (a[0], a[1], ((2, 4),), a[3]),
        "list-pivots": lambda a: (*a[:3], [0]),
        "short-row": lambda a: (a[0], a[1], ((1,),), a[3]),
        "bool-entry": lambda a: (a[0], a[1], ((True, 2),), a[3]),
        "zero-row": lambda a: (a[0], a[1], a[2] + ((0, 0),), a[3] + (1,)),
        "ambient-dim": lambda a: (a[0], 3, *a[2:]),
    }),
    "Subspace-GF5": (lambda: _line(GF5), {
        "residue-out-of-range": lambda a: (a[0], a[1], ((1, 7),), a[3]),
    }),
    "BilinearProduct": (lambda: canonical_dialgebra(KIND_I, QQ).right, {
        "common-factor": lambda a: (
            *a[:2], tuple(tuple(tuple((k, 2 * g) for k, g in c) for c in r) for r in a[2]), 2 * a[3]
        ),
    }),
}


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("name", list(TAMPERED))
def test_a_value_round_trips_and_refuses_a_tampered_pickle(name, protocol):
    build, edits = TAMPERED[name]
    value = build()
    back = pickle.loads(pickle.dumps(value, protocol))
    assert type(back) is type(value) and back == value and repr(back) == repr(value)
    # The identity edit loads too: the tampering route is sound.
    assert pickle.loads(_tampered(value, protocol, lambda a: a)) == value
    for edit in edits.values():
        with pytest.raises(FieldMismatchError):
            pickle.loads(_tampered(value, protocol, edit))


PARENT_VALUES = {
    "Scalar": VALUES["Scalar"],
    "Subspace": VALUES["Subspace"],
    "ClassLabel": lambda: classify_dim2(canonical_dialgebra(KIND_II, GF5, 3)),
    "BarUnitSet": RECORDS["BarUnitSet"][0],
}

# Pickles of PARENT_VALUES written when Scalars and Subspaces loaded through
# their constructors, unchecked.
PARENT_PICKLES = {
    ("Scalar", 0): (
        b'cdialg.fields\nScalar\np0\n(cdialg.fields\nField\np1\n(Vrational\np'
        b'2\nNtp3\nRp4\ncfractions\nFraction\np5\n(I-3\nI4\ntp6\nRp7\ntp8\nRp'
        b'9\n.'
    ),
    ("Scalar", 5): (
        b'\x80\x05\x95_\x00\x00\x00\x00\x00\x00\x00\x8c\x0cdialg.fields\x94'
        b'\x8c\x06Scalar\x94\x93\x94h\x00\x8c\x05Field\x94\x93\x94\x8c\x08rat'
        b'ional\x94N\x86\x94R\x94\x8c\tfractions\x94\x8c\x08Fraction\x94\x93'
        b'\x94J\xfd\xff\xff\xffK\x04\x86\x94R\x94\x86\x94R\x94.'
    ),
    ("Subspace", 0): (
        b'cdialg.linalg\nSubspace\np0\n(cdialg.fields\nField\np1\n(Vrational'
        b'\np2\nNtp3\nRp4\nI3\n((I2\nI0\nI-3\ntp5\n(I0\nI1\nI1\ntp6\ntp7\n(I0'
        b'\nI1\ntp8\ntp9\nRp10\n.'
    ),
    ("Subspace", 5): (
        b'\x80\x05\x95h\x00\x00\x00\x00\x00\x00\x00\x8c\x0cdialg.linalg\x94'
        b'\x8c\x08Subspace\x94\x93\x94(\x8c\x0cdialg.fields\x94\x8c\x05Field'
        b'\x94\x93\x94\x8c\x08rational\x94N\x86\x94R\x94K\x03K\x02K\x00J\xfd'
        b'\xff\xff\xff\x87\x94K\x00K\x01K\x01\x87\x94\x86\x94K\x00K\x01\x86'
        b'\x94t\x94R\x94.'
    ),
    ("ClassLabel", 0): (
        b'ccopy_reg\n_reconstructor\np0\n(cdialg.classify\nClassLabel\np1\nc_'
        b'_builtin__\ntuple\np2\n(VII\np3\ncdialg.fields\nScalar\np4\n(cdialg'
        b'.fields\nField\np5\n(Vprime\np6\nI5\ntp7\nRp8\nI3\ntp9\nRp10\nNcdia'
        b'lg.linalg\nMat\np11\n(g8\n(c__builtin__\ngetattr\np12\n(cdialg.lina'
        b'lg\nVec\np13\nV_of\np14\ntp15\nRp16\n(g8\n(I1\nI0\ntp17\nI1\ntp18\n'
        b'Rp19\ng12\n(g13\ng14\ntp20\nRp21\n(g8\n(I0\nI1\ntp22\nI1\ntp23\nRp2'
        b'4\ntp25\nI2\ntp26\nRp27\ncdialg.algebras\nDialgebra\np28\n(g8\nI2\n'
        b'g12\n(cdialg.algebras\nBilinearProduct\np29\ng14\ntp30\nRp31\n(g8\n'
        b'I2\n(((t(ttp32\n((t((I0\nI1\ntp33\ntp34\ntp35\ntp36\nI1\ntp37\nRp38'
        b'\ng12\n(g29\ng14\ntp39\nRp40\n(g8\nI2\n(((t(ttp41\n((t((I0\nI3\ntp4'
        b'2\ntp43\ntp44\ntp45\nI1\ntp46\nRp47\n(Vr\np48\nVs\np49\ntp50\ntp51'
        b'\nRp52\ntp53\ntp54\nRp55\n.'
    ),
    ("ClassLabel", 5): (
        b'\x80\x05\x95j\x01\x00\x00\x00\x00\x00\x00\x8c\x0edialg.classify\x94'
        b'\x8c\nClassLabel\x94\x93\x94(\x8c\x02II\x94\x8c\x0cdialg.fields\x94'
        b'\x8c\x06Scalar\x94\x93\x94h\x04\x8c\x05Field\x94\x93\x94\x8c\x05pri'
        b'me\x94K\x05\x86\x94R\x94K\x03\x86\x94R\x94N\x8c\x0cdialg.linalg\x94'
        b'\x8c\x03Mat\x94\x93\x94h\x0b\x8c\x08builtins\x94\x8c\x07getattr\x94'
        b'\x93\x94h\x0e\x8c\x03Vec\x94\x93\x94\x8c\x03_of\x94\x86\x94R\x94h'
        b'\x0bK\x01K\x00\x86\x94K\x01\x87\x94R\x94h\x13h\x15h\x16\x86\x94R'
        b'\x94h\x0bK\x00K\x01\x86\x94K\x01\x87\x94R\x94\x86\x94K\x02\x87\x94R'
        b'\x94\x8c\x0edialg.algebras\x94\x8c\tDialgebra\x94\x93\x94(h\x0bK'
        b'\x02h\x13h$\x8c\x0fBilinearProduct\x94\x93\x94h\x16\x86\x94R\x94(h'
        b'\x0bK\x02))\x86\x94)K\x00K\x01\x86\x94\x85\x94\x86\x94\x86\x94K\x01'
        b't\x94R\x94h\x13h(h\x16\x86\x94R\x94(h\x0bK\x02))\x86\x94)K\x00K\x03'
        b'\x86\x94\x85\x94\x86\x94\x86\x94K\x01t\x94R\x94\x8c\x01r\x94\x8c'
        b'\x01s\x94\x86\x94t\x94R\x94t\x94\x81\x94.'
    ),
    ("BarUnitSet", 0): (
        b'cdialg.identities\nBarUnitSet\np0\n(c__builtin__\ngetattr\np1\n(cdi'
        b'alg.linalg\nVec\np2\nV_of\np3\ntp4\nRp5\n(cdialg.fields\nField\np6'
        b'\n(Vprime\np7\nI3\ntp8\nRp9\n(I1\nI0\nI1\ntp10\nI1\ntp11\nRp12\ncdi'
        b'alg.linalg\nSubspace\np13\n(g9\nI3\n(t(ttp14\nRp15\ntp16\nRp17\n.'
    ),
    ("BarUnitSet", 5): (
        b'\x80\x05\x95\xae\x00\x00\x00\x00\x00\x00\x00\x8c\x10dialg.identitie'
        b's\x94\x8c\nBarUnitSet\x94\x93\x94\x8c\x08builtins\x94\x8c\x07getatt'
        b'r\x94\x93\x94\x8c\x0cdialg.linalg\x94\x8c\x03Vec\x94\x93\x94\x8c'
        b'\x03_of\x94\x86\x94R\x94\x8c\x0cdialg.fields\x94\x8c\x05Field\x94'
        b'\x93\x94\x8c\x05prime\x94K\x03\x86\x94R\x94K\x01K\x00K\x01\x87\x94K'
        b'\x01\x87\x94R\x94h\x06\x8c\x08Subspace\x94\x93\x94(h\x11K\x03))t'
        b'\x94R\x94\x86\x94R\x94.'
    ),
}


@pytest.mark.parametrize("key", list(PARENT_PICKLES), ids=[f"{n}-{p}" for n, p in PARENT_PICKLES])
def test_a_pickle_of_an_unchecked_scalar_or_subspace_still_loads(key):
    name, protocol = key
    want = PARENT_VALUES[name]()
    back = pickle.loads(PARENT_PICKLES[key])
    assert type(back) is type(want) and back == want and hash(back) == hash(want)
    assert repr(back) == repr(want) and pickle.dumps(back, protocol) == pickle.dumps(want, protocol)


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


BAD_DIMS = [
    # A negative Z or X, each with a grid that fits it, so that only the dims
    # are wrong; a float, a string and a bool for a dim.
    ((QQ, -1, 0, ()), "z_dim=-1, x_dim=0"),
    ((QQ, 0, -1, ()), "z_dim=0, x_dim=-1"),
    ((QQ, 1.0, 0, ()), "z_dim=1.0, x_dim=0"),
    ((QQ, 2, "0", ()), "z_dim=2, x_dim='0'"),
    ((QQ, True, 0, ()), "z_dim=True, x_dim=0"),
]


@pytest.mark.parametrize("bad, dims", BAD_DIMS)
def test_zero_cubed_triple_checks_its_dims_on_every_way_to_build_one(bad, dims):
    # The dims are checked before the grid, and the refusal names both.
    match = f"^pairing dims {re.escape(dims)} are not ints >= 0$"
    with pytest.raises(FieldMismatchError, match=match):
        ZeroCubedTriple(*bad)
    with pytest.raises(FieldMismatchError, match=match):
        ZeroCubedTriple._make(bad)
    good = ZeroCubedTriple(QQ, 1, 1, ((Vec.of(QQ, [1]),),))
    with pytest.raises(FieldMismatchError, match=match):
        good._replace(**dict(zip(ZeroCubedTriple._fields, bad)))
    unchecked = tuple.__new__(ZeroCubedTriple, bad)
    for protocol in PROTOCOLS:
        with pytest.raises(FieldMismatchError, match=match):
            pickle.loads(pickle.dumps(unchecked, protocol))


def test_zero_cubed_triple_built_from_lists_holds_a_frozen_grid():
    # A grid passed as lists is stored as nested tuples: the triple hashes,
    # equals the same triple from entries, and no cell changes after the check.
    t = ZeroCubedTriple(QQ, 1, 1, [[Vec.of(QQ, [1])]])
    same = ZeroCubedTriple.from_entries(QQ, 1, 1, {(0, 0, 0): 1})
    assert t == same and hash(t) == hash(same)
    assert type(t.f) is tuple and all(type(row) is tuple for row in t.f)
    with pytest.raises(TypeError):
        t.f[0][0] = Vec.of(QQ, [1, 5])
    assert zero_cubed_build(t) == zero_cubed_build(same)


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


# Each rule of the value class, by the methods it defines: their definitions
# under src/dialg, counted per module.
SOURCE = Path(__file__).resolve().parent.parent / "src" / "dialg"
RULES = {
    "one freeze rule": ({"__setattr__", "__delattr__"}, {"fields.py": 2}),
    "one value rule": ({"__eq__", "__hash__"}, {"fields.py": 2}),
    "one pickle rule": (
        {"__reduce__"},
        {"fields.py": 1, "constructions.py": 1},
    ),
}


@pytest.mark.parametrize("rule", list(RULES))
def test_each_value_rule_is_defined_in_its_own_modules_alone(rule):
    """fields._Value alone refuses assignment and deletion and alone compares
    and hashes; every value pickles through it, a table and a Vec loading
    their int view through their checked _of, but ZeroCubedTriple, which
    checks its grid on loading."""
    names, want = RULES[rule]
    found = Counter(
        path.name
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in names
    )
    assert found == want
