"""A table cannot change once built: an assignment to a shared table raises
at once, so every later answer is the one an untouched table gives.

canonical_dialgebra shares one table per (kind, field, k) with every caller
and ClassLabel, and a Dialgebra holds equal products as one object. Each
test pins one way that a single assignment used to change later answers.
"""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialg import (
    KIND_FROM_ASSOCIATIVE,
    KIND_I,
    KIND_II,
    KIND_III,
    KIND_IV,
    KIND_TRIVIAL,
    KIND_ZERO_CUBED_LEFT,
    KIND_ZERO_CUBED_RIGHT,
    BilinearProduct,
    Dialgebra,
    ProductTag,
    annihilators,
    are_isomorphic,
    bar_units,
    canonical_dialgebra,
    check_dialgebra,
    classify,
    classify_dim2,
    fingerprint,
    from_associative,
    opposite,
    serialize_dialgebra,
    structure_flags,
)
from helpers import GF3, QQ, random_invertible, split_pair_algebra

I_TEXT = serialize_dialgebra(canonical_dialgebra(KIND_I, QQ))


def _type_i(seed):
    """The canonical type-I table over Q on a random basis."""
    return canonical_dialgebra(KIND_I, QQ).rebase(random_invertible(QQ, 2, random.Random(seed)))


def test_a_labels_canonical_table_refuses_a_new_product():
    label = classify_dim2(_type_i(1))
    with pytest.raises(AttributeError):
        label.canonical.left = BilinearProduct.zero(QQ, 2)
    with pytest.raises(AttributeError):
        del label.canonical.right
    # Before, every later type-I input raised "witness does not reach the
    # canonical table".
    later = classify_dim2(_type_i(2))
    assert later.kind == KIND_I and later.canonical is canonical_dialgebra(KIND_I, QQ)


def test_a_labels_canonical_table_refuses_new_basis_names():
    label = classify_dim2(_type_i(3))
    with pytest.raises(AttributeError):
        label.canonical.basis_names = ("a", "b")
    assert serialize_dialgebra(canonical_dialgebra(KIND_I, QQ)) == I_TEXT
    assert classify_dim2(_type_i(4)).kind == KIND_I


def test_a_table_in_a_set_stays_found():
    d = _type_i(5)
    tables = {d}
    with pytest.raises(AttributeError):
        d.right = d.left
    assert d in tables


@pytest.mark.parametrize("field", [QQ, GF3])
def test_equal_products_stay_one_object(field):
    # Before, a distinct equal right product made classify_dim2 raise "a
    # valid dialgebra was refused" and are_isomorphic(d, twin) answer None.
    d = from_associative(split_pair_algebra(field))
    with pytest.raises(AttributeError):
        d.right = BilinearProduct(field, d.dim, d.left.rows)
    assert d.products_equal() and classify_dim2(d).kind == KIND_FROM_ASSOCIATIVE
    twin = Dialgebra(field, d.dim, d.left, BilinearProduct(field, d.dim, d.left.rows))
    assert twin.right is twin.left and fingerprint(twin) == fingerprint(d)
    if field is GF3:
        assert are_isomorphic(d, twin) is not None


KINDS = {
    QQ: [
        (KIND_TRIVIAL, None), (KIND_ZERO_CUBED_LEFT, None), (KIND_ZERO_CUBED_RIGHT, None),
        (KIND_I, None), (KIND_III, None), (KIND_IV, None), (KIND_II, 1), (KIND_II, "-1/2"),
    ],
    GF3: [(KIND_I, None), (KIND_III, None), (KIND_IV, None), (KIND_II, 1), (KIND_II, 2)],
}
INPUTS = [
    canonical_dialgebra(kind, field, k).rebase(random_invertible(field, 2, random.Random(i)))
    for field, kinds in KINDS.items()
    for i, (kind, k) in enumerate(kinds)
]


def _assign(label, rng):
    """Give one slot of the label's table, or of one of its products, the
    value of another table's slot, or delete it."""
    which, table, other = rng.randrange(3), label.canonical, rng.choice(INPUTS)
    target = (table, table.left, table.right)[which]
    other = (other, other.left, other.right)[which]
    slot = rng.choice(type(target).__slots__)
    with pytest.raises(AttributeError):
        if rng.randrange(2):
            setattr(target, slot, getattr(other, slot))
        else:
            delattr(target, slot)


CALLS = [
    lambda label, rng: label.canonical.rebase(label.witness),
    lambda label, rng: fingerprint(label.canonical),
    lambda label, rng: structure_flags(label.canonical),
    lambda label, rng: opposite(label.canonical),
    lambda label, rng: check_dialgebra(label.canonical),
    lambda label, rng: annihilators(label.canonical),
    lambda label, rng: bar_units(label.canonical),
    lambda label, rng: classify_dim2(label.canonical),
    lambda label, rng: are_isomorphic(label.canonical, label.canonical),
    lambda label, rng: label.canonical.as_single(ProductTag.RIGHT),
    lambda label, rng: label.canonical.left.sparse,
    lambda label, rng: pickle.loads(pickle.dumps(label)),
    lambda label, rng: copy.deepcopy(label),
    _assign,
]


def _shared_tables():
    return {key: (d, serialize_dialgebra(d)) for key, d in classify._CANONICAL.items()}


@settings(max_examples=30)
@given(
    st.lists(
        st.tuples(st.sampled_from(INPUTS), st.sampled_from(CALLS), st.randoms()), max_size=8
    )
)
def test_shared_tables_serialize_the_same_after_public_calls_on_labels(steps):
    before = _shared_tables()
    for d, call, rng in steps:
        call(classify_dim2(d), rng)
    after = _shared_tables()
    assert {key: after[key] for key in before} == before
    assert all(d is after[key][0] for key, (d, _) in before.items())
