"""The input checks at the library's edges: each refuses its bad input with
its own error type and message, and the few methods no other test reaches
answer as documented.

Each case is an entry point given one bad argument, in the order the
modules build on each other: fields, linalg, algebras, identities,
classify, structure, constructions and fileformat.
"""

from fractions import Fraction

import pytest

from dialg import (
    KIND_I,
    Algebra,
    BarUnitSet,
    BilinearProduct,
    Dialgebra,
    Field,
    FieldMismatchError,
    Mat,
    NotInvertibleError,
    ParamTable,
    ParseError,
    Subspace,
    UnsupportedOverRationalsError,
    Vec,
    ZeroCubedTriple,
    algebra_ideals,
    are_isomorphic,
    canonical_dialgebra,
    from_differential,
    law_residual,
    parse_dialgebra,
    quotient,
    solve,
    triples_equivalent,
)
from helpers import GF3, GF5, QQ, split_pair_algebra, upper_triangular_algebra

I_QQ = canonical_dialgebra(KIND_I, QQ)
M2 = Mat.from_rows(QQ, [[1, 2], [3, 4]])
M23 = Mat.from_rows(QQ, [[1, 0, 2], [0, 1, 3]])
PLANE = Subspace.from_vectors(QQ, 2, [[1, 0]])
LINE3 = Subspace.from_vectors(QQ, 3, [[1, 0, 0]])
PAIRING = ZeroCubedTriple.from_entries(QQ, 1, 2, {(0, 1, 0): 1, (1, 0, 0): -1})
GOOD_FILE = "dialg 1\nfield rational\ndim 2\n"

# (the bad call, the error type, a fragment of its message)
CHECKS = {
    "rational-field-with-a-modulus": (
        lambda: Field("rational", 5),
        ValueError,
        "takes no modulus",
    ),
    "unknown-field-kind": (lambda: Field("complex"), ValueError, "unknown field kind"),
    "scalar-over-another-field": (
        lambda: GF5.scalar(GF3.scalar(1)),
        FieldMismatchError,
        "scalar over prime 3 given to prime 5",
    ),
    "rational-scalar-from-a-float": (
        lambda: QQ.scalar(0.5),
        TypeError,
        "cannot make a rational scalar",
    ),
    "residue-from-a-float": (
        lambda: GF5.scalar(2.0),
        TypeError,
        "cannot make a prime 5 scalar",
    ),
    "scalar-plus-a-non-scalar": (lambda: QQ.one + 1, TypeError, "expected a Scalar"),
    "vec-plus-a-non-vec": (lambda: Vec.of(QQ, [1]) + 1, TypeError, "expected a Vec"),
    "vecs-of-two-lengths": (
        lambda: Vec.of(QQ, [1]) - Vec.of(QQ, [1, 2]),
        FieldMismatchError,
        "vector field or length mismatch",
    ),
    "ragged-matrix-rows": (
        lambda: Mat.from_rows(QQ, [[1, 2], [3]]),
        FieldMismatchError,
        "ragged or mixed-field",
    ),
    "matrix-with-no-rows-and-no-ncols": (
        lambda: Mat.from_rows(QQ, []),
        ValueError,
        "ncols is required",
    ),
    "matrix-times-matrix-of-the-wrong-shape": (
        lambda: M23 @ M2,
        FieldMismatchError,
        "matrix product shape mismatch",
    ),
    "matrix-times-vector-of-the-wrong-length": (
        lambda: M2 @ Vec.of(QQ, [1, 2, 3]),
        FieldMismatchError,
        "matrix/vector shape mismatch",
    ),
    "vector-times-matrix-of-the-wrong-shape": (
        lambda: Vec.of(QQ, [1, 2, 3]) @ M2,
        FieldMismatchError,
        "vector/matrix shape mismatch",
    ),
    "vector-times-a-non-matrix": (
        lambda: Vec.of(QQ, [1]) @ 1,
        TypeError,
        "unsupported operand type(s) for @: 'Vec' and 'int'",
    ),
    "matrix-times-a-non-matrix": (
        lambda: M2 @ 1,
        TypeError,
        "unsupported operand type(s) for @: 'Mat' and 'int'",
    ),
    "inverse-of-a-non-square-matrix": (
        lambda: M23.inverse(),
        NotInvertibleError,
        "only square matrices",
    ),
    "right-hand-side-of-the-wrong-length": (
        lambda: solve(M2, Vec.of(QQ, [1, 2, 3])),
        FieldMismatchError,
        "right-hand side shape mismatch",
    ),
    "spanning-vector-of-the-wrong-length": (
        lambda: Subspace.from_vectors(QQ, 2, [[1, 2, 3]]),
        FieldMismatchError,
        "spanning vector shape mismatch",
    ),
    "reduce-a-vector-of-the-wrong-length": (
        lambda: PLANE.reduce(Vec.of(QQ, [1, 2, 3])),
        FieldMismatchError,
        "vector shape mismatch",
    ),
    "subspace-sum-with-a-non-subspace": (
        lambda: PLANE.sum(M2),
        TypeError,
        "expected a Subspace",
    ),
    "table-that-is-not-dim-x-dim": (
        lambda: BilinearProduct(QQ, 2, I_QQ.left.rows[:1]),
        FieldMismatchError,
        "not dim x dim",
    ),
    "table-entry-of-the-wrong-length": (
        lambda: BilinearProduct(QQ, 1, [[Vec.of(QQ, [1, 2])]]),
        FieldMismatchError,
        "structure constant row shape mismatch",
    ),
    "subspace-product-over-another-field": (
        lambda: I_QQ.left.subspace_product(PLANE, Subspace.zero(GF3, 2)),
        FieldMismatchError,
        "subspace field mismatch",
    ),
    "subspace-product-in-another-dimension": (
        lambda: I_QQ.left.subspace_product(PLANE, LINE3),
        FieldMismatchError,
        "subspace ambient dimension mismatch",
    ),
    "rebase-by-a-matrix-of-the-wrong-shape": (
        lambda: I_QQ.left.rebase(M23, M2),
        FieldMismatchError,
        "base change matrix shape mismatch",
    ),
    "algebra-on-a-product-of-another-dimension": (
        lambda: Algebra(QQ, 3, I_QQ.left),
        FieldMismatchError,
        "product does not match the algebra",
    ),
    "dialgebra-on-a-product-of-another-dimension": (
        lambda: Dialgebra(QQ, 2, I_QQ.left, BilinearProduct.zero(QQ, 3)),
        FieldMismatchError,
        "product does not match the dialgebra",
    ),
    "wrong-number-of-basis-names": (
        lambda: Dialgebra(QQ, 2, I_QQ.left, I_QQ.right, ["r"]),
        ValueError,
        "expected 2 basis names, got 1",
    ),
    "unknown-law": (
        lambda: law_residual(I_QQ, "assoc-middle", *[Vec.unit(QQ, 2, 0)] * 3),
        ValueError,
        "unknown law 'assoc-middle'",
    ),
    "isomorphism-across-two-fields": (
        lambda: are_isomorphic(I_QQ, canonical_dialgebra(KIND_I, GF3)),
        FieldMismatchError,
        "dialgebras live over different fields",
    ),
    "pairings-over-two-fields": (
        lambda: triples_equivalent(
            PAIRING, ZeroCubedTriple.from_entries(GF3, 1, 2, {(0, 1, 0): 1})
        ),
        FieldMismatchError,
        "triples live over different fields",
    ),
    "five-parameters": (
        lambda: ParamTable.of(QQ, (0, 1, 0, 0, 2)),
        ValueError,
        "expected six parameters",
    ),
    "ideal-enumeration-over-Q": (
        lambda: algebra_ideals(split_pair_algebra(QQ)),
        UnsupportedOverRationalsError,
        "needs a finite field",
    ),
    "derivation-matrix-of-the-wrong-shape": (
        lambda: from_differential(upper_triangular_algebra(QQ), M2),
        FieldMismatchError,
        "derivation matrix shape mismatch",
    ),
    "quotient-by-a-subspace-of-another-space": (
        lambda: quotient(I_QQ, LINE3),
        FieldMismatchError,
        "does not live in the dialgebra's space",
    ),
    "file-with-a-bad-field-line": (
        lambda: parse_dialgebra("dialg 1\nfield real\ndim 2\n"),
        ParseError,
        "line 2: expected `field rational` or `field prime <p>`",
    ),
    "file-with-basis-after-its-entries": (
        lambda: parse_dialgebra(GOOD_FILE + "left 1 1 1 1\nbasis r s\n"),
        ParseError,
        "line 5: basis line must precede product entries",
    ),
}


@pytest.mark.parametrize("name", list(CHECKS))
def test_a_bad_input_is_refused_with_its_error_and_message(name):
    call, error, fragment = CHECKS[name]
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)


def test_a_vec_refuses_an_entry_that_is_not_a_scalar_of_its_field():
    # A GF(3) entry in a rational Vec would make inverse() answer 1/2 for [2
    # mod 3], and an int entry would fail later, in arithmetic or inverse().
    with pytest.raises(FieldMismatchError, match="scalar over prime 3 in a vector over rational"):
        Vec(QQ, [GF3.scalar(1), GF3.scalar(2)])
    with pytest.raises(FieldMismatchError):
        Mat(QQ, [Vec(QQ, [GF3.scalar(2)])], 1).inverse()
    with pytest.raises(TypeError, match="expected a Scalar, got 1"):
        Vec(QQ, [1, 2])
    with pytest.raises(TypeError):
        Vec(GF3, [GF3.one, Fraction(1, 2)])
    assert Mat(QQ, [Vec(QQ, [QQ.scalar(2)])], 1).inverse() == Mat.from_rows(QQ, [["1/2"]])


def test_the_negation_and_indexing_of_a_vec():
    v = Vec.of(QQ, [1, "-1/2", 0])
    assert -v == Vec.of(QQ, [-1, "1/2", 0]) and -(-v) == v
    assert v[1] == QQ.scalar(Fraction(-1, 2)) and v[-1] == QQ.zero
    assert list(v[:2]) == [QQ.one, QQ.scalar("-1/2")]


def test_the_empty_bar_unit_set_holds_nothing():
    empty = BarUnitSet(None, None)
    assert empty.is_empty and not empty.contains(Vec.of(GF3, [0, 0]))
    assert list(empty.elements()) == []
