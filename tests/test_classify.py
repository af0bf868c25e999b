import hashlib
import random
from fractions import Fraction
from itertools import chain, product
from operator import add

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dialg.classify
from dialg import (
    KIND_FROM_ASSOCIATIVE,
    KIND_I,
    KIND_II,
    KIND_III,
    KIND_IV,
    KIND_TRIVIAL,
    KIND_ZERO_CUBED_LEFT,
    KIND_ZERO_CUBED_RIGHT,
    SUBLABEL_SQUARE,
    Dialgebra,
    DialgError,
    Field,
    FieldMismatchError,
    InternalCheckError,
    Mat,
    NotADialgebraError,
    ParamTable,
    SearchBoundExceededError,
    UnsupportedOverRationalsError,
    Vec,
    are_isomorphic,
    automorphism_group,
    canonical_dialgebra,
    classify_dim2,
    dim2_constraints,
    enumerate_valid_dialgebras,
    fingerprint,
    from_associative,
    is_isomorphism,
    opposite,
    param_dialgebra,
)
from dialg.identities import DIALGEBRA_LAWS, _law_equations, dialgebra_violations
from helpers import (
    GF2,
    GF3,
    GF5,
    GF7,
    QQ,
    associative_zoo,
    idempotent_line_algebra,
    int_matrix_to_mat,
    random_invertible,
    random_valid_dialgebras,
    reference_canonical_dialgebra,
    reference_check_dialgebra,
    reference_classify_dim2,
    reference_is_isomorphism,
    split_pair_algebra,
    square_algebra,
    table_entries,
    upper_triangular_algebra,
)


def test_fingerprint_square_dimensions_match_the_table():
    expected = {KIND_I: (1, 2), KIND_III: (2, 1), KIND_IV: (2, 2)}
    for kind, dims in expected.items():
        fp = fingerprint(canonical_dialgebra(kind, QQ))
        assert (fp.dim_left_square, fp.dim_right_square) == dims
    for k in (1, 2, 3):
        fp = fingerprint(canonical_dialgebra(KIND_II, QQ, k))
        assert (fp.dim_left_square, fp.dim_right_square) == (1, 1)


def test_fingerprint_of_the_trivial_dialgebra():
    fp = fingerprint(Dialgebra.trivial(QQ, 2))
    assert fp.dim_left_square == fp.dim_right_square == 0
    assert fp.products_equal
    assert fp.dim_ann == 2


def test_fingerprint_is_isomorphism_invariant():
    rng = random.Random(12)
    for d in random_valid_dialgebras(40, seed=21):
        t = random_invertible(d.field, d.dim, rng)
        assert fingerprint(d) == fingerprint(d.rebase(t))


def test_constraints_vanish_for_the_parameters_of_I():
    t = ParamTable.of(QQ, [0, 0, 1, 1, 0, 1])
    assert not any(dim2_constraints(t))


def test_constraints_vanish_at_zero():
    assert not any(dim2_constraints(ParamTable.of(QQ, [0] * 6)))


def test_constraints_catch_x1_x2():
    residuals = dim2_constraints(ParamTable.of(QQ, [1, 1, 0, 0, 0, 0]))
    assert residuals[0] == QQ.one


def test_param_dialgebra_matches_the_generic_tables():
    t = ParamTable.of(QQ, [1, 2, 3, 4, 5, 6])
    d = param_dialgebra(t)
    r, s = Vec.unit(QQ, 2, 0), Vec.unit(QQ, 2, 1)
    from dialg import ProductTag

    assert d.multiply(ProductTag.LEFT, r, s) == Vec.of(QQ, [1, 0])
    assert d.multiply(ProductTag.LEFT, s, s) == Vec.of(QQ, [2, 3])
    assert d.multiply(ProductTag.RIGHT, s, r) == Vec.of(QQ, [4, 0])
    assert d.multiply(ProductTag.RIGHT, s, s) == Vec.of(QQ, [5, 6])
    assert not d.multiply(ProductTag.LEFT, s, r)
    assert not d.multiply(ProductTag.RIGHT, r, s)


class Poly:
    """A polynomial in x1..x6 with int coefficients, as {exponents: coefficient}."""

    def __init__(self, terms):
        self.terms = {e: c for e, c in terms.items() if c}

    def __add__(self, other):
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return Poly(terms)

    def __neg__(self):
        return Poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        terms = {}
        for (e, c), (f, g) in product(self.terms.items(), other.terms.items()):
            m = tuple(map(add, e, f))
            terms[m] = terms.get(m, 0) + c * g
        return Poly(terms)


def test_the_laws_of_the_generic_table_are_exactly_the_constraints():
    # The ParamTable with x1..x6 as indeterminates, laid out by param_dialgebra
    # at each unit point; every law residual at every basis triple and
    # coordinate is 0 or +-1 times a constraint, and each constraint occurs.
    # So the constraints decide validity over Q and every GF(p).
    units = [tuple(int(i == j) for j in range(6)) for i in range(6)]
    xs = [Poly({e: 1}) for e in units]
    columns = [Poly({})] * 16
    for x, e in zip(xs, units):
        d = param_dialgebra(ParamTable.of(QQ, e))
        for side, prod in enumerate((d.left, d.right)):
            for (i, j, m), c in table_entries(prod).items():
                assert c == QQ.one
                col = side * 8 + (i * 2 + j) * 2 + m
                columns[col] = columns[col] + x
    constraints = [c.terms for c in dim2_constraints(xs)]
    seen = set()
    for law, triple, out, lhs, rhs in chain(*_law_equations(DIALGEBRA_LAWS, 2)):
        residual = Poly({})
        for (a, b), (u, v) in zip(lhs, rhs):
            residual = residual + columns[a] * columns[b] - columns[u] * columns[v]
        if residual.terms:
            signed = (residual.terms, (-residual).terms)
            hits = [k for k, terms in enumerate(constraints) if terms in signed]
            assert len(hits) == 1, (law, triple, out, residual.terms)
            seen.update(hits)
    assert seen == set(range(11))


@pytest.mark.parametrize("field", [QQ, GF3, GF5])
def test_canonical_tables_classify_to_themselves(field):
    for kind in (KIND_I, KIND_III, KIND_IV):
        label = classify_dim2(canonical_dialgebra(kind, field))
        assert label.kind == kind
    label = classify_dim2(canonical_dialgebra(KIND_II, field, 2))
    assert label.kind == KIND_II and label.k == field.scalar(2)


@pytest.mark.parametrize(
    "field", [QQ, GF2, GF3, GF5, GF7], ids=["QQ", "GF2", "GF3", "GF5", "GF7"]
)
def test_canonical_tables_match_the_written_out_tables(field):
    ks = [Fraction(1, 2), -3, 1, 2] if field is QQ else range(1, field.p)
    kinds = (KIND_TRIVIAL, KIND_ZERO_CUBED_LEFT, KIND_ZERO_CUBED_RIGHT, KIND_I, KIND_III, KIND_IV)
    cases = [(kind, None) for kind in kinds] + [(KIND_II, k) for k in ks]
    for kind, k in cases:
        got = canonical_dialgebra(kind, field, k)
        want = reference_canonical_dialgebra(kind, field, k)
        assert got == want
        assert got.basis_names == want.basis_names == ("r", "s")
        assert got.products_equal() == want.products_equal()
    # k = p is zero over GF(p), as "0/3" is over Q.
    refused = [(KIND_II, 0), (KIND_II, field.p or "0/3"), (KIND_FROM_ASSOCIATIVE, 1)]
    for kind, k in refused:
        with pytest.raises(ValueError) as want:
            reference_canonical_dialgebra(kind, field, k)
        with pytest.raises(ValueError) as got:
            canonical_dialgebra(kind, field, k)
        assert str(got.value) == str(want.value)


def test_square_tables_with_ratio_3_classify_as_II_3():
    d = Dialgebra.from_entries(QQ, 2, {(1, 1, 0): 1}, {(1, 1, 0): 3})
    label = classify_dim2(d)
    assert label.kind == KIND_II and label.k == QQ.scalar(3)


def test_opposite_of_I_classifies_as_III():
    assert classify_dim2(opposite(canonical_dialgebra(KIND_I, QQ))).kind == KIND_III


def test_zero_tables_classify_as_trivial():
    label = classify_dim2(Dialgebra.trivial(QQ, 2))
    assert label.kind == KIND_TRIVIAL


def test_one_sided_zero_labels():
    d = Dialgebra.from_entries(GF3, 2, {}, {(1, 1, 0): 2})
    label = classify_dim2(d)
    assert label.kind == KIND_ZERO_CUBED_LEFT
    assert label.sublabel == SUBLABEL_SQUARE
    assert d.rebase(label.witness) == label.canonical
    mirrored = classify_dim2(Dialgebra.from_entries(GF3, 2, {(1, 1, 0): 2}, {}))
    assert mirrored.kind == KIND_ZERO_CUBED_RIGHT


def test_from_associative_labels():
    for alg in (idempotent_line_algebra(QQ), split_pair_algebra(QQ)):
        label = classify_dim2(from_associative(alg))
        assert label.kind == KIND_FROM_ASSOCIATIVE


def test_square_type_from_associative_is_II_1():
    # Equal products with s*s = r: the boundary member of the II family.
    label = classify_dim2(from_associative(square_algebra(QQ)))
    assert label.kind == KIND_II
    assert label.k == QQ.one


def test_classification_is_basis_independent_over_the_rationals():
    rng = random.Random(33)
    canonicals = [
        canonical_dialgebra(KIND_I, QQ),
        canonical_dialgebra(KIND_II, QQ, 1),
        canonical_dialgebra(KIND_II, QQ, 2),
        canonical_dialgebra(KIND_II, QQ, "1/2"),
        canonical_dialgebra(KIND_III, QQ),
        canonical_dialgebra(KIND_IV, QQ),
    ]
    for d in canonicals:
        base = classify_dim2(d)
        for _ in range(8):
            conj = d.rebase(random_invertible(QQ, 2, rng))
            label = classify_dim2(conj)
            assert label.kind == base.kind
            assert label.k == base.k


def test_classification_is_basis_independent_over_gf2():
    from dialg.gfsearch import gl_matrices

    mats, _ = gl_matrices(2, 2)
    for kind, k in ((KIND_I, None), (KIND_II, 1), (KIND_III, None), (KIND_IV, None)):
        d = canonical_dialgebra(kind, GF2, k)
        for g in range(len(mats)):
            label = classify_dim2(d.rebase(int_matrix_to_mat(GF2, mats[g])))
            assert label.kind == kind
            if k is not None:
                assert label.k == GF2.scalar(k)


def test_every_witness_reproduces_the_canonical_table():
    rng = random.Random(44)
    for d in random_valid_dialgebras(60, seed=22):
        if d.dim != 2:
            continue
        label = classify_dim2(d)
        assert d.rebase(label.witness) == label.canonical
        label2 = classify_dim2(d.rebase(random_invertible(d.field, 2, rng)))
        assert label2.kind == label.kind


def test_classify_rejects_invalid_and_wrong_dimension():
    mutated = Dialgebra.from_entries(QQ, 2, {(1, 1, 1): 1}, {(1, 0, 1): 1, (1, 1, 1): 1})
    with pytest.raises(NotADialgebraError):
        classify_dim2(mutated)
    with pytest.raises(ValueError):
        classify_dim2(Dialgebra.trivial(QQ, 3))


def test_II_parameters_are_complete_over_gf7():
    for k1 in range(1, 7):
        for k2 in range(k1 + 1, 7):
            a = canonical_dialgebra(KIND_II, GF7, k1)
            b = canonical_dialgebra(KIND_II, GF7, k2)
            assert are_isomorphic(a, b) is None


def test_self_isomorphism_returns_a_verified_witness():
    d = canonical_dialgebra(KIND_IV, GF3)
    w = are_isomorphic(d, d)
    assert w is not None and is_isomorphism(d, d, w)


def test_conjugates_of_I_are_detected_over_gf5():
    rng = random.Random(50)
    d = canonical_dialgebra(KIND_I, GF5)
    for _ in range(3):
        conj = d.rebase(random_invertible(GF5, 2, rng))
        w = are_isomorphic(d, conj)
        assert w is not None
        assert is_isomorphism(d, conj, w)


def test_non_isomorphic_forms_are_rejected_over_gf5():
    assert are_isomorphic(canonical_dialgebra(KIND_I, GF5), canonical_dialgebra(KIND_IV, GF5)) is None


def test_rational_isomorphism_through_canonical_forms():
    rng = random.Random(51)
    a = canonical_dialgebra(KIND_II, QQ, 2)
    b = a.rebase(random_invertible(QQ, 2, rng))
    w = are_isomorphic(a, b)
    assert w is not None and is_isomorphism(a, b, w)
    c = canonical_dialgebra(KIND_II, QQ, 3)
    assert are_isomorphic(a, c) is None


@pytest.mark.parametrize(
    "a, b, t",
    [
        ((2, 4), (1, 2), 2),
        ((2, 4), (1, 3), None),
        ((0, 0), (0, 0), 1),
        ((1, 0), (0, 0), None),
        ((0, 2), (0, 0), None),
        ((0, 0), (1, 0), None),
        ((0, 1), (0, 1), 1),
        ((1, 2), (1, 1), None),
        ((0, 3), (0, 6), Fraction(1, 2)),
        ((3, 0), (6, 0), Fraction(1, 2)),
    ],
    ids=[
        "scaled",
        "different-ratios",
        "all-zero",
        "left-x-against-zero",
        "right-x-against-zero",
        "left-t-zero",
        "right-t-one",
        "different-t",
        "left-zero-right-fixes",
        "right-zero-left-fixes",
    ],
)
def test_rational_isomorphism_dim1(a, b, t):
    da, db = (Dialgebra.from_entries(QQ, 1, {(0, 0, 0): l}, {(0, 0, 0): r}) for l, r in (a, b))
    w = are_isomorphic(da, db)
    if t is None:
        assert w is None
    else:
        assert w == Mat.from_rows(QQ, [[t]]) and is_isomorphism(da, db, w)


def test_rational_from_associative_pairs_are_unsupported():
    a = from_associative(split_pair_algebra(QQ))
    b = from_associative(split_pair_algebra(QQ))
    with pytest.raises(UnsupportedOverRationalsError):
        are_isomorphic(a, b)


def test_rational_dim3_is_unsupported():
    a = Dialgebra.trivial(QQ, 3)
    with pytest.raises(UnsupportedOverRationalsError):
        are_isomorphic(a, a)


def test_iso_search_respects_the_bound():
    d = canonical_dialgebra(KIND_I, GF7)
    with pytest.raises(SearchBoundExceededError):
        are_isomorphic(d, d, bound=100)


def test_automorphisms_of_t2_over_gf7_are_refused_before_any_search():
    t2 = from_associative(upper_triangular_algebra(GF7))
    with pytest.raises(SearchBoundExceededError) as refused:
        automorphism_group(t2)
    assert str(refused.value) == (
        "GL(3, 7) scan needs 40353607 candidates, over the search bound 1000000"
    )


def test_gl_scan_over_a_large_prime_does_not_overflow():
    # Residue products near p^3 ~ 2.7e19 would wrap in int64 if not reduced
    # after every factor; e -> -e is the only isomorphism here.
    big = Field.prime(3000017)
    a = Dialgebra.from_entries(big, 1, {(0, 0, 0): 1}, {(0, 0, 0): 1})
    b = Dialgebra.from_entries(big, 1, {(0, 0, 0): -1}, {(0, 0, 0): -1})
    w = are_isomorphic(a, b, bound=10**7)
    assert w is not None and [[c.value for c in row] for row in w.rows] == [[3000016]]
    assert is_isomorphism(a, b, w)


def test_dialgebras_of_different_dimensions_are_not_isomorphic():
    assert are_isomorphic(Dialgebra.trivial(GF2, 2), Dialgebra.trivial(GF2, 3)) is None


def test_automorphisms_of_the_square_type_dialgebra():
    for p, order in ((2, 2), (3, 6), (5, 20)):
        from dialg import Field

        field = Field.prime(p)
        d = from_associative(square_algebra(field))
        auts = automorphism_group(d)
        assert len(auts) == order
        for t in auts:
            assert not t.entry(0, 1)
            assert t.entry(0, 0) == t.entry(1, 1) * t.entry(1, 1)


def test_automorphisms_of_the_trivial_dialgebra_form_gl2():
    auts = automorphism_group(Dialgebra.trivial(GF2, 2))
    assert len(auts) == 6  # |GL_2(F_2)|


def test_automorphism_set_is_a_group():
    d = from_associative(square_algebra(GF3))
    auts = automorphism_group(d)
    from dialg import Mat

    aut_set = {a for a in auts}
    assert Mat.identity(GF3, 2) in aut_set
    for a in auts:
        assert a.inverse() in aut_set
        for b in auts:
            assert (a @ b) in aut_set


def test_automorphisms_unsupported_over_the_rationals():
    with pytest.raises(UnsupportedOverRationalsError):
        automorphism_group(canonical_dialgebra(KIND_I, QQ))


def test_gf_search_agrees_with_scalar_isomorphism_check():
    rng = random.Random(52)
    for d in random_valid_dialgebras(20, seed=23):
        if not d.field.is_finite or d.field.p > 5:
            continue
        t = random_invertible(d.field, d.dim, rng)
        conj = d.rebase(t)
        # The rebase witness itself maps the conjugate back to d.
        assert is_isomorphism(conj, d, t)
        w = are_isomorphic(d, conj)
        assert w is not None and is_isomorphism(d, conj, w)


def test_gl2_sizes_used_by_the_searches():
    from dialg.gfsearch import gl_matrices

    assert len(gl_matrices(5, 2)[0]) == 480
    assert len(gl_matrices(7, 2)[0]) == 2016
    assert len(gl_matrices(2, 2)[0]) == 6


# classify_dim2 against the two-route reference in helpers (one-sided zero
# tables through zero_cubed_decompose, the rest through the (x1, x2, x4)
# case tree): labels, witnesses, canonical tables and errors must agree, and
# each witness must pass the rebase the classifier no longer makes and the
# basis-pair loop of the homomorphism equations.

REFERENCE_FIELDS = [QQ, GF2, GF3, Field.prime(11), Field.prime(9973)]
ALL_KINDS = [
    KIND_TRIVIAL,
    KIND_ZERO_CUBED_LEFT,
    KIND_ZERO_CUBED_RIGHT,
    KIND_I,
    KIND_II,
    KIND_III,
    KIND_IV,
]


def assert_classify_matches_reference(d):
    try:
        want = reference_classify_dim2(d)
    except (DialgError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            classify_dim2(d)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    got = classify_dim2(d)
    assert (got.kind, got.k, got.sublabel) == (want.kind, want.k, want.sublabel)
    assert got.witness == want.witness
    assert got.canonical == want.canonical
    assert got.canonical.basis_names == want.canonical.basis_names
    assert got.label_string() == want.label_string()
    assert d.rebase(got.witness) == got.canonical
    assert reference_is_isomorphism(got.canonical, d, got.witness)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_classify_matches_the_reference_on_every_valid_table(p):
    for d in enumerate_valid_dialgebras(p):
        assert_classify_matches_reference(d)


@st.composite
def ref_scalars(draw, field, nonzero=False):
    if field.is_finite:
        value = draw(st.integers(1 if nonzero else 0, field.p - 1))
    else:
        num = draw(st.integers(-4, 4).filter(bool) if nonzero else st.integers(-4, 4))
        value = Fraction(num, draw(st.integers(1, 4)))
    return field.scalar(value)


@st.composite
def invertible_2x2(draw, field):
    rows = [[draw(ref_scalars(field)) for _ in range(2)] for _ in range(2)]
    if not rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]:
        rows[0][0] += field.one
        rows[1][1] += field.one
        if not rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]:
            rows = [[field.one, field.zero], [field.zero, field.one]]
    return Mat.from_rows(field, rows)


@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_classify_matches_the_reference_on_rebased_tables(data):
    field = data.draw(st.sampled_from(REFERENCE_FIELDS))
    sources = [from_associative(a) for a in associative_zoo(field) if a.dim == 2]
    kind = data.draw(st.sampled_from(ALL_KINDS + [None]))
    if kind is None:
        d = data.draw(st.sampled_from(sources))
    else:
        k = data.draw(ref_scalars(field, nonzero=True)) if kind == KIND_II else None
        d = canonical_dialgebra(kind, field, k)
    assert_classify_matches_reference(d.rebase(data.draw(invertible_2x2(field))))


@pytest.mark.parametrize(
    "d, error",
    [
        (
            Dialgebra.from_entries(QQ, 2, {(1, 1, 1): 1}, {(1, 0, 1): 1, (1, 1, 1): 1}),
            NotADialgebraError,
        ),
        (Dialgebra.trivial(QQ, 3), ValueError),
        (from_associative(upper_triangular_algebra(GF3)), ValueError),
    ],
)
def test_classify_matches_the_reference_on_errors(d, error):
    with pytest.raises(error):
        classify_dim2(d)
    assert_classify_matches_reference(d)


# Digests of (label_string, witness rows, canonical tables) of classify_dim2
# over every valid table, in enumeration order, as the rebasing classifier
# wrote them: a changed witness, canonical table or order changes a digest.
LABEL_DIGESTS = {
    2: (49, "1a91078f68a46e80230c73898567920002470bff862c7980b7873732268b20df"),
    3: (201, "03d3b745c5093c06bea23c77f194a2e63db5acd7ef3b8afad74d5135ccc0ab24"),
    5: (1177, "06e5434fafaaadc29fbabde22ed23cd38bc12e6a891148a1a6b11d190cf2caa2"),
}


@pytest.mark.parametrize("p", sorted(LABEL_DIGESTS))
def test_labels_match_the_pinned_digests(p):
    digest, count = hashlib.sha256(), 0
    for d in enumerate_valid_dialgebras(p):
        label = classify_dim2(d)
        c = label.canonical
        digest.update(f"{label.label_string()}|{label.witness}|{c.left!r}|{c.right!r}\n".encode())
        count += 1
    assert (count, digest.hexdigest()) == LABEL_DIGESTS[p]


def test_canonical_tables_are_built_once_per_kind_field_and_k():
    half = canonical_dialgebra(KIND_II, QQ, "1/2")
    assert half is canonical_dialgebra(KIND_II, QQ, Fraction(1, 2))
    assert canonical_dialgebra(KIND_II, GF7, 9) is canonical_dialgebra(KIND_II, GF7, 2)
    assert canonical_dialgebra(KIND_I, GF3) is canonical_dialgebra(KIND_I, GF3, 5)
    assert canonical_dialgebra(KIND_I, GF3) is not canonical_dialgebra(KIND_I, GF5)
    moved = canonical_dialgebra(KIND_IV, GF5).rebase(Mat.from_rows(GF5, [[1, 2], [3, 4]]))
    assert classify_dim2(moved).canonical is canonical_dialgebra(KIND_IV, GF5)


@pytest.fixture
def fresh_canonical_tables():
    dialg.classify._CANONICAL.clear()
    yield dialg.classify._CANONICAL
    dialg.classify._CANONICAL.clear()


def test_the_witness_guard_bites_on_a_wrong_cached_table(fresh_canonical_tables):
    d = canonical_dialgebra(KIND_I, QQ).rebase(Mat.from_rows(QQ, [[1, 2], [3, 4]]))
    assert classify_dim2(d).kind == KIND_I
    fresh_canonical_tables[KIND_I, QQ, None] = canonical_dialgebra(KIND_IV, QQ)
    with pytest.raises(InternalCheckError, match="witness does not reach the canonical table"):
        classify_dim2(d)


def test_the_witness_guard_bites_on_a_singular_witness(fresh_canonical_tables, monkeypatch):
    class ZeroRows(Vec):
        # Every witness row is built as 0, so the witness is singular.
        __slots__ = ()

        @classmethod
        def from_numerators(cls, field, values, den):
            return Vec.zero(field, len(values))

    d = canonical_dialgebra(KIND_II, GF5, 3).rebase(Mat.from_rows(GF5, [[1, 2], [3, 4]]))
    monkeypatch.setattr(dialg.classify, "Vec", ZeroRows)
    with pytest.raises(InternalCheckError, match="witness does not reach the canonical table"):
        classify_dim2(d)


def test_is_isomorphism_refuses_mixed_fields_and_rejects_wrong_shapes():
    a, b = canonical_dialgebra(KIND_I, QQ), canonical_dialgebra(KIND_I, GF3)
    cases = [
        (a, b, Mat.identity(GF3, 2), "a over rational, b over prime 3, t over prime 3"),
        (a, a, Mat.identity(GF3, 2), "a over rational, b over rational, t over prime 3"),
        (a, b, Mat.identity(QQ, 3), "a over rational, b over prime 3, t over rational"),
    ]
    for x, y, t, fields in cases:
        with pytest.raises(FieldMismatchError, match=fields):
            is_isomorphism(x, y, t)
    assert is_isomorphism(a, a, Mat.identity(QQ, 2))
    assert not is_isomorphism(a, a, Mat.identity(QQ, 3))
    assert not is_isomorphism(a, Dialgebra.trivial(QQ, 3), Mat.identity(QQ, 2))
    assert not is_isomorphism(a, a, Mat.from_rows(QQ, [[1, 0, 0], [0, 1, 0]]))


# Validity is decided by x1..x6 wherever the annihilator is nonzero (the laws
# on (r, s) are exactly the constraints), and by the laws themselves only for
# a zero annihilator; a refused input is named by its first law violation.
# The tests below pin that refusals and labels did not change with it.


def assert_refused_or_labelled_as_reference(d):
    """classify_dim2 refuses d by its first law violation, or labels it as
    the reference does; returns whether d was refused."""
    violation = next(dialgebra_violations(d), None)
    if violation is None:
        assert_classify_matches_reference(d)
        return False
    with pytest.raises(NotADialgebraError) as got:
        classify_dim2(d)
    assert str(got.value) == f"input fails {violation.law} at {violation.triple}"
    return True


def test_every_single_entry_perturbation_over_gf3_is_refused_or_labelled_as_before():
    from dialg.gfsearch import arrays_to_dialgebra, valid_pairs

    tables, _ = valid_pairs(3, 2)
    inputs = refused = 0
    for pair in tables:
        for index in product(range(2), range(2), range(2), range(2)):
            for delta in (1, 2):
                moved = pair.copy()
                moved[index] = (moved[index] + delta) % 3
                refused += assert_refused_or_labelled_as_reference(
                    arrays_to_dialgebra(GF3, *moved)
                )
                inputs += 1
    assert inputs == 6432 and 0 < refused < inputs


@settings(max_examples=120, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_perturbed_moved_canonical_forms_over_q_are_refused_or_labelled_as_before(data):
    kind = data.draw(st.sampled_from(ALL_KINDS))
    k = data.draw(ref_scalars(QQ, nonzero=True)) if kind == KIND_II else None
    d = canonical_dialgebra(kind, QQ, k).rebase(data.draw(invertible_2x2(QQ)))
    side = data.draw(st.sampled_from(["left", "right"]))
    entries = {"left": table_entries(d.left), "right": table_entries(d.right)}
    index = data.draw(st.tuples(*[st.integers(0, 1)] * 3))
    delta = data.draw(ref_scalars(QQ, nonzero=True))
    entries[side][index] = entries[side].get(index, QQ.zero) + delta
    assert_refused_or_labelled_as_reference(
        Dialgebra.from_entries(QQ, 2, entries["left"], entries["right"])
    )


def test_equal_product_tables_over_gf2_are_refused_or_labelled_as_before():
    # A nonassociative algebra with zero annihilator reaches the
    # from-associative exit, which no witness certifies: its laws decide.
    refused = 0
    for values in product(range(2), repeat=8):
        entries = {index: v for index, v in zip(product(range(2), repeat=3), values) if v}
        refused += assert_refused_or_labelled_as_reference(
            Dialgebra.from_entries(GF2, 2, entries, entries)
        )
    assert 0 < refused < 256
    swap = {(0, 0, 1): 1, (1, 1, 0): 1}
    with pytest.raises(NotADialgebraError, match=r"assoc-left at \(0, 0, 1\)"):
        classify_dim2(Dialgebra.from_entries(QQ, 2, swap, swap))


def test_an_invalid_input_is_law_checked_once(monkeypatch):
    # The swap table (equal products, zero annihilator) is refused by the
    # laws, and its first violation names it: one pass finds both.
    calls = []

    def counted(d):
        calls.append(d)
        return dialgebra_violations(d)

    monkeypatch.setattr(dialg.classify, "dialgebra_violations", counted)
    swap = {(0, 0, 1): 1, (1, 1, 0): 1}
    with pytest.raises(NotADialgebraError, match=r"^input fails assoc-left at \(0, 0, 1\)$"):
        classify_dim2(Dialgebra.from_entries(QQ, 2, swap, swap))
    assert len(calls) == 1


def test_every_canonical_table_satisfies_the_laws(fresh_canonical_tables):
    # II_k for every k in GF(p)*, and for k in {2, -1, 1/2} over Q.
    for field in (QQ, GF2, GF3, GF5, GF7):
        ks = [2, -1, Fraction(1, 2)] if field is QQ else range(1, field.p)
        for kind in ALL_KINDS:
            for k in ks if kind == KIND_II else [None]:
                assert reference_check_dialgebra(canonical_dialgebra(kind, field, k)) == []


def test_an_invalid_canonical_point_is_refused_when_built(fresh_canonical_tables, monkeypatch):
    points = dict(dialg.classify._CANONICAL_POINTS, **{KIND_I: (1, 1, 0, 0, 0, 0)})
    monkeypatch.setattr(dialg.classify, "_CANONICAL_POINTS", points)
    with pytest.raises(InternalCheckError, match="canonical I table is invalid"):
        canonical_dialgebra(KIND_I, GF3)
    assert not fresh_canonical_tables


def test_the_laws_are_checked_only_for_a_zero_annihilator(fresh_canonical_tables, monkeypatch):
    # Elsewhere x1..x6 decide validity; canonical_dialgebra checks each table it builds.
    inputs = list(enumerate_valid_dialgebras(3))
    unparametrized = [d for d in inputs if fingerprint(d).dim_ann == 0]
    checked = []

    def counted(d):
        checked.append(d)
        return dialgebra_violations(d)

    monkeypatch.setattr(dialg.classify, "dialgebra_violations", counted)
    for d in inputs:
        classify_dim2(d)
    assert 0 < len(unparametrized) < len(inputs)
    expected = unparametrized + list(fresh_canonical_tables.values())
    assert sorted(map(id, checked)) == sorted(map(id, expected))


def test_a_valid_input_refused_by_its_parameters_is_an_internal_error(monkeypatch):
    # A constraint that fails everywhere stands for a bug on the parameter
    # route: a valid input refused there has no violation to name.
    inputs = [*enumerate_valid_dialgebras(3), canonical_dialgebra(KIND_IV, QQ)]
    before = [classify_dim2(d) for d in inputs]
    monkeypatch.setattr(dialg.classify, "dim2_constraints", lambda t: [1])
    refused = 0
    for d, label in zip(inputs, before):
        if fingerprint(d).dim_ann != 1:
            assert classify_dim2(d) == label
            continue
        with pytest.raises(InternalCheckError, match="a valid dialgebra was refused"):
            classify_dim2(d)
        refused += 1
    assert 0 < refused < len(inputs)
