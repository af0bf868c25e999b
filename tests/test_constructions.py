import random
from itertools import product

import pytest

from dialg import (
    KIND_I,
    KIND_II,
    KIND_III,
    Algebra,
    DerivationSquareError,
    Dialgebra,
    FieldMismatchError,
    Mat,
    NotADerivationError,
    NotADialgebraError,
    NotAnIdealError,
    NotAssociativeError,
    ProductTag,
    Subspace,
    Vec,
    ZeroCubedTriple,
    annihilators,
    canonical_dialgebra,
    check_dialgebra,
    check_leibniz,
    from_associative,
    from_differential,
    is_zero_cubed,
    leibniz_bracket,
    opposite,
    quotient,
    zero_cubed_build,
)
from helpers import (
    GF3,
    GF5,
    QQ,
    inner_derivation_by_e12,
    random_valid_dialgebras,
    square_algebra,
    upper_triangular_algebra,
)

L, R = ProductTag.LEFT, ProductTag.RIGHT


def test_from_associative_idempotent_line():
    a = Algebra.from_entries(QQ, 1, {(0, 0, 0): 1})
    d = from_associative(a)
    assert d.left == d.right == a.product
    assert check_dialgebra(d) == []


def test_from_associative_rejects_non_associative():
    bad = Algebra.from_entries(QQ, 2, {(0, 0, 1): 1, (0, 1, 0): 1})
    with pytest.raises(NotAssociativeError):
        from_associative(bad)


def test_from_associative_zero_algebra():
    d = from_associative(Algebra.from_entries(QQ, 2, {}))
    assert d.left.is_zero() and d.right.is_zero()


def test_opposite_of_I_is_the_table_of_III():
    op = opposite(canonical_dialgebra(KIND_I, QQ))
    third = canonical_dialgebra(KIND_III, QQ)
    assert op.left == third.left and op.right == third.right


def test_opposite_is_an_involution_preserving_validity():
    for d in random_valid_dialgebras(40, seed=77):
        op = opposite(d)
        assert check_dialgebra(op) == []
        assert opposite(op) == d


def test_opposite_of_trivial_is_trivial():
    assert opposite(Dialgebra.trivial(QQ, 2)) == Dialgebra.trivial(QQ, 2)


def test_opposite_of_II_swaps_the_roles():
    d = canonical_dialgebra(KIND_II, GF5, 2)
    op = opposite(d)
    s = Vec.unit(GF5, 2, 1)
    assert op.multiply(L, s, s) == Vec.of(GF5, [2, 0])
    assert op.multiply(R, s, s) == Vec.of(GF5, [1, 0])


def test_opposite_swaps_annihilators():
    for d in random_valid_dialgebras(30, seed=13):
        a = annihilators(d)
        b = annihilators(opposite(d))
        assert a.rann_left == b.lann_right
        assert a.rann_right == b.lann_left
        assert a.lann_left == b.rann_right
        assert a.lann_right == b.rann_left


def test_zero_cubed_build_square_pairing():
    # Z = F, X = F, f(x, y) = xy: the two-dimensional square-type algebra.
    t = ZeroCubedTriple.from_entries(QQ, 1, 1, {(0, 0, 0): 1})
    a = zero_cubed_build(t)
    assert a == square_algebra(QQ)


def test_zero_cubed_triple_checks_its_grid_when_built_directly():
    # A 2-coordinate value on a 1-dimensional Z; a 1x1 grid for a 2-dimensional X.
    with pytest.raises(FieldMismatchError):
        ZeroCubedTriple(QQ, 1, 1, ((Vec.of(QQ, [1, 5]),),))
    with pytest.raises(FieldMismatchError):
        ZeroCubedTriple(QQ, 1, 2, ((Vec.of(QQ, [1]),),))
    with pytest.raises(FieldMismatchError):
        ZeroCubedTriple(QQ, 1, 1, ((Vec.of(GF3, [1]),),))


def test_zero_cubed_build_zero_pairing_is_trivial():
    t = ZeroCubedTriple.from_entries(QQ, 1, 2, {})
    a = zero_cubed_build(t)
    assert a.product.is_zero() and a.dim == 3


def test_zero_cubed_build_rank_one_pairing():
    # Z = F, X = F^2, f((x1,x2),(y1,y2)) = x1 y2: square nonzero, cube zero.
    t = ZeroCubedTriple.from_entries(QQ, 1, 2, {(0, 1, 0): 1})
    a = zero_cubed_build(t)
    assert a.square_space().dim == 1
    assert is_zero_cubed(a)


def test_every_build_is_associative_and_zero_cubed():
    rng = random.Random(3)
    for _ in range(20):
        z, x = rng.randrange(0, 3), rng.randrange(0, 3)
        entries = {
            (a, b, c): rng.randrange(3)
            for a in range(x)
            for b in range(x)
            for c in range(z)
        }
        t = ZeroCubedTriple.from_entries(GF3, z, x, entries)
        assert is_zero_cubed(zero_cubed_build(t))


def test_from_differential_upper_triangular():
    alg = upper_triangular_algebra(QQ)
    d = from_differential(alg, inner_derivation_by_e12(QQ))
    assert check_dialgebra(d) == []
    e11, e22 = Vec.unit(QQ, 3, 0), Vec.unit(QQ, 3, 2)
    assert d.multiply(L, e11, e22) == Vec.unit(QQ, 3, 1)


def test_from_differential_zero_map_gives_trivial():
    alg = upper_triangular_algebra(QQ)
    d = from_differential(alg, Mat.zero(QQ, 3, 3))
    assert d.left.is_zero() and d.right.is_zero()


def test_from_differential_rejects_non_square_zero():
    # Bracket with E11 is a derivation but squares to the identity on E12.
    alg = upper_triangular_algebra(QQ)
    bracket_e11 = Mat.from_rows(QQ, [[0, 0, 0], [0, 1, 0], [0, 0, 0]])
    with pytest.raises(DerivationSquareError):
        from_differential(alg, bracket_e11)


def test_from_differential_rejects_non_derivations():
    alg = upper_triangular_algebra(QQ)
    not_deriv = Mat.from_rows(QQ, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(NotADerivationError):
        from_differential(alg, not_deriv)


def test_from_differential_rejects_non_associative_base():
    bad = Algebra.from_entries(QQ, 2, {(0, 0, 1): 1, (0, 1, 0): 1})
    with pytest.raises(NotAssociativeError):
        from_differential(bad, Mat.zero(QQ, 2, 2))


def test_leibniz_bracket_of_I():
    br = leibniz_bracket(canonical_dialgebra(KIND_I, QQ))
    assert br.product.row(0, 1) == Vec.of(QQ, [-1, 0])
    assert not br.product.row(0, 0)
    assert not br.product.row(1, 0)
    assert not br.product.row(1, 1)
    assert check_leibniz(br) == []


def test_leibniz_bracket_of_from_associative_is_the_commutator():
    for alg in (upper_triangular_algebra(QQ), square_algebra(GF3)):
        br = leibniz_bracket(from_associative(alg))
        for i in range(alg.dim):
            for j in range(alg.dim):
                assert br.product.row(i, j) == alg.product.row(i, j) - alg.product.row(j, i)


def test_leibniz_bracket_of_II_k_measures_the_asymmetry():
    br = leibniz_bracket(canonical_dialgebra(KIND_II, QQ, 3))
    # [s, s] = (1 - k) r is nonzero for k != 1, so the bracket is not skew.
    assert br.product.row(1, 1) == Vec.of(QQ, [-2, 0])
    assert check_leibniz(br) == []


def test_leibniz_bracket_matches_vec_subtraction_on_random_dialgebras():
    # Over Q the two products' views can sit over different denominators.
    for d in random_valid_dialgebras(30, seed=83):
        rows = [[d.left.row(i, j) - d.right.row(j, i) for j in range(d.dim)] for i in range(d.dim)]
        br = leibniz_bracket(d)
        assert [list(r) for r in br.product.rows] == rows


def test_leibniz_bracket_refuses_invalid_input():
    mutated = Dialgebra.from_entries(QQ, 2, {(1, 1, 1): 1}, {(1, 0, 1): 1, (1, 1, 1): 1})
    with pytest.raises(NotADialgebraError):
        leibniz_bracket(mutated)


def test_quotient_of_I_by_its_annihilator():
    d = canonical_dialgebra(KIND_I, QQ)
    ideal = Subspace.from_vectors(QQ, 2, [Vec.of(QQ, [1, 0])])
    q, proj = quotient(d, ideal)
    assert q.dim == 1
    e = Vec.unit(QQ, 1, 0)
    assert q.multiply(L, e, e) == e
    assert q.multiply(R, e, e) == e
    assert Vec.of(QQ, [5, 1]) @ proj == Vec.of(QQ, [1])


def test_quotient_by_zero_is_the_identity():
    d = canonical_dialgebra(KIND_I, QQ)
    q, proj = quotient(d, Subspace.zero(QQ, 2))
    assert q == d
    assert proj == Mat.identity(QQ, 2)


def test_quotient_by_everything_is_zero_dimensional():
    d = canonical_dialgebra(KIND_I, QQ)
    q, proj = quotient(d, Subspace.full(QQ, 2))
    assert q.dim == 0
    assert proj.ncols == 0


def test_quotient_rejects_non_ideals():
    d = canonical_dialgebra(KIND_I, QQ)
    with pytest.raises(NotAnIdealError):
        quotient(d, Subspace.from_vectors(QQ, 2, [Vec.of(QQ, [0, 1])]))


def test_quotient_projection_is_a_homomorphism():
    for d in random_valid_dialgebras(25, seed=55):
        ideal = annihilators(d).rann_left
        from dialg import is_ideal

        if not is_ideal(d, ideal):
            continue
        q, proj = quotient(d, ideal)
        units = [Vec.unit(d.field, d.dim, i) for i in range(d.dim)]
        for tag in (L, R):
            for x, y in product(units, repeat=2):
                assert d.multiply(tag, x, y) @ proj == q.multiply(tag, x @ proj, y @ proj)


def test_from_associative_commutative_table_equals_its_opposite():
    # r kills everything and s*s = s: the dialgebra coincides with its opposite.
    from helpers import idempotent_line_algebra

    d = from_associative(idempotent_line_algebra(QQ))
    assert opposite(d) == d
