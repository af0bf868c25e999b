"""Shared builders for the test suite: known algebras and seeded random data."""

import random

from dialg import (
    KIND_I,
    KIND_II,
    KIND_III,
    KIND_IV,
    Algebra,
    BilinearProduct,
    Dialgebra,
    Field,
    Mat,
    Subspace,
    Vec,
    ZeroCubedTriple,
    canonical_dialgebra,
    from_associative,
    from_differential,
    opposite,
    zero_cubed_build,
)

QQ = Field.rationals()
GF2 = Field.prime(2)
GF3 = Field.prime(3)
GF5 = Field.prime(5)
GF7 = Field.prime(7)


def square_algebra(field):
    """Basis (r, s) with s*s = r, everything else zero."""
    return Algebra.from_entries(field, 2, {(1, 1, 0): 1})


def idempotent_line_algebra(field):
    """Basis (r, s) with s*s = s, everything else zero."""
    return Algebra.from_entries(field, 2, {(1, 1, 1): 1})


def dual_numbers_algebra(field):
    """F[x]/(x^2) on basis (1, x)."""
    return Algebra.from_entries(
        field, 2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}
    )


def split_pair_algebra(field):
    """F x F with coordinatewise product."""
    return Algebra.from_entries(field, 2, {(0, 0, 0): 1, (1, 1, 1): 1})


def upper_triangular_algebra(field):
    """Upper triangular 2x2 matrices on basis (E11, E12, E22)."""
    return Algebra.from_entries(
        field,
        3,
        {(0, 0, 0): 1, (0, 1, 1): 1, (1, 2, 1): 1, (2, 2, 2): 1},
        basis_names=("E11", "E12", "E22"),
    )


def inner_derivation_by_e12(field):
    """d(x) = E12 x - x E12 on the upper triangular algebra; squares to zero."""
    return Mat.from_rows(field, [[0, -1, 0], [0, 0, 0], [0, 1, 0]])


def associative_zoo(field):
    algebras = [
        Algebra.from_entries(field, 2, {}),
        square_algebra(field),
        idempotent_line_algebra(field),
        dual_numbers_algebra(field),
        split_pair_algebra(field),
        upper_triangular_algebra(field),
    ]
    return algebras


def random_scalar(field, rng, lo=-4, hi=4):
    if field.is_finite:
        return field.scalar(rng.randrange(field.p))
    return field.scalar(rng.randint(lo, hi))


def random_nonzero_scalar(field, rng, lo=-4, hi=4):
    while True:
        s = random_scalar(field, rng, lo, hi)
        if s:
            return s


def random_vec(field, n, rng, lo=-4, hi=4):
    return Vec(field, tuple(random_scalar(field, rng, lo, hi) for _ in range(n)))


def random_invertible(field, n, rng, lo=-3, hi=3):
    while True:
        m = Mat.from_rows(
            field,
            [[random_scalar(field, rng, lo, hi) for _ in range(n)] for _ in range(n)],
            n,
        )
        try:
            m.inverse()
            return m
        except Exception:
            continue


def random_subspace(field, n, rng):
    count = rng.randrange(n + 1)
    return Subspace.from_vectors(field, n, [random_vec(field, n, rng) for _ in range(count)])


def random_valid_dialgebras(count, seed=20240811):
    """A deterministic stream of valid dialgebras over mixed fields.

    Every item is valid by construction: canonical forms and associative
    algebras conjugated by random invertible matrices, one-sided zero-cubed
    tables, differential dialgebras and opposites of all of these.
    """
    rng = random.Random(seed)
    fields = [QQ, GF2, GF3, GF5]
    out = []
    while len(out) < count:
        field = fields[rng.randrange(len(fields))]
        pick = rng.randrange(6)
        if pick == 0:
            kind = (KIND_I, KIND_III, KIND_IV)[rng.randrange(3)]
            d = canonical_dialgebra(kind, field)
        elif pick == 1:
            d = canonical_dialgebra(KIND_II, field, random_nonzero_scalar(field, rng))
        elif pick == 2:
            zoo = associative_zoo(field)
            d = from_associative(zoo[rng.randrange(len(zoo))])
        elif pick == 3:
            f = ZeroCubedTriple.from_entries(
                field, 1, 1, {(0, 0, 0): random_scalar(field, rng)}
            )
            single = zero_cubed_build(f)
            d = Dialgebra(field, 2, BilinearProduct.zero(field, 2), single.product)
        elif pick == 4:
            scale = random_scalar(field, rng)
            alg = upper_triangular_algebra(field)
            deriv = Mat.from_rows(
                field,
                [
                    [v * scale for v in row.coords]
                    for row in inner_derivation_by_e12(field).rows
                ],
            )
            d = from_differential(alg, deriv)
        else:
            d = from_associative(associative_zoo(field)[rng.randrange(3)])
        d = d.rebase(random_invertible(field, d.dim, rng))
        if rng.randrange(2):
            d = opposite(d)
        out.append(d)
    return out


# Scalar-loop reference implementations, kept only as test oracles for the
# raw contraction kernel in algebras and identities.


def reference_apply(prod, x, y):
    """The bilinear product of two vectors, entry by entry on Scalars."""
    out = [prod.field.zero] * prod.dim
    for i, xi in enumerate(x.coords):
        if not xi:
            continue
        for j, yj in enumerate(y.coords):
            if not yj:
                continue
            c = xi * yj
            for k, gk in enumerate(prod.rows[i][j].coords):
                if gk:
                    out[k] = out[k] + c * gk
    return Vec(prod.field, tuple(out))


def reference_rebase(prod, t):
    """Structure constants on the basis of t's rows: (t_i * t_j) @ t^-1."""
    t_inv = t.inverse()
    return BilinearProduct(
        prod.field,
        prod.dim,
        tuple(
            tuple(reference_apply(prod, t.row(i), t.row(j)) @ t_inv for j in range(prod.dim))
            for i in range(prod.dim)
        ),
    )


def reference_violations(field, n, laws):
    """(law, triple, residual) for every nonzero residual on basis triples, in order."""
    units = [Vec.unit(field, n, i) for i in range(n)]
    out = []
    for law, residual in laws:
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    res = residual(units[i], units[j], units[k])
                    if res:
                        out.append((law, (i, j, k), res))
    return out


def reference_check_dialgebra(d):
    lm = lambda x, y: reference_apply(d.left, x, y)  # noqa: E731
    rm = lambda x, y: reference_apply(d.right, x, y)  # noqa: E731
    laws = [
        ("assoc-left", lambda x, y, z: lm(lm(x, y), z) - lm(x, lm(y, z))),
        ("assoc-right", lambda x, y, z: rm(rm(x, y), z) - rm(x, rm(y, z))),
        ("ax1", lambda x, y, z: lm(lm(x, y), z) - lm(x, rm(y, z))),
        ("ax2", lambda x, y, z: lm(rm(x, y), z) - rm(x, lm(y, z))),
        ("ax3", lambda x, y, z: rm(lm(x, y), z) - rm(x, rm(y, z))),
    ]
    return reference_violations(d.field, d.dim, laws)


def reference_check_associative(a):
    m = lambda x, y: reference_apply(a.product, x, y)  # noqa: E731
    return reference_violations(
        a.field, a.dim, [("assoc", lambda x, y, z: m(m(x, y), z) - m(x, m(y, z)))]
    )


def reference_check_leibniz(a):
    br = lambda x, y: reference_apply(a.product, x, y)  # noqa: E731
    return reference_violations(
        a.field,
        a.dim,
        [("leibniz", lambda x, y, z: br(br(x, y), z) - br(br(x, z), y) - br(x, br(y, z)))],
    )
