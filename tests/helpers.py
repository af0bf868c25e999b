"""Shared builders for the test suite: known algebras and seeded random data."""

import random
from functools import lru_cache
from math import gcd, lcm

import numpy as np

from dialg import (
    DEFAULT_SEARCH_BOUND,
    KIND_I,
    KIND_II,
    KIND_III,
    KIND_IV,
    KIND_TRIVIAL,
    KIND_ZERO_CUBED_LEFT,
    KIND_ZERO_CUBED_RIGHT,
    Algebra,
    AnnihilatorProfile,
    BarUnitSet,
    BilinearProduct,
    Dialgebra,
    Field,
    FieldMismatchError,
    Fingerprint,
    Mat,
    NotADialgebraError,
    NotInvertibleError,
    ProductTag,
    Subspace,
    Vec,
    ZeroCubedTriple,
    all_subspaces,
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


def upper_triangular_algebra(field, k=2):
    """Upper triangular k x k matrices on the basis E_ab, a <= b, row by row:
    (E11, E12, E22) for k = 2, with E_ab E_bc = E_ac."""
    idx = [(a, b) for a in range(k) for b in range(a, k)]
    return Algebra.from_entries(
        field,
        len(idx),
        {
            (idx.index((a, b)), idx.index((b, c)), idx.index((a, c))): 1
            for (a, b) in idx
            for (b2, c) in idx
            if b == b2
        },
        basis_names=tuple(f"E{a + 1}{b + 1}" for a, b in idx),
    )


def matrix_algebra(field, k):
    """All k x k matrices on the basis E_ab, row by row, with E_ab E_bc = E_ac."""
    return Algebra.from_entries(
        field,
        k * k,
        {(a * k + b, b * k + c, a * k + c): 1 for a in range(k) for b in range(k) for c in range(k)},
    )


def table_entries(prod):
    """The nonzero structure constants of a product as {(i, j, k): Scalar}."""
    n = prod.dim
    return {
        (i, j, k): c
        for i in range(n)
        for j in range(n)
        for k, c in enumerate(prod.rows[i][j].coords)
        if c
    }


def direct_sum(field, blocks):
    """The dialgebra direct sum of dialgebras (or of ints, for zero blocks of
    that dimension): each block's products on its own run of basis indices."""
    left, right, offset = {}, {}, 0
    for block in blocks:
        if isinstance(block, int):
            offset += block
            continue
        for entries, prod in ((left, block.left), (right, block.right)):
            for (i, j, k), c in table_entries(prod).items():
                entries[(i + offset, j + offset, k + offset)] = c
        offset += block.dim
    return Dialgebra.from_entries(field, offset, left, right)


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


def int_matrix_to_mat(field, matrix):
    """The Mat of an int matrix (a numpy array or nested lists)."""
    matrix = np.asarray(matrix)
    return Mat.from_rows(field, matrix.tolist(), matrix.shape[1])


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
        except NotInvertibleError:
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


def unshared(d):
    """d with its right product a distinct object equal to its left one: the
    two-product layout that Dialgebra.__init__ never keeps, so that every
    routine takes its two-product route.

    The twin breaks the class's sharing rule on purpose: its right slot is
    set past the freeze with object.__setattr__, so products_equal() reads
    False on equal products. Anything that reads products_equal()
    (fingerprint, are_isomorphic's screen, classify_dim2's guards) is outside
    what a twin may be passed to: there a twin calls two equal tables NOT
    ISOMORPHIC, or raises InternalCheckError on a valid one."""
    twin = Dialgebra(d.field, d.dim, d.left, d.left, d.basis_names)
    object.__setattr__(twin, "right", BilinearProduct(d.field, d.dim, d.left.rows))
    return twin


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


# The perfection formulas over the list of all ideals, kept only as test
# oracles for the principal-ideal route in structure.


def reference_ideals(a):
    """Every ideal of a, by testing each subspace against the unit products."""
    units = [Vec.unit(a.field, a.dim, i) for i in range(a.dim)]
    return [
        u
        for u in all_subspaces(a.field, a.dim)
        if all(
            u.contains(a.multiply(b, e)) and u.contains(a.multiply(e, b))
            for b in u.basis.rows
            for e in units
        )
    ]


def reference_simple(a, ideals):
    full = Subspace.full(a.field, a.dim)
    square = reference_subspace_product(a.product, full, full)
    return square.dim > 0 and not any(0 < u.dim < a.dim for u in ideals)


def reference_semiprime(a, ideals):
    return not any(
        u.dim > 0 and reference_subspace_product(a.product, u, u).dim == 0 for u in ideals
    )


def reference_prime(a, ideals):
    nonzero = [u for u in ideals if u.dim > 0]
    return not any(
        reference_subspace_product(a.product, u, v).dim == 0 for u in nonzero for v in nonzero
    )


# The Vec-based ideal closure and subspace product, kept only as test
# oracles for the spin on raw rows in structure and algebras.


def reference_subspace_product(prod, u, v):
    """The span of all u_a * v_b, one Vec product at a time."""
    spans = [reference_apply(prod, a, b) for a in u.basis.rows for b in v.basis.rows]
    return Subspace.from_vectors(prod.field, prod.dim, spans)


def reference_closure(u, products, stop=None):
    """The smallest subspace holding u and closed under both-sided products
    with the units, rebuilding the span as a Subspace for each new vector;
    stops once the span has stop (at most n) dimensions."""
    n = u.ambient_dim
    stop = n if stop is None else min(stop, n)
    units = tuple(Vec.unit(u.field, n, i) for i in range(n))
    span, queue = u, list(u.basis.rows)
    while queue and span.dim < stop:
        b = queue.pop()
        for w in (
            reference_apply(m, x, y)
            for e in units
            for m in products
            for x, y in ((b, e), (e, b))
        ):
            w = span.reduce(w)
            if w:
                span = Subspace.from_vectors(u.field, n, span.basis.rows + (w,))
                if span.dim == stop:
                    break
                queue.append(w)
    return span


# The census screen as whole-array einsums over the dense table of all
# p^(n^3) tensors (one residual tensor per law and a loop over the left
# tensor), kept only as a test oracle for the coordinate growth in gfsearch.


@lru_cache(maxsize=None)
def all_tensors(p, n):
    """Every n x n x n structure tensor over GF(p), lexicographic order, so a
    tensor's index is its base-p code."""
    digits = np.arange(p ** n**3)[:, None] // p ** np.arange(n**3 - 1, -1, -1) % p
    arr = digits.reshape(p ** n**3, n, n, n)
    arr.setflags(write=False)
    return arr


def associative_indices(p, n):
    """Base-p codes, ascending, of every associative n x n x n tensor over
    GF(p), by gfsearch's coordinate growth under assoc-left alone."""
    from dialg.gfsearch import _grow, _place_values
    from dialg.identities import LAW_ASSOC_LEFT

    return _grow(p, n, [LAW_ASSOC_LEFT], n**3, DEFAULT_SEARCH_BOUND) @ _place_values(p, n**3)


def reference_associative_indices(p, n):
    g = all_tensors(p, n)
    lhs = np.einsum("Nijm,Nmkc->Nijkc", g, g)
    rhs = np.einsum("Njkm,Nimc->Nijkc", g, g)
    return np.flatnonzero(((lhs - rhs) % p == 0).reshape(len(g), -1).all(axis=1))


def reference_valid_pairs(p, n):
    """The (left, right) index pairs of every valid dialgebra, lexicographic."""
    assoc = reference_associative_indices(p, n)
    cands = all_tensors(p, n)[assoc]

    def vanishes(residual):
        return (residual % p == 0).reshape(len(cands), -1).all(axis=1)

    ax3_rhs = np.einsum("Njkm,Nimc->Nijkc", cands, cands)
    pairs = []
    for li, left in zip(assoc, cands):
        ax1 = np.einsum("Njkm,imc->Nijkc", cands, left) - np.einsum("ijm,mkc->ijkc", left, left)
        ax2 = np.einsum("Nijm,mkc->Nijkc", cands, left) - np.einsum("jkm,Nimc->Nijkc", left, cands)
        ax3 = np.einsum("ijm,Nmkc->Nijkc", left, cands) - ax3_rhs
        ok = vanishes(ax1) & vanishes(ax2) & vanishes(ax3)
        pairs.extend((int(li), int(assoc[r])) for r in np.flatnonzero(ok))
    return tuple(pairs)


def arrays_to_dialgebra(field, left, right):
    """The Dialgebra of two residue tensors gamma[i][j][k], by Dialgebra.from_entries."""
    entries = [
        {tuple(map(int, key)): int(v) for key, v in np.ndenumerate(t) if v} for t in (left, right)
    ]
    return Dialgebra.from_entries(field, len(left), *entries)


def grown_valid_dialgebras(p, bound=DEFAULT_SEARCH_BOUND):
    """Every valid dim-2 dialgebra over GF(p), in lexicographic order, by
    gfsearch.valid_pairs' coordinate growth: the reference that the census
    orbits and enumerate_valid_dialgebras, which reads them, are checked
    against."""
    from dialg.gfsearch import valid_pairs

    field = Field.prime(p)
    return [arrays_to_dialgebra(field, left, right) for left, right in valid_pairs(p, 2, bound)[0]]


def reference_census(p, bound):
    """The dim-2 census by pair growth, as (representative, label, orbit size)
    per class: every valid pair from gfsearch.valid_pairs, in lexicographic
    order, and the GL(2, p) orbit from gfsearch.pair_orbit of each pair no
    earlier orbit holds, so each class is its least member's."""
    from dialg import classify_dim2
    from dialg.gfsearch import pair_orbit, valid_pairs

    field = Field.prime(p)
    tables, pairs = valid_pairs(p, 2, bound)
    seen, classes = set(), []
    for (left, right), codes in zip(tables, pairs):
        if codes in seen:
            continue
        orbit = pair_orbit(left, right, p, bound)
        seen |= orbit
        rep = arrays_to_dialgebra(field, left, right)
        classes.append((rep, classify_dim2(rep), len(orbit)))
    return classes


def dialgebra_to_arrays(d):
    """Residue arrays (left, right) of a prime-field dialgebra."""
    if not d.field.is_finite:
        raise FieldMismatchError("residue arrays need a prime field")
    n = d.dim

    def grab(prod):
        values = [[[s.value for s in v.coords] for v in row] for row in prod.rows]
        return np.array(values, dtype=np.int64).reshape(n, n, n)

    return grab(d.left), grab(d.right)


def int_tensor_to_product(field, tensor):
    """The BilinearProduct of one residue tensor."""
    return arrays_to_dialgebra(field, tensor, tensor).left


# The isomorphism scan as whole-array einsums (the full image tensors of
# both products for every element of GL(n, p), with no early stop), kept
# only as a test oracle for the equation-at-a-time scan in gfsearch.


def _reference_products_of_images(mats, tensor, p):
    """sum_ab mats[g,i,a] mats[g,j,b] tensor[a,b,c] mod p, for every g.

    Each einsum multiplies two residues and is reduced before the next, so
    no int64 intermediate holds a product of more than two residues.
    """
    t = np.einsum("gjb,abc->gajc", mats, np.asarray(tensor)) % p
    return np.einsum("gia,gajc->gijc", mats, t) % p


def _reference_iso_mask(ga, gb, mats, p):
    lhs = np.einsum("ijc,gck->gijk", ga, mats) % p
    rhs = _reference_products_of_images(mats, gb, p)
    return (lhs == rhs).reshape(len(mats), -1).all(axis=1)


def reference_isomorphism_indices(a_pair, b_pair, p):
    """Indices into gl_matrices of every map sending pair a to pair b."""
    from dialg.gfsearch import gl_matrices

    la, ra = a_pair
    lb, rb = b_pair
    n = la.shape[0]
    mats, _ = gl_matrices(p, n)
    mask = _reference_iso_mask(la, lb, mats, p) & _reference_iso_mask(ra, rb, mats, p)
    return np.flatnonzero(mask)


# The Scalar-object elimination and products of linalg, kept only as test
# oracles for the raw-value path (row reduction and contract).


def reference_rref(m):
    """(RREF Mat, pivot columns) by elimination on Scalar entries."""
    rows = [list(r.coords) for r in m.rows]
    pivots = []
    for col in range(m.ncols):
        piv = len(pivots)
        if piv == len(rows):
            break
        hit = next((r for r in range(piv, len(rows)) if rows[r][col]), None)
        if hit is None:
            continue
        rows[piv], rows[hit] = rows[hit], rows[piv]
        inv = rows[piv][col].inverse()
        rows[piv] = [inv * e for e in rows[piv]]
        for r in range(len(rows)):
            if r != piv and rows[r][col]:
                c = rows[r][col]
                rows[r] = [a - c * b for a, b in zip(rows[r], rows[piv])]
        pivots.append(col)
    return Mat(m.field, tuple(Vec(m.field, tuple(r)) for r in rows), m.ncols), pivots


def _primitive(values):
    """Fractions as the primitive int row on their line: scaled by the lcm of
    their denominators, then divided by the gcd."""
    den = lcm(*(v.denominator for v in values))
    ints = [v.numerator * (den // v.denominator) for v in values]
    g = gcd(*ints)
    return [v // g for v in ints]


def reference_span(field, n, vectors):
    """The Subspace whose rows are the Scalar RREF's, made primitive over Q."""
    red, pivots = reference_rref(Mat(field, tuple(vectors), n))
    rows = [[c.value for c in r.coords] for r in red.rows[: len(pivots)]]
    if not field.is_finite:
        rows = [_primitive(r) for r in rows]
    return Subspace(field, n, rows, pivots)


def reference_kernel(m):
    red, pivots = reference_rref(m)
    basis = []
    for f in (c for c in range(m.ncols) if c not in pivots):
        coords = [m.field.zero] * m.ncols
        coords[f] = m.field.one
        for r, p in enumerate(pivots):
            coords[p] = -red.rows[r].coords[f]
        basis.append(Vec(m.field, tuple(coords)))
    return reference_span(m.field, m.ncols, basis)


def reference_solve(m, b):
    aug = Mat(
        m.field,
        tuple(Vec(m.field, r.coords + (c,)) for r, c in zip(m.rows, b.coords)),
        m.ncols + 1,
    )
    red, pivots = reference_rref(aug)
    if m.ncols in pivots:
        return None
    coords = [m.field.zero] * m.ncols
    for r, p in enumerate(pivots):
        coords[p] = red.rows[r].coords[m.ncols]
    return Vec(m.field, tuple(coords)), reference_kernel(m)


def reference_inverse(m):
    """The inverse by eliminating [M | I], or None when m is singular."""
    n = m.nrows
    unit = [Vec.unit(m.field, n, i).coords for i in range(n)]
    aug = Mat(m.field, tuple(Vec(m.field, r.coords + unit[i]) for i, r in enumerate(m.rows)), 2 * n)
    red, pivots = reference_rref(aug)
    if pivots != list(range(n)):
        return None
    return Mat(m.field, tuple(Vec(m.field, r.coords[n:]) for r in red.rows), n)


def reference_reduce(u, v):
    for r, p in zip(u.basis.rows, u.pivots):
        c = v.coords[p]
        if c:
            v = v - r.scale(c)
    return v


def reference_intersect(u, w):
    stacked = Mat(u.field, u.basis.rows + w.basis.rows, u.ambient_dim)
    left_null = reference_kernel(stacked.transpose())
    vectors = [
        reference_vec_mat(Vec(u.field, x.coords[: u.dim]), u.basis) for x in left_null.basis.rows
    ]
    return reference_span(u.field, u.ambient_dim, vectors)


def reference_multiplication_rows(prod, right=False):
    """The maps x -> e_i * x (x -> x * e_i when right) as Scalar rows: row
    (i, k) holds coordinate k of e_i * e_j (of e_j * e_i) over j, zero rows
    included, in (i, k) order."""
    n = prod.dim
    return [
        Vec(prod.field, tuple((prod.rows[j][i] if right else prod.rows[i][j]).coords[k]
                              for j in range(n)))
        for i in range(n)
        for k in range(n)
    ]


def reference_annihilators(d):
    """annihilators by the Scalar route: one reference_kernel of the Scalar
    multiplication rows per side, and ann as the intersection of rann_left
    and lann_right."""
    def side(prod, right):
        return reference_kernel(Mat(d.field, reference_multiplication_rows(prod, right), d.dim))

    rann_left, lann_left = side(d.left, False), side(d.left, True)
    rann_right, lann_right = side(d.right, False), side(d.right, True)
    ann = reference_intersect(rann_left, lann_right)
    return AnnihilatorProfile(rann_left, lann_left, rann_right, lann_right, ann)


def reference_bar_units(d):
    """bar_units by reference_solve on the Scalar rows of e_j -> e_i <| e_j
    and e_j -> e_j |> e_i, right-hand side delta_ik."""
    field, n = d.field, d.dim
    rows = reference_multiplication_rows(d.left) + reference_multiplication_rows(d.right, True)
    delta = tuple(field.one if i == k else field.zero for i in range(n) for k in range(n))
    result = reference_solve(Mat(field, tuple(rows), n), Vec(field, delta + delta))
    return BarUnitSet(None, None) if result is None else BarUnitSet(*result)


def reference_fingerprint(d):
    """fingerprint from reference_annihilators, reference_bar_units and the
    reference_span of each product's n^2 basis products."""
    units = [Vec.unit(d.field, d.dim, i) for i in range(d.dim)]
    prof = reference_annihilators(d)
    squares = [
        reference_span(d.field, d.dim, [reference_apply(m, a, b) for a in units for b in units]).dim
        for m in (d.left, d.right)
    ]
    return Fingerprint(
        *squares,
        prof.rann_left.dim,
        prof.lann_left.dim,
        prof.rann_right.dim,
        prof.lann_right.dim,
        prof.ann.dim,
        d.left == d.right,
        reference_bar_units(d).point is not None,
    )


def reference_quotient(d, ideal):
    """(quotient, projection) as quotient computes them, by reference_reduce
    and reference_apply on Scalars, or None when ideal is not an ideal."""
    n, field = d.dim, d.field
    units = [Vec.unit(field, n, i) for i in range(n)]
    for m in (d.left, d.right):
        for b in ideal.basis.rows:
            for e in units:
                for x, y in ((b, e), (e, b)):
                    if reference_reduce(ideal, reference_apply(m, x, y)):
                        return None
    keep = [c for c in range(n) if c not in ideal.pivots]

    def project(v):
        return Vec(field, tuple(reference_reduce(ideal, v).coords[c] for c in keep))

    proj = Mat(field, tuple(project(e) for e in units), len(keep))
    left, right = (
        BilinearProduct(field, len(keep), tuple(tuple(project(m.row(a, b)) for b in keep)
                                                for a in keep))
        for m in (d.left, d.right)
    )
    return Dialgebra(field, len(keep), left, right), proj


def reference_vec_mat(v, m):
    out = [v.field.zero] * m.ncols
    for i, c in enumerate(v.coords):
        if c:
            out = [acc + c * e for acc, e in zip(out, m.rows[i].coords)]
    return Vec(v.field, tuple(out))


def reference_mat_vec(m, v):
    out = []
    for r in m.rows:
        acc = m.field.zero
        for a, b in zip(r.coords, v.coords):
            if a and b:
                acc = acc + a * b
        out.append(acc)
    return Vec(m.field, tuple(out))


def reference_zero_cubed_apply(t, x, y):
    out = Vec.zero(t.field, t.z_dim)
    for a, xa in enumerate(x.coords):
        for b, yb in enumerate(y.coords):
            if xa and yb and t.f[a][b]:
                out = out + t.f[a][b].scale(xa * yb)
    return out


def reference_is_isomorphism(a, b, t):
    """Does t send a's products to b's, basis pair by basis pair?"""
    if t.nrows != a.dim or t.ncols != b.dim or a.dim != b.dim:
        return False
    if reference_inverse(t) is None:
        return False
    for pa, pb in ((a.left, b.left), (a.right, b.right)):
        for i in range(a.dim):
            for j in range(a.dim):
                if reference_vec_mat(pa.row(i, j), t) != reference_apply(pb, t.row(i), t.row(j)):
                    return False
    return True


def reference_triples_equivalent(t1, t2):
    """triples_equivalent by the double loop over GL(x) x GL(z): the first
    beta, then the first alpha, with t2.f(x beta, y beta) = t1.f(x, y) alpha."""
    from dialg.gfsearch import gl_matrices

    field, z, x = t1.field, t1.z_dim, t1.x_dim
    if (t2.z_dim, t2.x_dim) != (z, x):
        return None
    alphas = [int_matrix_to_mat(field, m) for m in gl_matrices(field.p, z)[0]]
    for m in gl_matrices(field.p, x)[0]:
        beta = int_matrix_to_mat(field, m)
        images = beta.rows
        pairings = tuple(
            tuple(t2.apply(images[a], images[b]) for b in range(x)) for a in range(x)
        )
        for alpha in alphas:
            if all(t1.f[a][b] @ alpha == pairings[a][b] for a in range(x) for b in range(x)):
                return alpha, beta
    return None


def reference_canonical_dialgebra(kind, field, k=None):
    """The canonical table of a classification bucket on basis (r, s), each
    written out as its own entry dicts: an oracle for canonical_dialgebra,
    which reads them off points of the ParamTable family."""
    names = ("r", "s")
    if kind == KIND_TRIVIAL:
        return Dialgebra.from_entries(field, 2, {}, {}, names)
    if kind == KIND_ZERO_CUBED_LEFT:
        return Dialgebra.from_entries(field, 2, {}, {(1, 1, 0): 1}, names)
    if kind == KIND_ZERO_CUBED_RIGHT:
        return Dialgebra.from_entries(field, 2, {(1, 1, 0): 1}, {}, names)
    if kind == KIND_I:
        return Dialgebra.from_entries(
            field, 2, {(1, 1, 1): 1}, {(1, 0, 0): 1, (1, 1, 1): 1}, names
        )
    if kind == KIND_II:
        k = field.scalar(k)
        if not k:
            raise ValueError("the II family needs a nonzero parameter")
        return Dialgebra.from_entries(field, 2, {(1, 1, 0): 1}, {(1, 1, 0): k}, names)
    if kind == KIND_III:
        return Dialgebra.from_entries(
            field, 2, {(0, 1, 0): 1, (1, 1, 1): 1}, {(1, 1, 1): 1}, names
        )
    if kind == KIND_IV:
        return Dialgebra.from_entries(
            field, 2, {(0, 1, 0): 1, (1, 1, 1): 1}, {(1, 0, 0): 1, (1, 1, 1): 1}, names
        )
    raise ValueError(f"no canonical table for kind {kind!r}")


def _reference_one_sided_zero_label(d):
    from dialg.classify import (
        KIND_ZERO_CUBED_LEFT,
        KIND_ZERO_CUBED_RIGHT,
        SUBLABEL_SQUARE,
        ClassLabel,
        _require,
    )
    from dialg.structure import zero_cubed_decompose

    kind = KIND_ZERO_CUBED_LEFT if d.left.is_zero() else KIND_ZERO_CUBED_RIGHT
    single = d.as_single(ProductTag.RIGHT if kind == KIND_ZERO_CUBED_LEFT else ProductTag.LEFT)
    triple, base = zero_cubed_decompose(single)
    _require(triple.z_dim == 1, "one-sided zero dialgebra with non-line annihilator")
    z0, x0 = base.rows
    c = triple.f[0][0].coords[0]
    _require(bool(c), "complement square vanished")
    witness = Mat(d.field, (z0.scale(c), x0), 2)
    canonical = reference_canonical_dialgebra(kind, d.field)
    _require(d.rebase(witness) == canonical, "zero-cubed witness is not a base change to the table")
    return ClassLabel(kind, None, SUBLABEL_SQUARE, witness, canonical)


def reference_extract_params(d):
    """Read x1..x6 off a dialgebra already written on an (r, s) basis, with
    classify_dim2's shape checks."""
    from dialg.classify import ParamTable, _require

    left, right = d.left, d.right
    zero = d.field.zero
    _require(not left.row(0, 0) and not left.row(1, 0), "left table shape broken")
    _require(left.entry(0, 1, 1) == zero, "r <| s has an s component")
    _require(not right.row(0, 0) and not right.row(0, 1), "right table shape broken")
    _require(right.entry(1, 0, 1) == zero, "s |> r has an s component")
    return ParamTable(
        left.entry(0, 1, 0),
        left.entry(1, 1, 0),
        left.entry(1, 1, 1),
        right.entry(1, 0, 0),
        right.entry(1, 1, 0),
        right.entry(1, 1, 1),
    )


def reference_classify_dim2(d):
    """classify_dim2 by two routes: one-sided zero tables through the
    zero-cubed decomposition, everything else rebased to (r, s) and sorted by
    the case tree on (x1, x2, x4) with a rescaling written per leaf; each
    witness is checked by rebasing the input on it."""
    from dialg.classify import (
        KIND_FROM_ASSOCIATIVE,
        KIND_TRIVIAL,
        SUBLABEL_TRIVIAL,
        ClassLabel,
        _require,
        dim2_constraints,
    )
    from dialg.identities import dialgebra_violations
    from dialg.structure import annihilators

    if d.dim != 2:
        raise ValueError("classification is only defined in dimension 2")
    violation = next(dialgebra_violations(d), None)
    if violation is not None:
        raise NotADialgebraError(f"input fails {violation.law} at {violation.triple}")
    identity = Mat.identity(d.field, 2)
    left_zero, right_zero = d.left.is_zero(), d.right.is_zero()
    if left_zero and right_zero:
        return ClassLabel(KIND_TRIVIAL, None, SUBLABEL_TRIVIAL, identity, d)
    if left_zero or right_zero:
        return _reference_one_sided_zero_label(d)

    ann = annihilators(d).ann
    if ann.dim == 0:
        _require(d.products_equal(), "zero annihilator but distinct products")
        return ClassLabel(KIND_FROM_ASSOCIATIVE, None, None, identity, d)
    _require(ann.dim == 1, "nonzero products with a full annihilator")

    r = ann.basis.row(0)
    s = Vec.unit(d.field, 2, 1 - ann.pivots[0])
    base = Mat(d.field, (r, s), 2)
    t = reference_extract_params(d.rebase(base))
    _require(not any(dim2_constraints(t)), "valid dialgebra violates the parameter constraints")
    x1, x2, x3, x4, x5, x6 = t.x1, t.x2, t.x3, t.x4, t.x5, t.x6
    one, zero = d.field.one, d.field.zero

    kind = None
    k = None
    step = identity
    if not x1 and not x2:
        _require(bool(x3), "left product vanished inside the case tree")
        _require(x3 == x6 and not x5, "case x1 = x2 = 0 shape broken")
        if not x4:
            kind = KIND_FROM_ASSOCIATIVE
        else:
            _require(x4 == x3, "case of I reached with x4 != x3")
            kind = KIND_I
            step = Mat.from_rows(d.field, [[one, zero], [zero, x3.inverse()]])
    elif not x1:
        if not x4:
            if not x3:
                _require(not x6, "case of II reached with x6 != 0")
                _require(bool(x5), "right product vanished inside the case tree")
                kind = KIND_II
                k = x5 / x2
                step = Mat.from_rows(d.field, [[x2, zero], [zero, one]])
            else:
                _require(x2 == x5 and x3 == x6, "coinciding-products case shape broken")
                kind = KIND_FROM_ASSOCIATIVE
        else:
            _require(not x5 and x3 == x4 and x3 == x6 and bool(x3), "second case of I shape broken")
            kind = KIND_I
            step = Mat.from_rows(d.field, [[one, zero], [x2 / (x3 * x3), x3.inverse()]])
    else:
        _require(not x2, "x1 and x2 simultaneously nonzero")
        if not x4:
            _require(x1 == x3 and x1 == x6, "case of III shape broken")
            kind = KIND_III
            step = Mat.from_rows(d.field, [[one, zero], [x5 / (x6 * x6), x6.inverse()]])
        else:
            _require(not x5 and x1 == x3 and x1 == x4 and x1 == x6, "case of IV shape broken")
            kind = KIND_IV
            step = Mat.from_rows(d.field, [[one, zero], [zero, x1.inverse()]])

    if kind == KIND_FROM_ASSOCIATIVE:
        _require(d.products_equal(), "from-associative label with distinct products")
        return ClassLabel(KIND_FROM_ASSOCIATIVE, None, None, identity, d)
    witness = step @ base
    canonical = reference_canonical_dialgebra(kind, d.field, k)
    _require(d.rebase(witness) == canonical, "witness does not reach the canonical table")
    return ClassLabel(kind, k, None, witness, canonical)
