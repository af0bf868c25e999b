"""Annihilators, ideals, zero-cubed decomposition and perfection predicates.

The simple/semiprime/prime predicates are decided exactly over finite
fields by enumerating every subspace and filtering for ideals; over the
rationals the subspace lattice is infinite, so those predicates report
`None` (unsupported) rather than guess.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebras import ProductTag
from .constructions import ZeroCubedTriple
from .errors import (
    FieldMismatchError,
    InternalCheckError,
    NotZeroCubedError,
    SearchBoundExceededError,
    UnsupportedOverRationalsError,
)
from .fields import PRIME
from .identities import check_associative
from .linalg import Mat, Subspace, Vec, all_subspaces, kernel

DEFAULT_SEARCH_BOUND = 10**6


@dataclass(frozen=True)
class AnnihilatorProfile:
    """The four one-sided annihilators and their distinguished intersection.

    ann is rann_left intersected with lann_right; for a valid dialgebra it
    is a two-sided ideal for both products.
    """

    rann_left: Subspace
    lann_left: Subspace
    rann_right: Subspace
    lann_right: Subspace
    ann: Subspace


def _right_annihilator(product):
    """{x : e_i * x = 0 for all i}; the left one for product.transpose_args()."""
    return kernel(Mat(product.field, product.left_multiplication_rows(), product.dim))


def annihilators(d):
    """All four annihilators of a dialgebra, plus their intersection."""
    rann_left = _right_annihilator(d.left)
    lann_left = _right_annihilator(d.left.transpose_args())
    rann_right = _right_annihilator(d.right)
    lann_right = _right_annihilator(d.right.transpose_args())
    return AnnihilatorProfile(
        rann_left, lann_left, rann_right, lann_right, rann_left.intersect(lann_right)
    )


def algebra_annihilator(a):
    """{x : x A = A x = 0} for a single-product algebra."""
    prod = a.product
    rows = prod.left_multiplication_rows() + prod.transpose_args().left_multiplication_rows()
    return kernel(Mat(a.field, rows, a.dim))


def _products_with_units(u, products):
    """Yield b * e and e * b for each basis vector b of u, unit e and product."""
    units = tuple(Vec.unit(u.field, u.ambient_dim, i) for i in range(u.ambient_dim))
    for b in u.basis.rows:
        for e in units:
            for prod in products:
                yield prod.apply(b, e)
                yield prod.apply(e, b)


def _is_closed(u, products):
    return all(u.contains(v) for v in _products_with_units(u, products))


def is_ideal(d, u):
    """True iff u is closed under multiplication by A on both sides, both products."""
    if u.field is not d.field or u.ambient_dim != d.dim:
        raise FieldMismatchError("subspace does not live in the dialgebra's space")
    return _is_closed(u, (d.left, d.right))


def generated_ideal(d, seed):
    """The smallest two-sided ideal (for both products) containing seed."""
    if seed.field is not d.field or seed.ambient_dim != d.dim:
        raise FieldMismatchError("subspace does not live in the dialgebra's space")
    current = seed
    while True:
        vectors = list(current.basis.rows)
        vectors.extend(_products_with_units(current, (d.left, d.right)))
        grown = Subspace.from_vectors(d.field, d.dim, vectors)
        if grown.dim == current.dim:
            return grown
        current = grown


def is_algebra_ideal(a, u):
    """Two-sided ideal test for a single product."""
    return _is_closed(u, (a.product,))


def guard_search(what, candidates, bound):
    """Refuse an exhaustive search over more candidates than the bound allows."""
    if candidates > bound:
        raise SearchBoundExceededError(
            f"{what} needs {candidates} candidates, over the search bound {bound}"
        )


def _enumeration_guard(field, dim, bound):
    if field.kind != PRIME:
        raise UnsupportedOverRationalsError(
            "exhaustive ideal enumeration needs a finite field"
        )
    guard_search(f"ideal enumeration in GF({field.p})^{dim}", field.p**dim, bound)


def algebra_ideals(a, bound=DEFAULT_SEARCH_BOUND):
    """Every two-sided ideal of a single-product algebra over GF(p)."""
    _enumeration_guard(a.field, a.dim, bound)
    return [u for u in all_subspaces(a.field, a.dim) if is_algebra_ideal(a, u)]


# The perfection predicates, each decided from the list of all ideals of a.


def _is_simple(a, ideals):
    return a.square_space().dim > 0 and not any(0 < u.dim < a.dim for u in ideals)


def _is_semiprime(a, ideals):
    return not any(u.dim > 0 and a.product.subspace_product(u, u).dim == 0 for u in ideals)


def _is_prime(a, ideals):
    nonzero = [u for u in ideals if u.dim > 0]
    return not any(a.product.subspace_product(u, v).dim == 0 for u in nonzero for v in nonzero)


def algebra_simple(a, bound=DEFAULT_SEARCH_BOUND):
    """No proper nonzero ideal and A*A != 0."""
    # A*A = 0 answers False before the bounded ideal search is attempted.
    return a.square_space().dim > 0 and _is_simple(a, algebra_ideals(a, bound))


def algebra_semiprime(a, bound=DEFAULT_SEARCH_BOUND):
    """No nonzero ideal I with I*I = 0."""
    return _is_semiprime(a, algebra_ideals(a, bound))


def algebra_prime(a, bound=DEFAULT_SEARCH_BOUND):
    """No nonzero ideals I, J with I*J = 0."""
    return _is_prime(a, algebra_ideals(a, bound))


@dataclass(frozen=True)
class StructureFlags:
    """Perfection predicates per product; None means unsupported over the rationals."""

    products_equal: bool
    simple_left: bool | None
    simple_right: bool | None
    semiprime_left: bool | None
    semiprime_right: bool | None
    prime_left: bool | None
    prime_right: bool | None


def structure_flags(d, bound=DEFAULT_SEARCH_BOUND):
    equal = d.products_equal()
    if d.field.kind != PRIME:
        return StructureFlags(equal, None, None, None, None, None, None)
    _enumeration_guard(d.field, d.dim, bound)
    flags = []
    for tag in (ProductTag.LEFT, ProductTag.RIGHT):
        a = d.as_single(tag)
        ideals = algebra_ideals(a, bound)
        flags.append((_is_simple(a, ideals), _is_semiprime(a, ideals), _is_prime(a, ideals)))
    (ls, lsp, lp), (rs, rsp, rp) = flags
    return StructureFlags(equal, ls, rs, lsp, rsp, lp, rp)


def is_zero_cubed(a):
    """Associative with A(AA) = (AA)A = 0."""
    if check_associative(a):
        return False
    full = Subspace.full(a.field, a.dim)
    square = a.product.subspace_product(full, full)
    return (
        a.product.subspace_product(full, square).dim == 0
        and a.product.subspace_product(square, full).dim == 0
    )


def zero_cubed_decompose(a):
    """Split a zero-cubed algebra as annihilator block plus complement pairing.

    Returns (triple, witness) where the witness rows are the new basis in old
    coordinates (annihilator basis first); rewriting a on that basis gives
    exactly zero_cubed_build(triple).
    """
    if not is_zero_cubed(a):
        raise NotZeroCubedError("input is not an associative zero-cubed algebra")
    z = algebra_annihilator(a)
    keep = [c for c in range(a.dim) if c not in z.pivots]
    units = tuple(Vec.unit(a.field, a.dim, i) for i in range(a.dim))
    f_rows = []
    for pa in keep:
        row = []
        for pb in keep:
            v = a.multiply(units[pa], units[pb])
            if not z.contains(v):
                raise InternalCheckError("complement product left the annihilator")
            row.append(Vec(a.field, tuple(v.coords[p] for p in z.pivots)))
        f_rows.append(tuple(row))
    triple = ZeroCubedTriple(a.field, z.dim, len(keep), tuple(f_rows))
    witness_rows = list(z.basis.rows) + [units[c] for c in keep]
    witness = Mat(a.field, tuple(witness_rows), a.dim)
    return triple, witness


def triples_equivalent(t1, t2, bound=DEFAULT_SEARCH_BOUND):
    """Search for block isomorphisms (alpha, beta) matching the two pairings.

    Returns invertible matrices with t2.f(x @ beta, y @ beta) = t1.f(x, y) @ alpha
    on all basis pairs, or None. Exhaustive, so finite fields only.
    """
    if t1.field is not t2.field:
        raise FieldMismatchError("triples live over different fields")
    field = t1.field
    if field.kind != PRIME:
        raise UnsupportedOverRationalsError("triple equivalence search needs a finite field")
    if t1.z_dim != t2.z_dim or t1.x_dim != t2.x_dim:
        return None
    z, x = t1.z_dim, t1.x_dim
    guard_search("triple equivalence search", field.p ** (z * z + x * x), bound)
    from .gfsearch import gl_matrices, int_matrix_to_mat

    alphas = [int_matrix_to_mat(field, m) for m in gl_matrices(field.p, z)[0]]
    for m in gl_matrices(field.p, x)[0]:
        beta = int_matrix_to_mat(field, m)
        images = beta.rows
        pairings = tuple(
            tuple(t2.apply(images[a], images[b]) for b in range(x)) for a in range(x)
        )
        for alpha in alphas:
            if all(
                t1.f[a][b] @ alpha == pairings[a][b]
                for a in range(x)
                for b in range(x)
            ):
                return alpha, beta
    return None
