"""Annihilators, ideals, zero-cubed decomposition and perfection predicates.

The simple/semiprime/prime predicates are decided exactly over finite
fields from the principal ideals (v), v != 0: one ideal closure per line of
GF(p)^dim, so at most p^dim closures, and the search bound (`bound`) caps
exactly that count. Over the rationals there are infinitely many lines, so
rather than guess, `algebra_simple`, `algebra_semiprime` and `algebra_prime`
raise UnsupportedOverRationalsError (`algebra_simple` first answers False
when A*A = 0), and `structure_flags` reports `None` for each predicate.
`algebra_ideals` lists every ideal by scanning the whole subspace lattice;
its bound counts every subspace.

Every ideal question goes through one closure, `_closure`: a Meat-Axe
spin (Parker 1984; Holt and Rees 1994) of the subspace under the unit
multiplications, on raw rows. Each product of a new vector is one
`contract` against a row or column of the product's sparse view, and the
span grows as int echelon rows by linalg's one pivot step, `_insert`, so
this module does no elimination of its own and builds no Vec per product.

The annihilators are kernels of the int rows that
BilinearProduct.multiplication_rows reads off each product's sparse view:
one kernel per one-sided annihilator, and ann = rann_left meet lann_right
as one kernel of the two systems' echelon rows together.

A zero-cubed algebra, A(AA) = (AA)A = 0, is associative, since then
(xy)z = 0 = x(yz), so is_zero_cubed tests the two subspace products alone.
It splits as its annihilator Z plus a pairing f: X x X -> Z on the
non-pivot units X: zero_cubed_decompose rebases onto that basis and reads
f off the rebased table. Triple equivalence is an isomorphism search: each
pairing becomes the algebra on X + Z, X first, and glsearch's row search,
imported on first use and split into the X and Z blocks, finds the block
maps (alpha, beta). So this module never imports gfsearch or numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import islice

from .algebras import Dialgebra, ProductTag
from .constructions import ZeroCubedTriple, zero_cubed_build
from .errors import (
    FieldMismatchError,
    InternalCheckError,
    NotZeroCubedError,
    SearchBoundExceededError,
    UnsupportedOverRationalsError,
)
from .fields import PRIME
from .linalg import (
    Mat,
    Subspace,
    Vec,
    _echelon,
    _insert,
    _kernel,
    _null_space,
    _raw,
    _subspace,
    all_subspaces,
    contract,
)

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


def annihilators(d):
    """All four annihilators of a dialgebra, plus their intersection.

    Each one-sided annihilator is one kernel of a product's multiplication
    rows, read off its int view; ann is one kernel of the rows of rann_left
    and lann_right together.
    """
    field, n = d.field, d.dim

    def echelon(rows):
        return _echelon(field, list(rows.values()))

    rann_left = echelon(d.left.multiplication_rows())
    lann_left = echelon(d.left.multiplication_rows(right=True))
    if d.right is d.left:
        rann_right, lann_right = rann_left, lann_left
    else:
        rann_right = echelon(d.right.multiplication_rows())
        lann_right = echelon(d.right.multiplication_rows(right=True))
    # The echelon rows span the same systems as the rows they came from.
    both = _echelon(field, [list(r) for r in rann_left[0] + lann_right[0]])
    return AnnihilatorProfile(
        *(_null_space(field, *e, n) for e in (rann_left, lann_left, rann_right, lann_right, both))
    )


def algebra_annihilator(a):
    """{x : x A = A x = 0} for a single-product algebra."""
    prod = a.product
    rows = [*prod.multiplication_rows().values(), *prod.multiplication_rows(right=True).values()]
    return _kernel(a.field, rows, a.dim)


def _closure(u, products, stop=None):
    """The smallest subspace holding u and closed under multiplication by the
    units on both sides, for each product (u itself iff u is an ideal).

    A Meat-Axe spin on raw rows: the maps b -> b*e_j and b -> e_j*b read
    column j and row j of each product's sparse view, so each product of a
    queued vector is one contract. The view holds int numerators over the
    table's den, so a product comes out scaled by den, which leaves its span
    as it is. The span is kept as int echelon rows with their pivots, the
    seeds made integral once, and each product goes to linalg._insert, which
    returns the terms of the new row or None when the product is already in
    the span. Only new vectors are queued, the search stops once the span
    has stop (at most n) dimensions, and the rows, kept in pivot order, are
    the Subspace.
    """
    field, n = u.field, u.ambient_dim
    if any(m.field is not field or m.dim != n for m in products):
        raise FieldMismatchError("subspace does not live in the algebra's space")
    stop = n if stop is None else min(stop, n)
    # A product object listed twice (d.right is d.left) is spun once.
    views = [m.sparse for m in {id(m): m for m in products}.values()]
    maps = [
        side
        for j in range(n)
        for view in views
        for side in ([view[i][j] for i in range(n)], view[j])
    ]
    rows, terms, pivots = [], [], []
    queue = [_insert(field, rows, terms, pivots, field.integral(_raw(r))) for r in u.basis.rows]
    while queue and len(rows) < stop:
        b = queue.pop()
        for side in maps:
            new = _insert(field, rows, terms, pivots, contract([0] * n, b, side))
            if new is not None:
                if len(rows) == stop:
                    break
                queue.append(new)
    return _subspace(field, n, rows, pivots)


def is_ideal(d, u):
    """True iff u is closed under multiplication by A on both sides, both products."""
    return _closure(u, (d.left, d.right), u.dim + 1) == u


def generated_ideal(d, seed):
    """The smallest two-sided ideal (for both products) containing seed."""
    return _closure(seed, (d.left, d.right))


def is_algebra_ideal(a, u):
    """Two-sided ideal test for a single product."""
    return _closure(u, (a.product,), u.dim + 1) == u


def guard_search(what, candidates, bound):
    """Refuse an exhaustive search over more candidates than the bound allows."""
    if candidates > bound:
        raise SearchBoundExceededError(
            f"{what} needs {candidates} candidates, over the search bound {bound}"
        )


def _subspace_count(p, n):
    """Sum over k of the Gaussian binomials [n, k]_p: G(k+1) = 2 G(k) + (p^k - 1) G(k-1)."""
    before, count = 1, 1
    for k in range(n):
        before, count = count, 2 * count + (p**k - 1) * before
    return count


def _enumeration_guard(field, dim, candidates, bound):
    """Refuse the ideal search over Q, or when candidates(p, dim) exceeds the bound."""
    if field.kind != PRIME:
        raise UnsupportedOverRationalsError("exhaustive ideal enumeration needs a finite field")
    guard_search(f"ideal enumeration in GF({field.p})^{dim}", candidates(field.p, dim), bound)


def algebra_ideals(a, bound=DEFAULT_SEARCH_BOUND):
    """Every two-sided ideal of a single-product algebra over GF(p), by a scan
    of the whole subspace lattice (the bound counts every subspace)."""
    _enumeration_guard(a.field, a.dim, _subspace_count, bound)
    return [u for u in all_subspaces(a.field, a.dim) if is_algebra_ideal(a, u)]


def _perfection(a, bound):
    """(simple, semiprime, prime) of a over GF(p), from its principal ideals.

    Every nonzero ideal contains some (v), v != 0, and two distinct minimal
    ideals annihilate each other. So A is simple iff A*A != 0 and every (v)
    is A; semiprime iff no (v) has (v)(v) = 0; prime iff the intersection K
    of all (v) has K*K != 0, or there is no (v) at all (dim 0). The (v) run
    over the lines, the rank-1 stretch of all_subspaces: under p^dim closures.
    """
    _enumeration_guard(a.field, a.dim, pow, bound)
    p, n = a.field.p, a.dim
    lines = islice(all_subspaces(a.field, n), 1, 1 + (p**n - 1) // (p - 1))
    principal = list(dict.fromkeys(_closure(v, (a.product,)) for v in lines))
    square = a.product.subspace_product
    full = Subspace.full(a.field, n)
    meet = reduce(Subspace.intersect, principal, full)
    simple = a.square_space().dim > 0 and all(u == full for u in principal)
    semiprime = all(square(u, u).dim > 0 for u in principal)
    prime = not principal or square(meet, meet).dim > 0
    return simple, semiprime, prime


def algebra_simple(a, bound=DEFAULT_SEARCH_BOUND):
    """No proper nonzero ideal and A*A != 0."""
    # A*A = 0 answers False before the bounded ideal search is attempted.
    return a.square_space().dim > 0 and _perfection(a, bound)[0]


def algebra_semiprime(a, bound=DEFAULT_SEARCH_BOUND):
    """No nonzero ideal I with I*I = 0."""
    return _perfection(a, bound)[1]


def algebra_prime(a, bound=DEFAULT_SEARCH_BOUND):
    """No nonzero ideals I, J with I*J = 0."""
    return _perfection(a, bound)[2]


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
    ls, lsp, lp = _perfection(d.as_single(ProductTag.LEFT), bound)
    rs, rsp, rp = (ls, lsp, lp) if equal else _perfection(d.as_single(ProductTag.RIGHT), bound)
    return StructureFlags(equal, ls, rs, lsp, rsp, lp, rp)


def is_zero_cubed(a):
    """A(AA) = (AA)A = 0, which makes a associative: (xy)z = 0 = x(yz)."""
    full = Subspace.full(a.field, a.dim)
    square = a.square_space()
    return (
        a.product.subspace_product(full, square).dim == 0
        and a.product.subspace_product(square, full).dim == 0
    )


def zero_cubed_decompose(a):
    """Split a zero-cubed algebra as annihilator block plus complement pairing.

    Returns (triple, witness) where the witness rows are the new basis in old
    coordinates (annihilator basis first, then the units at its non-pivot
    columns); rewriting a on that basis gives exactly
    zero_cubed_build(triple). A*A lies in the annihilator, so f[i][j] is the
    Z block of the rebased product of the complement units i and j.
    """
    if not is_zero_cubed(a):
        raise NotZeroCubedError("input is not an associative zero-cubed algebra")
    field, n = a.field, a.dim
    z = algebra_annihilator(a)
    units = (Vec.unit(field, n, c) for c in range(n) if c not in z.pivots)
    witness = Mat(field, (*z.basis.rows, *units), n)
    rebased = a.rebase(witness)
    f = tuple(
        tuple(Vec(field, v.coords[: z.dim]) for v in row[z.dim :])
        for row in rebased.product.rows[z.dim :]
    )
    triple = ZeroCubedTriple(field, z.dim, n - z.dim, f)
    if rebased != zero_cubed_build(triple):
        raise InternalCheckError("complement product left the annihilator")
    return triple, witness


def triples_equivalent(t1, t2, bound=DEFAULT_SEARCH_BOUND):
    """Search for block isomorphisms (alpha, beta) matching the two pairings.

    Returns invertible matrices with t2.f(x @ beta, y @ beta) = t1.f(x, y) @ alpha
    on all basis pairs, or None. Exhaustive, so finite fields only.

    Each pairing is the algebra on X + Z, X coordinates first, whose two
    products are the one table (a, b, x + c) -> f[a][b][c]; a block-diagonal
    diag(beta, alpha) sends the first to the second exactly when (alpha,
    beta) matches the pairings. The answer is glsearch's first such map, cut
    to blocks at X: block-diagonal matrices in lexicographic order run
    beta-major, so it pairs the least beta that has a solution with the
    least alpha for it, in GL enumeration order.
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
    from .glsearch import isomorphisms

    found = next(isomorphisms(_pairing_algebra(t1), _pairing_algebra(t2), split=x), None)
    if found is None:
        return None
    alpha = Mat(field, [Vec(field, r.coords[x:]) for r in found.rows[x:]], z)
    beta = Mat(field, [Vec(field, r.coords[:x]) for r in found.rows[:x]], x)
    return alpha, beta


def _pairing_algebra(t):
    """The pairing on X + Z, X first, as a dialgebra with one shared product."""
    product = t._product(x_first=True)
    return Dialgebra(t.field, product.dim, product, product)
