"""Annihilators, ideals and perfection predicates.

The simple/semiprime/prime predicates are decided exactly over finite
fields from the principal ideals (v), v != 0: one spin per line of GF(p)^dim,
stopped once its span is a (v) found before, so at most p^dim spins, the
count the search bound (`bound`) caps. Over the rationals there are
infinitely many lines, so rather than guess, `algebra_simple`,
`algebra_semiprime` and `algebra_prime` raise UnsupportedOverRationalsError
(`algebra_simple` first answers False when A*A = 0), and `structure_flags`
reports `None` for each predicate. `algebra_ideals` lists every ideal by
scanning the whole subspace lattice; its bound counts every subspace.

Every ideal question goes through one spin, `_spin`: a Meat-Axe spin
(Parker 1984; Holt and Rees 1994) of raw rows under the unit
multiplications. Each product of a new vector is one `contract` against a
row or column of the product's sparse view, and the span grows as int
echelon rows by linalg's one pivot step, `_insert`, so this module does no
elimination of its own and builds no Vec per product. A spin takes a
Subspace and grows its echelon rows, pivots and terms as they are, with no
row inserted again, and returns the Subspace its rows make, so the ideal
scans and perfection predicates build no Vec and no basis for a subspace.

The annihilators are kernels of the int rows that
BilinearProduct.multiplication_rows reads off each product's sparse view:
one kernel per one-sided annihilator, and ann = rann_left meet lann_right
as one kernel of the two systems' echelon rows together. The annihilator of
a single-product algebra, `algebra_annihilator`, needs ann alone and lives
in identities, beside the one kernel it takes.

This module imports only the exact core, the search bound and its refusal
from errors among it, so it never imports another layer, gfsearch or numpy.
The zero-cubed decomposition and triple equivalence live in constructions,
beside the one reader of a triple's pairing.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from itertools import islice

from .algebras import Algebra
from .errors import (
    DEFAULT_SEARCH_BOUND,
    FieldMismatchError,
    UnsupportedOverRationalsError,
    guard_search,
)
from .fields import PRIME
from .linalg import Subspace, _echelon, _insert, _null_space, all_subspaces, contract


class AnnihilatorProfile(
    namedtuple("AnnihilatorProfile", "rann_left lann_left rann_right lann_right ann")
):
    """The four one-sided annihilators and their distinguished intersection.

    ann is rann_left intersected with lann_right; for a valid dialgebra it
    is a two-sided ideal for both products.
    """

    __slots__ = ()


def annihilators(d):
    """All four annihilators of a dialgebra, plus their intersection.

    Each one-sided annihilator is one kernel of a product's multiplication
    rows, read off its int view; ann is one kernel of the rows of rann_left
    and lann_right together.
    """
    field, n = d.field, d.dim

    def echelon(rows):
        return _echelon(field, list(rows.values()))

    def one_sided(prod):
        return echelon(prod.multiplication_rows()), echelon(prod.multiplication_rows(right=True))

    (rann_left, lann_left), (rann_right, lann_right) = d._per_product(one_sided)
    # The echelon rows span the same systems as the rows they came from.
    both = _echelon(field, [list(r) for r in rann_left[0] + lann_right[0]])
    return AnnihilatorProfile(
        *(_null_space(field, *e, n) for e in (rann_left, lann_left, rann_right, lann_right, both))
    )


def _closure(u, products, stop=None):
    """The smallest subspace holding u and closed under multiplication by the
    units on both sides, for each product (u itself iff u is an ideal); the
    spin stops once the span has stop (at most n) dimensions."""
    n = u.ambient_dim
    if any(m.field is not u.field or m.dim != n for m in products):
        raise FieldMismatchError("subspace does not live in the algebra's space")
    stop = n if stop is None else min(stop, n)
    return _spin(u, _unit_maps(products, n), stop)


def _unit_maps(products, n):
    """b -> b*e_j and b -> e_j*b as column j and row j of each sparse view,
    once per product object (d.right may be d.left)."""
    views = [m.sparse for m in {id(m): m for m in products}.values()]
    return [side for j in range(n) for v in views for side in ([row[j] for row in v], v[j])]


def _spin(u, maps, stop, known=()):
    """The Subspace u closed under the maps, grown from u's echelon rows, each
    queued: each product of a queued vector is one contract, over the view's
    den, which keeps its span, and is queued if linalg._insert finds it new.
    The spin stops at stop dimensions, or once its rows are in known: an
    ideal holding u that the span fills is the closure."""
    field, n = u.field, u.ambient_dim
    rows, terms, pivots = [list(r) for r in u.rows], list(u._row_terms()), list(u.pivots)
    queue = list(terms)
    while queue and len(rows) < stop:
        b = queue.pop()
        for side in maps:
            new = _insert(field, rows, terms, pivots, contract([0] * n, b, side))
            if new is not None:
                if len(rows) == stop or known and tuple(map(tuple, rows)) in known:
                    return Subspace(field, n, rows, pivots)
                queue.append(new)
    return Subspace(field, n, rows, pivots)


def is_ideal(d, u):
    """True iff u is closed under multiplication by A on both sides, both products."""
    return _closure(u, (d.left, d.right), u.dim + 1) == u


def generated_ideal(d, seed):
    """The smallest two-sided ideal (for both products) containing seed."""
    return _closure(seed, (d.left, d.right))


def is_algebra_ideal(a, u):
    """Two-sided ideal test for a single product."""
    return _closure(u, (a.product,), u.dim + 1) == u


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
    over the lines, the rank-1 stretch of all_subspaces: under p^dim spins,
    each stopped at a (v) found before, keyed by its echelon rows.
    """
    _enumeration_guard(a.field, a.dim, pow, bound)
    field, p, n = a.field, a.field.p, a.dim
    maps = _unit_maps((a.product,), n)
    found = {}
    for line in islice(all_subspaces(field, n), 1, 1 + (p**n - 1) // (p - 1)):
        u = _spin(line, maps, n, found)
        found.setdefault(u.rows, u)
    principal = list(found.values())
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


class StructureFlags(
    namedtuple(
        "StructureFlags",
        "products_equal simple_left simple_right semiprime_left semiprime_right"
        " prime_left prime_right",
    )
):
    """Perfection predicates per product; None means unsupported over the rationals."""

    __slots__ = ()


def structure_flags(d, bound=DEFAULT_SEARCH_BOUND):
    equal = d.products_equal()
    if d.field.kind != PRIME:
        return StructureFlags(equal, None, None, None, None, None, None)
    (ls, lsp, lp), (rs, rsp, rp) = d._per_product(
        lambda prod: _perfection(Algebra(d.field, d.dim, prod), bound)
    )
    return StructureFlags(equal, ls, rs, lsp, rsp, lp, rp)
