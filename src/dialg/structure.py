"""Annihilators, ideals, zero-cubed decomposition and perfection predicates.

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
as one kernel of the two systems' echelon rows together. `_ann` takes that
meet as one kernel of the raw rows, with no one-sided kernel: it serves
`algebra_annihilator` and `classify_dim2`, which need ann alone.

A zero-cubed algebra, A(AA) = (AA)A = 0, is associative, since then
(xy)z = 0 = x(yz), so is_zero_cubed tests that every product lies in the
annihilator, and nothing else.
It splits as its annihilator Z plus a pairing f: X x X -> Z on the
non-pivot units X: zero_cubed_decompose rebases onto that basis and reads
f[a][b] as the Z block of the rebased table's row for the X units a and b.
Triple equivalence is an isomorphism search: each pairing becomes the
algebra on X + Z, X first, and glsearch's row search, imported on first
use and split into the X and Z blocks, finds the block maps (alpha, beta).
So this module never imports gfsearch or numpy.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from itertools import islice

from .algebras import Algebra, Dialgebra
from .constructions import ZeroCubedTriple, zero_cubed_build
from .errors import (
    FieldMismatchError,
    NotZeroCubedError,
    SearchBoundExceededError,
    UnsupportedOverRationalsError,
    _require,
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
    all_subspaces,
    contract,
)

DEFAULT_SEARCH_BOUND = 10**6


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


def _ann(left, right):
    """{x : e_i <| x = x |> e_i = 0 for every i}, the rann of left meet the
    lann of right: one kernel of the rows of x -> e_i <| x and x -> x |> e_i."""
    rows = [*left.multiplication_rows().values(), *right.multiplication_rows(right=True).values()]
    return _kernel(left.field, rows, left.dim)


def algebra_annihilator(a):
    """{x : x A = A x = 0} for a single-product algebra."""
    return _ann(a.product, a.product)


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


def is_zero_cubed(a):
    """A(AA) = (AA)A = 0, which makes a associative: (xy)z = 0 = x(yz). It
    holds exactly when AA, the span of the products e_i e_j, lies in the
    annihilator."""
    return a.square_space().is_subspace_of(algebra_annihilator(a))


def zero_cubed_decompose(a):
    """Split a zero-cubed algebra as annihilator block plus complement pairing.

    Returns (triple, witness) where the witness rows are the new basis in old
    coordinates (annihilator basis first, then the units at its non-pivot
    columns); rewriting a on that basis gives exactly
    zero_cubed_build(triple). A*A lies in the annihilator, so f[i][j] is the
    Z block of the rebased product of the complement units i and j.
    """
    z = algebra_annihilator(a)
    if not a.square_space().is_subspace_of(z):
        raise NotZeroCubedError("input is not an associative zero-cubed algebra")
    field, n = a.field, a.dim
    units = (Vec.unit(field, n, c) for c in range(n) if c not in z.pivots)
    witness = Mat(field, (*z.basis.rows, *units), n)
    rebased, zd = a.rebase(witness), z.dim
    f = [[Vec(field, v.coords[:zd]) for v in row[zd:]] for row in rebased.product.rows[zd:]]
    triple = ZeroCubedTriple(field, z.dim, n - z.dim, f)
    _require(rebased == zero_cubed_build(triple), "complement product left the annihilator")
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
