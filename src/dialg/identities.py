"""Law checking: associativity, the dialgebra laws, the Leibniz identity, bar-units.

All identities here are multilinear, so checking them on basis triples is
complete; violations are reported as explicit basis-triple witnesses with
their nonzero residuals.

Basis residuals are read straight off the products' raw sparse views (see
algebras): a law (x a y) b z = x c (y d z) on (e_i, e_j, e_k) has residual
sum_t a[i][j][t] b[t][k] - sum_t d[j][k][t] c[i][t]. They are built one
slab per first index i: residual rows keyed by (j, k), made by visiting only
nonzero structure constants. The first term adds a[i][j][t] times each
nonzero b[t][k] into row (j, k); the second adds d[j][k][t] times c's
negated c[i][t] into row (j, k) for each nonzero d[j][k], listed once per
law, and each t with c[i][t] nonzero. A triple no term reaches has no row,
and costs nothing. A slab holds at most n^2 rows of n ints, and is emitted
in (j, k) order before the next is built, so a caller that stops at the
first violation stops after one slab.

The views hold int numerators over their tables' dens. Every law is
homogeneous of degree 2 in the products, so each of the two terms comes
over the product of two dens; per law call both are brought over one
common denominator D, their lcm (1 over GF(p)), by scaling a's view and
c's negated one. A row then holds the int numerators of the residual over
D; a residual is zero iff its numerators are (mod p over GF(p)), so the
test runs on ints alone, and only a nonzero residual is divided by D, once
per coordinate, and wrapped into a Vec.

A law whose (a, b, c, d) are the same product objects as an earlier law's
builds no slabs: it replays that law's reports under its own name. When
the two products are one object (see algebras), all five dialgebra laws
are associativity, so one law's slabs serve all five.

The law table _LAWS is also expanded here, once per (laws, n): the
basis equations over a flattened (left, right) pair of tables, as plain
int column pairs (_law_equations). The GF(p) pair growth in gfsearch, the
tests' reference for the census, evaluates them on residue arrays; nothing
else expands the table.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import product
from math import lcm

from .algebras import ProductTag
from .fields import _Value
from .linalg import Vec, _solve

LAW_ASSOC = "assoc"
LAW_ASSOC_LEFT = "assoc-left"
LAW_ASSOC_RIGHT = "assoc-right"
LAW_AX1 = "ax1"
LAW_AX2 = "ax2"
LAW_AX3 = "ax3"
LAW_LEIBNIZ = "leibniz"

DIALGEBRA_LAWS = (LAW_ASSOC_LEFT, LAW_ASSOC_RIGHT, LAW_AX1, LAW_AX2, LAW_AX3)


class ViolationReport(namedtuple("ViolationReport", "law triple residual")):
    """One failed law instance: the basis triple and the LHS - RHS residual."""

    __slots__ = ()


# Every law is (x a y) b z = x c (y d z); each row names (a, b, c, d). The GF(p)
# pair growth in gfsearch reads the same rows, as _law_equations.
_LEFT, _RIGHT = ProductTag.LEFT, ProductTag.RIGHT
_LAWS = {
    LAW_ASSOC_LEFT: (_LEFT, _LEFT, _LEFT, _LEFT),
    LAW_ASSOC_RIGHT: (_RIGHT, _RIGHT, _RIGHT, _RIGHT),
    LAW_AX1: (_LEFT, _LEFT, _LEFT, _RIGHT),
    LAW_AX2: (_RIGHT, _LEFT, _RIGHT, _LEFT),
    LAW_AX3: (_LEFT, _RIGHT, _RIGHT, _RIGHT),
}


@lru_cache(maxsize=None)
def _law_equations(laws, n):
    """The basis equations of laws (a tuple of law names) in dim n over the
    flattened (left, right) pair: entry (i, j, m) of the left table is
    column (i * n + j) * n + m, the right table's comes n^3 columns later.

    Law (a, b, c, d) at (i, j, k), coordinate out, is
    sum_m a[i,j,m] b[m,k,out] - sum_m d[j,k,m] c[i,m,out] = 0. It is kept as
    (law, (i, j, k), out, lhs, rhs), lhs and rhs the n column pairs of the
    two sums, and filed under the last column it reads: equations[col],
    col in range(2 * n^3), lists those in law order, then (i, j, k, out)
    order. Plain ints, built once per (laws, n).
    """
    by_last = [[] for _ in range(2 * n**3)]
    for law in laws:
        a, b, c, d = (n**3 if tag is _RIGHT else 0 for tag in _LAWS[law])
        for i, j, k, out in product(range(n), repeat=4):
            lhs = tuple((a + (i * n + j) * n + m, b + (m * n + k) * n + out) for m in range(n))
            rhs = tuple((d + (j * n + k) * n + m, c + (i * n + m) * n + out) for m in range(n))
            by_last[max(map(max, lhs + rhs))].append((law, (i, j, k), out, lhs, rhs))
    return tuple(map(tuple, by_last))


def _law_products(d, law):
    if law not in _LAWS:
        raise ValueError(f"unknown law {law!r}")
    return tuple(d.product(tag) for tag in _LAWS[law])


def law_residual(d, law, x, y, z):
    """LHS minus RHS of one dialgebra law on arbitrary elements.

    ax1: (x <| y) <| z = x <| (y |> z)
    ax2: (x |> y) <| z = x |> (y <| z)
    ax3: (x <| y) |> z = x |> (y |> z)
    """
    a, b, c, dd = _law_products(d, law)
    return b.apply(a.apply(x, y), z) - c.apply(x, dd.apply(y, z))


def _scaled(view, f):
    """The raw sparse view with every numerator times f; the view itself when f is 1."""
    if f == 1:
        return view
    return [[[(k, f * g) for k, g in terms] for terms in row] for row in view]


def _nonzero_rows(view):
    """For each t, the (k, terms) with view[t][k] nonzero: the nonzero raw
    views of e_t * e_k."""
    return [[(k, terms) for k, terms in enumerate(row) if terms] for row in view]


def _nonzero_pairs(view):
    """The (j * n + k, terms) with view[j][k] nonzero, in (j, k) order."""
    n = len(view)
    return [(j * n + k, terms) for j, row in enumerate(view) for k, terms in enumerate(row) if terms]


def _law(a, b, c, d):
    """The slab terms of (x a y) b z - x c (y d z) and their den: (firsts,
    second, den). The two terms come over a.den * b.den and d.den * c.den;
    den is their lcm, and each term's factor up to den is folded into one
    view, a's or c's negated one."""
    first, second = a.den * b.den, d.den * c.den
    den = lcm(first, second)
    firsts = [(_scaled(a.sparse, den // first), _nonzero_rows(b.sparse), False)]
    return firsts, (_nonzero_pairs(d.sparse), _scaled(c.sparse, -(den // second))), den


def _slab(n, i, firsts, second):
    """The residual rows of first index i as unreduced int numerators:
    slab[j * n + k] for the triple (i, j, k), None where no term reaches it.

    Each first term (av, b_rows, swap) adds sum_t av[i][j][t] b[t][k] into
    row (j, k), or into row (k, j) when swap is set, visiting only the
    nonzero b[t][k]; the second term (d_pairs, c_neg) adds
    sum_t d[j][k][t] c_neg[i][t] for each nonzero d[j][k] in d_pairs."""
    slab = [None] * (n * n)
    for av, b_rows, swap in firsts:
        sj, sk = (1, n) if swap else (n, 1)
        for j, terms in enumerate(av[i]):
            for t, x in terms:
                for k, gs in b_rows[t]:
                    s = j * sj + k * sk
                    acc = slab[s]
                    if acc is None:
                        acc = slab[s] = [0] * n
                    for m, g in gs:
                        acc[m] += x * g
    d_pairs, c_neg = second
    ci = c_neg[i]
    for s, terms in d_pairs:
        acc = slab[s]
        for t, y in terms:
            if ci[t]:
                if acc is None:
                    acc = slab[s] = [0] * n
                for m, g in ci[t]:
                    acc[m] += y * g
    return slab


def _violations(field, n, laws):
    """Yield a report per (law, basis triple) with a nonzero residual, in order.

    laws holds (law, firsts, second, den): the slab terms of a law whose
    residuals are int numerators over den (see _slab). One slab is built per
    first index and emitted in (j, k) order before the next is built."""
    # A row is zero iff its numerators are, mod p over GF(p); testing that
    # builds no list, so only a violation's row is reduced, by from_numerators.
    mod = field.p.__rmod__ if field.is_finite else None
    for law, firsts, second, den in laws:
        for i in range(n):
            for s, acc in enumerate(_slab(n, i, firsts, second)):
                if acc is not None and any(map(mod, acc) if mod else acc):
                    residual = Vec.from_numerators(field, acc, den)
                    yield ViolationReport(law, (i, s // n, s % n), residual)


def dialgebra_violations(d):
    """Violations of both associativities and the three mixed laws, lazily, in order."""
    seen = {}  # the ids of a law's (a, b, c, d) -> the reports of the first such law
    for law in DIALGEBRA_LAWS:
        prods = _law_products(d, law)
        key = tuple(map(id, prods))
        if key in seen:
            yield from (ViolationReport(law, r.triple, r.residual) for r in seen[key])
            continue
        seen[key] = reports = []
        for r in _violations(d.field, d.dim, [(law, *_law(*prods))]):
            reports.append(r)
            yield r


def associative_violations(a):
    """Basis triples where (xy)z differs from x(yz), lazily, in order."""
    p = a.product
    return _violations(a.field, a.dim, [(LAW_ASSOC, *_law(p, p, p, p))])


def check_associative(a):
    """All basis triples where (xy)z differs from x(yz); empty iff associative."""
    return list(associative_violations(a))


def check_dialgebra(d):
    """Violations of both associativities and the three mixed laws, all triples."""
    return list(dialgebra_violations(d))


def is_valid_dialgebra(d):
    """Same laws as check_dialgebra, stopping at the first violation."""
    return next(dialgebra_violations(d), None) is None


def check_leibniz(a):
    """Violations of [[x,y],z] = [[x,z],y] + [x,[y,z]] where [,] is a's product."""
    g, den = a.product.sparse, a.product.den
    g_neg, g_rows = _scaled(g, -1), _nonzero_rows(g)
    # (x g y) g z - (x g z) g y - x g (y g z): the second is the first shape
    # with j and k swapped.
    firsts = [(g, g_rows, False), (g_neg, g_rows, True)]
    laws = [(LAW_LEIBNIZ, firsts, (_nonzero_pairs(g), g_neg), den * den)]
    return list(_violations(a.field, a.dim, laws))


class BarUnitSet(_Value):
    """The affine set of bar-units {e : x <| e = x = e |> x for all x}.

    Empty when point is None; otherwise every element is point + v with v in
    direction. An immutable record like the others, but not a tuple: it
    models a set, so `in`, `iter` and `len` raise TypeError rather than
    answer about its two fields.
    """

    __slots__ = ("point", "direction")

    def __init__(self, point, direction):
        self._fill(point, direction)

    def __repr__(self):
        return f"BarUnitSet(point={self.point!r}, direction={self.direction!r})"

    @property
    def is_empty(self):
        return self.point is None

    def contains(self, e):
        if self.is_empty:
            return False
        return self.direction.contains(e - self.point)

    def elements(self):
        """All bar-units; finite fields only."""
        if self.is_empty:
            return
        for v in self.direction.elements():
            yield self.point + v


def _bar_unit_rows(d):
    """The bar-unit system: the ann system's rows, right-hand sides appended."""
    n = d.dim
    # x <| e = x on basis x = e_i, coordinate k: sum_j gl[i][j][k] e_j = delta_ik,
    # the rows of e_j -> e_i <| e_j over the left den; e |> x = x likewise,
    # with the rows of e_j -> e_j |> e_i. A zero row (i, i) keeps its
    # equation 0 = den, so it stays.
    rows, zero = [], [0] * n
    for prod, right in ((d.left, False), (d.right, True)):
        system = prod.multiplication_rows(right)
        for i in range(n):
            rows.append(system.pop((i, i), zero) + [prod.den])
        rows += [r + [0] for r in system.values()]
    return rows


def bar_units(d):
    """Solve the linear system for bar-units; returns the whole solution set."""
    result = _solve(d.field, _bar_unit_rows(d), d.dim)
    if result is None:
        return BarUnitSet(None, None)
    point, direction = result
    return BarUnitSet(point, direction)
