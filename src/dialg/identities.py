"""Law checking: associativity, the dialgebra laws, the Leibniz identity, bar-units.

All identities here are multilinear, so checking them on basis triples is
complete; violations are reported as explicit basis-triple witnesses with
their nonzero residuals.

Basis residuals are read straight off the products' raw sparse views (see
algebras): a law (x a y) b z = x c (y d z) on (e_i, e_j, e_k) has residual
sum_t a[i][j][t] b[t][k] - sum_t d[j][k][t] c[i][t], two calls of linalg's
contraction kernel into one accumulator (the second on c's negated view).
The views hold int numerators over their tables' dens. Every law is
homogeneous of degree 2 in the products, so each of the two terms comes
over the product of two dens; per law call both are brought over one
common denominator D, their lcm (1 over GF(p)), by scaling a's view and
c's negated one. The accumulator then holds the int numerators of the
residual over D; a residual is zero iff its numerators are, so the test
runs on ints alone, and only a nonzero residual is divided by D, once per
coordinate, and wrapped into a Vec.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import lcm

from .algebras import ProductTag
from .linalg import Mat, Subspace, Vec, contract, solve

LAW_ASSOC = "assoc"
LAW_ASSOC_LEFT = "assoc-left"
LAW_ASSOC_RIGHT = "assoc-right"
LAW_AX1 = "ax1"
LAW_AX2 = "ax2"
LAW_AX3 = "ax3"
LAW_LEIBNIZ = "leibniz"

DIALGEBRA_LAWS = (LAW_ASSOC_LEFT, LAW_ASSOC_RIGHT, LAW_AX1, LAW_AX2, LAW_AX3)


@dataclass(frozen=True)
class ViolationReport:
    """One failed law instance: the basis triple and the LHS - RHS residual."""

    law: str
    triple: tuple
    residual: Vec


# Every law is (x a y) b z = x c (y d z); each row names (a, b, c, d). The GF(p)
# census pair growth in gfsearch reads the same rows.
_LEFT, _RIGHT = ProductTag.LEFT, ProductTag.RIGHT
_LAWS = {
    LAW_ASSOC_LEFT: (_LEFT, _LEFT, _LEFT, _LEFT),
    LAW_ASSOC_RIGHT: (_RIGHT, _RIGHT, _RIGHT, _RIGHT),
    LAW_AX1: (_LEFT, _LEFT, _LEFT, _RIGHT),
    LAW_AX2: (_RIGHT, _LEFT, _RIGHT, _LEFT),
    LAW_AX3: (_LEFT, _RIGHT, _RIGHT, _RIGHT),
}


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


def _columns(view):
    """The view with its pair index swapped: cols[k][t] = view[t][k], so
    cols[k] is the raw view of y -> y * e_k."""
    return tuple(zip(*view))


def _scaled(view, f):
    """The raw sparse view with every numerator times f; the view itself when f is 1."""
    if f == 1:
        return view
    return [[[(k, f * g) for k, g in terms] for terms in row] for row in view]


def _law(a, b, c, d):
    """The basis residual of (x a y) b z - x c (y d z), added into a raw
    accumulator as int numerators over den: (residual, den). The two terms
    come over a.den * b.den and d.den * c.den; den is their lcm, and each
    term's factor up to den is folded into one view, a's or c's negated one."""
    first, second = a.den * b.den, d.den * c.den
    den = lcm(first, second)
    av, dv, b_cols = _scaled(a.sparse, den // first), d.sparse, _columns(b.sparse)
    c_neg = _scaled(c.sparse, -(den // second))

    def residual(i, j, k, acc):
        contract(acc, av[i][j], b_cols[k])
        contract(acc, dv[j][k], c_neg[i])

    return residual, den


def _violations(field, n, laws):
    """Yield a report per (law, basis triple) with a nonzero residual, in order.

    laws holds (law, residual, den): residual adds the int numerators over den."""
    for law, residual, den in laws:
        for i, j, k in product(range(n), repeat=3):
            acc = [0] * n
            residual(i, j, k, acc)
            raw = field.reduce(acc)
            if any(raw):
                yield ViolationReport(law, (i, j, k), Vec.from_numerators(field, raw, den))


def dialgebra_violations(d):
    """Violations of both associativities and the three mixed laws, lazily, in order."""
    laws = ((law, *_law(*_law_products(d, law))) for law in DIALGEBRA_LAWS)
    return _violations(d.field, d.dim, laws)


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
    g_neg = _scaled(g, -1)
    cols, cols_neg = _columns(g), _columns(g_neg)

    def leibniz(i, j, k, acc):
        contract(acc, g[i][j], cols[k])
        contract(acc, g[i][k], cols_neg[j])
        contract(acc, g[j][k], g_neg[i])

    return list(_violations(a.field, a.dim, [(LAW_LEIBNIZ, leibniz, den * den)]))


@dataclass(frozen=True)
class BarUnitSet:
    """The affine set of bar-units {e : x <| e = x = e |> x for all x}.

    Empty when point is None; otherwise every element is point + v with v in
    direction.
    """

    point: Vec | None
    direction: Subspace | None

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


def bar_units(d):
    """Solve the linear system for bar-units; returns the whole solution set."""
    field, n = d.field, d.dim
    # x <| e = x on basis x = e_i, coordinate k: sum_j gl[i][j][k] e_j = delta_ik;
    # e |> x = x likewise, with gr's arguments swapped: sum_j e_j gr[j][i][k].
    rows = d.left.left_multiplication_rows() + d.right.transpose_args().left_multiplication_rows()
    delta = tuple(field.one if i == k else field.zero for i in range(n) for k in range(n))
    result = solve(Mat(field, rows, n), Vec(field, delta + delta))
    if result is None:
        return BarUnitSet(None, None)
    point, direction = result
    return BarUnitSet(point, direction)
