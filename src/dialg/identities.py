"""Law checking: associativity, the dialgebra laws, the Leibniz identity, bar-units.

All identities here are multilinear, so checking them on basis triples is
complete; violations are reported as explicit basis-triple witnesses with
their nonzero residuals.

Basis residuals are read straight off the products' raw sparse views (see
algebras): a law (x a y) b z = x c (y d z) on (e_i, e_j, e_k) has residual
sum_t a[i][j][t] b[t][k] - sum_t d[j][k][t] c[i][t], two calls of the
contraction kernel into one accumulator (the second on c's negated view).
Only a nonzero residual is wrapped into a Vec.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .algebras import ProductTag, contract
from .linalg import Mat, Subspace, Vec, solve

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


# Every law is (x a y) b z = x c (y d z); each row names (a, b, c, d).
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


def _negated(view):
    """The raw sparse view of the negated product."""
    return tuple(tuple(tuple((k, -g) for k, g in terms) for terms in row) for row in view)


def _law(a, b, c, d):
    """The basis residual of (x a y) b z - x c (y d z), added into a raw accumulator."""
    av, dv, b_cols, c_neg = a.sparse, d.sparse, _columns(b.sparse), _negated(c.sparse)

    def residual(i, j, k, acc):
        contract(acc, av[i][j], b_cols[k])
        contract(acc, dv[j][k], c_neg[i])

    return residual


def _violations(field, n, laws):
    """Yield a report per (law, basis triple) with a nonzero residual, in order."""
    for law, residual in laws:
        for i, j, k in product(range(n), repeat=3):
            acc = [0] * n
            residual(i, j, k, acc)
            raw = field.reduce(acc)
            if any(raw):
                yield ViolationReport(law, (i, j, k), Vec.from_raw(field, raw))


def dialgebra_violations(d):
    """Violations of both associativities and the three mixed laws, lazily, in order."""
    laws = ((law, _law(*_law_products(d, law))) for law in DIALGEBRA_LAWS)
    return _violations(d.field, d.dim, laws)


def associative_violations(a):
    """Basis triples where (xy)z differs from x(yz), lazily, in order."""
    p = a.product
    return _violations(a.field, a.dim, [(LAW_ASSOC, _law(p, p, p, p))])


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
    g = a.product.sparse
    g_neg = _negated(g)
    cols, cols_neg = _columns(g), _columns(g_neg)

    def leibniz(i, j, k, acc):
        contract(acc, g[i][j], cols[k])
        contract(acc, g[i][k], cols_neg[j])
        contract(acc, g[j][k], g_neg[i])

    return list(_violations(a.field, a.dim, [(LAW_LEIBNIZ, leibniz)]))


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
