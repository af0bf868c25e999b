"""Law checking: associativity, the dialgebra laws, the Leibniz identity, bar-units.

All identities here are multilinear, so checking them on basis triples is
complete; violations are reported as explicit basis-triple witnesses with
their nonzero residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .algebras import ProductTag
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


def _law(a, b, c, d):
    """The residual (x a y) b z - x c (y d z) of four bilinear products."""
    return lambda x, y, z: b.apply(a.apply(x, y), z) - c.apply(x, d.apply(y, z))


def _dialgebra_law(d, law):
    if law not in _LAWS:
        raise ValueError(f"unknown law {law!r}")
    return _law(*(d.product(tag) for tag in _LAWS[law]))


def law_residual(d, law, x, y, z):
    """LHS minus RHS of one dialgebra law on arbitrary elements.

    ax1: (x <| y) <| z = x <| (y |> z)
    ax2: (x |> y) <| z = x |> (y <| z)
    ax3: (x <| y) |> z = x |> (y |> z)
    """
    return _dialgebra_law(d, law)(x, y, z)


def _violations(field, n, laws):
    """Yield a report per (law, basis triple) with a nonzero residual, in order."""
    units = tuple(Vec.unit(field, n, i) for i in range(n))
    for law, residual in laws:
        for i, j, k in product(range(n), repeat=3):
            res = residual(units[i], units[j], units[k])
            if res:
                yield ViolationReport(law, (i, j, k), res)


def _dialgebra_violations(d):
    return _violations(d.field, d.dim, ((law, _dialgebra_law(d, law)) for law in DIALGEBRA_LAWS))


def check_associative(a):
    """All basis triples where (xy)z differs from x(yz); empty iff associative."""
    p = a.product
    return list(_violations(a.field, a.dim, [(LAW_ASSOC, _law(p, p, p, p))]))


def check_dialgebra(d):
    """Violations of both associativities and the three mixed laws, all triples."""
    return list(_dialgebra_violations(d))


def is_valid_dialgebra(d):
    """Same laws as check_dialgebra, stopping at the first violation."""
    return next(_dialgebra_violations(d), None) is None


def check_leibniz(a):
    """Violations of [[x,y],z] = [[x,z],y] + [x,[y,z]] where [,] is a's product."""
    br = a.product.apply

    def leibniz(x, y, z):
        return br(br(x, y), z) - br(br(x, z), y) - br(x, br(y, z))

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
