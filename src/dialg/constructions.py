"""Standard ways of building dialgebras and their derived algebras.

Covers: the dialgebra with both products equal to an associative product,
opposites, algebras with vanishing triple products built from a bilinear
pairing into an annihilating block, dialgebras from a square-zero
derivation, the Leibniz bracket, and quotients by ideals.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .algebras import Algebra, BilinearProduct, Dialgebra, _entry_key
from .errors import (
    DerivationSquareError,
    FieldMismatchError,
    NotADerivationError,
    NotADialgebraError,
    NotAnIdealError,
    NotAssociativeError,
)
from .identities import associative_violations, dialgebra_violations
from .linalg import Mat, Subspace, Vec, _vec_terms, contract, contract_pair, kernel


def from_associative(a):
    """The dialgebra with x <| y = xy = x |> y for an associative algebra a."""
    violation = next(associative_violations(a), None)
    if violation is not None:
        raise NotAssociativeError(f"input is not associative, e.g. at {violation.triple}")
    return Dialgebra(a.field, a.dim, a.product, a.product, a.basis_names)


def opposite(d):
    """The opposite dialgebra: x <|' y = y |> x and x |>' y = y <| x."""
    return Dialgebra(
        d.field,
        d.dim,
        d.right.transpose_args(),
        d.left.transpose_args(),
        d.basis_names,
    )


@dataclass(frozen=True)
class ZeroCubedTriple:
    """A bilinear pairing f: X x X -> Z, stored as f[a][b] = Vec over Z coords.

    Building on Z + X with product (z + x)(z' + x') = f(x, x') yields an
    associative algebra whose triple products vanish.
    """

    field: object
    z_dim: int
    x_dim: int
    f: tuple

    def __post_init__(self):
        if len(self.f) != self.x_dim or any(len(row) != self.x_dim for row in self.f):
            raise FieldMismatchError("pairing grid is not x_dim x x_dim")
        for row in self.f:
            for v in row:
                if not isinstance(v, Vec) or v.field is not self.field or len(v) != self.z_dim:
                    raise FieldMismatchError("pairing value is not a Vec of length z_dim")

    @classmethod
    def from_entries(cls, field, z_dim, x_dim, entries):
        grid = [[[field.zero] * z_dim for _ in range(x_dim)] for _ in range(x_dim)]
        for key, val in entries.items():
            a, b, c = _entry_key(key, (x_dim, x_dim, z_dim))
            grid[a][b][c] = field.scalar(val)
        return cls(
            field,
            z_dim,
            x_dim,
            tuple(tuple(Vec(field, tuple(grid[a][b])) for b in range(x_dim)) for a in range(x_dim)),
        )

    def apply(self, x, y):
        view = [[_vec_terms(g) for g in row] for row in self.f]
        raw = contract_pair([0] * self.z_dim, _vec_terms(x), _vec_terms(y), view)
        return Vec.from_raw(self.field, raw)

    def image(self):
        """The span of all pairing values inside Z."""
        vals = [self.f[a][b] for a in range(self.x_dim) for b in range(self.x_dim)]
        return Subspace.from_vectors(self.field, self.z_dim, vals)

    def radical(self):
        """{v in X : f(v, .) = 0 = f(., v)}; zero iff Z is exactly the annihilator."""
        rows = []
        for b in range(self.x_dim):
            for c in range(self.z_dim):
                rows.append(Vec(self.field, tuple(self.f[a][b].coords[c] for a in range(self.x_dim))))
                rows.append(Vec(self.field, tuple(self.f[b][a].coords[c] for a in range(self.x_dim))))
        return kernel(Mat(self.field, tuple(rows), self.x_dim))


def zero_cubed_build(t):
    """The algebra on Z + X (Z coordinates first) with (z+x)(z'+x') = f(x, x')."""
    dim = t.z_dim + t.x_dim
    entries = {}
    for a in range(t.x_dim):
        for b in range(t.x_dim):
            for c, val in enumerate(t.f[a][b].coords):
                if val:
                    entries[(t.z_dim + a, t.z_dim + b, c)] = val
    return Algebra.from_entries(t.field, dim, entries)


def from_differential(a, d):
    """The dialgebra x <| y = x d(y), x |> y = d(x) y from a derivation d.

    The matrix d acts on row coordinates (d(x) = x @ d). It must satisfy the
    product rule and square to zero; the mixed laws need every x d(d(y)) z
    term to vanish, so anything weaker is rejected.
    """
    if any(associative_violations(a)):
        raise NotAssociativeError("the underlying algebra must be associative")
    if d.field is not a.field or d.shape != (a.dim, a.dim):
        raise FieldMismatchError("derivation matrix shape mismatch")
    units = tuple(Vec.unit(a.field, a.dim, i) for i in range(a.dim))
    for i in range(a.dim):
        for j in range(a.dim):
            lhs = a.multiply(units[i], units[j]) @ d
            rhs = a.multiply(d.row(i), units[j]) + a.multiply(units[i], d.row(j))
            if lhs != rhs:
                raise NotADerivationError(f"product rule fails on basis pair ({i}, {j})")
    if not (d @ d).is_zero():
        raise DerivationSquareError("derivation does not square to zero")
    left = []
    right = []
    for i in range(a.dim):
        left.append(tuple(a.multiply(units[i], d.row(j)) for j in range(a.dim)))
        right.append(tuple(a.multiply(d.row(i), units[j]) for j in range(a.dim)))
    return Dialgebra(
        a.field,
        a.dim,
        BilinearProduct(a.field, a.dim, tuple(left)),
        BilinearProduct(a.field, a.dim, tuple(right)),
        a.basis_names,
    )


def leibniz_bracket(d):
    """The bracket [x, y] = x <| y - y |> x of a valid dialgebra."""
    violation = next(dialgebra_violations(d), None)
    if violation is not None:
        raise NotADialgebraError(f"input fails {violation.law} at {violation.triple}")
    n, field = d.dim, d.field
    # [e_i, e_j] = left[i][j] - right[j][i] on the raw views, over their lcm den.
    den = lcm(d.left.den, d.right.den)
    signs = [(0, den // d.left.den), (1, -(den // d.right.den))]
    left, right = d.left.sparse, d.right.sparse
    rows = tuple(
        tuple(
            Vec.from_numerators(field, contract([0] * n, signs, (left[i][j], right[j][i])), den)
            for j in range(n)
        )
        for i in range(n)
    )
    return Algebra(field, n, BilinearProduct(field, n, rows), d.basis_names)


def quotient(d, ideal):
    """The quotient dialgebra and the coordinate projection onto it.

    The complement basis is the set of non-pivot coordinates of the ideal's
    canonical basis, which makes the output deterministic. The projection P
    maps old row coordinates to quotient coordinates via v @ P.
    """
    from .structure import is_ideal

    if ideal.field is not d.field or ideal.ambient_dim != d.dim:
        raise FieldMismatchError("ideal does not live in the dialgebra's space")
    if not is_ideal(d, ideal):
        raise NotAnIdealError("subspace is not a two-sided ideal for both products")
    keep = [c for c in range(d.dim) if c not in ideal.pivots]
    new_dim = len(keep)
    units = tuple(Vec.unit(d.field, d.dim, i) for i in range(d.dim))

    def project(v):
        reduced = ideal.reduce(v)
        return Vec(d.field, tuple(reduced.coords[c] for c in keep))

    proj = Mat(d.field, tuple(project(units[c]) for c in range(d.dim)), new_dim)
    products = []
    for prod in (d.left, d.right):
        rows = []
        for a in keep:
            rows.append(tuple(project(prod.row(a, b)) for b in keep))
        products.append(BilinearProduct(d.field, new_dim, tuple(rows)))
    return Dialgebra(d.field, new_dim, products[0], products[1]), proj
