"""Standard ways of building dialgebras and their derived algebras.

Covers: the dialgebra with both products equal to an associative product,
opposites, zero-cubed algebras (A(AA) = (AA)A = 0) built from a bilinear
pairing f: X x X -> Z into an annihilating block Z, dialgebras from a
square-zero derivation, the Leibniz bracket, and quotients by ideals.

One method writes the table of a pairing, ZeroCubedTriple._product, in
either block order: Z coordinates first for zero_cubed_build, X first for
structure's triple equivalence.
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm

from .algebras import Algebra, BilinearProduct, Dialgebra, _entry_grid
from .errors import (
    DerivationSquareError,
    FieldMismatchError,
    NotADerivationError,
    NotADialgebraError,
    NotAnIdealError,
    NotAssociativeError,
)
from .identities import associative_violations, dialgebra_violations
from .linalg import Mat, Subspace, Vec, _kernel, _vec_terms, contract, contract_pair


def from_associative(a):
    """The dialgebra with x <| y = xy = x |> y for an associative algebra a."""
    violation = next(associative_violations(a), None)
    if violation is not None:
        raise NotAssociativeError(f"input is not associative, e.g. at {violation.triple}")
    return Dialgebra(a.field, a.dim, a.product, a.product, a.basis_names)


def opposite(d):
    """The opposite dialgebra: x <|' y = y |> x and x |>' y = y <| x."""
    right, left = d._per_product(BilinearProduct.transpose_args)
    return Dialgebra(d.field, d.dim, left, right, d.basis_names)


class ZeroCubedTriple(namedtuple("ZeroCubedTriple", "field z_dim x_dim f")):
    """A bilinear pairing f: X x X -> Z, stored as f[a][b] = Vec over Z coords.

    Building on Z + X with product (z + x)(z' + x') = f(x, x') yields an
    associative algebra whose triple products vanish.

    Every way to build one checks the grid: the constructor, `_make` and
    so `_replace`, which namedtuple would build by tuple.__new__, and
    unpickling, which calls __new__.
    """

    __slots__ = ()

    def __new__(cls, field, z_dim, x_dim, f):
        if len(f) != x_dim or any(len(row) != x_dim for row in f):
            raise FieldMismatchError("pairing grid is not x_dim x x_dim")
        for row in f:
            for v in row:
                if not isinstance(v, Vec) or v.field is not field or len(v) != z_dim:
                    raise FieldMismatchError("pairing value is not a Vec of length z_dim")
        return super().__new__(cls, field, z_dim, x_dim, f)

    def __reduce__(self):
        # Protocols 0 and 1 would otherwise load through copyreg._reconstructor,
        # which builds the tuple without __new__ and so skips the check.
        return (ZeroCubedTriple, tuple(self))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @classmethod
    def from_entries(cls, field, z_dim, x_dim, entries):
        return cls(field, z_dim, x_dim, _entry_grid(field, entries, (x_dim, x_dim, z_dim)))

    def apply(self, x, y):
        """f(x, y) for two coordinate vectors over X."""
        if x.field is not self.field or y.field is not self.field:
            raise FieldMismatchError("vector field mismatch")
        if len(x) != self.x_dim or len(y) != self.x_dim:
            raise FieldMismatchError("vector length mismatch")
        (xs, ys), d = self.field.numerators([_vec_terms(x), _vec_terms(y)])
        flat, den = self.field.numerators([_vec_terms(g) for row in self.f for g in row])
        view = [flat[a * self.x_dim : (a + 1) * self.x_dim] for a in range(self.x_dim)]
        raw = contract_pair([0] * self.z_dim, xs, ys, view)
        return Vec.from_numerators(self.field, raw, d * d * den)

    def image(self):
        """The span of all pairing values inside Z."""
        vals = [self.f[a][b] for a in range(self.x_dim) for b in range(self.x_dim)]
        return Subspace.from_vectors(self.field, self.z_dim, vals)

    def radical(self):
        """{v in X : f(v, .) = 0 = f(., v)}; zero iff Z is exactly the annihilator.

        One kernel of the raw rows a -> f[a][b][c] and a -> f[b][a][c].
        """
        f, xs = self.f, range(self.x_dim)
        rows = [
            [(f[a][b] if left else f[b][a]).coords[c].value for a in xs]
            for b in xs
            for c in range(self.z_dim)
            for left in (True, False)
        ]
        return _kernel(self.field, rows, self.x_dim)

    def _product(self, x_first):
        """The product (z + x)(z' + x') = f(x, x') on Z + X, Z coordinates
        first, or X coordinates first when x_first: the X block starts at xo
        and the Z coordinates at zo."""
        field, n = self.field, self.z_dim + self.x_dim
        xo, zo = (0, self.x_dim) if x_first else (self.z_dim, 0)
        zero, pad = Vec.zero(field, n), (field.zero,) * self.x_dim
        rows = [[zero] * n for _ in range(n)]
        for a, row in enumerate(self.f):
            for b, v in enumerate(row):
                rows[xo + a][xo + b] = Vec(field, pad[:zo] + v.coords + pad[zo:])
        return BilinearProduct(field, n, rows)


def zero_cubed_build(t):
    """The algebra on Z + X, Z coordinates first, with (z + x)(z' + x') = f(x, x')."""
    return Algebra(t.field, t.z_dim + t.x_dim, t._product(x_first=False))


def from_differential(a, d):
    """The dialgebra x <| y = x d(y), x |> y = d(x) y from a derivation d.

    The matrix d acts on row coordinates (d(x) = x @ d). It must satisfy the
    product rule and square to zero; the mixed laws need every x d(d(y)) z
    term to vanish, so anything weaker is rejected. The two tables are built
    once, and the product rule d(e_i e_j) = e_i <| e_j + e_i |> e_j is
    checked on them, pair by pair in row-major order.
    """
    if any(associative_violations(a)):
        raise NotAssociativeError("the underlying algebra must be associative")
    if d.field is not a.field or d.shape != (a.dim, a.dim):
        raise FieldMismatchError("derivation matrix shape mismatch")
    n = a.dim
    units = tuple(Vec.unit(a.field, n, i) for i in range(n))
    left = tuple(tuple(a.multiply(units[i], d.row(j)) for j in range(n)) for i in range(n))
    right = tuple(tuple(a.multiply(d.row(i), units[j]) for j in range(n)) for i in range(n))
    for i in range(n):
        for j in range(n):
            if a.product.row(i, j) @ d != left[i][j] + right[i][j]:
                raise NotADerivationError(f"product rule fails on basis pair ({i}, {j})")
    if not (d @ d).is_zero():
        raise DerivationSquareError("derivation does not square to zero")
    return Dialgebra(
        a.field,
        n,
        BilinearProduct(a.field, n, left),
        BilinearProduct(a.field, n, right),
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

    def projected(prod):
        rows = tuple(tuple(project(prod.row(a, b)) for b in keep) for a in keep)
        return BilinearProduct(d.field, new_dim, rows)

    return Dialgebra(d.field, new_dim, *d._per_product(projected)), proj
