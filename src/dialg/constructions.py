"""Standard ways of building dialgebras and their derived algebras.

Covers: the dialgebra with both products equal to an associative product,
opposites, zero-cubed algebras (A(AA) = (AA)A = 0) built from a bilinear
pairing f: X x X -> Z into an annihilating block Z, dialgebras from a
square-zero derivation, the Leibniz bracket, and quotients by ideals.

A ZeroCubedTriple's pairing is read in one place, ZeroCubedTriple._product,
which writes its table in either block order: Z coordinates first for
zero_cubed_build, X first for apply, radical and structure's triple
equivalence. No other code turns f into numbers (image spans its Vecs
as they are), and each call builds the table anew: no caller applies one
triple repeatedly, so no view of f is kept.
"""

from __future__ import annotations

from collections import namedtuple
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
from .linalg import (
    Mat,
    Subspace,
    Vec,
    _dense,
    _kernel,
    _residue,
    _terms,
    _vec_terms,
    contract,
)


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
    associative algebra whose triple products vanish. `_product` writes that
    table and is the one reader of the numbers of f: apply and radical go
    through it.

    The grid is stored as nested tuples, so a triple hashes and no cell
    changes after the check. Every way to build one checks the grid: the
    constructor, `_make` and so `_replace`, which namedtuple would build by
    tuple.__new__, and unpickling, which calls __new__.
    """

    __slots__ = ()

    def __new__(cls, field, z_dim, x_dim, f):
        f = tuple(map(tuple, f))
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
        """The triple with f[a][b][c] = v for each (a, b, c): v in entries, else 0."""
        grid = [[[field.zero] * z_dim for _ in range(x_dim)] for _ in range(x_dim)]
        for key, c in entries.items():
            a, b, k = _entry_key(key, (x_dim, x_dim, z_dim))
            grid[a][b][k] = field.scalar(c)
        return cls(field, z_dim, x_dim, [[Vec(field, g) for g in row] for row in grid])

    def apply(self, x, y):
        """f(x, y) for two coordinate vectors over X: the Z block of their
        product in the X-first table, x and y padded with Z zeros."""
        field, z = self.field, (self.field.zero,) * self.z_dim
        if x.field is not field or y.field is not field:
            raise FieldMismatchError("vector field mismatch")
        if len(x) != self.x_dim or len(y) != self.x_dim:
            raise FieldMismatchError("vector length mismatch")
        xy = self._product(x_first=True).apply(Vec(field, x.coords + z), Vec(field, y.coords + z))
        return Vec(field, xy.coords[self.x_dim :])

    def image(self):
        """The span of all pairing values inside Z."""
        vals = [self.f[a][b] for a in range(self.x_dim) for b in range(self.x_dim)]
        return Subspace.from_vectors(self.field, self.z_dim, vals)

    def radical(self):
        """{v in X : f(v, .) = 0 = f(., v)}; zero iff Z is exactly the annihilator.

        One kernel of the X-first table's multiplication rows, both sides,
        cut to the X columns: the Z columns of every row are zero.
        """
        table, x = self._product(x_first=True), self.x_dim
        rows = [*table.multiplication_rows().values(), *table.multiplication_rows(True).values()]
        return _kernel(self.field, [r[:x] for r in rows], x)

    def _product(self, x_first):
        """The product (z + x)(z' + x') = f(x, x') on Z + X, Z coordinates
        first, or X coordinates first when x_first: the X block starts at xo
        and the Z coordinates at zo."""
        field, x, n = self.field, self.x_dim, self.z_dim + self.x_dim
        xo, zo = (0, x) if x_first else (self.z_dim, 0)
        flat, den = field.numerators([_vec_terms(v) for row in self.f for v in row])
        cells = [()] * (n * n)
        for a in range(x):
            for b in range(x):
                cells[(xo + a) * n + xo + b] = [(zo + k, g) for k, g in flat[a * x + b]]
        return BilinearProduct._from_numerators(field, n, cells, den)


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
    cells = [
        _terms(contract([0] * n, signs, (left[i][j], right[j][i])))
        for i in range(n)
        for j in range(n)
    ]
    return Algebra(field, n, BilinearProduct._from_numerators(field, n, cells, den), d.basis_names)


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

    # Each kept e_a * e_b reduced modulo the ideal, on int numerator terms: a
    # row with a term at a pivot comes back over den times its own scale.
    pivots, rows, place = set(ideal.pivots), ideal._row_terms(), {c: i for i, c in enumerate(keep)}

    def residue(terms):
        if not any(k in pivots for k, _ in terms):
            return terms, 1
        r, scale = _residue(_dense(d.dim, terms), ideal.pivots, rows)
        return _terms(r), scale

    def projected(prod):
        cells = [residue(prod.sparse[a][b]) for a in keep for b in keep]
        big = lcm(*(scale for _, scale in cells))
        cells = [[(place[k], big // s * g) for k, g in t if k in place] for t, s in cells]
        return BilinearProduct._from_numerators(d.field, new_dim, cells, prod.den * big)

    return Dialgebra(d.field, new_dim, *d._per_product(projected)), proj
