"""Structure-constant models of algebras and dialgebras.

A BilinearProduct is a dense tensor gamma[i][j][k] meaning
e_i * e_j = sum_k gamma[i][j][k] e_k. A Dialgebra carries two of them,
the left product and the right product, on a shared basis. Construction
never enforces the dialgebra laws; validity is checked separately so that
invalid candidates can be represented during censuses. Equal products are
one object: a Dialgebra whose right product equals its left one holds the
left one twice (right is left), and per-product work runs once.
Dialgebra._per_product is the one place that decides this: it calls a
per-product function once for a shared product, and rebases, opposites,
quotients, annihilators, square dimensions and perfection flags all go
through it. Law checks share by the same identity: identities replays a
law whose products are the objects of an earlier law's.

Arithmetic on the tensor goes through linalg's exact contraction kernel,
`contract`, over a lazily built raw sparse view: for each pair (i, j) the
tuple of (k, g) with gamma[i][j][k] = g / den != 0, where g is an int
numerator over `den`, the table's one common denominator (the lcm of its
entry denominators, cached with the view). Over GF(p) g is the residue and
den is 1. apply and rebase scale their vector and matrix arguments to int
numerators too, accumulate on ints alone (reduced mod p over GF(p) between
contractions), and make one division per output coordinate, by
Vec.from_numerators; Scalar and Vec objects are built only for results.
rebase moves each nonzero constant by the inverse base change once, before
the two contractions with the new basis. subspace_product builds none: it
contracts the int echelon rows of its two Subspaces pairwise and spans the
results with one _span (linalg's one pivot step, `_insert`, row by row),
and structure's ideal closures read the rows and columns of the view
directly: both use int rows, since scaling a row does not change its span.
multiplication_rows reads the linear systems of the annihilators and
bar-units off the view as int rows, which structure, identities and
classify's fingerprint eliminate as they are.
identities' law checks read the view too, visiting only its nonzero
entries: they build each law's residuals one slab of rows per first basis
index, over one common denominator per law.
"""

from __future__ import annotations

from enum import Enum

from .errors import FieldMismatchError
from .linalg import Vec, _raw, _span, _terms, _vec_terms, contract, contract_pair


def _entry_key(key, bounds):
    """key itself if it is a tuple of three ints, each in range of its bound;
    any other key is a FieldMismatchError naming it."""
    if not (
        isinstance(key, tuple)
        and len(key) == 3
        and all(isinstance(i, int) and 0 <= i < n for i, n in zip(key, bounds))
    ):
        raise FieldMismatchError(f"entry key {key!r} is not three ints below {bounds}")
    return key


def _entry_grid(field, entries, shape):
    """The nested Vec tuples g[i][j] of shape (rows, columns, length) with
    coordinate k of g[i][j] = c for each (i, j, k): c in entries, else 0."""
    n, m, length = shape
    grid = [[[field.zero] * length for _ in range(m)] for _ in range(n)]
    for key, c in entries.items():
        i, j, k = _entry_key(key, shape)
        grid[i][j][k] = field.scalar(c)
    return tuple(tuple(Vec(field, tuple(g)) for g in row) for row in grid)


class ProductTag(Enum):
    LEFT = "left"
    RIGHT = "right"


class BilinearProduct:
    """One bilinear product given by its structure constants.

    Rows are stored as gamma[i][j] = the Vec of coordinates of e_i * e_j.
    """

    __slots__ = ("field", "dim", "rows", "_sparse", "_den")

    def __init__(self, field, dim, rows):
        self.field = field
        self.dim = dim
        self.rows = tuple(tuple(r) for r in rows)
        self._sparse = self._den = None
        if len(self.rows) != dim or any(len(r) != dim for r in self.rows):
            raise FieldMismatchError("structure constant tensor is not dim x dim")
        for r in self.rows:
            for v in r:
                if v.field is not field or len(v) != dim:
                    raise FieldMismatchError("structure constant row shape mismatch")

    @classmethod
    def zero(cls, field, dim):
        z = Vec.zero(field, dim)
        return cls(field, dim, tuple((z,) * dim for _ in range(dim)))

    @classmethod
    def from_entries(cls, field, dim, entries):
        """Build from a {(i, j, k): coefficient} mapping, 0-based indices."""
        return cls(field, dim, _entry_grid(field, entries, (dim, dim, dim)))

    def entry(self, i, j, k):
        return self.rows[i][j].coords[k]

    def row(self, i, j):
        return self.rows[i][j]

    def _build_view(self):
        n = self.dim
        flat, self._den = self.field.numerators([_vec_terms(g) for r in self.rows for g in r])
        self._sparse = tuple(tuple(map(tuple, flat[i * n : (i + 1) * n])) for i in range(n))

    @property
    def sparse(self):
        """The raw sparse view: sparse[i][j] holds (k, g) for each nonzero
        gamma[i][j][k] = g / den, g an int numerator."""
        if self._sparse is None:
            self._build_view()
        return self._sparse

    @property
    def den(self):
        """The sparse view's common denominator: the lcm of the entry
        denominators, 1 over GF(p)."""
        if self._sparse is None:
            self._build_view()
        return self._den

    def apply(self, x, y):
        """Bilinear extension: the product of two coordinate vectors."""
        if x.field is not self.field or y.field is not self.field:
            raise FieldMismatchError("vector field mismatch")
        if len(x) != self.dim or len(y) != self.dim:
            raise FieldMismatchError("vector length mismatch")
        (xs, ys), d = self.field.numerators([_vec_terms(x), _vec_terms(y)])
        raw = contract_pair([0] * self.dim, xs, ys, self.sparse)
        return Vec.from_numerators(self.field, raw, d * d * self.den)

    def subspace_product(self, u, v):
        """The span of all u_a * v_b over basis vectors of u and v."""
        if u.field is not self.field or v.field is not self.field:
            raise FieldMismatchError("subspace field mismatch")
        if u.ambient_dim != self.dim or v.ambient_dim != self.dim:
            raise FieldMismatchError("subspace ambient dimension mismatch")
        n, view = self.dim, self.sparse
        # Int rows throughout: scaling a spanning row leaves the span as it is.
        xs, ys = u._row_terms(), v._row_terms()
        return _span(self.field, n, [contract_pair([0] * n, x, y, view) for x in xs for y in ys])

    def multiplication_rows(self, right=False):
        """The nonzero int rows of the maps x -> e_i * x (x -> x * e_i when
        right), keyed by (i, k): entry j of row (i, k) is the numerator over
        den of coordinate k of e_i * e_j (of e_j * e_i). The common kernel of
        the rows is the right (left) annihilator. Fresh lists on every call.
        """
        n, rows = self.dim, {}
        for a, row in enumerate(self.sparse):
            for b, terms in enumerate(row):
                i, j = (b, a) if right else (a, b)
                for k, g in terms:
                    r = rows.get((i, k))
                    if r is None:
                        r = rows[i, k] = [0] * n
                    r[j] = g
        return rows

    def transpose_args(self):
        """The product with swapped arguments: gamma'[i][j] = gamma[j][i]."""
        return BilinearProduct(
            self.field,
            self.dim,
            tuple(tuple(self.rows[j][i] for j in range(self.dim)) for i in range(self.dim)),
        )

    def rebase(self, t, t_inv):
        """Structure constants in the basis whose rows (in old coordinates) are t."""
        field, n = self.field, self.dim
        if any(m.field is not field or m.shape != (n, n) for m in (t, t_inv)):
            raise FieldMismatchError("base change matrix shape mismatch")
        view = self.sparse
        # All int numerators: t = basis / dt, t_inv = back / di, gamma = view / den.
        basis, dt = field.numerators([_vec_terms(r) for r in t.rows])
        back, di = field.numerators([_vec_terms(r) for r in t_inv.rows])
        den = dt * dt * self.den * di
        # moved[a][b] = (e_a * e_b) @ t_inv, once per nonzero constant.
        moved = [
            [_terms(field.reduce(contract([0] * n, g, back))) if g else () for g in row]
            for row in view
        ]
        # by_right[j][a] = (e_a * t_j) @ t_inv, so the new (t_i * t_j) @ t_inv
        # is sum_a t_i[a] by_right[j][a].
        by_right = [
            [_terms(field.reduce(contract([0] * n, ys, moved[a]))) for a in range(n)]
            for ys in basis
        ]
        rows = tuple(
            tuple(Vec.from_numerators(field, contract([0] * n, xs, b), den) for b in by_right)
            for xs in basis
        )
        return BilinearProduct(field, n, rows)

    def is_zero(self):
        return not any(any(v for v in r) for r in self.rows)

    def __reduce__(self):
        # The table alone: the lazy sparse view and denominator are rebuilt on read.
        return (BilinearProduct, (self.field, self.dim, self.rows))

    def __eq__(self, other):
        if not isinstance(other, BilinearProduct):
            return NotImplemented
        return self.field is other.field and self.dim == other.dim and self.rows == other.rows

    def __hash__(self):
        return hash((id(self.field), self.dim, self.rows))

    def __repr__(self):
        entries = [
            f"({i},{j},{k})={c}"
            for i in range(self.dim)
            for j in range(self.dim)
            for k, c in enumerate(self.rows[i][j].coords)
            if c
        ]
        return f"BilinearProduct[{', '.join(entries) or '0'}]"


def _check_names(names, dim):
    if names is None:
        return None
    names = tuple(str(n) for n in names)
    if len(names) != dim:
        raise ValueError(f"expected {dim} basis names, got {len(names)}")
    return names


class Algebra:
    """A single-product algebra on a coordinate basis."""

    __slots__ = ("field", "dim", "product", "basis_names")

    def __init__(self, field, dim, product, basis_names=None):
        if product.field is not field or product.dim != dim:
            raise FieldMismatchError("product does not match the algebra")
        self.field = field
        self.dim = dim
        self.product = product
        self.basis_names = _check_names(basis_names, dim)

    @classmethod
    def from_entries(cls, field, dim, entries, basis_names=None):
        return cls(field, dim, BilinearProduct.from_entries(field, dim, entries), basis_names)

    def multiply(self, x, y):
        return self.product.apply(x, y)

    def square_space(self):
        """A*A: the span of the products e_i e_j, the rows of the table."""
        return _span(self.field, self.dim, [_raw(v) for row in self.product.rows for v in row])

    def rebase(self, t):
        """The same algebra written on the basis whose rows are t (invertible)."""
        t_inv = t.inverse()
        return Algebra(self.field, self.dim, self.product.rebase(t, t_inv))

    def __reduce__(self):
        return (Algebra, (self.field, self.dim, self.product, self.basis_names))

    def __eq__(self, other):
        if not isinstance(other, Algebra):
            return NotImplemented
        return self.field is other.field and self.dim == other.dim and self.product == other.product

    def __hash__(self):
        return hash((id(self.field), self.dim, self.product))

    def __repr__(self):
        return f"Algebra(dim {self.dim} over {self.field}, {self.product!r})"


class Dialgebra:
    """Two bilinear products on one basis; the dialgebra laws are not enforced here.

    When right == left, right is left: every constructor ends here, so
    products_equal() is an identity test.
    """

    __slots__ = ("field", "dim", "left", "right", "basis_names")

    def __init__(self, field, dim, left, right, basis_names=None):
        for prod in (left, right):
            if prod.field is not field or prod.dim != dim:
                raise FieldMismatchError("product does not match the dialgebra")
        self.field = field
        self.dim = dim
        self.left = left
        self.right = left if right == left else right
        self.basis_names = _check_names(basis_names, dim)

    @classmethod
    def from_entries(cls, field, dim, left=None, right=None, basis_names=None):
        left, right = left or {}, right or {}
        lp = BilinearProduct.from_entries(field, dim, left)
        rp = lp if right == left else BilinearProduct.from_entries(field, dim, right)
        return cls(field, dim, lp, rp, basis_names)

    @classmethod
    def trivial(cls, field, dim):
        zero = BilinearProduct.zero(field, dim)
        return cls(field, dim, zero, zero)

    def product(self, tag):
        return self.left if tag is ProductTag.LEFT else self.right

    def multiply(self, tag, x, y):
        return self.product(tag).apply(x, y)

    def product_subspace(self, tag, u, v):
        return self.product(tag).subspace_product(u, v)

    def as_single(self, tag):
        """The single-product view (A, <|) or (A, |>)."""
        return Algebra(self.field, self.dim, self.product(tag), self.basis_names)

    def products_equal(self):
        return self.left is self.right

    def _per_product(self, f):
        """(f(left), f(right)), calling f once when the products are one object."""
        left = f(self.left)
        return left, left if self.right is self.left else f(self.right)

    def rebase(self, t):
        t_inv = t.inverse()
        left, right = self._per_product(lambda prod: prod.rebase(t, t_inv))
        return Dialgebra(self.field, self.dim, left, right)

    def __reduce__(self):
        # A shared product is one pickled object, so right is left on loading.
        return (Dialgebra, (self.field, self.dim, self.left, self.right, self.basis_names))

    def __eq__(self, other):
        # Structural identity of the two tensors; basis names are decoration.
        if not isinstance(other, Dialgebra):
            return NotImplemented
        return (
            self.field is other.field
            and self.dim == other.dim
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self):
        return hash((id(self.field), self.dim, self.left, self.right))

    def __repr__(self):
        return (
            f"Dialgebra(dim {self.dim} over {self.field}, "
            f"left={self.left!r}, right={self.right!r})"
        )
