"""Structure-constant models of algebras and dialgebras.

A BilinearProduct is a dense tensor gamma[i][j][k] meaning
e_i * e_j = sum_k gamma[i][j][k] e_k. A Dialgebra carries two of them,
the left product and the right product, on a shared basis. Construction
never enforces the dialgebra laws; validity is checked separately so that
invalid candidates can be represented during censuses.

Arithmetic on the tensor goes through one exact contraction kernel,
`contract`, over a lazily built raw sparse view: for each pair (i, j) the
tuple of (k, value) with gamma[i][j][k] != 0, where a value is the bare
int residue over GF(p) or the Fraction over Q. Sums are accumulated
unreduced and reduced mod p once per output coordinate (Field.reduce);
Scalar and Vec objects are built only for results.
"""

from __future__ import annotations

from enum import Enum

from .errors import FieldMismatchError
from .linalg import Subspace, Vec


def _terms(values):
    """The nonzero raw values as (index, value) pairs."""
    return [(k, v) for k, v in enumerate(values) if v]


def _vec_terms(v):
    """The raw terms of a Vec's coordinates."""
    return [(k, c.value) for k, c in enumerate(v.coords) if c.value]


def contract(acc, xs, vectors):
    """The exact contraction kernel: acc[k] += a * g for (t, a) in xs and
    (k, g) in vectors[t], on raw values; returns acc, unreduced."""
    for t, a in xs:
        for k, g in vectors[t]:
            acc[k] += a * g
    return acc


class ProductTag(Enum):
    LEFT = "left"
    RIGHT = "right"


class BilinearProduct:
    """One bilinear product given by its structure constants.

    Rows are stored as gamma[i][j] = the Vec of coordinates of e_i * e_j.
    """

    __slots__ = ("field", "dim", "rows", "_sparse")

    def __init__(self, field, dim, rows):
        self.field = field
        self.dim = dim
        self.rows = tuple(tuple(r) for r in rows)
        self._sparse = None
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
        grid = [[[field.zero] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j, k), c in entries.items():
            grid[i][j][k] = field.scalar(c)
        return cls(
            field,
            dim,
            tuple(tuple(Vec(field, tuple(grid[i][j])) for j in range(dim)) for i in range(dim)),
        )

    def entry(self, i, j, k):
        return self.rows[i][j].coords[k]

    def row(self, i, j):
        return self.rows[i][j]

    @property
    def sparse(self):
        """The raw sparse view: sparse[i][j] holds (k, value) for each nonzero gamma[i][j][k]."""
        if self._sparse is None:
            self._sparse = tuple(tuple(tuple(_vec_terms(g)) for g in r) for r in self.rows)
        return self._sparse

    def _product_raw(self, xs, ys):
        """Unreduced raw coordinates of x * y from the raw terms of x and y."""
        view = self.sparse
        acc = [0] * self.dim
        for i, a in xs:
            contract(acc, [(j, a * b) for j, b in ys], view[i])
        return acc

    def apply(self, x, y):
        """Bilinear extension: the product of two coordinate vectors."""
        if x.field is not self.field or y.field is not self.field:
            raise FieldMismatchError("vector field mismatch")
        if len(x) != self.dim or len(y) != self.dim:
            raise FieldMismatchError("vector length mismatch")
        return Vec.from_raw(self.field, self._product_raw(_vec_terms(x), _vec_terms(y)))

    def subspace_product(self, u, v):
        """The span of all u_a * v_b over basis vectors of u and v."""
        if u.field is not self.field or v.field is not self.field:
            raise FieldMismatchError("subspace field mismatch")
        if u.ambient_dim != self.dim or v.ambient_dim != self.dim:
            raise FieldMismatchError("subspace ambient dimension mismatch")
        spans = [self.apply(a, b) for a in u.basis.rows for b in v.basis.rows]
        return Subspace.from_vectors(self.field, self.dim, spans)

    def left_multiplication_rows(self):
        """The maps x -> e_i * x, stacked: row (i, k) holds gamma[i][j][k] over j.

        Their common kernel is the right annihilator; for transpose_args()
        it is the left annihilator.
        """
        n = self.dim
        return tuple(
            Vec(self.field, tuple(self.rows[i][j].coords[k] for j in range(n)))
            for i in range(n)
            for k in range(n)
        )

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
        basis = [_vec_terms(r) for r in t.rows]
        back = [_vec_terms(r) for r in t_inv.rows]
        # by_right[j][a] = e_a * t_j, so t_i * t_j = sum_a t_i[a] by_right[j][a].
        by_right = [
            [_terms(field.reduce(contract([0] * n, ys, view[a]))) for a in range(n)]
            for ys in basis
        ]

        def image(xs, by_right_j):
            # (t_i * t_j) @ t_inv
            prod = _terms(field.reduce(contract([0] * n, xs, by_right_j)))
            return Vec.from_raw(field, contract([0] * n, prod, back))

        rows = tuple(tuple(image(xs, b) for b in by_right) for xs in basis)
        return BilinearProduct(field, n, rows)

    def is_zero(self):
        return not any(any(v for v in r) for r in self.rows)

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
        full = Subspace.full(self.field, self.dim)
        return self.product.subspace_product(full, full)

    def rebase(self, t):
        """The same algebra written on the basis whose rows are t (invertible)."""
        t_inv = t.inverse()
        return Algebra(self.field, self.dim, self.product.rebase(t, t_inv))

    def __eq__(self, other):
        if not isinstance(other, Algebra):
            return NotImplemented
        return self.field is other.field and self.dim == other.dim and self.product == other.product

    def __hash__(self):
        return hash((id(self.field), self.dim, self.product))

    def __repr__(self):
        return f"Algebra(dim {self.dim} over {self.field}, {self.product!r})"


class Dialgebra:
    """Two bilinear products on one basis; the dialgebra laws are not enforced here."""

    __slots__ = ("field", "dim", "left", "right", "basis_names")

    def __init__(self, field, dim, left, right, basis_names=None):
        for prod in (left, right):
            if prod.field is not field or prod.dim != dim:
                raise FieldMismatchError("product does not match the dialgebra")
        self.field = field
        self.dim = dim
        self.left = left
        self.right = right
        self.basis_names = _check_names(basis_names, dim)

    @classmethod
    def from_entries(cls, field, dim, left=None, right=None, basis_names=None):
        return cls(
            field,
            dim,
            BilinearProduct.from_entries(field, dim, left or {}),
            BilinearProduct.from_entries(field, dim, right or {}),
            basis_names,
        )

    @classmethod
    def trivial(cls, field, dim):
        return cls(field, dim, BilinearProduct.zero(field, dim), BilinearProduct.zero(field, dim))

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
        return self.left == self.right

    def rebase(self, t):
        t_inv = t.inverse()
        return Dialgebra(
            self.field, self.dim, self.left.rebase(t, t_inv), self.right.rebase(t, t_inv)
        )

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
