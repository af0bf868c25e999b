"""Structure-constant models of algebras and dialgebras.

A BilinearProduct is a dense tensor gamma[i][j][k] meaning
e_i * e_j = sum_k gamma[i][j][k] e_k. A Dialgebra carries two of them,
the left product and the right product, on a shared basis. Construction
never enforces the dialgebra laws; validity is checked separately so that
invalid candidates can be represented during censuses. Equal products are
one object: Dialgebra.__init__ stores the left product as the right one
whenever the two are equal (right is left), and per-product work runs
once. The tables are frozen, so that decision stands: BilinearProduct,
Algebra and Dialgebra are values under fields' one value rule, _Value, as
are Field, Mat, Subspace and identities' BarUnitSet. Each slot is set once,
by _fill in __init__, and any later assignment or deletion raises
AttributeError; a table's equality and hash come from its public slots,
basis names aside, and a pickle or copy carries those slots alone.
No caller can make right a distinct copy of left, so products_equal(), an
identity test, agrees with ==, and the canonical tables that classify
shares with every caller stay as they were built.
Every reader of the decision goes by identity: Dialgebra._per_product
calls a per-product function once for a shared product (rebases,
opposites, quotients, annihilators, square dimensions and perfection flags
all go through it), identities replays a law whose products are the
objects of an earlier law's, and glsearch and structure key products by
id().

A BilinearProduct is held as its int view (see the class), its value and
what every reader of numbers uses; its rows of Scalars are an output view,
built on first read as a Subspace's basis is. Producers build the view
directly: from raw values (from_entries, the parser and classify's
canonical tables, by _from_values), from int numerators with one reduction
mod p or one gcd pass (_from_numerators: rebase, quotients, the Leibniz
bracket and the census's residue tensors), or, for transpose_args and for
a pickle or copy, from a canonical view as it is (_of). So a pickle
neither builds nor carries rows.

Arithmetic on the tensor goes through linalg's exact contraction kernel,
`contract`, over the view. apply and rebase scale their vector and matrix
arguments to int numerators too and accumulate on ints alone (reduced mod
p over GF(p) between contractions); apply makes one division per output
coordinate, by Vec.from_numerators, and rebase makes none.
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
from math import gcd

from .errors import FieldMismatchError
from .fields import _set, _Value
from .linalg import Vec, _dense, _span, _terms, _vec_terms, contract, contract_pair


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


def _grid(cells, n):
    """The n x n nested tuples of a row-major list of n^2 term lists."""
    return tuple(tuple(map(tuple, cells[i * n : (i + 1) * n])) for i in range(n))


class ProductTag(Enum):
    LEFT = "left"
    RIGHT = "right"


class BilinearProduct(_Value):
    """One bilinear product given by its structure constants, held as its
    int view: sparse[i][j] holds (k, g), k increasing, for each nonzero
    gamma[i][j][k] = g / den, g an int numerator. Over GF(p) g is the residue
    and den is 1; over Q den is the lcm of the reduced entry denominators.
    The view is canonical, so it is the table's value: equality and the
    hash compare it. rows, gamma[i][j] as the Vec of coordinates of
    e_i * e_j, is built when first read; a table built from rows keeps them.
    A pickle or copy carries the view and loads through _of, which refuses a
    view that is not dim x dim; a pickle written while tables pickled their
    rows loads through the constructor.
    """

    __slots__ = ("field", "dim", "sparse", "den", "_rows")

    def __init__(self, field, dim, rows):
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise FieldMismatchError("structure constant tensor is not dim x dim")
        if any(v.field is not field or len(v) != dim for r in rows for v in r):
            raise FieldMismatchError("structure constant row shape mismatch")
        flat, den = field.numerators([_vec_terms(g) for r in rows for g in r])
        self._fill(field, dim, _grid(flat, dim), den, rows)

    @classmethod
    def _from_values(cls, field, dim, values):
        """The table with gamma[i][j][k] = v for each (i, j, k): v in values,
        raw values: residues in [0, p) over GF(p), ints or Fractions over Q."""
        cells = [[] for _ in range(dim * dim)]
        for (i, j, k), v in sorted(values.items()):
            if v:
                cells[i * dim + j].append((k, v))
        return cls._from_numerators(field, dim, *field.numerators(cells))

    @classmethod
    def _from_numerators(cls, field, dim, cells, den):
        """The table with gamma[i][j][k] = g / den for each (k, g) in cells[i *
        dim + j], from nonzero int numerator terms in increasing k, reduced
        or not: one reduction mod p over GF(p), where den is 1 and terms that
        vanish are dropped, and over Q one gcd pass that brings den to the
        lcm of the reduced entry denominators. Its rows are unbuilt."""
        if field.is_finite:
            p = field.p
            cells = [[(k, r) for k, g in c if (r := g % p)] for c in cells]
        else:
            common = gcd(den, *(g for c in cells for _, g in c))
            if common != 1:
                cells, den = [[(k, g // common) for k, g in c] for c in cells], den // common
        return cls._of(field, dim, _grid(cells, dim), den)

    @classmethod
    def _of(cls, field, dim, sparse, den):
        """The table whose int view, canonical already, is (sparse, den); a
        pickle loads through it, so it checks the view's shape."""
        if len(sparse) != dim or any(len(r) != dim for r in sparse):
            raise FieldMismatchError("structure constant tensor is not dim x dim")
        table = object.__new__(cls)
        table._fill(field, dim, sparse, den, None)
        return table

    def __reduce__(self):
        return self._of, self._args(self)

    @classmethod
    def zero(cls, field, dim):
        return cls._from_numerators(field, dim, [()] * (dim * dim), 1)

    @classmethod
    def from_entries(cls, field, dim, entries):
        """Build from a {(i, j, k): coefficient} mapping, 0-based indices."""
        values = {_entry_key(key, (dim,) * 3): field.scalar(c).value for key, c in entries.items()}
        return cls._from_values(field, dim, values)

    @property
    def rows(self):
        """gamma[i][j] as the Vec of coordinates of e_i * e_j, built on first read."""
        if self._rows is None:
            field, n, den = self.field, self.dim, self.den
            rows = [[Vec.from_numerators(field, _dense(n, t), den) for t in r] for r in self.sparse]
            _set(self, "_rows", tuple(map(tuple, rows)))
        return self._rows

    def entry(self, i, j, k):
        return self.rows[i][j].coords[k]

    def row(self, i, j):
        return self.rows[i][j]

    def _entry_texts(self):
        """(i, j, k, text) for each nonzero gamma[i][j][k], in index order, with
        text the constant as its Scalar prints: an int, or <num>/<den> in
        lowest terms."""
        for i, row in enumerate(self.sparse):
            for j, terms in enumerate(row):
                for k, g in terms:
                    c = gcd(g, self.den)
                    yield i, j, k, f"{g // c}/{self.den // c}" if c != self.den else str(g // c)

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
        return BilinearProduct._of(self.field, self.dim, tuple(zip(*self.sparse)), self.den)

    def rebase(self, t, t_inv):
        """Structure constants in the basis whose rows (in old coordinates) are t."""
        field, n = self.field, self.dim
        if any(m.field is not field or m.shape != (n, n) for m in (t, t_inv)):
            raise FieldMismatchError("base change matrix shape mismatch")
        # All int numerators: t = basis / dt, t_inv = back / di, gamma = view / den.
        basis, dt = field.numerators([_vec_terms(r) for r in t.rows])
        back, di = field.numerators([_vec_terms(r) for r in t_inv.rows])
        den = dt * dt * self.den * di
        # moved[a][b] = (e_a * e_b) @ t_inv, once per nonzero constant.
        moved = [
            [_terms(field.reduce(contract([0] * n, g, back))) if g else () for g in row]
            for row in self.sparse
        ]
        # by_right[j][a] = (e_a * t_j) @ t_inv, so the new (t_i * t_j) @ t_inv
        # is sum_a t_i[a] by_right[j][a].
        by_right = [
            [_terms(field.reduce(contract([0] * n, ys, moved[a]))) for a in range(n)]
            for ys in basis
        ]
        cells = [_terms(contract([0] * n, xs, b)) for xs in basis for b in by_right]
        return BilinearProduct._from_numerators(field, n, cells, den)

    def is_zero(self):
        return not any(map(any, self.sparse))

    def __repr__(self):
        entries = [f"({i},{j},{k})={c}" for i, j, k, c in self._entry_texts()]
        return f"BilinearProduct[{', '.join(entries) or '0'}]"


def _check_names(names, dim):
    if names is None:
        return None
    names = tuple(str(n) for n in names)
    if len(names) != dim:
        raise ValueError(f"expected {dim} basis names, got {len(names)}")
    return names


class Algebra(_Value):
    """A single-product algebra on a coordinate basis."""

    __slots__ = ("field", "dim", "product", "basis_names")

    def __init__(self, field, dim, product, basis_names=None):
        if product.field is not field or product.dim != dim:
            raise FieldMismatchError("product does not match the algebra")
        self._fill(field, dim, product, _check_names(basis_names, dim))

    @classmethod
    def from_entries(cls, field, dim, entries, basis_names=None):
        return cls(field, dim, BilinearProduct.from_entries(field, dim, entries), basis_names)

    def multiply(self, x, y):
        return self.product.apply(x, y)

    def square_space(self):
        """A*A: the span of the products e_i e_j, the rows of the table."""
        n, view = self.dim, self.product.sparse
        return _span(self.field, n, [_dense(n, terms) for row in view for terms in row])

    def rebase(self, t):
        """The same algebra written on the basis whose rows are t (invertible)."""
        t_inv = t.inverse()
        return Algebra(self.field, self.dim, self.product.rebase(t, t_inv))

    def __repr__(self):
        return f"Algebra(dim {self.dim} over {self.field}, {self.product!r})"


class Dialgebra(_Value):
    """Two bilinear products on one basis; the dialgebra laws are not enforced here.

    When right == left, right is left: every constructor ends here, and the
    slots cannot be reassigned afterwards, so products_equal() is an
    identity test that agrees with right == left. A renamed table,
    Dialgebra(d.field, d.dim, d.left, d.right, names), shares d's products
    and equals d: basis names do not count. A shared product is one pickled
    object, so right is left on loading.
    """

    __slots__ = ("field", "dim", "left", "right", "basis_names")

    def __init__(self, field, dim, left, right, basis_names=None):
        for prod in (left, right):
            if prod.field is not field or prod.dim != dim:
                raise FieldMismatchError("product does not match the dialgebra")
        right = left if right == left else right
        self._fill(field, dim, left, right, _check_names(basis_names, dim))

    @classmethod
    def from_entries(cls, field, dim, left=None, right=None, basis_names=None):
        lp, rp = (BilinearProduct.from_entries(field, dim, e or {}) for e in (left, right))
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

    def __repr__(self):
        return (
            f"Dialgebra(dim {self.dim} over {self.field}, "
            f"left={self.left!r}, right={self.right!r})"
        )
