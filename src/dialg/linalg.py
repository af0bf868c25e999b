"""Exact linear algebra: vectors, matrices, row reduction, kernels, subspaces.

Conventions used throughout the package:
  * vectors are rows; a linear map with matrix M acts as v @ M,
  * kernels and linear solves use the column convention M @ x = b,
  * a Subspace is held as the echelon rows `_insert` makes of any spanning
    set, one canonical form (below), so equal rows mean equal sets; its
    RREF basis is built only when read.

All arithmetic here runs on raw values, never on Scalars: products go
through `contract`, the one exact contraction kernel, shared with algebras,
structure and constructions, and every echelon form is built by `_insert`,
the one pivot step. A raw value is the int residue over GF(p). Over Q it is
an int numerator: a Vec, like a table of algebras, is its int view, int
numerators over one den (`_numerators` puts several over one), so their
contractions run on ints alone.

Elimination is fraction-free (Bareiss, Math. Comp. 22 (1968)). A row enters
it as ints, a Vec's numerators or a raw row scaled once by the lcm of its
denominators (Field.integral), and each echelon row is kept as an int row
normalized at its pivot (Field.normalize): with pivot 1 over GF(p), and over
Q as the primitive int row (gcd 1) with a positive pivot. Either is the RREF
row times one scale, so the canonical form is the same. A row is reduced by
cross-multiplication, w L - sum_i (L / h_i) w[p_i] row_i with L the lcm of
the pivots h_i used, which is the plain subtraction over GF(p), where L = 1.

Every result Vec leaves by one exit, Vec.from_numerators: int numerators
over one den, made canonical by Field.canonical, the one int-view rule,
which Field.is_canonical checks on loading. Scalars are built only by input
coercion (Field.scalar) and by reads of a Vec's coords (its items, a Mat's
entries, a table's rows): no library code reads them or does Scalar or
Vec arithmetic, which only law_residual and BarUnitSet's contains and
elements offer callers. A Subspace stays in int rows: every sum, meet,
kernel, span, residue and element here, and every product and ideal spin in
algebras and structure, reads and makes those rows and their terms, and
only output reads `Subspace.basis`.

Vec, Mat and Subspace are values under fields' one value rule, `_Value`,
as are Field, Scalar and the tables of algebras: equal type and public
slots, a pickle of the public slots alone, and no assignment after the
constructor's `_fill`; a Vec's coords and Subspace's lazy basis and row
terms fill through `_set`.
"""

from __future__ import annotations

from bisect import bisect
from itertools import combinations, product
from math import gcd, lcm

from .errors import FieldMismatchError, NotInvertibleError
from .fields import Scalar, _set, _Value


def _terms(values):
    """The nonzero raw values as (index, value) pairs."""
    return [(k, v) for k, v in enumerate(values) if v]


def _dense(n, terms):
    """The n raw values with the (index, value) terms and 0 elsewhere."""
    values = [0] * n
    for k, v in terms:
        values[k] = v
    return values


def _numerators(vecs):
    """The int terms of each Vec of vecs over the lcm of their dens: (rows, den)."""
    den = lcm(*(v.den for v in vecs))
    return [_terms(v.num if v.den == den else [x * den // v.den for x in v.num]) for v in vecs], den


def contract(acc, xs, vectors):
    """The exact contraction kernel: acc[k] += a * g for (t, a) in xs and
    (k, g) in vectors[t], on raw values; returns acc, unreduced."""
    for t, a in xs:
        for k, g in vectors[t]:
            acc[k] += a * g
    return acc


def contract_pair(acc, xs, ys, view):
    """acc[k] += a * b * g for (i, a) in xs, (j, b) in ys and (k, g) in
    view[i][j]: a bilinear product of raw terms, one contract per term of xs."""
    for i, a in xs:
        contract(acc, [(j, a * b) for j, b in ys], view[i])
    return acc


class Vec(_Value):
    """A coordinate vector with exact entries over a single field, held as
    its int view: coordinate k is num[k] / den, in canonical form, so the
    view is its value. Over GF(p) num holds residues and den is 1; over Q den
    is positive and gcd(den, *num) = 1. coords, its Scalars, is built on
    first read; a Vec built from Scalars keeps them. A pickle carries the
    view and loads through _of, which refuses, as a FieldMismatchError, a
    view that is not canonical."""

    __slots__ = ("field", "num", "den", "_coords")

    def __init__(self, field, coords):
        coords = tuple(coords)
        for c in coords:
            if not isinstance(c, Scalar):
                raise TypeError(f"expected a Scalar, got {c!r}")
            if c.field is not field:
                raise FieldMismatchError(f"scalar over {c.field} in a vector over {field}")
        num, den = field.canonical([c.value for c in coords], 1)
        self._fill(field, tuple(num), den, coords)

    @classmethod
    def of(cls, field, values):
        return cls(field, tuple(field.scalar(v) for v in values))

    @classmethod
    def _from_view(cls, field, num, den):
        """The Vec whose int view, a canonical tuple already, is (num, den), unchecked."""
        vec = object.__new__(cls)
        vec._fill(field, num, den, None)
        return vec

    @classmethod
    def from_numerators(cls, field, values, den):
        """The Vec of values / den, values ints or Fractions, den a positive
        int (1 over GF(p)), made canonical by Field.canonical. It builds no
        Scalar."""
        num, den = field.canonical(values, den)
        return cls._from_view(field, tuple(num), den)

    @classmethod
    def _of(cls, field, num, den):
        """The Vec whose view is (num, den), checked by Field.is_canonical,
        since a pickle loads through it: a view that is not canonical would
        load unequal to its canonical twin."""
        if type(num) is not tuple or not field.is_canonical(num, den):
            raise FieldMismatchError("vector view is not canonical")
        return cls._from_view(field, num, den)

    @classmethod
    def zero(cls, field, n):
        return cls._from_view(field, (0,) * n, 1)

    @classmethod
    def unit(cls, field, n, i):
        return cls._from_view(field, tuple(int(j == i) for j in range(n)), 1)

    @property
    def coords(self):
        """The Scalars num[k] / den, built on first read."""
        if self._coords is None:
            f = self.field
            _set(self, "_coords", tuple(map(f.scalar, f.divide(self.num, self.den))))
        return self._coords

    def _check(self, other):
        if not isinstance(other, Vec):
            raise TypeError(f"expected a Vec, got {other!r}")
        if other.field is not self.field or len(other.num) != len(self.num):
            raise FieldMismatchError("vector field or length mismatch")

    def __add__(self, other):
        self._check(other)
        return Vec(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return Vec(self.field, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return Vec(self.field, tuple(-a for a in self.coords))

    def scale(self, s):
        return Vec(self.field, tuple(s * a for a in self.coords))

    def __matmul__(self, m):
        """Row vector times matrix."""
        if not isinstance(m, Mat):
            return NotImplemented
        if m.field is not self.field or m.nrows != len(self.num):
            raise FieldMismatchError("vector/matrix shape mismatch")
        return m._premultiply((self,))[0]

    def __len__(self):
        return len(self.num)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __bool__(self):
        return any(self.num)

    def __repr__(self):
        return f"Vec{self}"

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


class Mat(_Value):
    """A rectangular matrix stored as a tuple of row Vecs.

    The column count is kept explicitly so 0-row matrices keep their shape.
    """

    __slots__ = ("field", "rows", "ncols")

    def __init__(self, field, rows, ncols):
        rows = tuple(rows)
        for r in rows:
            if r.field is not field or len(r) != ncols:
                raise FieldMismatchError("ragged or mixed-field matrix rows")
        self._fill(field, rows, ncols)

    @classmethod
    def from_rows(cls, field, rows, ncols=None):
        vecs = [r if isinstance(r, Vec) else Vec.of(field, r) for r in rows]
        if ncols is None:
            if not vecs:
                raise ValueError("ncols is required for a matrix with no rows")
            ncols = len(vecs[0])
        return cls(field, vecs, ncols)

    @classmethod
    def identity(cls, field, n):
        return cls(field, tuple(Vec.unit(field, n, i) for i in range(n)), n)

    @classmethod
    def zero(cls, field, nrows, ncols):
        return cls(field, tuple(Vec.zero(field, ncols) for _ in range(nrows)), ncols)

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def row(self, i):
        return self.rows[i]

    def entry(self, i, j):
        return self.rows[i].coords[j]

    def transpose(self):
        rows, den = _numerators(self.rows)
        dense = [_dense(self.ncols, r) for r in rows]
        cols = [Vec.from_numerators(self.field, [r[j] for r in dense], den) for j in range(self.ncols)]
        return Mat(self.field, cols, self.nrows)

    def __matmul__(self, other):
        if isinstance(other, Mat):
            if other.field is not self.field or other.nrows != self.ncols:
                raise FieldMismatchError("matrix product shape mismatch")
            return Mat(self.field, other._premultiply(self.rows), other.ncols)
        if isinstance(other, Vec):
            # Column convention: (M @ x)_i = row_i . x
            if other.field is not self.field or len(other) != self.ncols:
                raise FieldMismatchError("matrix/vector shape mismatch")
            return other @ self.transpose()
        return NotImplemented

    def _premultiply(self, vecs):
        """v @ self for each row Vec v of vecs, taking self's numerators once."""
        rows, den = _numerators(self.rows)
        n = self.ncols
        return [Vec.from_numerators(self.field, contract([0] * n, _terms(v.num), rows), v.den * den)
                for v in vecs]

    def inverse(self):
        n = self.nrows
        if n != self.ncols:
            raise NotInvertibleError("only square matrices are invertible")
        # [M | I] with row i times den_i, which has the same RREF, always has
        # rank n; M is invertible iff its pivots are 0..n-1.
        rows = [[*r.num, *(r.den * (j == i) for j in range(n))] for i, r in enumerate(self.rows)]
        rows, pivots = _echelon(self.field, rows)
        if pivots != list(range(n)):
            raise NotInvertibleError("matrix is singular")
        inverse = [Vec.from_numerators(self.field, r[n:], r[i]) for i, r in enumerate(rows)]
        return Mat(self.field, tuple(inverse), n)

    def is_zero(self):
        return not any(self.rows)

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols}: {self})"

    def __str__(self):
        return "; ".join(" ".join(str(c) for c in r.coords) for r in self.rows)


def rref(m):
    """Reduced row echelon form of a matrix. Returns (rref, rank).

    The row space is preserved; pivots are normalized to 1 and are the only
    nonzero entries in their columns.
    """
    s = _span(m.field, m.ncols, [list(r.num) for r in m.rows])
    zero = Vec.zero(m.field, m.ncols)
    return Mat(m.field, s.basis.rows + (zero,) * (m.nrows - s.dim), m.ncols), s.dim


def _residue(w, pivots, terms):
    """(w L - sum_i (L / h_i) w[p_i] row_i, L) for raw w and echelon rows with
    raw terms, each led by its pivot h_i, L the lcm of the h_i used. Unreduced;
    (w itself, 1) when every h_i is 1 (always over GF(p))."""
    used = [(i, -w[c]) for i, c in enumerate(pivots) if w[c]]
    big = 1
    for i, _ in used:
        h = terms[i][0][1]
        if h != 1:
            big = lcm(big, h)
    if big == 1:
        return contract(w, used, terms), 1
    scaled = [big * x for x in w]
    return contract(scaled, [(i, (big // terms[i][0][1]) * x) for i, x in used], terms), big


def _insert(field, rows, terms, pivots, w):
    """The one pivot step, fraction-free: reduce the int row w (reduced or
    not; see Field.integral) against the echelon rows, normalize it at its
    first nonzero column (Field.normalize), clear that column from the other
    rows by cross-multiplication and insert it in pivot order, updating rows,
    terms and pivots in place. Returns the new row's terms, or None if w is
    in the span. w may be consumed.
    """
    if not any(w):
        return None
    w = field.reduce(_residue(w, pivots, terms)[0])
    head = next(filter(None, w), 0)
    if not head:
        return None
    col = w.index(head)
    # A row with pivot 1 is normalized already, and always is over GF(p).
    if head != 1:
        w = field.normalize(w, head)
        head = w[col]
    top = [_terms(w)]
    for i, r in enumerate(rows):
        x = r[col]
        if x:
            # head r - x w over their gcd.
            if head != 1:
                g = gcd(head, x)
                r, x = [(head // g) * v for v in r], x // g
            r = field.reduce(contract(r, [(0, -x)], top))
            if r[pivots[i]] != 1:
                r = field.normalize(r, r[pivots[i]])
            rows[i] = r
            terms[i] = _terms(r)
    at = bisect(pivots, col)
    rows.insert(at, w)
    terms.insert(at, top[0])
    pivots.insert(at, col)
    return top[0]


def _echelon(field, rows):
    """(echelon rows, pivots) of raw rows, made integral and inserted in turn
    (and consumed): row i is the i-th RREF row times its pivot rows[i][p_i]."""
    ech, terms, pivots = [], [], []
    for w in rows:
        if len(pivots) == len(w):
            break  # full rank: every later row is in the span
        _insert(field, ech, terms, pivots, field.integral(w)[0])
    return ech, pivots


def _span(field, n, rows):
    """The Subspace of F^n spanned by raw rows, reduced or not."""
    return Subspace(field, n, *_echelon(field, rows))


def _null_space(field, rows, pivots, ncols):
    """{x : M @ x = 0} from the raw echelon rows and pivots of M (extra
    columns ignored): for each free column f, the solution with x_f = L and
    x_p = -(L / h) row[f] at each pivot p, h = row[p], L the lcm of the h."""
    big = lcm(*(r[p] for r, p in zip(rows, pivots)))
    scales = [big // r[p] for r, p in zip(rows, pivots)]
    basis = []
    for f in range(ncols):
        if f not in pivots:
            coords = [0] * ncols
            coords[f] = big
            for r, p, s in zip(rows, pivots, scales):
                coords[p] = -s * r[f]
            basis.append(coords)
    return _span(field, ncols, basis)


def _kernel(field, rows, ncols):
    """{x : M @ x = 0} for the matrix M with raw rows (consumed)."""
    return _null_space(field, *_echelon(field, rows), ncols)


def kernel(m):
    """The solution space {x : m @ x = 0}, as a canonical Subspace."""
    return _kernel(m.field, [list(r.num) for r in m.rows], m.ncols)


def _solve(field, rows, n):
    """solve for n unknowns on raw rows, each a coefficient row with its
    right-hand side appended (consumed)."""
    rows, pivots = _echelon(field, rows)
    if n in pivots:
        return None
    big = lcm(*(r[p] for r, p in zip(rows, pivots)))
    coords = [0] * n
    for r, p in zip(rows, pivots):
        coords[p] = (big // r[p]) * r[n]
    return Vec.from_numerators(field, coords, big), _null_space(field, rows, pivots, n)


def solve(m, b):
    """Solve m @ x = b exactly.

    Returns (particular, kernel) or None when the system is inconsistent.
    """
    if b.field is not m.field or len(b) != m.nrows:
        raise FieldMismatchError("right-hand side shape mismatch")
    # Row i times den_i and b's den: [num_i b.den | b.num[i] den_i].
    rows = [[x * b.den for x in r.num] + [c * r.den] for r, c in zip(m.rows, b.num)]
    return _solve(m.field, rows, m.ncols)


class Subspace(_Value):
    """A linear subspace of F^n, held as its echelon rows and pivots.

    The rows are int tuples in the one form `_insert` keeps them in
    (Field.normalize): the RREF rows over GF(p), and over Q the primitive
    rows with a positive pivot. Either is the RREF with each row times one
    scale, so two Subspaces are equal as sets exactly when their rows are
    equal. The rows are the key of _Value's equality and hash, beside the
    field and ambient_dim; the pivots in it follow from the rows. The methods
    read the rows and their terms; only output reads `basis`, the RREF as a
    Mat.
    """

    __slots__ = ("field", "ambient_dim", "rows", "pivots", "_basis", "_sparse")

    def __init__(self, field, ambient_dim, rows, pivots):
        # Trusts that rows are echelon rows with these pivots, kept as _insert keeps them.
        self._fill(field, ambient_dim, tuple(map(tuple, rows)), tuple(pivots), None, None)

    @classmethod
    def _of(cls, field, ambient_dim, rows, pivots):
        """The Subspace with these rows and pivots, checked, since a pickle
        loads through it: they must be the ones _span makes of the rows."""
        ints = type(ambient_dim) is int and ambient_dim >= 0 and type(rows) is tuple and all(
            type(r) is tuple and len(r) == ambient_dim and all(type(x) is int for x in r) for r in rows)
        span = _span(field, ambient_dim, [list(r) for r in rows]) if ints else None
        if span is None or span.rows != rows or span.pivots != pivots:
            raise FieldMismatchError("subspace rows are not canonical")
        return span

    @classmethod
    def from_vectors(cls, field, ambient_dim, vectors):
        vecs = [v if isinstance(v, Vec) else Vec.of(field, v) for v in vectors]
        for v in vecs:
            if v.field is not field or len(v) != ambient_dim:
                raise FieldMismatchError("spanning vector shape mismatch")
        return _span(field, ambient_dim, [list(v.num) for v in vecs])

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls(field, ambient_dim, (), ())

    @classmethod
    def full(cls, field, ambient_dim):
        units = [[int(i == j) for j in range(ambient_dim)] for i in range(ambient_dim)]
        return cls(field, ambient_dim, units, range(ambient_dim))

    @property
    def dim(self):
        return len(self.pivots)

    @property
    def basis(self):
        """The RREF basis as a Mat: each echelon row divided once by its pivot."""
        if self._basis is None:
            rows = [Vec.from_numerators(self.field, r, r[p]) for r, p in zip(self.rows, self.pivots)]
            _set(self, "_basis", Mat(self.field, rows, self.ambient_dim))
        return self._basis

    def _check(self, other):
        if not isinstance(other, Subspace):
            raise TypeError(f"expected a Subspace, got {other!r}")
        if other.field is not self.field or other.ambient_dim != self.ambient_dim:
            raise FieldMismatchError("subspace field or ambient dimension mismatch")

    def _row_terms(self):
        """The raw terms of each echelon row, built on first use."""
        if self._sparse is None:
            _set(self, "_sparse", [_terms(r) for r in self.rows])
        return self._sparse

    def reduce(self, v):
        """Subtract off this subspace: the residue of v modulo the row space."""
        if v.field is not self.field or len(v) != self.ambient_dim:
            raise FieldMismatchError("vector shape mismatch")
        if not any(v.num[c] for c in self.pivots):
            return v  # nothing to subtract
        residue, big = _residue(list(v.num), self.pivots, self._row_terms())
        return Vec.from_numerators(self.field, residue, v.den * big)

    def contains(self, v):
        return not self.reduce(v)

    def is_subspace_of(self, other):
        self._check(other)
        return other.sum(self).dim == other.dim

    def sum(self, other):
        self._check(other)
        return _span(self.field, self.ambient_dim, [list(r) for r in self.rows + other.rows])

    def intersect(self, other):
        """Zassenhaus: the echelon rows of [u | u] over each row u of self and
        [w | 0] over each row w of other that pivot in the right half are
        (0 | x), and those x are the echelon rows of the intersection."""
        self._check(other)
        n, zero = self.ambient_dim, (0,) * self.ambient_dim
        stacked = [list(u + u) for u in self.rows] + [list(w + zero) for w in other.rows]
        rows, pivots = _echelon(self.field, stacked)
        k = bisect(pivots, n - 1)  # the first row that pivots in the right half
        return Subspace(self.field, n, [r[n:] for r in rows[k:]], [p - n for p in pivots[k:]])

    def elements(self):
        """All vectors of the subspace; finite fields only."""
        n, rows = self.ambient_dim, self._row_terms()
        for coeffs in product(self.field._residues(), repeat=self.dim):
            yield Vec.from_numerators(self.field, contract([0] * n, _terms(coeffs), rows), 1)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient_dim}: {self.basis})"


def all_subspaces(field, n):
    """Every subspace of F^n over a finite field, in a deterministic order.

    Enumerates RREF patterns directly: rank, then pivot columns, then the
    free entries, each in lexicographic order.
    """
    residues = field._residues()
    for rank in range(n + 1):
        for pivots in combinations(range(n), rank):
            free_slots = []
            for i, p in enumerate(pivots):
                for c in range(p + 1, n):
                    if c not in pivots:
                        free_slots.append((i, c))
            for values in product(residues, repeat=len(free_slots)):
                rows = [[int(c == p) for c in range(n)] for p in pivots]
                for (i, c), v in zip(free_slots, values):
                    rows[i][c] = v
                yield Subspace(field, n, rows, pivots)
