"""Exact linear algebra: vectors, matrices, row reduction, kernels, subspaces.

Conventions used throughout the package:
  * vectors are rows; a linear map with matrix M acts as v @ M,
  * kernels and linear solves use the column convention M @ x = b,
  * a Subspace is canonically represented by the reduced row echelon form
    of any spanning set, so structural equality is set equality.
"""

from __future__ import annotations

from itertools import combinations, product

from .errors import FieldMismatchError, NotInvertibleError


class Vec:
    """A coordinate vector with exact entries over a single field."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = tuple(coords)

    @classmethod
    def of(cls, field, values):
        return cls(field, tuple(field.scalar(v) for v in values))

    @classmethod
    def zero(cls, field, n):
        z = field.zero
        return cls(field, (z,) * n)

    @classmethod
    def unit(cls, field, n, i):
        z, o = field.zero, field.one
        return cls(field, tuple(o if j == i else z for j in range(n)))

    def _check(self, other):
        if not isinstance(other, Vec):
            raise TypeError(f"expected a Vec, got {other!r}")
        if other.field is not self.field or len(other.coords) != len(self.coords):
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
        if m.field is not self.field or m.nrows != len(self.coords):
            raise FieldMismatchError("vector/matrix shape mismatch")
        out = [self.field.zero] * m.ncols
        for i, c in enumerate(self.coords):
            if c:
                row = m.rows[i].coords
                out = [acc + c * e for acc, e in zip(out, row)]
        return Vec(self.field, tuple(out))

    def __len__(self):
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        if not isinstance(other, Vec):
            return NotImplemented
        return self.field is other.field and self.coords == other.coords

    def __hash__(self):
        return hash((id(self.field), self.coords))

    def __repr__(self):
        return f"Vec{self}"

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


class Mat:
    """A rectangular matrix stored as a tuple of row Vecs.

    The column count is kept explicitly so 0-row matrices keep their shape.
    """

    __slots__ = ("field", "rows", "ncols")

    def __init__(self, field, rows, ncols):
        self.field = field
        self.rows = tuple(rows)
        self.ncols = ncols
        for r in self.rows:
            if r.field is not field or len(r) != ncols:
                raise FieldMismatchError("ragged or mixed-field matrix rows")

    @classmethod
    def from_rows(cls, field, rows, ncols=None):
        vecs = []
        for r in rows:
            vecs.append(r if isinstance(r, Vec) else Vec.of(field, r))
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
        cols = [Vec(self.field, tuple(r.coords[j] for r in self.rows)) for j in range(self.ncols)]
        return Mat(self.field, cols, self.nrows)

    def __matmul__(self, other):
        if isinstance(other, Mat):
            if other.field is not self.field or other.nrows != self.ncols:
                raise FieldMismatchError("matrix product shape mismatch")
            return Mat(self.field, tuple(r @ other for r in self.rows), other.ncols)
        if isinstance(other, Vec):
            # Column convention: (M @ x)_i = row_i . x
            if other.field is not self.field or len(other) != self.ncols:
                raise FieldMismatchError("matrix/vector shape mismatch")
            z = self.field.zero
            out = []
            for r in self.rows:
                acc = z
                for a, b in zip(r.coords, other.coords):
                    if a and b:
                        acc = acc + a * b
                out.append(acc)
            return Vec(self.field, tuple(out))
        return NotImplemented

    def inverse(self):
        n = self.nrows
        if n != self.ncols:
            raise NotInvertibleError("only square matrices are invertible")
        aug = Mat(
            self.field,
            tuple(
                Vec(self.field, r.coords + Vec.unit(self.field, n, i).coords)
                for i, r in enumerate(self.rows)
            ),
            2 * n,
        )
        red, pivots = _rref(aug)
        # [M | I] always has rank n; M is invertible iff its pivots are 0..n-1.
        if pivots != list(range(n)):
            raise NotInvertibleError("matrix is singular")
        return Mat(self.field, tuple(Vec(self.field, r.coords[n:]) for r in red.rows), n)

    def is_zero(self):
        return not any(self.rows)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (
            self.field is other.field
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((id(self.field), self.ncols, self.rows))

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols}: {self})"

    def __str__(self):
        return "; ".join(" ".join(str(c) for c in r.coords) for r in self.rows)


def rref(m):
    """Reduced row echelon form of a matrix. Returns (rref, rank).

    The row space is preserved; pivots are normalized to 1 and are the only
    nonzero entries in their columns.
    """
    red, pivots = _rref(m)
    return red, len(pivots)


def _rref(m):
    """Like rref, but returns (rref, pivot columns in increasing order)."""
    rows = [list(r.coords) for r in m.rows]
    nrows, ncols = m.nrows, m.ncols
    pivots = []
    for col in range(ncols):
        piv = len(pivots)
        if piv == nrows:
            break
        hit = None
        for r in range(piv, nrows):
            if rows[r][col]:
                hit = r
                break
        if hit is None:
            continue
        rows[piv], rows[hit] = rows[hit], rows[piv]
        inv = rows[piv][col].inverse()
        rows[piv] = [inv * e for e in rows[piv]]
        for r in range(nrows):
            if r != piv and rows[r][col]:
                c = rows[r][col]
                rows[r] = [a - c * b for a, b in zip(rows[r], rows[piv])]
        pivots.append(col)
    out = Mat(m.field, tuple(Vec(m.field, tuple(r)) for r in rows), ncols)
    return out, pivots


def kernel(m):
    """The solution space {x : m @ x = 0}, as a canonical Subspace."""
    red, pivots = _rref(m)
    free = [c for c in range(m.ncols) if c not in pivots]
    basis = []
    for f in free:
        coords = [m.field.zero] * m.ncols
        coords[f] = m.field.one
        for r, p in enumerate(pivots):
            coords[p] = -red.rows[r].coords[f]
        basis.append(Vec(m.field, tuple(coords)))
    return Subspace.from_vectors(m.field, m.ncols, basis)


def solve(m, b):
    """Solve m @ x = b exactly.

    Returns (particular, kernel) or None when the system is inconsistent.
    """
    if b.field is not m.field or len(b) != m.nrows:
        raise FieldMismatchError("right-hand side shape mismatch")
    aug = Mat(
        m.field,
        tuple(Vec(m.field, r.coords + (c,)) for r, c in zip(m.rows, b.coords)),
        m.ncols + 1,
    )
    red, pivots = _rref(aug)
    if m.ncols in pivots:
        return None
    coords = [m.field.zero] * m.ncols
    for r, p in enumerate(pivots):
        coords[p] = red.rows[r].coords[m.ncols]
    return Vec(m.field, tuple(coords)), kernel(m)


class Subspace:
    """A linear subspace of F^n in canonical (RREF basis) form.

    Two Subspaces are equal as sets exactly when their canonical bases are
    structurally equal, which is how __eq__ is implemented.
    """

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field, ambient_dim, basis, pivots):
        # Trusts that basis is already in RREF with no zero rows.
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots

    @classmethod
    def from_vectors(cls, field, ambient_dim, vectors):
        vecs = [v if isinstance(v, Vec) else Vec.of(field, v) for v in vectors]
        for v in vecs:
            if v.field is not field or len(v) != ambient_dim:
                raise FieldMismatchError("spanning vector shape mismatch")
        m = Mat(field, tuple(vecs), ambient_dim)
        red, pivots = _rref(m)
        rows = red.rows[: len(pivots)]
        return cls(field, ambient_dim, Mat(field, rows, ambient_dim), tuple(pivots))

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls.from_vectors(field, ambient_dim, [])

    @classmethod
    def full(cls, field, ambient_dim):
        return cls.from_vectors(
            field, ambient_dim, [Vec.unit(field, ambient_dim, i) for i in range(ambient_dim)]
        )

    @property
    def dim(self):
        return self.basis.nrows

    def _check(self, other):
        if not isinstance(other, Subspace):
            raise TypeError(f"expected a Subspace, got {other!r}")
        if other.field is not self.field or other.ambient_dim != self.ambient_dim:
            raise FieldMismatchError("subspace field or ambient dimension mismatch")

    def reduce(self, v):
        """Subtract off this subspace: the residue of v modulo the row space."""
        if v.field is not self.field or len(v) != self.ambient_dim:
            raise FieldMismatchError("vector shape mismatch")
        for r, p in zip(self.basis.rows, self.pivots):
            c = v.coords[p]
            if c:
                v = v - r.scale(c)
        return v

    def contains(self, v):
        return not self.reduce(v)

    def is_subspace_of(self, other):
        self._check(other)
        return all(other.contains(r) for r in self.basis.rows)

    def sum(self, other):
        self._check(other)
        return Subspace.from_vectors(
            self.field, self.ambient_dim, self.basis.rows + other.basis.rows
        )

    def intersect(self, other):
        self._check(other)
        stacked = Mat(
            self.field, self.basis.rows + other.basis.rows, self.ambient_dim
        )
        left_null = kernel(stacked.transpose())
        vectors = [Vec(self.field, w.coords[: self.dim]) @ self.basis for w in left_null.basis.rows]
        return Subspace.from_vectors(self.field, self.ambient_dim, vectors)

    def elements(self):
        """All vectors of the subspace; finite fields only."""
        scalars = self.field.elements()
        for coeffs in product(scalars, repeat=self.dim):
            yield Vec(self.field, coeffs) @ self.basis

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.field is other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((id(self.field), self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient_dim}: {self.basis})"


def all_subspaces(field, n):
    """Every subspace of F^n over a finite field, in a deterministic order.

    Enumerates RREF patterns directly: rank, then pivot columns, then the
    free entries, each in lexicographic order.
    """
    scalars = field.elements()
    for rank in range(n + 1):
        for pivots in combinations(range(n), rank):
            free_slots = []
            for i, p in enumerate(pivots):
                for c in range(p + 1, n):
                    if c not in pivots:
                        free_slots.append((i, c))
            for values in product(scalars, repeat=len(free_slots)):
                rows = []
                for i, p in enumerate(pivots):
                    coords = [field.zero] * n
                    coords[p] = field.one
                    rows.append(coords)
                for (i, c), v in zip(free_slots, values):
                    rows[i][c] = v
                vecs = tuple(Vec(field, tuple(r)) for r in rows)
                yield Subspace(field, n, Mat(field, vecs, n), pivots)
