"""Isomorphism invariants, two-dimensional classification, and censuses.

Every valid two-dimensional dialgebra lands in exactly one bucket:

  * trivial-both: both products vanish,
  * zero-cubed-left-zero / zero-cubed-right-zero: exactly one product is
    zero and the surviving product has vanishing triple products,
  * from-associative: both products agree (and no canonical form below
    applies), the dialgebra is an associative algebra in disguise,
  * the canonical forms I, II_k (k != 0), III, IV.

Classification takes one route for every nonzero input with a nonzero
annihilator: it reads the six free structure constants x1..x6 of a basis
(r, s), r spanning the annihilator, off raw products of r and s. Once r <| s
and s |> r have no s component, the laws on (r, s) are exactly the eleven
polynomial constraints on x1..x6, so these decide validity; the kind is read
off which of x1..x6 vanish, and one of two rescalings of (r, s) is the
witness, checked against the kind's canonical table. The laws themselves
are checked only for a zero annihilator, where no x1..x6 exist, and to name
the first violation of an input found invalid.

Isomorphism tests and automorphism groups import glsearch on first use: a
pure-Python search over GL(n, p) row by row, whose dimension-1 closed form
also gives the rational dim-1 witness; rational dimension 2 goes through
the canonical forms.

The census moves each of the p + 11 normal forms of the valid dim-2
dialgebras over GF(p) (the canonical tables and the six associative
algebras of the from-associative bucket) by every element of GL(2, p), on
raw residues in pure Python, and keeps each orbit's least member and size.
The enumeration of valid dialgebras is the union of the same orbits, sorted,
so no function here imports gfsearch or numpy; only reading the module
attribute gl_matrices does.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product

from .algebras import BilinearProduct, Dialgebra
from .errors import (
    DEFAULT_SEARCH_BOUND,
    FieldMismatchError,
    NotADialgebraError,
    UnsupportedOverRationalsError,
    _require,
    guard_search,
)
from .fields import PRIME, Field
from .identities import _ann, _bar_unit_rows, dialgebra_violations
from .linalg import Mat, Vec, _dense, _echelon, _numerators, _terms, contract, contract_pair

KIND_TRIVIAL = "trivial-both"
KIND_ZERO_CUBED_LEFT = "zero-cubed-left-zero"
KIND_ZERO_CUBED_RIGHT = "zero-cubed-right-zero"
KIND_FROM_ASSOCIATIVE = "from-associative"
KIND_I = "I"
KIND_II = "II"
KIND_III = "III"
KIND_IV = "IV"

SUBLABEL_TRIVIAL = "trivial"
SUBLABEL_SQUARE = "square-type"


# gfsearch's gl_matrices stays readable as classify.gl_matrices, which only
# bench/test_bench.py asserts (bench/layers.py does not read it); it loads
# gfsearch, and so numpy, on that access.
def __getattr__(name):
    if name == "gl_matrices":
        from .gfsearch import gl_matrices

        return gl_matrices
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Fingerprint(
    namedtuple(
        "Fingerprint",
        "dim_left_square dim_right_square dim_rann_left dim_lann_left dim_rann_right"
        " dim_lann_right dim_ann products_equal has_bar_unit",
    )
):
    """Base-change invariants used as a necessary condition for isomorphism."""

    __slots__ = ()


def _ranks(prod):
    """The ranks of one product's table rows and of its multiplication rows
    x -> e_i * x and x -> x * e_i: dim A*A, n - dim rann and n - dim lann."""
    systems = (prod.multiplication_rows(), prod.multiplication_rows(right=True))
    table = [_dense(prod.dim, terms) for row in prod.sparse for terms in row]
    rows = [table, *(list(m.values()) for m in systems)]
    return [len(_echelon(prod.field, r)[1]) for r in rows]


def fingerprint(d):
    """Each invariant is the rank of a raw system, by one `_echelon`: a
    product's table rows and its two multiplication systems, and the
    bar-unit system, whose coefficient rows are the ann system: a pivot in
    its last column rules out a bar-unit, the others give dim ann."""
    n = d.dim
    (ls, lr, ll), (rs, rr, rl) = d._per_product(_ranks)
    pivots = _echelon(d.field, _bar_unit_rows(d))[1]
    has_bar_unit = n not in pivots
    dim_ann = n - len(pivots) + (not has_bar_unit)
    ranks = (n - lr, n - ll, n - rr, n - rl)
    return Fingerprint(ls, rs, *ranks, dim_ann, d.products_equal(), has_bar_unit)


class ClassLabel(namedtuple("ClassLabel", "kind k sublabel witness canonical")):
    """Classification outcome with an explicit change-of-basis witness.

    Rewriting the input on the basis whose rows are `witness` (a Mat)
    reproduces `canonical` exactly. For II the Scalar k is the complete
    invariant of the family; other kinds have k None.
    """

    __slots__ = ()

    def label_string(self):
        parts = self.kind
        if self.kind == KIND_II:
            parts += f"_{self.k}"
        if self.sublabel is not None and self.kind != KIND_TRIVIAL:
            parts += f":{self.sublabel}"
        return parts


# Each canonical table but II_k's as its point (x1, ..., x6) of the ParamTable family.
_CANONICAL_POINTS = {
    KIND_TRIVIAL: (0, 0, 0, 0, 0, 0),
    KIND_ZERO_CUBED_LEFT: (0, 0, 0, 0, 1, 0),
    KIND_ZERO_CUBED_RIGHT: (0, 1, 0, 0, 0, 0),
    KIND_I: (0, 0, 1, 1, 0, 1),
    KIND_III: (1, 0, 1, 0, 0, 1),
    KIND_IV: (1, 0, 1, 1, 0, 1),
}
_CANONICAL = {}  # canonical_dialgebra's tables, by (kind, field, k)


def canonical_dialgebra(kind, field, k=None):
    """The canonical table of a classification bucket, on basis (r, s): built
    and law-checked once per (kind, field, k) and shared by every caller and
    ClassLabel, so a witness reaching it proves its input valid."""
    if kind == KIND_II:
        k = field.scalar(k)
        if not k:
            raise ValueError("the II family needs a nonzero parameter")
        point = _ii_point(k)
    elif kind in _CANONICAL_POINTS:
        k, point = None, _CANONICAL_POINTS[kind]
    else:
        raise ValueError(f"no canonical table for kind {kind!r}")
    d = _CANONICAL.get((kind, field, k))
    if d is None:
        t = param_dialgebra(ParamTable.of(field, point))
        d = Dialgebra(field, 2, t.left, t.right, ("r", "s"))
        _require(next(dialgebra_violations(d), None) is None, f"canonical {kind} table is invalid")
        _CANONICAL[kind, field, k] = d
    return d


def _ii_point(k):
    """II_k's point of the ParamTable family: s <| s = r and s |> s = k r."""
    return (0, 1, 0, 0, k, 0)


class ParamTable(namedtuple("ParamTable", "x1 x2 x3 x4 x5 x6")):
    """The generic tables on a basis (r, s) with annihilator spanned by r:

    r <| s = x1 r,  s <| s = x2 r + x3 s,  s |> r = x4 r,  s |> s = x5 r + x6 s,
    every other structure constant zero.
    """

    __slots__ = ()

    @classmethod
    def of(cls, field, values):
        if len(values) != 6:
            raise ValueError("expected six parameters")
        return cls(*(field.scalar(v) for v in values))


def dim2_constraints(t):
    """The eleven polynomial constraints the parameters must satisfy.

    A ParamTable is a valid dialgebra exactly when all residuals vanish,
    over Q and every GF(p): each law residual of the generic table is 0 or
    plus or minus one of them, and each occurs. t may also hold six raw
    values, whose residuals are then raw and unreduced (see Field.reduce).
    """
    x1, x2, x3, x4, x5, x6 = t
    return [
        x1 * x2,
        x4 * x5,
        x1 * (x1 - x3),
        x4 * (x3 - x4),
        x1 * (x1 - x6),
        x2 * (x1 + x3 - x6),
        x1 * x5 + x2 * x6 - x2 * x4 - x3 * x5,
        x3 * (x3 - x6),
        x4 * (x4 - x6),
        x6 * (x3 - x6),
        x5 * (x3 - x4 - x6),
    ]


def _param_entries(t):
    """The (left, right) {(i, j, k): value} entries of a point x1..x6 on
    (r, s): r <| s, s <| s on r and s; s |> r, s |> s on r and s."""
    left, right = ((0, 1, 0), (1, 1, 0), (1, 1, 1)), ((1, 0, 0), (1, 1, 0), (1, 1, 1))
    return dict(zip(left, t[:3])), dict(zip(right, t[3:]))


def param_dialgebra(t):
    """The dialgebra encoded by a ParamTable, on the standard basis (r, s),
    built as its int view like every table: its rows are built on first
    read."""
    return Dialgebra.from_entries(t.x1.field, 2, *_param_entries(t))


def is_isomorphism(a, b, t):
    """Does the map with row matrix t send a's products to b's products? Iff
    t is invertible (one `_echelon`) and t_i * t_j = sum_k a[i][j][k] t_k in
    b for all i, j and both products, on int numerators cross-multiplied by
    the other side's denominator. a, b and t must share one field."""
    field, n = a.field, a.dim
    if not (field is b.field is t.field):
        raise FieldMismatchError(f"a over {field}, b over {b.field}, t over {t.field}")
    if t.shape != (n, b.dim) or n != b.dim:
        return False
    if len(_echelon(field, [list(r.num) for r in t.rows])[1]) < n:
        return False
    rows, dt = _numerators(t.rows)
    for pa, pb in ((a.left, b.left), (a.right, b.right)):
        sa, sb = pa.den, dt * pb.den
        for i, j in product(range(n), repeat=2):
            image = contract_pair([0] * n, rows[i], rows[j], pb.sparse)
            target = contract([0] * n, pa.sparse[i][j], rows)
            if field.reduce([sa * x for x in image]) != field.reduce([sb * y for y in target]):
                return False
    return True


def classify_dim2(d):
    """Sort a two-dimensional dialgebra into its unique bucket; an invalid
    one raises NotADialgebraError naming its first law violation.

    x1..x6 are read off the eight products of (r, s), r spanning the
    annihilator, and the kind off which of them vanish (the constraints
    force x3 = x6); II_1 has equal products yet is a canonical form. The
    witness is diag(x2 or x5, 1) on (r, s) when both squares land on r, and
    the rows (1, 0), ((x2 + x5)/x6^2, 1/x6) for I, III and IV. An
    InternalCheckError always means a bug: a guard of the route failed.
    """
    if d.dim != 2:
        raise ValueError("classification is only defined in dimension 2")
    label = _label_dim2(d)
    if isinstance(label, ClassLabel):
        return label
    violation = label or next(dialgebra_violations(d), None)
    _require(violation is not None, "a valid dialgebra was refused")
    raise NotADialgebraError(f"input fails {violation.law} at {violation.triple}")


def _label_dim2(d):
    """classify_dim2's label, on raw values up to the label, or what refuses
    d: its first law violation for a zero annihilator, where the laws decide,
    else None for an s component of r <| s or s |> r or a nonzero constraint
    residual."""
    field = d.field
    if d.left.is_zero() and d.right.is_zero():
        return ClassLabel(KIND_TRIVIAL, None, SUBLABEL_TRIVIAL, Mat.identity(field, 2), d)

    ann = _ann(d.left, d.right)
    if ann.dim == 0:
        # The laws decide; a valid table's products differ by values in ann,
        # so ann = 0 forces them equal.
        violation = next(dialgebra_violations(d), None)
        if violation is not None:
            return violation
        _require(d.products_equal(), "a valid dialgebra was refused")
        return ClassLabel(KIND_FROM_ASSOCIATIVE, None, None, Mat.identity(field, 2), d)
    _require(ann.dim == 1, "nonzero products with a full annihilator")

    # r is the echelon row over its pivot h = row[q], so r[q] = 1, and s =
    # e_{1-q}: a product w has (r, s) coordinates w[q] and w[1-q] - w[q] r[1-q],
    # taken here on numerators over the product's denominator times h.
    row, q = ann.rows[0], ann.pivots[0]
    h, c = row[q], row[1 - q]
    basis = ((_terms(row), h), ([(1 - q, 1)], 1))

    def coords(g, xs, dx, ys, dy):
        w = contract_pair([0, 0], xs, ys, g.sparse)
        return field.divide([h * w[q], h * w[1 - q] - c * w[q]], dx * dy * g.den * h)

    left, right = d._per_product(lambda g: [[coords(g, *x, *y) for y in basis] for x in basis])
    _require(not any(left[0][0] + left[1][0]), "left table shape broken")
    _require(not any(right[0][0] + right[0][1]), "right table shape broken")
    x1, x2, x3, x4, x5, x6 = t = (left[0][1][0], *left[1][1], right[1][0][0], *right[1][1])
    # In a valid table r spans an ideal, so r <| s and s |> r lie on r; with
    # them there, the laws on (r, s) are exactly the constraints on x1..x6.
    if left[0][1][1] or right[1][0][1] or any(field.reduce(dim2_constraints(t))):
        return None

    k = sublabel = None
    if x1 or x4:
        # Each nonzero one of x1, x4 equals x3 = x6, and I keeps x2 while III
        # keeps x5: scaling s by 1/x6 and shifting it along r clears them.
        kind = KIND_IV if x1 and x4 else KIND_III if x1 else KIND_I
        shape = x3 == x6 and (not x1 or x1 == x6 and not x2) and (not x4 or x4 == x6 and not x5)
        _require(shape, f"case of {kind} shape broken")
        e = field.reciprocal(x6)
        a, b = 1, (x2 + x5) * e * e
    elif x3:
        _require(x2 == x5 and x3 == x6, "coinciding-products case shape broken")
        _require(d.products_equal(), "from-associative label with distinct products")
        return ClassLabel(KIND_FROM_ASSOCIATIVE, None, None, Mat.identity(field, 2), d)
    else:
        # Both squares land on r: a one-sided zero when x2 or x5 vanishes,
        # else II with the surviving invariant k = x5/x2. Scaling r by the
        # first nonzero square constant normalizes the table.
        if not x2:
            kind, sublabel = KIND_ZERO_CUBED_LEFT, SUBLABEL_SQUARE
        elif not x5:
            kind, sublabel = KIND_ZERO_CUBED_RIGHT, SUBLABEL_SQUARE
        else:
            kind, k = KIND_II, field.scalar(x5 * field.reciprocal(x2))
        _require(not x6 and bool(x2 or x5), f"case of {kind} shape broken")
        a, b, e = x2 or x5, 0, 1
    # The witness rows a r and b r + e s, on numerators over h.
    rows = [[a * v for v in row], [b * v for v in row]]
    rows[1][1 - q] += e * h
    witness = Mat(field, [Vec.from_numerators(field, w, h) for w in rows], 2)
    canonical = canonical_dialgebra(kind, field, k)
    _require(is_isomorphism(canonical, d, witness), "witness does not reach the canonical table")
    return ClassLabel(kind, k, sublabel, witness, canonical)


def _rational_dim2_witness(a, b):
    la, lb = classify_dim2(a), classify_dim2(b)
    if (la.kind, la.k, la.sublabel) != (lb.kind, lb.k, lb.sublabel):
        return None
    if la.kind == KIND_FROM_ASSOCIATIVE:
        raise UnsupportedOverRationalsError(
            "no canonical form distinguishes associative algebras over the rationals"
        )
    witness = la.witness.inverse() @ lb.witness
    _require(is_isomorphism(a, b, witness), "composed canonical witnesses failed to verify")
    return witness


def _gl_isomorphisms(a, b, bound):
    """The maps sending a to b over GF(p), lazily, in GL(dim, p) enumeration
    order; the search bound refuses the scan at the call."""
    from .glsearch import isomorphisms

    p, n = a.field.p, a.dim
    guard_search(f"GL({n}, {p}) scan", p ** (n * n), bound)
    return isomorphisms(a, b)


def are_isomorphic(a, b, bound=DEFAULT_SEARCH_BOUND):
    """A simultaneous isomorphism matrix for both products, or None.

    Over GF(p) the search is exhaustive over GL(dim, p) subject to the
    candidate budget. Over the rationals only dimensions up to 2 are
    decided: dimension 1 by glsearch's closed form, dimension 2 through the
    canonical forms.
    """
    if a.field is not b.field:
        raise FieldMismatchError("dialgebras live over different fields")
    if a.dim != b.dim:
        return None
    if a.dim > 0 and fingerprint(a) != fingerprint(b):
        return None
    if a.dim == 0:
        return Mat(a.field, (), 0)
    if a.field.kind == PRIME:
        return next(_gl_isomorphisms(a, b, bound), None)
    if a.dim == 1:
        from .glsearch import isomorphisms

        return next(isomorphisms(a, b), None)
    if a.dim == 2:
        return _rational_dim2_witness(a, b)
    raise UnsupportedOverRationalsError(
        "isomorphism over the rationals is only decided up to dimension 2"
    )


def automorphism_group(d, bound=DEFAULT_SEARCH_BOUND):
    """All base changes preserving both products, by exhaustive GL scan."""
    if d.field.kind != PRIME:
        raise UnsupportedOverRationalsError("automorphism scan needs a finite field")
    return list(_gl_isomorphisms(d, d, bound))


def enumerate_valid_dialgebras(p, dim=2, bound=DEFAULT_SEARCH_BOUND):
    """Every valid dialgebra over GF(p) in tensor-lexicographic order, left
    product first, as a generator: the union of the census orbits, each table
    built on demand; unsupported parameters are refused at the call, as by
    census."""
    # Flat tensors of residues compare as their base-p codes do.
    tables = sorted(set().union(*_orbits(p, dim, bound)))
    field = Field.prime(p)
    return (_dialgebra(field, form) for form in tables)


class CensusClass(namedtuple("CensusClass", "representative label orbit_size")):
    """One isomorphism class: its least representative, label and orbit size."""

    __slots__ = ()


# A 2x2x2 tensor is a flat tuple of its entries gamma[i][j][k] at 4i + 2j + k,
# the order of its base-p code, first entry most significant.
_CUBE = tuple(product(range(2), repeat=3))


def _product(field, flat):
    """The table of a flat residue tensor, built as its int view."""
    cells = [_terms(flat[c : c + 2]) for c in range(0, 8, 2)]
    return BilinearProduct._from_numerators(field, 2, cells, 1)


def _dialgebra(field, form):
    """The Dialgebra of a flat (left, right) residue pair."""
    left, right = form
    lp = _product(field, left)
    return Dialgebra(field, 2, lp, lp if right == left else _product(field, right))


def _normal_forms(p):
    """The p + 11 normal forms of the valid dim-2 dialgebras over GF(p), as
    flat (left, right) residue tensors: classify_dim2's canonical tables
    (trivial, both one-sided zeros, I, III, IV and II_k for k = 1..p-1) and
    the six associative algebras of the from-associative bucket, each with
    equal products: F + 0, the left-unit and right-unit algebras, the dual
    numbers F[e], F x F and the field GF(p^2) = F[x] / (x^2 - a x - b).

    Their automorphism groups give the number of valid pairs, which _orbits
    checks: |Aut| is p - 1 for I, III, F + 0 and F[e]; p(p - 1) for IV, both
    one-sided zeros, every II_k and the left-unit and right-unit algebras; 2
    for F x F and GF(p^2); and all of GL(2, p), of order (p^2 - 1)(p^2 - p),
    for the trivial table. So the orbit sizes |GL(2, p)| / |Aut| sum to
    N(p) = (p^2 - 1)(4p + (p + 4) + p(p - 1)) + 1 = (p^2 - 1)(p + 2)^2 + 1."""
    points = [*_CANONICAL_POINTS.values(), *map(_ii_point, range(1, p))]
    forms = [tuple(tuple(side.get(e, 0) for e in _CUBE) for side in _param_entries(x))
             for x in points]
    # x^2 = x + 1 is irreducible over GF(2); for odd p, x^2 = b with b the
    # least non-square, found by Euler's criterion.
    a, b = (1, 1) if p == 2 else (0, next(b for b in range(2, p) if pow(b, (p - 1) // 2, p) != 1))
    # Flat, in that order, each with e0 e0 = e0: e0 is a left unit, a right unit
    # and a unit in the next three, F x F has the idempotents e0 and e1, and
    # GF(p^2) is on the basis (1, x).
    associative = [(1, 0, 0, 0, 0, 0, 0, 0), (1, 0, 0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 1, 0, 0),
                   (1, 0, 0, 1, 0, 1, 0, 0), (1, 0, 0, 0, 0, 0, 0, 1), (1, 0, 0, 1, 0, 1, b, a)]
    return forms + [(t, t) for t in associative]


def _gl2(p):
    """Each (g, g^-1) of GL(2, p), as row tuples: the inverse is the
    adjugate over the determinant."""
    for a, b, c, d in product(range(p), repeat=4):
        det = (a * d - b * c) % p
        if det:
            r = pow(det, -1, p)
            yield ((a, b), (c, d)), ((d * r % p, -b * r % p), (-c * r % p, a * r % p))


def _orbit_scan(p, forms):
    """Each form's GL(2, p) orbit as a set of (left, right) flat tensors. A
    base change g (rows the new basis) sends gamma to
    gamma'[i][j][k] = sum g[i][x] g[j][y] gamma[x][y][z] g^-1[z][k]: linear
    in gamma, so per g the image of each unit tensor is formed once as raw
    terms, and each distinct tensor among the forms is contracted against
    them at its nonzero entries."""
    tensors = sorted({t for form in forms for t in form})
    terms = [_terms(t) for t in tensors]
    units = [(e, _CUBE[e]) for e in sorted({e for ts in terms for e, _ in ts})]
    index = {t: n for n, t in enumerate(tensors)}
    pairs = [(index[left], index[right]) for left, right in forms]
    orbits = [set() for _ in forms]
    for g, h in _gl2(p):
        unit = {e: _terms([g[i][x] * g[j][y] * h[z][k] for i, j, k in _CUBE])
                for e, (x, y, z) in units}
        images = [tuple(v % p for v in contract([0] * 8, ts, unit)) for ts in terms]
        for orbit, (left, right) in zip(orbits, pairs):
            orbit.add((images[left], images[right]))
    return orbits


def _orbits(p, dim, bound):
    """The GL(2, p) orbits of the p + 11 normal forms, after the dim, the
    prime and the charge of (p + 11) |GL(2, p)| to the search bound; their
    sizes must sum to N(p), the count of valid pairs (see _normal_forms)."""
    if dim != 2:
        raise ValueError(f"census parameters out of supported range (dim must be 2, got {dim})")
    Field.prime(p)  # refuses a non-prime p
    guard_search(f"census over GF({p}) in dim 2", (p + 11) * (p * p - 1) * (p * p - p), bound)
    orbits = _orbit_scan(p, _normal_forms(p))
    total = (p * p - 1) * (p + 2) ** 2 + 1
    _require(sum(map(len, orbits)) == total, f"the orbit sizes do not sum to N({p}) = {total}")
    return orbits


def census(p, dim=2, bound=DEFAULT_SEARCH_BOUND):
    """Partition all valid dialgebras over GF(p) into isomorphism classes.

    Each of the p + 11 normal forms is moved by every g in GL(2, p), on raw
    residues; the search bound is charged (p + 11) |GL(2, p)| before that.
    A class is represented by the least member of its orbit in
    lexicographic tensor order, left product first, and the classes come in
    that order.
    """
    orbits = _orbits(p, dim, bound)
    field = Field.prime(p)
    # Flat tensors of residues compare as their base-p codes do.
    least = {min(orbit): len(orbit) for orbit in orbits}
    _require(len(least) == len(orbits), "two normal forms share an orbit")
    classes = []
    for (left, right), size in sorted(least.items()):
        rep = _dialgebra(field, (left, right))
        classes.append(CensusClass(rep, classify_dim2(rep), size))
    return classes
