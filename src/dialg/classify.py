"""Isomorphism invariants, two-dimensional classification, and censuses.

Every valid two-dimensional dialgebra lands in exactly one bucket:

  * trivial-both: both products vanish,
  * zero-cubed-left-zero / zero-cubed-right-zero: exactly one product is
    zero and the surviving product has vanishing triple products,
  * from-associative: both products agree (and no canonical form below
    applies), the dialgebra is an associative algebra in disguise,
  * the canonical forms I, II_k (k != 0), III, IV.

Classification takes one route for every nonzero input with a nonzero
annihilator: it rebases once to a basis (r, s) where r spans the
annihilator. There the six free structure constants x1..x6 satisfy a
fixed system of eleven polynomial constraints, the kind is read off which
of them vanish, and one of two explicit rescalings of (r, s) reaches the
canonical table. The one-sided zero kinds are the members of this family
with x1 = x3 = x4 = x6 = 0 and x2 = 0 or x5 = 0.

Isomorphism tests and automorphism groups import glsearch on first use: a
pure-Python search over GL(n, p) row by row, whose dimension-1 closed form
also gives the rational dim-1 witness; rational dimension 2 goes through
the canonical forms. Only the census and the enumeration of valid
dialgebras import gfsearch, and with it numpy, so neither the exact paths
nor an isomorphism search load numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebras import Dialgebra
from .errors import (
    FieldMismatchError,
    InternalCheckError,
    NotADialgebraError,
    NotInvertibleError,
    UnsupportedOverRationalsError,
)
from .fields import PRIME, Field, Scalar
from .identities import bar_units, dialgebra_violations
from .linalg import Mat, Subspace, Vec
from .structure import DEFAULT_SEARCH_BOUND, annihilators, guard_search

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


# census, enumerate_valid_dialgebras and _valid_pairs import from gfsearch
# inside the function. gfsearch's gl_matrices alone stays readable here, as
# classify.gl_matrices resolved on first access, since the benchmark's
# tracer test reads it.
def __getattr__(name):
    if name == "gl_matrices":
        from .gfsearch import gl_matrices

        return gl_matrices
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class Fingerprint:
    """Base-change invariants used as a necessary condition for isomorphism."""

    dim_left_square: int
    dim_right_square: int
    dim_rann_left: int
    dim_lann_left: int
    dim_rann_right: int
    dim_lann_right: int
    dim_ann: int
    products_equal: bool
    has_bar_unit: bool


def fingerprint(d):
    full = Subspace.full(d.field, d.dim)
    prof = annihilators(d)
    left_square = d.left.subspace_product(full, full).dim
    return Fingerprint(
        dim_left_square=left_square,
        dim_right_square=(
            left_square if d.right is d.left else d.right.subspace_product(full, full).dim
        ),
        dim_rann_left=prof.rann_left.dim,
        dim_lann_left=prof.lann_left.dim,
        dim_rann_right=prof.rann_right.dim,
        dim_lann_right=prof.lann_right.dim,
        dim_ann=prof.ann.dim,
        products_equal=d.products_equal(),
        has_bar_unit=not bar_units(d).is_empty,
    )


@dataclass(frozen=True)
class ClassLabel:
    """Classification outcome with an explicit change-of-basis witness.

    Rewriting the input on the basis whose rows are `witness` reproduces
    `canonical` exactly. For II the scalar k is the complete invariant of
    the family.
    """

    kind: str
    k: Scalar | None
    sublabel: str | None
    witness: Mat
    canonical: Dialgebra

    def label_string(self):
        parts = self.kind
        if self.kind == KIND_II:
            parts += f"_{self.k}"
        if self.sublabel is not None and self.kind != KIND_TRIVIAL:
            parts += f":{self.sublabel}"
        return parts


def canonical_dialgebra(kind, field, k=None):
    """The canonical table of a classification bucket, on basis (r, s)."""
    names = ("r", "s")
    if kind == KIND_TRIVIAL:
        return Dialgebra.from_entries(field, 2, {}, {}, names)
    if kind == KIND_ZERO_CUBED_LEFT:
        return Dialgebra.from_entries(field, 2, {}, {(1, 1, 0): 1}, names)
    if kind == KIND_ZERO_CUBED_RIGHT:
        return Dialgebra.from_entries(field, 2, {(1, 1, 0): 1}, {}, names)
    if kind == KIND_I:
        return Dialgebra.from_entries(
            field, 2, {(1, 1, 1): 1}, {(1, 0, 0): 1, (1, 1, 1): 1}, names
        )
    if kind == KIND_II:
        k = field.scalar(k)
        if not k:
            raise ValueError("the II family needs a nonzero parameter")
        return Dialgebra.from_entries(field, 2, {(1, 1, 0): 1}, {(1, 1, 0): k}, names)
    if kind == KIND_III:
        return Dialgebra.from_entries(
            field, 2, {(0, 1, 0): 1, (1, 1, 1): 1}, {(1, 1, 1): 1}, names
        )
    if kind == KIND_IV:
        return Dialgebra.from_entries(
            field, 2, {(0, 1, 0): 1, (1, 1, 1): 1}, {(1, 0, 0): 1, (1, 1, 1): 1}, names
        )
    raise ValueError(f"no canonical table for kind {kind!r}")


@dataclass(frozen=True)
class ParamTable:
    """The generic tables on a basis (r, s) with annihilator spanned by r:

    r <| s = x1 r,  s <| s = x2 r + x3 s,  s |> r = x4 r,  s |> s = x5 r + x6 s,
    every other structure constant zero.
    """

    x1: Scalar
    x2: Scalar
    x3: Scalar
    x4: Scalar
    x5: Scalar
    x6: Scalar

    @classmethod
    def of(cls, field, values):
        if len(values) != 6:
            raise ValueError("expected six parameters")
        return cls(*(field.scalar(v) for v in values))


def dim2_constraints(t):
    """The eleven polynomial constraints the parameters must satisfy.

    A ParamTable is a valid dialgebra exactly when all residuals vanish;
    the acceptance suite checks this equivalence exhaustively against
    direct law evaluation over small prime fields.
    """
    x1, x2, x3, x4, x5, x6 = t.x1, t.x2, t.x3, t.x4, t.x5, t.x6
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


def param_dialgebra(t):
    """The dialgebra encoded by a ParamTable, on the standard basis (r, s)."""
    field = t.x1.field
    return Dialgebra.from_entries(
        field,
        2,
        {(0, 1, 0): t.x1, (1, 1, 0): t.x2, (1, 1, 1): t.x3},
        {(1, 0, 0): t.x4, (1, 1, 0): t.x5, (1, 1, 1): t.x6},
    )


def is_isomorphism(a, b, t):
    """Does the map with row matrix t send a's products to b's products?"""
    if t.nrows != a.dim or t.ncols != b.dim or a.dim != b.dim:
        return False
    # e_i -> t_i is a homomorphism iff t_i * t_j = sum_k a[i][j][k] t_k in b,
    # i.e. iff b written on the basis of t's rows is a.
    try:
        return b.rebase(t) == a
    except NotInvertibleError:
        return False


def _require(condition, message):
    if not condition:
        raise InternalCheckError(message)


def _extract_params(d):
    """Read x1..x6 off a dialgebra already written on an (r, s) basis."""
    left, right = d.left, d.right
    zero = d.field.zero
    _require(not left.row(0, 0) and not left.row(1, 0), "left table shape broken")
    _require(left.entry(0, 1, 1) == zero, "r <| s has an s component")
    _require(not right.row(0, 0) and not right.row(0, 1), "right table shape broken")
    _require(right.entry(1, 0, 1) == zero, "s |> r has an s component")
    return ParamTable(
        left.entry(0, 1, 0),
        left.entry(1, 1, 0),
        left.entry(1, 1, 1),
        right.entry(1, 0, 0),
        right.entry(1, 1, 0),
        right.entry(1, 1, 1),
    )


def classify_dim2(d):
    """Sort a valid two-dimensional dialgebra into its unique bucket.

    Apart from the trivial-both exit and the from-associative exit for a
    zero annihilator, every input is rebased once to (r, s) with r spanning
    the annihilator, and the kind is read off which of x1..x6 vanish (the
    constraints force x3 = x6). The parameters, not a products-equal
    shortcut, decide, because the II family at k = 1 has equal products yet
    is a genuine canonical form. The witness is one of two rescalings of
    (r, s): diag(c, 1) with c = x2 or x5 when both squares land on r, and
    the rows (1, 0), ((x2 + x5)/x6^2, 1/x6) for I, III and IV.
    """
    if d.dim != 2:
        raise ValueError("classification is only defined in dimension 2")
    violation = next(dialgebra_violations(d), None)
    if violation is not None:
        raise NotADialgebraError(f"input fails {violation.law} at {violation.triple}")
    identity = Mat.identity(d.field, 2)
    if d.left.is_zero() and d.right.is_zero():
        return ClassLabel(KIND_TRIVIAL, None, SUBLABEL_TRIVIAL, identity, d)

    ann = annihilators(d).ann
    if ann.dim == 0:
        # The difference of the products always lies in the annihilator,
        # so a trivial annihilator forces the products to agree.
        _require(d.products_equal(), "zero annihilator but distinct products")
        return ClassLabel(KIND_FROM_ASSOCIATIVE, None, None, identity, d)
    _require(ann.dim == 1, "nonzero products with a full annihilator")

    r = ann.basis.row(0)
    s = Vec.unit(d.field, 2, 1 - ann.pivots[0])
    base = Mat(d.field, (r, s), 2)
    t = _extract_params(d.rebase(base))
    _require(not any(dim2_constraints(t)), "valid dialgebra violates the parameter constraints")
    x1, x2, x3, x4, x5, x6 = t.x1, t.x2, t.x3, t.x4, t.x5, t.x6
    one, zero = d.field.one, d.field.zero

    k = None
    sublabel = None
    if x1 or x4:
        # Each nonzero one of x1, x4 equals x3 = x6, and I keeps x2 while III
        # keeps x5: scaling s by 1/x6 and shifting it along r clears them.
        kind = KIND_IV if x1 and x4 else KIND_III if x1 else KIND_I
        _require(
            x3 == x6
            and (not x1 or (x1 == x6 and not x2))
            and (not x4 or (x4 == x6 and not x5)),
            f"case of {kind} shape broken",
        )
        step = Mat.from_rows(d.field, [[one, zero], [(x2 + x5) / (x6 * x6), x6.inverse()]])
    elif x3:
        _require(x2 == x5 and x3 == x6, "coinciding-products case shape broken")
        _require(d.products_equal(), "from-associative label with distinct products")
        return ClassLabel(KIND_FROM_ASSOCIATIVE, None, None, identity, d)
    else:
        # Both squares land on r: a one-sided zero when x2 or x5 vanishes,
        # else II with the surviving invariant k = x5/x2. Scaling r by the
        # first nonzero square constant normalizes the table.
        if not x2:
            kind, sublabel = KIND_ZERO_CUBED_LEFT, SUBLABEL_SQUARE
        elif not x5:
            kind, sublabel = KIND_ZERO_CUBED_RIGHT, SUBLABEL_SQUARE
        else:
            kind, k = KIND_II, x5 / x2
        _require(not x6 and bool(x2 or x5), f"case of {kind} shape broken")
        step = Mat.from_rows(d.field, [[x2 or x5, zero], [zero, one]])
    witness = step @ base
    canonical = canonical_dialgebra(kind, d.field, k)
    _require(d.rebase(witness) == canonical, "witness does not reach the canonical table")
    return ClassLabel(kind, k, sublabel, witness, canonical)


def _rational_dim2_witness(a, b):
    la = classify_dim2(a)
    lb = classify_dim2(b)
    if la.kind != lb.kind or la.sublabel != lb.sublabel:
        return None
    if la.kind == KIND_II and la.k != lb.k:
        return None
    if la.kind == KIND_FROM_ASSOCIATIVE:
        raise UnsupportedOverRationalsError(
            "no canonical form distinguishes associative algebras over the rationals"
        )
    witness = la.witness.inverse() @ lb.witness
    if not is_isomorphism(a, b, witness):
        raise InternalCheckError("composed canonical witnesses failed to verify")
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
    """Every valid dialgebra over GF(p) in tensor-lexicographic order, as a
    generator; unsupported parameters are refused at the call."""
    from .gfsearch import arrays_to_dialgebra

    field, tables, _ = _valid_pairs(p, dim, bound)
    return (arrays_to_dialgebra(field, left, right) for left, right in tables)


def _valid_pairs(p, dim, bound):
    """GF(p) and valid_pairs(p, dim, bound), for dim 2 only (classify_dim2
    labels the classes); Field.prime and the search bound refuse p."""
    from .gfsearch import valid_pairs

    if dim != 2:
        raise ValueError(f"census parameters out of supported range (dim must be 2, got {dim})")
    return (Field.prime(p), *valid_pairs(p, dim, bound))


@dataclass(frozen=True)
class CensusClass:
    """One isomorphism class: its least representative, label and orbit size."""

    representative: Dialgebra
    label: ClassLabel
    orbit_size: int


def census(p, dim=2, bound=DEFAULT_SEARCH_BOUND):
    """Partition all valid dialgebras over GF(p) into isomorphism classes.

    Candidates are scanned in lexicographic tensor order and grouped by
    GL-orbit, so each class is represented by its least member and the
    output order is canonical.
    """
    from .gfsearch import arrays_to_dialgebra, pair_orbit

    field, tables, pairs = _valid_pairs(p, dim, bound)
    seen = set()
    classes = []
    for (left, right), codes in zip(tables, pairs):
        if codes in seen:
            continue
        orbit = pair_orbit(left, right, p)
        seen |= orbit
        rep = arrays_to_dialgebra(field, left, right)
        classes.append(CensusClass(rep, classify_dim2(rep), len(orbit)))
    return classes
