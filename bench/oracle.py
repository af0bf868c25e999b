"""Independent exact arithmetic used to check dialg's outputs.

Everything here works on raw values: `fractions.Fraction` over the
rationals and plain ints in [0, p) over GF(p). Tables are nested lists
g[i][j][k] (the coefficient of e_k in e_i * e_j), vectors are lists and
matrices are lists of rows acting on row vectors (v @ M). Nothing in this
module imports dialg, so a defect in dialg's Scalar/Vec/Mat layer cannot
hide itself by being used to check its own results.
"""

from __future__ import annotations

from fractions import Fraction

RATIONAL = None  # the modulus value that stands for the rationals

LAWS = ("assoc-left", "assoc-right", "ax1", "ax2", "ax3")


class RawField:
    """Q (p is None) or GF(p) over raw Python numbers."""

    def __init__(self, p=RATIONAL):
        self.p = p
        # Rationals need no reduction: ints and Fractions mix exactly.
        self.norm = (lambda x: x) if p is None else (lambda x: x % p)

    def inv(self, x):
        if not x:
            raise ZeroDivisionError("zero has no inverse")
        return 1 / Fraction(x) if self.p is None else pow(x, self.p - 2, self.p)

    def coeff(self, token):
        """A coefficient token of the dialg v1 format."""
        return Fraction(token) if self.p is None else int(token) % self.p

    def __str__(self):
        return "rational" if self.p is None else f"prime {self.p}"

    def __eq__(self, other):
        return isinstance(other, RawField) and self.p == other.p

    def __hash__(self):
        return hash(self.p)


# --- vectors, matrices and tables ------------------------------------------


def zero_table(n):
    return [[[0] * n for _ in range(n)] for _ in range(n)]


def mult(F, g, x, y):
    """Bilinear product of coordinate vectors x, y under table g."""
    n = len(g)
    out = [0] * n
    for i, xi in enumerate(x):
        if not xi:
            continue
        gi = g[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            c = xi * yj
            for k, gk in enumerate(gi[j]):
                if gk:
                    out[k] += c * gk
    return [F.norm(v) for v in out]


def vec_mat(F, v, m):
    out = [0] * len(m[0])
    for i, c in enumerate(v):
        if c:
            for k, e in enumerate(m[i]):
                if e:
                    out[k] += c * e
    return [F.norm(x) for x in out]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def rref(F, rows, ncols):
    """Reduced row echelon form: (nonzero rows, pivot columns)."""
    rows = [[F.norm(x) for x in r] for r in rows]
    pivots = []
    r0 = 0
    for col in range(ncols):
        hit = next((r for r in range(r0, len(rows)) if rows[r][col]), None)
        if hit is None:
            continue
        rows[r0], rows[hit] = rows[hit], rows[r0]
        inv = F.inv(rows[r0][col])
        rows[r0] = [F.norm(inv * e) for e in rows[r0]]
        for r in range(len(rows)):
            if r != r0 and rows[r][col]:
                c = rows[r][col]
                rows[r] = [F.norm(a - c * b) for a, b in zip(rows[r], rows[r0])]
        pivots.append(col)
        r0 += 1
        if r0 == len(rows):
            break
    return rows[:r0], pivots


def rank(F, rows, ncols):
    return len(rref(F, rows, ncols)[1])


def inverse(F, m):
    """Inverse of a square matrix, or None when it is singular."""
    n = len(m)
    aug = [list(r) + e for r, e in zip(m, identity(n))]
    red, pivots = rref(F, aug, 2 * n)
    if pivots != list(range(n)):
        return None
    return [r[n:] for r in red]


def nullspace(F, rows, ncols):
    """Canonical (RREF) basis of {x : rows @ x = 0} (column convention)."""
    red, pivots = rref(F, rows, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = F.norm(1)
        for r, p in enumerate(pivots):
            v[p] = F.norm(-red[r][f])
        basis.append(v)
    return rref(F, basis, ncols)


def reduce(F, basis, pivots, v):
    v = list(v)
    for row, p in zip(basis, pivots):
        c = v[p]
        if c:
            v = [F.norm(a - c * b) for a, b in zip(v, row)]
    return v


def contains(F, basis, pivots, v):
    return not any(reduce(F, basis, pivots, v))


# --- the laws --------------------------------------------------------------


def _compose(F, outer, inner, first):
    """Basis-triple values of (e_i inner e_j) outer e_k (first=True) or
    e_i outer (e_j inner e_k) (first=False), as {(i, j, k): vector}."""
    n = len(outer)
    out = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = [0] * n
                if first:
                    for m, c in enumerate(inner[i][j]):
                        if c:
                            for t, g in enumerate(outer[m][k]):
                                if g:
                                    acc[t] += c * g
                else:
                    for m, c in enumerate(inner[j][k]):
                        if c:
                            for t, g in enumerate(outer[i][m]):
                                if g:
                                    acc[t] += c * g
                out[(i, j, k)] = acc
    return out


def law_violations(F, left, right):
    """{(law, (i, j, k)): residual} over every basis triple and the five laws.

    assoc-left:  (x <| y) <| z - x <| (y <| z)
    assoc-right: (x |> y) |> z - x |> (y |> z)
    ax1:         (x <| y) <| z - x <| (y |> z)
    ax2:         (x |> y) <| z - x |> (y <| z)
    ax3:         (x <| y) |> z - x |> (y |> z)
    """
    ll_first = _compose(F, left, left, True)
    laws = {
        "assoc-left": (ll_first, _compose(F, left, left, False)),
        "assoc-right": (_compose(F, right, right, True), _compose(F, right, right, False)),
        "ax1": (ll_first, _compose(F, left, right, False)),
        "ax2": (_compose(F, left, right, True), _compose(F, right, left, False)),
        "ax3": (_compose(F, right, left, True), _compose(F, right, right, False)),
    }
    out = {}
    for law in LAWS:
        lhs, rhs = laws[law]
        for triple in sorted(lhs):
            res = [F.norm(a - b) for a, b in zip(lhs[triple], rhs[triple])]
            if any(res):
                out[(law, triple)] = tuple(res)
    return out


# --- constructions ---------------------------------------------------------


def rebase(F, g, t, t_inv):
    """Structure constants on the basis whose rows (old coordinates) are t."""
    n = len(g)
    # a[i][b][c] = sum_a t[i][a] g[a][b][c]
    a = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for s, tis in enumerate(t[i]):
            if tis:
                for b in range(n):
                    for c, e in enumerate(g[s][b]):
                        if e:
                            a[i][b][c] += tis * e
    out = zero_table(n)
    for i in range(n):
        for j in range(n):
            acc = [0] * n
            for b, tjb in enumerate(t[j]):
                if tjb:
                    for c, e in enumerate(a[i][b]):
                        if e:
                            acc[c] += tjb * e
            out[i][j] = vec_mat(F, acc, t_inv)
    return out


def opposite(left, right):
    n = len(left)
    return (
        [[list(right[j][i]) for j in range(n)] for i in range(n)],
        [[list(left[j][i]) for j in range(n)] for i in range(n)],
    )


def leibniz(F, left, right):
    """[e_i, e_j] = e_i <| e_j - e_j |> e_i."""
    n = len(left)
    return [
        [[F.norm(a - b) for a, b in zip(left[i][j], right[j][i])] for j in range(n)]
        for i in range(n)
    ]


def is_isomorphism(F, a, b, t):
    """Does the row matrix t map dialgebra a = (L, R) onto b = (L, R)?"""
    n = len(t)
    if inverse(F, t) is None:
        return False
    for ga, gb in zip(a, b):
        for i in range(n):
            for j in range(n):
                if vec_mat(F, ga[i][j], t) != mult(F, gb, t[i], t[j]):
                    return False
    return True


def automorphism_count(F, tables):
    """Brute-force |Aut| of a small dialgebra over GF(p) (p^(n*n) candidates)."""
    n = len(tables[0])
    count = 0
    for code in range(F.p ** (n * n)):
        entries = []
        for _ in range(n * n):
            code, r = divmod(code, F.p)
            entries.append(r)
        t = [entries[i * n:(i + 1) * n] for i in range(n)]
        if is_isomorphism(F, tables, tables, t):
            count += 1
    return count


def _right_mult_rows(g):
    # x with e_i * x = 0 for all i: rows (i, k), columns j.
    n = len(g)
    return [[g[i][j][k] for j in range(n)] for i in range(n) for k in range(n)]


def _left_mult_rows(g):
    # x with x * e_j = 0 for all j: rows (j, k), columns i.
    n = len(g)
    return [[g[i][j][k] for i in range(n)] for j in range(n) for k in range(n)]


def annihilator(F, left, right):
    """Canonical basis and pivots of ann = rann(<|) cap lann(|>)."""
    n = len(left)
    return nullspace(F, _right_mult_rows(left) + _left_mult_rows(right), n)


def is_ideal(F, left, right, basis, pivots):
    n = len(left)
    for b in basis:
        for i in range(n):
            e = [1 if t == i else 0 for t in range(n)]
            for g in (left, right):
                for v in (mult(F, g, b, e), mult(F, g, e, b)):
                    if not contains(F, basis, pivots, v):
                        return False
    return True


def quotient(F, left, right, basis, pivots):
    """Quotient tables by an ideal given in canonical form, plus projection."""
    n = len(left)
    keep = [c for c in range(n) if c not in pivots]

    def project(v):
        r = reduce(F, basis, pivots, v)
        return [r[c] for c in keep]

    tables = tuple(
        [[project(g[a][b]) for b in keep] for a in keep] for g in (left, right)
    )
    proj = [project([1 if t == i else 0 for t in range(n)]) for i in range(n)]
    return tables, proj


def fingerprint(F, left, right):
    """The nine fields of dialg's Fingerprint, in declaration order."""
    n = len(left)

    def square_dim(g):
        return rank(F, [g[i][j] for i in range(n) for j in range(n)], n)

    def nullity(rows):
        return n - rank(F, rows, n)

    # Bar-units e: x <| e = x and e |> x = x on every basis x.
    rows, rhs = [], []
    for i in range(n):
        for k in range(n):
            rows.append([left[i][j][k] for j in range(n)])
            rhs.append(1 if i == k else 0)
    for i in range(n):
        for k in range(n):
            rows.append([right[j][i][k] for j in range(n)])
            rhs.append(1 if i == k else 0)
    has_bar_unit = rank(F, rows, n) == rank(F, [r + [c] for r, c in zip(rows, rhs)], n + 1)
    return (
        square_dim(left),
        square_dim(right),
        nullity(_right_mult_rows(left)),
        nullity(_left_mult_rows(left)),
        nullity(_right_mult_rows(right)),
        nullity(_left_mult_rows(right)),
        nullity(_right_mult_rows(left) + _left_mult_rows(right)),
        left == right,
        has_bar_unit,
    )


# --- the dialg v1 text format ----------------------------------------------


def serialize(F, tables, tags=("left", "right"), names=None):
    n = len(tables[0])
    lines = ["dialg 1", f"field {F}", f"dim {n}"]
    if names:
        lines.append("basis " + " ".join(names))
    for tag, g in zip(tags, tables):
        for i in range(n):
            for j in range(n):
                for k, c in enumerate(g[i][j]):
                    if c:
                        lines.append(f"{tag} {i + 1} {j + 1} {k + 1} {c}")
    return "\n".join(lines) + "\n"


def parse(text):
    """(field, {tag: table}) of a dialg v1 file; raises ValueError if malformed."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if len(lines) < 3 or lines[0] != ["dialg", "1"]:
        raise ValueError("missing header")
    if lines[1] == ["field", "rational"]:
        F = RawField()
    elif lines[1][:2] == ["field", "prime"] and len(lines[1]) == 3:
        F = RawField(int(lines[1][2]))
    else:
        raise ValueError("bad field line")
    if lines[2][0] != "dim" or len(lines[2]) != 2:
        raise ValueError("bad dim line")
    n = int(lines[2][1])
    tables = {"left": zero_table(n), "right": zero_table(n)}
    seen = set()
    for toks in lines[3:]:
        if toks[0] == "basis":
            continue
        tag, i, j, k, c = toks
        key = (tag, i, j, k)
        if key in seen or tag not in tables:
            raise ValueError(f"bad entry {toks}")
        seen.add(key)
        tables[tag][int(i) - 1][int(j) - 1][int(k) - 1] = F.coeff(c)
    return F, tables
