"""Seeded inputs for the workloads, built from raw tables (see oracle.py).

Every generator takes a `random.Random` and returns plain data: tables of
ints/Fractions plus the properties the workload records (field, sparse or
dense, valid or not, expected answers). dialg only ever sees the tables.
"""

from __future__ import annotations

import json
from fractions import Fraction

import oracle as O

Q = O.RawField()
PRIME_NEAR_10K = (9949, 9967, 9973, 10007)  # at most 10007, the largest modulus the workloads use

# Canonical dimension-2 tables on the basis (r, s), 0-based (i, j, k) keys.
CANONICAL = {
    "trivial-both": ({}, {}),
    "zero-cubed-left-zero:square-type": ({}, {(1, 1, 0): 1}),
    "zero-cubed-right-zero:square-type": ({(1, 1, 0): 1}, {}),
    "I": ({(1, 1, 1): 1}, {(1, 0, 0): 1, (1, 1, 1): 1}),
    "III": ({(0, 1, 0): 1, (1, 1, 1): 1}, {(1, 1, 1): 1}),
    "IV": ({(0, 1, 0): 1, (1, 1, 1): 1}, {(1, 0, 0): 1, (1, 1, 1): 1}),
}

# Associative dimension-2 algebras whose dialgebra classifies as
# from-associative (equal products, not one of the forms above).
FROM_ASSOCIATIVE_2 = {
    "split": {(0, 0, 0): 1, (1, 1, 1): 1},
    "dual": {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1},
    "idempotent-line": {(1, 1, 1): 1},
}


LABELS = sorted(CANONICAL) + ["II"]


class Deck:
    """Deals labels in a seeded order, every label once per pass, so that the
    mix of labels, and with it the cost of the ops, is the same for every seed."""

    def __init__(self, rng, labels=LABELS):
        self.rng = rng
        self.labels = list(labels)
        self.pile = []

    def draw(self):
        if not self.pile:
            self.pile = list(self.labels)
            self.rng.shuffle(self.pile)
        return self.pile.pop()


def canonical_instance(F, rng, label):
    """(label string, (left, right)) for a drawn label; II gets a random k."""
    if label == "II":
        k = rng.randrange(1, F.p) if F.p else rng.choice((1, 2, -1, Fraction(1, 2)))
        return f"II_{F.norm(k)}", canonical("II_", F, k)
    if label == "from-associative":
        g = table(2, FROM_ASSOCIATIVE_2[rng.choice(sorted(FROM_ASSOCIATIVE_2))])
        return label, (g, g)
    return label, canonical(label, F)


def table(n, entries):
    g = O.zero_table(n)
    for (i, j, k), c in entries.items():
        g[i][j][k] = c
    return g


def canonical(label, F, k=None):
    """(left, right) of a canonical label; II needs its parameter k."""
    if label.startswith("II_"):
        return table(2, {(1, 1, 0): 1}), table(2, {(1, 1, 0): F.norm(k)})
    if label == "from-associative":
        raise ValueError("from-associative has no single canonical table")
    left, right = CANONICAL[label]
    return table(2, left), table(2, right)


def matrix_algebra(k):
    """M_k on the basis E_ab (index a*k + b): E_ab E_bc = E_ac."""
    return table(k * k, {
        (a * k + b, b * k + c, a * k + c): 1
        for a in range(k) for b in range(k) for c in range(k)
    })


def upper_triangular(k):
    """T_k on the basis E_ab, a <= b, in row-major order."""
    idx = [(a, b) for a in range(k) for b in range(a, k)]
    pos = {p: t for t, p in enumerate(idx)}
    return table(len(idx), {
        (pos[(a, b)], pos[(b, c)], pos[(a, c)]): 1
        for (a, b) in idx for (b2, c) in idx if b == b2
    })


def direct_sum(g, h):
    n, m = len(g), len(h)
    out = O.zero_table(n + m)
    for i in range(n):
        for j in range(n):
            out[i][j][:n] = list(g[i][j])
    for i in range(m):
        for j in range(m):
            out[n + i][n + j][n:] = list(h[i][j])
    return out


def zero_cubed(F, rng, z, x):
    """Z + X with (z + x)(z' + x') = f(x, x') for a random pairing f: X x X -> Z."""
    g = O.zero_table(z + x)
    for a in range(x):
        for b in range(x):
            g[z + a][z + b][:z] = [F.norm(rng.choice((0, 0, 1, -1))) for _ in range(z)]
    return g


def upper_corner_derivation(F, k, scale):
    """ad(c E_1k) on T_k as a matrix acting on row coordinates; it squares to zero."""
    g = upper_triangular(k)
    n = len(g)
    idx = [(a, b) for a in range(k) for b in range(a, k)]
    corner = idx.index((0, k - 1))
    e = [0] * n
    e[corner] = F.norm(scale)
    rows = []
    for i in range(n):
        x = [1 if t == i else 0 for t in range(n)]
        ex = O.mult(F, g, e, x)
        xe = O.mult(F, g, x, e)
        rows.append([F.norm(a - b) for a, b in zip(ex, xe)])
    return g, rows


def from_differential(F, g, d):
    """x <| y = x d(y), x |> y = d(x) y, with d acting on row coordinates."""
    n = len(g)
    units = [[1 if t == i else 0 for t in range(n)] for i in range(n)]
    left = [[O.mult(F, g, units[i], d[j]) for j in range(n)] for i in range(n)]
    right = [[O.mult(F, g, d[i], units[j]) for j in range(n)] for i in range(n)]
    return left, right


def normalized(F, g):
    return [[[F.norm(c) for c in v] for v in row] for row in g]


def random_invertible(F, rng, n, entries=(-1, 0, 1)):
    """A random invertible matrix and its inverse; entries drawn from `entries`
    (or uniformly from GF(p) when entries is None)."""
    while True:
        if entries is None:
            t = [[rng.randrange(F.p) for _ in range(n)] for _ in range(n)]
        else:
            t = [[F.norm(rng.choice(entries)) for _ in range(n)] for _ in range(n)]
        t_inv = O.inverse(F, t)
        if t_inv is not None:
            return t, t_inv


def rebased(F, tables, t, t_inv):
    return tuple(O.rebase(F, g, t, t_inv) for g in tables)


def perturbed(F, rng, tables):
    """Copy of (left, right) with one constant moved by a nonzero amount."""
    out = [[[list(v) for v in row] for row in g] for g in tables]
    n = len(out[0])
    side = rng.randrange(2)
    i, j, k = (rng.randrange(n) for _ in range(3))
    step = rng.choice((1, -1, 2)) if F.p is None else rng.randrange(1, F.p)
    out[side][i][j][k] = F.norm(out[side][i][j][k] + step)
    return tuple(out)


def gl_order(p, n):
    order = 1
    for i in range(n):
        order *= p**n - p**i
    return order


VALID_PAIRS = {2: 49, 3: 201, 5: 1177}


def label_ok(F, tables, label, known, witness):
    """The label is the known one and the witness rebases onto its canonical table."""
    if label != known:
        return False
    if label == "from-associative":
        return witness == O.identity(2) and tables[0] == tables[1]
    t_inv = O.inverse(F, witness)
    if t_inv is None:
        return False
    k = label[3:] if label.startswith("II_") else None
    want = canonical(label, F, F.coeff(k) if k else None)
    return rebased(F, tables, witness, t_inv) == want


def census_ok(p, stdout, aut_orders):
    """The census JSON lines hold p + 11 valid classes with the predicted labels,
    orbit sizes that sum to every valid pair, and orbit * |Aut| = |GL(2, p)|."""
    rows = [json.loads(line) for line in stdout.splitlines()]
    total = 0
    F = O.RawField(p)
    for r in rows:
        tables = (r["left"], r["right"])
        if O.law_violations(F, *tables):
            return False
        key = json.dumps([p, tables])
        if key not in aut_orders:
            aut_orders[key] = O.automorphism_count(F, tables)
        if r["orbit_size"] * aut_orders[key] != gl_order(p, 2):
            return False
        total += r["orbit_size"]
    labels = sorted(r["label"] for r in rows)
    want = sorted(
        list(CANONICAL) + [f"II_{k}" for k in range(1, p)] + ["from-associative"] * 6
    )
    return len(rows) == p + 11 and total == VALID_PAIRS[p] and labels == want
