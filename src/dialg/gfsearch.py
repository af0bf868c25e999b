"""Vectorized modular-arithmetic plumbing for finite-field searches.

Structure tensors over GF(p) are plain integer residue arrays here, which
keeps exhaustive censuses and GL(n, p) scans fast. Everything user-facing
stays in the exact Scalar world; tests cross-check the two routes against
each other.

GL(n, p) is built row by row: row k takes, in increasing base-p code, every
vector outside the span of rows 0..k-1. The prefixes are kept in
lexicographic order and each is extended by its admissible rows in
lexicographic order, so the finished list is exactly the invertible
matrices in lexicographic order of their flattened entries, the order in
which every first-hit search picks its witness. One batched Gauss-Jordan
pass mod p then inverts them all.

The census grows the valid (left, right) pairs the same way, one coordinate
of the flattened pair at a time, left product first: survivors are extended
by 0..p-1 in order, and each basis equation of identities._LAWS, the exact
checker's law table, is checked once its last coordinate is set. So the
pairs come out sorted, and the search bound caps each step's candidates.

isomorphism_indices scans GL(n, p) the same way: each homomorphism
equation (i, j, k) of the left product, then of the right product, cuts
the surviving GL indices to those that satisfy it, and the scan stops as
soon as none is left. No library path calls it: are_isomorphic and
automorphism_group run glsearch's pure-Python row-by-row search, which
yields the same maps in the same order without numpy, and the tests keep
this vectorised scan as the reference that search is checked against.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from .algebras import BilinearProduct, Dialgebra
from .errors import FieldMismatchError
from .fields import PRIME
from .identities import _LAWS, _RIGHT, DIALGEBRA_LAWS, LAW_ASSOC_LEFT
from .linalg import Vec
from .structure import DEFAULT_SEARCH_BOUND, guard_search


def _place_values(p, length):
    """Weights of base-p digits, most significant first."""
    return p ** np.arange(length - 1, -1, -1, dtype=np.int64)


def _digits(p, length):
    """Every length-digit base-p vector, one per row, in increasing code order."""
    return np.arange(p**length, dtype=np.int64)[:, None] // _place_values(p, length) % p


def _reciprocals_mod(values, p):
    """Elementwise inverses of nonzero residues, as values^(p-2) mod p."""
    result = np.ones_like(values)
    base = values % p
    exponent = p - 2
    while exponent:
        if exponent & 1:
            result = result * base % p
        base = base * base % p
        exponent >>= 1
    return result


def _matrix_inverses_mod(mats, p):
    """Inverses mod p of a batch of invertible matrices, by Gauss-Jordan."""
    count, n, _ = mats.shape
    batch = np.arange(count)
    aug = np.concatenate([mats, np.broadcast_to(np.eye(n, dtype=np.int64), mats.shape)], axis=2)
    for col in range(n):
        # Invertibility guarantees a nonzero entry at or below the diagonal.
        hit = col + np.argmax(aug[:, col:, col] != 0, axis=1)
        pivot = aug[batch, hit]
        aug[batch, hit] = aug[:, col]
        pivot = pivot * _reciprocals_mod(pivot[:, col], p)[:, None] % p
        aug = (aug - aug[:, :, col : col + 1] * pivot[:, None, :]) % p
        aug[:, col] = pivot
    return aug[:, :, n:].copy()


@lru_cache(maxsize=None)
def gl_matrices(p, n):
    """All invertible n x n matrices over GF(p) with their inverses.

    Matrices are enumerated in lexicographic order of their flattened
    entries, which makes every search that picks the first hit deterministic.
    """
    vectors = _digits(p, n)
    place = _place_values(p, n)
    mats = np.zeros((1, 0, n), dtype=np.int64)
    for k in range(n):
        span = (np.einsum("ck,gkj->gcj", _digits(p, k), mats) % p) @ place
        outside = np.ones((len(mats), len(vectors)), dtype=bool)
        np.put_along_axis(outside, span, False, axis=1)
        prefix, row = np.nonzero(outside)
        mats = np.concatenate([mats[prefix], vectors[row][:, None, :]], axis=1)
    invs = _matrix_inverses_mod(mats, p)
    mats.setflags(write=False)
    invs.setflags(write=False)
    return mats, invs


def _equations(laws, n):
    """The basis equations of laws over the flattened (left, right) pair, by
    the last column each reads. Law (a, b, c, d) at (i, j, k), coordinate out,
    is sum_m a[i,j,m] b[m,k,out] - d[j,k,m] c[i,m,out], kept as the column
    arrays (x, y, u, v) of sum x*y - sum u*v = 0 mod p."""
    m = np.arange(n)
    by_last = {}
    for law in laws:
        a, b, c, d = (n**3 if tag == _RIGHT else 0 for tag in _LAWS[law])
        for i, j, k, out in product(range(n), repeat=4):
            x, y = a + (i * n + j) * n + m, b + (m * n + k) * n + out
            u, v = d + (j * n + k) * n + m, c + (i * n + m) * n + out
            by_last.setdefault(int(np.max([x, y, u, v])), []).append((x, y, u, v))
    return by_last


def _grow(p, n, laws, width, bound):
    """Every digit row of the given width that satisfies laws, in
    lexicographic order: each step extends the survivors by one column, under
    guard_search, then checks the equations that column completes. Survivors
    are stored in the narrowest dtype holding p - 1 and widened to int64 only
    inside each equation's residual; the result is int64."""
    equations = _equations(laws, n)
    rows = np.zeros((1, 0), dtype=np.min_scalar_type(p - 1))
    for col in range(width):
        guard_search(f"coordinate growth over GF({p}) in dim {n}", len(rows) * p, bound)
        grown = np.empty((len(rows), p, col + 1), dtype=rows.dtype)
        grown[:, :, :col] = rows[:, None]
        grown[:, :, col] = np.arange(p)
        rows = grown.reshape(-1, col + 1)
        for x, y, u, v in equations.get(col, ()):
            lhs = (rows[:, x].astype(np.int64) * rows[:, y]).sum(axis=1)
            rhs = (rows[:, u].astype(np.int64) * rows[:, v]).sum(axis=1)
            rows = rows[(lhs - rhs) % p == 0]
    return rows.astype(np.int64)


def associative_indices(p, n):
    """Base-p codes, ascending, of every associative n x n x n tensor over GF(p)."""
    return _grow(p, n, [LAW_ASSOC_LEFT], n**3, DEFAULT_SEARCH_BOUND) @ _place_values(p, n**3)


@lru_cache(maxsize=None)
def valid_pairs(p, n=2, bound=DEFAULT_SEARCH_BOUND):
    """Every valid dialgebra over GF(p) in dim n as (tables, pairs), in
    lexicographic order: tables[i] stacks pair i's left and right tensors, and
    pairs[i] holds their base-p codes, first entry most significant."""
    rows = _grow(p, n, DIALGEBRA_LAWS, 2 * n**3, bound)
    tables = rows.reshape(len(rows), 2, n, n, n)
    tables.setflags(write=False)
    codes = rows.reshape(len(rows), 2, n**3) @ _place_values(p, n**3)
    return tables, tuple(zip(codes[:, 0].tolist(), codes[:, 1].tolist()))


def transform_tensor_batch(tensor, mats, invs, p):
    """Rewrite a tensor on every basis in mats; returns a (G, n, n, n) array.

    Each einsum multiplies two residues and is reduced before the next, so
    no int64 intermediate holds a product of more than two residues.
    """
    t = np.einsum("gjb,abc->gajc", mats, np.asarray(tensor)) % p
    t = np.einsum("gia,gajc->gijc", mats, t) % p
    return np.einsum("gijc,gck->gijk", t, invs) % p


def pair_orbit(left, right, p):
    """The GL-orbit of a tensor pair as a set of index pairs."""
    n = left.shape[0]
    mats, invs = gl_matrices(p, n)
    flat_powers = _place_values(p, n**3)
    tl = transform_tensor_batch(left, mats, invs, p).reshape(len(mats), -1) @ flat_powers
    tr = transform_tensor_batch(right, mats, invs, p).reshape(len(mats), -1) @ flat_powers
    return set(zip(tl.tolist(), tr.tolist()))


def isomorphism_indices(a_pair, b_pair, p):
    """Indices into gl_matrices, ascending, of every map sending pair a to pair b.

    A hit T satisfies T(x * y) = T(x) * T(y) for both products, rows of T
    being the images of the basis of a in coordinates of b. The basis
    equations sum_c a[i,j,c] T[c,k] = sum_y u[y] T[j,y], with
    u[y] = sum_x T[i,x] b[x,y,k] reduced mod p first, are checked one at a
    time on the surviving indices only, so no int64 intermediate exceeds n
    times a product of two residues.
    """
    n = a_pair[0].shape[0]
    mats, _ = gl_matrices(p, n)
    hits = np.arange(len(mats))
    for ga, gb in zip(a_pair, b_pair):
        for i, j, k in product(range(n), repeat=3):
            t = mats[hits]
            u = t[:, i] @ gb[:, :, k] % p
            residual = t[:, :, k] @ ga[i, j] - (u * t[:, j]).sum(axis=1)
            hits = hits[residual % p == 0]
            if not len(hits):
                return hits
    return hits


def dialgebra_to_arrays(d):
    """Residue arrays (left, right) of a prime-field dialgebra."""
    if d.field.kind != PRIME:
        raise FieldMismatchError("residue arrays need a prime field")
    n = d.dim

    def grab(prod):
        values = [[[s.value for s in v.coords] for v in row] for row in prod.rows]
        return np.array(values, dtype=np.int64).reshape(n, n, n)

    return grab(d.left), grab(d.right)


def arrays_to_dialgebra(field, left, right):
    products = (int_tensor_to_product(field, t) for t in (left, right))
    return Dialgebra(field, left.shape[0], *products)


def int_tensor_to_product(field, tensor):
    rows = tuple(tuple(Vec.of(field, v) for v in row) for row in np.asarray(tensor).tolist())
    return BilinearProduct(field, len(rows), rows)
