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

The census screens tensors against identities._LAWS, the law table of the
exact checker, one basis equation at a time over the surviving candidates.

Isomorphism tests and automorphism groups scan GL(n, p) the same way: each
homomorphism equation (i, j, k) of the left product, then of the right
product, cuts the surviving GL indices to those that satisfy it, and the
scan stops as soon as none is left. The full image tensors of a product
are never built, and the later equations see only the few survivors.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from .algebras import BilinearProduct, Dialgebra
from .errors import FieldMismatchError
from .fields import PRIME
from .identities import _LAWS, _LEFT, _RIGHT, LAW_ASSOC_LEFT, LAW_AX1, LAW_AX2, LAW_AX3
from .linalg import Mat, Vec
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


@lru_cache(maxsize=None)
def all_tensors(p, n):
    """Every n x n x n structure tensor over GF(p), lexicographic order."""
    guard_search(f"tensor enumeration over GF({p}) in dim {n}", p ** (n**3), DEFAULT_SEARCH_BOUND)
    arr = _digits(p, n**3).reshape(-1, n, n, n)
    arr.setflags(write=False)
    return arr


def _law_screen(flat, sel, laws, n, p):
    """Cut the candidates sel (tag -> row indices into flat, the flattened
    tensors) to those satisfying every law row (a, b, c, d) of _LAWS, in
    order. Each basis equation sum_m a[i,j,m] b[m,k,out] - d[j,k,m] c[i,m,out]
    = 0 mod p is gathered in turn for the survivors only."""

    def entry(tag, i, j, k):
        return flat[sel[tag], (i * n + j) * n + k]

    for a, b, c, d in laws:
        for i, j, k, out in product(range(n), repeat=4):
            residual = sum(
                entry(a, i, j, m) * entry(b, m, k, out) - entry(d, j, k, m) * entry(c, i, m, out)
                for m in range(n)
            )
            keep = residual % p == 0
            sel = {tag: rows[keep] for tag, rows in sel.items()}
    return sel


def associative_indices(p, n):
    """Indices of all associative tensors within all_tensors(p, n)."""
    flat = all_tensors(p, n).reshape(-1, n**3)
    return _law_screen(flat, {_LEFT: np.arange(len(flat))}, [_LAWS[LAW_ASSOC_LEFT]], n, p)[_LEFT]


@lru_cache(maxsize=None)
def valid_pairs(p, n=2):
    """All (left, right) tensor index pairs forming a valid dialgebra.

    Both products must be associative and the three mixed laws must hold;
    tensors are screened for associativity, then pairs of associative
    tensors for ax1/ax2/ax3, by _law_screen over the law table that the
    exact checker reads. Pairs come out in lexicographic order of (left, right).
    """
    tensors = all_tensors(p, n)
    assoc = associative_indices(p, n)
    sel = {_LEFT: np.repeat(assoc, len(assoc)), _RIGHT: np.tile(assoc, len(assoc))}
    mixed = [_LAWS[LAW_AX1], _LAWS[LAW_AX2], _LAWS[LAW_AX3]]
    sel = _law_screen(tensors.reshape(-1, n**3), sel, mixed, n, p)
    return tensors, tuple(zip(sel[_LEFT].tolist(), sel[_RIGHT].tolist()))


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


def int_matrix_to_mat(field, matrix):
    matrix = np.asarray(matrix)
    return Mat.from_rows(field, matrix.tolist(), matrix.shape[1])
