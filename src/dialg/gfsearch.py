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
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .algebras import BilinearProduct, Dialgebra
from .errors import FieldMismatchError
from .fields import PRIME
from .linalg import Mat, Vec


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
    arr = _digits(p, n**3).reshape(-1, n, n, n)
    arr.setflags(write=False)
    return arr


def associative_indices(p, n):
    """Indices of all associative tensors within all_tensors(p, n)."""
    g = all_tensors(p, n)
    lhs = np.einsum("Nijm,Nmkc->Nijkc", g, g)
    rhs = np.einsum("Njkm,Nimc->Nijkc", g, g)
    ok = ((lhs - rhs) % p == 0).reshape(len(g), -1).all(axis=1)
    return np.flatnonzero(ok)


@lru_cache(maxsize=None)
def valid_pairs(p, n=2):
    """All (left, right) tensor index pairs forming a valid dialgebra.

    Both products must be associative and the three mixed laws must hold;
    associativity is filtered per tensor first, then pairs of associative
    tensors are screened, which is the same predicate factored for speed.
    Pairs come out in lexicographic order of (left, right).
    """
    tensors = all_tensors(p, n)
    assoc = associative_indices(p, n)
    cands = tensors[assoc]
    # ax3 right-hand side x |> (y |> z) depends only on the right tensor.
    ax3_rhs = np.einsum("Njkm,Nimc->Nijkc", cands, cands)
    pairs = []
    for pos, li in enumerate(assoc):
        left = cands[pos]
        ax1_lhs = np.einsum("ijm,mkc->ijkc", left, left)
        ax1 = (np.einsum("Njkm,imc->Nijkc", cands, left) - ax1_lhs[None]) % p
        ax2 = (
            np.einsum("Nijm,mkc->Nijkc", cands, left)
            - np.einsum("jkm,Nimc->Nijkc", left, cands)
        ) % p
        ax3 = (np.einsum("ijm,Nmkc->Nijkc", left, cands) - ax3_rhs) % p
        ok = (
            (ax1 == 0).reshape(len(cands), -1).all(axis=1)
            & (ax2 == 0).reshape(len(cands), -1).all(axis=1)
            & (ax3 == 0).reshape(len(cands), -1).all(axis=1)
        )
        for rpos in np.flatnonzero(ok):
            pairs.append((int(li), int(assoc[rpos])))
    return tensors, tuple(pairs)


def _products_of_images(mats, tensor, p):
    """sum_ab mats[g,i,a] mats[g,j,b] tensor[a,b,c] mod p, for every g.

    Each einsum multiplies two residues and is reduced before the next, so
    no int64 intermediate holds a product of more than two residues.
    """
    t = np.einsum("gjb,abc->gajc", mats, np.asarray(tensor)) % p
    return np.einsum("gia,gajc->gijc", mats, t) % p


def transform_tensor_batch(tensor, mats, invs, p):
    """Rewrite a tensor on every basis in mats; returns a (G, n, n, n) array."""
    return np.einsum("gijc,gck->gijk", _products_of_images(mats, tensor, p), invs) % p


def pair_orbit(left, right, p):
    """The GL-orbit of a tensor pair as a set of index pairs."""
    n = left.shape[0]
    mats, invs = gl_matrices(p, n)
    flat_powers = _place_values(p, n**3)
    tl = transform_tensor_batch(left, mats, invs, p).reshape(len(mats), -1) @ flat_powers
    tr = transform_tensor_batch(right, mats, invs, p).reshape(len(mats), -1) @ flat_powers
    return set(zip(tl.tolist(), tr.tolist()))


def _iso_mask(ga, gb, mats, p):
    lhs = np.einsum("ijc,gck->gijk", ga, mats) % p
    rhs = _products_of_images(mats, gb, p)
    return (lhs == rhs).reshape(len(mats), -1).all(axis=1)


def isomorphism_indices(a_pair, b_pair, p):
    """Indices into gl_matrices of every map sending pair a to pair b.

    A hit T satisfies T(x * y) = T(x) * T(y) for both products, rows of T
    being the images of the basis of a in coordinates of b.
    """
    la, ra = a_pair
    lb, rb = b_pair
    n = la.shape[0]
    mats, _ = gl_matrices(p, n)
    mask = _iso_mask(la, lb, mats, p) & _iso_mask(ra, rb, mats, p)
    return np.flatnonzero(mask)


def dialgebra_to_arrays(d):
    """Residue arrays (left, right) of a prime-field dialgebra."""
    if d.field.kind != PRIME:
        raise FieldMismatchError("residue arrays need a prime field")
    n = d.dim

    def grab(prod):
        return np.array(
            [[[prod.entry(i, j, k).value for k in range(n)] for j in range(n)] for i in range(n)],
            dtype=np.int64,
        ).reshape(n, n, n)

    return grab(d.left), grab(d.right)


def arrays_to_dialgebra(field, left, right):
    return Dialgebra(
        field,
        left.shape[0],
        int_tensor_to_product(field, left),
        int_tensor_to_product(field, right),
    )


def int_tensor_to_product(field, tensor):
    n = tensor.shape[0]
    rows = tuple(
        tuple(Vec.of(field, [int(tensor[i, j, k]) for k in range(n)]) for j in range(n))
        for i in range(n)
    )
    return BilinearProduct(field, n, rows)


def int_matrix_to_mat(field, matrix):
    matrix = np.asarray(matrix)
    nrows, ncols = matrix.shape
    return Mat.from_rows(
        field, [[int(matrix[i, j]) for j in range(ncols)] for i in range(nrows)], ncols
    )
