"""Vectorized modular-arithmetic plumbing for finite-field searches.

Structure tensors over GF(p) are plain integer residue arrays here, which
keeps the exhaustive growth of valid pairs and GL(n, p) scans fast. No
library function calls this module: the tests read it as an independent
reference for the census, the enumeration and the isomorphism search, and
bench/session.py times valid_pairs and gl_matrices. It is the one module
that imports numpy, which only the `test` extra installs.

GL(n, p) is built row by row: row k takes, in increasing base-p code, every
vector outside the span of rows 0..k-1. The prefixes are kept in
lexicographic order and each is extended by its admissible rows in
lexicographic order, so the finished list is exactly the invertible
matrices in lexicographic order of their flattened entries, the order in
which every first-hit search picks its witness. One batched Gauss-Jordan
pass mod p then inverts them all with no row swaps: a matrix whose pivot
entry is 0 has the first row below with a nonzero entry there added to its
pivot row. Both run at residue width: the prefixes and the augmented batch
are held in the narrowest unsigned dtype that holds (p - 1) * p, the
largest value a step forms before it reduces mod p (uint8 up to p = 13,
uint16 up to p = 251), and the batch lies on the last axis, so each
elementwise step of the elimination reads contiguous memory. The
two returned arrays are widened to int64 once, at the end: residues of a
narrow dtype would wrap silently under a caller's @. The list is charged
|GL(n, p)| = prod_k (p^n - p^k) against the search bound before anything is
allocated.

valid_pairs grows the valid (left, right) pairs the same way, one coordinate
of the flattened pair at a time, left product first: survivors are extended
by 0..p-1 in order, and each basis equation of identities._LAWS, the exact
checker's law table, is checked once its last coordinate is set. So the
pairs come out sorted, and the search bound caps each step's candidates.
The equations come from identities._law_equations, which expands the table
once per (laws, n) into plain int column pairs. Survivors are held column
by column in the narrowest dtype holding p - 1, and each residual
sum x*y - sum u*v is formed as n * p^2 + sum x*y - sum u*v in the narrowest
unsigned dtype holding 2 * n * p^2, so it never goes below zero or wraps,
then reduced mod p; the survivors are widened to int64 once, on return.
Equations are checked one at a time, each on the survivors of the last.
Checking a column's equations in one batch is faster at p = 2 and 3 but
slower from p = 5 on, where the growth spends its time.

The census and the enumeration of valid dialgebras take their tables from
the dim-2 normal forms in classify; the tests check both against these
pairs grouped by pair_orbit.

isomorphism_indices scans GL(n, p) the same way: each homomorphism
equation (i, j, k) of the left product, then of the right product, cuts
the surviving GL indices to those that satisfy it, and the scan stops as
soon as none is left. No library path calls it: are_isomorphic and
automorphism_group run glsearch's pure-Python row-by-row search, which
yields the same maps in the same order without numpy. Like pair_orbit and
transform_tensor_batch, it is kept as a test reference.

The module loads structure and constructions, though it reads nothing from
them. bench/session.py imports it before it times any op, and it loaded
both when it read the search bound from structure: loading them here keeps
their compile out of the search workload's timed ops, and has the bench
tracer wrap both layers, until the session imports the layers it times and
the tracer every module it reads (ROADMAP item 1(b)).
"""

from __future__ import annotations

from functools import lru_cache
from importlib import import_module
from itertools import product
from math import prod

import numpy as np

from .errors import DEFAULT_SEARCH_BOUND, guard_search
from .identities import DIALGEBRA_LAWS, _law_equations

# Loaded for the search bench alone (see the docstring). `from . import`
# would go through the package, which loads classify as well.
import_module(".structure", __package__)
import_module(".constructions", __package__)


def _place_values(p, length):
    """Weights of base-p digits, most significant first."""
    return p ** np.arange(length - 1, -1, -1, dtype=np.int64)


def _digits(p, length):
    """Every length-digit base-p vector, one per row, in increasing code order."""
    return np.arange(p**length, dtype=np.int64)[:, None] // _place_values(p, length) % p


def _work_dtype(p):
    """The narrowest unsigned dtype holding (p - 1) * p: a residue plus the
    product of two residues, the largest value GL's elimination forms."""
    return np.min_scalar_type((p - 1) * p)


def _matrix_inverses_mod(mats, p):
    """Inverses mod p of a (count, n, n) batch of invertible matrices held in
    _work_dtype(p), by Gauss-Jordan; returns them as C-ordered int64.

    The augmented batch [M | I] is (n, 2n, count), batch last, in the work
    dtype. A zero pivot entry is mended by adding one row from below, so
    the pivot row holds at most 2p - 2 <= (p - 1) * p until its one
    reduction. Row r minus c times the normalised pivot row, c being r's
    entry in the pivot column, is formed as r + c * ((p - pivot) mod p), at
    most (p - 1) + (p - 1)^2 = (p - 1) * p, so nothing is signed and nothing
    wraps. Columns left of the pivot column are already unit columns, so
    each step updates only the columns from the pivot on. Every scalar
    operand is cast to the work dtype, so numpy 1 and numpy 2 promote alike.
    """
    count, n, _ = mats.shape
    dtype = mats.dtype
    zero, modulus = dtype.type(0), dtype.type(p)
    reciprocals = np.array([0] + [pow(v, -1, p) for v in range(1, p)], dtype=dtype)
    aug = np.zeros((n, 2 * n, count), dtype=dtype)
    aug[:, :n] = np.moveaxis(mats, 0, -1)
    aug[np.arange(n), n + np.arange(n)] = 1
    for col in range(n):
        # Invertibility guarantees a nonzero entry at or below the diagonal:
        # where the pivot is 0, the first row below with a nonzero entry is
        # added to the pivot row, at most one row per matrix.
        head = aug[col, col:]
        for row in aug[col + 1 :, col:]:
            np.add(head, row, out=head, where=(head[0] == zero) & (row[0] != zero))
        head %= modulus
        pivot = head * reciprocals[head[0]]
        pivot %= modulus
        rest = aug[:, col:]
        rest += aug[:, col, None] * ((modulus - pivot) % modulus)
        rest %= modulus
        aug[col, col:] = pivot
    return np.ascontiguousarray(np.moveaxis(aug[:, n:], -1, 0), dtype=np.int64)


def gl_matrices(p, n, bound=DEFAULT_SEARCH_BOUND):
    """All invertible n x n matrices over GF(p) with their inverses, as two
    read-only int64 arrays.

    Matrices are enumerated in lexicographic order of their flattened
    entries, which makes every search that picks the first hit deterministic.
    The list is charged |GL(n, p)| candidates under guard_search on every
    call, cached or not, and is built once per (p, n).
    """
    guard_search(f"GL({n}, {p}) list", prod(p**n - p**k for k in range(n)), bound)
    return _gl_matrices(p, n)


@lru_cache(maxsize=None)
def _gl_matrices(p, n):
    """gl_matrices' cached build; its cache_clear and cache_info are
    gl_matrices'."""
    dtype = _work_dtype(p)
    vectors = _digits(p, n).astype(dtype)
    place = _place_values(p, n)
    mats = np.zeros((1, 0, n), dtype=dtype)
    for k in range(n):
        span = (np.einsum("ck,gkj->gcj", _digits(p, k), mats) % p) @ place
        outside = np.ones((len(mats), len(vectors)), dtype=bool)
        np.put_along_axis(outside, span, False, axis=1)
        prefix, row = np.nonzero(outside)
        mats = np.concatenate([mats[prefix], vectors[row][:, None, :]], axis=1)
    invs = _matrix_inverses_mod(mats, p)
    mats = mats.astype(np.int64)
    mats.setflags(write=False)
    invs.setflags(write=False)
    return mats, invs


gl_matrices.cache_clear = _gl_matrices.cache_clear
gl_matrices.cache_info = _gl_matrices.cache_info


def _growth_dtype(p, n):
    """The narrowest unsigned dtype holding 2 * n * p^2: a growth residual
    n * p^2 + sum x*y - sum u*v of n products of residues stays below it."""
    return np.min_scalar_type(2 * n * p * p)


def _grow(p, n, laws, width, bound):
    """Every digit row of the given width that satisfies laws, in
    lexicographic order: each step extends the survivors by one column, under
    guard_search, then checks the equations that column completes. Survivors
    are held as columns of the narrowest dtype holding p - 1 and residuals
    in _growth_dtype(p, n); the result is int64."""
    equations = _law_equations(tuple(laws), n)
    work = _growth_dtype(p, n)
    # Scalar operands in the work dtype, so numpy 1 and numpy 2 promote alike.
    modulus, shift = work.type(p), work.type(n * p * p)
    digits = np.arange(p, dtype=np.min_scalar_type(p - 1))
    cols = np.zeros((0, 1), dtype=digits.dtype)
    for col in range(width):
        count = cols.shape[1]
        guard_search(f"coordinate growth over GF({p}) in dim {n}", count * p, bound)
        grown = np.empty((col + 1, count, p), dtype=digits.dtype)
        grown[:col] = cols[:, :, None]
        grown[col] = digits
        cols = grown.reshape(col + 1, -1)
        for *_, lhs, rhs in equations[col]:
            residual = np.full(cols.shape[1], shift)
            term = np.empty_like(residual)
            for x, y in lhs:
                residual += np.multiply(cols[x], cols[y], out=term, dtype=work)
            for u, v in rhs:
                residual -= np.multiply(cols[u], cols[v], out=term, dtype=work)
            residual %= modulus
            cols = cols.compress(residual == 0, axis=1)
    return np.ascontiguousarray(cols.T, dtype=np.int64)


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


def pair_orbit(left, right, p, bound=DEFAULT_SEARCH_BOUND):
    """The GL-orbit of a tensor pair as a set of index pairs; the GL(n, p)
    list it scans is charged against bound."""
    n = left.shape[0]
    mats, invs = gl_matrices(p, n, bound)
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
