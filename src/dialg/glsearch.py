"""Isomorphisms of dialgebras by depth-first search over GL(n).

A map e_i -> T_i sends dialgebra a to b when the rows T_i of T, written in
b's coordinates, satisfy the homomorphism equations of both products. Over
GF(p) the search chooses the rows in turn, in the order gfsearch.gl_matrices
lists GL(n, p), and yields every such T lazily in that order, so the first
one is the witness an exhaustive scan would pick. It runs on raw residues in
pure Python and builds no GL list; classify and constructions import it on
first use, guarding the call with the search bound.

A split restricts the search to block-diagonal maps: rows below it use only
the first split coordinates and the rest only the others. The triple
equivalence in constructions asks for that, with its pairing block X
first, so the first hit is the least beta of the pairing block paired with
the least alpha of the annihilator block.

Dimension 1 is one closed form on raw values over any field (see
_scalar_isomorphisms): each product's one constant is read off its int
view, and the maps it yields are built from raw values. classify takes
the rational dim-1 witness from it.
"""

from __future__ import annotations

from itertools import product

from .fields import PRIME
from .linalg import Mat, Vec, _terms, contract, contract_pair


def isomorphisms(a, b, split=0):
    """Every T sending a to b, lazily, in GL(dim, p) enumeration order; with a
    split, only the block-diagonal ones (rows below split on the first split
    coordinates, the rest on the others). In dimension 1 any split allows
    every map, and the field may be the rationals."""
    if a.dim == 1:
        return _scalar_isomorphisms(a, b)
    return _row_search(a, b, a.field.p, a.dim, split)


def _scalar_isomorphisms(a, b):
    """GL(1) cut in closed form: e -> t e sends a to b iff x t = y t^2, that
    is x = y t as t != 0, for the constants x of a and y of b of each
    product. A nonzero y fixes t, which must be nonzero and agree across both
    products; x != 0 with y = 0 allows no map. Otherwise every nonzero t
    works: GF(p) lists them in increasing order, and over the rationals t = 1
    stands for them all (callers take only the first). x and y are read as
    numerators off the views, and t = x / y is formed on raw values."""
    field, hits = a.field, None
    for pa, pb in ((a.left, b.left), (a.right, b.right)):
        # The numerators of the two constants, each over its table's den.
        x, y = (sum(g for _, g in q.sparse[0][0]) for q in (pa, pb))
        if y:
            t = field.reduce([x * pb.den * field.reciprocal(y * pa.den)])[0]
            hits = [t] if t and (hits is None or hits == [t]) else []
        elif x:
            hits = []
    if hits is None:
        hits = range(1, field.p) if field.kind == PRIME else [1]
    return (Mat(field, [Vec.from_numerators(field, [t], 1)], 1) for t in hits)


def _row_search(a, b, p, n, split):
    """Depth-first search over the rows of T, T's row i being the image of
    a's basis vector e_i in b's coordinates.

    Row r takes, in increasing base-p code, vectors outside the span of rows
    0..r-1, which visits GL(n, p) in lexicographic order of the flattened
    entries, gfsearch.gl_matrices' order. A split cuts each row's codes to
    its block: multiples of p^(n - split) below the split, codes under
    p^(n - split) from it on; split 0 cuts nothing. The homomorphism equation
    sum_c a[i][j][c] T_c = T_i * T_j of each product, all n output
    coordinates at once, belongs to level r, the last row it reads: the
    highest of i, j and every c with a[i][j][c] != 0. Some equations of a
    level make row r's candidates, in code order, and so hold by
    construction:

      * one with i and j below r is affine in T_r, with the nonzero
        coefficient a[i][j][r], so it fixes T_r: row r tries that vector;
      * failing that, each equation (r, r) is T_r * T_r - g T_r = known,
        with g = a[r][r][r] and known = sum_{c < r} a[r][r][c] T_c: its roots
        are read off a table of the left side's value at every vector,
        built on first use.

    Each other equation of the level is checked per candidate, and a failure
    prunes every matrix with that prefix. Both sides are contractions of raw
    residues over the products' sparse views; the images T_i * T_j are
    memoised per pair of row vectors, and a Mat is built only for a hit.
    """
    field, size = a.field, p**n
    vectors = list(product(range(p), repeat=n))
    terms = [_terms(v) for v in vectors]
    place = [p ** (n - 1 - k) for k in range(n)]
    low = p ** (n - split)
    blocks = [range(0, size, low) if r < split else range(low) for r in range(n)]
    levels = [[] for _ in range(n)]
    # Shared products (d.right is d.left) on both sides file one equation set.
    pairs = {(id(pa), id(pb)): (pa, pb) for pa, pb in ((a.left, b.left), (a.right, b.right))}
    for pa, pb in pairs.values():
        images = {}
        for i, j in product(range(n), repeat=2):
            ts = pa.sparse[i][j]
            levels[max(i, j, *(c for c, _ in ts))].append((i, j, ts, pb.sparse, images))
    fixes, squares, checks = [None] * n, [[] for _ in range(n)], [[] for _ in range(n)]
    for r, level in enumerate(levels):
        fix = next((e for e in level if max(e[0], e[1]) < r), None)
        for e in level:
            i, j, ts, view, images = e
            rest = [(c, g) for c, g in ts if c != r]
            if e is fix:
                fixes[r] = (i, j, rest, field.reciprocal(dict(ts)[r]), view, images)
            elif fix is None and i == j == r:
                squares[r].append((rest, dict(ts).get(r, 0), view, {}))
            else:
                checks[r].append(e)
    codes = [0] * n
    rows = [None] * n
    vecs = {}

    def image(i, j, view, images):
        key = codes[i] * size + codes[j]
        found = images.get(key)
        if found is None:
            raw = contract_pair([0] * n, rows[i], rows[j], view)
            found = images[key] = [x % p for x in raw]
        return found

    def holds(r):
        for i, j, ts, view, images in checks[r]:
            if [x % p for x in contract([0] * n, ts, rows)] != image(i, j, view, images):
                return False
        return True

    def candidates(r, span):
        if fixes[r] is not None:
            i, j, rest, inverse, view, images = fixes[r]
            known = contract([0] * n, rest, rows)
            v = tuple((x - y) * inverse % p for x, y in zip(image(i, j, view, images), known))
            code = sum(x * w for x, w in zip(v, place))
            return [code] if code in blocks[r] and v not in span else []
        found = None
        for rest, g, view, roots in squares[r]:
            if not roots:
                for code, (v, ts) in enumerate(zip(vectors, terms)):
                    w = contract_pair([0] * n, ts, ts, view)
                    roots.setdefault(tuple((x - g * y) % p for x, y in zip(w, v)), set()).add(code)
            known = tuple(x % p for x in contract([0] * n, rest, rows))
            keep = roots.get(known, set())
            found = keep if found is None else found & keep
        found = blocks[r] if found is None else [c for c in sorted(found) if c in blocks[r]]
        return [code for code in found if vectors[code] not in span]

    def vec(g):
        if g not in vecs:
            vecs[g] = Vec.from_numerators(field, vectors[g], 1)
        return vecs[g]

    def search(r, span):
        if r == n:
            yield Mat(field, [vec(g) for g in codes], n)
            return
        for g in candidates(r, span):
            codes[r], rows[r] = g, terms[g]
            if holds(r):
                v = vectors[g]
                # The last row needs no span after it.
                grown = r + 1 < n and {
                    tuple((x + c * y) % p for x, y in zip(s, v)) for s in span for c in range(p)
                }
                yield from search(r + 1, grown)

    return search(0, {(0,) * n})
