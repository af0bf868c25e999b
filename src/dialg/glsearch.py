"""Isomorphisms of dialgebras over GF(p) by depth-first search over GL(n, p).

A map e_i -> T_i sends dialgebra a to b when the rows T_i of T, written in
b's coordinates, satisfy the homomorphism equations of both products. The
search chooses the rows in turn, in the order gfsearch.gl_matrices lists
GL(n, p), and yields every such T lazily in that order, so the first one is
the witness an exhaustive scan would pick. It runs on raw residues in pure
Python and builds no GL list; classify imports it on first use, guarding
the call with the search bound.
"""

from __future__ import annotations

from itertools import product

from .linalg import Mat, Vec, _terms, contract, contract_pair


def isomorphisms(a, b):
    """Every T sending a to b, lazily, in GL(dim, p) enumeration order."""
    p, n = a.field.p, a.dim
    if n == 1:
        return _scalar_isomorphisms(a, b, p)
    return _row_search(a, b, p, n)


def _scalar_isomorphisms(a, b, p):
    """GL(1, p) in increasing order, cut in closed form: e -> t e sends a to b
    iff x t = y t^2, that is x = y t as t != 0, for the constants x of a and
    y of b of each product. So a nonzero y fixes t."""
    field = a.field
    hits = range(1, p)
    for pa, pb in ((a.left, b.left), (a.right, b.right)):
        x, y = (dict(prod.sparse[0][0]).get(0, 0) for prod in (pa, pb))
        if y:
            t = x * field.reciprocal(y) % p
            hits = [t] if t in hits else []
        elif x:
            hits = []
    return (Mat(field, [Vec.from_raw(field, [t])], 1) for t in hits)


def _row_search(a, b, p, n):
    """Depth-first search over the rows of T, T's row i being the image of
    a's basis vector e_i in b's coordinates.

    Row r takes, in increasing base-p code, vectors outside the span of rows
    0..r-1, which visits GL(n, p) in lexicographic order of the flattened
    entries, gfsearch.gl_matrices' order. The homomorphism equation
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
            return [] if v in span else [sum(x * w for x, w in zip(v, place))]
        found = None
        for rest, g, view, roots in squares[r]:
            if not roots:
                for code, (v, ts) in enumerate(zip(vectors, terms)):
                    w = contract_pair([0] * n, ts, ts, view)
                    roots.setdefault(tuple((x - g * y) % p for x, y in zip(w, v)), set()).add(code)
            known = tuple(x % p for x in contract([0] * n, rest, rows))
            keep = roots.get(known, set())
            found = keep if found is None else found & keep
        found = range(size) if found is None else sorted(found)
        return [code for code in found if vectors[code] not in span]

    def vec(g):
        if g not in vecs:
            vecs[g] = Vec.from_raw(field, vectors[g])
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
