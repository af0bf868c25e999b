"""The only place that converts between raw tables and dialg objects.

Reading a dialg object goes through its public accessors (`entry`, `.value`,
`nrows`) and never through its arithmetic.
"""

from __future__ import annotations

import dialg


def field(F):
    return dialg.Field.rationals() if F.p is None else dialg.Field.prime(F.p)


def _entries(g):
    n = len(g)
    return {(i, j, k): c for i in range(n) for j in range(n) for k, c in enumerate(g[i][j]) if c}


def dialgebra(F, left, right):
    return dialg.Dialgebra.from_entries(field(F), len(left), _entries(left), _entries(right))


def mat(F, rows):
    return dialg.Mat.from_rows(field(F), rows)


def raw_product(prod):
    n = prod.dim
    return [[[prod.entry(i, j, k).value for k in range(n)] for j in range(n)] for i in range(n)]


def raw_tables(d):
    return raw_product(d.left), raw_product(d.right)


def raw_mat(m):
    return [[m.entry(i, j).value for j in range(m.ncols)] for i in range(m.nrows)]


def raw_vec(v):
    return tuple(c.value for c in v)


def fingerprint_tuple(fp):
    return (
        fp.dim_left_square, fp.dim_right_square, fp.dim_rann_left, fp.dim_lann_left,
        fp.dim_rann_right, fp.dim_lann_right, fp.dim_ann, fp.products_equal, fp.has_bar_unit,
    )
