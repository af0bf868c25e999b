"""The dialg v1 text format.

Line-oriented UTF-8; `#` starts a comment; blank lines are ignored.

    dialg 1
    field rational          (or: field prime <p>)
    dim <n>                 (1 <= n <= 16)
    basis r s               (optional)
    left 2 2 2 1            (gamma_left[2][2][2] = 1, indices 1-based)
    right 2 1 1 1

Coefficients are integers or <num>/<den> fractions in rational mode and
integers (reduced mod p) in prime mode, read by Field.parse; every number
in a file follows the one rule for numbers in `fields`. Omitted entries are
zero and a repeated (tag, i, j, k) is an error. Single-product algebra
files use the same grammar restricted to `left` lines.

A file is read in one pass, line by line, into raw coefficients, and each
product is built from them as its int view (BilinearProduct._from_values):
no Scalar or Vec is made. Writing reads the view back
(BilinearProduct._entry_texts), so neither direction builds a table's rows.
"""

from __future__ import annotations

from .algebras import Algebra, BilinearProduct, Dialgebra
from .errors import NonPrimeError, ParseError
from .fields import ASCII_INT, Field

MAX_DIM = 16


def _parse_int(token, lineno, message):
    # Plain ASCII digits, the common case, take no regex.
    if not (token.isdigit() and token.isascii() or ASCII_INT.fullmatch(token)):
        raise ParseError(lineno, message)
    return int(token)


def _parse_common(text, allow_right):
    # The numbered token lists of the lines left after comments, one at a time.
    lines = (
        (lineno, toks)
        for lineno, raw in enumerate(text.splitlines(), start=1)
        if (toks := raw.partition("#")[0].split())
    )
    last = 1

    def take(what):
        nonlocal last
        item = next(lines, None)
        if item is None:
            raise ParseError(last, f"unexpected end of file, expected {what}")
        last = item[0]
        return item

    lineno, toks = take("the `dialg 1` header")
    if toks != ["dialg", "1"]:
        raise ParseError(lineno, "expected `dialg 1` header")

    lineno, toks = take("a `field` line")
    if toks[:1] != ["field"]:
        raise ParseError(lineno, "expected a `field` line")
    if toks[1:] == ["rational"]:
        field = Field.rationals()
    elif len(toks) == 3 and toks[1] == "prime":
        p = _parse_int(toks[2], lineno, f"bad prime modulus {toks[2]!r}")
        try:
            field = Field.prime(p)
        except NonPrimeError as exc:
            raise ParseError(lineno, str(exc))
    else:
        raise ParseError(lineno, "expected `field rational` or `field prime <p>`")

    lineno, toks = take("a `dim` line")
    if len(toks) != 2 or toks[0] != "dim":
        raise ParseError(lineno, "expected `dim <n>`")
    dim = _parse_int(toks[1], lineno, "expected `dim <n>`")
    if not 1 <= dim <= MAX_DIM:
        raise ParseError(lineno, f"dim must be between 1 and {MAX_DIM}, got {dim}")

    basis_names = None
    entries = {"left": {}, "right": {}}
    for lineno, toks in lines:
        if toks[0] == "basis":
            if basis_names is not None:
                raise ParseError(lineno, "duplicate basis line")
            if entries["left"] or entries["right"]:
                raise ParseError(lineno, "basis line must precede product entries")
            if len(toks) != dim + 1:
                raise ParseError(lineno, f"expected {dim} basis names, got {len(toks) - 1}")
            basis_names = tuple(toks[1:])
            continue
        if toks[0] not in ("left", "right"):
            raise ParseError(lineno, f"unknown directive {toks[0]!r}")
        if toks[0] == "right" and not allow_right:
            raise ParseError(lineno, "`right` entries are not allowed in an algebra file")
        if len(toks) != 5:
            raise ParseError(lineno, f"expected `{toks[0]} <i> <j> <k> <c>`")
        i, j, k = (_parse_int(t, lineno, "indices must be integers") for t in toks[1:4])
        for idx in (i, j, k):
            if not 1 <= idx <= dim:
                raise ParseError(lineno, f"index {idx} out of range [1, {dim}]")
        key, table = (i - 1, j - 1, k - 1), entries[toks[0]]
        if key in table:
            raise ParseError(lineno, f"duplicate entry {toks[0]} {i} {j} {k}")
        try:
            table[key] = field.parse(toks[4])
        except ValueError as exc:
            raise ParseError(lineno, str(exc))

    return field, dim, basis_names, entries


def parse_dialgebra(text):
    field, dim, names, entries = _parse_common(text, allow_right=True)
    left = BilinearProduct._from_values(field, dim, entries["left"])
    same = entries["right"] == entries["left"]
    right = left if same else BilinearProduct._from_values(field, dim, entries["right"])
    return Dialgebra(field, dim, left, right, names)


def parse_algebra(text):
    field, dim, names, entries = _parse_common(text, allow_right=False)
    return Algebra(field, dim, BilinearProduct._from_values(field, dim, entries["left"]), names)


def _entry_lines(tag, product):
    return [f"{tag} {i + 1} {j + 1} {k + 1} {c}" for i, j, k, c in product._entry_texts()]


def _header_lines(field, dim, basis_names):
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f"cannot write dim {dim}: the format holds dim 1 to {MAX_DIM}")
    lines = ["dialg 1", f"field {field}", f"dim {dim}"]
    if basis_names:
        bad = [name for name in basis_names if "#" in name or name.split() != [name]]
        if bad:
            raise ValueError(f"cannot write basis name {bad[0]!r}: it must be one word without '#'")
        lines.append("basis " + " ".join(basis_names))
    return lines


def serialize_dialgebra(d):
    lines = _header_lines(d.field, d.dim, d.basis_names)
    lines += _entry_lines("left", d.left)
    lines += _entry_lines("right", d.right)
    return "\n".join(lines) + "\n"


def serialize_algebra(a):
    lines = _header_lines(a.field, a.dim, a.basis_names)
    lines += _entry_lines("left", a.product)
    return "\n".join(lines) + "\n"
