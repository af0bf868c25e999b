"""Command line front end.

Verbs: check, info, classify2, iso, census, leibniz, op, quotient.
Exit codes: 0 success / property holds, 1 property fails or no isomorphism,
2 usage or input errors. All output is deterministic for a fixed input.

The module imports at the top only from the modules `check` runs on: the
exact core, which `import dialg` loads anyway. Each other verb imports
what it runs in its handler: leibniz, op and quotient import constructions,
and info, classify2, iso and census read classify through the package,
which loads all three layers together. Those four load all three because
bench/layers.py wraps only the modules a run loads, and the traced cli
smoke runs no verb but them and check (ROADMAP item 1(b)). json loads only
where a handler prints it. No verb loads numpy.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import DEFAULT_SEARCH_BOUND, DialgError, ParseError, UnsupportedOverRationalsError
from .fields import ASCII_INT
from .fileformat import parse_dialgebra, serialize_algebra, serialize_dialgebra
from .identities import check_dialgebra
from .linalg import Subspace, Vec, _dense

ENV_SEARCH_BOUND = "DIALG_SEARCH_BOUND"


def _search_bound():
    raw = os.environ.get(ENV_SEARCH_BOUND)
    if raw is None:
        return DEFAULT_SEARCH_BOUND
    if not ASCII_INT.fullmatch(raw) or int(raw) < 0:
        raise DialgError(f"{ENV_SEARCH_BOUND} must be a non-negative integer, got {raw!r}")
    return int(raw)


def _ascii_int(raw):
    """The argparse type of an integer option: an int by the rule in `fields`."""
    if not ASCII_INT.fullmatch(raw):
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}")
    return int(raw)


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DialgError(f"cannot read {path}: {exc}")
    try:
        return parse_dialgebra(text)
    except ParseError as exc:
        raise DialgError(f"{path}: {exc}")


def _print_matrix(m, out):
    for row in m.rows:
        print(" ".join(str(c) for c in row.coords), file=out)


def cmd_check(args, out):
    d = _load(args.path)
    reports = check_dialgebra(d)
    if not reports:
        print("PASS", file=out)
        return 0
    for rep in reports:
        i, j, k = rep.triple
        print(f"FAIL {rep.law} ({i + 1},{j + 1},{k + 1}) residual {rep.residual}", file=out)
    return 1


def cmd_info(args, out):
    from . import classify

    d = _load(args.path)
    fp = classify.fingerprint(d)
    pairs = [("field", str(d.field)), ("dim", d.dim)]
    pairs += zip(classify.Fingerprint._fields, fp)
    if args.json:
        import json

        print(json.dumps(dict(pairs)), file=out)
        return 0
    for key, value in pairs:
        if isinstance(value, bool):
            value = "true" if value else "false"
        print(f"{key}: {value}", file=out)
    return 0


def _label_record(label):
    """The label, kind and k of a classification label, as JSON fields."""
    return {
        "label": label.label_string(),
        "kind": label.kind,
        "k": None if label.k is None else str(label.k),
    }


def cmd_classify2(args, out):
    from . import classify

    d = _load(args.path)
    label = classify.classify_dim2(d)
    if args.json:
        import json

        record = {
            **_label_record(label),
            "sublabel": label.sublabel,
            "witness": [[str(c) for c in row.coords] for row in label.witness.rows],
        }
        print(json.dumps(record), file=out)
        return 0
    print(label.label_string(), file=out)
    print("witness:", file=out)
    _print_matrix(label.witness, out)
    return 0


def cmd_iso(args, out):
    from . import classify

    a = _load(args.path_a)
    b = _load(args.path_b)
    try:
        witness = classify.are_isomorphic(a, b, bound=_search_bound())
    except UnsupportedOverRationalsError as exc:
        print(f"UNSUPPORTED: {exc}", file=out)
        return 2
    if witness is None:
        print("NOT ISOMORPHIC", file=out)
        return 1
    print("ISOMORPHIC", file=out)
    _print_matrix(witness, out)
    return 0


def _residues(prod):
    """The structure constants gamma[i][j][k] of a GF(p) product, as nested ints."""
    return [[_dense(prod.dim, terms) for terms in row] for row in prod.sparse]


def cmd_census(args, out):
    import json

    from . import classify

    for cls in classify.census(args.prime, args.dim, bound=_search_bound()):
        record = {
            **_label_record(cls.label),
            "left": _residues(cls.representative.left),
            "right": _residues(cls.representative.right),
            "orbit_size": cls.orbit_size,
        }
        print(json.dumps(record), file=out)
    return 0


def cmd_leibniz(args, out):
    from .constructions import leibniz_bracket

    d = _load(args.path)
    bracket = leibniz_bracket(d)
    out.write(serialize_algebra(bracket))
    return 0


def cmd_op(args, out):
    from .constructions import opposite

    d = _load(args.path)
    out.write(serialize_dialgebra(opposite(d)))
    return 0


def _parse_ideal(d, raw):
    vectors = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        entries = chunk.split(",")
        if len(entries) != d.dim:
            raise DialgError(
                f"ideal generator {chunk!r} has {len(entries)} entries, expected {d.dim}"
            )
        try:
            vectors.append(Vec.of(d.field, entries))
        except ValueError as exc:
            raise DialgError(f"bad ideal generator {chunk!r}: {exc}")
    return Subspace.from_vectors(d.field, d.dim, vectors)


def cmd_quotient(args, out):
    from .constructions import quotient

    d = _load(args.path)
    ideal = _parse_ideal(d, args.ideal)
    quot, _projection = quotient(d, ideal)
    out.write(serialize_dialgebra(quot))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dialg",
        description="Exact computations with finite-dimensional associative dialgebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify the dialgebra laws of a file")
    p.add_argument("path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("info", help="print invariants and annihilator dimensions")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("classify2", help="classify a 2-dimensional dialgebra")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify2)

    p = sub.add_parser("iso", help="search for an isomorphism between two files")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("census", help="classify all dialgebras over a small prime field")
    p.add_argument("--prime", type=_ascii_int, required=True)
    p.add_argument("--dim", type=_ascii_int, default=2)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("leibniz", help="print the Leibniz bracket algebra of a file")
    p.add_argument("path")
    p.set_defaults(func=cmd_leibniz)

    p = sub.add_parser("op", help="print the opposite dialgebra of a file")
    p.add_argument("path")
    p.set_defaults(func=cmd_op)

    p = sub.add_parser("quotient", help="print the quotient by an ideal")
    p.add_argument("path")
    p.add_argument(
        "--ideal",
        required=True,
        help="semicolon-separated generators, comma-separated coordinates",
    )
    p.set_defaults(func=cmd_quotient)

    return parser


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except (DialgError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
