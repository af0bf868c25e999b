"""`cli`: one `python -m dialg.cli ...` subprocess per op.

Each verb costs about one interpreter start plus `import dialg` plus a few
milliseconds of algebra, so this workload measures import, argument parsing
and file I/O: the lazy-import change shows here, kernel changes barely do.
"""

from __future__ import annotations

import json
import random
import subprocess
import time

import gen as G
import oracle as O
from common import BENCH, WORK, Outcome, dialg_env, python

WHY = (
    "Every verb pays interpreter start plus import dialg (mostly numpy, even for rational-only "
    "verbs) and then a few ms of algebra, so this measures import, argument parsing and file I/O."
)


class Command:
    """One CLI invocation with its expected exit code and an output check."""

    def __init__(self, verb, args, props, code, check):
        self.verb = verb
        self.args = args
        self.props = props
        self.code = code
        self.check = check

    @property
    def key(self):
        return " ".join([self.verb, *self.args])


def _fp_pairs(F, tables):
    fp = O.fingerprint(F, *tables)
    names = ("dim_left_square", "dim_right_square", "dim_rann_left", "dim_lann_left",
             "dim_rann_right", "dim_lann_right", "dim_ann", "products_equal", "has_bar_unit")
    return [("field", str(F)), ("dim", len(tables[0]))] + list(zip(names, fp))


def _check_text(F, tables):
    viol = O.law_violations(F, *tables)
    if not viol:
        return "PASS\n"
    return "".join(
        f"FAIL {law} ({i + 1},{j + 1},{k + 1}) residual ({', '.join(str(c) for c in res)})\n"
        for (law, (i, j, k)), res in viol.items()
    )


def _info_text(F, tables):
    lines = []
    for key, value in _fp_pairs(F, tables):
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key}: {value}\n")
    return "".join(lines)


def _parse_matrix(F, rows):
    return [[F.coeff(tok) for tok in row.split()] for row in rows]


def build(seed, smoke):
    """Write the input files and return the command list of one round."""
    rng = random.Random(seed)
    folder = WORK / "cli"
    folder.mkdir(parents=True, exist_ok=True)
    counter = iter(range(10**6))
    aut_orders = {}

    def write(F, tables, tags=("left", "right")):
        path = folder / f"in{next(counter)}.dialg"
        path.write_text(O.serialize(F, tables, tags), encoding="utf-8")
        return str(path.relative_to(WORK.parent))

    def props(F, valid=True, refusal=False):
        return {
            "field": "Q" if F.p is None else "GF(p)",
            "validity": "valid" if valid else "invalid",
            "refusal": "documented" if refusal else "none",
        }

    def dense(F, tables):
        t, t_inv = G.random_invertible(F, rng, len(tables[0]), None if F.p else (-1, 0, 1))
        return G.rebased(F, tables, t, t_inv)

    deck = G.Deck(rng)

    def canonical_pick(F):
        return G.canonical_instance(F, rng, deck.draw())

    cmds = []
    Q = G.Q
    t2 = G.normalized(Q, G.upper_triangular(2))
    gf = {p: O.RawField(p) for p in (2, 3, 5, 7)}

    # check / info: valid and perturbed files
    valid_files = [
        (gf[7], None),
        (Q, (t2, t2)),
    ]
    files = []
    for F, tables in valid_files:
        if tables is None:
            tables = canonical_pick(F)[1]
        tables = dense(F, tables)
        files.append((F, tables, write(F, tables)))
    for F, base in ((gf[5], G.matrix_algebra(2)), (Q, G.upper_triangular(2))):
        base = G.normalized(F, base)
        tables = G.perturbed(F, rng, (base, base))
        files.append((F, tables, write(F, tables)))
    for F, tables, path in files:
        valid = not O.law_violations(F, *tables)
        text = _check_text(F, tables)
        cmds.append(Command("check", [path], props(F, valid), 0 if valid else 1,
                            lambda out, text=text: out == text))
    for F, tables, path in files[:2]:
        text = _info_text(F, tables)
        cmds.append(Command("info", [path], props(F), 0, lambda out, text=text: out == text))
        want = dict(_fp_pairs(F, tables))
        cmds.append(Command("info", [path, "--json"], props(F), 0,
                            lambda out, want=want: json.loads(out) == want))

    # classify2 on rebased canonical forms over Q and GF(2/3/5/7)
    for index, F in enumerate((Q, gf[2], gf[3], gf[5], gf[7])):
        label, tables = canonical_pick(F)
        tables = dense(F, tables)
        path = write(F, tables)
        as_json = index == 0

        def check(out, F=F, tables=tables, label=label, as_json=as_json):
            if as_json:
                rec = json.loads(out)
                return G.label_ok(F, tables, rec["label"], label,
                                 [[F.coeff(c) for c in row] for row in rec["witness"]])
            lines = out.splitlines()
            return lines[1] == "witness:" and G.label_ok(
                F, tables, lines[0], label, _parse_matrix(F, lines[2:])
            )

        cmds.append(Command("classify2", [path] + (["--json"] if as_json else []),
                            props(F), 0, check))

    # iso: isomorphic and non-isomorphic pairs in dims 2-3, and one refusal
    def iso(F, a, b, isomorphic, refusal=False):
        pa, pb = write(F, a), write(F, b)

        def check(out, F=F, a=a, b=b):
            lines = out.splitlines()
            if refusal:
                return lines[0].startswith("UNSUPPORTED: ")
            if not isomorphic:
                return out == "NOT ISOMORPHIC\n"
            return lines[0] == "ISOMORPHIC" and O.is_isomorphism(F, a, b, _parse_matrix(F, lines[1:]))

        code = 2 if refusal else (0 if isomorphic else 1)
        cmds.append(Command("iso", [pa, pb], props(F, refusal=refusal), code, check))

    F = gf[5]
    label, tables = canonical_pick(F)
    iso(F, dense(F, tables), dense(F, tables), True)
    F = gf[7]
    k1, k2 = rng.sample(range(1, F.p), 2)
    iso(F, dense(F, G.canonical("II_", F, k1)), dense(F, G.canonical("II_", F, k2)), False)
    # The few heavy verbs (a GL(3, 3) scan, the GF(3) census) run twice a
    # round, so that the tail percentile falls among them and not at the
    # seam with the import-bound verbs.
    for p in (2, 3, 3):
        g = G.normalized(gf[p], G.upper_triangular(2))
        iso(gf[p], dense(gf[p], (g, g)), dense(gf[p], (g, g)), True)
    split = G.table(2, G.FROM_ASSOCIATIVE_2["split"])
    iso(Q, (split, split), dense(Q, (split, split)), False, refusal=True)

    # leibniz, op and quotient by a known ideal (the annihilator)
    g, d = G.upper_corner_derivation(Q, 2, rng.choice((1, 2, -1)))
    fd = dense(Q, G.from_differential(Q, g, d))
    path = write(Q, fd)
    want = O.leibniz(Q, *fd)
    cmds.append(Command("leibniz", [path], props(Q), 0,
                        lambda out: O.parse(out)[1]["left"] == want))
    F = gf[5]
    tables = dense(F, canonical_pick(F)[1])
    path = write(F, tables)
    want_op = O.opposite(*tables)
    cmds.append(Command("op", [path], props(F), 0,
                        lambda out: tuple(O.parse(out)[1].values()) == want_op))
    basis, pivots = O.annihilator(Q, *fd)
    quot = O.quotient(Q, *fd, basis, pivots)[0]
    ideal = ";".join(",".join(str(c) for c in row) for row in basis)
    cmds.append(Command("quotient", [write(Q, fd), "--ideal", ideal], props(Q), 0,
                        lambda out: tuple(O.parse(out)[1].values()) == quot))

    for p in (2, 3, 3):
        cmds.append(Command("census", ["--prime", str(p)], props(gf[p]), 0,
                            lambda out, p=p: G.census_ok(p, out, aut_orders)))
    if smoke:
        keep = {"check", "info", "classify2", "iso", "census"}
        seen = set()
        cmds = [c for c in cmds if c.verb in keep and not (c.verb in seen or seen.add(c.verb))]
    return cmds


def run_round(cmds, rng, recorder, outputs, trace_dir=None):
    """Run every command once, in a seeded order, one subprocess at a time."""
    order = list(cmds)
    rng.shuffle(order)
    env = dialg_env()
    for index, cmd in enumerate(order):
        recorder.calibrate()
        if trace_dir is None:
            argv = python("-m", "dialg.cli", cmd.verb, *cmd.args)
        else:
            summary = trace_dir / f"cli{index}.json"
            argv = python("-X", "importtime", str(BENCH / "cli_boot.py"), str(summary),
                          cmd.verb, *cmd.args)
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              cwd=WORK.parent, timeout=120)
        latency = time.perf_counter() - start
        first = outputs.setdefault(cmd.key, proc.stdout)

        def check(outcome, cmd=cmd, first=first):
            code, out = outcome.value
            return code == cmd.code and out == first and cmd.check(out)

        recorder.record(id(cmd), cmd.verb, cmd.props, latency, check,
                        Outcome(None, (proc.returncode, proc.stdout)))
