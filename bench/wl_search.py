"""`search`: GF(p) exhaustive work, one fresh interpreter per session.

Sessions run one at a time and start cold, so gfsearch's lru caches are
empty as they are for a CLI or script user; within a session, later scans
reuse the GL tables that earlier ones built, as in a library session.
"""

from __future__ import annotations

import json
import random
import subprocess
from collections import Counter

import gen as G
import oracle as O
from common import BENCH, WORK, Outcome, dec, dialg_env, enc, expect, python

WHY = (
    "The numpy residue path and the subspace enumeration that GL construction, principal-ideal "
    "search and orbit screening change; the exact workload bypasses all of it."
)

SAMPLE_PAIRS = 24


def _flags(simple, semiprime, prime):
    return [simple, simple, semiprime, semiprime, prime, prime]


def build(seed, smoke):
    """The op list of one session: [(kind, props, spec, check)]."""
    rng = random.Random(seed)
    gf = {p: O.RawField(p) for p in (2, 3, 5, 7)}
    ops = []
    aut_orders = {}

    def props(F, refusal=False):
        return {
            "field": "Q" if F.p is None else "GF(p)",
            "refusal": "documented" if refusal else "none",
        }

    def moved(F, tables):
        if F.p is None:
            t, t_inv = G.random_invertible(F, rng, len(tables[0]))
        else:
            t, t_inv = G.random_invertible(F, rng, len(tables[0]), None)
        return G.rebased(F, tables, t, t_inv)

    def canonical_pick(F, deck):
        return G.canonical_instance(F, rng, deck.draw())

    def assoc(F, g):
        g = G.normalized(F, g)
        return g, g

    # census and the GF(5) valid-pair scan
    for p in (2, 3):
        ops.append(("census", props(gf[p]), {"kind": "census", "p": p},
                    expect(None, lambda out, p=p: G.census_ok(p, _census_lines(out), aut_orders))))
    if not smoke:
        def pairs_ok(out):
            pairs = [tuple(x) for x in out]
            if len(pairs) != G.VALID_PAIRS[5] or pairs != sorted(set(pairs)):
                return False
            picks = random.Random(seed).sample(pairs, SAMPLE_PAIRS)
            return all(not O.law_violations(gf[5], *map(_tensor(5, 2), pair)) for pair in picks)

        ops.append(("valid_pairs", props(gf[5]), {"kind": "valid_pairs", "p": 5, "n": 2},
                    expect(None, pairs_ok)))

    # classify_dim2 over every valid GF(3) dialgebra, and on known labels
    def classify_all_ok(out):
        """Every valid table once, each label proven by its witness, and each
        canonical label held by |GL(2, 3)| / |Aut| tables (orbit-stabilizer)."""
        if len(out) != G.VALID_PAIRS[3]:
            return False
        F = gf[3]
        seen = set()
        labels = Counter()
        for left, right, label, witness in out:
            tables = (dec(F, left), dec(F, right))
            key = json.dumps(tables)
            if key in seen or O.law_violations(F, *tables):
                return False
            seen.add(key)
            labels[label] += 1
            if not G.label_ok(F, tables, label, label, dec(F, witness)):
                return False
        for label, count in labels.items():
            if label == "from-associative":
                continue
            k = label[3:] if label.startswith("II_") else None
            canon = G.canonical(label, F, int(k) if k else None)
            key = json.dumps([3, canon])
            if key not in aut_orders:
                aut_orders[key] = O.automorphism_count(F, canon)
            if count * aut_orders[key] != G.gl_order(3, 2):
                return False
        return True

    ops.append(("classify_all", props(gf[3]), {"kind": "classify_all", "p": 3},
                expect(None, classify_all_ok)))
    deck = G.Deck(rng)
    for p in (2, 3, 5, 7) if not smoke else (3,):
        for _ in range(2 if not smoke else 1):
            F = gf[p]
            label, tables = canonical_pick(F, deck)
            tables = moved(F, tables)
            ops.append(("classify", props(F), {"kind": "classify", "p": p, "a": enc(tables)},
                        expect(None, lambda out, F=F, tables=tables, label=label:
                               G.label_ok(F, tables, out[0], label, dec(F, out[1])))))

    # automorphism groups and isomorphism tests in dims 2-4
    def aut(F, tables, order):
        def check(out):
            mats = [dec(F, m) for m in out]
            keys = {json.dumps(m) for m in mats}
            return (len(mats) == order and len(keys) == order
                    and all(O.is_isomorphism(F, tables, tables, m) for m in mats))

        ops.append(("aut", props(F), {"kind": "aut", "p": F.p, "a": enc(tables)}, expect(None, check)))

    def iso(F, a, b, isomorphic):
        def check(out):
            if not isomorphic:
                return out is None
            return out is not None and O.is_isomorphism(F, a, b, dec(F, out))

        ops.append(("iso", props(F), {"kind": "iso", "p": F.p, "a": enc(a), "b": enc(b)},
                    expect(None, check)))

    # The many light ops: dim-2 GL(2, 5) scans are most of them, one per
    # label, so that the median op is one of a block of like ops and not the
    # seam between kinds.
    for p, repeats in ((5, len(G.LABELS)), (7, 1)) if not smoke else ((5, 1),):
        F = gf[p]
        deck = G.Deck(rng)
        for _ in range(repeats):
            _, tables = canonical_pick(F, deck)
            base = tables
            tables = moved(F, tables)
            aut(F, tables, O.automorphism_count(F, base))
            iso(F, tables, moved(F, base), True)
            k1, k2 = rng.sample(range(1, p), 2)
            iso(F, moved(F, G.canonical("II_", F, k1)), moved(F, G.canonical("II_", F, k2)), False)
    if not smoke:
        # |Aut| of the dialgebra of T_2 is p(p - 1) (inner automorphisms by
        # invertible upper-triangular matrices modulo scalars) and of M_2 it
        # is |PGL(2, p)| (Skolem-Noether).
        for p in (2, 3):
            F = gf[p]
            t2 = assoc(F, G.upper_triangular(2))
            aut(F, moved(F, t2), p * (p - 1))
            iso(F, moved(F, t2), moved(F, t2), True)
        # GL(4, 2) is built cold by its own op. Its cost moves by a quarter
        # from session to session (it allocates), so it is kept apart from
        # the two warm GL(4, 2) scans, among which the tail percentile falls.
        F = gf[2]
        n, count = 4, G.gl_order(2, 4)
        picks = sorted(rng.sample(range(count), 12))

        def gl_ok(out, F=F, count=count):
            mats = [m for m, _ in out["sample"]]
            return (out["count"] == count
                    and all(a < b for a, b in zip(mats, mats[1:]))
                    and all(O.inverse(F, m) == inv for m, inv in out["sample"]))

        ops.append(("gl_matrices", props(F), {"kind": "gl_matrices", "p": 2, "n": n, "picks": picks},
                    expect(None, gl_ok)))
        m2 = assoc(F, G.matrix_algebra(2))
        aut(F, moved(F, m2), G.gl_order(2, 2))
        iso(F, moved(F, m2), moved(F, m2), True)

    # structure_flags on algebras with known answers: M_2 is simple, T_n is
    # not semiprime, products of simple algebras are semiprime but not prime,
    # zero-cubed algebras are never perfect. The answers hold in any basis;
    # the two largest cases stay in the basis as built, because their cost
    # (every subspace of GF(2)^6 and GF(2)^7 is tested) moves by a third
    # with the density a random basis gives.
    one = G.table(1, {(0, 0, 0): 1})
    flag_cases = [
        (2, G.matrix_algebra(2), _flags(True, True, True), True),
        (2, G.direct_sum(G.matrix_algebra(2), one), _flags(False, True, False), True),
        (2, G.upper_triangular(3), _flags(False, False, False), False),
        (2, G.direct_sum(G.matrix_algebra(2), G.upper_triangular(2)), _flags(False, False, False), False),
        (3, _split(2), _flags(False, True, False), True),
        (3, G.upper_triangular(2), _flags(False, False, False), True),
        (3, "zero-cubed", _flags(False, False, False), True),
        (3, G.direct_sum(G.matrix_algebra(2), one), _flags(False, True, False), True),
    ]
    if smoke:
        flag_cases = [(2, G.matrix_algebra(2), _flags(True, True, True), True),
                      (3, _split(2), _flags(False, True, False), True)]
    for p, g, want, rebase in flag_cases:
        F = gf[p]
        g = G.zero_cubed(F, rng, 2, 2) if g == "zero-cubed" else g
        tables = assoc(F, g)
        if rebase:
            tables = moved(F, tables)
        ops.append(("flags", props(F), {"kind": "flags", "p": p, "a": enc(tables)},
                    expect(None, lambda out, want=want: out == want)))

    # documented refusals
    t2q = assoc(G.Q, G.upper_triangular(2))
    ops.append(("flags", props(G.Q, True), {"kind": "flags", "p": None, "a": enc(t2q)},
                expect(None, lambda out: out == [None] * 6)))
    if not smoke:
        ops.append(("iso", props(G.Q, True),
                    {"kind": "iso", "p": None, "a": enc(t2q), "b": enc(moved(G.Q, t2q))},
                    expect("UnsupportedOverRationalsError", None)))
        t27 = assoc(gf[7], G.upper_triangular(2))
        ops.append(("aut", props(gf[7], True), {"kind": "aut", "p": 7, "a": enc(t27)},
                    expect("SearchBoundExceededError", None)))
    return _interleaved(ops, rng)


def _interleaved(ops, rng):
    """Deal the light ops (dim <= 2, refusals) evenly between the heavier ones,
    which keep their order, so the light ops sample the whole session."""
    def light(op):
        spec = op[2]
        return "a" in spec and (len(spec["a"][0]) <= 2 or op[1]["refusal"] != "none")

    heavy = [op for op in ops if not light(op)]
    rest = [op for op in ops if light(op)]
    rng.shuffle(rest)
    out = []
    for index, op in enumerate(heavy):
        out.append(op)
        out += rest[index * len(rest) // len(heavy):(index + 1) * len(rest) // len(heavy)]
    return out


def _split(n):
    return G.table(n, {(i, i, i): 1 for i in range(n)})


def _tensor(p, n):
    """Index into gfsearch's lexicographic enumeration -> table (first entry most significant)."""

    def decode(index):
        digits = []
        for _ in range(n**3):
            index, r = divmod(index, p)
            digits.append(r)
        digits.reverse()
        return [[digits[(i * n + j) * n:(i * n + j + 1) * n] for j in range(n)] for i in range(n)]

    return decode


def _census_lines(out):
    """Session census output as the CLI's JSON lines, so one check serves both."""
    return "".join(
        json.dumps({"label": label, "left": _ints(left), "right": _ints(right), "orbit_size": orbit}) + "\n"
        for label, left, right, orbit in out
    )


def _ints(g):
    return [[[int(c) for c in v] for v in row] for row in g]


def run_session(ops, recorder, trace_summary=None):
    """Run the ops in one fresh interpreter; returns (import_s, numpy_loaded, maxrss_mb)."""
    plan_path = WORK / "search-plan.json"
    plan_path.write_text(json.dumps([spec for _, _, spec, _ in ops]), encoding="utf-8")
    argv = python(str(BENCH / "session.py"), str(plan_path),
                  "1" if trace_summary else "0", str(trace_summary or ""))
    proc = subprocess.run(argv, capture_output=True, text=True, env=dialg_env(),
                          cwd=WORK.parent, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"search session failed: {proc.stderr.strip()[-800:]}")
    record = json.loads(proc.stdout.splitlines()[-1])
    base = len(recorder.cal)
    recorder.cal += record["calibration"]  # one sample right before each op
    for index, ((kind, props, _, check), res) in enumerate(zip(ops, record["results"])):
        recorder.record(index, kind, props, res["latency"], check,
                        Outcome(res["error"], res["out"]), cal_index=base + index + 1)
    return record["import_s"], record["numpy_loaded"], record["maxrss_mb"]
