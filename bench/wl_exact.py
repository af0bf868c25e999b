"""`exact`: in-process Scalar/Vec/Mat work over Q and GF(p ~ 10^4).

Inputs are valid dialgebras (from-associative of M_k, T_k and direct sums,
from-differential, dimension-2 canonical forms), sparse as built or dense
after a rebase by a random {-1, 0, 1} matrix, and about a quarter with one
perturbed constant. No op reaches gfsearch or numpy, and no exhaustive
search applies at p ~ 10^4.
"""

from __future__ import annotations

import random
import time

import gen as G
import oracle as O
from common import Outcome, expect

WHY = (
    "The Scalar/Vec/Mat path that the exact tensor kernel rewrites: Q against GF(p) and sparse "
    "against dense separate skipping zeros from changing the number representation, and valid "
    "against perturbed inputs separate the all-pass law check from witness building."
)
OPS = ("roundtrip", "check", "fingerprint", "rebase", "opposite", "leibniz", "quotient")

# (family, dense, perturbed) per field. Dense tables stay small over Q, where
# a dense dim-9 check already takes seconds; the dim-16 sparse table runs over
# GF(p) only for the same reason.
SLOTS_Q = [
    ("M2", False, False), ("T3", False, True), ("T2+M2", False, False), ("T2+0", False, False),
    ("fd-T3", False, False), ("can2", False, False), ("can2", False, True),
    ("T4", False, True), ("T2", True, False), ("M2", True, False), ("fd-T3", True, True),
    ("T2+0", True, False),
]
SLOTS_P = [
    ("M2", False, True), ("T3", False, False), ("T2+M2", False, False), ("T2+0", False, False),
    ("fd-T4", False, False), ("can2", False, True), ("can2", False, False), ("M3", False, True),
    ("M4", False, False),
    ("M2", True, False), ("T2+0", True, True), ("fd-T3", True, False), ("T2+M2", True, False),
]
SMOKE_SLOTS = [("M2", False, False), ("can2", False, True), ("T2", True, False)]


def _family(F, rng, deck, name):
    if name == "can2":
        return G.canonical_instance(F, rng, deck.draw())[1]
    if name.startswith("fd-T"):
        g, d = G.upper_corner_derivation(F, int(name[4:]), rng.choice((1, 2, -1, 3)))
        return G.from_differential(F, g, d)
    parts = []
    for part in name.split("+"):
        if part == "0":
            parts.append(O.zero_table(2))
        elif part[0] == "M":
            parts.append(G.matrix_algebra(int(part[1:])))
        else:
            parts.append(G.upper_triangular(int(part[1:])))
    g = parts[0]
    for h in parts[1:]:
        g = G.direct_sum(g, h)
    g = G.normalized(F, g)
    return g, g


class Input:
    """One generated dialgebra with every answer the oracle expects for it."""

    def __init__(self, F, rng, deck, family, dense, perturb):
        self.F = F
        left, right = _family(F, rng, deck, family)
        n = len(left)
        if dense:
            t, t_inv = G.random_invertible(F, rng, n)
            left, right = G.rebased(F, (left, right), t, t_inv)
        if perturb:
            left, right = G.perturbed(F, rng, (left, right))
        self.tables = (left, right)
        self.violations = list(O.law_violations(F, left, right).items())
        valid = not self.violations
        self.props = {
            "field": "Q" if F.p is None else "GF(p)",
            "regime": "dense" if dense else "sparse",
            "validity": "valid" if valid else "invalid",
            "dim": n,
        }
        self.text = O.serialize(F, self.tables)
        self.fingerprint = O.fingerprint(F, left, right)
        self.t, t_inv = G.random_invertible(F, rng, n)
        self.rebased = G.rebased(F, self.tables, self.t, t_inv)
        self.opposite = O.opposite(left, right)
        self.leibniz = O.leibniz(F, left, right) if valid else None
        basis, pivots = O.annihilator(F, left, right)
        self.ideal = O.is_ideal(F, left, right, basis, pivots)
        self.quotient = O.quotient(F, left, right, basis, pivots) if self.ideal else None


def build(seed, smoke):
    rng = random.Random(seed)
    p = rng.choice(G.PRIME_NEAR_10K)
    if smoke:
        plan = [(G.Q, SMOKE_SLOTS), (O.RawField(p), SMOKE_SLOTS)]
    else:
        plan = [(G.Q, SLOTS_Q), (O.RawField(p), SLOTS_P)]
    deck = G.Deck(rng, G.LABELS + ["from-associative"])
    return [Input(F, rng, deck, *slot) for F, slots in plan for slot in slots]


def _ops(inp):
    """(name, thunk, normalize output, expected error, expected value) per op."""
    import dialg

    import adapt as A

    d = A.dialgebra(inp.F, *inp.tables)
    t = A.mat(inp.F, inp.t)

    def roundtrip():
        text = dialg.serialize_dialgebra(d)
        return text, dialg.parse_dialgebra(text)

    def quotient():
        return dialg.quotient(d, dialg.annihilators(d).ann)

    def norm_roundtrip(v):
        return v[0], A.raw_tables(v[1])

    def norm_check(reports):
        return [((r.law, r.triple), A.raw_vec(r.residual)) for r in reports]

    def norm_quotient(v):
        return A.raw_tables(v[0]), A.raw_mat(v[1])

    return [
        ("roundtrip", roundtrip, norm_roundtrip, None, (inp.text, inp.tables)),
        ("check", lambda: dialg.check_dialgebra(d), norm_check, None, inp.violations),
        ("fingerprint", lambda: dialg.fingerprint(d), A.fingerprint_tuple, None, inp.fingerprint),
        ("rebase", lambda: d.rebase(t), A.raw_tables, None, inp.rebased),
        ("opposite", lambda: dialg.opposite(d), A.raw_tables, None, inp.opposite),
        ("leibniz", lambda: dialg.leibniz_bracket(d), lambda a: A.raw_product(a.product),
         None if inp.leibniz is not None else "NotADialgebraError", inp.leibniz),
        ("quotient", quotient, norm_quotient,
         None if inp.ideal else "NotAnIdealError",
         None if inp.quotient is None else (list(inp.quotient[0]), inp.quotient[1])),
    ]


def _normalized(a):
    """Tuples and lists compare alike once both sides are lists."""
    if isinstance(a, (list, tuple)):
        return [_normalized(x) for x in a]
    return a


def round_ops(inputs, rng):
    """Every op on every input, in a seeded order; built outside the timing."""
    ops = []
    for inp in inputs:
        for name, thunk, norm, error, expected in _ops(inp):
            want = _normalized(expected)
            check = expect(error, lambda v, want=want: _normalized(v) == want)
            ops.append((name, inp.props, thunk, norm, check))
    rng.shuffle(ops)
    return ops


def run_round(ops, recorder, tracer=None):
    for index, (name, props, thunk, norm, check) in enumerate(ops):
        if index % 4 == 0:
            recorder.calibrate()
        if tracer is not None:
            tracer.op_id = index
        start = time.perf_counter()
        try:
            value = thunk()
        except Exception as exc:  # checked against the error the input calls for
            latency = time.perf_counter() - start
            outcome = Outcome(type(exc).__name__, None)
        else:
            latency = time.perf_counter() - start
            outcome = Outcome(None, norm(value))
        recorder.record(index, name, props, latency, check, outcome)
