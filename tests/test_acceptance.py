"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they go.
"""

import io
import random
import time
from itertools import combinations, product

from dialg import (
    KIND_FROM_ASSOCIATIVE,
    KIND_I,
    KIND_II,
    KIND_III,
    KIND_IV,
    KIND_TRIVIAL,
    KIND_ZERO_CUBED_LEFT,
    KIND_ZERO_CUBED_RIGHT,
    Dialgebra,
    Field,
    ParamTable,
    ProductTag,
    Subspace,
    Vec,
    ZeroCubedTriple,
    algebra_prime,
    algebra_semiprime,
    algebra_simple,
    annihilators,
    are_isomorphic,
    automorphism_group,
    canonical_dialgebra,
    check_leibniz,
    is_valid_dialgebra,
    classify_dim2,
    dim2_constraints,
    fingerprint,
    from_associative,
    is_isomorphism,
    leibniz_bracket,
    param_dialgebra,
    quotient,
    serialize_dialgebra,
    structure_flags,
    triples_equivalent,
    zero_cubed_build,
    zero_cubed_decompose,
)
from dialg.cli import main as cli_main
from dialg.gfsearch import gl_matrices, int_matrix_to_mat
from helpers import (
    GF2,
    GF3,
    GF5,
    GF7,
    QQ,
    associative_zoo,
    random_invertible,
    random_valid_dialgebras,
    square_algebra,
)

L, R = ProductTag.LEFT, ProductTag.RIGHT


def report(number, name, failures, elapsed, limit=None):
    if limit is not None and elapsed > limit:
        failures.append(f"runtime {elapsed:.2f}s exceeded the {limit}s limit")
    verdict = "PASS" if not failures else "FAIL"
    print(f"[acceptance] criterion {number:2d} ({name}): {verdict} ({elapsed:.2f}s)")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def run_cli(argv):
    buf = io.StringIO()
    code = cli_main(argv, out=buf)
    return code, buf.getvalue()


def all_triples(field, max_total):
    for z in range(max_total + 1):
        for x in range(max_total + 1 - z):
            slots = [(a, b, c) for a in range(x) for b in range(x) for c in range(z)]
            for values in product(range(field.p), repeat=len(slots)):
                entries = {pos: v for pos, v in zip(slots, values) if v}
                yield ZeroCubedTriple.from_entries(field, z, x, entries)


def test_criterion_01_axiom_suite(tmp_path):
    start = time.perf_counter()
    failures = []
    suite = [
        ("I", canonical_dialgebra(KIND_I, QQ)),
        ("II_1", canonical_dialgebra(KIND_II, QQ, 1)),
        ("II_2", canonical_dialgebra(KIND_II, QQ, 2)),
        ("II_3", canonical_dialgebra(KIND_II, QQ, 3)),
        ("II_1_gf2", canonical_dialgebra(KIND_II, GF2, 1)),
        ("III", canonical_dialgebra(KIND_III, QQ)),
        ("IV", canonical_dialgebra(KIND_IV, QQ)),
    ]
    for name, d in suite:
        path = tmp_path / f"{name}.dialg"
        path.write_text(serialize_dialgebra(d))
        code, out = run_cli(["check", str(path)])
        if code != 0 or out != "PASS\n":
            failures.append(f"{name} did not pass check (exit {code})")
    mutated = Dialgebra.from_entries(
        QQ, 2, {(1, 1, 1): 1}, {(1, 0, 1): 1, (1, 1, 1): 1}
    )  # the table of I with s |> r changed to s
    path = tmp_path / "mutated.dialg"
    path.write_text(serialize_dialgebra(mutated))
    code, out = run_cli(["check", str(path)])
    if code != 1 or "FAIL" not in out or "residual" not in out:
        failures.append(f"mutated I not rejected with a witness (exit {code})")
    report(1, "axiom suite", failures, time.perf_counter() - start, limit=1.0)


def test_criterion_02_invariant_table():
    start = time.perf_counter()
    failures = []
    expected = {KIND_I: (1, 2), KIND_III: (2, 1), KIND_IV: (2, 2)}
    for field in (QQ, GF5):
        for kind, dims in expected.items():
            fp = fingerprint(canonical_dialgebra(kind, field))
            got = (fp.dim_left_square, fp.dim_right_square)
            if got != dims:
                failures.append(f"{kind} over {field}: {got} != {dims}")
        for k in (1, 2, 3):
            fp = fingerprint(canonical_dialgebra(KIND_II, field, k))
            if (fp.dim_left_square, fp.dim_right_square) != (1, 1):
                failures.append(f"II_{k} over {field} square dims wrong")
    report(2, "invariant table", failures, time.perf_counter() - start)


def test_criterion_03_classification_stability():
    start = time.perf_counter()
    failures = []
    rng = random.Random(33)
    rational_suite = [
        canonical_dialgebra(KIND_I, QQ),
        canonical_dialgebra(KIND_II, QQ, 1),
        canonical_dialgebra(KIND_II, QQ, 2),
        canonical_dialgebra(KIND_II, QQ, 3),
        canonical_dialgebra(KIND_III, QQ),
        canonical_dialgebra(KIND_IV, QQ),
    ]
    for d in rational_suite:
        base = classify_dim2(d)
        for _ in range(20):
            t = random_invertible(QQ, 2, rng, lo=-3, hi=3)
            label = classify_dim2(d.rebase(t))
            if label.kind != base.kind or label.k != base.k:
                failures.append(f"{base.label_string()} drifted to {label.label_string()}")
    mats, _ = gl_matrices(2, 2)
    gf2_suite = [
        canonical_dialgebra(KIND_I, GF2),
        canonical_dialgebra(KIND_II, GF2, 1),
        canonical_dialgebra(KIND_III, GF2),
        canonical_dialgebra(KIND_IV, GF2),
    ]
    for d in gf2_suite:
        base = classify_dim2(d)
        for g in range(len(mats)):
            label = classify_dim2(d.rebase(int_matrix_to_mat(GF2, mats[g])))
            if label.kind != base.kind or label.k != base.k:
                failures.append(f"GF(2) {base.label_string()} drifted to {label.label_string()}")
    report(3, "classification stability", failures, time.perf_counter() - start, limit=10.0)


def _clear_search_caches():
    from dialg.gfsearch import gl_matrices, valid_pairs

    gl_matrices.cache_clear()
    valid_pairs.cache_clear()


def test_criterion_04_gf2_census():
    # Timed from a cold cache so the enumeration itself is measured.
    _clear_search_caches()
    start = time.perf_counter()
    from dialg import census, enumerate_valid_dialgebras

    census_gf2 = census(2)
    valid_gf2 = list(enumerate_valid_dialgebras(2))
    failures = []
    allowed = {
        KIND_TRIVIAL,
        KIND_ZERO_CUBED_LEFT,
        KIND_ZERO_CUBED_RIGHT,
        KIND_FROM_ASSOCIATIVE,
        KIND_I,
        KIND_II,
        KIND_III,
        KIND_IV,
    }
    counts = {}
    for cls in census_gf2:
        kind = cls.label.kind
        if kind not in allowed:
            failures.append(f"unexpected label {cls.label.label_string()}")
        counts[kind] = counts.get(kind, 0) + 1
    for named in (KIND_I, KIND_II, KIND_III, KIND_IV):
        if counts.get(named, 0) != 1:
            failures.append(f"label {named} appears {counts.get(named, 0)} times, expected 1")
    if sum(cls.orbit_size for cls in census_gf2) != len(valid_gf2):
        failures.append("orbit sizes do not add up to the number of valid dialgebras")
    report(4, "GF(2) dim-2 census", failures, time.perf_counter() - start, limit=60.0)


def test_criterion_05_II_k_complete_invariant():
    _clear_search_caches()
    start = time.perf_counter()
    failures = []
    mats, _ = gl_matrices(7, 2)
    if len(mats) != 2016:
        failures.append(f"GL(2, 7) scan has {len(mats)} matrices, expected 2016")
    for k1, k2 in combinations(range(1, 7), 2):
        a = canonical_dialgebra(KIND_II, GF7, k1)
        b = canonical_dialgebra(KIND_II, GF7, k2)
        if are_isomorphic(a, b) is not None:
            failures.append(f"II_{k1} and II_{k2} reported isomorphic over GF(7)")
    rng = random.Random(5)
    for k in range(1, 7):
        d = canonical_dialgebra(KIND_II, GF7, k)
        conj = d.rebase(random_invertible(GF7, 2, rng))
        w = are_isomorphic(d, conj)
        if w is None or not is_isomorphism(d, conj, w):
            failures.append(f"II_{k} not matched with its own conjugate")
    report(5, "II_k complete invariant over GF(7)", failures, time.perf_counter() - start, limit=30.0)


def test_criterion_06_no_perfect_zero_cubed_algebras():
    start = time.perf_counter()
    failures = []
    for field, max_total in ((GF2, 3), (GF3, 2)):
        for t in all_triples(field, max_total):
            built = zero_cubed_build(t)
            if built.dim == 0:
                continue
            tag = f"{field} z={t.z_dim} x={t.x_dim}"
            if algebra_semiprime(built):
                failures.append(f"{tag}: semiprime zero-cubed algebra found")
            if algebra_prime(built):
                failures.append(f"{tag}: prime zero-cubed algebra found")
            if algebra_simple(built):
                failures.append(f"{tag}: simple zero-cubed algebra found")
    report(6, "zero-cubed algebras are never perfect", failures, time.perf_counter() - start)


def test_criterion_07_annihilator_properties(valid_gf2):
    start = time.perf_counter()
    failures = []
    from dialg import is_ideal

    pool = valid_gf2 + random_valid_dialgebras(100, seed=2024)
    for idx, d in enumerate(pool):
        prof = annihilators(d)
        full = Subspace.full(d.field, d.dim)
        units = [Vec.unit(d.field, d.dim, i) for i in range(d.dim)]
        if not is_ideal(d, prof.rann_left):
            failures.append(f"#{idx}: right annihilator of <| is not an ideal")
        if not is_ideal(d, prof.lann_right):
            failures.append(f"#{idx}: left annihilator of |> is not an ideal")
        for y in units:
            for z in units:
                if not prof.ann.contains(d.multiply(L, y, z) - d.multiply(R, y, z)):
                    failures.append(f"#{idx}: product difference escaped the annihilator")
        if d.product_subspace(L, full, full) == full:
            quot, _ = quotient(d, prof.rann_left)
            if annihilators(quot).rann_left.dim != 0:
                failures.append(f"#{idx}: quotient kept a nonzero right annihilator")
        if prof.rann_left == full:
            if not d.left.is_zero():
                failures.append(f"#{idx}: full right annihilator but nonzero left product")
            right_square = d.product_subspace(R, full, full)
            if (
                d.product_subspace(R, full, right_square).dim != 0
                or d.product_subspace(R, right_square, full).dim != 0
            ):
                failures.append(f"#{idx}: right product is not zero-cubed")
        if prof.rann_left.dim == 0 and not d.products_equal():
            failures.append(f"#{idx}: trivial right annihilator but distinct products")
        if failures:
            break
    report(7, "annihilator property suite", failures, time.perf_counter() - start)


def test_criterion_08_perfection_collapse(valid_gf2, valid_gf3):
    start = time.perf_counter()
    failures = []
    for pool_name, pool in (("GF(2)", valid_gf2), ("GF(3)", valid_gf3)):
        for idx, d in enumerate(pool):
            flags = structure_flags(d)
            chains = (
                ("simple", flags.simple_left, flags.simple_right),
                ("semiprime", flags.semiprime_left, flags.semiprime_right),
                ("prime", flags.prime_left, flags.prime_right),
            )
            for name, fl, fr in chains:
                if fl != fr or fl != (flags.products_equal and fl):
                    failures.append(f"{pool_name} #{idx}: {name} chain broken")
            if failures:
                break
    report(8, "perfection collapses to equal products", failures, time.perf_counter() - start)


def test_criterion_09_constraint_system_matches_the_laws():
    start = time.perf_counter()
    failures = []
    for field in (GF2, GF3, GF5):
        scalars = field.elements()
        for values in product(scalars, repeat=6):
            t = ParamTable(*values)
            by_polynomials = not any(dim2_constraints(t))
            by_laws = is_valid_dialgebra(param_dialgebra(t))
            if by_polynomials != by_laws:
                failures.append(
                    f"{field}: parameters {[str(v) for v in values]} "
                    f"polynomials={by_polynomials} laws={by_laws}"
                )
        if failures:
            break
    report(9, "parameter constraints match direct law checks", failures, time.perf_counter() - start, limit=10.0)


def test_criterion_10_automorphism_groups():
    start = time.perf_counter()
    failures = []
    for p in (2, 3, 5):
        field = Field.prime(p)
        d = from_associative(square_algebra(field))
        auts = automorphism_group(d)
        if len(auts) != p * (p - 1):
            failures.append(f"GF({p}): group order {len(auts)} != {p * (p - 1)}")
        for t in auts:
            if t.entry(0, 1) or t.entry(0, 0) != t.entry(1, 1) * t.entry(1, 1):
                failures.append(f"GF({p}): automorphism without the lower-triangular square shape")
                break
    report(10, "automorphisms of the square-type algebra", failures, time.perf_counter() - start)


def test_criterion_11_leibniz_functor(valid_gf2, valid_gf3):
    start = time.perf_counter()
    failures = []
    pool = valid_gf2 + valid_gf3 + random_valid_dialgebras(50, seed=7)
    for idx, d in enumerate(pool):
        if check_leibniz(leibniz_bracket(d)):
            failures.append(f"#{idx}: bracket fails the Leibniz identity")
            break
    for field in (QQ, GF3):
        for alg in associative_zoo(field):
            bracket = leibniz_bracket(from_associative(alg))
            for i in range(alg.dim):
                for j in range(alg.dim):
                    commutator = alg.product.row(i, j) - alg.product.row(j, i)
                    if bracket.product.row(i, j) != commutator:
                        failures.append(f"{field}: bracket is not the commutator at ({i}, {j})")
    report(11, "Leibniz bracket functor", failures, time.perf_counter() - start)


def test_criterion_12_zero_cubed_round_trip():
    start = time.perf_counter()
    failures = []
    triples = list(all_triples(GF2, 3))
    canonical = []
    for t in triples:
        built = zero_cubed_build(t)
        t2, witness = zero_cubed_decompose(built)
        if built.rebase(witness) != zero_cubed_build(t2):
            failures.append(f"rebuild mismatch at z={t.z_dim} x={t.x_dim}")
        if t.radical().dim == 0:
            canonical.append(t)
    # Equivalence of canonical pairings must agree with isomorphism of the
    # algebras they build; pairings with a radical decompose to different
    # block sizes, so the correspondence only binds the canonical ones.
    for t1 in canonical:
        a1 = from_associative(zero_cubed_build(t1))
        for t2 in canonical:
            a2 = from_associative(zero_cubed_build(t2))
            equivalent = triples_equivalent(t1, t2) is not None
            if a1.dim == a2.dim:
                isomorphic = are_isomorphic(a1, a2) is not None
            else:
                isomorphic = False
            if equivalent != isomorphic:
                failures.append(
                    f"(z={t1.z_dim},x={t1.x_dim}) vs (z={t2.z_dim},x={t2.x_dim}): "
                    f"equivalent={equivalent} isomorphic={isomorphic}"
                )
    report(12, "zero-cubed decomposition round trip", failures, time.perf_counter() - start)
