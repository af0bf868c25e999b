"""Tests of the benchmark itself: the oracle against dialg, smoke runs of
every workload, fault injection and the traced run.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import pytest

import gen as G
import oracle as O
import wl_exact
from common import ROOT, Recorder
from layers import MODULES, PER_LAYER, layer_metrics, merge
from run import END_TO_END

GF5 = O.RawField(5)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def _last_json(stdout):
    return json.loads(stdout.splitlines()[-1])


@pytest.mark.parametrize("seed", [3, 4])
def test_oracle_agrees_with_dialg_on_generated_inputs(seed):
    inputs = wl_exact.build(seed, smoke=True)
    recorder = Recorder()
    wl_exact.run_round(wl_exact.round_ops(inputs, random.Random(seed)), recorder)
    assert recorder.attempted == len(inputs) * len(wl_exact.OPS)
    assert recorder.failed == 0, recorder.failures


@pytest.mark.parametrize("F", [G.Q, O.RawField(10007)])
def test_perturbed_table_is_caught(F):
    import adapt as A
    import dialg

    g = G.normalized(F, G.upper_triangular(3))
    assert not O.law_violations(F, g, g)
    for seed in range(5):
        bad = G.perturbed(F, random.Random(seed), (g, g))
        expected = list(O.law_violations(F, *bad).items())
        assert expected
        got = dialg.check_dialgebra(A.dialgebra(F, *bad))
        assert [((r.law, r.triple), A.raw_vec(r.residual)) for r in got] == expected


def test_oracle_rejects_wrong_outputs():
    F = GF5
    rng = random.Random(1)
    g = G.normalized(F, G.matrix_algebra(2))
    t, t_inv = G.random_invertible(F, rng, 4, None)
    moved = G.rebased(F, (g, g), t, t_inv)
    # The rows of t are the new basis in old coordinates, so t maps the
    # rebased algebra onto the original one.
    assert O.is_isomorphism(F, moved, (g, g), t)
    wrong = [row[:] for row in t]
    wrong[0][0] = (wrong[0][0] + 1) % 5
    assert not O.is_isomorphism(F, moved, (g, g), wrong)
    assert G.rebased(F, moved, t_inv, t) == (g, g)
    assert O.fingerprint(F, *moved) == O.fingerprint(F, g, g)


def test_automorphism_orders_used_as_known_answers():
    for p in (2, 3):
        F = O.RawField(p)
        t2 = G.normalized(F, G.upper_triangular(2))
        assert O.automorphism_count(F, (t2, t2)) == p * (p - 1)
    F = O.RawField(2)
    m2 = G.normalized(F, G.matrix_algebra(2))
    assert O.automorphism_count(F, (m2, m2)) == G.gl_order(2, 2)


@pytest.mark.parametrize("workload", ["cli", "exact", "search"])
def test_smoke_prints_every_metric_and_catches_an_injected_fault(workload):
    ok = _run("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0", "--smoke")
    assert ok.returncode == 0, ok.stderr
    result = _last_json(ok.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(END_TO_END)
    for name, unit in END_TO_END:
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in ok.stdout.splitlines())
    record = json.loads(ok.stdout.splitlines()[-2])
    assert record["fail_ratio"] == {"value": 0.0, "unit": "fraction"}

    bad = _run("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0",
               "--smoke", "--inject-fault")
    assert bad.returncode == 0, bad.stderr
    result = _last_json(bad.stdout)
    assert not result["correct"] and result["failed"] >= 1
    assert json.loads(bad.stdout.splitlines()[-2])["fail_ratio"]["value"] > 0


@pytest.mark.parametrize("workload", ["cli", "exact", "search"])
def test_traced_smoke_reports_every_per_layer_metric(workload):
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(PER_LAYER)
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert json.loads(proc.stdout.splitlines()[-2])["absent_per_layer"] == []


def test_removed_names_are_reported_absent():
    values, absent = layer_metrics(merge([]), {"import.dialg_s": 0.1})
    assert set(values) == {name for name, _ in PER_LAYER}
    assert "algebras.apply.calls" in absent and "gfsearch.gl_kept" in absent
    assert not {f"{m}.{k}" for m in MODULES for k in ("calls", "self_s")} & set(absent)


def test_wrappers_replace_copied_bindings():
    code = (
        "import layers; t = layers.Tracer(); t.install()\n"
        "import dialg, dialg.identities, dialg.classify, dialg.gfsearch\n"
        "assert dialg.check_dialgebra is dialg.identities.check_dialgebra\n"
        "assert dialg.classify.gl_matrices is dialg.gfsearch.gl_matrices\n"
        "assert hasattr(dialg.gfsearch.gl_matrices, 'cache_clear')\n"
        "dialg.census(2)\n"
        "s = t.summary()\n"
        "assert s['calls']['classify.census'] == 1 and s['counts']['classify.census.classes'] == 13\n"
        "assert s['counts']['gfsearch.pairs_valid'] == 49\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=ROOT / "bench", env={"PYTHONPATH": str(ROOT / "src")}, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
