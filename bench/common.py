"""Paths, op accounting and the import-time probes shared by the workloads."""

from __future__ import annotations

import gc
import os
import re
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BENCH = Path(__file__).resolve().parent


def dialg_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("DIALG_SEARCH_BOUND", None)  # the default bound is part of the workload
    return env


def python(*args):
    return [sys.executable, *args]


# Seconds the calibration sample takes on the reference machine when it is
# quiet (2-core Xeon VM, Python 3.11). Times are reported at that speed.
REFERENCE_SAMPLE_S = 0.0048


def calibration_sample():
    """Seconds for a fixed slice of pure-Python exact arithmetic and
    allocation, the kind of work dialg does, independent of dialg.

    The collector is off while it runs, so the sample does not depend on how
    many objects the workload keeps alive.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = Fraction(0)
        rows = []
        for i in range(1, 500):
            acc += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(3, 4)
            rows.append(tuple((i * j) % 10007 for j in range(8)))
        sizes = {row: len(row) for row in rows}
        if len(sizes) > len(rows):  # keeps the work from being optimised away
            raise AssertionError
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def speed_factor(samples):
    """Reference seconds per measured second, from calibration samples taken
    next to the measurement."""
    return REFERENCE_SAMPLE_S / median(samples)


# Calibration samples on each side of an op that set its speed factor.
WINDOW = 8


class Recorder:
    """Latency, outcome and input properties of every op attempted.

    A shared host drifts in CPU speed (the reference machine, a 2-core Xeon
    VM, by a third over minutes). Calibration samples are therefore taken
    between the ops, and each latency is reported at the reference speed:
    the raw latency times the speed factor of the samples taken just before
    and after it. Raw values stay available.
    """

    def __init__(self, inject_fault=False):
        self.ops = []  # (op identity, kind, raw seconds, calibration samples taken before it)
        self.cal = []  # calibration sample seconds, in the order taken
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.props = Counter()
        self.inject_fault = inject_fault

    def calibrate(self, count=1):
        self.cal.extend(calibration_sample() for _ in range(count))

    def record(self, op, kind, props, latency, check, output, cal_index=None):
        """Check `output` with `check` (True when correct) and account for op `op`.

        With fault injection the first op's output is damaged before its
        check, so a check that works must fail it.
        """
        if self.inject_fault and self.attempted == 0:
            output = damage(output)
        self.attempted += 1
        for key, value in props.items():
            self.props[f"{key}={value}"] += 1
        self.ops.append((op, kind, latency, len(self.cal) if cal_index is None else cal_index))
        try:
            ok = bool(check(output))
        except Exception as exc:  # a malformed output is a failed check
            ok = False
            output = f"{type(exc).__name__}: {exc}"
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append({"op": kind, "props": props, "output": repr(output)[:300]})
        return ok

    def factors(self):
        """Speed factor of each op, from the samples around it."""
        return [
            speed_factor(self.cal[max(0, j - WINDOW):j + WINDOW]) if self.cal else 1.0
            for *_, j in self.ops
        ]

    def latencies(self, scaled=True):
        factors = self.factors() if scaled else [1.0] * len(self.ops)
        return [seconds * f for (_, _, seconds, _), f in zip(self.ops, factors)]

    def grouped(self, by_kind=False, scaled=True):
        out = {}
        for (op, kind, _, _), seconds in zip(self.ops, self.latencies(scaled)):
            out.setdefault(kind if by_kind else op, []).append(seconds)
        return out

    def ops_per_s(self, scaled=True):
        """Checked ops of one round over the round's closed-loop time, the time
        rebuilt from each op's median latency across the rounds.

        Every round runs the same ops, so this is the round's wall time with
        the per-op median taken over rounds: a slow phase of the host during
        one round does not move it, while a slower op does.
        """
        by_op = self.grouped(scaled=scaled)
        ok_share = (self.attempted - self.failed) / self.attempted
        return ok_share * len(by_op) / sum(median(v) for v in by_op.values())

    def absorb(self, other):
        offset = len(self.cal)
        self.cal += other.cal
        self.ops += [(op, kind, s, j + offset) for op, kind, s, j in other.ops]
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures
        self.props.update(other.props)

    def shares(self):
        """Measured share of each input property value among the ops."""
        groups = {}
        for key, count in self.props.items():
            name, value = key.split("=", 1)
            groups.setdefault(name, {})[value] = count
        return {
            name: {v: round(c / sum(vals.values()), 4) for v, c in sorted(vals.items())}
            for name, vals in sorted(groups.items())
        }


def enc(x):
    """Nested values as strings for JSON, so that Fractions survive the trip."""
    if isinstance(x, (list, tuple)):
        return [enc(v) for v in x]
    return str(x)


def dec(F, x):
    if isinstance(x, list):
        return [dec(F, v) for v in x]
    return Fraction(x) if F.p is None else int(x)


def damage(output):
    """A wrong version of any op output (text, number, list, tuple, dict, None)."""
    if isinstance(output, Outcome):
        return Outcome(output.error, damage(output.value))
    if isinstance(output, str):
        return output + "#"
    if isinstance(output, bool) or output is None:
        return "damaged"
    if isinstance(output, int):
        return output + 1
    if isinstance(output, (list, tuple)):
        return type(output)([*output[:-1], damage(output[-1])]) if output else ["damaged"]
    if isinstance(output, dict):
        return {**output, "damaged": True}
    return ("damaged", output)


class Outcome:
    """What an op produced: a value, or the name of the exception it raised."""

    __slots__ = ("error", "value")

    def __init__(self, error, value):
        self.error = error
        self.value = value

    def __repr__(self):
        return f"Outcome(error={self.error!r}, value={self.value!r})"


def expect(expected_error, check_value):
    """A check that wants `expected_error` raised (None: a value passing check_value)."""

    def check(outcome):
        if outcome.error != expected_error:
            return False
        return expected_error is not None or check_value(outcome.value)

    return check


# --- import-time probes ----------------------------------------------------

# The calibration samples run in the probe itself, after the timed import,
# so that they see the same moment of the host as the import did.
_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import dialg\n"
    "seconds = time.perf_counter() - t\n"
    "numpy_loaded = 'numpy' in sys.modules\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from common import calibration_sample\n"
    "samples = sorted(calibration_sample() for _ in range(5))\n"
    "print(seconds, numpy_loaded, samples[2])\n"
)
_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


def import_probe(importtime=False):
    """Time `import dialg` inside a fresh interpreter (start-up excluded).

    Returns (seconds, numpy_loaded, {package: cumulative seconds}, median
    calibration sample in that interpreter); the cumulative times come from
    `-X importtime` when asked for.
    """
    args = ["-X", "importtime"] if importtime else []
    args += ["-c", _PROBE, str(BENCH)]
    proc = subprocess.run(
        python(*args), capture_output=True, text=True, env=dialg_env(), cwd=ROOT, timeout=120
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-500:]}")
    seconds, numpy_loaded, sample = proc.stdout.split()
    cumulative = {}
    for m in _IMPORTTIME.finditer(proc.stderr):
        if m.group(4) in ("dialg", "numpy") and m.group(4) not in cumulative:
            cumulative[m.group(4)] = int(m.group(2)) / 1e6
    return float(seconds), numpy_loaded == "True", cumulative, float(sample)


def median(values):
    return statistics.median(values) if values else 0.0
