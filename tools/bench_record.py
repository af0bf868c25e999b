"""Write a durable benchmark record, one JSON file, from bench/run.py.

    python tools/bench_record.py --out BENCH_1.json [--workload W ...] [--smoke]

Runs BENCHMARK.json's command, `python3 bench/run.py`, with `--workload W
--seed 1 --seconds <run_seconds> --trace 0` once for each workload that
BENCHMARK.json names (or each --workload given), every run a fresh
subprocess with PYTHONDONTWRITEBYTECODE=1, and keeps the last two lines of
its stdout: the run record and the result line, both JSON. Beside them it
writes the run's op_shares: each op kind's count times its median_ms, over
the sum of those products for the run's op_mix. A share is an estimate from
medians, not a measured share of the run's time. The file also
holds the tier-1 suite's wall time and test counts, run here in the same
environment, the code lines per module of src/dialg (tools/code_lines.py),
the commit and whether the tracked files differ from it, whether src/dialg
holds a bytecode cache (the runs would read it, though they write none),
the Python version, the core count, the median time of `python -c pass`
(the machine's floor), and the caveats: the end-to-end metrics known to be
stale, each with the FOUND note in CHANGES.md it comes from.

A run that reports "correct": false or a failed op makes the tool write
nothing and exit 1. --smoke passes --smoke --seconds 1 to each run and skips
the tier-1 suite. Run from anywhere; the only file written is --out (and the
bench's own ignored work directory).
"""

import argparse
import json
import os
import pathlib
import platform
import re
import statistics
import subprocess
import sys
import time

from code_lines import code_lines

ROOT = pathlib.Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
SEED = 1
FLOOR_RUNS = 15

CAVEATS = [
    {
        "metric": "search: every end-to-end metric",
        "caveat": "the search workload still times gfsearch.valid_pairs(5, 2) and a cold"
        " gl_matrices(2, 4), routes no library call takes any more (ROADMAP item 1(b))",
        "found": "FOUND: `bench/layers.py` still reads isomorphism work from"
        " `gfsearch.isomorphism_indices`, which no library path calls now",
    },
    {
        "metric": "cli and search: peak_rss_mb",
        "caveat": "read from RUSAGE_CHILDREN, whose floor is the harness's own pages,"
        " about 20 MB, so a dialg change below that cannot show",
        "found": "FOUND: `bench/run.py` reports cli and search `peak_rss_mb` as"
        " `getrusage(RUSAGE_CHILDREN).ru_maxrss`",
    },
    {
        "metric": "exact: latency_tail_ms",
        "caveat": "the tail is the 11th slowest of about 525 ops, so one slow op,"
        " such as a first-use compile, moves it by a whole rank",
        "found": "FOUND: `bench/run.py`'s `latency_tail_ms` on exact is the 11th slowest"
        " of only about 525 ops",
    },
]


def run(cmd, **kwargs):
    return subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True, text=True, **kwargs)


def bench_run(command, workload, seconds, smoke):
    """The run record and result line of one bench/run.py subprocess."""
    cmd = command + ["--workload", workload, "--seed", str(SEED), "--seconds", str(seconds),
                     "--trace", "0"] + (["--smoke"] if smoke else [])
    out = run(cmd)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload}: bench/run.py exited {out.returncode}\n{out.stderr}")
    record, result = (json.loads(line) for line in lines[-2:])
    return {"command": cmd, "record": record, "result": result,
            "op_shares": op_shares(record["op_mix"])}


def op_shares(op_mix):
    """Each op kind's estimated share of the run: count x median_ms over the
    sum of those products, from the run's own op_mix."""
    weights = {kind: m["count"] * m["median_ms"] for kind, m in op_mix.items()}
    total = sum(weights.values())
    return {kind: w / total for kind, w in weights.items()}


def refusals(runs):
    """Why the runs may not be recorded: one line per run that was not correct
    or failed an op."""
    return [
        f"{name}: correct={r['result']['correct']}, failed={r['result']['failed']}"
        for name, r in runs.items()
        if r["result"]["correct"] is not True or r["result"]["failed"] != 0
    ]


def tier1():
    """The tier-1 suite's wall time and test counts, run as CI runs it."""
    cmd = [sys.executable, "-X", "dev", "-m", "pytest", "-q", "-W", "error",
           "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         env=dict(ENV, PYTHONPATH=str(ROOT / "src")))
    wall = time.perf_counter() - start
    counts = {k: int(n) for n, k in re.findall(r"(\d+) (passed|failed|error|skipped)",
                                              out.stdout.splitlines()[-1])}
    return {"command": cmd[1:], "wall_s": round(wall, 2), "exit": out.returncode, **counts}


def floor_s():
    """The median wall time of `python -c pass`, the machine's start-up floor."""
    times = []
    for _ in range(FLOOR_RUNS):
        start = time.perf_counter()
        run([sys.executable, "-c", "pass"], check=True)
        times.append(time.perf_counter() - start)
    return round(statistics.median(times), 4)


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=pathlib.Path)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--smoke", action="store_true",
                        help="pass --smoke --seconds 1 to each run; skip tier-1")
    args = parser.parse_args(argv)
    seconds = 1 if args.smoke else bench["run_seconds"]
    runs = {w: bench_run(bench["command"], w, seconds, args.smoke) for w in args.workload or names}
    refused = refusals(runs)
    if refused:
        sys.exit("not recorded: " + "; ".join(refused))
    src = sorted((ROOT / "src" / "dialg").glob("*.py"))
    lines = {path.name: code_lines(path) for path in src}
    commit = run(["git", "rev-parse", "HEAD"]).stdout.strip() or None
    dirty = bool(run(["git", "status", "--porcelain", "--untracked-files=no"]).stdout)
    record = {
        "commit": commit,
        "dirty": dirty,
        "bytecode_cache": (ROOT / "src" / "dialg" / "__pycache__").exists(),
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "python_c_pass_s": floor_s(),
        "smoke": args.smoke,
        "seed": SEED,
        "seconds": seconds,
        "runs": runs,
        "tier1": None if args.smoke else tier1(),
        "code_lines": {**lines, "total": sum(lines.values())},
        "caveats": CAVEATS,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
