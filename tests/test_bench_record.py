"""tools/bench_record.py writes one JSON record of the benchmark runs, with
each run's estimated op shares, and refuses to write one when a run was not
correct."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KEYS = {"commit", "dirty", "bytecode_cache", "python", "cores", "python_c_pass_s", "smoke", "seed", "seconds",
        "runs", "tier1", "code_lines", "caveats"}


def test_a_smoke_record_of_one_workload_holds_every_key(tmp_path):
    out = tmp_path / "BENCH_smoke.json"
    subprocess.run([sys.executable, "tools/bench_record.py", "--out", str(out), "--smoke",
                    "--workload", "exact"], cwd=ROOT, check=True, capture_output=True)
    record = json.loads(out.read_text())
    assert set(record) == KEYS
    assert record["smoke"] is True and record["tier1"] is None and record["seconds"] == 1
    assert list(record["runs"]) == ["exact"]
    run = record["runs"]["exact"]
    assert run["command"][:4] == ["python3", "bench/run.py", "--workload", "exact"]
    assert run["record"]["workload"] == "exact" and run["record"]["smoke"] is True
    assert run["result"]["correct"] is True and run["result"]["failed"] == 0
    shares = run["op_shares"]
    assert list(shares) == list(run["record"]["op_mix"])
    assert all(0 <= share <= 1 for share in shares.values())
    assert abs(sum(shares.values()) - 1) < 1e-9
    lines = record["code_lines"]
    assert "fields.py" in lines and lines["total"] == sum(lines.values()) - lines["total"]
    assert len(record["caveats"]) == 3
    changes = (ROOT / "CHANGES.md").read_text(encoding="utf-8").splitlines()
    for caveat in record["caveats"]:
        assert any(line.startswith(caveat["found"]) for line in changes), caveat
    assert record["python_c_pass_s"] > 0 and record["cores"] >= 1


def _tool(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("bench_record")


def test_an_op_share_is_count_times_median_over_the_sum(monkeypatch):
    mix = {"check": {"count": 3, "median_ms": 2.0, "max_ms": 9.0},
           "rebase": {"count": 1, "median_ms": 4.0, "max_ms": 4.0}}
    assert _tool(monkeypatch).op_shares(mix) == {"check": 0.6, "rebase": 0.4}


def test_an_incorrect_or_failed_run_is_refused(monkeypatch):
    tool = _tool(monkeypatch)
    ok = {"result": {"correct": True, "failed": 0}}
    assert tool.refusals({"exact": ok}) == []
    wrong = {"result": {"correct": False, "failed": 0}}
    failed = {"result": {"correct": True, "failed": 2}}
    assert tool.refusals({"exact": ok, "cli": wrong, "search": failed}) == [
        "cli: correct=False, failed=0",
        "search: correct=True, failed=2",
    ]
