import io
import json
import os
import subprocess
import sys

import pytest

import dialg
from dialg import (
    KIND_I,
    KIND_II,
    KIND_III,
    Dialgebra,
    Mat,
    canonical_dialgebra,
    from_associative,
    parse_algebra,
    parse_dialgebra,
    serialize_dialgebra,
)
from dialg.cli import main
from helpers import GF3, GF7, QQ, upper_triangular_algebra


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def write(tmp_path, name, d):
    path = tmp_path / name
    path.write_text(serialize_dialgebra(d))
    return str(path)


def test_check_passes_on_IV(tmp_path):
    from dialg import KIND_IV

    path = write(tmp_path, "iv.dialg", canonical_dialgebra(KIND_IV, QQ))
    code, out = run(["check", path])
    assert code == 0 and out == "PASS\n"


def test_check_fails_with_witness_on_mutated_I(tmp_path):
    mutated = Dialgebra.from_entries(QQ, 2, {(1, 1, 1): 1}, {(1, 0, 1): 1, (1, 1, 1): 1})
    path = write(tmp_path, "bad.dialg", mutated)
    code, out = run(["check", path])
    assert code == 1
    assert out.startswith("FAIL")
    assert "residual" in out


def test_check_exit_2_on_malformed_file(tmp_path, capsys):
    path = tmp_path / "broken.dialg"
    path.write_text("dialg 1\nfield rational\ndim x\n")
    code, _ = run(["check", str(path)])
    assert code == 2
    assert "line 3" in capsys.readouterr().err


def test_info_plain_and_json(tmp_path):
    path = write(tmp_path, "i.dialg", canonical_dialgebra(KIND_I, QQ))
    code, out = run(["info", path])
    assert code == 0
    assert "dim_left_square: 1" in out
    assert "dim_right_square: 2" in out
    assert "products_equal: false" in out
    code, out = run(["info", "--json", path])
    record = json.loads(out)
    assert record["dim_ann"] == 1 and record["has_bar_unit"] is False


def test_classify2_prints_the_label(tmp_path):
    path = write(tmp_path, "iii.dialg", canonical_dialgebra(KIND_III, QQ))
    code, out = run(["classify2", path])
    assert code == 0
    assert out.splitlines()[0] == "III"
    assert "witness:" in out


def test_classify2_json_carries_k(tmp_path):
    path = write(tmp_path, "ii.dialg", canonical_dialgebra(KIND_II, QQ, "1/2"))
    code, out = run(["classify2", "--json", path])
    record = json.loads(out)
    assert record["kind"] == "II" and record["k"] == "1/2"
    assert record["label"] == "II_1/2"


def test_classify2_rejects_invalid_input(tmp_path, capsys):
    mutated = Dialgebra.from_entries(QQ, 2, {(1, 1, 1): 1}, {(1, 0, 1): 1, (1, 1, 1): 1})
    path = write(tmp_path, "bad.dialg", mutated)
    code, _ = run(["classify2", path])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_iso_finds_a_witness_over_gf7(tmp_path):
    a = canonical_dialgebra(KIND_II, GF7, 2)
    t = __import__("dialg").Mat.from_rows(GF7, [[1, 0], [3, 1]])
    b = a.rebase(t)
    pa = write(tmp_path, "a.dialg", a)
    pb = write(tmp_path, "b.dialg", b)
    code, out = run(["iso", pa, pb])
    assert code == 0
    assert out.splitlines()[0] == "ISOMORPHIC"


def test_iso_not_isomorphic_exits_1(tmp_path):
    pa = write(tmp_path, "a.dialg", canonical_dialgebra(KIND_II, GF7, 2))
    pb = write(tmp_path, "b.dialg", canonical_dialgebra(KIND_II, GF7, 3))
    code, out = run(["iso", pa, pb])
    assert code == 1 and out == "NOT ISOMORPHIC\n"


def test_iso_unsupported_exits_2(tmp_path):
    d = Dialgebra.trivial(QQ, 3)
    pa = write(tmp_path, "a.dialg", d)
    pb = write(tmp_path, "b.dialg", d)
    code, out = run(["iso", pa, pb])
    assert code == 2 and out.startswith("UNSUPPORTED")


def test_iso_honors_the_search_bound_env(tmp_path, monkeypatch, capsys):
    pa = write(tmp_path, "a.dialg", canonical_dialgebra(KIND_II, GF7, 2))
    monkeypatch.setenv("DIALG_SEARCH_BOUND", "10")
    code, _ = run(["iso", pa, pa])
    assert code == 2
    assert "bound" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["\u0663\u0660\u0660", "1_000", " 50 ", "-1"])
def test_iso_rejects_a_search_bound_outside_the_ascii_integer_rule(
    raw, tmp_path, monkeypatch, capsys
):
    # int() would read the Arabic-Indic digits as 300, 1_000 as 1000 and
    # " 50 " as 50; -1 is an integer but no budget.
    pa = write(tmp_path, "a.dialg", canonical_dialgebra(KIND_II, GF7, 2))
    monkeypatch.setenv("DIALG_SEARCH_BOUND", raw)
    code, out = run(["iso", pa, pa])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == (
        f"error: DIALG_SEARCH_BOUND must be a non-negative integer, got {raw!r}\n"
    )


def test_census_streams_json_lines():
    code, out = run(["census", "--prime", "2"])
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    labels = [r["label"] for r in records]
    for named in ("I", "II_1", "III", "IV"):
        assert labels.count(named) == 1
    assert all(isinstance(r["orbit_size"], int) for r in records)
    # Representative tensors are plain residue arrays.
    assert records[0]["left"] == [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]


def test_census_rejects_unsupported_parameters(capsys):
    code, _ = run(["census", "--prime", "11"])
    assert code == 2
    assert "needs 1960321 candidates" in capsys.readouterr().err


def test_census_honors_the_search_bound_env(monkeypatch, capsys):
    monkeypatch.setenv("DIALG_SEARCH_BOUND", "100")
    code, out = run(["census", "--prime", "3"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err.endswith("needs 243 candidates, over the search bound 100\n")


def test_census_reaches_gf7_under_the_default_bound():
    code, out = run(["census", "--prime", "7"])
    assert code == 0
    assert len(out.splitlines()) == 18


def test_census_covers_every_prime_the_search_bound_admits():
    code, out = run(["census", "--prime", "5"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 16
    assert sum(r["orbit_size"] for r in records) == 1177


def test_census_is_deterministic():
    out1 = run(["census", "--prime", "2"])[1]
    out2 = run(["census", "--prime", "2"])[1]
    assert out1 == out2


def test_op_is_an_involution_end_to_end(tmp_path):
    d = canonical_dialgebra(KIND_I, QQ)
    path = write(tmp_path, "i.dialg", d)
    code, once = run(["op", path])
    assert code == 0
    path2 = tmp_path / "op.dialg"
    path2.write_text(once)
    code, twice = run(["op", str(path2)])
    assert parse_dialgebra(twice) == d


def test_leibniz_output_reparses(tmp_path):
    path = write(tmp_path, "i.dialg", canonical_dialgebra(KIND_I, QQ))
    code, out = run(["leibniz", path])
    assert code == 0
    bracket = parse_algebra(out)
    assert bracket.product.entry(0, 1, 0) == QQ.scalar(-1)


def test_quotient_output_reparses(tmp_path):
    path = write(tmp_path, "i.dialg", canonical_dialgebra(KIND_I, QQ))
    code, out = run(["quotient", path, "--ideal", "1,0"])
    assert code == 0
    q = parse_dialgebra(out)
    assert q.dim == 1 and q.left.entry(0, 0, 0) == QQ.one


def test_quotient_rejects_non_ideals(tmp_path, capsys):
    path = write(tmp_path, "i.dialg", canonical_dialgebra(KIND_I, QQ))
    code, _ = run(["quotient", path, "--ideal", "0,1"])
    assert code == 2


def test_quotient_rejects_malformed_generators(tmp_path, capsys):
    path = write(tmp_path, "i.dialg", canonical_dialgebra(KIND_I, QQ))
    code, _ = run(["quotient", path, "--ideal", "1,0,0"])
    assert code == 2


@pytest.mark.parametrize("field", [QQ, GF7], ids=["rational", "prime"])
@pytest.mark.parametrize("ideal", ["1_0,0", "\u0663,0;1,0", " 3 ,0", "1, 0", "3\n,0", "1/0,0"])
def test_quotient_parses_generators_by_the_file_format_rule(tmp_path, capsys, field, ideal):
    # Underscores, non-ASCII digits and whitespace inside a coefficient are
    # not part of the format, nor is a zero denominator.
    path = write(tmp_path, "i.dialg", canonical_dialgebra(KIND_I, field))
    code, out = run(["quotient", path, "--ideal", ideal])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.startswith("error: bad ideal generator ")


def test_quotient_generators_may_be_spaced_apart(tmp_path):
    path = write(tmp_path, "i.dialg", canonical_dialgebra(KIND_I, QQ))
    assert run(["quotient", path, "--ideal", " 1,0 ; 2,0 "]) == run(["quotient", path, "--ideal", "1,0"])


def test_quotient_by_the_whole_space_exits_2(tmp_path, capsys):
    path = write(tmp_path, "i.dialg", canonical_dialgebra(KIND_I, QQ))
    code, out = run(["quotient", path, "--ideal", "1,0;0,1"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: cannot write dim 0: the format holds dim 1 to 16\n"


def test_outputs_are_deterministic(tmp_path):
    path = write(tmp_path, "i.dialg", canonical_dialgebra(KIND_I, QQ))
    for verb in (["check"], ["info"], ["classify2"], ["op"], ["leibniz"]):
        assert run(verb + [path]) == run(verb + [path])


def test_missing_file_exits_2(capsys):
    code, _ = run(["check", "/nonexistent/nope.dialg"])
    assert code == 2


def _fresh(*args, **env):
    """Run python with args in a fresh interpreter on this dialg, with env
    added to the environment."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dialg.__file__)))
    env = dict(os.environ, PYTHONPATH=src, **env)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def _modules_after(code):
    """Run code in a fresh interpreter on this dialg; return its stdout."""
    done = _fresh("-c", code)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_exact_verbs_do_not_import_numpy(tmp_path):
    path = write(tmp_path, "i.dialg", canonical_dialgebra(KIND_I, QQ))
    probe = "import sys\n{}\nprint('numpy' in sys.modules)"
    assert _modules_after(probe.format("import dialg")) == "False\n"
    check = f"from dialg.cli import main\nassert main(['check', {path!r}]) == 0"
    assert _modules_after(probe.format(check)) == "PASS\nFalse\n"
    # The census verb does need numpy, so the probe can see it.
    census = "from dialg.cli import main\nimport io\nmain(['census', '--prime', '2'], io.StringIO())"
    assert _modules_after(probe.format(census)) == "True\n"


def t2_files(tmp_path):
    """Upper triangular 2 x 2 matrices over GF(3) as a dialgebra, and a
    rebased copy, as files."""
    t2 = from_associative(upper_triangular_algebra(GF3))
    moved = t2.rebase(Mat.from_rows(GF3, [[1, 2, 0], [0, 1, 1], [2, 0, 1]]))
    return write(tmp_path, "t2.dialg", t2), write(tmp_path, "moved.dialg", moved)


# The first isomorphism in GL(3, 3) order, as the numpy GL scan found it.
T2_WITNESS = "ISOMORPHIC\n0 1 2\n1 2 1\n1 0 1\n"


def test_iso_and_automorphisms_over_gf3_do_not_import_numpy(tmp_path):
    pa, pb = t2_files(tmp_path)
    probe = "import sys\n{}\nprint('numpy' in sys.modules)"
    iso = f"from dialg.cli import main\nassert main(['iso', {pa!r}, {pb!r}]) == 0"
    assert _modules_after(probe.format(iso)) == T2_WITNESS + "False\n"
    aut = (
        "from dialg import automorphism_group, parse_dialgebra\n"
        f"print(len(automorphism_group(parse_dialgebra(open({pa!r}).read()))))"
    )
    # |Aut| of T_2's dialgebra is p(p - 1).
    assert _modules_after(probe.format(aut)) == "6\nFalse\n"


def test_iso_over_the_search_bound_env_exits_2_before_any_search(tmp_path):
    pa, pb = t2_files(tmp_path)
    done = _fresh("-m", "dialg.cli", "iso", pa, pb, DIALG_SEARCH_BOUND="100")
    assert (done.returncode, done.stdout, done.stderr) == (
        2,
        "",
        "error: GL(3, 3) scan needs 19683 candidates, over the search bound 100\n",
    )
