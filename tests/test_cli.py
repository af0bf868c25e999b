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
    code, _ = run(["census", "--prime", "17"])
    assert code == 2
    assert "needs 2193408 candidates" in capsys.readouterr().err


def test_census_answers_gf11_under_the_default_bound():
    code, out = run(["census", "--prime", "11"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 11 + 11
    assert sum(r["orbit_size"] for r in records) == 20281


def test_census_honors_the_search_bound_env(monkeypatch, capsys):
    monkeypatch.setenv("DIALG_SEARCH_BOUND", "100")
    code, out = run(["census", "--prime", "3"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err.endswith("needs 672 candidates, over the search bound 100\n")


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


def test_a_file_that_is_not_utf8_is_named_in_the_error(tmp_path, capsys):
    # With two inputs, iso's error says which of them is unreadable.
    bad = tmp_path / "bad.dialg"
    bad.write_bytes(b"\xffdialg 1\n")
    good = write(tmp_path, "i.dialg", canonical_dialgebra(KIND_I, QQ))
    reason = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    for argv in (["check", str(bad)], ["iso", good, str(bad)]):
        assert run(argv) == (2, "")
        assert capsys.readouterr().err == f"error: cannot read {bad}: {reason}\n"


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


# The modules a path may leave unloaded, and so uncompiled when Python writes
# no bytecode: the layers above the exact core, the GL searches and numpy.
WATCHED = (
    "dialg.classify",
    "dialg.structure",
    "dialg.constructions",
    "dialg.glsearch",
    "dialg.gfsearch",
    "numpy",
)


def _loads(code):
    """Run code in a fresh interpreter on this dialg; return its stdout and
    the set of WATCHED modules loaded after it."""
    probe = f"import sys\n{code}\nprint(*(m for m in {WATCHED!r} if m in sys.modules))"
    *lines, loaded = _modules_after(probe).split("\n")[:-1]
    return "".join(line + "\n" for line in lines), set(loaded.split())


def _main(*argv):
    return f"from dialg.cli import main\nassert main({list(argv)!r}) == 0"


def test_exact_verbs_do_not_import_numpy(tmp_path):
    # The layers import only the exact core: `import dialg` and check stay on
    # the core, `import dialg.classify` loads that layer alone, op and
    # leibniz load constructions alone, and quotient adds structure (for its
    # ideal test). info, classify2, iso and census read classify through the
    # package, which loads the three layers together; iso adds glsearch. No
    # verb loads gfsearch or numpy.
    path = write(tmp_path, "i.dialg", canonical_dialgebra(KIND_I, QQ))
    assert _loads("import dialg") == ("", set())
    assert _loads("import dialg.classify") == ("", {"dialg.classify"})
    assert _loads(_main("check", path)) == ("PASS\n", set())
    assert _loads(_main("op", path))[1] == {"dialg.constructions"}
    assert _loads(_main("leibniz", path))[1] == {"dialg.constructions"}
    layers = {"dialg.classify", "dialg.structure", "dialg.constructions"}
    # Through the package, the first access to a layer's name loads all three.
    assert _loads("import dialg\ndialg.opposite") == ("", layers)
    assert _loads(_main("quotient", path, "--ideal", "1,0"))[1] == layers - {"dialg.classify"}
    assert _loads(_main("info", path))[1] == layers
    assert _loads(_main("classify2", path)) == ("I\nwitness:\n1 0\n0 1\n", layers)
    pa, pb = t2_files(tmp_path)
    assert _loads(_main("iso", pa, pb)) == (T2_WITNESS, layers | {"dialg.glsearch"})
    # The census scans its normal forms in pure Python.
    census = "from dialg.cli import main\nimport io\nmain(['census', '--prime', '2'], io.StringIO())"
    assert _loads(census) == ("", layers)
    # The result records are named tuples, so neither loads dataclasses or
    # inspect. site may preload modules: compare with those loaded before.
    added = (
        "import sys\nbefore = set(sys.modules)\n{}\n"
        "print(sorted({{'dataclasses', 'inspect'}} & (set(sys.modules) - before)))"
    )
    assert _modules_after(added.format("import dialg")) == "[]\n"
    assert _modules_after(added.format(_main("check", path))) == "PASS\n[]\n"


# The public names of dialg: 86 API names and its nine submodules. The core
# ones are bound by `import dialg`; each of the others is read from its home
# module, below, on first access.
CORE_NAMES = """
    Algebra BarUnitSet BilinearProduct DEFAULT_SEARCH_BOUND DerivationSquareError DialgError
    Dialgebra Field FieldMismatchError InternalCheckError Mat NonPrimeError
    NotADerivationError NotADialgebraError NotAnIdealError NotAssociativeError
    NotInvertibleError NotZeroCubedError ParseError ProductTag Scalar SearchBoundExceededError
    Subspace UnsupportedOverRationalsError Vec ViolationReport algebra_annihilator algebras
    all_subspaces bar_units check_associative check_dialgebra check_leibniz errors fields fileformat
    identities is_prime is_valid_dialgebra kernel law_residual linalg parse_algebra
    parse_dialgebra rref serialize_algebra serialize_dialgebra solve
""".split()
LAZY_HOMES = {
    "classify": """
        KIND_FROM_ASSOCIATIVE KIND_I KIND_II KIND_III KIND_IV KIND_TRIVIAL
        KIND_ZERO_CUBED_LEFT KIND_ZERO_CUBED_RIGHT SUBLABEL_SQUARE SUBLABEL_TRIVIAL
        CensusClass ClassLabel Fingerprint ParamTable are_isomorphic automorphism_group
        canonical_dialgebra census classify_dim2 dim2_constraints enumerate_valid_dialgebras
        fingerprint is_isomorphism param_dialgebra
    """.split(),
    "structure": """
        AnnihilatorProfile StructureFlags algebra_ideals algebra_prime
        algebra_semiprime algebra_simple annihilators generated_ideal is_ideal
        structure_flags
    """.split(),
    "constructions": """
        ZeroCubedTriple from_associative from_differential is_zero_cubed leibniz_bracket
        opposite quotient triples_equivalent zero_cubed_build zero_cubed_decompose
    """.split(),
}


def test_the_package_binds_its_pinned_names_and_loads_the_layers_on_first_use():
    homes = {name: m for m, names in LAZY_HOMES.items() for name in names}
    probe = f"""
import sys
import dialg
layers = ["dialg." + m for m in {list(LAZY_HOMES)!r}]
print(*(m for m in layers if m in sys.modules))
print(all(getattr(dialg, m[6:]) is sys.modules[m] for m in layers))
names = {{}}
exec("from dialg import *", names)
del names["__builtins__"]
print(*sorted(names))
homes = {homes!r}
print(all(v is getattr(sys.modules["dialg." + homes[k]], k) for k, v in names.items() if k in homes))
print(set(names) <= set(dir(dialg)))
try:
    dialg.nope
except AttributeError as exc:
    print(repr(exc))
"""
    names = sorted([*CORE_NAMES, *LAZY_HOMES, *homes])
    assert len(names) == len(set(names)) == 95
    assert _modules_after(probe).split("\n") == [
        "",
        "True",
        " ".join(names),
        "True",
        "True",
        "AttributeError(\"module 'dialg' has no attribute 'nope'\")",
        "",
    ]


def test_dir_lists_every_public_name_before_the_layers_load():
    # dir(dialg) goes through the package's __dir__: the lazy names are
    # listed, and none of their modules is loaded to list them. Here, where
    # submodules such as dialg.cli are loaded, it lists those as well.
    listed = "import dialg\nprint([n for n in dir(dialg) if n[0] != '_'] == dialg.__all__)"
    assert _loads(listed) == ("True\n", set())
    assert set(dialg.__all__) <= set(dir(dialg))


def test_classify_reads_gl_matrices_from_gfsearch():
    import dialg.classify
    import dialg.gfsearch

    assert dialg.classify.gl_matrices is dialg.gfsearch.gl_matrices


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


def test_triples_equivalent_over_gf3_does_not_import_numpy():
    # x^2 - y^2 and 2xy: the witness is the least beta with a solution and
    # the least alpha for it, as the double loop over GL(2, 3) x GL(1, 3) finds.
    probe = "import sys\n{}\nprint('numpy' in sys.modules)"
    triples = (
        "from dialg import Field, ZeroCubedTriple, triples_equivalent\n"
        "F = Field.prime(3)\n"
        "t1 = ZeroCubedTriple.from_entries(F, 1, 2, {(0, 0, 0): 1, (1, 1, 0): 2})\n"
        "t2 = ZeroCubedTriple.from_entries(F, 1, 2, {(0, 1, 0): 1, (1, 0, 0): 1})\n"
        "alpha, beta = triples_equivalent(t1, t2)\n"
        "print(alpha, beta, sep='; ')"
    )
    assert _modules_after(probe.format(triples)) == "2; 1 1; 1 2\nFalse\n"


# A finder first on sys.meta_path that refuses numpy, as an install without
# the test extra has none.
REFUSE_NUMPY = """
import sys


class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ModuleNotFoundError(f"no module named {name!r}", name=name)


sys.meta_path.insert(0, RefuseNumpy())
"""


def test_the_library_and_every_verb_run_with_numpy_unimportable(tmp_path):
    path = write(tmp_path, "i.dialg", canonical_dialgebra(KIND_I, QQ))
    pa, pb = t2_files(tmp_path)
    verbs = [
        ["check", path], ["info", path], ["classify2", path], ["iso", pa, pb],
        ["census", "--prime", "2"], ["leibniz", path], ["op", path],
        ["quotient", path, "--ideal", "1,0"],
    ]
    probe = REFUSE_NUMPY + f"""
import io
import dialg
from dialg.cli import main

assert len(dialg.census(2)) == 13
valid = list(dialg.enumerate_valid_dialgebras(2))
assert len(valid) == 49
d = valid[-1]
assert dialg.classify_dim2(d).label_string() == "II_1"
assert dialg.are_isomorphic(d, d) is not None
assert len(dialg.automorphism_group(d)) == 2
dialg.structure_flags(d)
F = dialg.Field.prime(3)
t = dialg.ZeroCubedTriple.from_entries(F, 1, 2, {{(0, 0, 0): 1, (1, 1, 0): 2}})
assert dialg.triples_equivalent(t, t) is not None
for argv in {verbs!r}:
    assert main(argv, io.StringIO()) == 0, argv
try:
    import dialg.gfsearch
except ImportError:
    print("gfsearch refused")
"""
    assert _modules_after(probe) == "gfsearch refused\n"


def test_iso_over_the_search_bound_env_exits_2_before_any_search(tmp_path):
    pa, pb = t2_files(tmp_path)
    done = _fresh("-m", "dialg.cli", "iso", pa, pb, DIALG_SEARCH_BOUND="100")
    assert (done.returncode, done.stdout, done.stderr) == (
        2,
        "",
        "error: GL(3, 3) scan needs 19683 candidates, over the search bound 100\n",
    )


# CLI goldens: each case runs main on files holding the texts below and must
# print exactly this stdout with this exit code.
GOLDEN_FILES = {
    "zc.dialg": "dialg 1\nfield rational\ndim 2\nright 1 1 2 3\n",
    # Fractional constants: residuals are exact fractions.
    "frac.dialg": (
        "dialg 1\nfield rational\ndim 2\nleft 1 1 1 1/3\nleft 1 2 2 2/7\n"
        "right 1 1 1 1/3\nright 2 1 2 5/11\n"
    ),
    # Violations at first indices 1, 2 and 4; assoc-left (2,2,2) is reached
    # only through the right-hand term x (y z), since (e2 e2) e2 = e1 e2 = 0.
    "sparse.dialg": (
        "dialg 1\nfield rational\ndim 4\nleft 2 2 1 1\nleft 2 1 2 1\nleft 3 3 3 1/2\n"
        "right 3 3 3 1/2\nright 4 3 4 2/3\nright 1 4 4 5/7\n"
    ),
    # Upper triangular 2 x 2 matrices over GF(3) and a rebased copy.
    "t2.dialg": (
        "dialg 1\nfield prime 3\ndim 3\nleft 1 1 1 1\nleft 1 2 2 1\nleft 2 3 2 1\n"
        "left 3 3 3 1\nright 1 1 1 1\nright 1 2 2 1\nright 2 3 2 1\nright 3 3 3 1\n"
    ),
    "t2b.dialg": "dialg 1\nfield prime 3\ndim 3\n"
    + "".join(
        f"{tag} {entry}\n"
        for tag in ("left", "right")
        for entry in (
            "1 1 1 1", "1 3 2 2", "1 3 3 1", "2 2 2 1", "2 3 2 1",
            "3 1 1 2", "3 2 1 1", "3 2 3 1", "3 3 1 1", "3 3 2 1",
        )
    ),
    # Dim 1 over Q: one closed form fixes t = x / y for each product; a1 and
    # b1 both give t = 1/2, while a1 and c1 give 1/2 and 1, so no map.
    "a1.dialg": "dialg 1\nfield rational\ndim 1\nleft 1 1 1 3\nright 1 1 1 6\n",
    "b1.dialg": "dialg 1\nfield rational\ndim 1\nleft 1 1 1 6\nright 1 1 1 12\n",
    "c1.dialg": "dialg 1\nfield rational\ndim 1\nleft 1 1 1 6\nright 1 1 1 6\n",
    # Left and right are the same non-associative table, held as one product
    # object: the one associativity failure is reported under all five laws.
    "same.dialg": (
        "dialg 1\nfield rational\ndim 2\nleft 1 1 2 1\nleft 2 1 1 1/2\n"
        "right 1 1 2 1\nright 2 1 1 1/2\n"
    ),
    # The Q-algebra IV + F (a canonical dim-2 form plus a unital line),
    # rebased by a fractional matrix: a line of annihilators and a bar-unit.
    "dense.dialg": """dialg 1
field rational
dim 3
left 1 1 1 -8659/24205
left 1 1 2 -1176/24205
left 1 1 3 9504/24205
left 1 2 1 -733/4841
left 1 2 2 147/4841
left 1 2 3 -1188/4841
left 1 3 1 38932/43569
left 1 3 2 2548/43569
left 1 3 3 -2288/4841
left 2 1 1 675/4841
left 2 1 2 1027/4841
left 2 1 3 -2376/24205
left 2 2 1 -3375/38728
left 2 2 2 -9829/19364
left 2 2 3 297/4841
left 2 3 1 -1625/9682
left 2 3 2 1005/4841
left 2 3 3 572/4841
left 3 1 1 4500/4841
left 3 1 2 392/4841
left 3 1 3 -10999/24205
left 3 2 1 -5625/9682
left 3 2 2 -245/4841
left 3 2 3 -881/9682
left 3 3 1 -16250/14523
left 3 3 2 -12740/130707
left 3 3 3 44002/43569
right 1 1 1 -8659/24205
right 1 1 2 -1176/24205
right 1 1 3 9504/24205
right 1 2 1 675/4841
right 1 2 2 1027/4841
right 1 2 3 -2376/24205
right 1 3 1 4500/4841
right 1 3 2 392/4841
right 1 3 3 -10999/24205
right 2 1 1 -733/4841
right 2 1 2 147/4841
right 2 1 3 -1188/4841
right 2 2 1 -3375/38728
right 2 2 2 -9829/19364
right 2 2 3 297/4841
right 2 3 1 -5625/9682
right 2 3 2 -245/4841
right 2 3 3 -881/9682
right 3 1 1 38932/43569
right 3 1 2 2548/43569
right 3 1 3 -2288/4841
right 3 2 1 -1625/9682
right 3 2 2 1005/4841
right 3 2 3 572/4841
right 3 3 1 -16250/14523
right 3 3 2 -12740/130707
right 3 3 3 44002/43569
""",
}


def _lines(*lines):
    return "".join(f"{line}\n" for line in lines)


# dialg census --prime 2: one JSON line per class, least representative first.
CENSUS_GF2 = (
    '{"label": "trivial-both", "kind": "trivial-both", "k": null'
    ', "left": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]'
    ', "right": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]], "orbit_size": 1}\n'
    '{"label": "zero-cubed-left-zero:square-type", "kind": "zero-cubed-left-zero", "k": null'
    ', "left": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]'
    ', "right": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]], "orbit_size": 3}\n'
    '{"label": "from-associative", "kind": "from-associative", "k": null'
    ', "left": [[[0, 0], [0, 0]], [[0, 0], [0, 1]]]'
    ', "right": [[[0, 0], [0, 0]], [[0, 0], [0, 1]]], "orbit_size": 6}\n'
    '{"label": "I", "kind": "I", "k": null'
    ', "left": [[[0, 0], [0, 0]], [[0, 0], [0, 1]]]'
    ', "right": [[[0, 0], [0, 0]], [[1, 0], [0, 1]]], "orbit_size": 6}\n'
    '{"label": "zero-cubed-right-zero:square-type", "kind": "zero-cubed-right-zero", "k": null'
    ', "left": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]'
    ', "right": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]], "orbit_size": 3}\n'
    '{"label": "II_1", "kind": "II", "k": "1"'
    ', "left": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]'
    ', "right": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]], "orbit_size": 3}\n'
    '{"label": "from-associative", "kind": "from-associative", "k": null'
    ', "left": [[[0, 0], [0, 0]], [[1, 0], [0, 1]]]'
    ', "right": [[[0, 0], [0, 0]], [[1, 0], [0, 1]]], "orbit_size": 3}\n'
    '{"label": "III", "kind": "III", "k": null'
    ', "left": [[[0, 0], [1, 0]], [[0, 0], [0, 1]]]'
    ', "right": [[[0, 0], [0, 0]], [[0, 0], [0, 1]]], "orbit_size": 6}\n'
    '{"label": "IV", "kind": "IV", "k": null'
    ', "left": [[[0, 0], [1, 0]], [[0, 0], [0, 1]]]'
    ', "right": [[[0, 0], [0, 0]], [[1, 0], [0, 1]]], "orbit_size": 3}\n'
    '{"label": "from-associative", "kind": "from-associative", "k": null'
    ', "left": [[[0, 0], [1, 0]], [[0, 0], [0, 1]]]'
    ', "right": [[[0, 0], [1, 0]], [[0, 0], [0, 1]]], "orbit_size": 3}\n'
    '{"label": "from-associative", "kind": "from-associative", "k": null'
    ', "left": [[[0, 0], [1, 0]], [[1, 0], [0, 1]]]'
    ', "right": [[[0, 0], [1, 0]], [[1, 0], [0, 1]]], "orbit_size": 6}\n'
    '{"label": "from-associative", "kind": "from-associative", "k": null'
    ', "left": [[[0, 1], [1, 1]], [[1, 1], [1, 0]]]'
    ', "right": [[[0, 1], [1, 1]], [[1, 1], [1, 0]]], "orbit_size": 3}\n'
    '{"label": "from-associative", "kind": "from-associative", "k": null'
    ', "left": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]'
    ', "right": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], "orbit_size": 3}\n'
)

# dialg census --prime 3: every label but trivial-both is read off the
# annihilator, so this pins the Subspace that classify_dim2 takes from it.
CENSUS_GF3 = (
    '{"label": "trivial-both", "kind": "trivial-both", "k": null'
    ', "left": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]'
    ', "right": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]], "orbit_size": 1}\n'
    '{"label": "zero-cubed-left-zero:square-type", "kind": "zero-cubed-left-zero", "k": null'
    ', "left": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]'
    ', "right": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]], "orbit_size": 8}\n'
    '{"label": "from-associative", "kind": "from-associative", "k": null'
    ', "left": [[[0, 0], [0, 0]], [[0, 0], [0, 1]]]'
    ', "right": [[[0, 0], [0, 0]], [[0, 0], [0, 1]]], "orbit_size": 24}\n'
    '{"label": "I", "kind": "I", "k": null'
    ', "left": [[[0, 0], [0, 0]], [[0, 0], [0, 1]]]'
    ', "right": [[[0, 0], [0, 0]], [[1, 0], [0, 1]]], "orbit_size": 24}\n'
    '{"label": "zero-cubed-right-zero:square-type", "kind": "zero-cubed-right-zero", "k": null'
    ', "left": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]'
    ', "right": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]], "orbit_size": 8}\n'
    '{"label": "II_1", "kind": "II", "k": "1"'
    ', "left": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]'
    ', "right": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]], "orbit_size": 8}\n'
    '{"label": "II_2", "kind": "II", "k": "2"'
    ', "left": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]'
    ', "right": [[[0, 0], [0, 0]], [[0, 0], [2, 0]]], "orbit_size": 8}\n'
    '{"label": "from-associative", "kind": "from-associative", "k": null'
    ', "left": [[[0, 0], [0, 0]], [[1, 0], [0, 1]]]'
    ', "right": [[[0, 0], [0, 0]], [[1, 0], [0, 1]]], "orbit_size": 8}\n'
    '{"label": "III", "kind": "III", "k": null'
    ', "left": [[[0, 0], [1, 0]], [[0, 0], [0, 1]]]'
    ', "right": [[[0, 0], [0, 0]], [[0, 0], [0, 1]]], "orbit_size": 24}\n'
    '{"label": "IV", "kind": "IV", "k": null'
    ', "left": [[[0, 0], [1, 0]], [[0, 0], [0, 1]]]'
    ', "right": [[[0, 0], [0, 0]], [[1, 0], [0, 1]]], "orbit_size": 8}\n'
    '{"label": "from-associative", "kind": "from-associative", "k": null'
    ', "left": [[[0, 0], [1, 0]], [[0, 0], [0, 1]]]'
    ', "right": [[[0, 0], [1, 0]], [[0, 0], [0, 1]]], "orbit_size": 8}\n'
    '{"label": "from-associative", "kind": "from-associative", "k": null'
    ', "left": [[[0, 0], [1, 0]], [[1, 0], [0, 1]]]'
    ', "right": [[[0, 0], [1, 0]], [[1, 0], [0, 1]]], "orbit_size": 24}\n'
    '{"label": "from-associative", "kind": "from-associative", "k": null'
    ', "left": [[[0, 1], [1, 0]], [[1, 0], [0, 1]]]'
    ', "right": [[[0, 1], [1, 0]], [[1, 0], [0, 1]]], "orbit_size": 24}\n'
    '{"label": "from-associative", "kind": "from-associative", "k": null'
    ', "left": [[[0, 1], [1, 1]], [[1, 1], [1, 2]]]'
    ', "right": [[[0, 1], [1, 1]], [[1, 1], [1, 2]]], "orbit_size": 24}\n'
)


GOLDEN = [
    pytest.param(
        ["classify2", "zc.dialg"],
        0,
        _lines("zero-cubed-left-zero:square-type", "witness:", "0 3", "1 0"),
        id="classify2-zero-cubed",
    ),
    pytest.param(
        ["check", "frac.dialg"],
        1,
        _lines(
            "FAIL assoc-left (1,1,2) residual (0, 2/147)",
            "FAIL assoc-right (2,1,1) residual (0, 20/363)",
            "FAIL ax1 (1,1,2) residual (0, 2/21)",
            "FAIL ax1 (1,2,1) residual (0, -10/77)",
            "FAIL ax2 (1,1,2) residual (0, 2/21)",
            "FAIL ax2 (2,1,1) residual (0, -5/33)",
            "FAIL ax3 (1,2,1) residual (0, 10/77)",
            "FAIL ax3 (2,1,1) residual (0, -5/33)",
        ),
        id="check-fractions",
    ),
    pytest.param(
        ["check", "sparse.dialg"],
        1,
        _lines(
            "FAIL assoc-left (2,1,1) residual (0, 1, 0, 0)",
            "FAIL assoc-left (2,1,2) residual (1, 0, 0, 0)",
            "FAIL assoc-left (2,2,1) residual (-1, 0, 0, 0)",
            "FAIL assoc-left (2,2,2) residual (0, -1, 0, 0)",
            "FAIL assoc-right (1,1,4) residual (0, 0, 0, -25/49)",
            "FAIL assoc-right (4,3,3) residual (0, 0, 0, 1/9)",
            "FAIL ax1 (2,1,1) residual (0, 1, 0, 0)",
            "FAIL ax1 (2,1,2) residual (1, 0, 0, 0)",
            "FAIL ax2 (4,3,3) residual (0, 0, 0, -1/3)",
            "FAIL ax3 (1,1,4) residual (0, 0, 0, -25/49)",
            "FAIL ax3 (1,4,3) residual (0, 0, 0, -10/21)",
            "FAIL ax3 (2,2,4) residual (0, 0, 0, 5/7)",
            "FAIL ax3 (4,3,3) residual (0, 0, 0, -1/3)",
        ),
        id="check-sparse",
    ),
    # The first isomorphism in GL(3, 3) order, as the numpy GL scan printed it.
    pytest.param(["iso", "t2.dialg", "t2b.dialg"], 0, T2_WITNESS, id="iso-gf3"),
    pytest.param(["iso", "a1.dialg", "b1.dialg"], 0, _lines("ISOMORPHIC", "1/2"), id="iso-dim1"),
    pytest.param(["iso", "a1.dialg", "c1.dialg"], 1, _lines("NOT ISOMORPHIC"), id="iso-dim1-not"),
    pytest.param(
        ["check", "same.dialg"],
        1,
        _lines(
            *(
                f"FAIL {law} {where}"
                for law in ("assoc-left", "assoc-right", "ax1", "ax2", "ax3")
                for where in (
                    "(1,1,1) residual (1/2, 0)",
                    "(1,2,1) residual (0, -1/2)",
                    "(2,1,1) residual (0, 1/2)",
                    "(2,2,1) residual (-1/4, 0)",
                )
            )
        ),
        id="check-equal-products",
    ),
    pytest.param(
        ["info", "same.dialg"],
        0,
        _lines(
            "field: rational", "dim: 2", "dim_left_square: 2", "dim_right_square: 2",
            "dim_rann_left: 1", "dim_lann_left: 0", "dim_rann_right: 1", "dim_lann_right: 0",
            "dim_ann: 0", "products_equal: true", "has_bar_unit: false",
        ),
        id="info-equal-products",
    ),
    pytest.param(
        ["op", "same.dialg"],
        0,
        _lines(
            "dialg 1", "field rational", "dim 2", "left 1 1 2 1", "left 1 2 1 1/2",
            "right 1 1 2 1", "right 1 2 1 1/2",
        ),
        id="op-equal-products",
    ),
    pytest.param(
        ["info", "dense.dialg"],
        0,
        _lines(
            "field: rational", "dim: 3", "dim_left_square: 3", "dim_right_square: 3",
            "dim_rann_left: 1", "dim_lann_left: 0", "dim_rann_right: 0", "dim_lann_right: 1",
            "dim_ann: 1", "products_equal: false", "has_bar_unit: true",
        ),
        id="info-dense",
    ),
    pytest.param(
        ["quotient", "dense.dialg", "--ideal", "160,100,81"],
        0,
        _lines(
            "dialg 1", "field rational", "dim 2",
            *(
                f"{tag} {entry}"
                for tag in ("left", "right")
                for entry in (
                    "1 1 1 -29/64", "1 1 2 27/256", "1 2 1 5/16", "1 2 2 13/64",
                    "2 1 1 5/16", "2 1 2 13/64", "2 2 1 65/108", "2 2 2 227/144",
                )
            ),
        ),
        id="quotient-dense",
    ),
    pytest.param(["census", "--prime", "2"], 0, CENSUS_GF2, id="census-gf2"),
    pytest.param(["census", "--prime", "3"], 0, CENSUS_GF3, id="census-gf3"),
]


@pytest.mark.parametrize("argv, code, stdout", GOLDEN)
def test_golden_outputs(tmp_path, argv, code, stdout):
    for name in set(argv) & GOLDEN_FILES.keys():
        (tmp_path / name).write_text(GOLDEN_FILES[name])
    argv = [str(tmp_path / a) if a in GOLDEN_FILES else a for a in argv]
    assert run(argv) == (code, stdout)
