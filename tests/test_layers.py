"""The import graph of the package, read from the source with ast.

At load time every module imports only the exact core: errors, fields,
linalg, algebras, identities and fileformat. So the three layers above it,
classify, structure and constructions, are siblings: none loads another,
and the package loads them together, on first access. A layer imports
another only inside the function that needs it, and those imports are
pinned below, as are the two layers that the numpy test reference gfsearch
loads for the search bench alone.
"""

import ast
from pathlib import Path

import pytest

import dialg

SOURCE = Path(dialg.__file__).parent
CORE = {"errors", "fields", "linalg", "algebras", "identities", "fileformat"}
MODULES = sorted(path.stem for path in SOURCE.glob("*.py"))


def _imports(module):
    """(at load time, dialg module imported) for each relative import of
    module; `from . import x` and `import_module(".x", ...)` import x."""
    tree = ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
    top = {id(node) for node in tree.body}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [node.module] if node.module else [alias.name for alias in node.names]
        elif isinstance(node, ast.Expr) and getattr(node.value, "func", None):
            call = node.value
            if getattr(call.func, "id", None) != "import_module":
                continue
            # The package's own loader names its modules by variable.
            names = [a.value[1:] for a in call.args[:1] if isinstance(a, ast.Constant)]
        else:
            continue
        found |= {(id(node) in top, name) for name in names}
    return found


def test_every_module_is_read():
    layers = {"classify", "structure", "constructions", "glsearch", "gfsearch", "cli"}
    assert CORE | layers | {"__init__"} == set(MODULES)


# gfsearch, the numpy test reference, loads two layers it reads nothing from,
# for the search bench alone (its docstring; ROADMAP item 1(b)).
BENCH_PRELOAD = {"gfsearch": {"constructions", "structure"}}


@pytest.mark.parametrize("module", MODULES)
def test_a_module_imports_only_the_core_at_load_time(module):
    above = {name for top, name in _imports(module) if top} - CORE
    assert above == BENCH_PRELOAD.get(module, set())


def test_the_imports_of_one_layer_by_another_run_in_the_functions_that_need_them():
    # classify and constructions import the row search where they search,
    # classify reads gfsearch only for its gl_matrices attribute, quotient
    # imports structure's ideal test, and each CLI verb the layer it runs,
    # the classify verbs through the package.
    found = {
        (module, name)
        for module in MODULES
        for top, name in _imports(module)
        if not top and name not in CORE
    }
    assert found == {
        ("classify", "gfsearch"),
        ("classify", "glsearch"),
        ("constructions", "glsearch"),
        ("constructions", "structure"),
        ("cli", "classify"),
        ("cli", "constructions"),
    }
