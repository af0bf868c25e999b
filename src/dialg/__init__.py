"""Exact arithmetic for finite-dimensional associative dialgebras.

A dialgebra carries two associative products, written <| and |> in ASCII,
tied together by three mixed laws. This package represents them by exact
structure constants over the rationals or GF(p) and provides law checking,
structural invariants, the standard constructions, the two-dimensional
classification and exhaustive small-field censuses.

`import dialg` loads only the exact core that every command and file round
trip needs: errors, fields, linalg, algebras, identities and fileformat.
The three layers above it, classify, structure and constructions, import
only that core at load time, never each other. Through this package they
load together on the first access to one of their names (or to one of
those submodules): then the name is read from its module and kept in this
namespace. No public name loads numpy: only the test reference module
dialg.gfsearch imports it.
"""

from .algebras import Algebra, BilinearProduct, Dialgebra, ProductTag
from .errors import (
    DEFAULT_SEARCH_BOUND,
    DerivationSquareError,
    DialgError,
    FieldMismatchError,
    InternalCheckError,
    NonPrimeError,
    NotADerivationError,
    NotADialgebraError,
    NotAnIdealError,
    NotAssociativeError,
    NotInvertibleError,
    NotZeroCubedError,
    ParseError,
    SearchBoundExceededError,
    UnsupportedOverRationalsError,
)
from .fields import Field, Scalar, is_prime
from .fileformat import (
    parse_algebra,
    parse_dialgebra,
    serialize_algebra,
    serialize_dialgebra,
)
from .identities import (
    BarUnitSet,
    ViolationReport,
    algebra_annihilator,
    bar_units,
    check_associative,
    check_dialgebra,
    check_leibniz,
    is_valid_dialgebra,
    law_residual,
)
from .linalg import Mat, Subspace, Vec, all_subspaces, kernel, rref, solve


# Each name of the layers above the exact core, by the submodule it is read
# from on first access; each such submodule maps to itself.
_LAZY = {
    name: module
    for module, names in {
        "classify": (
            "KIND_FROM_ASSOCIATIVE",
            "KIND_I",
            "KIND_II",
            "KIND_III",
            "KIND_IV",
            "KIND_TRIVIAL",
            "KIND_ZERO_CUBED_LEFT",
            "KIND_ZERO_CUBED_RIGHT",
            "SUBLABEL_SQUARE",
            "SUBLABEL_TRIVIAL",
            "CensusClass",
            "ClassLabel",
            "Fingerprint",
            "ParamTable",
            "are_isomorphic",
            "automorphism_group",
            "canonical_dialgebra",
            "census",
            "classify_dim2",
            "dim2_constraints",
            "enumerate_valid_dialgebras",
            "fingerprint",
            "is_isomorphism",
            "param_dialgebra",
        ),
        "constructions": (
            "ZeroCubedTriple",
            "from_associative",
            "from_differential",
            "is_zero_cubed",
            "leibniz_bracket",
            "opposite",
            "quotient",
            "triples_equivalent",
            "zero_cubed_build",
            "zero_cubed_decompose",
        ),
        "structure": (
            "AnnihilatorProfile",
            "StructureFlags",
            "algebra_ideals",
            "algebra_prime",
            "algebra_semiprime",
            "algebra_simple",
            "annihilators",
            "generated_ideal",
            "is_ideal",
            "structure_flags",
        ),
    }.items()
    for name in (module, *names)
}

# The public names: those bound above, the core submodules among them, and
# the lazy ones.
__all__ = sorted({name for name in globals() if not name.startswith("_")} | _LAZY.keys())

__version__ = "0.1.0"


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    # The first access loads all three layers, so a session that uses them
    # pays the load in one call rather than in up to three.
    for layer in ("classify", "structure", "constructions"):
        import_module(f".{layer}", __name__)
    value = import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())
