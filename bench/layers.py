"""Per-layer tracing of dialg from outside the package.

`Tracer.install()` puts a hook on the import system: as each `dialg.*`
module finishes executing, the public functions and class methods of the
ten traced modules are replaced by timing wrappers, in that module and in
every other loaded `dialg.*` namespace that bound the same object (because
`from .x import y` copies bindings). Modules that load later, lazily, are
wrapped the same way.

A wrapper records a span (name, start, end, parent span, op id) in memory;
a layer's self time is its span time minus the time of its child spans.
The hottest leaves (Scalar arithmetic and Vec element operations) are timed
and counted without storing a span per call, which would dwarf the work.
Names a later refactor removes are reported as absent, never as a crash.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import inspect
import json
import resource
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

MODULES = (
    "fields", "linalg", "algebras", "identities", "structure",
    "constructions", "fileformat", "gfsearch", "classify", "cli",
)
# Classes whose methods, and accessor methods of other classes, are counted
# and timed but stored as no spans: they run millions of times per round.
LEAF_CLASSES = {("fields", "Scalar"), ("fields", "Field"), ("linalg", "Vec")}
LEAF_METHODS = {"entry", "row"}
SCALAR_OPS = {"__add__", "__sub__", "__mul__", "__neg__", "__truediv__", "inverse"}


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        # One entry per span, in parallel arrays to keep memory small.
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.op_id = -1
        self._stack = []  # [span index, child seconds]
        self._leaf_stack = []  # child seconds of the open leaf calls
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.present = set()
        self._originals = {}  # id(original) -> wrapper
        self._probes = _probes()

    # --- installing ---------------------------------------------------------

    def install(self):
        """Wrap every traced module loaded now and every one loaded later."""
        sys.meta_path.insert(0, _Hook(self))
        for name in list(sys.modules):
            if name.startswith("dialg."):
                self.instrument(sys.modules[name])

    def instrument(self, module):
        short = module.__name__.rpartition(".")[2]
        if short in MODULES and not getattr(module, "_bench_traced", False):
            module._bench_traced = True
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_class(short, obj)
                elif _is_function(obj) and getattr(obj, "__module__", None) == module.__name__:
                    setattr(module, attr, self._wrapper(f"{short}.{attr}", short, attr, obj))
        # Rebind copies made by `from .x import y` anywhere in the package.
        for mod in [m for n, m in list(sys.modules.items()) if n == "dialg" or n.startswith("dialg.")]:
            for attr, obj in list(vars(mod).items()):
                wrapped = self._originals.get(id(obj))
                if wrapped is not None and wrapped[0] is obj:
                    setattr(mod, attr, wrapped[1])

    def _wrap_class(self, short, cls):
        leaf = (short, cls.__name__) in LEAF_CLASSES
        for attr, raw in list(vars(cls).items()):
            public = not attr.startswith("_") or (leaf and attr in SCALAR_OPS)
            if not public:
                continue
            kind = None
            if isinstance(raw, classmethod):
                kind, fn = classmethod, raw.__func__
            elif isinstance(raw, staticmethod):
                kind, fn = staticmethod, raw.__func__
            elif inspect.isfunction(raw):
                fn = raw
            else:
                continue  # properties and data stay untouched
            name = f"{short}.{cls.__name__}.{attr}"
            if leaf or attr in LEAF_METHODS:
                w = self._leaf_wrapper(short, attr, fn, cls.__name__ == "Scalar" and attr in SCALAR_OPS)
            else:
                w = self._wrapper(name, short, attr, fn)
            setattr(cls, attr, kind(w) if kind else w)

    # --- wrappers -----------------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrapper(self, name, module, attr, fn):
        key = f"{module}.{attr}"
        self.present.add(key)
        nid = self._name_id(name)
        probe = self._probes.get(key)
        tracer = self
        stack = self._stack

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    tracer._enter(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._leave(key)
                        return
                    except BaseException:
                        tracer._leave(key)
                        raise
                    parent = tracer.names[tracer.span_name[stack[-2][0]]] if len(stack) > 1 else ""
                    tracer._leave(key)
                    tracer.counts[f"{key}.yields"] += 1
                    tracer.counts[f"{key}.yields_to.{parent.split('.', 1)[0]}"] += 1
                    yield item

            return self._register(fn, gen_wrapper)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = probe[0](fn) if probe else None
            tracer._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(key)
            if probe:
                probe[1](tracer, fn, args, result, before)
            return result

        for extra in ("cache_clear", "cache_info"):
            if hasattr(fn, extra):
                setattr(wrapper, extra, getattr(fn, extra))
        return self._register(fn, wrapper)

    def _leaf_wrapper(self, module, attr, fn, scalar_op):
        key = f"{module}.{attr}"
        self.present.add(key)
        calls, self_s, counts = self.calls, self.self_s, self.counts
        stack, leaf_stack = self._stack, self._leaf_stack

        @functools.wraps(fn)
        def leaf(*args, **kwargs):
            leaf_stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = leaf_stack.pop()
                calls[key] += 1
                self_s[key] += dt - child
                if leaf_stack:
                    leaf_stack[-1] += dt
                elif stack:
                    stack[-1][1] += dt
                if scalar_op:
                    counts["fields.scalar_ops"] += 1

        return self._register(fn, leaf)

    def _register(self, fn, wrapper):
        self._originals[id(fn)] = (fn, wrapper)
        return wrapper

    def _enter(self, nid):
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        self._stack.append([idx, 0.0])
        self.span_start.append(perf_counter())

    def _leave(self, key):
        end = perf_counter()
        idx, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        self.calls[key] += 1
        self.self_s[key] += dur - child
        if self._stack:
            self._stack[-1][1] += dur

    # --- results ------------------------------------------------------------

    def summary(self):
        """Aggregates that a parent process can merge (JSON-friendly)."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "present": sorted(self.present),
            "spans": len(self.span_start),
        }

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\top\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_op[i]}\n"
                )


def _is_function(obj):
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


class _Hook(importlib.abc.MetaPathFinder):
    """Instrument each dialg module right after its body has run."""

    def __init__(self, tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if not fullname.startswith("dialg."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        run_body = spec.loader.exec_module
        tracer = self.tracer

        def exec_module(module):
            run_body(module)
            tracer.instrument(module)

        spec.loader.exec_module = exec_module
        return spec


# --- counters read off arguments and results -------------------------------


def _misses(fn):
    info = getattr(fn, "cache_info", None)
    return info().misses if info else None


def _cold(fn, misses_before):
    # lru_cache'd functions count a miss on a cold build; plain ones always build.
    return misses_before is None or _misses(fn) > misses_before


def _nothing(fn):
    return None


def _probes():
    """{function key: (before(fn), after(tracer, fn, args, result, before))}."""

    def check_dialgebra(tr, fn, args, result, before):
        n = args[0].dim
        tr.counts["identities.law_instances"] += 5 * n**3
        tr.counts["identities.violations"] += len(result)

    def algebra_ideals(tr, fn, args, result, before):
        tr.counts["structure.ideals_found"] += len(result)

    def gl_matrices(tr, fn, args, result, before):
        if _cold(fn, before):
            p, n = args[0], args[1]
            tr.counts["gfsearch.gl_candidates"] += p ** (n * n)
            tr.counts["gfsearch.gl_kept"] += len(result[0])

    def associative_indices(tr, fn, args, result, before):
        tr.counts["_last_assoc"] = len(result)

    def valid_pairs_before(fn):
        return (_misses(fn), _maxrss_mb())

    def valid_pairs(tr, fn, args, result, before):
        if _cold(fn, before[0]):
            tr.counts["gfsearch.pairs_screened"] += tr.counts.pop("_last_assoc", 0) ** 2
            tr.counts["gfsearch.pairs_valid"] += len(result[1])
            growth = _maxrss_mb() - before[1]
            tr.counts["gfsearch.valid_pairs.rss_growth_mb"] = max(
                tr.counts.get("gfsearch.valid_pairs.rss_growth_mb", 0), growth
            )

    def isomorphism_indices(tr, fn, args, result, before):
        tr.counts["gfsearch.iso_hits"] += len(result)

    def census(tr, fn, args, result, before):
        tr.counts["classify.census.classes"] += len(result)

    return {
        "identities.check_dialgebra": (_nothing, check_dialgebra),
        "structure.algebra_ideals": (_nothing, algebra_ideals),
        "gfsearch.gl_matrices": (_misses, gl_matrices),
        "gfsearch.associative_indices": (_nothing, associative_indices),
        "gfsearch.valid_pairs": (valid_pairs_before, valid_pairs),
        "gfsearch.isomorphism_indices": (_nothing, isomorphism_indices),
        "classify.census": (_nothing, census),
    }


# --- per-layer metrics -----------------------------------------------------


def merge(summaries):
    out = {"calls": Counter(), "self_s": defaultdict(float), "counts": Counter(), "present": set(), "spans": 0}
    for s in summaries:
        out["calls"].update(s["calls"])
        for k, v in s["self_s"].items():
            out["self_s"][k] += v
        for k, v in s["counts"].items():
            if k.endswith("rss_growth_mb"):
                out["counts"][k] = max(out["counts"].get(k, 0), v)
            else:
                out["counts"][k] += v
        out["present"].update(s["present"])
        out["spans"] += s["spans"]
    return out


def dump_summary(tracer, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)


# (metric name, unit). Names of the form <module>.<function>.calls/.self_s
# read the wrapper totals; the others are counters, ratios or values the
# workload measures itself (import times, numpy share, trace overhead).
_NAMED = [
    ("import.dialg_s", "s"), ("import.numpy_s", "s"), ("cli.numpy_loaded_ratio", "fraction"),
    ("fileformat.parse_dialgebra.calls", "count"), ("fileformat.parse_dialgebra.self_s", "s"),
    ("fileformat.serialize_dialgebra.self_s", "s"),
    ("fields.scalar_ops", "count"),
    ("linalg.rref.calls", "count"), ("linalg.rref.self_s", "s"),
    ("linalg.subspaces_enumerated", "count"),
    ("algebras.apply.calls", "count"), ("algebras.apply.self_s", "s"),
    ("algebras.rebase.self_s", "s"), ("algebras.subspace_product.calls", "count"),
    ("identities.check_dialgebra.self_s", "s"), ("identities.law_instances", "count"),
    ("identities.violations", "count"),
    ("structure.annihilators.self_s", "s"),
    ("structure.structure_flags.self_s", "s"), ("structure.subspaces_scanned", "count"),
    ("structure.ideals_found", "count"), ("structure.ideal_yield", "fraction"),
    ("constructions.leibniz_bracket.self_s", "s"), ("constructions.quotient.self_s", "s"),
    ("gfsearch.gl_matrices.calls", "count"), ("gfsearch.gl_matrices.self_s", "s"),
    ("gfsearch.gl_candidates", "count"), ("gfsearch.gl_kept", "count"), ("gfsearch.gl_yield", "fraction"),
    ("gfsearch.valid_pairs.self_s", "s"), ("gfsearch.pairs_screened", "count"),
    ("gfsearch.pairs_valid", "count"), ("gfsearch.pair_yield", "fraction"),
    ("gfsearch.valid_pairs.rss_growth_mb", "MB"),
    ("gfsearch.pair_orbit.calls", "count"), ("gfsearch.pair_orbit.self_s", "s"),
    ("gfsearch.isomorphism_indices.calls", "count"), ("gfsearch.isomorphism_indices.self_s", "s"),
    ("gfsearch.iso_hits", "count"),
    ("classify.classify_dim2.calls", "count"), ("classify.classify_dim2.self_s", "s"),
    ("classify.fingerprint.self_s", "s"), ("classify.census.self_s", "s"),
    ("classify.census.classes", "count"), ("classify.are_isomorphic.self_s", "s"),
]
PER_LAYER = (
    _NAMED
    + [(f"{m}.{kind}", unit) for m in MODULES for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [("trace.overhead_ratio", "ratio")]
)
MEASURED = {"import.dialg_s", "import.numpy_s", "cli.numpy_loaded_ratio", "trace.overhead_ratio"}

# Counter -> the wrapped function whose absence makes the counter absent.
_COUNTER_SOURCE = {
    "fields.scalar_ops": "fields.__add__",
    "linalg.subspaces_enumerated": "linalg.all_subspaces",
    "structure.subspaces_scanned": "linalg.all_subspaces",
    "identities.law_instances": "identities.check_dialgebra",
    "identities.violations": "identities.check_dialgebra",
    "structure.ideals_found": "structure.algebra_ideals",
    "gfsearch.gl_candidates": "gfsearch.gl_matrices",
    "gfsearch.gl_kept": "gfsearch.gl_matrices",
    "gfsearch.pairs_screened": "gfsearch.valid_pairs",
    "gfsearch.pairs_valid": "gfsearch.valid_pairs",
    "gfsearch.valid_pairs.rss_growth_mb": "gfsearch.valid_pairs",
    "gfsearch.iso_hits": "gfsearch.isomorphism_indices",
    "classify.census.classes": "classify.census",
}
_RATIOS = {
    "structure.ideal_yield": ("structure.ideals_found", "structure.subspaces_scanned"),
    "gfsearch.gl_yield": ("gfsearch.gl_kept", "gfsearch.gl_candidates"),
    "gfsearch.pair_yield": ("gfsearch.pairs_valid", "gfsearch.pairs_screened"),
}


def layer_metrics(merged, measured):
    """({name: {"value", "unit"}}, [absent names]) for every PER_LAYER metric.

    An absent metric (its function no longer exists) reads 0 and is listed.
    """
    present, counts = merged["present"], dict(merged["counts"])
    counts["linalg.subspaces_enumerated"] = counts.get("linalg.all_subspaces.yields", 0)
    counts["structure.subspaces_scanned"] = counts.get("linalg.all_subspaces.yields_to.structure", 0)
    values, absent = {}, []
    for name, unit in PER_LAYER:
        if name in MEASURED:
            value = measured.get(name)
        elif name in _RATIOS:
            num, den = _RATIOS[name]
            ok = _COUNTER_SOURCE[num] in present and _COUNTER_SOURCE[den] in present
            value = (counts.get(num, 0) / counts[den] if counts.get(den) else 0.0) if ok else None
        elif name in _COUNTER_SOURCE:
            value = counts.get(name, 0) if _COUNTER_SOURCE[name] in present else None
        elif name.split(".")[0] in MODULES and name.count(".") == 1:
            mod, kind = name.split(".")
            table = merged["calls"] if kind == "calls" else merged["self_s"]
            value = sum(v for k, v in table.items() if k.startswith(mod + "."))
        else:
            key, kind = name.rsplit(".", 1)
            table = merged["calls"] if kind == "calls" else merged["self_s"]
            value = table.get(key, 0) if key in present else None
        if value is None:
            absent.append(name)
            value = 0
        values[name] = {"value": value, "unit": unit}
    return values, absent
