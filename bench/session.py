"""One `search` session: a fresh interpreter that runs a list of ops in order.

    python bench/session.py PLAN.json TRACE SUMMARY.json

The interpreter starts cold, as a script user's would: dialg's lru caches
are empty and later ops reuse the GL tables that earlier ops built. Each op
is timed around the dialg call only; its output is converted to plain JSON
afterwards and checked by the parent process. One JSON line goes to stdout.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(plan_path, trace, summary_path):
    tracer = None
    if trace:
        import layers

        tracer = layers.Tracer()
        tracer.install()
    t0 = time.perf_counter()
    import dialg

    import_s = time.perf_counter() - t0
    import adapt as A
    from common import calibration_sample, dec, enc
    import oracle as O
    from dialg import gfsearch

    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)

    def tables(F, spec):
        return A.dialgebra(F, *dec(F, spec))

    def prepare(op):
        F = O.RawField(op.get("p"))
        kind = op["kind"]
        if kind == "census":
            return lambda: dialg.census(op["p"]), lambda cs: [
                [c.label.label_string(), *enc(A.raw_tables(c.representative)), c.orbit_size]
                for c in cs
            ]
        if kind == "valid_pairs":
            return lambda: gfsearch.valid_pairs(op["p"], op["n"]), lambda r: [list(t) for t in r[1]]
        if kind == "gl_matrices":
            return lambda: gfsearch.gl_matrices(op["p"], op["n"]), lambda r: {
                "count": len(r[0]),
                "sample": [[r[0][i].tolist(), r[1][i].tolist()] for i in op["picks"]],
            }
        if kind == "classify_all":
            def run():
                return [(d, dialg.classify_dim2(d)) for d in dialg.enumerate_valid_dialgebras(op["p"])]
            return run, lambda r: [
                [*enc(A.raw_tables(d)), lab.label_string(), enc(A.raw_mat(lab.witness))]
                for d, lab in r
            ]
        d = tables(F, op["a"])
        if kind == "classify":
            return lambda: dialg.classify_dim2(d), lambda lab: [
                lab.label_string(), enc(A.raw_mat(lab.witness))
            ]
        if kind == "aut":
            return lambda: dialg.automorphism_group(d), lambda ms: [enc(A.raw_mat(m)) for m in ms]
        if kind == "iso":
            b = tables(F, op["b"])
            return lambda: dialg.are_isomorphic(d, b), lambda m: None if m is None else enc(A.raw_mat(m))
        if kind == "flags":
            return lambda: dialg.structure_flags(d), lambda f: [
                f.simple_left, f.simple_right, f.semiprime_left, f.semiprime_right,
                f.prime_left, f.prime_right,
            ]
        raise ValueError(f"unknown op kind {kind!r}")

    results = []
    calibration = []
    for index, op in enumerate(plan):
        run, encode = prepare(op)
        calibration.append(calibration_sample())
        if tracer:
            tracer.op_id = index
        error = None
        start = time.perf_counter()
        try:
            out = run()
        except Exception as exc:  # the parent decides whether it was called for
            latency = time.perf_counter() - start
            error = type(exc).__name__
            out = None
        else:
            latency = time.perf_counter() - start
            out = encode(out)
        results.append({"latency": latency, "error": error, "out": out})

    record = {
        "import_s": import_s,
        "numpy_loaded": "numpy" in sys.modules,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "results": results,
        "calibration": calibration,
    }
    if tracer:
        layers.dump_summary(tracer, summary_path)
        tracer.write_spans(summary_path.replace(".json", ".spans.tsv"))
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2] == "1", sys.argv[3])
