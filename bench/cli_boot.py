"""Traced stand-in for `python -m dialg.cli`: installs the layer wrappers,
then runs `dialg.cli.main` on the remaining arguments.

    python bench/cli_boot.py SUMMARY.json VERB ARGS...
"""

from __future__ import annotations

import json
import sys

import layers


def main():
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = layers.Tracer()
    tracer.install()
    code = 1
    try:
        import dialg.cli

        tracer.op_id = 0
        code = dialg.cli.main(argv)
    finally:
        sys.stdout.flush()
        summary = tracer.summary()
        summary["numpy_loaded"] = "numpy" in sys.modules
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
        tracer.write_spans(summary_path.replace(".json", ".spans.tsv"))
    return code


if __name__ == "__main__":
    sys.exit(main())
