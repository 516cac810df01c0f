"""Traced stand-in for ``python -m memaccel.cli`` in the traced cli-cold run.

Usage: python -X importtime bench/cli_child.py SPANS_FILE SUBCOMMAND [ARGS...]

Imports the CLI, wraps memaccel's public functions with the benchmark's
tracer, runs the subcommand, and writes the spans and the time spent
after the import to SPANS_FILE. Exits with the CLI's own exit code.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import memaccel.cli  # noqa: E402

t_imported = time.perf_counter()

import tracer as tracing  # noqa: E402


def main():
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tr = tracing.Tracer()
    tracing.install(tr)
    tr.op = 0
    tr.active = True
    try:
        code = memaccel.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    tr.active = False
    after = time.perf_counter() - t_imported
    with open(spans_file, "w") as fh:
        json.dump({"spans": tr.spans, "after_import_s": after}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
