"""Run the comove CLI in a fresh interpreter with tracing on.

Usage: ``python3 perfbench/cli_child.py SRC_DIR SPANS_JSON RUN_ID -- ARGS...``

Times ``import comove.cli`` as the ``cli.import`` span, wraps the traced
functions (see :mod:`spans`), runs ``comove.cli.main(ARGS)`` and writes the
spans to SPANS_JSON even when the run fails. Exits with the CLI's code.
"""

import sys
from time import perf_counter

import spans

if __name__ == "__main__":
    src, spans_path, run_id = sys.argv[1:4]
    argv = sys.argv[sys.argv.index("--") + 1 :]
    start = perf_counter()
    sys.path.insert(0, src)
    import comove.cli

    tracer = spans.Tracer()
    tracer.run = run_id
    tracer.record("cli.import", start, perf_counter())
    spans.install(tracer)
    try:
        code = comove.cli.main(argv)
    finally:
        tracer.dump(spans_path)
    sys.exit(code)
