"""Traced stand-in for `python -m spinsolve.cli ARGS...`.

Imports spinsolve, installs the tracer, runs `cli.main(ARGS)` and exits
with its code, as the real entry point does (an uncaught exception still
prints its traceback and exits 1).  The span summary goes to stderr as one
line starting with MARKER, together with the time `import spinsolve.cli`
took in this fresh process.
"""

import json
import sys
import time

MARKER = "perfbench-trace "


def main() -> None:
    start = time.perf_counter()
    from spinsolve import cli
    import_ms = (time.perf_counter() - start) * 1e3

    import tracer

    spans = tracer.Tracer()
    spans.install()
    try:
        code = cli.main(sys.argv[1:])
    finally:
        summary = spans.summary()
        summary["cli.import_ms"] = import_ms
        sys.stdout.flush()
        print(MARKER + json.dumps(summary), file=sys.stderr, flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
