"""Traced stand-in for ``python -m latcheck.cli``: imports the CLI, wraps the
traced functions, runs ``main`` on the same arguments, and writes its spans
as JSON to SPANS_PATH.

Usage: cli_child.py SPANS_PATH ARGS...
"""

import json
import sys
import time

import tracing

t0 = time.perf_counter()
from latcheck import cli  # noqa: E402  (the import is timed)
t1 = time.perf_counter()


def main(spans_path, argv):
    tracer = tracing.Tracer()
    tracer.add_span(tracing.CLI_IMPORT, t0, t1)
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.export(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
