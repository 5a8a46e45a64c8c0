"""Run one popsi CLI command in-process, with spans around every layer function.

    python3 perfbench/traced_cli.py SPANS_JSON <popsi command and flags>

`import popsi.cli` is timed first, from this fresh interpreter, as the
`cli.import` span; the command then runs through `popsi.cli.main` and the
spans are written to SPANS_JSON when it returns.
"""

import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    import popsi.cli

    end = time.perf_counter()
    from spans import Tracer

    tracer = Tracer()
    tracer.add("cli.import", start, end)
    tracer.install()
    with tracer.span("cli.main"):
        status = popsi.cli.main(sys.argv[2:])
    tracer.dump(sys.argv[1])
    sys.exit(status)
