#!/usr/bin/env python3
"""Run one bttwist CLI job in this fresh process with tracing installed.

    python3 perfbench/cli_child.py TRACE_OUT.json -- <bttwist arguments>

The CLI's stdout, stderr and exit code pass through unchanged, so the parent
gates them exactly as for `python -m bttwist.cli`; the trace summary, the
spans and the import time go to TRACE_OUT.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

import tracing


def main() -> int:
    out_path, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        print(__doc__, file=sys.stderr)
        return 2
    t0 = perf_counter()
    from bttwist import cli
    import_s = perf_counter() - t0
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        tracer.begin_job()
        rc = cli.main(argv)
    data = {"summary": tracer.summary(import_s), "spans": tracer.spans}
    Path(out_path).write_text(json.dumps(data))
    return rc


if __name__ == "__main__":
    sys.exit(main())
