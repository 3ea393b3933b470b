#!/usr/bin/env python3
"""Record what `count-local` prints for every input of the local sweep.

    python3 scripts/record_local_sweep.py [--out tests/local_sweep_golden.json]

Each of the 472 inputs of `scripts/local_sweep.py` (4 groups, the 17
primes below 60, 7 argument sets at odd p and 6 at p = 2, where (2) and (p)
coincide) runs in process through `cli.main` in its CLI form,
`count-local --group G --field p:d1,...`.  The file maps that
argv to the exit code, the stdout, and the type and message of the JSON
error on stderr.  `tests/test_local_sweep_golden.py` replays it; a change
that moves a recorded line re-records the file and names each moved line
in CHANGES.md, as a fix or as an intended change.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "scripts"))

from bttwist import cli  # noqa: E402
from local_sweep import GROUPS, PRIMES, arg_sets, field_name  # noqa: E402

GOLDEN = ROOT / "tests" / "local_sweep_golden.json"


def inputs(groups=GROUPS, primes=PRIMES):
    """The sweep's inputs as argv strings, in sweep order."""
    return [f"count-local --group {group} --field {field_name(p, args)}"
            for group in groups for p in primes for args in arg_sets(p)]


def outcome(argv: str) -> dict:
    """Exit code, stdout and the JSON error of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv.split())
    error = json.loads(err.getvalue()) if err.getvalue() else {}
    return {"rc": rc, "stdout": out.getvalue(),
            "error": error.get("error"), "message": error.get("message")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", default=str(GOLDEN))
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    golden = {line: outcome(line) for line in inputs()}
    Path(args.out).write_text(json.dumps(golden, indent=0) + "\n")
    print(f"{len(golden)} inputs recorded to {args.out} in "
          f"{time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
