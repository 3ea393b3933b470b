#!/usr/bin/env python3
"""Record the CLI output of every benchmark case into golden.json.

Run from the repository root at the commit whose output is the reference:

    python3 perfbench/record_golden.py

Each case runs in-process through `bttwist.cli.main`; the file keeps the exit
code, the exact stdout and the error type of each case.  A case whose output
fails the paper-number check is reported and the file is not written.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
from workloads import run_in_process  # noqa: E402


def main() -> int:
    golden, bad = {}, 0
    for argv in gate.all_cases():
        rc, stdout, stderr = run_in_process(argv)
        problems = gate.check_numbers(argv, rc, stdout, stderr)
        if problems:
            bad += 1
            print(" ".join(argv), "->", "; ".join(problems), file=sys.stderr)
        golden[" ".join(argv)] = {"rc": rc, "stdout": stdout,
                                  "error": gate.error_type(stderr)}
    if bad:
        print(f"{bad} cases disagree with the paper; golden.json not written",
              file=sys.stderr)
        return 1
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
             for k, v in golden.items()]
    gate.GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(golden)} cases in {gate.GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
