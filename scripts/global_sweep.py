#!/usr/bin/env python3
"""Sweep squarefree N and report the global count data for Q(sqrt(-N)).

Case (c) is left as a pair unless a built-in representation resolves it.
"""

import argparse
import sys

from bttwist import globalforms
from bttwist.errors import BttwistError
from bttwist.padic import squarefree_part


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max", type=int, default=60)
    args = ap.parse_args()
    print(f"{'N':>4} {'D':>6} {'h':>3} {'h2':>3}  case  count")
    for N in range(1, args.max + 1):
        if squarefree_part(N)[0] != N:
            continue
        try:
            out = globalforms.global_count(
                N, assert_existence=N % 8 != 3, resolve=N in (5, 6))
        except BttwistError as exc:
            print(f"{N:>4}  --  {type(exc).__name__}: {exc}")
            continue
        count = out.get("count", out.get("case_c_pair"))
        print(f"{N:>4} {out['D']:>6} {out['h']:>3} {out['h2']:>3}  "
              f"{out['case']:>4}  {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
