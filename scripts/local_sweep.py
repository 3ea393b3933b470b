#!/usr/bin/env python3
"""The input space of `count-local` at the primes below 60.

    python3 scripts/local_sweep.py [--groups q8,hurwitz,dicyclic,maxorder]
                                   [--primes 2,3,5,...,59]

For each group, prime p and argument set (), (-1), (2), (-2), (-3), (p) and
(-1, p) (six sets at p = 2, where (p) is (2)), the sweep runs `count_local`
in process and sorts the case by its outcome: "answer", or the name of the
exception it raised.  An answer at odd p is checked against counts known
without the tree (I. Reiner, *Maximal Orders*, §41): q8 counts 1; maxorder
counts e + 1 over an E != Q_p that contains the unramified quadratic, 1
over any other E != Q_p, and 0 over Q_p.  It prints the number of cases of
each outcome and exits 1 if a case ends in InternalInvariant or an untyped
exception, breaks an oracle, or raises FieldTooSmall outside
KNOWN_FIELD_TOO_SMALL.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bttwist import enumerate as counting  # noqa: E402
from bttwist.errors import BttwistError  # noqa: E402

GROUPS = ("q8", "hurwitz", "dicyclic", "maxorder")
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)

# Cases whose trivialization the grid search does not find (ROADMAP item 3):
# group -> the "p:args" fields.  The list may only shrink.
_Q8_FIELD_TOO_SMALL = frozenset((
    "3:2 5:2 5:-3 11:2 11:-3 13:2 17: 17:-3 17:17 19:2 23:-3 29:2 29:-3 "
    "37:2 41: 41:-3 41:41 43:2 47:-3 53:2 53:-3 59:2 59:-3").split())
KNOWN_FIELD_TOO_SMALL = {
    "q8": _Q8_FIELD_TOO_SMALL,
    "hurwitz": _Q8_FIELD_TOO_SMALL,
    "dicyclic": frozenset((
        "5:2 5:-2 7:-2 11:2 13:2 13:-2 19:2 23:-2 29:2 29:-2 31:-2 37:2 "
        "37:-2 43:2 47:-2 53:2 53:-2 59:2").split()),
    "maxorder": frozenset((
        "5:-2 23:-2 29:-2 31:-2 47:-1 47:-2 47:-1,47 53:-2 59:-1 "
        "59:-1,59").split()),
}


def arg_sets(p: int) -> tuple:
    """The argument sets at p, each once: (p) is (2) at p = 2."""
    sets = ((), (-1,), (2,), (-2,), (-3,), (p,), (-1, p))
    return tuple(dict.fromkeys(sets))


def field_name(p: int, args: tuple) -> str:
    return f"{p}:" + ",".join(map(str, args))


def expected_count(group: str, p: int, args: tuple, rep):
    """The oracle count of an answered case, or None where none is known."""
    if p == 2:
        return None
    if group == "q8":
        return 1
    if group == "maxorder":
        if not args:
            return 0
        return rep.e + 1 if rep.f == 2 else 1
    return None


def run_case(group: str, p: int, args: tuple):
    """(outcome, report): the report of an answer, else None."""
    try:
        return "answer", counting.count_local(group, p, args)
    except BttwistError as exc:
        return type(exc).__name__, None
    except Exception as exc:  # a traceback for a user; counted as a fault
        return f"untyped {type(exc).__name__}", None


def sweep(groups=GROUPS, primes=PRIMES):
    """Yield (group, p, args, outcome, fault) for every case; fault names
    what is wrong with the case, or is None."""
    for group in groups:
        for p in primes:
            for args in arg_sets(p):
                outcome, rep = run_case(group, p, args)
                fault = None
                if outcome == "InternalInvariant" or \
                        outcome.startswith("untyped"):
                    fault = outcome
                elif outcome == "FieldTooSmall" and field_name(p, args) \
                        not in KNOWN_FIELD_TOO_SMALL.get(group, ()):
                    fault = "FieldTooSmall outside the known list"
                elif rep is not None:
                    want = expected_count(group, p, args, rep)
                    if want is not None and rep.count != want:
                        fault = f"count {rep.count}, oracle {want}"
                yield group, p, args, outcome, fault


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--groups", default=",".join(GROUPS))
    ap.add_argument("--primes", default=",".join(map(str, PRIMES)))
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    outcomes, faults = Counter(), 0
    for group, p, e_args, outcome, fault in sweep(
            args.groups.split(","), [int(p) for p in args.primes.split(",")]):
        outcomes[outcome] += 1
        if fault:
            faults += 1
            print(f"FAULT {group} {field_name(p, e_args)}: {fault}")
    for outcome, n in outcomes.most_common():
        print(f"{outcome:20} {n}")
    print(f"{sum(outcomes.values())} cases, {faults} faults, "
          f"{time.perf_counter() - t0:.1f} s")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
