#!/usr/bin/env python3
"""Ambient independence of the integral-form counts.

    python3 scripts/ambient_sweep.py [--groups q8,hurwitz,dicyclic,maxorder]
                                     [--primes 2,3,5,7]

IF over E is computed inside a splitting model L of E, through the twisted
form T_E of L's tree, so the count over E and the geometry of its vertices
cannot depend on L.  For each group, prime p and multiquadratic E over Q_p,
the sweep builds a counting context over every model L = E, E(sqrt x) or
E(sqrt x, sqrt y) of degree at most 8 over which `find_trivialization`
splits the algebra, counts over E there, and compares the signatures: the
count, e, f and the sorted pairwise tree distances of the vertices (in
units of v(p), which do not depend on L).  It prints one line per group and
E and exits 1 if two ambients of one E disagree.
"""

from __future__ import annotations

import argparse
import sys
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bttwist import enumerate as counting  # noqa: E402
from bttwist.bttree import distance  # noqa: E402
from bttwist.errors import (FieldTooSmall, NotSquareFree,  # noqa: E402
                            SplitPrime)
from bttwist.padic import make_field, quad_ext_type  # noqa: E402
from bttwist.quatalg import (find_trivialization,  # noqa: E402
                             maxorder_generators, standard_groups)

GROUPS = ("q8", "hurwitz", "dicyclic", "maxorder")


def square_classes(p: int) -> tuple:
    """Squarefree representatives of the nontrivial square classes of Q_p:
    the seven classes at p = 2; u, p and u p with u the least non-residue
    unit (-1 first) at odd p."""
    if p == 2:
        return (-1, -3, 2, -2, 3, 6, -6)
    u = next(d for d in (-1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10)
             if d % p and quad_ext_type(d, p) == "unramified")
    return (u, p, u * p)


def algebra(group: str, p: int):
    """The group's algebra and quaternion generators, as `make_context`
    takes them (maxorder: the division algebra (p, delta) of Q_p)."""
    if group == "maxorder":
        return maxorder_generators(p, counting._unram_unit(p))
    return standard_groups()[group]


def _model(p: int, args: tuple):
    try:
        return make_field(p, args)
    except (NotSquareFree, SplitPrime):
        return None


def subfields_E(p: int, max_degree: int = 4) -> list:
    """The sqrt_args of the fields E: Q_p and the models on up to
    log2(max_degree) square classes, one model per field."""
    out, seen = [], set()
    reps = square_classes(p)
    for k in range(max_degree.bit_length()):
        for args in combinations(reps, k):
            f = _model(p, args)
            if f is not None and f.degree == 2 ** k:
                key = frozenset(f.span_class[m][0] for m in range(f.degree))
                if key not in seen:
                    seen.add(key)
                    out.append(args)
    return out


def ambients(p: int, e_args: tuple, max_degree: int = 8) -> list:
    """Every model E(sqrt x : x in extra) with at most two extra square
    classes and degree at most max_degree."""
    reps = square_classes(p)
    out = []
    for k in range(3):
        for extra in combinations(reps, k):
            f = _model(p, tuple(e_args) + extra)
            if f is not None and f.degree <= max_degree:
                out.append(f)
    return out


def context(group: str, L):
    """A counting context over L, or None if the grid finds no
    trivialization there (the algebra may not split over L)."""
    alg, gens = algebra(group, L.p)
    try:
        triv = find_trivialization(alg, L)
    except FieldTooSmall:
        return None
    return counting.CountingContext(group, L, triv, gens)


def signature(ctx, e_args: tuple) -> tuple:
    rep = counting.count_integral_forms(ctx, e_args)
    return (rep.count, rep.e, rep.f,
            tuple(sorted(distance(u, v)
                         for u, v in combinations(rep.vertices, 2))))


def compare(group: str, p: int, e_args: tuple, fields=None) -> dict:
    """Signature by ambient sqrt_args, over the given ambients or all."""
    out = {}
    for L in fields if fields is not None else ambients(p, e_args):
        ctx = context(group, L)
        if ctx is not None:
            out[L.sqrt_args] = signature(ctx, e_args)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--groups", default=",".join(GROUPS))
    ap.add_argument("--primes", default="2,3,5,7")
    ap.add_argument("--max-e-degree", type=int, default=4)
    args = ap.parse_args(argv)
    bad = contexts = 0
    for group in args.groups.split(","):
        for p in map(int, args.primes.split(",")):
            for e_args in subfields_E(p, args.max_e_degree):
                sigs = compare(group, p, e_args)
                contexts += len(sigs)
                agree = len(set(sigs.values())) <= 1
                bad += not agree
                head = next(iter(sigs.values()), None)
                print(f"{group:9} {p} {str(e_args):16} ambients {len(sigs):2} "
                      f"{'agree' if agree else 'DISAGREE'} "
                      f"{head[:3] if head else '-'}")
                if not agree:
                    for amb, sig in sigs.items():
                        print(f"    {amb}: {sig[:3]}")
    print(f"{contexts} contexts, {bad} disagreeing fields")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
