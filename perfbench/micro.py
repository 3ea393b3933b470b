"""Direct timings of the hottest layer operations on fixed seeded inputs.

These run untraced, before any wrapper is installed, on pools built from a
constant seed so that every traced run times the same elements.  Valuation
and quadratic defect are timed on freshly built copies, because
`FieldElement` memoises its valuation.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

POOL_SEED = 20251017
POOL_SIZE = 12
# the dyadic tower used throughout the paper, one field per degree
FIELDS = {1: (2, ()), 2: (2, (-3,)), 4: (2, (-3, 2)), 8: (2, (-1, -3, 2))}
MIN_SECONDS = 0.1
MIN_REPS, MAX_REPS = 3, 2000


def per_call_us(op, make_inputs) -> float:
    """Median over repetitions of the mean time of `op` over the inputs
    `make_inputs()` builds (outside the timed region), in microseconds."""
    reps, spent = [], 0.0
    while len(reps) < MIN_REPS or (spent < MIN_SECONDS
                                   and len(reps) < MAX_REPS):
        inputs = make_inputs()
        t0 = perf_counter()
        for x in inputs:
            op(x)
        dt = perf_counter() - t0
        spent += dt
        reps.append(dt / len(inputs))
    return statistics.median(reps) * 1e6


def element_pool(field, rng, n=POOL_SIZE):
    """Nonzero elements with small integer coordinates, about half of the
    coordinates zero."""
    pool = []
    while len(pool) < n:
        coords = [rng.randint(-4, 4) if rng.random() < 0.5 else 0
                  for _ in range(field.degree)]
        if any(coords):
            pool.append(field.el(coords))
    return pool


def measure() -> dict:
    """name -> microseconds per call, for every micro metric."""
    from bttwist import branch, bttree, padic

    rng = random.Random(POOL_SEED)
    out = {}
    for deg, (p, args) in FIELDS.items():
        f = padic.make_field(p, args)
        pool = element_pool(f, rng)
        pairs = list(zip(pool, pool[1:] + pool[:1]))

        def fresh():
            return [f.el(x.coords) for x in pool]

        out[f"padic.mul_us.d{deg}"] = per_call_us(
            lambda xy: xy[0] * xy[1], lambda: pairs)
        out[f"padic.inv_us.d{deg}"] = per_call_us(lambda x: x.inv(),
                                                  lambda: pool)
        out[f"padic.valuation_us.d{deg}"] = per_call_us(
            lambda x: x.valuation(), fresh)
        out[f"padic.quadratic_defect_us.d{deg}"] = per_call_us(
            f.quadratic_defect, fresh)

    p, args = FIELDS[8]
    f = padic.make_field(p, args)
    from workloads import kinds_for, sample_matrix  # the engine sampler
    maps = []
    for kind in kinds_for(f):  # an invertible integral map of every kind
        while True:
            m = sample_matrix(f, kind, rng)
            if m.det().valuation() == 0:
                maps.append(m)
                break
    win = bttree.Window(bttree.Vertex(f.zero, Fraction(0)), Fraction(1, 4))
    cases = [(m, v) for m in maps for v in win.vertices]
    out["bttree.apply_vertex_us.d8"] = per_call_us(
        lambda mv: mv[0].apply_vertex(mv[1]), lambda: cases)
    out["branch.member_us.d8"] = per_call_us(
        lambda mv: branch.branch_member(mv[0], mv[1]), lambda: cases)
    return out
