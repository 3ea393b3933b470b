"""The acceptance battery: every headline number and law, checked exactly.

Each check returns (ok, detail).  `run_all` prints one line per criterion,
then writes the seconds each took to stderr; the test suite asserts the same
functions, so the CLI and pytest agree by construction.
"""

from __future__ import annotations

import json
import random
import sys
import time
from collections import Counter
from fractions import Fraction

from .errors import ExistenceFails
from .padic import INFINITY, make_field, squarefree_part
from .bttree import Vertex, Window, distance, tubular
from .branch import (branch_member, branch_with_extension, lift_vertex,
                     sample_integral_matrix, unit_fixed_points)
from . import enumerate as counting
from . import globalforms
from .quatalg import maxorder_generators, find_trivialization
from .twisted import Cocycle, TwistedTree, VertexOrder, trivial_cocycle


def check_q8_omega() -> tuple:
    """Criterion 1: 26 forms over the full dyadic tower, in shells 1+5+20."""
    rep = counting.count_local("q8", 2, (-1, -3, 2))
    if rep.count != 26:
        return False, f"count {rep.count} != 26"
    center = Vertex(make_field(2, (-1, -3, 2)).zero, Fraction(-1, 2))
    shells = Counter(distance(center, v) for v in rep.vertices)
    want = {Fraction(0): 1, Fraction(1, 4): 5, Fraction(1, 2): 20}
    if dict(shells) != want:
        return False, f"shells {dict(shells)}"
    return True, "count 26, shells 1+5+20"


def check_table1(data=None) -> tuple:
    """Criterion 2: all 14 subfield counts, and the quartic/quadratic summary."""
    data = data or counting.table1()
    by_field = {r["field"]: r["count"] for r in data["rows"]}
    want_quad = {(-1,): 4, (3,): 4, (-3,): 2, (2,): 4, (-2,): 4, (6,): 4,
                 (-6,): 4}
    for fld, cnt in want_quad.items():
        if by_field.get(fld) != cnt:
            return False, f"quadratic {fld}: {by_field.get(fld)} != {cnt}"
    for fld, cnt in by_field.items():
        if len(fld) != 2:
            continue
        span = {fld[0], fld[1], squarefree_part(fld[0] * fld[1])[0]}
        want = 6 if -3 in span else 10
        if cnt != want:
            return False, f"quartic {fld}: {cnt} != {want}"
    summ = data["summary"]
    if summ["quadratic_counts"] != [2, 4, 4, 4, 4, 4, 4]:
        return False, f"quadratic summary {summ['quadratic_counts']}"
    if summ["quartic_counts"] != [6, 6, 6, 10, 10, 10, 10]:
        return False, f"quartic summary {summ['quartic_counts']}"
    return True, "14/14 rows match; summary 4/2 quadratics, 10/6 quartics"


def check_prop_7_2() -> tuple:
    """Criterion 3: over E*F the count is 6, with 2 over E and the other 4
    over F or F'."""
    for x in (-1, 2, 6):
        ctx = counting.make_context("q8", 2, (-3, x))
        rep = counting.count_integral_forms(ctx, (-3, x))
        if rep.count != 6:
            return False, f"EF with F=sqrt({x}): count {rep.count} != 6"
        amb = ctx.ambient
        subE = amb.find_subfield((-3,))
        subF = amb.find_subfield((x,))
        other = [d for d in (amb.span_class[m][0] for m in range(1, 4))
                 if d not in (-3, x)]
        subF2 = amb.find_subfield((other[0],))
        orders = [VertexOrder(ctx.tree, ctx.triv, v) for v in rep.vertices]
        rest = [o for o in orders if not o.in_subtree(subE)]
        if len(orders) - len(rest) != 2:
            return False, f"E-defined {len(orders) - len(rest)} != 2"
        for o in rest:
            if not (o.in_subtree(subF) or o.in_subtree(subF2)):
                return False, "a non-E vertex is over neither F nor F'"
    return True, "6 = 2 over E + 4 over F/F' for all three EF fields"


def check_psi() -> tuple:
    """Criterion 4: 10 forms over the totally ramified biquadratic field."""
    rep = counting.count_local("q8", 2, (-1, 2))
    return rep.count == 10, f"count {rep.count}"


def check_maxorder() -> tuple:
    """Criterion 5: division-order counts 2 / 1,1 / 3 / 5."""
    cases = [((-3,), 2), ((-1,), 1), ((2,), 1), ((-3, 2), 3),
             ((-1, -3, 2), 5)]
    got = []
    for args, want in cases:
        rep = counting.count_local("maxorder", 2, args, (2, -3))
        got.append(rep.count)
        if rep.count != want:
            return False, f"over Q2{args}: {rep.count} != {want}"
    return True, f"counts {got}"


def check_hurwitz_dicyclic() -> tuple:
    """Criterion 6: Hurwitz 2/1/1 and dicyclic 2/1/1."""
    checks = [
        ("hurwitz", 2, (-3,), 2),
        ("hurwitz", 2, (2,), 1),
        ("hurwitz", 3, (-1,), 1),
        # Q_3(sqrt 2) = Q_3(sqrt -1) as local fields (-2 is a 3-adic square)
        ("dicyclic", 3, (-1,), 2),
        ("dicyclic", 3, (3,), 1),
        ("dicyclic", 2, (-6,), 1),
    ]
    q3 = make_field(3, ())
    if not (q3.quadratic_defect(q3.from_rational(-2)) is INFINITY):
        return False, "-2 should be a 3-adic square (model aliasing broken)"
    for group, p, args, want in checks:
        rep = counting.count_local(group, p, args)
        if rep.count != want:
            return False, f"{group} over Q{p}{args}: {rep.count} != {want}"
    return True, "all six division/split cases match"


def check_prop_7_6(data=None) -> tuple:
    """Criterion 7: singleton intersections for the ramified pairs."""
    data = data or counting.table1()
    for (a, b), n in data["cross_table"].items():
        if n != 1:
            return False, f"|IF(sqrt {a}) & IF(sqrt {b})| = {n} != 1"
    return True, "all eight (a, b) intersections are singletons"


def check_global() -> tuple:
    """Criterion 8: the five global headline numbers."""
    g3 = globalforms.global_count(3)
    if g3["count"] != 2:
        return False, f"N=3: {g3['count']} != 2"
    r5 = globalforms.global_count(5, assert_existence=True, resolve=True)
    if r5["count"] != 6:
        return False, f"N=5: {r5['count']} != 6"
    r6 = globalforms.global_count(6, assert_existence=True, resolve=True)
    if r6["count"] != 2:
        return False, f"N=6: {r6['count']} != 2"
    if globalforms.serre_existence(35):
        return False, "N=35 existence should fail"
    try:
        globalforms.global_count(35)
        return False, "N=35 should raise"
    except ExistenceFails:
        pass
    g11 = globalforms.global_count(11)
    C11 = globalforms.class_group(11)
    if not (globalforms.serre_existence(11) and g11["count"] == 2
            and globalforms.h2(C11) == globalforms.genus_number(11)):
        return False, f"N=11: {g11}"
    return True, "N=3,5,6,35,11 all as stated"


ENGINE_FIELDS = [
    # (p, sqrt_args, window radius, number of samples)
    (2, (), Fraction(3), 60),
    (2, (-3,), Fraction(3), 45),
    (2, (2,), Fraction(3), 45),
    (3, (2,), Fraction(2), 30),
    (2, (-1, -3, 2), Fraction(3, 4), 20),
]


def check_engines(fast: bool = False, seed: int = 20240) -> tuple:
    """Criterion 9: the closed form, the integrality oracle, and the
    fixed-point engine agree on random integral matrices; the scaling law
    branch(alpha q) = branch(q)^[nu(alpha)] holds."""
    rng = random.Random(seed)
    total = 0
    for p, args, radius, n in ENGINE_FIELDS:
        if fast:
            n = max(4, n // 8)
        fld = make_field(p, args)
        win = Window(Vertex(fld.zero, Fraction(0)), radius)
        for _ in range(n):
            q = sample_integral_matrix(fld, rng)
            oracle = [branch_member(q, v) for v in win]
            S, amb = branch_with_extension(q, fld)
            for v, o in zip(win.vertices, oracle):
                if S.contains(lift_vertex(v, amb)) != o:
                    return False, f"closed form vs oracle over {fld}: {q}"
            t, d = q.trace(), q.det()
            if t.valuation() >= 0 and d.valuation() == 0:
                fixed = unit_fixed_points(q, win)
                fx = [any(v == u for u in fixed) for v in win.vertices]
                if fx != oracle:
                    return False, f"fixed points vs oracle over {fld}"
            total += 1
    # scaling law
    law_checks = 50 if not fast else 10
    fld = make_field(2, (2,))
    win = Window(Vertex(fld.zero, Fraction(0)), Fraction(2))
    for _ in range(law_checks):
        q = sample_integral_matrix(fld, rng)
        k = rng.randint(0, 2)
        alpha = fld.pi_pow(k)
        qa = q.scaled(alpha)
        S, amb = branch_with_extension(q, fld)
        Sa, amb_a = branch_with_extension(qa, fld)
        grown = tubular(S, alpha.valuation())
        for v in win:
            if (Sa.contains(lift_vertex(v, amb_a))
                    != grown.contains(lift_vertex(v, amb))):
                return False, f"scaling law fails for alpha = pi^{k}"
    return True, f"{total} matrices, zero discrepancies; scaling law on {law_checks}"


def check_twisted_laws(fast: bool = False, seed: int = 77) -> tuple:
    """Criterion 10: cocycle law, group action law, the half-edge pivot, and
    the wild hair lengths."""
    rng = random.Random(seed)
    omega = make_field(2, (-1, -3, 2))
    alg, _ = maxorder_generators(2, -3)
    triv = find_trivialization(alg, omega)
    coc = Cocycle(omega, triv.flip_d, triv.cocycle_witness)
    # cocycle law, exhaustively (also enforced at construction)
    for s in range(8):
        for t in range(8):
            lhs = coc[s ^ t]
            rhs = coc[s] * coc[t].galois(s)
            if not lhs.proj_eq(rhs):
                return False, f"cocycle law fails at ({s},{t})"
    tree = TwistedTree(omega, coc)
    win = Window(Vertex(omega.zero, Fraction(0)), Fraction(1, 2))
    n_pts = 100 if not fast else 20
    pool = list(win.vertices)
    for _ in range(n_pts):
        v = pool[rng.randrange(len(pool))]
        s = rng.randrange(8)
        t = rng.randrange(8)
        if not tree.apply(s ^ t, v) == tree.apply(s, tree.apply(t, v)):
            return False, f"action law fails at ({s},{t})"
    # the half-level pivot on the unramified quadratic
    F = make_field(2, (-3,))
    trivF = find_trivialization(alg, F)
    treeF = TwistedTree(F, Cocycle(F, trivF.flip_d, trivF.cocycle_witness))
    winF = Window(Vertex(F.zero, Fraction(0)), 2)
    inv = treeF.invariant_vertices([0, 1], winF, include_midpoints=True)
    pivot = Vertex(F.zero, Fraction(-1, 2))
    if len(inv) != 1 or not (inv[0] == pivot):
        return False, f"pivot: invariants {[(v.level) for v in inv]}"
    # hair lengths over the two wild quadratics
    for alpha, ell_want in ((-1, Fraction(1, 2)), (2, Fraction(1))):
        L = make_field(2, (alpha,))
        ttree = TwistedTree(L, trivial_cocycle(L))
        wL = Window(Vertex(L.zero, Fraction(0)), 2)
        invL = ttree.invariant_vertices([0, 1], wL)
        subK = L.find_subfield(())
        kverts = [v for v in wL
                  if VertexOrder(ttree, None, v).in_subtree(subK)]

        def d_to_K(v):
            return min((distance(v, a) + distance(v, b) - distance(a, b)) / 2
                       for a in kverts for b in kverts)

        hair = max(d_to_K(v) for v in invL)
        q2 = make_field(2, ())
        ell = (L.from_rational(2) * L.sqrt_gen(0)).valuation() - Fraction(
            q2.quadratic_defect(q2.from_rational(alpha)), 2)
        if hair != ell or ell != ell_want:
            return False, f"hair over sqrt({alpha}): {hair} vs {ell}"
        for v in wL:
            if (d_to_K(v) <= ell) != any(v == w for w in invL):
                return False, f"invariant set mismatch over sqrt({alpha})"
    return True, "cocycle, action, pivot, hair lengths all verified"


CHECKS = [
    ("1 q8-over-tower-26", check_q8_omega),
    ("2 subfield-table", check_table1),
    ("3 EF-split-6", check_prop_7_2),
    ("4 biquadratic-10", check_psi),
    ("5 division-order-counts", check_maxorder),
    ("6 hurwitz-dicyclic", check_hurwitz_dicyclic),
    ("7 singleton-intersections", check_prop_7_6),
    ("8 global-counts", check_global),
    ("9 engine-agreement", check_engines),
    ("10 twisted-laws", check_twisted_laws),
]


def run_all(fast: bool = False) -> bool:
    """A PASS/FAIL line per criterion, then to stderr the seconds of table1
    (shared by criteria 2 and 7) and of each criterion run, even on a raise."""
    all_ok, seconds, start = True, {}, time.perf_counter()
    try:
        shared_table = counting.table1()
        seconds["table1"] = time.perf_counter() - start
        for name, fn in CHECKS:
            start = time.perf_counter()
            if fn is check_table1 or fn is check_prop_7_6:
                ok, detail = fn(shared_table)
            elif fn in (check_engines, check_twisted_laws):
                ok, detail = fn(fast=fast)
            else:
                ok, detail = fn()
            seconds[name] = time.perf_counter() - start
            all_ok &= ok
            print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    finally:
        print(json.dumps({"verify_seconds": seconds}), file=sys.stderr)
    return all_ok
