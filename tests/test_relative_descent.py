"""Relative unramified descent against the subfield test it short-cuts.

For a subfield E of L not containing the maximal unramified subfield L_ur,
`VertexOrder` decides v in T_E from E' = E L_ur: v is in T_E exactly when
Gal(L/E) fixes v under the twisted action and v is in T_E'.  On every
(vertex, subfield) pair with E' != E, a fresh `VertexOrder` asked about E
alone must give the answer of the oracle in `subfield_test_oracle.py`, and
the oracle's own answers must obey the rule.  E' is built here from its
definition, `find_subfield` of E's square classes and L's unramified one.

The pairs come from `table1`'s branch and its radius-2 neighbourhood, from
the branches and their neighbours of every `count-local` case of the golden
file, and from contexts at p = 3, 5 and 7 (maxorder over Q_3(sqrt -1,
sqrt 3) among them, where an invariant vertex on an E-level can still lie
outside T_E).
"""

from collections import Counter
from fractions import Fraction

import pytest

import subfield_test_oracle as old
from bttwist import enumerate as counting
from bttwist.bttree import Vertex, neighbors
from bttwist.padic import quad_ext_type
from bttwist.twisted import VertexOrder
from test_branch_walk_diff import CASES  # the golden count-local cases

ODD_CONTEXTS = [("maxorder", 3, (-1, 3)), ("q8", 3, (-1, 3)),
                ("dicyclic", 3, (-1, 3)), ("hurwitz", 3, (-1,)),
                ("q8", 5, (5,)), ("maxorder", 5, (2, 5)),
                ("q8", 7, (-1, 7)), ("maxorder", 7, (-1, 7))]


def _neighbourhood(vertices, radius):
    """The vertices and every vertex within `radius` edges of one."""
    seen = {v.key(): v for v in vertices}
    shell = list(vertices)
    for _ in range(radius):
        grown = []
        for w in (w for v in shell for w in neighbors(v)):
            if w.key() not in seen:
                seen[w.key()] = w
                grown.append(w)
        shell = grown
    return list(seen.values())


def _descent_pairs(L):
    """(E, E') for each subfield E of L with E' = E L_ur != E."""
    if L.f == 1:
        return []
    delta = next(d for d, _ in L.span_class.values()
                 if d != 1 and quad_ext_type(d, L.p) == "unramified")
    return [(sub, L.find_subfield(sub.field.sqrt_args + (delta,)))
            for sub in L.subfields() if sub.field.f < L.f]


def _check(group, p, args, radius):
    """The pairs on which the fresh VertexOrder differs from the oracle,
    those on which the oracle breaks the rule, and a tally of the pairs by
    what the rule sees: how many pairs, how many of them the descent step
    decides inside or outside, and how many vertices of T_E' are moved by
    Gal(L/E)."""
    ctx = counting.make_context(group, p, args)
    L, tree, triv = ctx.ambient, ctx.tree, ctx.triv
    center = Vertex(L.zero, Fraction(-1, 2) if L.e % 2 == 0 else 0)
    members = counting.branch_vertices(ctx.images, center)
    wrong, broken, seen = [], [], Counter()
    for v in _neighbourhood(members, radius):
        oracle = {}
        moved = {s for s in range(L.degree) if tree.apply(s, v) != v}

        def inside(sub):
            if sub.span not in oracle:
                oracle[sub.span] = old.subfield_vertex_test(tree, triv, v, sub)
            return oracle[sub.span]

        for sub, wider in _descent_pairs(L):
            want = inside(sub)
            if VertexOrder(tree, triv, v).in_subtree(sub) != want:
                wrong.append((v.key(), sub.field.sqrt_args, want))
            fixed = moved.isdisjoint(sub.fixing_masks())
            if want != (fixed and inside(wider)):
                broken.append((v.key(), sub.field.sqrt_args, want))
            seen["pairs"] += 1
            if sub.field.e < L.e and fixed and (v.level * L.e).denominator == 1:
                seen["descends", inside(wider)] += 1
            seen["moved in T_E'"] += not fixed and inside(wider)
    return wrong, broken, seen


def test_table1_branch_and_its_radius_2_neighbourhood():
    wrong, broken, seen = _check("q8", 2, counting.OMEGA_ARGS, 2)
    assert wrong == [] and broken == []
    # 426 vertices, and the 11 subfields without sqrt -3
    assert seen["pairs"] == 4686
    # the descent decides both ways, and without the invariance check it
    # would keep vertices of T_E' that Gal(L/E) moves
    assert seen["descends", True] and seen["descends", False]
    assert seen["moved in T_E'"]


@pytest.mark.parametrize("group,field", CASES,
                         ids=[f"{g}-{p}:{','.join(map(str, a))}"
                              for g, (p, a) in CASES])
def test_count_local_branches_and_neighbours(group, field):
    p, args = field
    wrong, broken, _ = _check(group, p, args, 1)
    assert wrong == [] and broken == []


@pytest.mark.parametrize("group,p,args", ODD_CONTEXTS,
                         ids=[f"{g}-{p}:{','.join(map(str, a))}"
                              for g, p, a in ODD_CONTEXTS])
def test_odd_prime_branches_and_neighbours(group, p, args):
    wrong, broken, seen = _check(group, p, args, 1)
    assert wrong == [] and broken == []
    assert seen["pairs"]  # L_ur is a proper subfield of each ambient field
