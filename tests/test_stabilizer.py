"""`VertexOrder.fixed_by` against the twisted action it stands for.

The stabilizer of a vertex is a subgroup of the Galois group, so
`fixed_by` answers some masks from others without computing the action.
Whatever order the masks are asked in, each answer must be whether
`TwistedTree.apply` fixes the vertex: on windows with their edge midpoints,
under the standard cocycles of every `count-local` case of the golden file
and of `table1`.  One `table1` asks `TwistedTree.fixes`, the query
`fixed_by` puts to the action, at most 94 times.  Its cocycle is trivial on
Gal(L/E) for every ramified pair it asks, so it never runs the pivot
kernel: 65 pairs are decided by the distance test of the standard E-tree,
and relative unramified descent decides the other 24, those of the six
ramified quadratics, from the quartic that adds sqrt -3.
"""

import contextlib
import io
import random
from fractions import Fraction

import pytest

from bttwist import enumerate as counting
from bttwist import twisted
from bttwist.bttree import Vertex, Window
from bttwist.twisted import SubfieldLattice, TwistedTree, VertexOrder
from test_branch_walk_diff import CASES  # the golden count-local cases


def _window_with_midpoints(amb, radius_edges):
    center = Vertex(amb.zero, Fraction(-1, 2) if amb.e % 2 == 0 else 0)
    win = Window(center, Fraction(radius_edges, amb.e))
    mids = [Vertex(win.vertices[c].center,
                   (win.vertices[p].level + win.vertices[c].level) / 2)
            for p, c in win.edges]
    return win.vertices + mids


def _mismatches(ctx, vertices, rng, rounds=2):
    """(vertex, mask) pairs where fixed_by, asked in shuffled orders on a
    fresh VertexOrder each round, differs from the action itself; and
    whether some vertex is fixed by a nontrivial mask and moved by another
    (so the stabilizer closure was used)."""
    tree, degree = ctx.tree, ctx.ambient.degree
    wrong, partial = [], False
    for v in vertices:
        want = {s: tree.apply(s, v) == v for s in range(degree)}
        partial |= 1 < sum(want.values()) < degree
        for _ in range(rounds):
            order = VertexOrder(tree, ctx.triv, v)
            masks = rng.sample(range(degree), degree)
            wrong += [(v.key(), s) for s in masks
                      if order.fixed_by(s) != want[s]]
    return wrong, partial


@pytest.mark.parametrize("group,field", CASES,
                         ids=[f"{g}-{p}:{','.join(map(str, a))}"
                              for g, (p, a) in CASES])
def test_fixed_by_on_count_local_cocycles(group, field):
    p, args = field
    ctx = counting.make_context(group, p, args)
    vertices = _window_with_midpoints(ctx.ambient, 1)
    wrong, _ = _mismatches(ctx, vertices, random.Random(hash(field) % 997))
    assert wrong == []


def test_fixed_by_on_the_table1_cocycle():
    ctx = counting.make_context("q8", 2, counting.OMEGA_ARGS)
    vertices = _window_with_midpoints(ctx.ambient, 2)
    wrong, partial = _mismatches(ctx, vertices, random.Random(14), rounds=3)
    assert wrong == []
    assert partial  # stabilizers strictly between trivial and everything


def test_one_table1_asks_each_member_order_once(monkeypatch):
    # table1 asks the 26 orders that counted the branch: of 414 in_subtree
    # calls, 179 come from the memo, 24 are relative descents (asked from
    # within `_decide`) and 65 reach the distance test
    calls, nested, decided, built = [], [], [], []
    depth = [0]
    ask, decide, init = (VertexOrder.in_subtree, VertexOrder._decide,
                         VertexOrder.__init__)

    def in_subtree(self, sub):
        calls.append(sub)
        if depth[0]:
            nested.append(sub)
        return ask(self, sub)

    def _decide(self, sub):
        decided.append(sub)
        depth[0] += 1
        try:
            return decide(self, sub)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(VertexOrder, "in_subtree", in_subtree)
    monkeypatch.setattr(VertexOrder, "_decide", _decide)
    monkeypatch.setattr(
        VertexOrder, "__init__",
        lambda self, *args: built.append(1) or init(self, *args))
    with contextlib.redirect_stdout(io.StringIO()):
        counting.table1()
    assert (len(calls), len(calls) - len(decided), len(nested)) == \
        (414, 179, 24)
    assert len(built) == 26


def test_one_table1_within_its_action_and_kernel_counts(monkeypatch):
    fixes, kernels, closed = [], [], []
    fix, kernel = TwistedTree.fixes, twisted.pivot_valuation_sum
    distance = SubfieldLattice.distance
    monkeypatch.setattr(
        TwistedTree, "fixes",
        lambda self, s, v: fixes.append(s) or fix(self, s, v))
    monkeypatch.setattr(
        twisted, "pivot_valuation_sum",
        lambda *args: kernels.append(args[0]) or kernel(*args))
    monkeypatch.setattr(
        SubfieldLattice, "distance",
        lambda self, x: closed.append(self.sub) or distance(self, x))
    with contextlib.redirect_stdout(io.StringIO()):
        counting.table1()
    assert 0 < len(fixes) <= 94
    assert len(kernels) == 0
    assert len(closed) == 65
