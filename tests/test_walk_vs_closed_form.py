"""`branch_vertices` (seed search and flood fill) against the exact
convex-intersection closed form of the family's branch.

Where every generator splits in the ambient field, `branch_of_family` gives
the branch as one subtree.  The walk's members must all lie in it and none
of their other neighbours may: the closed form is convex, so any further
vertex of it would join the members through one of those neighbours, and
the two vertex sets are then equal.  Where a generator does not split, the
closed form raises NeedsExtension and only the walk answers.
"""

from fractions import Fraction

import pytest

from convex_oracle import Tube, branch_of_family
from bttwist import enumerate as counting
from bttwist.bttree import Vertex, neighbors
from bttwist.errors import NeedsExtension

SPLIT = [("q8", (-1, -3, 2), 26), ("q8", (-3, -1), 6), ("q8", (-1, 2), 26),
         ("hurwitz", (-1, -3, 2), 5)]
NOT_SPLIT = [("q8", (-3, 2)), ("maxorder", (-1,)), ("dicyclic", (-6,))]


def _walk(ctx):
    amb = ctx.ambient
    center = Vertex(amb.zero, Fraction(-1, 2) if amb.e % 2 == 0 else 0)
    return counting.branch_vertices(ctx.images, center)


@pytest.mark.parametrize("group,args,size", SPLIT,
                         ids=[f"{g}-2:{','.join(map(str, a))}"
                              for g, a, _ in SPLIT])
def test_walk_is_the_closed_form_branch(group, args, size):
    ctx = counting.make_context(group, 2, args)
    members = _walk(ctx)
    S = branch_of_family(ctx.images, ctx.ambient)
    assert isinstance(S, Tube)
    assert len(members) == size
    assert all(S.contains(v) for v in members)
    keys = {v.key() for v in members}
    rim = [n for v in members for n in neighbors(v) if n.key() not in keys]
    assert rim
    assert not any(S.contains(n) for n in rim)


@pytest.mark.parametrize("group,args", NOT_SPLIT,
                         ids=[f"{g}-2:{','.join(map(str, a))}"
                              for g, a in NOT_SPLIT])
def test_closed_form_needs_an_extension(group, args):
    ctx = counting.make_context(group, 2, args)
    assert _walk(ctx)
    with pytest.raises(NeedsExtension):
        branch_of_family(ctx.images, ctx.ambient)
