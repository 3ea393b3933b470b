"""`VertexOrder` against the per-pair subfield test it replaced.

The new test computes each vertex's order once: the lattice inverse in
closed form, the order's volume once per trivialization, the dual volume
from the echelon pivots, and invariance from generators of the fixing
group.  On every (vertex, subfield) pair it must agree with the oracle in
`subfield_test_oracle.py`: around the centre of Q_2(sqrt -1, sqrt -3,
sqrt 2), midpoints and vertices off the branch included, and on the branch
of every `count-local` case of the golden file.
"""

from fractions import Fraction

import pytest

import subfield_test_oracle as old
from bttwist import enumerate as counting
from bttwist.bttree import Vertex, Window
from bttwist.linalg import det, inverse
from bttwist.twisted import VertexOrder, order_lattice_of_vertex
from test_branch_walk_diff import CASES  # the golden count-local cases


def _center(amb):
    """The standard center `count_integral_forms` starts from."""
    return Vertex(amb.zero, Fraction(-1, 2) if amb.e % 2 == 0 else 0)


def _compare(ctx, vertices):
    """The pairs on which new and old disagree, on the whole test or on its
    invariance filter alone, and the number of pairs the old test accepts.
    The filter is compared by itself because the volume criterion rejects
    on its own the vertices the filter would."""
    wrong, accepted = [], 0
    for v in vertices:
        order = VertexOrder(ctx.tree, ctx.triv, v)
        for sub in ctx.ambient.subfields():
            want = old.subfield_vertex_test(ctx.tree, ctx.triv, v, sub)
            accepted += want
            if order.in_subtree(sub) != want:
                wrong.append((v.key(), sub.field.sqrt_args, want))
            H = sub.fixing_masks()
            if order.invariant(H) != ctx.tree.invariant(H, v):
                wrong.append((v.key(), sub.field.sqrt_args, "invariant"))
    return wrong, accepted


def test_window_around_the_centre_of_the_full_tower():
    ctx = counting.make_context("q8", 2, counting.OMEGA_ARGS)
    amb = ctx.ambient
    # the branch is the ball of two edges, so the third shell is off it
    win = Window(_center(amb), Fraction(3, amb.e))
    mids = [Vertex(win.vertices[c].center,
                   (win.vertices[p].level + win.vertices[c].level) / 2)
            for p, c in win.edges]
    wrong, accepted = _compare(ctx, win.vertices + mids)
    assert wrong == []
    # the window reaches every outcome: accepted pairs, vertices moved by
    # some Galois element, and vertices off the branch
    assert accepted > 0
    assert any(not VertexOrder(ctx.tree, ctx.triv, v).fixed_by(s)
               for v in win for s in range(1, amb.degree))
    members = counting.branch_vertices(ctx.images, _center(amb))
    assert any(not any(v == m for m in members) for v in win)


@pytest.mark.parametrize("group,field", CASES,
                         ids=[f"{g}-{p}:{','.join(map(str, a))}"
                              for g, (p, a) in CASES])
def test_branch_members_of_count_local_cases(group, field):
    p, args = field
    ctx = counting.make_context(group, p, args)
    members = counting.branch_vertices(ctx.images, _center(ctx.ambient))
    assert _compare(ctx, members)[0] == []


@pytest.mark.parametrize("group,args", [("q8", counting.OMEGA_ARGS),
                                        ("maxorder", (-3, 2)),
                                        ("dicyclic", (-6,))])
def test_closed_form_lattice_inverse_and_constant_volume(group, args):
    # B^-1 in closed form is the inverse of the pulled-back order, and
    # v(det B) = -v(det T) at every level
    ctx = counting.make_context(group, 2, args)
    amb = ctx.ambient
    for n in range(-2 * amb.e, 2 * amb.e + 1, max(1, amb.e // 2)):
        for center in (amb.zero, amb.one, amb.sqrt_gen(0)):
            v = Vertex(center, Fraction(n, amb.e))
            B = order_lattice_of_vertex(ctx.triv, v)
            assert VertexOrder(ctx.tree, ctx.triv, v).lattice_inverse == \
                inverse(list(zip(*B)))
            assert det([list(b) for b in B]).valuation() == \
                -ctx.triv.basis_valuation
