"""`VertexOrder` against the per-pair subfield test it replaced.

The new test computes each vertex's order once: the lattice inverse at
most once, the order's volume once per trivialization, the dual volume
from the echelon pivots, and invariance from generators of the fixing
group.  It decides unramified pairs by descent and skips the subfields of a
subfield the vertex was found outside.  On every (vertex, subfield) pair it
must agree with the oracle in `subfield_test_oracle.py`, whatever order the
subfields are asked in: around the centre of Q_2(sqrt -1, sqrt -3, sqrt 2),
midpoints and vertices off the branch included, on every unramified pair
around the centres of three fields, and on the branch of every
`count-local` case of the golden file.
"""

import random
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


def _oracle_table(ctx, vertices, subs):
    """The oracle's answer for each (vertex index, subfield span)."""
    return {(i, sub.span): old.subfield_vertex_test(ctx.tree, ctx.triv, v, sub)
            for i, v in enumerate(vertices) for sub in subs}


def _disagreements(ctx, vertices, table, asked):
    """The (vertex, subfield) pairs on which one VertexOrder per vertex,
    asked about the subfields in the order `asked(i)` gives, differs from
    the oracle's table."""
    wrong = []
    for i, v in enumerate(vertices):
        order = VertexOrder(ctx.tree, ctx.triv, v)
        for sub in asked(i):
            if order.in_subtree(sub) != table[i, sub.span]:
                wrong.append((v.key(), sub.field.sqrt_args, table[i, sub.span]))
    return wrong


def _filter_disagreements(ctx, vertices):
    """The pairs on which the invariance filter alone differs from the
    oracle's.  The filter is compared by itself because the volume
    criterion rejects on its own the vertices the filter would."""
    wrong = []
    for v in vertices:
        order = VertexOrder(ctx.tree, ctx.triv, v)
        for sub in ctx.ambient.subfields():
            H = sub.fixing_masks()
            if (old.order_invariant(order, H)
                    != old.tree_invariant(ctx.tree, H, v)):
                wrong.append((v.key(), sub.field.sqrt_args))
    return wrong


def _window_and_midpoints(ctx, radius):
    win = Window(_center(ctx.ambient), Fraction(radius, ctx.ambient.e))
    mids = [Vertex(win.vertices[c].center,
                   (win.vertices[p].level + win.vertices[c].level) / 2)
            for p, c in win.edges]
    return win, mids


@pytest.fixture(scope="module")
def full_tower_window():
    """The q8 context over the full tower, the 106 vertices within three
    edges of the centre followed by the 105 midpoints of their edges, and
    the oracle's table over all of them and every subfield, and the window.
    The branch is the ball of two edges, so the third shell is off it."""
    ctx = counting.make_context("q8", 2, counting.OMEGA_ARGS)
    win, mids = _window_and_midpoints(ctx, 3)
    vertices = win.vertices + mids
    return ctx, vertices, _oracle_table(ctx, vertices,
                                        ctx.ambient.subfields()), win


def test_window_around_the_centre_of_the_full_tower(full_tower_window):
    ctx, vertices, table, win = full_tower_window
    amb = ctx.ambient
    assert _disagreements(ctx, vertices, table,
                          lambda i: amb.subfields()) == []
    assert _filter_disagreements(ctx, vertices) == []
    # the window reaches every outcome: accepted pairs, vertices moved by
    # some Galois element, and lattice vertices off the branch (a midpoint
    # is never a branch member, so the last two look at the window only)
    assert any(table.values())
    assert any(not VertexOrder(ctx.tree, ctx.triv, v).fixed_by(s)
               for v in win for s in range(1, amb.degree))
    members = counting.branch_vertices(ctx.images, _center(amb))
    assert any(not any(v == m for m in members) for v in win)


@pytest.mark.parametrize("asking", ["ascending", "descending", "shuffled"])
def test_answers_do_not_depend_on_the_order_subfields_are_asked_in(
        full_tower_window, asking):
    # the inclusion memo only ever answers for a subfield of one the vertex
    # was found outside, so every order gives the oracle's answers
    ctx, vertices, table, _ = full_tower_window
    subs = ctx.ambient.subfields()
    rng = random.Random(10)
    asked = {"ascending": lambda i: subs,
             "descending": lambda i: subs[::-1],
             "shuffled": lambda i: rng.sample(subs, len(subs))}[asking]
    assert _disagreements(ctx, vertices, table, asked) == []


@pytest.mark.parametrize("group", ["q8", "maxorder"])
@pytest.mark.parametrize("p,args", [(2, counting.OMEGA_ARGS), (2, (-3, 2)),
                                    (3, (-1, 3))],
                         ids=["2:-1,-3,2", "2:-3,2", "3:-1,3"])
def test_unramified_pairs_descend(group, p, args):
    # L/E unramified: the test answers from invariance alone, and the
    # oracle's lattice volume must agree on every vertex within three edges
    # of the centre
    ctx = counting.make_context(group, p, args)
    amb = ctx.ambient
    assert amb.sqrt_args == args
    unramified = [s for s in amb.subfields() if s.field.e == amb.e]
    assert unramified
    vertices = _window_and_midpoints(ctx, 3)[0].vertices
    table = _oracle_table(ctx, vertices, unramified)
    assert _disagreements(ctx, vertices, table, lambda i: unramified) == []
    # both answers occur on every pair
    for sub in unramified:
        answers = {table[i, sub.span] for i in range(len(vertices))}
        assert answers == {True, False}


def test_subtrees_grow_with_the_subfield():
    # E inside E' and v in T_E imply v in T_E', on the oracle's table for
    # the members of table1's branch: the fact the inclusion memo rests on
    ctx = counting.make_context("q8", 2, counting.OMEGA_ARGS)
    members = counting.count_integral_forms(ctx, counting.OMEGA_ARGS).vertices
    subs = ctx.ambient.subfields()
    table = _oracle_table(ctx, members, subs)
    pairs = [(a, b) for a in subs for b in subs if a.span < b.span]
    assert pairs
    broken = [(v.key(), a.field.sqrt_args, b.field.sqrt_args)
              for i, v in enumerate(members) for a, b in pairs
              if table[i, a.span] and not table[i, b.span]]
    assert broken == []
    # the implication is not vacuous: some member lies in a proper
    # subfield's subtree and outside a smaller one's
    assert any(table[i, a.span] != table[i, b.span]
               for i in range(len(members)) for a, b in pairs)


@pytest.mark.parametrize("group,field", CASES,
                         ids=[f"{g}-{p}:{','.join(map(str, a))}"
                              for g, (p, a) in CASES])
def test_branch_members_of_count_local_cases(group, field):
    p, args = field
    ctx = counting.make_context(group, p, args)
    members = counting.branch_vertices(ctx.images, _center(ctx.ambient))
    subs = ctx.ambient.subfields()
    table = _oracle_table(ctx, members, subs)
    assert _disagreements(ctx, members, table, lambda i: subs) == []
    assert _filter_disagreements(ctx, members) == []


@pytest.mark.parametrize("group,args", [("q8", counting.OMEGA_ARGS),
                                        ("maxorder", (-3, 2)),
                                        ("dicyclic", (-6,))])
def test_closed_form_lattice_inverse_and_constant_volume(group, args):
    # B^-1 is the inverse of the pulled-back order, and
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
