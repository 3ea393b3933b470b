"""The subfield test's fast paths against the expressions they replaced.

- The subfield test's echelon rows are the components of the
  decomposition over mhat as they are; the oracle is each component
  times the power of the subfield's uniformizer that its valuation bound
  asks for, which the basis mhat makes 1.
- `TwistedTree.apply` returns the conjugate vertex itself for a sigma off
  the cocycle's `moving` set; the oracle is `apply_vertex` of the
  cocycle's map, on windows with their midpoints, under the cocycles of
  every `count-local` case of the golden file and of `table1`.
- `VertexOrder.lattice_inverse` inverts the order lattice
  B = T^-1 Ad(M) that `order_lattice_of_vertex` gives; the oracle is
  B^-1 = Ad(M^-1) T, column j = M^-1 b_j M as matrix products, on vertices
  at negative, zero and positive levels around centers off the origin.

Each comparison is exact: equal elements have equal numerators and
denominators, and the vertices must agree in center and level, not only as
balls.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bttwist import enumerate as counting
from bttwist.bttree import MoebiusMap, Vertex, Window
from bttwist.padic import make_field
from bttwist.twisted import VertexOrder
from subfield_test_oracle import decompose, machinery
from test_branch_walk_diff import CASES  # the golden count-local cases

# degree 2, 4 and 8 at p = 2, and a degree-4 field at p = 3 with e = f = 2
DECOMPOSE_FIELDS = [(2, (-1,)), (2, (-3,)), (2, (-3, 2)), (2, (-1, -3, 2)),
                 (3, (3, -1))]

coords = st.one_of(st.just(Fraction(0)),
                   st.builds(Fraction, st.integers(-40, 40),
                             st.sampled_from([1, 2, 3, 4, 9, 16, 27])),
                   st.builds(Fraction, st.integers(-2 ** 40, 2 ** 40),
                             st.integers(1, 2 ** 12)))


def scaled_by_products(mach, x):
    """The old echelon-row expression: component s of x's decomposition
    times pi_E^-grid, grid the least E-grid point >= -v(mhat_s)."""
    E = mach.E
    out = []
    for s, part in enumerate(decompose(mach, x)):
        grid = math.ceil(-mach.mhat[s].valuation() * E.e)
        out.append(E.pi_pow(-grid) * part)
    return out


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(DECOMPOSE_FIELDS), st.data())
def test_unscaled_components_match_the_scaled_rows(field, data):
    p, args = field
    L = make_field(p, args)
    x = L.el(data.draw(st.lists(coords, min_size=L.degree,
                                max_size=L.degree)))
    for sub in L.subfields():
        mach = machinery(sub)
        got = decompose(mach, x)
        want = scaled_by_products(mach, x)
        assert [(y.num, y.den) for y in got] == \
            [(y.num, y.den) for y in want], sub


# -- the twisted action off the moving sigma -------------------------------


def _window_with_midpoints(amb, radius_edges):
    center = Vertex(amb.zero, Fraction(-1, 2) if amb.e % 2 == 0 else 0)
    win = Window(center, Fraction(radius_edges, amb.e))
    mids = [Vertex(win.vertices[c].center,
                   (win.vertices[p].level + win.vertices[c].level) / 2)
            for p, c in win.edges]
    return win.vertices + mids


def _apply_mismatches(ctx, vertices):
    tree = ctx.tree
    wrong = []
    for v in vertices:
        for sigma in range(ctx.ambient.degree):
            moved = Vertex(v.center.conj(sigma), v.level)
            want = tree.cocycle[sigma].apply_vertex(moved)
            got = tree.apply(sigma, v)
            if got.level != want.level or got.center != want.center:
                wrong.append((v.key(), sigma))
    return wrong


@pytest.mark.parametrize("group,field", CASES,
                         ids=[f"{g}-{p}:{','.join(map(str, a))}"
                              for g, (p, a) in CASES])
def test_apply_matches_apply_vertex_on_count_local_cocycles(group, field):
    p, args = field
    ctx = counting.make_context(group, p, args)
    assert 0 not in ctx.tree.cocycle.moving
    vertices = _window_with_midpoints(ctx.ambient, 1)
    assert _apply_mismatches(ctx, vertices) == []


def test_apply_matches_apply_vertex_on_the_table1_cocycle():
    ctx = counting.make_context("q8", 2, counting.OMEGA_ARGS)
    moving = ctx.tree.cocycle.moving
    # both kinds of sigma occur: the conjugate alone and the Moebius action
    assert 0 < len(moving) < ctx.ambient.degree
    vertices = _window_with_midpoints(ctx.ambient, 2)
    assert _apply_mismatches(ctx, vertices) == []


# -- the lattice inverse ---------------------------------------------------


def lattice_inverse_by_products(triv, v):
    """The old B^-1: column j is M^-1 b_j M, M = [[a, t], [1, 0]]."""
    f = v.field
    M = MoebiusMap(v.center, f.scale_of_valuation(v.level), f.one, f.zero)
    Minv = M.inv()
    cols = [Minv * b * M for b in triv.basis]
    return [[X.a for X in cols], [X.b for X in cols],
            [X.c for X in cols], [X.d for X in cols]]


@pytest.mark.parametrize("group,p,args", [("q8", 2, counting.OMEGA_ARGS),
                                          ("maxorder", 2, (-3, 2)),
                                          ("hurwitz", 3, (-1,)),
                                          ("dicyclic", 3, (3,))])
def test_closed_form_lattice_inverse_matches_products(group, p, args):
    ctx = counting.make_context(group, p, args)
    amb = ctx.ambient
    centers = [amb.sqrt_gen(0) * Fraction(3, 2),
               amb.one + amb.sqrt_gen(amb.k - 1) * Fraction(-5, 4),
               amb.el([Fraction(k + 1, 3 ** (k % 2)) for k in
                       range(amb.degree)])]
    for n in (-3 * amb.e, -1, 0, 1, 2 * amb.e + 1):
        for center in centers:
            v = Vertex(center, Fraction(n, amb.e))
            got = VertexOrder(ctx.tree, ctx.triv, v).lattice_inverse
            want = lattice_inverse_by_products(ctx.triv, v)
            assert [[(x.num, x.den) for x in row] for row in got] == \
                [[(x.num, x.den) for x in row] for row in want], (n, center)
