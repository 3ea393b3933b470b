"""`bttree.Tube`, the geodesic tube of a split etale matrix, against the
general tube of `convex_oracle` with core levels [-oo, oo].

On seeded geodesics (random pairs of boundary points, infinity among them,
and the eigen-directions of sampled matrices) over windows of fields of
degree 1, 2 and 4, membership of every window vertex and edge midpoint,
membership after `tubular`, and the repr must be the same in both."""

import random
from fractions import Fraction

import pytest

from bttwist.branch import branch_closed_form, sample_integral_matrix
from bttwist.bttree import BoundaryPoint, Tube, Vertex, Window, tubular
from bttwist.errors import NeedsExtension
from bttwist.padic import INFINITY, make_field
import convex_oracle
from helpers import rand_elt

FIELDS = [(2, (), 3), (3, (), 2), (2, (2,), Fraction(3, 2)),
          (2, (-3,), Fraction(3, 2)), (2, (-1, -3), 1)]


def _points(fld, rng):
    def point():
        if rng.random() < 0.25:
            return BoundaryPoint.infinity()
        return BoundaryPoint(rand_elt(fld, rng))
    while True:
        xi1, xi2 = point(), point()
        if xi1 != xi2:
            return xi1, xi2


def _geodesics(fld, rng, n):
    """(xi1, xi2, width): n random pairs, then the split closed forms of
    sampled integral matrices."""
    out = []
    for _ in range(n):
        out.append(_points(fld, rng) + (Fraction(rng.randint(0, 4), fld.e),))
    while len(out) < 2 * n:
        try:
            S = branch_closed_form(sample_integral_matrix(fld, rng), fld)
        except NeedsExtension:
            continue
        if isinstance(S, Tube):
            out.append((S.xi1, S.xi2, S.width))
    return out


def _probe_vertices(fld, radius):
    win = Window(Vertex(fld.zero, Fraction(0)), radius)
    mids = [Vertex(win.vertices[c].center,
                   (win.vertices[p].level + win.vertices[c].level) / 2)
            for p, c in win.edges]
    return win.vertices + mids


@pytest.mark.parametrize("p,args,radius", FIELDS,
                         ids=[f"{p}:{','.join(map(str, a))}"
                              for p, a, _ in FIELDS])
def test_geodesic_tube_matches_the_general_tube(p, args, radius):
    fld = make_field(p, args)
    rng = random.Random(1000 * p + len(args))
    verts = _probe_vertices(fld, radius)
    on_the_rim = 0  # probes at distance exactly `width` from the core
    for xi1, xi2, width in _geodesics(fld, rng, 8):
        T = Tube(fld, xi1, xi2, width)
        G = convex_oracle.Tube(fld, xi1, xi2, convex_oracle.NEG_INFINITY,
                               INFINITY, width)
        assert repr(T) == repr(G)
        assert [T.contains(v) for v in verts] == \
            [G.contains(v) for v in verts]
        on_the_rim += sum(G.core_distance(v) == width for v in verts)
        for k in (0, Fraction(1, fld.e), 2):
            Tk, Gk = tubular(T, k), tubular(G, k)
            assert isinstance(Tk, Tube) and Tk.width == width + k
            assert [Tk.contains(v) for v in verts] == \
                [Gk.contains(v) for v in verts]
    assert on_the_rim > 0
