"""The tree's vertex queries against the apply-then-compare paths they
replaced (`moebius_oracle`).

`MoebiusMap.image` gives (u1, u2, level) with g.v = B(u1 / u2, level) from
valuations alone; `apply_vertex`, `Tube.contains`, `Horoball.contains` and
`MoebiusMap.sends` ("g.w = v") are built on it.  Each must agree with the
oracle, the center exactly and not only as a ball, on seeded maps over
fields of degree 1, 2, 4 and 8 at p = 2 and of degree 1, 2 and 4 at p = 3
(Q_3 has only three nontrivial square classes, so no degree-8 field), on
window vertices and edge midpoints.  The maps include the edge cases:
c = 0, a vertex centered at the pole (cz + d = 0), u1 = 0, and ties
nu(cz + d) = nu(ct), which keep the column cz + d.

Each of these changes to the program fails this module: `>=` for `>` in
the column choice of `image`; a sign slip in its level (nu(t) - nu(det g),
or + 2 nu(u2)); `image` without the (a, c) column; `sends` without the
nu(u2) term; `Tube.contains` comparing nu(u1) with the level unshifted;
and `LocalField.congruent` with floor for ceiling in its bound, without
the denominators' valuation, or answering from the bound alone.
"""

import random
from fractions import Fraction

import pytest

from bttwist.bttree import (BoundaryPoint, Horoball, MoebiusMap, Tube,
                            Vertex, Window)
from bttwist.errors import DivisionByZero
from bttwist.padic import INFINITY, make_field

import moebius_oracle as oracle
from helpers import rand_elt, rand_moebius, rand_nonzero
from vertex_oracle import vertex_eq

# (p, square roots) -> window radius: a few dozen vertices each
WINDOWS = {
    (2, ()): 2, (3, ()): 1,
    (2, (-3,)): 1, (2, (-1,)): 1, (3, (-1,)): 1, (3, (3,)): 1,
    (2, (-3, 2)): Fraction(1, 2), (3, (-1, 3)): Fraction(1, 2),
    (2, (-1, -3, 2)): Fraction(1, 4),
}
MAPS_PER_FIELD = 4


def _items(f):
    """Window vertices around the root and the midpoints of their edges."""
    win = Window(Vertex(f.zero, 0), WINDOWS[f.p, f.sqrt_args])
    verts = win.vertices
    mids = [Vertex(verts[c].center, (verts[a].level + verts[c].level) / 2)
            for a, c in win.edges]
    return verts, verts + mids


def _maps(f, verts, rng):
    """Seeded maps, and one of each edge case at a window vertex's center:
    c = 0, the pole at the center, and u1 = 0 there."""
    maps = [rand_moebius(f, rng) for _ in range(MAPS_PER_FIELD)]
    one, zero = f.one, f.zero
    z = verts[rng.randrange(1, len(verts))].center
    maps += [
        MoebiusMap(rand_nonzero(f, rng), rand_elt(f, rng), zero,
                   rand_nonzero(f, rng)),
        MoebiusMap(rand_nonzero(f, rng), one, one, -z),  # pole at z
        MoebiusMap(one, -z, rand_nonzero(f, rng), rand_elt(f, rng)),  # zero
    ]
    return [g for g in maps if not g.det().is_zero()]


def _case(g, v):
    """Which branch of `image` a lattice vertex takes."""
    if g.c.is_zero():
        return "c = 0"
    u2 = g.c * v.center + g.d
    if u2.is_zero():
        return "pole"
    nct = g.c.valuation() + v.level
    if u2.valuation() > nct:
        return "swap"
    return "tie" if u2.valuation() == nct else "keep"


@pytest.mark.parametrize("p,args", list(WINDOWS))
def test_image_and_apply_vertex_match_the_oracle(p, args):
    f = make_field(p, args)
    verts, items = _items(f)
    rng = random.Random(f"image:{p}:{args}")
    seen = set()
    for g in _maps(f, verts, rng):
        for v in items:
            want = oracle.apply_vertex(g, v)
            u1, u2, level = g.image(v)
            assert level == want.level and u1 * u2.inv() == want.center, (g, v)
            got = g.apply_vertex(v)
            assert got.level == want.level and got.center == want.center
            if (v.level * f.e).denominator == 1:
                seen.add(_case(g, v))
                if u1.is_zero():
                    seen.add("u1 = 0")
            else:
                seen.add("midpoint")
    assert seen == {"c = 0", "pole", "swap", "tie", "keep", "u1 = 0",
                    "midpoint"}


@pytest.mark.parametrize("p,args", list(WINDOWS))
def test_sends_matches_the_oracle(p, args):
    f = make_field(p, args)
    verts, items = _items(f)
    rng = random.Random(f"sends:{p}:{args}")
    unit = f.residue_reps[1]
    outcomes = set()
    for g in _maps(f, verts, rng):
        for w in items:
            image = oracle.apply_vertex(g, w)
            n = -(-image.level.numerator * f.e // image.level.denominator)
            # the image, the same ball about another center, a ball of the
            # same level just outside it, and w itself
            targets = [image,
                       Vertex(image.center + unit * f.pi_pow(n), image.level),
                       Vertex(image.center + unit * f.pi_pow(n - 1),
                              image.level),
                       w]
            for v in targets:
                got = g.sends(w, v)
                assert got == oracle.sends(g, w, v), (g, w, v)
                outcomes.add((got, v.level == image.level))
    assert outcomes == {(True, True), (False, True), (False, False)}


def _boundary(f, rng, verts):
    r = rng.random()
    if r < 0.2:
        return BoundaryPoint.infinity()
    if r < 0.5:  # at a window center: u1 = 0 there
        return BoundaryPoint(verts[rng.randrange(len(verts))].center)
    return BoundaryPoint(rand_elt(f, rng))


@pytest.mark.parametrize("p,args", list(WINDOWS))
def test_tube_and_horoball_contains_match_the_oracle(p, args):
    f = make_field(p, args)
    verts, items = _items(f)
    rng = random.Random(f"shapes:{p}:{args}")
    shapes = []
    while len(shapes) < 8:
        xi1, xi2 = _boundary(f, rng, verts), _boundary(f, rng, verts)
        if not xi1 == xi2:
            shapes.append((Tube(f, xi1, xi2, Fraction(rng.randint(0, 1), f.e)),
                           oracle.tube_contains))
    for _ in range(6):
        witness = (MoebiusMap.identity(f) if rng.random() < 0.3
                   else rand_moebius(f, rng))
        shapes.append((Horoball(f, witness,
                                Fraction(rng.randint(-3, 3), f.e)),
                       oracle.horoball_contains))
    outcomes = set()
    for shape, want in shapes:
        for v in items:
            got = shape.contains(v)
            assert got == want(shape, v), (shape, v)
            outcomes.add((type(shape), got))
    assert outcomes == {(Tube, True), (Tube, False), (Horoball, True),
                        (Horoball, False)}


def test_a_tube_contains_the_vertices_about_its_end():
    # gamma^-1 sends the end xi1 to 0: u1 = 0 at every ball centered there
    f = make_field(2, (-1,))
    xi1 = f.from_rational(Fraction(3, 2))
    tube = Tube(f, BoundaryPoint(xi1), BoundaryPoint.infinity(), 0)
    for level in (-2, 0, Fraction(1, 2), Fraction(3, 4), 5):
        v = Vertex(xi1, level)
        assert tube.gamma_inv.image(v)[0].is_zero()
        assert tube.contains(v) and oracle.tube_contains(tube, v)


SINGULAR = [[[1, 1], [1, 1]], [[1, 0], [0, 0]], [[0, 0], [0, 0]],
            [[2, 4], [1, 2]], [[0, 1], [0, 3]]]


@pytest.mark.parametrize("rows", SINGULAR, ids=str)
def test_singular_maps_raise_division_by_zero(rows):
    f = make_field(2, (-1,))
    g = MoebiusMap.from_rows(f, rows)
    for v in (Vertex(f.zero, 0), Vertex(f.one, 1), Vertex(f.one, -3),
              Vertex(f.zero, Fraction(1, 4))):  # and a midpoint
        with pytest.raises(DivisionByZero):
            g.apply_vertex(v)
        with pytest.raises(DivisionByZero):
            g.image(v)
        with pytest.raises(DivisionByZero):
            g.sends(v, v)


def test_congruent_decides_in_integers():
    f = make_field(3, (-1,))
    x, y = f.el([Fraction(1, 3), 2]), f.el([Fraction(7, 3), Fraction(1, 9)])
    want = (x - y).valuation()
    for k in range(-8, 8):
        r = Fraction(k, 2 * f.degree)  # off the value group when k is odd
        assert f.congruent(x, y, r) == (want >= r)
        assert f.congruent(x, y, r, k) == (want >= r + Fraction(k, f.degree))
    assert f.congruent(x, x, Fraction(10 ** 6))
    assert (x - x).valuation() is INFINITY
    # vertices compared through it keep the oracle's answers
    u, v = Vertex(x, Fraction(-1, 2)), Vertex(y, Fraction(-1, 2))
    assert (u == v) == vertex_eq(u, v)
