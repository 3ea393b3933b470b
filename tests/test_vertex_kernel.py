"""Vertex identity: `Vertex.__eq__` against the Fraction oracle it replaced,
and `Vertex.key()` against equality, over windows with their midpoints."""

import math
from fractions import Fraction

import pytest

from bttwist.bttree import Vertex, Window
from bttwist.errors import InternalInvariant
from bttwist.padic import LocalField, make_field

from vertex_oracle import vertex_eq

# (p, square roots) -> window radius, keeping each window to a few dozen
# vertices; p = 3 has no degree-8 field
WINDOWS = {
    (2, ()): 3, (3, ()): 2,
    (2, (-3,)): 2, (2, (-1,)): 2, (3, (-1,)): 1, (3, (3,)): 1,
    (2, (-3, 2)): 1, (3, (-1, 3)): Fraction(1, 2),
    (2, (-1, -3, 2)): Fraction(1, 2),
}
BELOW_DEGREE_8 = [k for k in WINDOWS if len(k[1]) < 3]


def window_items(p, args):
    """The window's vertices and the midpoints of its edges; for each, the
    same ball with a rebuilt center and with a center moved inside the ball,
    and a ball of the same level whose center is just outside."""
    f = make_field(p, args)
    win = Window(Vertex(f.zero, 0), WINDOWS[p, args])
    verts = win.vertices
    balls = verts + [
        Vertex(verts[c].center, (verts[a].level + verts[c].level) / 2)
        for a, c in win.edges]
    unit = f.residue_reps[1]
    out = []
    for v in balls:
        n = math.ceil(v.level * f.e)
        out += [v,
                Vertex(f.el(v.center.coords), v.level),
                Vertex(v.center + unit * f.pi_pow(n), v.level),
                Vertex(v.center + unit * f.pi_pow(n - 1), v.level)]
    return out


@pytest.mark.parametrize("p,args", list(WINDOWS))
def test_equality_matches_the_fraction_oracle(p, args):
    items = window_items(p, args)
    outcomes = set()
    for u in items:
        for v in items:
            got = u == v
            assert got == vertex_eq(u, v), (u, v)
            if u.level == v.level:
                outcomes.add((got, u.center is v.center))
    # equal levels with different centers both ways, and identical centers
    assert outcomes == {(True, True), (True, False), (False, False)}


@pytest.mark.parametrize("p,args", BELOW_DEGREE_8)
def test_keys_agree_with_equality(p, args):
    items = window_items(p, args)
    keys = [v.key() for v in items]
    for u, ku in zip(items, keys):
        for v, kv in zip(items, keys):
            assert (ku == kv) == (u == v), (u, v)


def test_midpoints_below_the_root_have_distinct_keys():
    # the residue field of Q_2(sqrt(-3)) has four elements, so the root has
    # four children one level down, and four distinct midpoints half way
    f = make_field(2, (-3,))
    mids = [Vertex(c, Fraction(1, 2)) for c in f.residue_reps]
    assert len(mids) == 4
    for i, u in enumerate(mids):
        for v in mids[i + 1:]:
            assert not (u == v)
            assert u.key() != v.key()


def test_non_vertex_operands():
    f = make_field(2, (-1,))
    v = Vertex(f.zero, 0)
    for other in (0, Fraction(0), f.zero, None, "B(0, 0)"):
        assert v.__eq__(other) is NotImplemented
        assert vertex_eq(v, other) is NotImplemented
        assert not (v == other) and v != other


def test_mixed_fields():
    # a field with other roots, and a fresh model of the same field
    f = make_field(2, (-1,))
    for g in (make_field(2, (2,)), LocalField(2, (-1,))):
        for a, b in ((f.zero, g.zero), (f.one, g.one)):
            for la, lb in ((0, 0), (Fraction(1, 2), Fraction(1, 2)), (0, 1),
                           (Fraction(1, 2), 1)):
                u, v = Vertex(a, la), Vertex(b, lb)
                if la == lb:
                    with pytest.raises(InternalInvariant):
                        u == v
                    with pytest.raises(InternalInvariant):
                        vertex_eq(u, v)
                else:
                    assert (u == v) is vertex_eq(u, v) is False


def test_levels_are_kept_or_converted():
    f = make_field(2, ())
    half = Fraction(1, 2)
    assert Vertex(f.zero, half).level is half
    for level in (1, Fraction(2, 2)):
        kept = Vertex(f.zero, level).level
        assert type(kept) is Fraction and kept == 1
