"""Shared generators and small oracles for the test suite."""

import random
from fractions import Fraction

from bttwist.bttree import BoundaryPoint, Horoball, MoebiusMap, Vertex, distance
from bttwist.twisted import TwistedTree, VertexOrder, trivial_cocycle
from convex_oracle import BoundaryEnd, VertexEnd, ball, line, tube


# -- tree helpers the tests use and the program does not ----------------


def same_type(v: Vertex, w: Vertex) -> bool:
    """Vertices of the same type: their distance is an even multiple of the
    base step.  Unit-determinant Moebius maps preserve the type."""
    d = distance(v, w) * v.field.e
    return d.denominator == 1 and int(d) % 2 == 0


def in_standard_subtree(v: Vertex, sub) -> bool:
    """The untwisted subfield test: `VertexOrder` under the trivial
    cocycle, which reads no trivialization."""
    L = sub.parent
    return VertexOrder(TwistedTree(L, trivial_cocycle(L)), None,
                       v).in_subtree(sub)


def lattice_of_vertex(v: Vertex):
    """Basis ((a,1),(t,0)) of a lattice in the homothety class of v."""
    f = v.field
    t = f.scale_of_valuation(v.level)
    return ((v.center, f.one), (t, f.zero))


def standard_horoball(field, level) -> Horoball:
    """All balls of radius |pi|^level or more (level 0 gives F_0)."""
    return Horoball(field, MoebiusMap.identity(field), level)


def rand_elt(fld, rng, span=4, dens=(1, 2)):
    coords = [Fraction(rng.randint(-span, span), rng.choice(dens))
              for _ in range(fld.degree)]
    return fld.el(coords)


def rand_nonzero(fld, rng):
    while True:
        x = rand_elt(fld, rng)
        if not x.is_zero():
            return x


def rand_vertex(fld, rng, level_span=3):
    return Vertex(rand_elt(fld, rng),
                  Fraction(rng.randint(-level_span, level_span), fld.e))


def rand_moebius(fld, rng):
    while True:
        m = MoebiusMap(rand_elt(fld, rng), rand_elt(fld, rng),
                       rand_elt(fld, rng), rand_elt(fld, rng))
        if not m.det().is_zero():
            return m


def rand_convex(fld, rng):
    kind = rng.choice(["tube_bb", "tube_vv", "tube_vb", "horo", "ball"])
    if kind == "tube_bb":
        while True:
            a, b = rand_elt(fld, rng), rand_elt(fld, rng)
            if not (a - b).is_zero():
                break
        if rng.random() < 0.2:
            return line(fld, a, BoundaryPoint.infinity(),
                        Fraction(rng.randint(0, 4), fld.e))
        return line(fld, a, b, Fraction(rng.randint(0, 4), fld.e))
    if kind == "tube_vv":
        return tube(fld, VertexEnd(rand_vertex(fld, rng)),
                    VertexEnd(rand_vertex(fld, rng)),
                    Fraction(rng.randint(0, 3), fld.e))
    if kind == "tube_vb":
        bd = (BoundaryPoint.infinity() if rng.random() < 0.3
              else BoundaryPoint(rand_elt(fld, rng)))
        return tube(fld, VertexEnd(rand_vertex(fld, rng)), BoundaryEnd(bd),
                    Fraction(rng.randint(0, 3), fld.e))
    if kind == "horo":
        g = (MoebiusMap.identity(fld) if rng.random() < 0.5
             else rand_moebius(fld, rng))
        return Horoball(fld, g, Fraction(rng.randint(-2, 2), fld.e))
    return ball(rand_vertex(fld, rng, 2), Fraction(rng.randint(0, 4), fld.e))


def path_vertices(v, w):
    """The vertex path from v to w: climb to the meeting level, descend."""
    f = v.field
    step = Fraction(1, f.e)
    m = min(v.level, w.level, (v.center - w.center).valuation())
    out = []
    lvl = v.level
    while lvl > m:
        out.append(Vertex(v.center, lvl))
        lvl -= step
    out.append(Vertex(v.center, m))
    down = []
    lvl = w.level
    while lvl > m:
        down.append(Vertex(w.center, lvl))
        lvl -= step
    out.extend(reversed(down))
    return out


def contains_set(S, window):
    return [S.contains(v) for v in window]
