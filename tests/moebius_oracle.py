"""Slow paths of the Moebius action, kept as test-only oracles.

`proj_eq_by_division` is `MoebiusMap.proj_eq` as it was before it
cross-multiplied: the same zero pattern, and one ratio x / y shared by
every pair of nonzero entries, each ratio computed with an inverse.

`apply_vertex` is `MoebiusMap.apply_vertex` as it was before
`MoebiusMap.image`: it builds the image lattice's basis, reduces it with the
inverse of u2 and reads the level off the reduced second column.  The
queries below apply it and then compare, as the program did before it
answered them from valuations: `tube_contains` and `horoball_contains` pull
the vertex back through the shape's inverse map, and `sends` compares the
image vertex with `vertex_eq`."""

from fractions import Fraction

from bttwist.bttree import Vertex

from vertex_oracle import vertex_eq


def proj_eq_by_division(m, n) -> bool:
    mine = [m.a, m.b, m.c, m.d]
    theirs = [n.a, n.b, n.c, n.d]
    lam = None
    for x, y in zip(mine, theirs):
        if x.is_zero() != y.is_zero():
            return False
        if not x.is_zero():
            ratio = x / y
            if lam is None:
                lam = ratio
            elif not (lam == ratio):
                return False
    return True


def apply_vertex(g, v):
    f = v.field
    e = f.e
    level = v.level
    n, rem = divmod(level.numerator * e, level.denominator)
    if rem:
        r0 = Fraction(n, e)
        delta = level - r0
        u0 = apply_vertex(g, Vertex(v.center, r0))
        u1 = apply_vertex(g, Vertex(v.center, r0 + Fraction(1, e)))
        if u1.level > u0.level:
            return Vertex(u1.center, u0.level + delta)
        return Vertex(u0.center, u0.level - delta)
    t = f.pi_pow(n)
    # columns of g * (basis of Lambda_{a, r})
    u1 = g.a * v.center + g.b
    u2 = g.c * v.center + g.d
    w1 = g.a * t
    w2 = g.c * t
    if u2.valuation() > w2.valuation():
        u1, u2, w1, w2 = w1, w2, u1, u2
    # now nu(u2) <= nu(w2), in particular u2 != 0
    u2_inv = u2.inv()
    w1 = w1 - w2 * u2_inv * u1
    center = u1 * u2_inv
    lvl = w1.valuation() - u2.valuation()
    return Vertex(center, lvl)


def tube_contains(tube, v) -> bool:
    w = apply_vertex(tube.gamma_inv, v)
    nu = w.center.valuation()
    return nu >= w.level or w.level - nu <= tube.width


def horoball_contains(ball, v) -> bool:
    return apply_vertex(ball.witness_inv, v).level <= ball.level


def sends(g, w, v) -> bool:
    return vertex_eq(apply_vertex(g, w), v)
