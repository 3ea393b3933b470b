"""Slow paths kept as oracles for the vertex kernel.

`vertex_eq` is `Vertex.__eq__` as it was before the integer level test and
the same-center shortcut: Fraction inequality on the levels, then the
valuation of the centers' difference.  `invariant_vertices` is
`TwistedTree.invariant_vertices` as it was before each twisted action was
computed once: it applies every group element afresh for every test.
"""

from bttwist.bttree import Vertex


def vertex_eq(u, v):
    if not isinstance(v, Vertex):
        return NotImplemented
    if u.level != v.level:
        return False
    return (u.center - v.center).valuation() >= u.level


def invariant_vertices(tree, subgroup, window, include_midpoints=False):
    out = [v for v in window if all(tree.apply(s, v) == v for s in subgroup)]
    if include_midpoints:
        for pi, ci in window.edges:
            p, c = window.vertices[pi], window.vertices[ci]
            mid = Vertex(c.center, (p.level + c.level) / 2)
            swapped = any(
                tree.apply(s, p) == c and tree.apply(s, c) == p
                for s in subgroup
            )
            stable = all(
                (tree.apply(s, p) == p and tree.apply(s, c) == c)
                or (tree.apply(s, p) == c and tree.apply(s, c) == p)
                for s in subgroup
            )
            if swapped and stable:
                out.append(mid)
    return out
