"""Slow paths kept as oracles for the vertex kernel.

`vertex_eq` is `Vertex.__eq__` as it was before the integer level test and
the same-center shortcut: Fraction inequality on the levels, then the
valuation of the centers' difference.  `invariant_vertices` is
`TwistedTree.invariant_vertices` as it was before each twisted action was
computed once: it applies every group element afresh for every test.
`window` is the expansion of `Window` as it was before the vertex each
vertex was reached from was skipped by position: it skips the neighbour
equal to it, by `Vertex.__eq__`.

`reduce_center` and `approximates_from` are the two digit loops that
`bttree.digit_rest` replaced: the first tries every residue representative
at every digit, zero digits included; the second walks the subfield's
digits one level at a time.  `residue_generator` is the unit that
`SubfieldLattice` took for f(L/E) = 2: the first residue representative of
L that `approximates_from` finds outside E.
"""

from fractions import Fraction

from bttwist.bttree import Vertex, neighbors
from bttwist.errors import InternalInvariant
from bttwist.padic import INFINITY, FieldElement, Subfield


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


def window(center, radius):
    """(vertices, distances, edges) of the window of that radius."""
    step = Fraction(1, center.field.e)
    vertices, distances, edges = [center], [Fraction(0)], []
    frontier = [(center, None, 0)]
    d = Fraction(0)
    while d + step <= radius:
        d += step
        nxt = []
        for v, parent, vi in frontier:
            for n in neighbors(v):
                if parent is not None and n == parent:
                    continue
                vertices.append(n)
                distances.append(d)
                edges.append((vi, len(vertices) - 1))
                nxt.append((n, v, len(vertices) - 1))
        frontier = nxt
    return vertices, distances, edges


def reduce_center(a: FieldElement, n_end: int) -> FieldElement:
    """Canonical representative of a modulo pi^n_end * O."""
    f = a.field
    v = a.valuation()
    if v is INFINITY:
        return f.zero
    j = int((v * f.e) // 1)
    out = f.zero
    res = a
    while j < n_end:
        rv = res.valuation()
        if rv is INFINITY or rv >= Fraction(n_end, f.e):
            break
        pj = f.pi_pow(j)
        for c in f.residue_reps:
            if c.is_zero():
                continue
            cand = res - c * pj
            if cand.valuation() > Fraction(j, f.e):
                out = out + c * pj
                res = cand
                break
        else:
            if rv <= Fraction(j, f.e):
                # rv lies in (1/e)Z, so res is pi^j times a unit, and a
                # complete set of residue representatives has its digit
                raise InternalInvariant(
                    f"no residue digit for {res!r} at level {j}/{f.e} in {f}")
        j += 1
    return out


def approximates_from(a: FieldElement, sub: Subfield, target) -> bool:
    """Is there lambda in the subfield with nu(a - lambda) >= target?

    Greedy digit expansion of a over the subfield's uniformizer and residue
    representatives; exact (the greedy digit is unique when it exists).
    """
    if a.valuation() is INFINITY:
        return True
    eE = sub.field.e
    piE = sub.embed(sub.field.uniformizer)
    reps = [sub.embed(r) for r in sub.field.residue_reps]
    res = a
    v = res.valuation()
    j = int((v * eE) // 1)
    if v >= Fraction(target):
        return True
    stop = Fraction(target) * eE
    while Fraction(j) < stop:
        rv = res.valuation()
        if rv is INFINITY or rv >= Fraction(target):
            return True
        if rv >= Fraction(j + 1, eE):
            j += 1
            continue
        pj = piE ** j
        hit = False
        for c in reps:
            if c.is_zero():
                continue
            cand = res - c * pj
            if cand.valuation() > rv:
                res = cand
                hit = True
                break
        if not hit:
            return False
        # valuation strictly increased; re-anchor j
        j = max(j, int((res.valuation() * eE) // 1)) if res.valuation() is not INFINITY else j + 1
    rv = res.valuation()
    return rv is INFINITY or rv >= Fraction(target)


def residue_generator(sub):
    L = sub.parent
    for r in L.residue_reps[1:]:
        if not approximates_from(r, sub, Fraction(1, L.e)):
            return r
    raise InternalInvariant("no residue generator found")
