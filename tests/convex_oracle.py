"""Exact intersection of convex subtrees, and the branch of a family as the
intersection of its members' closed-form branches.

Test-only reference.  The product finds a family's branch one way, by the
seed search and flood fill of `enumerate.branch_vertices`; this closed form
is that walk's oracle wherever every generator splits in the ambient field
(a generator that does not split raises NeedsExtension here).  Intersections
of tubes and horoballs are tubes or horoballs again, except two horoballs at
distinct boundary points, which stay an implicit `Meet`.

Intersections of tubes are segments and rays, so the oracle's `Tube` is
the general one: a core interval [lo, hi] of levels on a carrier geodesic,
built by `tube` from any two ends (boundary points or vertices), with
`line` and `ball` for the two extreme cases.  The product's `bttree.Tube`
keeps only the geodesic tube that a single matrix has; `intersect` turns it
into this form, with levels [-oo, oo], on entry.
"""

from fractions import Fraction

from bttwist import bttree
from bttwist.branch import branch_closed_form
from bttwist.bttree import (EMPTY, WHOLE, BoundaryPoint, ConvexSubtree,
                            EmptyTree, Horoball, Vertex, WholeTree, distance,
                            std_map)
from bttwist.errors import BttwistError, InternalInvariant
from bttwist.padic import INFINITY, val_min


class _NegInfinity:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "-oo"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("bttwist-neg-infinity")

    def __lt__(self, other):
        return other is not self

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is self


NEG_INFINITY = _NegInfinity()


class VertexEnd:
    __slots__ = ("vertex",)

    def __init__(self, vertex: Vertex):
        self.vertex = vertex

    def __repr__(self):
        return f"VertexEnd({self.vertex!r})"


class BoundaryEnd:
    __slots__ = ("point",)

    def __init__(self, point):
        self.point = BoundaryPoint.of(point)

    def __repr__(self):
        return f"BoundaryEnd({self.point!r})"


def _clamp(x, lo, hi):
    if lo is not NEG_INFINITY and x < lo:
        x = lo
    if hi is not INFINITY and x > hi:
        x = hi
    return x


class Tube(ConvexSubtree):
    """All points within `width` of a geodesic core.

    The core is stored as an interval [lo, hi] of levels on the standard
    axis line(0, infinity), transported by `gamma` (gamma(0) = xi1,
    gamma(inf) = xi2).  hi = +oo means the core reaches the xi1 end,
    lo = -oo the xi2 end.
    """

    def __init__(self, field, xi1: BoundaryPoint, xi2: BoundaryPoint,
                 lo, hi, width, end_a=None, end_b=None):
        self.field = field
        self.xi1 = xi1
        self.xi2 = xi2
        self.lo = lo
        self.hi = hi
        self.width = Fraction(width)
        if self.width < 0:
            raise InternalInvariant(f"negative tube width {self.width}")
        self.gamma = std_map(field, xi1, xi2)
        self.gamma_inv = self.gamma.inv()
        self.end_a = end_a if end_a is not None else self._derive_end(hi, toward_xi1=True)
        self.end_b = end_b if end_b is not None else self._derive_end(lo, toward_xi1=False)

    def _derive_end(self, bound, toward_xi1: bool):
        if toward_xi1:
            if bound is INFINITY:
                return BoundaryEnd(self.xi1)
            return VertexEnd(self.axis_vertex(bound))
        if bound is NEG_INFINITY:
            return BoundaryEnd(self.xi2)
        return VertexEnd(self.axis_vertex(bound))

    def axis_vertex(self, t) -> Vertex:
        return self.gamma.apply_vertex(Vertex(self.field.zero, t))

    def axis_coord(self, v: Vertex) -> Fraction:
        """Level coordinate of a vertex assumed to lie on the carrier."""
        w = self.gamma_inv.apply_vertex(v)
        if w.center.valuation() < w.level:
            raise InternalInvariant(f"vertex {v!r} is not on the carrier")
        return w.level

    def core_distance(self, v: Vertex) -> Fraction:
        w = self.gamma_inv.apply_vertex(v)
        minf = val_min(w.level, w.center.valuation())
        t_hat = _clamp(minf, self.lo, self.hi)
        m_hat = val_min(w.level, t_hat, w.center.valuation())
        return (w.level - m_hat) + (t_hat - m_hat)

    def contains(self, v: Vertex) -> bool:
        return self.core_distance(v) <= self.width

    def tubular(self, w) -> "Tube":
        return Tube(self.field, self.xi1, self.xi2, self.lo, self.hi,
                    self.width + Fraction(w))

    def __repr__(self):
        return (f"Tube({self.end_a!r} .. {self.end_b!r}, width={self.width}, "
                f"levels=[{self.lo},{self.hi}])")


def tube(field, end_a, end_b, width) -> Tube:
    """Build the tube of the given width around the geodesic [end_a, end_b]."""
    width = Fraction(width)
    if isinstance(end_a, BoundaryEnd) and isinstance(end_b, BoundaryEnd):
        xi1, xi2 = end_a.point, end_b.point
        if xi1 == xi2:
            raise InternalInvariant(f"coincident boundary ends at {xi1!r}")
        return Tube(field, xi1, xi2, NEG_INFINITY, INFINITY, width, end_a, end_b)
    if isinstance(end_a, VertexEnd) and isinstance(end_b, VertexEnd):
        v1, v2 = end_a.vertex, end_b.vertex
        if v1 == v2:
            xi1 = BoundaryPoint(v1.center)
            xi2 = BoundaryPoint.infinity()
            return Tube(field, xi1, xi2, v1.level, v1.level, width, end_a, end_b)
        m = (v1.center - v2.center).valuation()
        if m >= v1.level or m >= v2.level:  # nested: vertical carrier
            xi1 = BoundaryPoint(v2.center if m >= v1.level else v1.center)
            xi2 = BoundaryPoint.infinity()
        else:
            xi1 = BoundaryPoint(v1.center)
            xi2 = BoundaryPoint(v2.center)
        t = Tube(field, xi1, xi2, NEG_INFINITY, INFINITY, width)
        t1, t2 = t.axis_coord(v1), t.axis_coord(v2)
        lo, hi = min(t1, t2), max(t1, t2)
        return Tube(field, xi1, xi2, lo, hi, width, end_a, end_b)
    if isinstance(end_a, BoundaryEnd):
        end_a, end_b = end_b, end_a
    v1, xi = end_a.vertex, end_b.point
    if xi.is_infinity:
        xi1 = BoundaryPoint(v1.center)
        t = Tube(field, xi1, xi, NEG_INFINITY, INFINITY, width)
        return Tube(field, xi1, xi, NEG_INFINITY, t.axis_coord(v1), width,
                    end_a, end_b)
    if (xi.value - v1.center).valuation() >= v1.level:
        # boundary point inside the ball: ray descends toward it
        t = Tube(field, xi, BoundaryPoint.infinity(), NEG_INFINITY, INFINITY, width)
        return Tube(field, xi, BoundaryPoint.infinity(), t.axis_coord(v1),
                    INFINITY, width, end_a, end_b)
    xi1 = BoundaryPoint(v1.center)
    t = Tube(field, xi1, xi, NEG_INFINITY, INFINITY, width)
    return Tube(field, xi1, xi, NEG_INFINITY, t.axis_coord(v1), width,
                end_a, end_b)


def line(field, a, b, width=0) -> Tube:
    return tube(field, BoundaryEnd(BoundaryPoint.of(a)),
                BoundaryEnd(BoundaryPoint.of(b)), width)


def ball(v: Vertex, radius) -> Tube:
    return tube(v.field, VertexEnd(v), VertexEnd(v), radius)


def general(S: ConvexSubtree) -> ConvexSubtree:
    """The oracle's form of a shape: a geodesic `bttree.Tube` becomes the
    general tube around the same geodesic with levels [-oo, oo]."""
    if isinstance(S, bttree.Tube):
        return Tube(S.field, S.xi1, S.xi2, NEG_INFINITY, INFINITY, S.width)
    return S


class NoPeak(BttwistError):
    """Two boundary points span no path with a peak."""


def branch_of_family(qs, field):
    """Intersection of the individual closed-form branches."""
    out = WHOLE
    for q in qs:
        out = intersect(out, branch_closed_form(q, field))
    return out


def intersect(S1: ConvexSubtree, S2: ConvexSubtree) -> ConvexSubtree:
    S1, S2 = general(S1), general(S2)
    if isinstance(S1, EmptyTree) or isinstance(S2, EmptyTree):
        return EMPTY
    if isinstance(S1, WholeTree):
        return S2
    if isinstance(S2, WholeTree):
        return S1
    if isinstance(S1, Meet):
        return Meet(S1.parts + [S2])
    if isinstance(S2, Meet):
        return Meet([S1] + S2.parts)
    if isinstance(S1, Tube) and isinstance(S2, Tube):
        return _intersect_tubes(S1, S2)
    if isinstance(S1, Tube) and isinstance(S2, Horoball):
        return _intersect_tube_horoball(S1, S2)
    if isinstance(S1, Horoball) and isinstance(S2, Tube):
        return _intersect_tube_horoball(S2, S1)
    if isinstance(S1, Horoball) and isinstance(S2, Horoball):
        return _intersect_horoballs(S1, S2)
    raise TypeError(f"cannot intersect {S1!r} and {S2!r}")


def _pl_profile_max(f1, f2, base_pts):
    """Exact max and plateau of g = min(f1, f2) over the rational line.

    f1, f2 are concave piecewise-linear with slopes in {-1, 0, 1} and all
    breakpoints among base_pts; g is evaluated exactly at breakpoints,
    piece crossings, and padded tails.  Returns (G, k_lo, k_hi) where the
    plateau [k_lo, k_hi] may have NEG_INFINITY / INFINITY ends.
    """
    pts = sorted(set(base_pts))
    if not pts:
        pts = [Fraction(0)]
    # pad past any crossing on the linear tails: the difference |f1 - f2|
    # changes at rate at most 2, so it can vanish at distance <= |diff|
    pad = 1 + max(abs(f1(pts[0]) - f2(pts[0])), abs(f1(pts[-1]) - f2(pts[-1])))
    lo_pad, hi_pad = pts[0] - pad, pts[-1] + pad
    pts = [lo_pad] + pts + [hi_pad]
    cands = set(pts)
    for a, b in zip(pts, pts[1:]):
        f1a, f1b, f2a, f2b = f1(a), f1(b), f2(a), f2(b)
        d1, d2 = f1b - f1a, f2b - f2a
        if d1 != d2:
            u = (f2a - f1a) / (d1 - d2)
            if 0 < u < 1:
                cands.add(a + u * (b - a))

    def g(t):
        return min(f1(t), f2(t))

    G = max(g(t) for t in cands)
    hits = sorted(t for t in cands if g(t) == G)
    k_lo, k_hi = hits[0], hits[-1]
    if k_lo == lo_pad and g(lo_pad - 1) == G:
        k_lo = NEG_INFINITY
    if k_hi == hi_pad and g(hi_pad + 1) == G:
        k_hi = INFINITY
    return G, k_lo, k_hi


def _finite(*vals):
    return [v for v in vals if isinstance(v, Fraction)]


def _make_axis_tube(T: Tube, lo, hi, width) -> ConvexSubtree:
    """Subtube of T's carrier with the given level interval and width."""
    if width < 0:
        return EMPTY
    return Tube(T.field, T.xi1, T.xi2, lo, hi, width)


def _intersect_tubes(T1: Tube, T2: Tube) -> ConvexSubtree:
    f = T1.field
    phi = T1.gamma_inv
    A = phi.apply_boundary(T2.xi1)
    B = phi.apply_boundary(T2.xi2)
    zero_pt = BoundaryPoint(f.zero)
    inf_pt = BoundaryPoint.infinity()

    if (A == zero_pt and B == inf_pt) or (A == inf_pt and B == zero_pt):
        return _same_carrier_intersection(T1, T2)

    if A == inf_pt or B == inf_pt:
        other = B if A == inf_pt else A
        ov = (NEG_INFINITY, other.value.valuation())
    elif A == zero_pt or B == zero_pt:
        other = B if A == zero_pt else A
        ov = (other.value.valuation(), INFINITY)
    else:
        a, b = A.value.valuation(), B.value.valuation()
        pab = (A.value - B.value).valuation()
        if a != b:
            ov = (min(a, b), max(a, b))
        elif pab == a:
            ov = (a, a)
        else:
            return _bridged_intersection(
                T1, T2, t_b=a, D=pab - a,
                bridge_point=lambda x: T1.gamma.apply_vertex(
                    Vertex(A.value, a + x)),
                s_b=T2.axis_coord(T1.gamma.apply_vertex(Vertex(A.value, pab))),
            )
    if isinstance(ov[0], Fraction) and ov[0] == ov[1]:
        t_b = ov[0]
        P = T1.gamma.apply_vertex(Vertex(f.zero, t_b))
        return _bridged_intersection(
            T1, T2, t_b=t_b, D=Fraction(0),
            bridge_point=lambda x: P, s_b=T2.axis_coord(P))
    return _overlap_intersection(T1, T2, ov)


def _same_carrier_intersection(T1: Tube, T2: Tube) -> ConvexSubtree:
    f = T1.field
    # correspondence s = eps*t + c between the two axis coordinates
    probes = []
    for t in (Fraction(0), Fraction(1)):
        P = T1.gamma.apply_vertex(Vertex(f.zero, t))
        probes.append((t, T2.axis_coord(P)))
    (t0, s0), (t1, s1) = probes
    eps = (s1 - s0) / (t1 - t0)
    assert eps in (1, -1), "carrier correspondence must be an isometry"
    c = s0 - eps * t0

    def to_axis(s):
        if not isinstance(s, Fraction):
            up = (s is INFINITY) == (eps == 1)
            return INFINITY if up else NEG_INFINITY
        return (s - c) / eps

    lo2, hi2 = _order_iv(to_axis(T2.lo), to_axis(T2.hi))
    w1, w2 = T1.width, T2.width
    G, k_lo, k_hi = _pl_profile_max(
        lambda t: w1 - _iv_dist(t, T1.lo, T1.hi),
        lambda t: w2 - _iv_dist(t, lo2, hi2),
        _finite(T1.lo, T1.hi, lo2, hi2),
    )
    if G < 0:
        return EMPTY
    return _make_axis_tube(T1, k_lo, k_hi, G)


def _order_iv(a, b):
    if a is NEG_INFINITY or b is INFINITY:
        return a, b
    if b is NEG_INFINITY or a is INFINITY:
        return b, a
    return (a, b) if a <= b else (b, a)


def _bridged_intersection(T1: Tube, T2: Tube, t_b, D, bridge_point, s_b):
    """Cores joined through a bridge of length D >= 0.

    t_b / s_b are the bridge feet in T1's / T2's own coordinates, and
    bridge_point(x) is the ambient vertex at distance x from the T1 foot.
    """
    w1, w2 = T1.width, T2.width
    gap1 = _iv_dist(t_b, T1.lo, T1.hi)
    gap2 = _iv_dist(s_b, T2.lo, T2.hi)

    res_axis = _pl_profile_max(
        lambda t: w1 - _iv_dist(t, T1.lo, T1.hi),
        lambda t: w2 - gap2 - D - abs(t - t_b),
        _finite(T1.lo, T1.hi, t_b),
    )
    res_core2 = _pl_profile_max(
        lambda s: w2 - _iv_dist(s, T2.lo, T2.hi),
        lambda s: w1 - gap1 - D - abs(s - s_b),
        _finite(T2.lo, T2.hi, s_b),
    )
    res_bridge = None
    if D > 0:
        x_star = _clamp((w1 - gap1 - w2 + gap2 + D) / 2, Fraction(0), D)
        gb = min(w1 - gap1 - x_star, w2 - gap2 - (D - x_star))
        blo = max(Fraction(0), D - (w2 - gap2 - gb))
        bhi = min(D, w1 - gap1 - gb)
        res_bridge = (gb, blo, bhi)
    G = max(r[0] for r in [res_axis, res_core2] + ([res_bridge] if res_bridge else []))
    if G < 0:
        return EMPTY
    ends = []
    if res_axis[0] == G:
        ends.append(_axis_end(T1, res_axis[1]))
        ends.append(_axis_end(T1, res_axis[2]))
    if res_core2[0] == G:
        ends.append(_axis_end(T2, res_core2[1]))
        ends.append(_axis_end(T2, res_core2[2]))
    if res_bridge is not None and res_bridge[0] == G:
        ends.append(VertexEnd(bridge_point(res_bridge[1])))
        ends.append(VertexEnd(bridge_point(res_bridge[2])))
    return _tube_from_extremes(T1.field, ends, G)


def _beyond_offset(edge_s, direction, J):
    """Distance from edge_s to the nearest point of J on the given side
    (direction +1: s >= edge_s, -1: s <= edge_s); None if J has no such point."""
    lo, hi = J
    if direction > 0:
        if hi is INFINITY or hi >= edge_s:
            if lo is not NEG_INFINITY and lo > edge_s:
                return lo - edge_s
            return Fraction(0)
        return None
    if lo is NEG_INFINITY or lo <= edge_s:
        if hi is not INFINITY and hi < edge_s:
            return edge_s - hi
        return Fraction(0)
    return None


def _overlap_intersection(T1: Tube, T2: Tube, ov) -> ConvexSubtree:
    """Carriers sharing the axis level-interval `ov` (at least one end
    finite, at most one infinite)."""
    f = T1.field
    o_lo, o_hi = ov
    if o_lo is NEG_INFINITY:
        t0, t1 = o_hi - 1, o_hi
    elif o_hi is INFINITY:
        t0, t1 = o_lo, o_lo + 1
    else:
        t0, t1 = o_lo, o_hi
    P0 = T1.gamma.apply_vertex(Vertex(f.zero, t0))
    P1 = T1.gamma.apply_vertex(Vertex(f.zero, t1))
    s0, s1 = T2.axis_coord(P0), T2.axis_coord(P1)
    eps = (s1 - s0) / (t1 - t0)
    assert eps in (1, -1)
    c = s0 - eps * t0

    def to_s(t):
        if not isinstance(t, Fraction):
            up = (t is INFINITY) == (eps == 1)
            return INFINITY if up else NEG_INFINITY
        return eps * t + c

    def to_axis(s):
        if not isinstance(s, Fraction):
            up = (s is INFINITY) == (eps == 1)
            return INFINITY if up else NEG_INFINITY
        return (s - c) / eps

    s_ov = _order_iv(to_s(o_lo), to_s(o_hi))
    w1, w2 = T1.width, T2.width

    def make_cross_dist(ov_self, self_to_other, other_to_self, J_other,
                        ov_other, orient):
        """Distance, along one carrier's coordinate, to the other tube's core:
        either across the shared stretch or around a divergence end."""
        inside = _iv_intersect(J_other, ov_other)
        a_img = None
        if inside is not None:
            a_img = _order_iv(other_to_self(inside[0]), other_to_self(inside[1]))
        taps = []
        for o_end, direction in ((ov_self[0], -1), (ov_self[1], +1)):
            if not isinstance(o_end, Fraction):
                continue
            # side of the other carrier lying beyond this divergence point
            off = _beyond_offset(self_to_other(o_end), direction * orient, J_other)
            if off is not None:
                taps.append((o_end, off))

        def dist(x):
            opts = []
            if a_img is not None:
                opts.append(_iv_dist(x, a_img[0], a_img[1]))
            for o_end, off in taps:
                opts.append(abs(x - o_end) + off)
            assert opts, "other core invisible"
            return min(opts)

        return dist, ([a_img[0], a_img[1]] if a_img else []) + [o for o, _ in taps]

    d2_axis, bps2 = make_cross_dist(
        (o_lo, o_hi), to_s, to_axis, (T2.lo, T2.hi), s_ov, int(eps))
    d1_core2, bps1 = make_cross_dist(
        s_ov, to_axis, to_s, (T1.lo, T1.hi), (o_lo, o_hi), int(eps))

    res_axis = _pl_profile_max(
        lambda t: w1 - _iv_dist(t, T1.lo, T1.hi),
        lambda t: w2 - d2_axis(t),
        _finite(T1.lo, T1.hi, o_lo, o_hi, *bps2),
    )
    res_core2 = _pl_profile_max(
        lambda s: w2 - _iv_dist(s, T2.lo, T2.hi),
        lambda s: w1 - d1_core2(s),
        _finite(T2.lo, T2.hi, s_ov[0], s_ov[1], *bps1),
    )
    G = max(res_axis[0], res_core2[0])
    if G < 0:
        return EMPTY
    ends = []
    if res_axis[0] == G:
        ends.append(_axis_end(T1, res_axis[1]))
        ends.append(_axis_end(T1, res_axis[2]))
    if res_core2[0] == G:
        ends.append(_axis_end(T2, res_core2[1]))
        ends.append(_axis_end(T2, res_core2[2]))
    return _tube_from_extremes(f, ends, G)


def _axis_end(T: Tube, bound):
    if bound is NEG_INFINITY:
        return BoundaryEnd(T.xi2)
    if bound is INFINITY:
        return BoundaryEnd(T.xi1)
    return VertexEnd(T.axis_vertex(bound))


def _tube_from_extremes(field, ends, width) -> ConvexSubtree:
    """The plateau is one path; recover its two extreme ends."""
    assert ends
    bpts, verts = [], []
    for e in ends:
        if isinstance(e, BoundaryEnd):
            if not any(e.point == b.point for b in bpts):
                bpts.append(e)
        else:
            if not any(e.vertex == v.vertex for v in verts):
                verts.append(e)
    if len(bpts) >= 2:
        return tube(field, bpts[0], bpts[1], width)
    if len(bpts) == 1:
        xi = bpts[0]
        if not verts:
            # degenerate; should not occur, but fail loudly if it does
            raise AssertionError("plateau with a single boundary end only")
        # the extreme vertex is the one whose ray to xi contains all others
        for v in verts:
            ray = tube(field, VertexEnd(v.vertex), xi, 0)
            if all(ray.contains(w.vertex) for w in verts):
                return tube(field, v, xi, width)
        raise AssertionError("no extreme vertex found on plateau ray")
    if len(verts) == 1:
        return tube(field, verts[0], verts[0], width)
    best = None
    for i in range(len(verts)):
        for j in range(i, len(verts)):
            d = distance(verts[i].vertex, verts[j].vertex)
            if best is None or d > best[0]:
                best = (d, verts[i], verts[j])
    return tube(field, best[1], best[2], width)


def _intersect_tube_horoball(T: Tube, H: Horoball) -> ConvexSubtree:
    f = T.field
    psi = H.witness_inv
    A = psi.apply_boundary(T.xi1)
    B = psi.apply_boundary(T.xi2)
    h, w = H.level, T.width

    def lvl(s):
        return psi.apply_vertex(T.axis_vertex(s)).level

    inf_pt = BoundaryPoint.infinity()
    if A == inf_pt or B == inf_pt:
        # carrier reaches the horoball point: level is affine in s
        l0, l1 = lvl(Fraction(0)), lvl(Fraction(1))
        slope = l1 - l0
        assert slope in (1, -1)
        G, k_lo, k_hi = _pl_profile_max(
            lambda s: w - _iv_dist(s, T.lo, T.hi),
            lambda s: h - (l0 + slope * s),
            _finite(T.lo, T.hi, (h - l0) / slope),
        )
        if G < 0:
            return EMPTY
        return _make_axis_tube(T, k_lo, k_hi, G)

    pk = peak(A, B)
    s0 = T.axis_coord(H.witness.apply_vertex(pk))
    p = pk.level
    gap = _iv_dist(s0, T.lo, T.hi)
    res_car = _pl_profile_max(
        lambda s: w - _iv_dist(s, T.lo, T.hi),
        lambda s: h - (p + abs(s - s0)),
        _finite(T.lo, T.hi, s0),
    )
    # the ray from the carrier peak toward the horoball point, y = p - level
    y_star = max(Fraction(0), (w - gap - (h - p)) / 2)
    G_ray = min(w - gap - y_star, (h - p) + y_star)
    ry_lo = max(Fraction(0), G_ray - (h - p))
    ry_hi = w - gap - G_ray
    if ry_hi < ry_lo:
        G_ray = None
    G = res_car[0] if G_ray is None else max(res_car[0], G_ray)
    if G < 0:
        return EMPTY
    ends = []
    if res_car[0] == G:
        ends.append(_axis_end(T, res_car[1]))
        ends.append(_axis_end(T, res_car[2]))
    if G_ray is not None and G_ray == G:
        for y in (ry_lo, ry_hi):
            v = H.witness.apply_vertex(Vertex(A.value, p - y))
            ends.append(VertexEnd(v))
    return _tube_from_extremes(f, ends, G)


def _intersect_horoballs(H1: Horoball, H2: Horoball) -> ConvexSubtree:
    rho = H1.witness_inv * H2.witness
    at_inf = rho.apply_boundary(BoundaryPoint.infinity())
    if at_inf.is_infinity:
        shift = rho.apply_vertex(Vertex(H1.field.zero, Fraction(0))).level
        return Horoball(H1.field, H1.witness, min(H1.level, H2.level + shift))
    return Meet([H1, H2])


def peak(a: BoundaryPoint, b: BoundaryPoint) -> Vertex:
    if a.is_infinity or b.is_infinity:
        raise NoPeak("maximal paths through infinity have no peak")
    if a.value == b.value:
        raise NoPeak("equal boundary points")
    return Vertex(a.value, (a.value - b.value).valuation())


def _iv_dist(x, lo, hi):
    """Distance from a finite x to the interval [lo, hi]."""
    if lo is not NEG_INFINITY and x < lo:
        return lo - x
    if hi is not INFINITY and x > hi:
        return x - hi
    return Fraction(0)


def _iv_intersect(a, b):
    # max of the lows, min of the highs, with sentinel ends
    lo1, hi1 = a
    lo2, hi2 = b
    lo = lo1 if lo2 is NEG_INFINITY else (lo2 if lo1 is NEG_INFINITY else max(lo1, lo2))
    hi = hi1 if hi2 is INFINITY else (hi2 if hi1 is INFINITY else min(hi1, hi2))
    if lo is not NEG_INFINITY and hi is not INFINITY and lo > hi:
        return None
    return (lo, hi)


class Meet(ConvexSubtree):
    """Intersection kept in implicit form (membership only).

    Returned when the intersection of convex sets is provably not a tube or
    horoball (e.g. two horoballs at distinct points); never produced by the
    quaternionic flows.
    """

    def __init__(self, parts):
        self.parts = list(parts)

    def contains(self, v: Vertex) -> bool:
        return all(p.contains(v) for p in self.parts)

    def __repr__(self):
        return f"Meet({self.parts!r})"
