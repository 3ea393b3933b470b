"""The Bruhat-Tits tree of SL2 over a local field, as a ball complex.

Vertices are closed balls B_{a,r} (center a, radius |pi|^r), identified with
homothety classes of rank-2 lattices and with maximal orders in M_2.  The
metric is normalized so base-field neighbors are at distance 1; levels live
in (1/e)Z.  Convex subtrees are tubes around geodesics and horoballs, with
decidable membership and exact intersection.
"""

from __future__ import annotations

import os
from fractions import Fraction

from .errors import NoPeak, WindowTooLarge
from .padic import INFINITY, FieldElement, LocalField, Subfield, val_min


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

DEFAULT_VERTEX_CAP = 10 ** 6


def vertex_cap() -> int:
    return int(os.environ.get("BTTWIST_VERTEX_CAP", DEFAULT_VERTEX_CAP))


# ---------------------------------------------------------------------------
# boundary points and vertices


class BoundaryPoint:
    """A point of P^1: a field element or the point at infinity."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value  # FieldElement or None for infinity

    @classmethod
    def infinity(cls):
        return cls(None)

    @classmethod
    def of(cls, x) -> "BoundaryPoint":
        if isinstance(x, BoundaryPoint):
            return x
        return cls(x)

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    def __eq__(self, other):
        if not isinstance(other, BoundaryPoint):
            return NotImplemented
        if self.is_infinity or other.is_infinity:
            return self.is_infinity and other.is_infinity
        return self.value == other.value

    def __hash__(self):
        return hash(None) if self.is_infinity else hash(self.value)

    def galois(self, mask: int) -> "BoundaryPoint":
        if self.is_infinity:
            return self
        return BoundaryPoint(self.value.conj(mask))

    def __repr__(self):
        return "inf" if self.is_infinity else repr(self.value)


class Vertex:
    """The ball B_{center, level}.  Levels are rationals; lattice vertices of
    the ambient tree have level in (1/e)Z, but midpoint pseudo-vertices with
    other rational levels are allowed wherever they make sense."""

    __slots__ = ("center", "level")

    def __init__(self, center: FieldElement, level):
        self.center = center
        self.level = Fraction(level)

    @property
    def field(self) -> LocalField:
        return self.center.field

    def __eq__(self, other):
        if not isinstance(other, Vertex):
            return NotImplemented
        if self.level != other.level:
            return False
        return (self.center - other.center).valuation() >= self.level

    def __hash__(self):  # pragma: no cover - identity hashing is a trap here
        raise TypeError("Vertex is not hashable; use key() for canonical ids")

    def key(self) -> tuple:
        """Canonical id (level, reduced center digits); equal balls agree."""
        f = self.field
        n_end = self.level * f.e
        if n_end.denominator != 1:
            # pseudo-vertex: reduce at the finest integral level below
            n_end = Fraction(int(n_end // 1))
        reduced = _reduce_center(self.center, int(n_end))
        return (self.level, reduced.key())

    def __repr__(self):
        return f"B({self.center!r}, {self.level})"


def _reduce_center(a: FieldElement, n_end: int) -> FieldElement:
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
        hit = False
        for c in f.residue_reps:
            if c.is_zero():
                continue
            cand = res - c * pj
            if cand.valuation() > Fraction(j, f.e):
                out = out + c * pj
                res = cand
                hit = True
                break
        if not hit:
            if res.valuation() <= Fraction(j, f.e):
                # valuation off the lattice grid: keep the term as-is
                out = out + res
                res = f.zero
                break
        j += 1
    return out


def distance(v: Vertex, w: Vertex) -> Fraction:
    m = val_min(v.level, w.level, (v.center - w.center).valuation())
    return (v.level - m) + (w.level - m)


def neighbors(v: Vertex) -> list:
    """The q+1 neighbors: one above, q below (one per residue class)."""
    f = v.field
    step = Fraction(1, f.e)
    t = f.scale_of_valuation(v.level)
    out = [Vertex(v.center, v.level - step)]
    for c in f.residue_reps:
        out.append(Vertex(v.center + c * t, v.level + step))
    return out


def same_type(v: Vertex, w: Vertex) -> bool:
    """Vertices of the same type: their distance is an even multiple of the
    base step.  Unit-determinant Moebius maps preserve the type."""
    d = distance(v, w) * v.field.e
    return d.denominator == 1 and int(d) % 2 == 0


def peak(a: BoundaryPoint, b: BoundaryPoint) -> Vertex:
    if a.is_infinity or b.is_infinity:
        raise NoPeak("maximal paths through infinity have no peak")
    if a.value == b.value:
        raise NoPeak("equal boundary points")
    return Vertex(a.value, (a.value - b.value).valuation())


class Window:
    """All vertices within distance R of a center, via neighbor expansion."""

    def __init__(self, center: Vertex, radius, cap=None):
        cap = vertex_cap() if cap is None else cap
        f = center.field
        step = Fraction(1, f.e)
        radius = Fraction(radius)
        self.center = center
        self.radius = radius
        self.vertices = [center]
        self.distances = [Fraction(0)]
        self.edges = []  # (parent index, child index)
        frontier = [(center, None, 0)]  # vertex, parent vertex, index
        d = Fraction(0)
        while d + step <= radius:
            d += step
            nxt = []
            for v, parent, vi in frontier:
                for n in neighbors(v):
                    if parent is not None and n == parent:
                        continue
                    self.vertices.append(n)
                    self.distances.append(d)
                    self.edges.append((vi, len(self.vertices) - 1))
                    nxt.append((n, v, len(self.vertices) - 1))
                    if len(self.vertices) > cap:
                        raise WindowTooLarge(
                            f"window exceeds vertex cap {cap}"
                        )
            frontier = nxt

    def __iter__(self):
        return iter(self.vertices)

    def __len__(self):
        return len(self.vertices)


# ---------------------------------------------------------------------------
# Moebius maps


class MoebiusMap:
    """A 2x2 matrix with nonzero determinant, acting projectively."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def from_rows(cls, field: LocalField, rows) -> "MoebiusMap":
        conv = lambda x: x if isinstance(x, FieldElement) else field.from_rational(x)
        (a, b), (c, d) = rows
        return cls(conv(a), conv(b), conv(c), conv(d))

    @classmethod
    def identity(cls, field: LocalField) -> "MoebiusMap":
        return cls(field.one, field.zero, field.zero, field.one)

    @property
    def field(self) -> LocalField:
        return self.a.field

    def det(self) -> FieldElement:
        return self.a * self.d - self.b * self.c

    def __mul__(self, other: "MoebiusMap") -> "MoebiusMap":
        return MoebiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self) -> "MoebiusMap":
        det = self.det()
        return MoebiusMap(
            self.d / det, -self.b / det, -self.c / det, self.a / det
        )

    def galois(self, mask: int) -> "MoebiusMap":
        return MoebiusMap(
            self.a.conj(mask), self.b.conj(mask), self.c.conj(mask), self.d.conj(mask)
        )

    def proj_eq(self, other: "MoebiusMap") -> bool:
        """Equality in PGL_2 (up to scalars)."""
        mine = [self.a, self.b, self.c, self.d]
        theirs = [other.a, other.b, other.c, other.d]
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

    def apply_boundary(self, x: BoundaryPoint) -> BoundaryPoint:
        if x.is_infinity:
            if self.c.is_zero():
                return BoundaryPoint.infinity()
            return BoundaryPoint(self.a / self.c)
        num = self.a * x.value + self.b
        den = self.c * x.value + self.d
        if den.is_zero():
            return BoundaryPoint.infinity()
        return BoundaryPoint(num / den)

    def apply_vertex(self, v: Vertex) -> Vertex:
        """Image under the lattice action g.[Lambda] = [g Lambda].

        Midpoints (levels off the (1/e)Z lattice) map by interpolating the
        images of the two lattice endpoints of their edge."""
        f = v.field
        scaled = v.level * f.e
        if scaled.denominator != 1:
            r0 = Fraction(int(scaled // 1), f.e)
            delta = v.level - r0
            u0 = self.apply_vertex(Vertex(v.center, r0))
            u1 = self.apply_vertex(Vertex(v.center, r0 + Fraction(1, f.e)))
            if u1.level > u0.level:
                return Vertex(u1.center, u0.level + delta)
            return Vertex(u0.center, u0.level - delta)
        t = f.scale_of_valuation(v.level)
        # columns of g * (basis of Lambda_{a, r})
        u1 = self.a * v.center + self.b
        u2 = self.c * v.center + self.d
        w1 = self.a * t
        w2 = self.c * t
        if val_min(u2.valuation()) > w2.valuation():
            u1, u2, w1, w2 = w1, w2, u1, u2
        # now nu(u2) <= nu(w2), in particular u2 != 0
        w1 = w1 - (w2 / u2) * u1
        center = u1 / u2
        lvl = w1.valuation() - u2.valuation()
        return Vertex(center, lvl)

    def apply(self, x):
        if isinstance(x, Vertex):
            return self.apply_vertex(x)
        return self.apply_boundary(BoundaryPoint.of(x))

    def __repr__(self):
        return f"[[{self.a!r}, {self.b!r}], [{self.c!r}, {self.d!r}]]"


def lattice_of_vertex(v: Vertex):
    """Basis ((a,1),(t,0)) of a lattice in the homothety class of v."""
    f = v.field
    t = f.scale_of_valuation(v.level)
    return ((v.center, f.one), (t, f.zero))


def std_map(field: LocalField, xi1: BoundaryPoint, xi2: BoundaryPoint) -> MoebiusMap:
    """Moebius map sending 0 to xi1 and infinity to xi2."""
    one, zero = field.one, field.zero
    if xi1.is_infinity:
        return MoebiusMap(xi2.value, one, one, zero)
    if xi2.is_infinity:
        return MoebiusMap(one, xi1.value, zero, one)
    return MoebiusMap(xi2.value, xi1.value, one, one)


# ---------------------------------------------------------------------------
# convex subtrees


class ConvexSubtree:
    def contains(self, v: Vertex) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    def tubular(self, w) -> "ConvexSubtree":  # pragma: no cover - interface
        raise NotImplementedError


class EmptyTree(ConvexSubtree):
    def contains(self, v):
        return False

    def tubular(self, w):
        return self

    def __repr__(self):
        return "Empty"


class WholeTree(ConvexSubtree):
    def contains(self, v):
        return True

    def tubular(self, w):
        return self

    def __repr__(self):
        return "Whole"


EMPTY = EmptyTree()
WHOLE = WholeTree()


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


def _iv_dist(x, lo, hi):
    """Distance from a finite x to the interval [lo, hi]."""
    if lo is not NEG_INFINITY and x < lo:
        return lo - x
    if hi is not INFINITY and x > hi:
        return x - hi
    return Fraction(0)


def _iv_expand(lo, hi, delta):
    nlo = lo if lo is NEG_INFINITY else lo - delta
    nhi = hi if hi is INFINITY else hi + delta
    return nlo, nhi


def _iv_intersect(a, b):
    # max of the lows, min of the highs, with sentinel ends
    lo1, hi1 = a
    lo2, hi2 = b
    lo = lo1 if lo2 is NEG_INFINITY else (lo2 if lo1 is NEG_INFINITY else max(lo1, lo2))
    hi = hi1 if hi2 is INFINITY else (hi2 if hi1 is INFINITY else min(hi1, hi2))
    if lo is not NEG_INFINITY and hi is not INFINITY and lo > hi:
        return None
    return (lo, hi)


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
        assert self.width >= 0
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
        assert w.center.valuation() >= w.level, "vertex not on carrier"
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

    def is_ball(self) -> bool:
        return self.lo == self.hi

    def __repr__(self):
        return (f"Tube({self.end_a!r} .. {self.end_b!r}, width={self.width}, "
                f"levels=[{self.lo},{self.hi}])")


def tube(field, end_a, end_b, width) -> Tube:
    """Build the tube of the given width around the geodesic [end_a, end_b]."""
    width = Fraction(width)
    if isinstance(end_a, BoundaryEnd) and isinstance(end_b, BoundaryEnd):
        xi1, xi2 = end_a.point, end_b.point
        assert not (xi1 == xi2), "coincident boundary ends"
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


class Horoball(ConvexSubtree):
    """witness . {B_{a,r} : r <= level}; the canonical one has witness = id."""

    def __init__(self, field, witness: MoebiusMap, level):
        self.field = field
        self.witness = witness
        self.witness_inv = witness.inv()
        self.level = Fraction(level)

    def contains(self, v: Vertex) -> bool:
        return self.witness_inv.apply_vertex(v).level <= self.level

    def tubular(self, w) -> "Horoball":
        return Horoball(self.field, self.witness, self.level + Fraction(w))

    def boundary_point(self) -> BoundaryPoint:
        return self.witness.apply_boundary(BoundaryPoint.infinity())

    def __repr__(self):
        return f"Horoball(level={self.level} at {self.boundary_point()!r})"


def standard_horoball(field, level) -> Horoball:
    """All balls of radius |pi|^level or more (level 0 gives F_0)."""
    return Horoball(field, MoebiusMap.identity(field), level)


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


def tubular(S: ConvexSubtree, w) -> ConvexSubtree:
    w = Fraction(w)
    assert w >= 0
    return S.tubular(w)


# ---------------------------------------------------------------------------
# exact intersection


def intersect(S1: ConvexSubtree, S2: ConvexSubtree) -> ConvexSubtree:
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


# ---------------------------------------------------------------------------
# subfield vertices (untwisted)


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


def e_vertex_test_untwisted(v: Vertex, sub: Subfield) -> bool:
    """Is the ball a vertex of the subfield's tree inside the ambient tree?

    True iff the level is in the subfield's value group and the ball meets
    the subfield.
    """
    lvl_scaled = v.level * sub.field.e
    if lvl_scaled.denominator != 1:
        return False
    return approximates_from(v.center, sub, v.level)


# ---------------------------------------------------------------------------
# DOT output


def emit_dot(vertices, highlight: ConvexSubtree = None, title="bttree") -> str:
    """Deterministic DOT graph of a set of lattice vertices (levels in
    (1/e)Z, as in a window) with tree edges and optional highlighted
    membership."""
    labeled = []
    for v in vertices:
        lvl, ck = v.key()
        labeled.append(((lvl, ck), v))
    labeled.sort(key=lambda x: (x[0][0], x[0][1]))
    lines = [f'graph "{title}" {{', "  node [shape=circle];"]
    at = {}  # key -> the indices of every vertex carrying it
    for i, ((lvl, ck), v) in enumerate(labeled):
        at.setdefault((lvl, ck), []).append(i)
        label = f"B({ck}, {lvl})"
        style = ""
        if highlight is not None and highlight.contains(v):
            style = ', style=filled, fillcolor="lightblue"'
        lines.append(f'  v{i} [label="{label}"{style}];')
    for i, (_, v) in enumerate(labeled):
        later = sorted(j for n in neighbors(v) for j in at.get(n.key(), ())
                       if j > i)
        lines.extend(f"  v{i} -- v{j};" for j in later)
    lines.append("}")
    return "\n".join(lines) + "\n"
