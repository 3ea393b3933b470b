"""The Bruhat-Tits tree of SL2 over a local field, as a ball complex.

Vertices are closed balls B_{a,r} (center a, radius |pi|^r), identified with
homothety classes of rank-2 lattices and with maximal orders in M_2.  The
metric is normalized so base-field neighbors are at distance 1; levels live
in (1/e)Z.  The branch of a single matrix is a tube around a geodesic or a
horoball, each with decidable membership.
"""

from __future__ import annotations

import os
from fractions import Fraction

from .errors import DivisionByZero, InternalInvariant, WindowTooLarge
from .padic import FieldElement, LocalField, Subfield, val_min


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
    other rational levels are allowed wherever they make sense.

    Two vertices are equal when they have the same level and their centers
    lie within pi^level of each other, i.e. nu(a - b) >= level.  Comparing
    vertices of different fields raises InternalInvariant when the levels
    agree (the centers cannot be subtracted); different levels are unequal
    in any field."""

    __slots__ = ("center", "level")

    def __init__(self, center: FieldElement, level):
        self.center = center
        self.level = level if level.__class__ is Fraction else Fraction(level)

    @property
    def field(self) -> LocalField:
        return self.center.field

    def __eq__(self, other):
        if not isinstance(other, Vertex):
            return NotImplemented
        # Fractions are in lowest terms, so this is exactly a != b, without
        # the numbers.Rational check of Fraction.__eq__
        a, b = self.level, other.level
        if a.numerator != b.numerator or a.denominator != b.denominator:
            return False
        return self.center.field.congruent(self.center, other.center, a)

    def __hash__(self):  # pragma: no cover - identity hashing is a trap here
        raise TypeError("Vertex is not hashable; use key() for canonical ids")

    def key(self) -> tuple:
        """Canonical id (level, reduced center digits); equal balls agree.

        Valuations lie in (1/e)Z, so nu(a - b) >= level exactly when
        nu(a - b) >= ceil(level * e) / e: the center is reduced at
        ceil(level * e) digits (level * e itself at a lattice vertex)."""
        level = self.level
        n_end = -(-level.numerator * self.field.e // level.denominator)
        return (level, _reduce_center(self.center, n_end).key())

    def __repr__(self):
        return f"B({self.center!r}, {self.level})"


def _reduce_center(a: FieldElement, n_end: int) -> FieldElement:
    """Canonical representative of a modulo pi^n_end * O: its digits."""
    f = a.field
    rest = digit_rest(a, Fraction(n_end, f.e), f.e, f.residue_reps[1:],
                      f.pi_pow)
    if rest is None:
        # valuations lie in (1/e)Z, and a complete set of residue
        # representatives has every digit
        raise InternalInvariant(
            f"no residue digit for {a!r} below level {n_end}/{f.e} in {f}")
    return a - rest


def digit_rest(res: FieldElement, stop, e: int, reps, pi_pow):
    """What is left of res once its greedy pi-adic digits below valuation
    `stop` are taken off (J.-P. Serre, Local Fields, ch. II §4).

    While nu(res) < stop, the leading term c * pi^n of res is subtracted:
    n = nu(res) * e, pi_pow(n) has valuation n / e, and the digit c is the
    first of `reps` (nonzero residue representatives) with
    nu(res - c pi^n) > nu(res).  Zero digits are skipped, not tried.  None
    when a leading term has no digit: nu(res) is off (1/e)Z, or no
    representative matches."""
    v = res.valuation()
    while v < stop:
        n, rem = divmod(v.numerator * e, v.denominator)
        if rem:
            return None
        t = pi_pow(n)
        for c in reps:
            cand = res - c * t
            w = cand.valuation()
            if w > v:
                res, v = cand, w
                break
        else:
            return None
    return res


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


class Window:
    """All vertices within distance R of a center, via neighbor expansion.
    The vertex each one was reached from is skipped by position: a child's
    up-neighbour is index 0 of its `neighbors`, and a vertex is the c = 0
    child (index 1) of its up-neighbour."""

    def __init__(self, center: Vertex, radius):
        cap = vertex_cap()
        f = center.field
        step = Fraction(1, f.e)
        radius = Fraction(radius)
        self.center = center
        self.radius = radius
        self.vertices = [center]
        self.distances = [Fraction(0)]
        self.edges = []  # (parent index, child index)
        frontier = [(center, None, 0)]  # vertex, skipped position, index
        d = Fraction(0)
        while d + step <= radius:
            d += step
            nxt = []
            for v, skip, vi in frontier:
                for i, n in enumerate(neighbors(v)):
                    if i == skip:
                        continue
                    self.vertices.append(n)
                    self.distances.append(d)
                    self.edges.append((vi, len(self.vertices) - 1))
                    nxt.append((n, 0 if i else 1, len(self.vertices) - 1))
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

    __slots__ = ("a", "b", "c", "d", "_nu_det")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d
        self._nu_det = None  # nu(det) * degree, on first use

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

    @property
    def entries(self) -> tuple:
        return self.a, self.b, self.c, self.d

    def __eq__(self, other):
        """Entry by entry (so a map is unhashable); `proj_eq` is equality
        in PGL_2."""
        if not isinstance(other, MoebiusMap):
            return NotImplemented
        return self.entries == other.entries

    def __neg__(self) -> "MoebiusMap":
        return MoebiusMap(-self.a, -self.b, -self.c, -self.d)

    def __add__(self, other: "MoebiusMap") -> "MoebiusMap":
        return MoebiusMap(self.a + other.a, self.b + other.b,
                          self.c + other.c, self.d + other.d)

    def scaled(self, s) -> "MoebiusMap":
        """s times the matrix, for a field element or a rational s."""
        return MoebiusMap(self.a * s, self.b * s, self.c * s, self.d * s)

    def trace(self) -> FieldElement:
        return self.a + self.d

    def is_scalar(self) -> bool:
        """Is this a scalar matrix (zero included)?"""
        return self.b.is_zero() and self.c.is_zero() and self.a == self.d

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
        return MoebiusMap(*(x.conj(mask) for x in self.entries))

    def proj_eq(self, other: "MoebiusMap") -> bool:
        """Equality in PGL_2 (up to scalars): the same zero pattern, and
        x y_k == y x_k for each entry pair against the first nonzero k."""
        pairs = [(x, y) for x, y in zip(self.entries, other.entries)
                 if not (x.is_zero() and y.is_zero())]
        if any(x.is_zero() or y.is_zero() for x, y in pairs):
            return False
        return all(x * pairs[0][1] == y * pairs[0][0] for x, y in pairs[1:])

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

    def image(self, v: Vertex) -> tuple:
        """(u1, u2, level) with g.v = B(u1 / u2, level), without an inverse.
        g maps the lattice basis ((z, 1), (t, 0)) of v = B(z, n/e), t = pi^n,
        to (az + b, cz + d) and (at, ct), of determinant t det g; (u1, u2) is
        the column of least nu(u2) (cz + d on a tie; (a, c) stands for
        (at, ct)), and level = nu(t) + nu(det g) - 2 nu(u2), summed in units
        of 1/degree.  A midpoint gives its interpolated image over u2 = 1;
        a singular g raises DivisionByZero."""
        f, level = v.field, v.level
        n, rem = divmod(level.numerator * f.e, level.denominator)
        if rem:
            w = self.apply_vertex(v)
            return w.center, f.one, w.level
        a, c, z = self.a, self.c, v.center
        u2 = c * z + self.d
        if self._nu_det is None:
            det = self.det()
            if det.is_zero():
                raise DivisionByZero(f"singular Moebius map {self!r}")
            self._nu_det = f.val_units(det)
        nt = n * f.f  # nu(t) * degree
        k2, kc = f.val_units(u2), f.val_units(c)
        if k2 > kc + nt:
            u1, u2, k2 = a, c, kc + nt
        else:
            u1 = a * z + self.b
        return u1, u2, f.val_of_units(nt + self._nu_det - 2 * k2)

    def sends(self, w: Vertex, v: Vertex) -> bool:
        """Is g.w = v?  For v = B(z, r): the levels agree and
        nu(u1 - z u2) >= r + nu(u2), with no inverse and no image vertex."""
        u1, u2, level = self.image(w)
        f = u2.field
        return level == v.level and f.congruent(
            u1, v.center * u2, level, f.val_units(u2))

    def apply_vertex(self, v: Vertex) -> Vertex:
        """Image under the lattice action g.[Lambda] = [g Lambda].

        Midpoints (levels off the (1/e)Z lattice) map by interpolating the
        images of the two lattice endpoints of their edge."""
        e = v.field.e
        level = v.level
        n, rem = divmod(level.numerator * e, level.denominator)
        if rem:
            r0 = Fraction(n, e)
            delta = level - r0
            u0 = self.apply_vertex(Vertex(v.center, r0))
            u1 = self.apply_vertex(Vertex(v.center, r0 + Fraction(1, e)))
            if u1.level > u0.level:
                return Vertex(u1.center, u0.level + delta)
            return Vertex(u0.center, u0.level - delta)
        u1, u2, lvl = self.image(v)
        return Vertex(u1 * u2.inv(), lvl)

    def __repr__(self):
        return f"[[{self.a!r}, {self.b!r}], [{self.c!r}, {self.d!r}]]"


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


class Tube(ConvexSubtree):
    """All vertices within `width` of the geodesic from xi1 to xi2: the
    branch of a split etale matrix, whose eigen-directions are the ends.

    `gamma` carries the standard axis from 0 to infinity onto the geodesic
    (gamma(0) = xi1, gamma(inf) = xi2), so w = gamma^-1 . v lies at distance
    level(w) - min(level(w), nu(center(w))) from it.
    """

    def __init__(self, field, xi1: BoundaryPoint, xi2: BoundaryPoint, width):
        if xi1 == xi2:
            raise InternalInvariant(f"coincident boundary ends at {xi1!r}")
        self.field = field
        self.xi1 = xi1
        self.xi2 = xi2
        self.width = Fraction(width)
        if self.width < 0:
            raise InternalInvariant(f"negative tube width {self.width}")
        self.gamma = std_map(field, xi1, xi2)
        self.gamma_inv = self.gamma.inv()

    def contains(self, v: Vertex) -> bool:
        u1, u2, level = self.gamma_inv.image(v)
        # nu(center(w)) = nu(u1) - nu(u2) against level, both shifted by
        # nu(u2), so that u1 may be 0
        nu, top = u1.valuation(), level + u2.valuation()
        return nu >= top or top - nu <= self.width

    def tubular(self, w) -> "Tube":
        return Tube(self.field, self.xi1, self.xi2, self.width + Fraction(w))

    def __repr__(self):
        return (f"Tube(BoundaryEnd({self.xi1!r}) .. BoundaryEnd({self.xi2!r}), "
                f"width={self.width}, levels=[-oo,oo])")


class Horoball(ConvexSubtree):
    """witness . {B_{a,r} : r <= level}; the canonical one has witness = id."""

    def __init__(self, field, witness: MoebiusMap, level):
        self.field = field
        self.witness = witness
        self.witness_inv = witness.inv()
        self.level = Fraction(level)

    def contains(self, v: Vertex) -> bool:
        return self.witness_inv.image(v)[2] <= self.level

    def tubular(self, w) -> "Horoball":
        return Horoball(self.field, self.witness, self.level + Fraction(w))

    def boundary_point(self) -> BoundaryPoint:
        return self.witness.apply_boundary(BoundaryPoint.infinity())

    def __repr__(self):
        return f"Horoball(level={self.level} at {self.boundary_point()!r})"


def tubular(S: ConvexSubtree, w) -> ConvexSubtree:
    w = Fraction(w)
    if w < 0:
        raise InternalInvariant(f"negative tubular radius {w}")
    return S.tubular(w)


# ---------------------------------------------------------------------------
# subfield vertices (untwisted)


def approximates_from(a: FieldElement, sub: Subfield, target) -> bool:
    """Is there lambda in the subfield with nu(a - lambda) >= target?

    The digit expansion of a over the subfield's residue representatives
    and powers of its uniformizer, embedded; exact (the greedy digit is
    unique when it exists).
    """
    E = sub.field
    reps = [sub.embed(r) for r in E.residue_reps[1:]]
    return digit_rest(a, target, E.e, reps,
                      lambda n: sub.embed(E.pi_pow(n))) is not None


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
