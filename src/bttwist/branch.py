"""Branches: the convex set of maximal orders containing a matrix.

Three independent engines compute branches:
  * a closed form from the classification of the generated quadratic algebra
    (scalar / nilpotent-bearing / split etale / field etale),
  * the lattice-integrality oracle (conjugate by the vertex basis, check
    valuations), and
  * for integral units, the fixed points of the associated Moebius map.
They are cross-checked against each other in the test suite.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (InternalInvariant, NeedsExtension, NotAUnit,
                     NotInField, NotSquareFree, SplitPrime)
from .padic import (INFINITY, FieldElement, LocalField, make_field,
                    squarefree_part)
from .bttree import (
    EMPTY, WHOLE, BoundaryPoint, ConvexSubtree, Horoball, MoebiusMap, Tube,
    Vertex,
)

class QuadClass:
    """The kind of the quadratic algebra a matrix generates; equal by its
    three fields."""

    __slots__ = ("kind", "eigenvalues", "ramified")

    def __init__(self, kind: str, eigenvalues: tuple = None,
                 ramified: bool = None):
        self.kind = kind  # scalar | nonetale | etale_split | etale_field
        self.eigenvalues = eigenvalues  # for etale_split
        self.ramified = ramified  # for etale_field

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.kind, self.eigenvalues, self.ramified)
                == (other.kind, other.eigenvalues, other.ramified))

    def __repr__(self):
        if self.kind == "etale_split":
            return f"EtaleSplit{self.eigenvalues}"
        if self.kind == "etale_field":
            return f"EtaleField(ramified={self.ramified})"
        return {"scalar": "Scalar", "nonetale": "NonEtale"}[self.kind]


def classify(q: MoebiusMap, field: LocalField) -> QuadClass:
    if q.is_scalar():
        return QuadClass("scalar")
    t = q.trace()
    disc = t * t - 4 * q.det()
    if disc.is_zero():
        return QuadClass("nonetale")
    defect = field.quadratic_defect(disc)
    if defect is INFINITY:
        try:  # a local square need not have a root in the model
            s = field.sqrt_of(disc)
        except NotInField:
            raise NeedsExtension(
                "discriminant is a local square with no model square root")
        lam1 = (t + s) / 2
        lam2 = (t - s) / 2
        return QuadClass("etale_split", eigenvalues=(lam1, lam2))
    v = disc.valuation()
    if int(v * field.e) % 2:
        ramified = True
    else:
        u = disc / field.pi_pow(int(v * field.e))
        ramified = not (field.quadratic_defect(u) == field.nu4)
    return QuadClass("etale_field", ramified=ramified)


def _eigen_direction(q: MoebiusMap, lam: FieldElement) -> BoundaryPoint:
    # kernel of (q - lam): a fixed point of the Moebius transformation
    if not q.b.is_zero():
        vec = (q.b, lam - q.a)
    elif not q.c.is_zero():
        vec = (lam - q.d, q.c)
    else:  # diagonal
        vec = (q.a.field.one, q.a.field.zero) if q.a == lam else (q.a.field.zero, q.a.field.one)
    x, y = vec
    if y.is_zero():
        return BoundaryPoint.infinity()
    return BoundaryPoint(x / y)


def branch_closed_form(q: MoebiusMap, field: LocalField) -> ConvexSubtree:
    """The branch of a single matrix, by case analysis on K(q).

    Raises NeedsExtension for irreducible characteristic polynomials; see
    branch_with_extension for the extend-and-descend route.
    """
    cls = classify(q, field)
    if cls.kind == "scalar":
        return WHOLE if q.a.valuation() >= 0 else EMPTY
    if cls.kind == "nonetale":
        s = q.trace() / 2
        if s.valuation() < 0:
            return EMPTY
        n0 = MoebiusMap(q.a - s, q.b, q.c, q.d - s)
        return _nilpotent_horoball(n0, field)
    if cls.kind == "etale_split":
        lam1, lam2 = cls.eigenvalues
        if lam1.valuation() < 0 or lam2.valuation() < 0:
            return EMPTY
        xi1 = _eigen_direction(q, lam1)
        xi2 = _eigen_direction(q, lam2)
        return Tube(field, xi1, xi2, (lam1 - lam2).valuation())
    raise NeedsExtension("characteristic polynomial irreducible over the field")


def _nilpotent_horoball(n0: MoebiusMap, field: LocalField) -> ConvexSubtree:
    # n0 nonzero nilpotent; branch = {v : level(gamma^-1 . v) <= nu(content)}
    if not (n0.a.is_zero() and n0.b.is_zero()):
        k = (n0.b, -n0.a)
    else:
        k = (field.zero, field.one)
    m = (field.one, field.zero)
    if (k[0] * m[1] - k[1] * m[0]).is_zero():
        m = (field.zero, field.one)
    n0m = (n0.a * m[0] + n0.b * m[1], n0.c * m[0] + n0.d * m[1])
    c = n0m[0] / k[0] if not k[0].is_zero() else n0m[1] / k[1]
    witness = MoebiusMap(k[0], m[0], k[1], m[1])
    return Horoball(field, witness, c.valuation())


def branch_with_extension(q: MoebiusMap, field: LocalField):
    """Closed form, passing to a model splitting extension when needed.

    Returns (subtree, ambient_field); the subtree lives in the ambient tree
    and cuts out the branch over the base by restriction.
    """
    try:
        return branch_closed_form(q, field), field
    except NeedsExtension:
        pass
    t = q.trace()
    disc = t * t - 4 * q.det()
    if not disc.is_rational():
        raise NeedsExtension("cannot model a splitting field for this matrix")
    r = disc.rational_value()
    d, _ = squarefree_part(r.numerator * r.denominator)
    try:
        big = make_field(field.p, field.sqrt_args + (d,))
    except (NotSquareFree, SplitPrime) as exc:
        raise NeedsExtension(f"splitting extension not constructible: {exc}")
    qb = lift_matrix(q, big)
    return branch_closed_form(qb, big), big


def lift_element(x: FieldElement, big: LocalField) -> FieldElement:
    """Embed into a model whose sqrt_args extend the element's field's."""
    small = x.field
    if big.sqrt_args[: small.k] != small.sqrt_args:
        raise InternalInvariant(f"{small} is not a prefix model of {big}")
    coords = [Fraction(0)] * big.degree
    for mask, c in enumerate(x.coords):
        coords[mask] = c
    return big.el(coords)


def lift_vertex(v: Vertex, big: LocalField) -> Vertex:
    """The same ball in the tree of a model extending v's field."""
    if big is v.field:
        return v
    return Vertex(lift_element(v.center, big), v.level)


def lift_matrix(q: MoebiusMap, big: LocalField) -> MoebiusMap:
    return MoebiusMap(*(lift_element(x, big) for x in q.entries))


def conjugate_by_vertex(q: MoebiusMap, v: Vertex) -> tuple:
    """M^-1 q M = [[x11, x12], [x21, x22]] as (x11, x12, x21, x22), where
    M = [[t, a], [0, 1]] is the basis of the vertex B(a, r), t = pi^(r e)."""
    f, a = v.field, v.center
    t = f.scale_of_valuation(v.level)
    t_inv = f.scale_of_valuation(-v.level)  # cached, like t
    ca = q.c * a
    return (q.a - ca, (q.b + (q.a - q.d) * a - ca * a) * t_inv, q.c * t,
            ca + q.d)


def branch_member(q: MoebiusMap, v: Vertex) -> bool:
    """Integrality oracle: M^-1 q M has integral entries, M the vertex basis."""
    x11, x12, x21, x22 = conjugate_by_vertex(q, v)
    for entry in (x22, x21, x12, x11):
        if entry.valuation() < 0:
            return False
    return True


def unit_fixed_points(q: MoebiusMap, window) -> list:
    """Vertices of the window fixed by the Moebius action of an integral unit."""
    t, n = q.trace(), q.det()
    if t.valuation() < 0 or not (n.valuation() == 0):
        raise NotAUnit("need an integral matrix with unit determinant")
    return [v for v in window if q.sends(v, v)]


# ---------------------------------------------------------------------------
# samplers (used by the property suite and the verify command)


def can_extend(field: LocalField, d: int) -> bool:
    try:
        make_field(field.p, field.sqrt_args + (d,))
        return True
    except (NotSquareFree, SplitPrime):
        return False


def sample_integral_matrix(field: LocalField, rng) -> MoebiusMap:
    """A random integral matrix, drawn with rng (a `random.Random`), whose
    splitting data stays inside the model.

    Built as g * core * g^-1 with core scalar, nilpotent-bearing, split
    diagonal, or a companion matrix with rational discriminant whose square
    class is model-representable; the closed-form engine then never needs an
    unrepresentable square root.
    """
    def small_elt():
        coords = [Fraction(0)] * field.degree
        for i in range(field.degree):
            if rng.random() < 0.5:
                coords[i] = Fraction(rng.randint(-4, 4))
        return field.el(coords)

    def integral_elt():
        while True:
            x = small_elt()
            if x.valuation() >= 0:
                return x

    one, zero = field.one, field.zero
    kind = rng.choice(["scalar", "nilpotent", "split", "companion"])
    if kind == "scalar":
        s = integral_elt()
        core = MoebiusMap(s, zero, zero, s)
    elif kind == "nilpotent":
        s = integral_elt()
        c = field.pi_pow(rng.randint(0, 2))
        core = MoebiusMap(s, c, zero, s)
    elif kind == "split":
        core = MoebiusMap(integral_elt(), zero, zero, integral_elt())
    else:
        while True:
            t = field.from_rational(rng.randint(-6, 6))
            n = field.from_rational(rng.randint(-6, 6))
            disc = t * t - 4 * n
            if disc.is_zero():
                continue
            d, _ = squarefree_part(disc.rational_value().numerator)
            if field.mask_of(d) is not None or can_extend(field, d):
                break
        core = MoebiusMap(zero, one, -n, t)
    while True:
        g = MoebiusMap(integral_elt(), integral_elt(),
                       integral_elt(), integral_elt())
        if g.det().valuation() == 0:
            break
    return g * core * g.inv()
