"""Quaternion algebras: arithmetic, the standard finite groups and matrix
trivializations over splitting fields.

An algebra (a, b) has basis 1, i, j, k with i^2 = a, j^2 = b, ij = -ji = k.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .errors import (DivisionByZero, FieldTooSmall, InternalInvariant,
                     NotInField, ZeroInput)
from .padic import (FieldElement, LocalField, rational_sqrt,
                    squarefree_part, vp_frac)
from .bttree import MoebiusMap
from .linalg import inverse, mat_vec


class QuaternionAlgebra:
    """(a, b / Q): parameters are rationals; scalars live in any model.
    Immutable; equal and hashed by (a, b)."""

    __slots__ = ("a", "b")

    def __init__(self, a: Fraction, b: Fraction):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):
        raise AttributeError(f"{self!r} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{self!r} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.a, self.b) == (other.a, other.b)

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return f"({self.a},{self.b})"


class Quaternion:
    __slots__ = ("alg", "x")

    def __init__(self, alg: QuaternionAlgebra, coords):
        self.alg = alg
        self.x = tuple(Fraction(c) for c in coords)

    def __add__(self, o):
        return Quaternion(self.alg, tuple(p + q for p, q in zip(self.x, o.x)))

    def __sub__(self, o):
        return Quaternion(self.alg, tuple(p - q for p, q in zip(self.x, o.x)))

    def __neg__(self):
        return Quaternion(self.alg, tuple(-p for p in self.x))

    def __mul__(self, o):
        if isinstance(o, (int, Fraction)):
            return Quaternion(self.alg, tuple(p * o for p in self.x))
        if self.alg != o.alg:
            raise InternalInvariant(
                f"product of quaternions in {self.alg} and {o.alg}")
        a, b = self.alg.a, self.alg.b
        x0, x1, x2, x3 = self.x
        y0, y1, y2, y3 = o.x
        return Quaternion(self.alg, (
            x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
            x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
            x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
        ))

    __rmul__ = __mul__

    def __truediv__(self, c):
        return Quaternion(self.alg, tuple(p / Fraction(c) for p in self.x))

    def conj(self) -> "Quaternion":
        x0, x1, x2, x3 = self.x
        return Quaternion(self.alg, (x0, -x1, -x2, -x3))

    def nrd(self) -> Fraction:
        a, b = self.alg.a, self.alg.b
        x0, x1, x2, x3 = self.x
        return x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3

    def inv(self) -> "Quaternion":
        n = self.nrd()
        if n == 0:
            raise DivisionByZero(f"{self!r} has reduced norm 0")
        return self.conj() / n

    def __eq__(self, o):
        return isinstance(o, Quaternion) and self.alg == o.alg and self.x == o.x

    def __hash__(self):
        return hash((self.alg, self.x))

    def __repr__(self):
        names = ["", "i", "j", "k"]
        parts = [f"{c}{n}" for c, n in zip(self.x, names) if c != 0]
        return " + ".join(parts) if parts else "0"


def quat(alg, x0=0, x1=0, x2=0, x3=0) -> Quaternion:
    return Quaternion(alg, (x0, x1, x2, x3))


# -- the standard groups ------------------------------------------------------

HAMILTON = QuaternionAlgebra(Fraction(-1), Fraction(-1))
DICYCLIC_ALG = QuaternionAlgebra(Fraction(-3), Fraction(-1))


def standard_groups() -> dict:
    """Named generator sets: Q8 and the Hurwitz unit group in (-1,-1), the
    dicyclic group in (-3,-1), and the maximal-order generators of the
    division algebra presentation (pi, Delta)."""
    u = quat(HAMILTON, 0, 1, 0, 0)
    v = quat(HAMILTON, 0, 0, 1, 0)
    w = quat(HAMILTON, Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    # dicyclic: q^2 = -3 (first generator), p^2 = -1, r = (1+q)/2
    r = quat(DICYCLIC_ALG, Fraction(1, 2), Fraction(1, 2), 0, 0)
    p = quat(DICYCLIC_ALG, 0, 0, 1, 0)
    return {
        "q8": (HAMILTON, [u, v]),
        "hurwitz": (HAMILTON, [w, u, v]),
        "dicyclic": (DICYCLIC_ALG, [r, p]),
    }


def maxorder_generators(pi: int, delta: int):
    """Generators {i, (j-1)/2} of the maximal order in (pi, delta)."""
    alg = QuaternionAlgebra(Fraction(pi), Fraction(delta))
    i = quat(alg, 0, 1, 0, 0)
    jm1 = quat(alg, Fraction(-1, 2), 0, Fraction(1, 2), 0)
    return alg, [i, jm1]


# -- trivializations -----------------------------------------------------------


class _BasisCoordinates:
    """Quaternion coordinates against a trivialization's basis (the images
    of 1, i, j, k); T is the matrix whose columns are the basis matrices."""

    @cached_property
    def _to_coords(self):
        return inverse(list(zip(*(m.entries for m in self.basis))))

    @cached_property
    def basis_valuation(self):
        """v(det T) = v_p(4ab) for the algebra (a, b) trivialized.  The
        order of every vertex has volume -v(det T) in quaternion
        coordinates, because conjugation has determinant 1.

        det T is +-4ab: the trace form tr(XY) has Gram determinant -1 on
        the matrix units and -16 a^2 b^2 on the basis 1, I, J, IJ, whose
        traces of products are those of 1, i, j, ij in (a, b) (an
        isomorphism onto M_2 is conjugation, by Skolem-Noether, and keeps
        the trace; J. Voight, Quaternion Algebras, GTM 288, ch. 7)."""
        return vp_frac(4 * self.alg.a * self.alg.b, self.field.p)


def _matrix_coords(self, X: MoebiusMap):
    """Quaternion coordinates (as field elements) of a 2x2 matrix."""
    return tuple(mat_vec(self._to_coords, X.entries))


def _check_alg(q: Quaternion, alg: QuaternionAlgebra):
    if q.alg != alg:
        raise InternalInvariant(f"{q} is not in {alg}")


class Trivialization(_BasisCoordinates):
    """An isomorphism of the algebra (over a splitting model field) with the
    2x2 matrices, given by the images of i and j.

    cocycle_witness is the matrix W with f = W . (sigma f) . W^-1 in PGL_2
    for every Galois element flipping sqrt(flip_d); it is the i-image when
    sigma(J) = -J and a companion in the i-subalgebra otherwise."""

    def __init__(self, alg: QuaternionAlgebra, field: LocalField,
                 I: MoebiusMap, J: MoebiusMap, flip_d: int):
        self.alg = alg
        self.field = field
        self.I = I
        self.J = J
        self.flip_d = flip_d
        ident = MoebiusMap.identity(field)
        if I * I != ident.scaled(alg.a):
            raise InternalInvariant("i-image relation fails")
        if J * J != ident.scaled(alg.b):
            raise InternalInvariant("j-image relation fails")
        self.K = I * J
        if self.K != -(J * I):
            raise InternalInvariant("anticommutation fails")
        self.basis = (ident, I, J, self.K)
        self.cocycle_witness = self._find_witness()

    def _find_witness(self) -> MoebiusMap:
        """W in the i-subalgebra span{1, I} conjugating sigma(J) back to J."""
        f = self.field
        mask = _flip_mask(f, self.flip_d)
        sJ = self.J.galois(mask)
        if sJ == self.J:
            return MoebiusMap.identity(f)
        # write J = D(x + y I) with D = diag(1,-1): x = J_11, y = J_12
        x, y = self.J.a, self.J.b
        sx, sy = x.conj(mask), y.conj(mask)
        if sx == -x and sy == -y:
            return self.I
        if sx == x and sy == -y:
            w0, w1 = x, -y
        elif sx == -x and sy == y:
            w0, w1 = f.from_rational(self.alg.a) * y, -x
        else:
            raise FieldTooSmall("j-image not adapted to the flip generator")
        # W = w0 + w1 I
        W = MoebiusMap(w0, w1, f.from_rational(self.alg.a) * w1, w0)
        return W

    def image(self, q: Quaternion) -> MoebiusMap:
        _check_alg(q, self.alg)
        one, i, j, k = (m.scaled(c) for c, m in zip(q.x, self.basis))
        return one + i + j + k

    matrix_coords = _matrix_coords


def _flip_mask(field: LocalField, d: int) -> int:
    """A Galois mask flipping sqrt(d): exactly the lowest generator
    occurring in its monomial (0, the identity, for d = 1)."""
    m = field.mask_of(d)
    if m is None:
        raise NotInField(f"sqrt({d}) not in {field}")
    return m & -m


def standard_trivialization(alg: QuaternionAlgebra, field: LocalField,
                            flip_d: int, x: FieldElement,
                            y: FieldElement) -> Trivialization:
    """f(i) = [[0,1],[a,0]],  f(j) = [[x, y],[-a y, -x]] with x^2 - a y^2 = b.

    x and y live in Q(sqrt(flip_d)), each rational or a rational multiple of
    the root, so the induced cocycle has an explicit witness."""
    one, zero = field.one, field.zero
    a_el = field.from_rational(alg.a)
    I = MoebiusMap(zero, one, a_el, zero)
    J = MoebiusMap(x, y, -(a_el * y), -x)
    return Trivialization(alg, field, I, J, flip_d)


# the search grid: x1 and y1 range over these rationals, in this order
_SMALL = [Fraction(n, m) for m in (1, 2, 3, 6) for n in range(-6, 7)]
# the first position of each value in the grid, which decides which of
# +-y1 a grid walk would meet first; the keys are the distinct rows in order
_RANK = {}
for _i, _v in enumerate(_SMALL):
    _RANK.setdefault(_v, _i)
_ROWS = [(x1, x1 * x1) for x1 in _RANK]


def _first_grid_solution(c, b, den):
    """The first (x1, y1) of the grid, rows in order, with
    c x1^2 - den y1^2 = b: each row fixes y1^2, so it costs one square
    test, and of +-y1 the one earlier in the grid wins."""
    for x1, sq in _ROWS:
        y1 = rational_sqrt((c * sq - b) / den)
        if y1 is None:
            continue
        hits = [y for y in (y1, -y1) if y in _RANK]
        if hits:
            return x1, min(hits, key=_RANK.__getitem__)
    return None


def find_trivialization(alg: QuaternionAlgebra,
                        field: LocalField) -> Trivialization:
    """Search for a standard trivialization over the given model field.

    Solves x^2 - a y^2 = b with x, y rational or pure multiples of a square
    root available in the model, x1 and y1 (the rational parts) on the
    grid `_SMALL`.  The first solution in grid order wins, shape by shape:
    rational, then J diagonal, then for each square class d of the model
    x pure, y pure, and both pure."""
    a, b = alg.a, alg.b
    if a == 0:
        raise ZeroInput(f"{alg} has a = 0")
    ds = [field.span_class[m][0] for m in range(1, field.degree)]
    # fully rational solutions first: the trivialization is then defined over
    # the base and the induced cocycle is trivial (flip_d = 1 over the base
    # field itself, where no Galois element acts)
    hit = _first_grid_solution(1, b, a)
    if hit:
        x1, y1 = hit
        return standard_trivialization(
            alg, field, ds[0] if ds else 1, field.from_rational(x1),
            field.from_rational(y1))
    # canonical diagonal shape next: J = diag(sqrt b, -sqrt b) when possible,
    # which keeps division-order branches on the standard line(0, inf)
    try:
        root_b = field.sqrt_of(b)
        d_b = squarefree_part(b.numerator * b.denominator)[0]
        if d_b != 1:
            return standard_trivialization(alg, field, d_b, root_b, field.zero)
    except NotInField:
        pass
    for d in ds:
        root = field.sqrt_of(d)
        # x = x1 sqrt(d) and y rational; x rational and y = y1 sqrt(d); both
        # pure: d x1^2 - a y1^2 = b, x1^2 - a d y1^2 = b, d (x1^2 - a y1^2) = b
        for c, den, x_pure, y_pure in ((d, a, True, False),
                                       (1, a * d, False, True),
                                       (d, a * d, True, True)):
            hit = _first_grid_solution(c, b, den)
            if hit:
                x1, y1 = hit
                x = root * x1 if x_pure else field.from_rational(x1)
                y = root * y1 if y_pure else field.from_rational(y1)
                return standard_trivialization(alg, field, d, x, y)
    raise FieldTooSmall(f"no trivialization of {alg} over {field}")


# the isomorphism phi: (-1,-1) -> (-2,-3), as the images of 1, u, v, uv
_PHI_ALG = QuaternionAlgebra(Fraction(-2), Fraction(-3))
_U_IMG = quat(_PHI_ALG, 0, Fraction(1, 2), Fraction(1, 3), Fraction(-1, 6))
_V_IMG = quat(_PHI_ALG, 0, Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 6))
_PHI_BASIS = (quat(_PHI_ALG, 1), _U_IMG, _V_IMG, _U_IMG * _V_IMG)


def q8_trivialization(field: LocalField) -> "_ComposedTrivialization":
    """The dyadic trivialization of (-1,-1) through (-2,-3), over a model
    containing sqrt(-3); the group images are the classical matrices with
    entries in Q(omega)."""
    s = field.sqrt_of(-3)
    inner = standard_trivialization(_PHI_ALG, field, -3, s, field.zero)
    return _ComposedTrivialization(field, inner)


class _ComposedTrivialization(_BasisCoordinates):
    """Trivialization of (-1,-1) as f o phi with phi: (-1,-1) -> (-2,-3)."""

    alg = HAMILTON

    def __init__(self, field: LocalField, inner: Trivialization):
        self.field = field
        self.inner = inner
        self.flip_d = inner.flip_d
        self.I = inner.I
        self.cocycle_witness = inner.I  # the image of the (-2,-3) i
        self.basis = tuple(inner.image(q) for q in _PHI_BASIS)

    def image(self, q: Quaternion) -> MoebiusMap:
        _check_alg(q, HAMILTON)
        return self.inner.image(_phi(q))

    matrix_coords = _matrix_coords


def _phi(q: Quaternion) -> Quaternion:
    """The isomorphism (-1,-1) -> (-2,-3): u, v map to combinations of the
    target generators; extended linearly on the basis 1, u, v, uv."""
    out = quat(_PHI_ALG, 0)
    for c, base in zip(q.x, _PHI_BASIS):
        out = out + base * c
    return out
