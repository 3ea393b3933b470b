"""The original Fraction field kernel, kept as a test-only oracle.

Every coordinate is a `Fraction`; multiplication walks a table of rational
monomial coefficients, the inverse is the product of all 2^k - 1 Galois
conjugates divided by the norm, and the valuation descends the quadratic
tower one `Fraction` product at a time.  It is slow and obviously right,
which is what the differential tests in `test_kernel_diff.py` need from it.
Field-level data (square classes, extension types) comes from
`bttwist.padic`; element arithmetic, p-adic orders and the searches built
on them are duplicated here.  The one change from the original is
`_int_sqrt`, which uses `math.isqrt` (the float square root it replaced
was wrong above 2^53).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from bttwist.errors import DivisionByZero, ZeroInput
from bttwist.padic import INFINITY, squarefree_part, quad_ext_type

_FIELD_CACHE: dict = {}


def vp_frac(x: Fraction, p: int):
    if x == 0:
        return INFINITY
    out = 0
    for n, sign in ((x.numerator, 1), (x.denominator, -1)):
        while n % p == 0:
            n //= p
            out += sign
    return Fraction(out)


def make_field(p: int, sqrt_args) -> "OracleField":
    key = (p, tuple(int(d) for d in sqrt_args))
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = OracleField(p, key[1])
    return _FIELD_CACHE[key]


class OracleField:
    """Q_p(sqrt d_1, ..., sqrt d_k) with Fraction coordinates."""

    def __init__(self, p: int, sqrt_args: tuple):
        self.p = p
        self.sqrt_args = tuple(int(d) for d in sqrt_args)
        self.k = len(self.sqrt_args)
        self.degree = 1 << self.k
        self.span_class = {}
        for mask in range(self.degree):
            prod = 1
            for i in range(self.k):
                if mask >> i & 1:
                    prod *= self.sqrt_args[i]
            self.span_class[mask] = squarefree_part(prod)
        self.f = 2 if any(
            quad_ext_type(self.span_class[m][0], p) == "unramified"
            for m in range(1, self.degree)
        ) else 1
        self.e = self.degree // self.f
        self.q = p ** self.f
        self._mult = []
        for s in range(self.degree):
            row = []
            for t in range(self.degree):
                coef = 1
                for i in range(self.k):
                    if (s & t) >> i & 1:
                        coef *= self.sqrt_args[i]
                row.append((Fraction(coef), s ^ t))
            self._mult.append(row)
        self.zero = OracleElement(self, tuple([Fraction(0)] * self.degree))
        self.one = self.from_rational(1)
        self._pi_powers: dict = {}
        self._residue_reps = None
        self._uniformizer = None

    def el(self, coords) -> "OracleElement":
        return OracleElement(self, tuple(Fraction(c) for c in coords))

    def from_rational(self, x) -> "OracleElement":
        coords = [Fraction(0)] * self.degree
        coords[0] = Fraction(x)
        return OracleElement(self, tuple(coords))

    def monomial(self, mask: int, coef=1) -> "OracleElement":
        coords = [Fraction(0)] * self.degree
        coords[mask] = Fraction(coef)
        return OracleElement(self, tuple(coords))

    def _mul(self, a, b):
        deg = self.degree
        out = [Fraction(0)] * deg
        mult = self._mult
        for s in range(deg):
            ca = a[s]
            if not ca:
                continue
            row = mult[s]
            for t in range(deg):
                cb = b[t]
                if not cb:
                    continue
                coef, m = row[t]
                out[m] += ca * cb * coef
        return tuple(out)

    def valuation(self, x: "OracleElement"):
        if x._val is None:
            if x.is_zero():
                x._val = INFINITY
            else:
                fld, coords = self, x.coords
                while fld.k > 0:
                    y = OracleElement(fld, coords)
                    prod = y * y.conj(1 << (fld.k - 1))
                    half = 1 << (fld.k - 1)
                    assert all(c == 0 for c in prod.coords[half:])
                    fld = make_field(fld.p, fld.sqrt_args[:-1])
                    coords = prod.coords[:half]
                x._val = Fraction(vp_frac(coords[0], self.p), self.degree)
        return x._val

    def _unit_monomials(self):
        out = [self.one]
        for mask in range(1, self.degree):
            x = self.monomial(mask)
            v = x.valuation()
            if v.denominator == 1:
                out.append(self.monomial(mask, Fraction(1, self.p ** int(v))))
        return out

    def _candidate_elements(self, max_terms=3):
        coef_pool = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2),
                     Fraction(2), Fraction(-2), Fraction(3), Fraction(-3),
                     Fraction(1, 3), Fraction(-1, 3), Fraction(2, 3),
                     Fraction(-2, 3)]
        units = self._unit_monomials()
        for nterms in range(1, max_terms + 1):
            for support in itertools.combinations(range(len(units)), nterms):
                for coefs in itertools.product(coef_pool, repeat=nterms):
                    x = self.zero
                    for ui, c in zip(support, coefs):
                        x = x + units[ui] * c
                    yield x

    @property
    def residue_reps(self):
        if self._residue_reps is None:
            reps = [self.zero]
            for x in self._candidate_elements(max_terms=2):
                if not (x.valuation() == 0):
                    continue
                if all((x - r).valuation() == 0 for r in reps[1:]):
                    reps.append(x)
                if len(reps) == self.q:
                    break
            assert len(reps) == self.q
            self._residue_reps = tuple(reps)
        return self._residue_reps

    @property
    def uniformizer(self) -> "OracleElement":
        if self._uniformizer is None:
            self._uniformizer = self._find_uniformizer()
        return self._uniformizer

    def _find_uniformizer(self):
        target = Fraction(1, self.e)
        if self.e == 1:
            return self.from_rational(self.p)
        for mask in range(1, self.degree):
            x = self.monomial(mask)
            if x.valuation() == target:
                return x
        for mask in range(1, self.degree):
            x = self.one + self.monomial(mask)
            if x.valuation() == target:
                return x
        for m1 in range(1, self.degree):
            for m2 in range(m1 + 1, self.degree):
                for s in (1, -1):
                    x = (self.monomial(m1) + self.monomial(m2, s)) * Fraction(1, 2)
                    x = x - self.one
                    if x.valuation() == target:
                        return x
        for x in self._candidate_elements(max_terms=3):
            if x.valuation() == target:
                return x
        raise AssertionError(f"no uniformizer found for {self}")

    def pi_pow(self, n: int) -> "OracleElement":
        if n not in self._pi_powers:
            if n == 0:
                self._pi_powers[0] = self.one
            elif n > 0:
                self._pi_powers[n] = self.pi_pow(n - 1) * self.uniformizer
            else:
                self._pi_powers[n] = self.pi_pow(n + 1) / self.uniformizer
        return self._pi_powers[n]

    @property
    def nu4(self) -> Fraction:
        return Fraction(2) if self.p == 2 else Fraction(0)

    def quadratic_defect(self, a: "OracleElement"):
        if a.is_zero():
            raise ZeroInput("defect of 0")
        v = a.valuation()
        ev = v * self.e
        if int(ev) % 2:
            return v
        u = a / self.pi_pow(int(ev))
        reps = self.residue_reps
        nu4 = self.nu4
        b = None
        for r in reps[1:]:
            if (u - r * r).valuation() > 0:
                b = r
                break
        if b is None:
            return v
        two = self.from_rational(2)
        four = self.from_rational(4)
        while True:
            d = u - b * b
            s = d.valuation()
            if s is INFINITY or s > nu4:
                return INFINITY
            if int(s * self.e) % 2:
                return v + s
            if s == nu4:
                w = d / (four * b * b)
                for xi in reps:
                    if (w - xi * xi - xi).valuation() > 0:
                        b = b * (self.one + two * xi)
                        break
                else:
                    return v + nu4
            else:
                t = self.pi_pow(int(s * self.e) // 2)
                tgt = d / (t * t)
                for g in reps:
                    if (tgt - g * g).valuation() > 0:
                        b = b + t * g
                        break
                else:
                    return v + s


class OracleElement:
    __slots__ = ("field", "coords", "_val")

    def __init__(self, field: OracleField, coords: tuple):
        self.field = field
        self.coords = coords
        self._val = None

    def __add__(self, other):
        other = self._coerce(other)
        return OracleElement(
            self.field, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return OracleElement(
            self.field, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return OracleElement(self.field, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return OracleElement(self.field, tuple(a * c for a in self.coords))
        assert other.field is self.field, "mixed fields"
        return OracleElement(self.field,
                             self.field._mul(self.coords, other.coords))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                raise DivisionByZero
            return OracleElement(self.field, tuple(a / c for a in self.coords))
        return self * other.inv()

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        assert other.field is self.field, "mixed fields"
        return other

    def inv(self) -> "OracleElement":
        if self.is_zero():
            raise DivisionByZero
        acc = self.field.one
        for mask in range(1, self.field.degree):
            acc = acc * self.conj(mask)
        norm = (self * acc).coords[0]
        return acc / norm

    def conj(self, mask: int) -> "OracleElement":
        out = []
        for s, c in enumerate(self.coords):
            out.append(-c if bin(s & mask).count("1") % 2 else c)
        return OracleElement(self.field, tuple(out))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def valuation(self):
        return self.field.valuation(self)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, OracleElement) or other.field is not self.field:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash((id(self.field), self.coords))

    def key(self) -> str:
        return ",".join(str(c) for c in self.coords)


def element_sqrt(x: OracleElement):
    f = x.field
    if x.is_zero():
        return f.zero
    if f.k == 0:
        r = x.coords[0]
        if r < 0:
            return None
        num, den = _int_sqrt(r.numerator), _int_sqrt(r.denominator)
        if num is None or den is None:
            return None
        return f.from_rational(Fraction(num, den))
    sub = make_field(f.p, f.sqrt_args[:-1])
    half = 1 << (f.k - 1)
    a = OracleElement(sub, x.coords[:half])
    b = OracleElement(sub, x.coords[half:])
    d = f.sqrt_args[-1]

    def lift(y: OracleElement, times_root=False):
        coords = [Fraction(0)] * f.degree
        for m, c in enumerate(y.coords):
            coords[m + (half if times_root else 0)] = c
        return OracleElement(f, tuple(coords))

    if b.is_zero():
        u = element_sqrt(a)
        if u is not None:
            return lift(u)
        w = element_sqrt(a / sub.from_rational(d))
        if w is not None:
            return lift(w, times_root=True)
        return None
    norm = a * a - sub.from_rational(d) * b * b
    s = element_sqrt(norm)
    if s is None:
        return None
    for sign in (1, -1):
        u2 = (a + sign * s) / 2
        u = element_sqrt(u2)
        if u is not None and not u.is_zero():
            v = b / (2 * u)
            cand = lift(u) + lift(v, times_root=True)
            if cand * cand == x:
                return cand
    return None


def _int_sqrt(n: int):
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None
