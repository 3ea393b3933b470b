"""Exact models of local fields as multiquadratic towers over Q_p.

A field is Q(sqrt(d_1), ..., sqrt(d_k)) viewed inside Q_p, constrained so
that p has a unique prime above it in the global model.  All arithmetic is
then exact (integer coordinates in the square-root monomial basis over one
common denominator) and the p-adic valuation, normalized by nu(p) = 1,
comes from the absolute norm, written out over the quadratic tower.
Residue representatives, uniformizers, quadratic defects and the subfield
lattice live here; everything downstream consumes them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import (DivisionByZero, InternalInvariant, NotInField, NotPrime,
                     NotSquareFree, NumberTooLarge, SplitPrime, ZeroInput)


class _Infinity:
    """Valuation of zero; compares above every rational."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "oo"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("bttwist-infinity")

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __neg__(self):
        raise ArithmeticError("cannot negate infinite valuation")


INFINITY = _Infinity()


def val_min(*vals):
    m = INFINITY
    for v in vals:
        if m is INFINITY or (v is not INFINITY and v < m):
            m = v
    return m


# Trial divisors stop here; every |n| below 2**63 is settled before it.
SQUAREFREE_TRIAL_LIMIT = 1 << 21


def squarefree_part(n: int) -> tuple[int, int]:
    """n = d * t^2 with d squarefree; returns (d, t). Sign goes into d.

    Trial division runs only while p^3 <= the cofactor m, so m ends as 1, a
    prime, a prime squared or a product of two distinct primes, and one
    isqrt tells a square from a squarefree m.  A cofactor that would need a
    trial divisor past SQUAREFREE_TRIAL_LIMIT raises NumberTooLarge.
    """
    if n == 0:
        raise ZeroInput("0 has no squarefree part")
    m, d, t = abs(n), 1, 1
    p = 2
    while p * p * p <= m:
        if p > SQUAREFREE_TRIAL_LIMIT:
            raise NumberTooLarge(
                f"cannot factor {n}: its cofactor {m} has no prime factor "
                f"up to {SQUAREFREE_TRIAL_LIMIT}")
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            if a % 2:
                d *= p
            t *= p ** (a // 2)
        p += 1 if p == 2 else 2
    r = isqrt(m)
    if r * r == m:
        t *= r
    else:
        d *= m
    return (d if n > 0 else -d), t


def legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def quad_ext_type(d: int, p: int) -> str:
    """Behavior of Q_p(sqrt(d)) for squarefree d != 1: split | unramified | ramified."""
    if d == 1:
        raise NotSquareFree("d = 1 is a square")
    if p == 2:
        if d % 2 != 0:
            m = d % 8
            if m == 1:
                return "split"
            return "unramified" if m == 5 else "ramified"
        return "ramified"
    if d % p == 0:
        return "ramified"
    return "split" if legendre(d, p) == 1 else "unramified"


def vp_int(n: int, p: int) -> int:
    if n == 0:
        raise ZeroInput
    if p == 2:
        return (n & -n).bit_length() - 1
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_frac(x: Fraction, p: int):
    if x == 0:
        return INFINITY
    return Fraction(vp_int(x.numerator, p) - vp_int(x.denominator, p))


def parity(x: int) -> int:
    """1 if x has an odd number of set bits, else 0: whether the Galois mask
    x flips the sign of a monomial (or the monomial mask x is flipped)."""
    return bin(x).count("1") & 1


# Miller-Rabin to these bases is exact below _PRIME_TEST_LIMIT
# (J. Sorenson and J. Webster, Math. Comp. 86 (2017), 985-1003)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; NumberTooLarge past _PRIME_TEST_LIMIT."""
    if n < 2:
        return False
    if n >= _PRIME_TEST_LIMIT:
        raise NumberTooLarge(f"cannot decide whether {n} is prime: it is "
                             f"not below {_PRIME_TEST_LIMIT}")
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# residue_reps lists the residue field, and the walk, the digits and the
# quadratic defect scan it; 4096 admits every f = 2 field at p < 64.
RESIDUE_FIELD_LIMIT = 4096
# the small rationals residue_reps takes first at odd p, in order
_RESIDUE_POOL = tuple(Fraction(c) for c in (
    1, -1, "1/2", "-1/2", 2, -2, 3, -3, "1/3", "-1/3", "2/3", "-2/3"))

_FIELD_CACHE: dict = {}


def make_field(p: int, sqrt_args) -> "LocalField":
    """Build (or fetch from cache) the model of Q_p(sqrt d : d in sqrt_args)."""
    key = (p, tuple(int(d) for d in sqrt_args))
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = LocalField(p, key[1])
    return _FIELD_CACHE[key]


def _norm_kernels(sqrt_args: tuple, mul):
    """The integer norm of a model on the generators sqrt_args, written out
    over the quadratic tower: `norm(x)` is N(x) and `norm_adjugate(x)` is
    (N(x), y) with x * y = N(x), for x an integer vector of the whole model;
    mul is the model's `_mul`, for the products in its subfields.

    With x = A + B sqrt(d) over the subfield below the top generator d,
    x sigma(x) = A^2 - d B^2 lies in that subfield, so N(x) = N(A^2 - d B^2)
    and y = (A - B sqrt(d)) y', y' the adjugate of A^2 - d B^2 there.
    `squaresN` writes out A^2 - d B^2 for x of length N = 8, 4 and 2.  Q_p
    has at most 8 square classes, so a model with one prime above p has at
    most three generators; more raise InternalInvariant."""
    k = len(sqrt_args)
    if k > 3:
        raise InternalInvariant(
            f"no closed-form norm for {k} generators: Q_p has at most 8 "
            f"square classes, so no model has degree {1 << k}")
    d0, d1, d2 = (sqrt_args + (0, 0, 0))[:3]

    def squares2(x):
        a, b = x
        return (a * a - d0 * b * b,)

    def squares4(x):
        a0, a1, b0, b1 = x
        return (a0 * a0 + d0 * a1 * a1 - d1 * (b0 * b0 + d0 * b1 * b1),
                2 * (a0 * a1 - d1 * b0 * b1))

    def squares8(x):
        a0, a1, a2, a3, b0, b1, b2, b3 = x
        return (a0 * a0 + d0 * a1 * a1 + d1 * (a2 * a2 + d0 * a3 * a3)
                - d2 * (b0 * b0 + d0 * b1 * b1
                        + d1 * (b2 * b2 + d0 * b3 * b3)),
                2 * (a0 * a1 + d1 * a2 * a3 - d2 * (b0 * b1 + d1 * b2 * b3)),
                2 * (a0 * a2 + d0 * a1 * a3 - d2 * (b0 * b2 + d0 * b1 * b3)),
                2 * (a0 * a3 + a1 * a2 - d2 * (b0 * b3 + b1 * b2)))

    norm = (lambda x: x[0],
            lambda x: squares2(x)[0],
            lambda x: squares2(squares4(x))[0],
            lambda x: squares2(squares4(squares8(x)))[0])[k]

    def rational(x):
        return x[0], (1,)

    def climb(squares, below):
        def step(x):
            n, z = below(squares(x))
            h = len(z)
            return n, mul(x[:h], z) + tuple([-c for c in mul(x[h:], z)])
        return step

    norm_adjugate = rational
    for squares in (squares2, squares4, squares8)[:k]:
        norm_adjugate = climb(squares, norm_adjugate)
    return norm, norm_adjugate


class LocalField:
    """Multiquadratic model with a unique prime above p.

    Elements are vectors of 2^k integers over one common denominator in the
    monomial basis {prod sqrt(d_i)^eps_i}, indexed by bitmask over the
    generators.  Generator i < j lives below generator j in the quadratic
    tower, so the first 2^j masks are the monomials of the subfield on the
    first j generators and every kernel below works on such a prefix.
    Q_p has at most 8 square classes, so k <= 3: a fourth generator at
    p = 2, or a third at odd p, raises SplitPrime or NotSquareFree.  Each
    model keeps its integer norm and adjugate in closed form
    (`_norm_kernels`), and valuations, congruences, inverses and the pivots
    of `linalg` take them from there.
    """

    def __init__(self, p: int, sqrt_args: tuple):
        if not _is_prime(p):
            raise NotPrime(f"p must be prime, got {p}")
        self.p = p
        self.sqrt_args = tuple(int(d) for d in sqrt_args)
        for d in self.sqrt_args:
            sf, _ = squarefree_part(d)
            if sf != d:
                raise NotSquareFree(f"{d} is not squarefree")
        self.k = len(self.sqrt_args)
        self.degree = 1 << self.k
        # span_class[mask] = (squarefree d, scale t) with monomial^2 = d*t^2
        self.span_class = {}
        for mask in range(self.degree):
            prod = 1
            for i in range(self.k):
                if mask >> i & 1:
                    prod *= self.sqrt_args[i]
            d, t = squarefree_part(prod)
            self.span_class[mask] = (d, t)
            if mask:
                if d == 1:
                    raise NotSquareFree(
                        "sqrt_args multiplicatively dependent modulo squares"
                    )
                if quad_ext_type(d, p) == "split":
                    raise SplitPrime(f"Q_{p}(sqrt({d})) splits at {p}")
        # squarefree class -> its monomial mask (1 -> 0)
        self._masks = {d: m for m, (d, _) in self.span_class.items()}
        # the mask of the unramified quadratic subfield, or None; a field
        # with one prime above p has at most one (two would multiply to a
        # square class that splits)
        self.unramified_mask = next(
            (m for m in range(1, self.degree)
             if quad_ext_type(self.span_class[m][0], p) == "unramified"),
            None)
        self.f = 1 if self.unramified_mask is None else 2
        self.e = self.degree // self.f
        self.q = p ** self.f
        # the squares of the first two generators, for the written-out
        # products of length 2 and 4
        self._d0, self._d1 = (self.sqrt_args + (0, 0))[:2]
        # monomial multiplication: m_S * m_T = _mult[S][T] * m_{S xor T}
        self._mult = []
        for s in range(self.degree):
            row = []
            for t in range(self.degree):
                coef = 1
                for i in range(self.k):
                    if (s & t) >> i & 1:
                        coef *= self.sqrt_args[i]
                row.append(coef)
            self._mult.append(tuple(row))
        # _flips[mask][s]: does the Galois mask negate monomial s?
        self._flips = tuple(
            tuple(bool(parity(s & mask)) for s in range(self.degree))
            for mask in range(self.degree)
        )
        self._norm, self._norm_adjugate = _norm_kernels(self.sqrt_args,
                                                        self._mul)
        self._zero_tail = (0,) * (self.degree - 1)
        self.zero = _element(self, (0,) * self.degree, 1)
        self.one = _element(self, (1,) + self._zero_tail, 1)
        self._pi_powers: dict = {}
        self._vals: dict = {}  # m -> Fraction(m, degree), shared valuations
        self._residue_reps = None
        self._uniformizer = None
        self._subfields = None
        self._subfield_of_span = None

    def __repr__(self):
        if not self.sqrt_args:
            return f"Q_{self.p}"
        roots = ",".join(f"sqrt({d})" for d in self.sqrt_args)
        return f"Q_{self.p}({roots})"

    # -- element constructors -------------------------------------------------

    def el(self, coords) -> "FieldElement":
        return FieldElement(self, coords)

    def from_rational(self, x) -> "FieldElement":
        if isinstance(x, int):
            return _element(self, (x,) + self._zero_tail, 1)
        x = Fraction(x)
        return _element(self, (x.numerator,) + self._zero_tail, x.denominator)

    def monomial(self, mask: int, coef=1) -> "FieldElement":
        coef = Fraction(coef)
        num = [0] * self.degree
        num[mask] = coef.numerator
        return _element(self, tuple(num), coef.denominator)

    def mask_of(self, d: int):
        """The monomial mask whose square class is the squarefree d (0 for
        d = 1), or None if sqrt(d) is not in this field."""
        return self._masks.get(d)

    def sqrt_gen(self, i: int) -> "FieldElement":
        return self.monomial(1 << i)

    def sqrt_of(self, x) -> "FieldElement":
        """A square root in the model of x, a rational or an element; raises
        NotInField if the model holds none (x may still be a local square,
        as 17 is in Q_2).  A rational root is c * m for the monomial m whose
        square class is x's, so that x / m^2 is a rational square (no
        factoring, so a large x costs no more than a small one); any other
        element goes down the quadratic tower (`_element_sqrt`)."""
        if isinstance(x, FieldElement):
            if not x.is_rational():
                root = _element_sqrt(x)
                if root is None:
                    raise NotInField(f"sqrt({x}) not in {self}")
                return root
            x = x.rational_value()
        n = Fraction(x)
        if n == 0:
            raise ZeroInput("0 has no squarefree part")
        for mask in range(self.degree):
            md, mt = self.span_class[mask]
            root = rational_sqrt(n / md)
            if root is not None:
                return self.monomial(mask, root / mt)
        raise NotInField(f"sqrt({n}) not in {self}")

    # -- arithmetic kernels -----------------------------------------------

    def _mul(self, a, b):
        """Product of two integer vectors of one length n, elements of the
        subfield whose monomials are the first n masks (n = self.degree for
        the whole field), as a tuple.  Lengths 1, 2 and 4, the subfields on
        the first zero, one and two generators where nearly all products of
        the tower fall, are written out over monomials 1, sqrt(d0), sqrt(d1)
        and sqrt(d0 d1); longer vectors walk the monomial table."""
        n = len(a)
        if n == 1:
            return (a[0] * b[0],)
        if n == 2:
            a0, a1 = a
            b0, b1 = b
            return (a0 * b0 + self._d0 * a1 * b1, a0 * b1 + a1 * b0)
        if n == 4:
            d0, d1 = self._d0, self._d1
            a0, a1, a2, a3 = a
            b0, b1, b2, b3 = b
            return (a0 * b0 + d0 * a1 * b1 + d1 * (a2 * b2 + d0 * a3 * b3),
                    a0 * b1 + a1 * b0 + d1 * (a2 * b3 + a3 * b2),
                    a0 * b2 + a2 * b0 + d0 * (a1 * b3 + a3 * b1),
                    a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1)
        out = [0] * n
        mult = self._mult
        nz = [(t, cb) for t, cb in enumerate(b) if cb]
        for s, ca in enumerate(a):
            if not ca:
                continue
            row = mult[s]
            for t, cb in nz:
                out[s ^ t] += ca * cb * row[t]
        return tuple(out)

    def _val_of_norm(self, norm: int, den: int) -> Fraction:
        """nu(num / den) from the integer norm of num."""
        p = self.p
        return self.val_of_units(vp_int(norm, p) - self.degree * vp_int(den, p))

    def val_of_units(self, m: int) -> Fraction:
        """The valuation m / degree, one shared Fraction per m."""
        val = self._vals.get(m)
        if val is None:
            val = self._vals[m] = Fraction(m, self.degree)
        return val

    def val_units(self, x: "FieldElement"):
        """nu(x) * degree, an int; INFINITY for x = 0."""
        v = x.valuation()
        return v if v is INFINITY else v.numerator * self.degree // v.denominator

    def congruent(self, x: "FieldElement", y: "FieldElement", r: Fraction,
                  k: int = 0) -> bool:
        """Is nu(x - y) >= r + k / degree?  Decided in integers from the
        closed-form integer norm of the difference over x.den * y.den, left
        unreduced."""
        if x.field is not self or y.field is not self:
            raise InternalInvariant(f"mixed fields: {x.field} and {y.field}")
        dx, dy, n, p = x.den, y.den, self.degree, self.p
        num = tuple([a * dy - b * dx for a, b in zip(x.num, y.num)])
        if not any(num):
            return True
        norm = self._norm(num)
        k += n * vp_int(dx * dy, p) - (-r.numerator * n // r.denominator)
        return k <= 0 or norm % p ** k == 0

    def valuation(self, x: "FieldElement"):
        """nu(x) = (vp(N(num)) - degree * vp(den)) / degree, from the
        closed-form integer norm N of x's numerator vector, kept on x."""
        if x._val is None:
            if not any(x.num):
                x._val = INFINITY
            else:
                x._val = self._val_of_norm(self._norm(x.num), x.den)
        return x._val

    # -- residue representatives and uniformizer -------------------------------

    @property
    def residue_reps(self):
        """The q representatives of the residue field, 0 and 1 first, in
        closed form (J.-P. Serre, *Local Fields*, ch. II); q past
        RESIDUE_FIELD_LIMIT raises NumberTooLarge.  P is the units of
        _RESIDUE_POOL, the first of each class mod p, then the least
        positive integer of each class still missing.  They are 0 and P;
        when f = 2, with u the unramified monomial scaled to a unit, also
        (1 +- u)/2 at p = 2, and at odd p c u, then a + b u (a, b, c in P)."""
        if self._residue_reps is None:
            p = self.p
            if self.q > RESIDUE_FIELD_LIMIT:
                raise NumberTooLarge(
                    f"{self} has {self.q} residue classes, more than "
                    f"RESIDUE_FIELD_LIMIT = {RESIDUE_FIELD_LIMIT}")
            units = {}  # class mod p -> its representative
            for c in (*_RESIDUE_POOL, *range(1, p)):
                n, d = c.as_integer_ratio()
                if n % p and d % p:
                    units.setdefault(n * pow(d, -1, p) % p, Fraction(c))
            units = list(units.values())
            reps = [self.zero] + [self.from_rational(c) for c in units]
            if self.f == 2:
                m = self.monomial(self.unramified_mask)
                u = m / p ** int(m.valuation())
                if p == 2:
                    reps += [(1 + u) / 2, (1 - u) / 2]
                else:
                    reps += ([u * c for c in units]
                             + [a + u * b for a in reps[1:] for b in units])
            self._residue_reps = tuple(reps)
        return self._residue_reps

    @property
    def uniformizer(self) -> "FieldElement":
        if self._uniformizer is None:
            self._uniformizer = self._find_uniformizer()
        return self._uniformizer

    def _find_uniformizer(self):
        """An element of valuation 1/e: p, a monomial, 1 + a monomial or
        (m1 +- m2)/2 - 1.  At odd p, e <= 2 and a class d with v_p(d) odd
        gives a monomial.  At p = 2 with e = 2, a ramified generator is such
        a class or a unit d = 3 (mod 4), and 1 + sqrt(d) has valuation 1/2.
        At p = 2 with e = 4, no model of a sweep (pairs of generators with
        |d| <= 120, triples with |d| <= 40) needed more."""
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
        raise InternalInvariant(f"no uniformizer found for {self}")

    def pi_pow(self, n: int) -> "FieldElement":
        if n not in self._pi_powers:
            if n == 0:
                self._pi_powers[0] = self.one
            elif n > 0:
                self._pi_powers[n] = self.pi_pow(n - 1) * self.uniformizer
            elif n == -1:
                self._pi_powers[-1] = self.uniformizer.inv()
            else:  # one inverse of the uniformizer serves every power
                self._pi_powers[n] = self.pi_pow(n + 1) * self.pi_pow(-1)
        return self._pi_powers[n]

    def scale_of_valuation(self, r) -> "FieldElement":
        """An element of exact valuation r, an int or a Fraction that must
        lie in (1/e)Z."""
        n, rem = divmod(r.numerator * self.e, r.denominator)
        if rem:
            raise InternalInvariant(f"{r} not in value group of {self}")
        return self.pi_pow(n)

    # -- quadratic defect -------------------------------------------------------

    @property
    def nu4(self) -> Fraction:
        return Fraction(2) if self.p == 2 else Fraction(0)

    def quadratic_defect(self, a: "FieldElement"):
        """nu of a generator of the smallest ideal containing all a - b^2.

        INFINITY iff a is a square in the local field (decided exactly via
        square-root lifting in the residue tower, cut off at the classical
        4aO bound).
        """
        if a.field is not self:
            raise InternalInvariant(f"mixed fields: {self} and {a.field}")
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
            return v  # residue of u is a non-square, so the defect is (a)
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

    # -- subfields ----------------------------------------------------------------

    def subfields(self):
        """All proper subfields (one per subgroup of the square-class span),
        the base field included, this field itself excluded."""
        if self._subfields is None:
            subgroups = set()
            gens_all = list(range(1, self.degree))
            for r in range(self.k):
                for gens in itertools.combinations(gens_all, r):
                    span = {0}
                    for g in gens:
                        span |= {x ^ g for x in span}
                    if len(span) < self.degree:
                        subgroups.add(frozenset(span))
            self._subfields = [
                _build_subfield(self, span)
                for span in sorted(subgroups, key=lambda s: (len(s), sorted(s)))
            ]
            self._subfield_of_span = {sub.span: sub for sub in self._subfields}
        return self._subfields

    def subfield_of_span(self, span: frozenset):
        """The proper subfield whose monomial masks are the given span, or
        None if the span is no proper subgroup."""
        self.subfields()
        return self._subfield_of_span.get(span)

    def find_subfield(self, sqrt_args) -> "Subfield":
        """Locate the subfield generated by the given (squarefree) integers.
        If they generate this whole field, that is a Subfield too: the one
        built from the full span, whose `field` is this model."""
        want = {0}
        for d in sqrt_args:
            mask = self.mask_of(squarefree_part(int(d))[0])
            if not mask:
                raise NotInField(f"sqrt({d}) not in {self}")
            want = want | {x ^ mask for x in want}
        want = frozenset(want)
        if len(want) == self.degree:
            return _build_subfield(self, want)
        # every proper subgroup of the span is one of the subfields
        return self.subfield_of_span(want)


class FieldElement:
    """x = (num[0], ..., num[2^k - 1]) / den in the monomial basis, kept in
    lowest terms: den > 0 and gcd(den, *num) == 1, so equal elements have
    equal (num, den).  `coords` is the same vector as Fractions, built on
    first use."""

    __slots__ = ("field", "num", "den", "_coords", "_val")

    def __init__(self, field: LocalField, coords):
        coords = tuple(Fraction(c) for c in coords)
        # each Fraction is in lowest terms, so over the lcm of their
        # denominators the vector is too
        den = lcm(*(c.denominator for c in coords))
        self.field = field
        self.num = tuple(c.numerator * (den // c.denominator) for c in coords)
        self.den = den
        self._coords = coords
        self._val = None

    @property
    def coords(self) -> tuple:
        if self._coords is None:
            den = self.den
            self._coords = tuple(Fraction(n, den) for n in self.num)
        return self._coords

    # -- ring ops -----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        da, db = self.den, other.den
        if da == db:
            num = tuple([a + b for a, b in zip(self.num, other.num)])
        else:
            num = tuple([a * db + b * da for a, b in zip(self.num, other.num)])
            da *= db
        return _reduced(self.field, num, da)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        da, db = self.den, other.den
        if da == db:
            num = tuple([a - b for a, b in zip(self.num, other.num)])
        else:
            num = tuple([a * db - b * da for a, b in zip(self.num, other.num)])
            da *= db
        return _reduced(self.field, num, da)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return _element(self.field, tuple([-a for a in self.num]), self.den,
                        self._val)

    def __mul__(self, other):
        f = self.field
        if isinstance(other, FieldElement):
            if other.field is not f:
                raise InternalInvariant(f"mixed fields: {f} and {other.field}")
            return _reduced(f, f._mul(self.num, other.num),
                            self.den * other.den)
        if isinstance(other, (int, Fraction)):
            return _reduced(f, tuple([a * other.numerator for a in self.num]),
                            self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, FieldElement):
            return self * other.inv()
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            raise DivisionByZero
        return _reduced(self.field,
                        tuple([a * other.denominator for a in self.num]),
                        self.den * other.numerator)

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inv() * other
        return self._coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise InternalInvariant(
                    f"mixed fields: {self.field} and {other.field}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        raise TypeError(f"cannot combine a field element with {other!r}")

    def inv(self) -> "FieldElement":
        """x^-1 = den * Y / N, for X the integer vector of x and (N, Y) its
        closed-form integer norm and adjugate, X * Y = N: Y is the product
        of the conjugates down the tower.  The valuation comes free from
        N."""
        if not any(self.num):
            raise DivisionByZero
        f = self.field
        norm, y = f._norm_adjugate(self.num)
        if self._val is None:
            self._val = f._val_of_norm(norm, self.den)
        den = self.den
        out = _reduced(f, tuple([den * c for c in y]), norm)
        out._val = -self._val
        return out

    def conj(self, mask: int) -> "FieldElement":
        """Galois conjugation: flip the sign of sqrt(d_i) for i in mask.
        The prime above p is unique, so the valuation is unchanged."""
        flips = self.field._flips[mask]
        return _element(
            self.field,
            tuple([-a if fl else a for a, fl in zip(self.num, flips)]),
            self.den, self._val)

    # -- queries ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise InternalInvariant(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def valuation(self):
        return self.field.valuation(self)

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.field.from_rational(other)
        elif other.field is not self.field:
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((id(self.field), self.num, self.den))

    def key(self) -> str:
        return ",".join(str(c) for c in self.coords)

    def __repr__(self):
        parts = []
        for mask, c in enumerate(self.coords):
            if c == 0:
                continue
            label = "*".join(
                f"sqrt({self.field.sqrt_args[i]})"
                for i in range(self.field.k)
                if mask >> i & 1
            )
            parts.append(f"{c}" + (f"*{label}" if label else ""))
        return " + ".join(parts) if parts else "0"


_new_element = object.__new__


def _element(field: LocalField, num: tuple, den: int,
             val=None) -> FieldElement:
    """An element from a numerator vector and denominator already in lowest
    terms with den > 0."""
    x = _new_element(FieldElement)
    x.field = field
    x.num = num
    x.den = den
    x._coords = None
    x._val = val
    return x


def _reduced(field: LocalField, num: tuple, den: int) -> FieldElement:
    """num / den brought to lowest terms; den must be nonzero."""
    if den != 1:
        g = gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num = tuple([a // g for a in num])
            den //= g
    return _element(field, num, den)


def _element_sqrt(x: FieldElement):
    """A model square root of x, or None if no global one exists; the
    recursion behind `LocalField.sqrt_of` for elements that are not rational.

    Recursive over the quadratic tower: writing x = a + b*sqrt(d) over the
    subtower without the last generator, a root u + v*sqrt(d) requires
    sqrt(a^2 - d*b^2) below, then u^2 = (a +- that)/2.  Exact throughout;
    a None here can still be a square in the local field (ghost squares).
    """
    f = x.field
    if x.is_zero():
        return f.zero
    if f.k == 0:
        n = x.num[0]
        if n < 0:
            return None
        num, den = _int_sqrt(n), _int_sqrt(x.den)
        if num is None or den is None:
            return None
        return _element(f, (num,), den)
    sub = make_field(f.p, f.sqrt_args[:-1])
    half = 1 << (f.k - 1)
    a = _reduced(sub, x.num[:half], x.den)
    b = _reduced(sub, x.num[half:], x.den)
    d = f.sqrt_args[-1]

    def lift(y: FieldElement, times_root=False):
        pad = (0,) * half
        return _element(f, pad + y.num if times_root else y.num + pad, y.den)

    if b.is_zero():
        u = _element_sqrt(a)
        if u is not None:
            return lift(u)
        w = _element_sqrt(a / sub.from_rational(d))
        if w is not None:
            return lift(w, times_root=True)
        return None
    norm = a * a - sub.from_rational(d) * b * b
    s = _element_sqrt(norm)
    if s is None:
        return None
    for sign in (1, -1):
        u2 = (a + sign * s) / 2
        u = _element_sqrt(u2)
        if u is not None and not u.is_zero():
            v = b / (2 * u)
            cand = lift(u) + lift(v, times_root=True)
            if cand * cand == x:
                return cand
    return None


def _int_sqrt(n: int):
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


def rational_sqrt(r: Fraction):
    """The nonnegative square root of a rational, or None if it has none."""
    num, den = _int_sqrt(r.numerator), _int_sqrt(r.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den)


class Subfield:
    """A subfield of a LocalField: its own model plus the embedding data.
    Immutable; equal by its four fields, and hashed by them once, since
    every cache keyed by a subfield hashes it on each lookup."""

    __slots__ = ("parent", "field", "span", "monomial_images", "_hash")

    def __init__(self, parent: LocalField, field: LocalField, span: frozenset,
                 monomial_images: tuple):
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "span", span)
        # per subfield monomial: (parent mask, rational coefficient)
        object.__setattr__(self, "monomial_images", monomial_images)
        object.__setattr__(self, "_hash", hash(self._fields()))

    def __setattr__(self, name, value):
        raise AttributeError(f"{self!r} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{self!r} is immutable")

    def _fields(self):
        return (self.parent, self.field, self.span, self.monomial_images)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return self._hash

    def embed(self, x: FieldElement) -> FieldElement:
        if x.field is not self.field:
            raise InternalInvariant(f"embed: {x.field} is not {self.field}")
        scale = lcm(*(coef.denominator for _, coef in self.monomial_images))
        num = [0] * self.parent.degree
        for (pm, coef), a in zip(self.monomial_images, x.num):
            num[pm] += a * coef.numerator * (scale // coef.denominator)
        return _reduced(self.parent, tuple(num), x.den * scale)

    def project(self, y: FieldElement):
        """Inverse of embed where defined; None if y is not in the subfield."""
        if y.field is not self.parent:
            raise InternalInvariant(f"project: {y.field} is not {self.parent}")
        used = {pm for pm, _ in self.monomial_images}
        if any(a for pm, a in enumerate(y.num) if pm not in used):
            return None
        scale = lcm(*(coef.numerator for _, coef in self.monomial_images))
        num = tuple([y.num[pm] * coef.denominator * (scale // coef.numerator)
                     for pm, coef in self.monomial_images])
        return _reduced(self.field, num, y.den * scale)

    def fixing_masks(self) -> tuple:
        """Galois masks of the parent acting trivially on this subfield."""
        parent_masks = [self.monomial_images[m][0] for m in range(self.field.degree)]
        out = []
        for sigma in range(self.parent.degree):
            if not any(parity(sigma & pm) for pm in parent_masks):
                out.append(sigma)
        return tuple(out)

    def __repr__(self):
        return f"Subfield({self.field!r} in {self.parent!r})"


def xor_basis(masks) -> list:
    """Independent masks generating the same group under xor as the given
    ones, each the first of the masks outside the span of those before."""
    gens, got = [], {0}
    for m in masks:
        if m not in got:
            gens.append(m)
            got |= {x ^ m for x in got}
    return gens


def _build_subfield(parent: LocalField, span: frozenset) -> Subfield:
    # independent generating masks for the span, smallest first
    gens = xor_basis(sorted(span))
    args = tuple(parent.span_class[m][0] for m in gens)
    sub = make_field(parent.p, args)
    images = []
    for sub_mask in range(sub.degree):
        elt = parent.one
        for i, m in enumerate(gens):
            if sub_mask >> i & 1:
                _, t = parent.span_class[m]
                elt = elt * parent.monomial(m, Fraction(1, t))
        nz = [(pm, c) for pm, c in enumerate(elt.coords) if c != 0]
        if len(nz) != 1:
            raise InternalInvariant(
                f"subfield monomial {sub_mask} of {sub} is not a monomial")
        images.append(nz[0])
    return Subfield(parent, sub, span, tuple(images))
