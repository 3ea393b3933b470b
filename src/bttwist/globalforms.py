"""Global counts of integral forms of Q8 over imaginary quadratic fields.

The class group of Q(sqrt(-N)) is realized by reduced binary quadratic
forms under Gauss composition; the count reduces to the 2-torsion size
h_2, the square-ness of the dyadic ideal class, and (in the ambiguous
congruence case) an explicit local computation with a supplied
representation at the dyadic completion.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (BadN, DyadicSplit, ExistenceFails, ExistenceUnknown,
                     InternalInvariant, InvalidRepresentation, NumberTooLarge,
                     WrongResidue)
from .padic import make_field, squarefree_part
from .bttree import MoebiusMap, Vertex, distance
from .enumerate import nearest_member


class QuadForm:
    """The binary form a x^2 + b x y + c y^2.  Immutable; equal and hashed
    by (a, b, c)."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def __setattr__(self, name, value):
        raise AttributeError(f"{self!r} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{self!r} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.a, self.b, self.c) == (other.a, other.b, other.c)

    def __hash__(self):
        return hash((self.a, self.b, self.c))

    @property
    def D(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def value(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def is_reduced(self) -> bool:
        if self.a <= 0:
            return False
        if not (abs(self.b) <= self.a <= self.c):
            return False
        if (abs(self.b) == self.a or self.a == self.c) and self.b < 0:
            return False
        return True

    def reduce(self) -> "QuadForm":
        a, b, c = self.a, self.b, self.c
        while True:
            if a > c:
                a, b, c = c, -b, a
                continue
            if b > a or b <= -a:
                # normalize b into (-a, a]
                r = (a - b) // (2 * a)
                b2 = b + 2 * r * a
                c2 = a * r * r + b * r + c
                b, c = b2, c2
                continue
            if a == c and b < 0:
                b = -b
                continue
            break
        f = QuadForm(a, b, c)
        if not (f.is_reduced() and f.D == self.D):
            raise InternalInvariant(f"reducing {self!r} gave {f!r}")
        return f

    def inverse(self) -> "QuadForm":
        return QuadForm(self.a, -self.b, self.c).reduce()

    def transform(self, x, r, y, s) -> "QuadForm":
        """Substitute by the unimodular matrix [[x, r], [y, s]]."""
        if x * s - r * y != 1:
            raise InternalInvariant(
                f"[[{x}, {r}], [{y}, {s}]] is not unimodular")
        a = self.value(x, y)
        c = self.value(r, s)
        b = 2 * (self.a * x * r + self.c * y * s) + self.b * (x * s + r * y)
        return QuadForm(a, b, c)

    def __repr__(self):
        return f"({self.a},{self.b},{self.c})"


def principal_form(D: int) -> QuadForm:
    k = abs(D) % 2
    return QuadForm(1, k, (k * k - D) // 4)


def _coprime_representative(f: QuadForm, m: int) -> QuadForm:
    """An equivalent form whose leading coefficient is coprime to m."""
    if math.gcd(f.a, m) == 1:
        return f
    bound = 1
    while bound < 40:
        for x in range(-bound, bound + 1):
            for y in range(-bound, bound + 1):
                if math.gcd(x, y) != 1:
                    continue
                val = f.value(x, y)
                if val != 0 and math.gcd(val, m) == 1:
                    gg, u, v = _xgcd(x, y)
                    if gg < 0:
                        gg, u, v = -gg, -u, -v
                    if gg != 1:
                        raise InternalInvariant(f"gcd({x}, {y}) = {gg}")
                    # complete (x, y) to [[x, -v], [y, u]]: x*u - (-v)*y = 1
                    return f.transform(x, -v, y, u)
        bound *= 2
    raise BadN(f"no coprime representative for {f} mod {m}")


def _xgcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def compose(f1: QuadForm, f2: QuadForm) -> QuadForm:
    """Gauss composition via concordant forms."""
    if f1.D != f2.D:
        raise InternalInvariant(
            f"composing {f1!r} and {f2!r} of discriminants {f1.D}, {f2.D}")
    D = f1.D
    f2 = _coprime_representative(f2, f1.a)
    a1, b1 = f1.a, f1.b
    a2, b2 = f2.a, f2.b
    # B = b1 mod 2a1, B = b2 mod 2a2 (solvable: b1, b2 have D's parity)
    t = ((b2 - b1) // 2 * pow(a1, -1, a2)) % a2
    B = b1 + 2 * a1 * t
    C = (B * B - D) // (4 * a1 * a2)
    if (B * B - D) % (4 * a1 * a2):
        raise InternalInvariant(
            f"B = {B} gives no integral C composing {f1!r} and {f2!r}")
    return QuadForm(a1 * a2, B, C).reduce()


# The class group lists the reduced forms, a scan of O(|D|) pairs, and
# composes about 4h pairs of its h classes (all h^2 for h <= 24).  h grows
# like sqrt(|D|): at D = -999911, h = 1454 and the group builds in about
# 0.08 s on a shared 2-CPU host; the scan's cost grows linearly in |D|.
CLASS_GROUP_DISC_LIMIT = 10 ** 6


def _check_disc_limit(D: int):
    if -D > CLASS_GROUP_DISC_LIMIT:
        raise NumberTooLarge(
            f"the class group of discriminant {D} is too large to "
            f"build: |D| is limited to {CLASS_GROUP_DISC_LIMIT}")


def reduced_forms(D: int) -> list:
    """All reduced positive-definite forms of discriminant D < 0."""
    if not (D < 0 and D % 4 in (0, 1)):
        raise InternalInvariant(f"{D} is not a negative discriminant")
    out = []
    b = D % 2
    while b * b <= -D // 3:
        m4 = b * b - D
        if m4 % 4:
            raise InternalInvariant(f"b = {b} has the wrong parity for {D}")
        m = m4 // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                c = m // a
                out.append(QuadForm(a, b, c))
                if 0 < b < a < c:
                    out.append(QuadForm(a, -b, c))
            a += 1
        b += 2
    return sorted(out, key=lambda f: (f.a, f.b, f.c))


def discriminant_of(N: int) -> int:
    if N <= 0 or squarefree_part(N)[0] != N:
        raise BadN(f"N must be a positive squarefree integer, got {N}")
    return -N if (-N) % 4 == 1 else -4 * N


class ClassGroup:
    """Form class group of Q(sqrt(-N)).

    The group law is checked where the count reads it: composing a class
    with the identity on either side gives the class, and composing it with
    its opposite form (a, -b, c) gives the identity.  `h2` and `squares`
    read the doubles of the classes.  A group with h <= 24 also builds its
    whole composition table and checks it for associativity; a larger one
    composes only the pairs above, about 4h of them, not h^2."""

    def __init__(self, N: int):
        self.N = N
        self.D = discriminant_of(N)
        _check_disc_limit(self.D)
        self.elements = reduced_forms(self.D)
        self.identity = principal_form(self.D).reduce()
        if self.identity not in self.elements:
            raise InternalInvariant(
                f"principal form {self.identity!r} is not reduced")
        self.h = len(self.elements)
        self._idx = {f: i for i, f in enumerate(self.elements)}
        self.table = None
        if self.h <= 24:
            self.table = [[self._idx[compose(f, g)] for g in self.elements]
                          for f in self.elements]
        self.doubles = [self.product(i, i) for i in range(self.h)]
        self._verify_group()

    def product(self, i: int, j: int) -> int:
        """The index of the composition of classes i and j."""
        if self.table is not None:
            return self.table[i][j]
        return self._idx[compose(self.elements[i], self.elements[j])]

    def _verify_group(self):
        e = self._idx[self.identity]
        n = self.h
        for i, f in enumerate(self.elements):
            if not (self.product(i, e) == i and self.product(e, i) == i):
                raise InternalInvariant(f"{f!r} is moved by the identity")
            if self.product(i, self._idx[f.inverse()]) != e:
                raise InternalInvariant(f"{f!r} has no inverse")
        if self.table is not None:
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        if (self.table[self.table[i][j]][k]
                                != self.table[i][self.table[j][k]]):
                            raise InternalInvariant(
                                f"composition is not associative at "
                                f"{i}, {j}, {k}")

    def h2(self) -> int:
        e = self._idx[self.identity]
        return self.doubles.count(e)

    def squares(self) -> set:
        return {self.elements[d] for d in self.doubles}


def class_group(N: int) -> ClassGroup:
    return ClassGroup(N)


def genus_number(N: int) -> int:
    """2^(mu-1): the number of genera of the field discriminant of Q(sqrt(-N)),
    which equals the 2-torsion size of the class group."""
    D = discriminant_of(N)
    r = len([p for p in _prime_divisors(abs(D)) if p % 2 == 1])
    if D % 2 != 0:
        mu = r
    else:
        mu = r if N % 4 == 3 else r + 1  # D = -4N here
    return 2 ** (mu - 1)


def _prime_divisors(n: int) -> list:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def h2(C: ClassGroup) -> int:
    val = C.h2()
    if val != genus_number(C.N):
        raise InternalInvariant("table 2-torsion disagrees with genus theory")
    return val


def dyadic_class_square(N: int, C: ClassGroup = None) -> bool:
    """Is the class of the dyadic prime ideal a square in the class group?"""
    C = C if C is not None else class_group(N)
    D = C.D
    if D % 2 != 0:
        if D % 8 == 1:
            raise DyadicSplit(f"2 splits in Q(sqrt({-N}))")
        raise DyadicSplit(f"2 is inert in Q(sqrt({-N})); no norm-2 ideal class")
    if N % 2 == 0:
        p2 = QuadForm(2, 0, N // 2).reduce()
    else:
        p2 = QuadForm(2, 2, (N + 1) // 2).reduce()
    if p2.D != D:
        raise InternalInvariant(f"dyadic form {p2!r} is not of disc. {D}")
    return p2 in C.squares()


def serre_existence(N: int) -> bool:
    """For N = 3 (mod 8): an integral global form exists iff every prime
    divisor of N is 1 or 3 (mod 8), i.e. N = x^2 + 2y^2."""
    if N <= 0 or squarefree_part(N)[0] != N:
        raise BadN(f"N must be positive squarefree, got {N}")
    if N % 8 != 3:
        raise WrongResidue(f"criterion applies to N = 3 mod 8, got {N % 8}")
    return all(p % 8 in (1, 3) for p in _prime_divisors(N))


def global_count(N: int, assert_existence: bool = False,
                 resolve: bool = False) -> dict:
    """The number of conjugacy classes of integral global forms of Q8 over
    Q(sqrt(-N)), by congruence case; case (c) stays a pair {h2, 3 h2} unless
    `resolve` asks to decide it with the built-in representation, which
    exists for N = 5 and 6 only (BadN otherwise)."""
    D = discriminant_of(N)
    a = N % 8
    covered = []
    if a in (1, 2, 3, 5, 6):
        covered.append("main")
    if a in (1, 2, 5, 6, 7):
        covered.append("ambiguous-residues")
    if not covered:
        raise BadN(f"N = {a} mod 8 is outside both stated congruence ranges")
    _check_disc_limit(D)
    if a != 3 and not assert_existence:
        raise ExistenceUnknown(
            "existence must be asserted for N != 3 mod 8")
    C = class_group(N)
    hh2 = h2(C)
    out = {"N": N, "D": D, "h": C.h, "h2": hh2, "case": None,
           "covered_by": covered}
    if a == 3:
        exists = serre_existence(N)
        out["existence"] = exists
        if not exists:
            raise ExistenceFails(
                f"no integral form over Q(sqrt(-{N})): a prime divisor is "
                f"5 or 7 mod 8")
        out["case"] = "a"
        out["count"] = 2 * hh2
        return out
    out["existence"] = True
    if dyadic_class_square(N, C):
        out["case"] = "b"
        out["count"] = 4 * hh2
        return out
    out["case"] = "c"
    out["case_c_pair"] = (hh2, 3 * hh2)
    if resolve:
        out["count"] = resolve_case_c(case_c_example_rep(N), hh2)
        out["resolved"] = True
    return out


# ---------------------------------------------------------------------------
# the case (c) resolver: embed a concrete representation dyadically


def case_c_example_rep(N: int):
    """The classical representations resolving the two basic ambiguous cases:
    i = [[0,1],[-1,0]] with j built from sqrt(-N)."""
    f = make_field(2, (-N,))
    s = f.sqrt_gen(0)
    i_mat = MoebiusMap.from_rows(f, [[0, 1], [-1, 0]])
    if N == 5:
        j_mat = MoebiusMap(f.one / 2, s / 2, s / 2, -(f.one / 2))
    elif N == 6:
        j_mat = MoebiusMap(f.one + s / 2, f.one - s / 2,
                           f.one - s / 2, -(f.one) - s / 2)
    else:
        raise BadN(f"no built-in representation for N={N}")
    return i_mat, j_mat


def resolve_case_c(rep, hh2: int) -> int:
    """Decide between hh2 and 3*hh2, where hh2 is the 2-torsion size of the
    class group, from the dyadic distance between the standard-lattice
    vertex and the nearest vertex containing the image."""
    i_mat, j_mat = rep
    f = i_mat.a.field
    minus_one = -MoebiusMap.identity(f)
    if not (i_mat * i_mat == minus_one and j_mat * j_mat == minus_one):
        raise InvalidRepresentation("i^2 = j^2 = -1 fails")
    anti = i_mat * j_mat
    if anti != -(j_mat * i_mat):
        raise InvalidRepresentation("ij = -ji fails")
    for m in (i_mat, j_mat, anti):
        if m.trace().valuation() < 0 or m.det().valuation() < 0:
            raise InvalidRepresentation("image is not integral at the dyadic prime")
    v0 = Vertex(f.zero, Fraction(0))
    dmin = distance(v0, nearest_member([i_mat, j_mat], v0))
    nu2 = f.from_rational(2).valuation()
    if dmin == nu2:
        return 3 * hh2
    if dmin == nu2 / 2:
        return hh2
    raise InvalidRepresentation(
        f"unexpected distance {dmin} from the standard vertex to the branch")
