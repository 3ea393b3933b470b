"""The class group under Gauss composition, as `bttwist.globalforms` built
it before genus theory read h_2 and the dyadic class from the reduced forms,
kept as a test-only oracle.

`QuadForm`, `principal_form`, `_coprime_representative`, `_xgcd` and
`compose` are copied verbatim from that module.  `FullTableClassGroup` is
copied with its imports moved to the top and the discriminant limit left
out: it composes all h^2 pairs of classes into a table, checks that the
identity fixes every class and that every class has some inverse in the
table (associativity too for h <= 24), and reads `h2` and `squares` from
the table's diagonal."""

import math

from bttwist.errors import BadN, InternalInvariant
from bttwist.globalforms import discriminant_of, reduced_forms


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


class FullTableClassGroup:
    """Form class group of Q(sqrt(-N)), with its composition table."""

    def __init__(self, N: int):
        self.N = N
        self.D = discriminant_of(N)
        self.elements = [QuadForm(*f) for f in reduced_forms(self.D)]
        self.identity = principal_form(self.D).reduce()
        if self.identity not in self.elements:
            raise InternalInvariant(
                f"principal form {self.identity!r} is not reduced")
        self.h = len(self.elements)
        idx = {f: i for i, f in enumerate(self.elements)}
        self.table = [
            [idx[compose(f, g)] for g in self.elements] for f in self.elements
        ]
        self._verify_group(idx)

    def _verify_group(self, idx):
        e = idx[self.identity]
        n = self.h
        for i in range(n):
            if not (self.table[i][e] == i and self.table[e][i] == i):
                raise InternalInvariant(
                    f"{self.elements[i]!r} is moved by the identity")
            if not any(self.table[i][j] == e for j in range(n)):
                raise InternalInvariant(f"{self.elements[i]!r} has no inverse")
        if n <= 24:
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        if (self.table[self.table[i][j]][k]
                                != self.table[i][self.table[j][k]]):
                            raise InternalInvariant(
                                f"composition is not associative at "
                                f"{i}, {j}, {k}")

    def h2(self) -> int:
        e = self.elements.index(self.identity)
        return sum(1 for i in range(self.h) if self.table[i][i] == e)

    def squares(self) -> set:
        return {self.elements[self.table[i][i]] for i in range(self.h)}
