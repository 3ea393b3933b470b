"""Global counts of integral forms of Q8 over imaginary quadratic fields.

The count reduces to the 2-torsion size h_2 of the class group of
Q(sqrt(-N)), the square-ness of the dyadic ideal class, and (in the
ambiguous congruence case) an explicit local computation with a supplied
representation at the dyadic completion.  Genus theory answers the first
two from the reduced binary quadratic forms and the primes of N.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (BadN, DyadicSplit, ExistenceFails, ExistenceUnknown,
                     InternalInvariant, InvalidRepresentation, NumberTooLarge,
                     WrongResidue)
from .padic import make_field, squarefree_part
from .bttree import MoebiusMap, Vertex, distance
from .enumerate import nearest_member


# The class group is read from its reduced forms, a scan of O(|D|) pairs
# (a, b); the limit bounds that scan.  At D = -999911 (h = 1454) it takes
# about 0.01 s on a shared 2-CPU host, and the cost grows linearly in |D|.
CLASS_GROUP_DISC_LIMIT = 10 ** 6


def _check_disc_limit(D: int):
    if -D > CLASS_GROUP_DISC_LIMIT:
        raise NumberTooLarge(
            f"the class group of discriminant {D} is too large to "
            f"build: |D| is limited to {CLASS_GROUP_DISC_LIMIT}")


def reduced_forms(D: int) -> list:
    """All reduced positive-definite forms a x^2 + b x y + c y^2 of
    discriminant D < 0, as sorted (a, b, c) tuples."""
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
                out.append((a, b, c))
                if 0 < b < a < c:
                    out.append((a, -b, c))
            a += 1
        b += 2
    return sorted(out)


def discriminant_of(N: int) -> int:
    if N <= 0 or squarefree_part(N)[0] != N:
        raise BadN(f"N must be a positive squarefree integer, got {N}")
    return -N if (-N) % 4 == 1 else -4 * N


class ClassGroup:
    """Form class group of Q(sqrt(-N)), as its reduced forms.

    N is squarefree, so D is a fundamental discriminant: every form is
    primitive and each class has exactly one reduced form.  A class has
    order <= 2 exactly when its reduced form is ambiguous (b = 0, b = a or
    a = c); see D. A. Cox, Primes of the Form x^2 + ny^2, ch. 1 sec. 3."""

    def __init__(self, N: int):
        self.N = N
        self.D = discriminant_of(N)
        _check_disc_limit(self.D)
        self.elements = reduced_forms(self.D)
        self.h = len(self.elements)

    def h2(self) -> int:
        return sum(1 for a, b, c in self.elements
                   if b == 0 or b == a or a == c)


def class_group(N: int) -> ClassGroup:
    return ClassGroup(N)


def genus_number(N: int) -> int:
    """2^(mu-1): the number of genera of the field discriminant of Q(sqrt(-N)),
    which equals the 2-torsion size of the class group."""
    D = discriminant_of(N)
    _check_disc_limit(D)
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
        raise InternalInvariant(
            "the ambiguous reduced forms disagree with genus theory")
    return val


def dyadic_class_square(N: int) -> bool:
    """Is the class of the dyadic prime ideal a square in the class group?

    The squares are the principal genus; when 2 | D, the characters at the
    odd primes p | D cut it out, and the dyadic prime has norm 2, so its
    class is a square iff (2/p) = 1 for every odd p | N."""
    D = discriminant_of(N)
    _check_disc_limit(D)
    if D % 2 != 0:
        if D % 8 == 1:
            raise DyadicSplit(f"2 splits in Q(sqrt({-N}))")
        raise DyadicSplit(f"2 is inert in Q(sqrt({-N})); no norm-2 ideal class")
    return all(p % 8 in (1, 7) for p in _prime_divisors(N) if p % 2)


def serre_existence(N: int) -> bool:
    """For N = 3 (mod 8): an integral global form exists iff every prime
    divisor of N is 1 or 3 (mod 8), i.e. N = x^2 + 2y^2."""
    _check_disc_limit(discriminant_of(N))
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
    if dyadic_class_square(N):
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
