"""Group closures and order closures of quaternions, used by the tests only.

Moved from `bttwist.quatalg`, where nothing called them: `order_closure`
finds the Z_(p)-order a set of quaternions generates, by the valuation
echelon of `linalg_oracle`, and decides its maximality from the reduced
discriminant against the Hilbert symbol of the algebra, `hilbert_symbol`.
`trd` is the reduced trace, which `Quaternion` carried as a method that
nothing in the program called.
"""

from fractions import Fraction

from bttwist.errors import BttwistError, ZeroInput
from bttwist.linalg import det
from bttwist.padic import legendre, vp_frac, vp_int
from bttwist.quatalg import Quaternion, QuaternionAlgebra, quat
from linalg_oracle import echelon


class NotIntegral(BttwistError):
    pass


def trd(q: Quaternion) -> Fraction:
    """The reduced trace q + conj(q) = 2 x0."""
    return 2 * q.x[0]


def mulclose(gens, cap=2000):
    """Multiplicative closure of a set of invertible quaternions."""
    seen = {g for g in gens}
    frontier = list(seen)
    while frontier:
        new = []
        for g in frontier:
            for h in list(seen):
                for prod in (g * h, h * g):
                    if prod not in seen:
                        seen.add(prod)
                        new.append(prod)
                        if len(seen) > cap:
                            raise NotIntegral("group closure exceeded cap")
        frontier = new
    return seen


def hilbert_symbol(a: Fraction, b: Fraction, p: int) -> int:
    """(a, b)_p for nonzero rationals at a finite prime."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ZeroInput(f"Hilbert symbol of ({a}, {b}) at {p}")

    def split(x):
        v = vp_int(x.numerator, p) - vp_int(x.denominator, p)
        u = x / Fraction(p) ** v
        return v, u

    al, u = split(a)
    be, v = split(b)
    if p != 2:
        eps = (p - 1) // 2
        sign = (-1) ** (al * be * eps)
        s = sign
        if be % 2:
            s *= _leg_frac(u, p)
        if al % 2:
            s *= _leg_frac(v, p)
        return s

    def eps2(x):  # (x-1)/2 mod 2 for odd rational x
        return ((x.numerator * pow(x.denominator, -1, 8) % 8) - 1) // 2 % 2

    def omega(x):  # (x^2-1)/8 mod 2
        m = x.numerator * pow(x.denominator, -1, 16) % 16
        return (m * m - 1) // 8 % 2

    exp = eps2(u) * eps2(v) + al * omega(v) + be * omega(u)
    return (-1) ** (exp % 2)


def _leg_frac(u: Fraction, p: int) -> int:
    return legendre(u.numerator * pow(u.denominator, -1, p) % p, p)


def is_division_at(alg: QuaternionAlgebra, p: int) -> bool:
    return hilbert_symbol(alg.a, alg.b, p) == -1


def order_closure(alg: QuaternionAlgebra, gens, p: int):
    """Multiplicative closure of Z_(p)[gens] as a lattice, plus maximality.

    Iterates products until the lattice stabilizes; maximality holds iff the
    reduced discriminant matches the algebra's (unit for split, p^2 in the
    Gram determinant for division)."""
    one = quat(alg, 1)
    for g in gens:
        if vp_frac(trd(g), p) < 0 or vp_frac(g.nrd(), p) < 0:
            raise NotIntegral(f"generator {g} is not integral at {p}")

    def val(x):
        return vp_frac(x, p)

    basis = echelon([one.x] + [g.x for g in gens], val)
    while True:
        prods = [Quaternion(alg, b1) * Quaternion(alg, b2)
                 for b1 in basis for b2 in basis]
        new_basis = echelon(list(basis) + [q.x for q in prods], val)
        if _same_lattice(p, basis, new_basis):
            break
        basis = new_basis
    if len(basis) < 4:
        raise NotIntegral("generators do not span the algebra")
    qb = [Quaternion(alg, b) for b in basis]
    gram = [[trd(qb[i] * qb[j]) for j in range(4)] for i in range(4)]
    v = vp_frac(det(gram), p)
    target = 2 if is_division_at(alg, p) else 0
    return basis, v == target, v


def _same_lattice(p, b1, b2):
    # the closure only grows, so equal volumes mean equal lattices
    if len(b1) != len(b2):
        return False
    return len(b1) < 4 or vp_frac(det(b1), p) == vp_frac(det(b2), p)
