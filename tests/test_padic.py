import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from bttwist.errors import (InternalInvariant, NotInField, NotSquareFree,
                            NumberTooLarge, SplitPrime, ZeroInput)
from bttwist.padic import (INFINITY, SQUAREFREE_TRIAL_LIMIT, FieldElement,
                           LocalField, _PRIME_TEST_LIMIT, _int_sqrt,
                           _is_prime, make_field, parity, quad_ext_type,
                           squarefree_part)

import squarefree_oracle

Q2 = make_field(2, ())
OMEGA = make_field(2, (-1, -3, 2))


def test_omega_invariants():
    assert OMEGA.e == 4 and OMEGA.f == 2 and OMEGA.degree == 8


def test_base_field():
    assert Q2.e == 1 and Q2.f == 1 and Q2.degree == 1


def test_unramified_quadratic_over_three():
    f = make_field(3, (2,))
    assert f.e == 1 and f.f == 2
    assert f.sqrt_gen(0).valuation() == 0
    # independent residue oracle: the nine elements a + b*sqrt(2) with
    # 0 <= a, b < 3 are pairwise incongruent, so the residue field has
    # at least nine elements
    reps = [f.from_rational(a) + f.sqrt_gen(0) * b
            for a in range(3) for b in range(3)]
    for i, x in enumerate(reps):
        for y in reps[:i]:
            assert (x - y).valuation() == 0


@pytest.mark.parametrize("p,args,err", [
    (2, (17,), SplitPrime),      # 17 = 1 mod 8
    (7, (2,), SplitPrime),       # 2 is a square mod 7
    (2, (12,), NotSquareFree),
    (2, (-1, -4), NotSquareFree),
    (2, (-1, -1), NotSquareFree),  # dependent mod squares
    (2, (2, 8), NotSquareFree),
])
def test_constructor_rejections(p, args, err):
    with pytest.raises(err):
        make_field(p, args)


def test_valuations():
    assert OMEGA.from_rational(2).valuation() == 1
    assert OMEGA.sqrt_of(2).valuation() == Fraction(1, 2)
    f = make_field(2, (-1,))
    assert (f.one + f.sqrt_gen(0)).valuation() == Fraction(1, 2)
    assert f.uniformizer.valuation() == Fraction(1, 2)
    assert f.zero.valuation() is INFINITY


def test_cube_root_of_unity():
    f = make_field(2, (-3,))
    w = (f.sqrt_gen(0) - 1) / 2
    assert (w * w + w + 1).is_zero()
    assert w * w.conj(1) == 1


def test_inverse_identity():
    f = make_field(2, (2,))
    x = f.one + f.sqrt_gen(0)
    assert x.inv() == f.sqrt_gen(0) - 1
    assert (x * x.inv()) == 1


def test_conjugation_is_involution():
    rng = random.Random(5)
    for _ in range(20):
        coords = [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3]))
                  for _ in range(8)]
        x = OMEGA.el(coords)
        for mask in range(8):
            assert x.conj(mask).conj(mask) == x


@settings(max_examples=40, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 4),
       st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 4))
def test_valuation_laws_quadratic(a0, a1, d0, b0, b1, d1):
    f = make_field(2, (2,))
    x = f.el([Fraction(a0, d0), Fraction(a1, d0)])
    y = f.el([Fraction(b0, d1), Fraction(b1, d1)])
    if x.is_zero() or y.is_zero():
        return
    assert (x * y).valuation() == x.valuation() + y.valuation()
    s = x + y
    if not s.is_zero():
        assert s.valuation() >= min(x.valuation(), y.valuation())
        if x.valuation() != y.valuation():
            assert s.valuation() == min(x.valuation(), y.valuation())


def test_valuation_laws_bulk():
    # the large randomized sweep over a cheap field
    rng = random.Random(11)
    f = make_field(3, (2,))
    pairs = 0
    while pairs < 10 ** 4:
        x = f.el([Fraction(rng.randint(-20, 20), rng.choice([1, 3]))
                  for _ in range(2)])
        y = f.el([Fraction(rng.randint(-20, 20), rng.choice([1, 3]))
                  for _ in range(2)])
        if x.is_zero() or y.is_zero():
            continue
        pairs += 1
        assert (x * y).valuation() == x.valuation() + y.valuation()
        s = x + y
        if not s.is_zero():
            assert s.valuation() >= min(x.valuation(), y.valuation())
            if x.valuation() != y.valuation():
                assert s.valuation() == min(x.valuation(), y.valuation())


def test_valuation_galois_invariant():
    rng = random.Random(7)
    for _ in range(50):
        x = OMEGA.el([Fraction(rng.randint(-9, 9), rng.choice([1, 2]))
                      for _ in range(8)])
        if x.is_zero():
            continue
        v = x.valuation()
        for mask in range(8):
            assert x.conj(mask).valuation() == v


@pytest.mark.parametrize("p,args", [
    (2, ()), (2, (-1,)), (2, (-3,)), (2, (2,)), (2, (-1, 2)),
    (2, (-1, -3, 2)), (3, (2,)), (3, (3,)),
])
def test_value_group_is_one_over_e(p, args):
    f = make_field(p, args)
    assert f.uniformizer.valuation() == Fraction(1, f.e)
    # no smaller positive valuation among a sample of small elements
    rng = random.Random(13)
    smallest = f.uniformizer.valuation()
    for _ in range(200):
        x = f.el([Fraction(rng.randint(-6, 6), rng.choice([1, 2]))
                  for _ in range(f.degree)])
        if x.is_zero():
            continue
        v = x.valuation()
        assert (v * f.e).denominator == 1
        if 0 < v < smallest:  # pragma: no cover - would be a bug
            smallest = v
    assert smallest == Fraction(1, f.e)


def brute_defect_over_z(a: int, bound=64):
    """Independent oracle: minimize nu_2(a - b^2) over integers b."""
    best = None
    for b in range(-bound, bound + 1):
        diff = a - b * b
        if diff == 0:
            continue
        v = 0
        d = abs(diff)
        while d % 2 == 0:
            d //= 2
            v += 1
        if best is None or v > best:
            best = v
    return best


def test_defect_examples():
    # odd valuation: the ideal itself
    assert Q2.quadratic_defect(Q2.from_rational(2)) == 1
    # -3 needs the unit bound: frozen against the brute-force oracle
    assert brute_defect_over_z(-3) == 2
    assert Q2.quadratic_defect(Q2.from_rational(-3)) == 2
    assert brute_defect_over_z(-1) == 1
    assert Q2.quadratic_defect(Q2.from_rational(-1)) == 1
    assert Q2.quadratic_defect(Q2.from_rational(5)) == 2
    # squares have infinite defect, including 2-adic squares with no
    # rational square root
    assert Q2.quadratic_defect(Q2.from_rational(9)) is INFINITY
    assert Q2.quadratic_defect(Q2.from_rational(17)) is INFINITY
    assert Q2.quadratic_defect(Q2.from_rational(-7)) is INFINITY
    with pytest.raises(ZeroInput):
        Q2.quadratic_defect(Q2.zero)


def test_defect_of_a_foreign_element_is_internal_invariant():
    # a programming error, as mixed fields are in arithmetic; not the
    # ValueError that reads as "not in this field"
    with pytest.raises(InternalInvariant):
        OMEGA.quadratic_defect(Q2.from_rational(5))


def test_defect_odd_p():
    q3 = make_field(3, ())
    assert q3.quadratic_defect(q3.from_rational(3)) == 1
    assert q3.quadratic_defect(q3.from_rational(2)) == 0   # non-residue unit
    assert q3.quadratic_defect(q3.from_rational(-2)) is INFINITY


def test_defect_scaling_and_bound():
    rng = random.Random(3)
    f = make_field(2, (-1,))
    for _ in range(40):
        a = f.el([Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))])
        if a.is_zero():
            continue
        d = f.quadratic_defect(a)
        if d is INFINITY:
            continue
        assert d <= (f.from_rational(4) * a).valuation()
        b = f.pi_pow(rng.randint(1, 3))
        assert f.quadratic_defect(a * b * b) == d + 2 * b.valuation()


def test_subfield_lattice():
    subs = OMEGA.subfields()
    assert len(subs) == 15
    degs = sorted(s.field.degree for s in subs)
    assert degs == [1] + [2] * 7 + [4] * 7
    quad_args = {s.field.sqrt_args[0] for s in subs if s.field.degree == 2}
    assert quad_args == {-1, 3, -3, 2, -2, 6, -6}
    small = make_field(2, (-3,))
    assert [s.field.degree for s in small.subfields()] == [1]
    bi = make_field(2, (-1, 2))
    quads = {s.field.sqrt_args[0] for s in bi.subfields()
             if s.field.degree == 2}
    assert quads == {-1, 2, -2}


def test_subfield_embedding_roundtrip():
    sub = OMEGA.find_subfield((6,))
    x = sub.field.one + sub.field.sqrt_gen(0) * Fraction(3, 2)
    emb = sub.embed(x)
    assert emb * emb == sub.embed(x * x)
    assert sub.project(emb) == x
    assert sub.project(OMEGA.sqrt_of(-1)) is None


def test_residue_representatives():
    for p, args in [(2, ()), (2, (-3,)), (3, (2,)), (2, (-1, -3, 2))]:
        f = make_field(p, args)
        reps = f.residue_reps
        assert len(reps) == f.q
        assert reps[0].is_zero() and reps[1] == 1
        for i, r in enumerate(reps):
            for s in reps[i + 1:]:
                assert (r - s).valuation() == 0


def test_element_sqrt_roundtrip():
    rng = random.Random(17)
    f = make_field(2, (-1, 2))
    for _ in range(25):
        y = f.el([Fraction(rng.randint(-5, 5), rng.choice([1, 2]))
                  for _ in range(4)])
        if y.is_zero():
            continue
        s = f.sqrt_of(y * y)
        assert s * s == y * y
    with pytest.raises(NotInField):
        Q2.sqrt_of(Q2.from_rational(17))  # a local square, not in the model


def test_squarefree_part():
    assert squarefree_part(12) == (3, 2)
    assert squarefree_part(-18) == (-2, 3)
    assert squarefree_part(1) == (1, 1)


# a * b^2 * c with small primes, prime squares and two-prime cofactors
_SQUARE_MIXES = st.builds(lambda a, b, c: a * b * b * c,
                          st.integers(-3000, 3000).filter(bool),
                          st.integers(1, 40000), st.integers(1, 3000))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(-10 ** 9, 10 ** 9).filter(bool), _SQUARE_MIXES))
def test_squarefree_part_matches_full_trial_division(n):
    assert squarefree_part(n) == squarefree_oracle.squarefree_part(n)


def test_squarefree_part_of_large_cofactors():
    # the cofactor left after trial division up to its cube root
    p, q = 998244353, 1000000007
    assert squarefree_part(p * q) == (p * q, 1)
    assert squarefree_part(-4 * p * q) == (-p * q, 2)
    assert squarefree_part(7 * p * p) == (7, p)
    m31 = 2 ** 31 - 1
    assert squarefree_part(m31 * m31) == (1, m31)
    assert squarefree_part(2 ** 63 - 25) == (2 ** 63 - 25, 1)  # prime


def test_squarefree_part_past_the_trial_bound_is_typed():
    assert SQUAREFREE_TRIAL_LIMIT ** 3 == 2 ** 63
    with pytest.raises(NumberTooLarge):
        squarefree_part((2 ** 31 - 1) * (2 ** 61 - 1))
    # small factors come out first, so only the cofactor counts
    assert squarefree_part(3 ** 90) == (1, 3 ** 45)


def test_quad_ext_type():
    assert quad_ext_type(-3, 2) == "unramified"
    assert quad_ext_type(17, 2) == "split"
    assert quad_ext_type(-1, 2) == "ramified"
    assert quad_ext_type(2, 3) == "unramified"
    assert quad_ext_type(-2, 3) == "split"
    assert quad_ext_type(3, 3) == "ramified"


def test_int_sqrt_is_exact_above_float_precision():
    # regression: the float square root missed this perfect square
    n = 3 ** 40 + 7
    assert _int_sqrt(n * n) == n
    assert _int_sqrt(n * n + 1) is None and _int_sqrt(n * n - 1) is None
    assert _int_sqrt(0) == 0 and _int_sqrt(1) == 1
    assert _int_sqrt(-4) is None


def test_element_sqrt_of_large_square():
    n = 3 ** 40 + 7
    f = make_field(2, (-1,))
    y = f.from_rational(n) + f.sqrt_gen(0) * (n + 2)
    root = f.sqrt_of(y * y)
    assert root * root == y * y
    assert Q2.sqrt_of(Q2.from_rational(Fraction(n * n, 4))) == Fraction(n, 2)
    # the rational path: trial division cannot finish factoring n^2, whose
    # largest prime factor is 495384762097
    assert f.sqrt_of(n * n) == n
    assert f.sqrt_of(-n * n) == f.sqrt_gen(0) * n
    with pytest.raises(NotInField):
        f.sqrt_of(2 * n * n)
    with pytest.raises(ZeroInput):
        f.sqrt_of(0)


def test_parity():
    assert [parity(x) for x in range(8)] == [0, 1, 1, 0, 1, 0, 0, 1]
    assert parity(2 ** 70 + 1) == 0 and parity(2 ** 70) == 1


def test_mixed_fields_raise_internal_invariant():
    f = make_field(2, (-1,))
    g = make_field(2, (2,))
    x, y = f.sqrt_gen(0), g.sqrt_gen(0)
    for op in (lambda: x * y, lambda: x + y, lambda: x - y, lambda: x / y):
        with pytest.raises(InternalInvariant):
            op()
    sub = OMEGA.find_subfield((6,))
    with pytest.raises(InternalInvariant):
        sub.embed(OMEGA.one)
    with pytest.raises(InternalInvariant):
        sub.project(sub.field.one)


def test_scale_of_valuation_outside_value_group():
    # ints and Fractions on the (1/e)Z grid give the cached power of the
    # uniformizer; levels off it raise
    f = make_field(2, (-1,))  # e = 2
    assert f.scale_of_valuation(Fraction(3, 2)).valuation() == Fraction(3, 2)
    for r in (1, -1, Fraction(1, 2), Fraction(-3, 2), Fraction(4, 2)):
        assert f.scale_of_valuation(r) is f.pi_pow(int(r * 2))
    g = make_field(2, (-3,))  # e = 1
    for r in (0, 2, -3, Fraction(-3)):
        assert g.scale_of_valuation(r) is g.pi_pow(int(r))
    for field, r in ((f, Fraction(1, 3)), (f, Fraction(1, 4)),
                     (f, Fraction(-1, 3)), (g, Fraction(1, 3)),
                     (g, Fraction(1, 2)), (g, Fraction(-5, 2))):
        with pytest.raises(InternalInvariant):
            field.scale_of_valuation(r)


@pytest.mark.parametrize("p,args", [(2, ()), (2, (2,)), (2, (-1, -3, 2)),
                                    (3, (-1,))])
def test_negative_pi_powers_invert_the_uniformizer_once(p, args,
                                                        monkeypatch):
    # pi^-n multiplies by one cached inverse of the uniformizer: a fresh
    # field inverts once for all six powers, and each power is the element
    # that n divisions by the uniformizer give
    f = LocalField(p, args)
    pi = f.uniformizer
    inverted = []
    inv = FieldElement.inv
    monkeypatch.setattr(FieldElement, "inv",
                        lambda x: inverted.append(x) or inv(x))
    powers = [f.pi_pow(-n) for n in range(1, 7)]
    assert inverted == [pi]
    monkeypatch.undo()
    divided = f.one
    for n, power in enumerate(powers, 1):
        divided = divided / pi
        assert power == divided
        assert power * f.pi_pow(n) == f.one


def test_rational_value_of_irrational_element():
    f = make_field(2, (-1,))
    assert (f.one * Fraction(3, 4)).rational_value() == Fraction(3, 4)
    with pytest.raises(InternalInvariant):
        f.sqrt_gen(0).rational_value()


def test_float_operands_are_rejected():
    # exact arithmetic never takes a float, even one that is exactly binary
    x = OMEGA.sqrt_gen(0)
    for op in (lambda: x * 0.5, lambda: 0.5 * x, lambda: x + 0.5,
               lambda: 0.5 - x, lambda: x / 0.5):
        with pytest.raises(TypeError):
            op()


class TestPrimality:
    def test_matches_trial_division(self):
        def by_trial(n):
            return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))

        assert [n for n in range(-3, 20000) if _is_prime(n)] == \
            [n for n in range(-3, 20000) if by_trial(n)]

    def test_strong_pseudoprimes_are_composite(self):
        # the least strong pseudoprimes to the first 4, 7, 8, 9 and 12
        # prime bases; each falls to a later base
        for n in (3215031751, 341550071728321, 3825123056546413051,
                  318665857834031151167461):
            assert not _is_prime(n)
        assert _is_prime(2 ** 61 - 1) and _is_prime(10 ** 18 + 3)
        assert not _is_prime((2 ** 31 - 1) * (10 ** 9 + 7))

    def test_past_the_exact_bound_is_a_typed_error(self):
        assert not _is_prime(_PRIME_TEST_LIMIT - 2)
        with pytest.raises(NumberTooLarge):
            _is_prime(_PRIME_TEST_LIMIT)
