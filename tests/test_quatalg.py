import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bttwist.bttree import MoebiusMap
from bttwist.errors import (DivisionByZero, FieldTooSmall, InternalInvariant,
                            ZeroInput)
from bttwist.padic import make_field
from bttwist.quatalg import (DICYCLIC_ALG, HAMILTON, Quaternion,
                             QuaternionAlgebra, Trivialization,
                             find_trivialization, maxorder_generators,
                             q8_trivialization, quat, standard_groups)
from bttwist.quatalg import _phi
from orders import (NotIntegral, hilbert_symbol, mulclose, order_closure,
                    trd)


U = quat(HAMILTON, 0, 1, 0, 0)
V = quat(HAMILTON, 0, 0, 1, 0)
W = quat(HAMILTON, Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2),
         Fraction(1, 2))


def test_defining_relations():
    assert U * U == quat(HAMILTON, -1)
    assert V * V == quat(HAMILTON, -1)
    assert U * V + V * U == quat(HAMILTON, 0)


def test_w_is_a_cube_root():
    assert W * W * W == quat(HAMILTON, 1)
    assert W.nrd() == 1 and trd(W) == -1


rational = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4)


@settings(max_examples=60, deadline=None)
@given(st.tuples(rational, rational, rational, rational),
       st.tuples(rational, rational, rational, rational))
def test_reduced_norm_multiplicative(xs, ys):
    x, y = Quaternion(HAMILTON, xs), Quaternion(HAMILTON, ys)
    assert (x * y).nrd() == x.nrd() * y.nrd()
    assert (x + x.conj()).x == (trd(x), 0, 0, 0)
    assert (x * x.conj()).x == (x.nrd(), 0, 0, 0)


def test_group_orders():
    groups = standard_groups()
    assert len(mulclose(groups["q8"][1])) == 8
    assert len(mulclose(groups["hurwitz"][1])) == 24
    assert len(mulclose(groups["dicyclic"][1])) == 12


def test_dicyclic_generator_relations():
    _, (r, p) = standard_groups()["dicyclic"]
    assert r * r * r == quat(DICYCLIC_ALG, -1)   # r has order 6
    assert p * p == quat(DICYCLIC_ALG, -1)
    assert p * r * p.inv() == r.inv()


def test_phi_preserves_relations():
    pu, pv = _phi(U), _phi(V)
    minus1 = _phi(quat(HAMILTON, -1))
    assert pu * pu == minus1 and pv * pv == minus1
    assert pu * pv + pv * pu == _phi(quat(HAMILTON, 0))
    # linearity spot check
    assert _phi(U + V) == pu + pv


class TestHilbertSymbol:
    @pytest.mark.parametrize("a,b,p,want", [
        (-1, -1, 2, -1), (-1, -1, 3, 1), (-1, -1, 5, 1),
        (-3, -1, 3, -1), (-3, -1, 2, 1),
        (2, -3, 2, -1), (-2, -3, 2, -1), (2, 5, 2, -1),
        (3, -1, 3, -1), (5, 2, 5, -1), (1, 7, 7, 1),
    ])
    def test_values(self, a, b, p, want):
        assert hilbert_symbol(a, b, p) == want

    def test_symmetry_and_squares(self):
        rng = random.Random(6)
        for _ in range(40):
            a = rng.choice([-6, -5, -3, -2, -1, 2, 3, 5, 6, 7])
            b = rng.choice([-6, -5, -3, -2, -1, 2, 3, 5, 6, 7])
            p = rng.choice([2, 3, 5, 7])
            assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
            assert hilbert_symbol(a, b * 4, p) == hilbert_symbol(a, b, p)
            assert hilbert_symbol(a, -a, p) == 1


class TestTrivializations:
    def test_classical_dyadic_matrices(self):
        F = make_field(2, (-3,))
        g = q8_trivialization(F)
        s = F.sqrt_gen(0)
        gu = g.image(U)
        assert (gu.a, gu.b, gu.c, gu.d) == \
            ((2 * s) / 6, (s + 3) / 6, (2 * s - 6) / 6, (-2 * s) / 6)
        w = (s - 1) / 2
        assert (gu.a, gu.b, gu.c, gu.d) == \
            (-1 / s, w / s, (-2 * (w + 1)) / s, 1 / s)
        gv = g.image(V)
        assert (gv.a, gv.b) == ((2 * s) / 6, (s - 3) / 6)
        assert gu.det() == 1 and g.image(W).det() == 1
        assert g.image(quat(HAMILTON, 1)).proj_eq(
            g.image(quat(HAMILTON, 1)))
        one = g.image(quat(HAMILTON, 1))
        assert one.a == 1 and one.b.is_zero()

    def test_relations_survive(self):
        F = make_field(2, (-3,))
        g = q8_trivialization(F)
        gu, gv = g.image(U), g.image(V)
        uv = gu * gv
        vu = gv * gu
        assert (uv.a, uv.b, uv.c, uv.d) == (-vu.a, -vu.b, -vu.c, -vu.d)
        sq = gu * gu
        assert sq.a == -1 and sq.b.is_zero() and sq.c.is_zero()

    def test_standard_division_presentation(self):
        F = make_field(2, (-3,))
        alg, _ = maxorder_generators(2, -3)
        t = find_trivialization(alg, F)
        assert (t.I.a.is_zero() and t.I.b == 1 and
                t.I.c == 2 and t.I.d.is_zero())
        assert t.J.a == F.sqrt_gen(0) and t.J.b.is_zero()
        assert t.cocycle_witness.proj_eq(t.I)

    def test_determinant_is_reduced_norm(self):
        rng = random.Random(4)
        F = make_field(2, (-3,))
        g = q8_trivialization(F)
        for _ in range(20):
            x = Quaternion(HAMILTON, tuple(
                Fraction(rng.randint(-6, 6), rng.choice([1, 2]))
                for _ in range(4)))
            img = g.image(x)
            assert img.det() == F.from_rational(x.nrd())
            assert (img.a + img.d) == F.from_rational(trd(x))

    def test_mixed_shape_witness(self):
        F = make_field(2, (-6,))
        t = find_trivialization(DICYCLIC_ALG, F)
        # the witness must intertwine f with its Galois twist
        mask = 1
        for q in (quat(DICYCLIC_ALG, 0, 1), quat(DICYCLIC_ALG, 0, 0, 1)):
            img = t.image(q)
            twisted = img.galois(mask)
            Wt = t.cocycle_witness
            back = Wt * twisted * Wt.inv()
            assert back.proj_eq(img)

    def test_field_too_small(self):
        with pytest.raises(FieldTooSmall):
            find_trivialization(HAMILTON, make_field(2, (2,)))

    def test_matrix_coords_roundtrip(self):
        F = make_field(2, (-3,))
        g = q8_trivialization(F)
        x = quat(HAMILTON, Fraction(1, 2), 2, Fraction(-3, 2), 1)
        coords = g.matrix_coords(g.image(x))
        assert tuple(c.rational_value() for c in coords) == x.x

    def test_bad_images_raise_internal_invariant(self):
        # these checks were asserts, which python -O strips
        F = make_field(2, (-3,))
        alg, _ = maxorder_generators(2, -3)
        good = find_trivialization(alg, F)
        swap = MoebiusMap.from_rows(F, [[0, 1], [1, 0]])  # squares to 1, not 2
        with pytest.raises(InternalInvariant, match="i-image"):
            Trivialization(alg, F, swap, good.J, good.flip_d)
        with pytest.raises(InternalInvariant):
            good.image(U)
        with pytest.raises(InternalInvariant):
            q8_trivialization(F).image(quat(alg, 1))


class TestOrderClosure:
    def test_hurwitz_order_is_maximal(self):
        _, mx, v = order_closure(HAMILTON, [W, U, V], 2)
        assert mx and v == 2

    def test_q8_order_is_not_maximal(self):
        _, mx, v = order_closure(HAMILTON, [U, V], 2)
        assert not mx and v == 4

    def test_dicyclic_order_is_maximal(self):
        _, (r, p) = standard_groups()["dicyclic"]
        _, mx, v = order_closure(DICYCLIC_ALG, [r, p], 3)
        assert mx and v == 2

    def test_split_places_are_unit_discriminant(self):
        _, mx, v = order_closure(HAMILTON, [W, U, V], 5)
        assert mx and v == 0
        _, mx, v = order_closure(HAMILTON, [U, V], 3)
        assert mx and v == 0

    def test_division_maximal_order(self):
        alg, gens = maxorder_generators(2, -3)
        basis, mx, v = order_closure(alg, gens, 2)
        assert mx and v == 2
        one = quat(alg, 1)
        # closure contains 1 and is multiplication-closed up to the lattice
        qb = [Quaternion(alg, b) for b in basis]
        from bttwist.linalg import det
        from bttwist.padic import vp_frac
        from linalg_oracle import echelon
        vol = vp_frac(det(basis), 2)
        prods = [x * y for x in qb for y in qb]
        again = echelon(list(basis) + [q.x for q in prods] + [one.x],
                        lambda x: vp_frac(x, 2))
        assert vp_frac(det(again), 2) == vol

    def test_rejects_non_integral(self):
        bad = quat(HAMILTON, Fraction(1, 2), Fraction(1, 2), 0, 0)
        assert bad.nrd() == Fraction(1, 2)
        with pytest.raises(NotIntegral):
            order_closure(HAMILTON, [bad, U], 2)


class TestTypedErrors:
    def test_product_across_algebras(self):
        with pytest.raises(InternalInvariant):
            U * quat(DICYCLIC_ALG, 0, 1, 0, 0)

    def test_inverse_of_a_zero_norm_element(self):
        with pytest.raises(DivisionByZero):
            quat(HAMILTON, 0).inv()
        split = QuaternionAlgebra(Fraction(1), Fraction(-1))
        with pytest.raises(DivisionByZero):
            quat(split, 1, 1, 0, 0).inv()  # nrd = 1 - a = 0

    @pytest.mark.parametrize("a,b", [(0, 1), (3, 0)])
    def test_hilbert_symbol_of_zero(self, a, b):
        with pytest.raises(ZeroInput):
            hilbert_symbol(a, b, 2)
