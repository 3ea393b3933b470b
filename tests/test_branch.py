import random
from collections import Counter
from fractions import Fraction

import pytest

from bttwist.errors import InternalInvariant, NeedsExtension, NotAUnit
from bttwist.padic import make_field
from bttwist.bttree import (BoundaryPoint, Horoball, MoebiusMap, Tube,
                            Vertex, Window, distance, tubular)
from bttwist import branch
from bttwist.branch import (branch_closed_form, branch_member,
                            branch_with_extension, can_extend, classify,
                            lift_element, lift_vertex,
                            sample_integral_matrix, unit_fixed_points)
from bttwist.enumerate import branch_vertices
from convex_oracle import branch_of_family, line

mat = MoebiusMap.from_rows
Q2 = make_field(2, ())
OMEGA = make_field(2, (-1, -3, 2))


class TestClassify:
    def test_large_square_discriminant_needs_no_extension(self):
        # regression: a float square root called this square a non-square
        f = make_field(2, (-1,))
        n = 3 ** 40 + 7
        y = f.from_rational(n) + f.sqrt_gen(0) * (n + 2)
        c = classify(MoebiusMap(y, f.zero, f.zero, f.zero), f)
        assert c.kind == "etale_split"
        assert sorted(lam.key() for lam in c.eigenvalues) == sorted(
            [y.key(), f.zero.key()])
        assert f.sqrt_of(f.from_rational(n * n)) == n

    def test_split_diagonal(self):
        f = make_field(2, (-3,))
        u = f.one
        eps = f.from_rational(4)
        q = MoebiusMap(u, f.zero, f.zero, u + eps)
        c = classify(q, f)
        assert c.kind == "etale_split"
        assert {c.eigenvalues[0], c.eigenvalues[1]} == {u, u + eps}

    def test_nilpotent(self):
        q = mat(Q2, [[0, 1], [0, 0]])
        assert classify(q, Q2).kind == "nonetale"

    def test_scalar(self):
        q = mat(Q2, [[3, 0], [0, 3]])
        assert classify(q, Q2).kind == "scalar"

    def test_ramified_field_case(self):
        q = mat(Q2, [[0, 1], [2, 0]])  # x^2 - 2
        c = classify(q, Q2)
        assert c.kind == "etale_field" and c.ramified

    def test_unramified_field_case(self):
        q = mat(Q2, [[0, 1], [5, 0]])  # x^2 - 5
        c = classify(q, Q2)
        assert c.kind == "etale_field" and not c.ramified

    def test_local_square_without_model_root(self):
        q = mat(Q2, [[0, 1], [17, 0]])  # x^2 - 17 splits 2-adically
        with pytest.raises(NeedsExtension):
            classify(q, Q2)


class TestExtensionErrors:
    def test_split_extension_needs_extension(self):
        q = mat(Q2, [[0, 1], [17, 0]])  # Q_2(sqrt 17) splits: SplitPrime
        with pytest.raises(NeedsExtension):
            branch_with_extension(q, Q2)
        assert can_extend(Q2, 17) is False
        assert can_extend(Q2, -1) is True

    def test_programming_errors_propagate(self, monkeypatch):
        # regression: both caught every Exception from make_field
        def broken(p, sqrt_args):
            raise TypeError("broken")

        monkeypatch.setattr(branch, "make_field", broken)
        with pytest.raises(TypeError):
            branch_with_extension(mat(Q2, [[0, 20], [1, 0]]), Q2)
        with pytest.raises(TypeError):
            can_extend(Q2, 5)


class TestClosedForm:
    def test_scalar_branches(self):
        from bttwist.bttree import EMPTY, WHOLE
        assert branch_closed_form(mat(Q2, [[1, 0], [0, 1]]), Q2) is WHOLE
        S = branch_closed_form(mat(Q2, [[Fraction(1, 2), 0],
                                        [0, Fraction(1, 2)]]), Q2)
        assert S is EMPTY

    def test_nilpotent_gives_standard_horoball(self):
        S = branch_closed_form(mat(Q2, [[0, 1], [0, 0]]), Q2)
        assert isinstance(S, Horoball)
        win = Window(Vertex(Q2.zero, Fraction(0)), 3)
        for v in win:
            assert S.contains(v) == (v.level <= 0)
            assert S.contains(v) == branch_member(mat(Q2, [[0, 1], [0, 0]]), v)

    def test_split_tube_width_is_eigenvalue_gap(self):
        u = Q2.from_rational(1)
        q = MoebiusMap(u, Q2.zero, Q2.zero, u + Q2.from_rational(4))
        S = branch_closed_form(q, Q2)
        assert isinstance(S, Tube) and S.width == 2
        # core is the line through the eigen-directions 0 and infinity
        win = Window(Vertex(Q2.zero, Fraction(0)), 3)
        base = line(Q2, Q2.zero, BoundaryPoint.infinity(), 2)
        for v in win:
            assert S.contains(v) == base.contains(v)

    def test_ten_vertex_example(self):
        # matrix with square trace-free part 20: a width-2 ball in the base
        # tree around the order of the unramified quadratic integers
        q = mat(Q2, [[0, 20], [1, 0]])
        S, amb = branch_with_extension(q, Q2)
        assert amb.sqrt_args == (5,)
        win = Window(Vertex(Q2.zero, Fraction(0)), 5)
        members = [v for v in win if branch_member(q, v)]
        assert len(members) == 10
        center = Vertex(Q2.from_rational(2), Fraction(2))
        assert Counter(distance(center, v) for v in members) == \
            {Fraction(0): 1, Fraction(1): 3, Fraction(2): 6}
        for v in win:
            assert S.contains(lift_vertex(v, amb)) == branch_member(q, v)


class TestOracle:
    def test_identity_everywhere(self):
        rng = random.Random(1)
        f = make_field(2, (2,))
        one = MoebiusMap(f.one, f.zero, f.zero, f.one)
        for _ in range(20):
            from helpers import rand_vertex
            assert branch_member(one, rand_vertex(f, rng))

    def test_nilpotent_fails_below(self):
        q = mat(Q2, [[0, 1], [0, 0]])
        assert not branch_member(q, Vertex(Q2.zero, Fraction(1)))

    def test_division_generators_at_both_ends(self):
        L = make_field(2, (-3, 2))
        i_img = mat(L, [[0, 1], [2, 0]])
        jm1 = MoebiusMap((L.sqrt_of(-3) - 1) / 2, L.zero, L.zero,
                         (-L.sqrt_of(-3) - 1) / 2)
        v0 = Vertex(L.zero, Fraction(0))
        v1 = Vertex(L.zero, Fraction(-1))
        for v in (v0, v1):
            assert branch_member(i_img, v) and branch_member(jm1, v)


class TestLift:
    def test_lift_keeps_coordinates(self):
        x = make_field(2, (-1,)).sqrt_gen(0)
        big = make_field(2, (-1, -3))
        assert lift_element(x, big) == big.sqrt_gen(0)

    def test_lift_into_a_non_extension_is_internal_invariant(self):
        x = make_field(2, (-1,)).sqrt_gen(0)
        with pytest.raises(InternalInvariant):
            lift_element(x, make_field(2, (-3, -1)))


class TestFamilies:
    def test_family_of_identity(self):
        from bttwist.bttree import WHOLE
        one = MoebiusMap(Q2.one, Q2.zero, Q2.zero, Q2.one)
        assert branch_of_family([one], Q2) is WHOLE

    def test_quaternion_generators_give_26(self):
        from bttwist.quatalg import q8_trivialization, standard_groups
        triv = q8_trivialization(OMEGA)
        _, (u, v) = standard_groups()["q8"]
        U, V = triv.image(u), triv.image(v)
        S = branch_of_family([U, V], OMEGA)
        win = Window(Vertex(OMEGA.zero, Fraction(-1, 2)), Fraction(3, 4))
        members = [w for w in win if S.contains(w)]
        assert len(members) == 26
        for w in win:
            assert S.contains(w) == (branch_member(U, w) and branch_member(V, w))

    def test_division_order_segment(self):
        L = make_field(2, (-3, 2))
        i_img = mat(L, [[0, 1], [2, 0]])
        jm1 = MoebiusMap((L.sqrt_of(-3) - 1) / 2, L.zero, L.zero,
                         (-L.sqrt_of(-3) - 1) / 2)
        S = branch_of_family([i_img, jm1], L)
        win = Window(Vertex(L.zero, Fraction(0)), 2)
        members = [v for v in win if S.contains(v)]
        assert len(members) == 3  # levels 0, -1/2, -1 in the ramified tower
        assert sorted(v.level for v in members) == [
            Fraction(-1), Fraction(-1, 2), Fraction(0)]


class TestFixedPoints:
    def test_identity_fixes_all(self):
        one = MoebiusMap(Q2.one, Q2.zero, Q2.zero, Q2.one)
        win = Window(Vertex(Q2.zero, Fraction(0)), 2)
        assert len(unit_fixed_points(one, win)) == len(win)

    def test_rejects_non_units(self):
        win = Window(Vertex(Q2.zero, Fraction(0)), 1)
        with pytest.raises(NotAUnit):
            unit_fixed_points(mat(Q2, [[2, 0], [0, 2]]), win)

    def test_unit_diagonal_fixes_standard_line(self):
        f = make_field(2, (-3,))
        u = (f.sqrt_gen(0) - 1) / 2  # a unit of infinite multiplicative order
        q = MoebiusMap(f.one, f.zero, f.zero, u)
        win = Window(Vertex(f.zero, Fraction(0)), 2)
        fixed = unit_fixed_points(q, win)
        for v in win:
            on_line = v.center.valuation() >= v.level
            assert any(v == w for w in fixed) == on_line
            assert branch_member(q, v) == on_line

    def test_quaternion_unit_fixed_set_is_its_tube(self):
        from bttwist.quatalg import q8_trivialization, standard_groups
        triv = q8_trivialization(OMEGA)
        _, (u, _) = standard_groups()["q8"]
        U = triv.image(u)
        win = Window(Vertex(OMEGA.zero, Fraction(0)), Fraction(1, 2))
        fixed = unit_fixed_points(U, win)
        S = branch_closed_form(U, OMEGA)
        assert isinstance(S, Tube) and S.width == 1
        for v in win:
            assert any(v == w for w in fixed) == S.contains(v)


class TestEngineProperties:
    @pytest.mark.parametrize("p,args,radius,n,seed", [
        (2, (), 3, 20, 2), (2, (-3,), 2, 12, 3), (3, (2,), 1, 10, 4),
    ])
    def test_triple_engine_sample(self, p, args, radius, n, seed):
        fld = make_field(p, args)
        rng = random.Random(seed)
        win = Window(Vertex(fld.zero, Fraction(0)), radius)
        for _ in range(n):
            q = sample_integral_matrix(fld, rng)
            oracle = [branch_member(q, v) for v in win]
            S, amb = branch_with_extension(q, fld)
            assert [S.contains(lift_vertex(v, amb)) for v in win] == oracle
            t, d = q.trace(), q.det()
            if t.valuation() >= 0 and d.valuation() == 0:
                fixed = unit_fixed_points(q, win)
                assert [any(v == u for u in fixed) for v in win] == oracle

    def test_scaling_law(self):
        fld = make_field(2, (2,))
        rng = random.Random(9)
        win = Window(Vertex(fld.zero, Fraction(0)), 2)
        for _ in range(12):
            q = sample_integral_matrix(fld, rng)
            alpha = fld.pi_pow(rng.randint(0, 2))
            qa = q.scaled(alpha)
            S, amb = branch_with_extension(q, fld)
            Sa, amb_a = branch_with_extension(qa, fld)
            grown = tubular(S, alpha.valuation())
            for v in win:
                assert Sa.contains(lift_vertex(v, amb_a)) == \
                    grown.contains(lift_vertex(v, amb))

    @pytest.mark.parametrize("args,seed", [((), 21), ((2,), 22)])
    def test_scaling_law_on_the_flood_fill(self, args, seed):
        # branch(alpha q) = branch(q)^[nu(alpha)] on the walk's vertex sets;
        # only matrices generating a field have a finite branch to walk
        fld = make_field(2, args)
        rng = random.Random(seed)
        center = Vertex(fld.zero, Fraction(0))
        checked = 0
        while checked < 8:
            q = sample_integral_matrix(fld, rng)
            if classify(q, fld).kind != "etale_field":
                continue
            checked += 1
            base = branch_vertices([q], center)
            for k in range(3):
                alpha = fld.pi_pow(k)
                qa = q.scaled(alpha)
                grown = {w.key() for v in base
                         for w in Window(v, alpha.valuation())}
                assert {v.key() for v in branch_vertices([qa], center)} \
                    == grown

    def test_conjugation_equivariance(self):
        fld = make_field(2, ())
        rng = random.Random(10)
        win = Window(Vertex(fld.zero, Fraction(0)), 2)
        from helpers import rand_moebius
        for _ in range(15):
            q = sample_integral_matrix(fld, rng)
            g = rand_moebius(fld, rng)
            conj = g * q * g.inv()
            for v in win:
                assert branch_member(conj, v) == \
                    branch_member(q, g.inv().apply_vertex(v))

    def test_emptiness_iff_nonintegral(self):
        from bttwist.bttree import EMPTY
        rng = random.Random(12)
        fld = Q2
        win = Window(Vertex(fld.zero, Fraction(0)), 3)
        for _ in range(20):
            q = sample_integral_matrix(fld, rng)
            scale = Fraction(1, 2) if rng.random() < 0.5 else Fraction(1)
            qs = q.scaled(scale)
            t, n = qs.trace(), qs.det()
            integral = t.valuation() >= 0 and n.valuation() >= 0
            members = [v for v in win if branch_member(qs, v)]
            if integral:
                assert members, f"integral matrix with empty branch: {qs}"
            else:
                assert not members

    def test_branch_convexity_and_galois_stability(self):
        from helpers import path_vertices
        fld = make_field(2, (-1,))
        rng = random.Random(14)
        win = Window(Vertex(fld.zero, Fraction(0)), 2)
        for _ in range(10):
            q = sample_integral_matrix(fld, rng)
            # force base-field entries for the stability half
            qb = MoebiusMap(*(fld.from_rational(x.coords[0])
                              for x in q.entries))
            members = [v for v in win if branch_member(qb, v)]
            for i in range(0, len(members), 5):
                for j in range(0, len(members), 7):
                    for x in path_vertices(members[i], members[j]):
                        assert branch_member(qb, x)
            for v in win:
                vg = Vertex(v.center.conj(1), v.level)
                assert branch_member(qb, v) == branch_member(qb, vg)
