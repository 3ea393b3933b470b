import random
from fractions import Fraction

import pytest

from bttwist.errors import InternalInvariant, WindowTooLarge
from bttwist.padic import make_field
from bttwist.bttree import (BoundaryPoint, MoebiusMap, Vertex, Window,
                            distance, emit_dot, neighbors, tubular)
from convex_oracle import Meet, NoPeak, ball, intersect, line, peak
import vertex_oracle

from helpers import contains_set, in_standard_subtree, lattice_of_vertex, \
    path_vertices, rand_convex, rand_moebius, rand_vertex, same_type, \
    standard_horoball

Q2 = make_field(2, ())
OMEGA = make_field(2, (-1, -3, 2))


def B(field, center, level):
    if not hasattr(center, "coords"):
        center = field.from_rational(center)
    return Vertex(center, Fraction(level))


class TestDistanceAndNeighbors:
    def test_distance_basics(self):
        v = B(Q2, 0, 0)
        assert distance(v, v) == 0
        assert distance(v, B(Q2, 0, 3)) == 3
        assert distance(B(Q2, 0, 1), B(Q2, 1, 1)) == 2

    def test_distance_matches_neighbor_walk(self):
        # BFS oracle: the window records construction depths
        win = Window(B(Q2, 0, 1), 3)
        for v, d in zip(win.vertices, win.distances):
            assert distance(B(Q2, 0, 1), v) == d

    def test_neighbors_q2(self):
        ns = neighbors(B(Q2, 0, 0))
        assert len(ns) == 3
        expected = [B(Q2, 0, -1), B(Q2, 0, 1), B(Q2, 1, 1)]
        for e in expected:
            assert any(n == e for n in ns)

    def test_valency_five_over_tower(self):
        assert len(neighbors(B(OMEGA, 0, 0))) == 5

    def test_neighbor_symmetry_and_involution(self):
        rng = random.Random(2)
        for fld in (Q2, make_field(2, (2,))):
            for _ in range(10):
                v = rand_vertex(fld, rng)
                for n in neighbors(v):
                    assert distance(v, n) == Fraction(1, fld.e)
                    assert any(m == v for m in neighbors(n))

    def test_ball_equality_is_equivalence(self):
        f = make_field(2, (-1,))
        a = B(f, 0, 1)
        b = Vertex(f.from_rational(4), Fraction(1))
        c = Vertex(f.from_rational(-4), Fraction(1))
        assert a == b and b == c and a == c
        assert distance(a, b) == 0
        assert not (a == B(f, 1, 1))

    def test_same_type(self):
        assert same_type(B(Q2, 0, 0), B(Q2, 0, 2))
        assert not same_type(B(Q2, 0, 0), B(Q2, 0, 1))


class TestMoebius:
    def test_identity(self):
        g = MoebiusMap.identity(Q2)
        v = B(Q2, 1, 2)
        assert g.apply_vertex(v) == v

    def test_inversion_scaled(self):
        g = MoebiusMap.from_rows(Q2, [[0, 1], [2, 0]])  # z -> 1/(2z)
        assert g.apply_vertex(B(Q2, 0, 1)) == B(Q2, 0, -2)

    def test_cube_root_rotation_fixes_unit_vertex(self):
        f = make_field(2, (-3,))
        w = (f.sqrt_gen(0) - 1) / 2
        g = MoebiusMap(w, f.zero, f.zero, f.one)  # z -> omega z
        w0 = B(f, 1, 0)
        assert g.apply_vertex(w0) == w0

    def test_isometry_bulk(self):
        rng = random.Random(8)
        f = make_field(2, (2,))
        count = 0
        while count < 10 ** 3:
            g = rand_moebius(f, rng)
            v, w = rand_vertex(f, rng), rand_vertex(f, rng)
            assert distance(g.apply_vertex(v), g.apply_vertex(w)) == \
                distance(v, w)
            count += 1

    def test_boundary_action(self):
        g = MoebiusMap.from_rows(Q2, [[1, 1], [0, 1]])
        assert g.apply_boundary(BoundaryPoint.infinity()).is_infinity
        z = g.apply_boundary(BoundaryPoint(Q2.from_rational(2)))
        assert z.value == 3

    def test_lattice_of_vertex(self):
        (a, one), (t, zero) = lattice_of_vertex(B(Q2, 0, 1))
        assert one == 1 and zero.is_zero()
        assert t.valuation() == 1
        # off-diagonal valuations of the order are +-1: conjugate e12, e21
        f = Q2
        M = MoebiusMap(a, t, one, zero)
        e12 = M * MoebiusMap.from_rows(f, [[0, 1], [0, 0]]) * M.inv()
        assert min(x.valuation() for x in (e12.a, e12.b, e12.c, e12.d)
                   if not x.is_zero()) == -1


class TestMatrixMethods:
    """The matrix operations against their entrywise definitions."""

    def test_against_the_entries(self):
        rng = random.Random(19)
        for f in (Q2, make_field(2, (-3,)), OMEGA, make_field(3, (-1, 3))):
            for _ in range(20):
                g, h = rand_moebius(f, rng), rand_moebius(f, rng)
                s = rand_vertex(f, rng).center
                assert g.entries == (g.a, g.b, g.c, g.d)
                assert (g + h).entries == tuple(
                    x + y for x, y in zip(g.entries, h.entries))
                assert (-g).entries == tuple(-x for x in g.entries)
                assert g.scaled(s).entries == tuple(x * s for x in g.entries)
                assert g.scaled(Fraction(-2, 3)).entries == tuple(
                    x * Fraction(-2, 3) for x in g.entries)
                assert g.trace() == g.a + g.d
                assert g == MoebiusMap(*g.entries) and g != h
                zero = g + -g
                assert all(x.is_zero() for x in zero.entries)
                assert zero.is_scalar()  # the zero matrix is scalar too

    def test_equality_is_entrywise_and_proj_eq_is_projective(self):
        f = make_field(2, (-1,))
        g = MoebiusMap.from_rows(f, [[1, 2], [3, 4]])
        for s in (f.from_rational(3), f.sqrt_gen(0), f.from_rational(-1)):
            assert g.scaled(s).proj_eq(g)
            assert g.scaled(s) != g
        assert -g != g and (-g).proj_eq(g)
        assert g != "a matrix" and g.scaled(f.one) == g

    def test_scalar_matrices(self):
        f = make_field(2, (-3,))
        one = MoebiusMap.identity(f)
        w = (f.sqrt_gen(0) - 1) / 2
        for s in (f.zero, f.one, w, f.from_rational(Fraction(5, 2))):
            assert one.scaled(s).is_scalar()
        assert not MoebiusMap(f.one, f.zero, f.zero, w).is_scalar()
        assert not MoebiusMap.from_rows(f, [[1, 1], [0, 1]]).is_scalar()
        assert not MoebiusMap.from_rows(f, [[1, 0], [1, 1]]).is_scalar()

    def test_a_map_is_unhashable_like_a_vertex(self):
        with pytest.raises(TypeError):
            hash(MoebiusMap.identity(Q2))
        with pytest.raises(TypeError):
            hash(B(Q2, 0, 0))


class TestPeak:
    def test_basics(self):
        assert peak(BoundaryPoint(Q2.zero), BoundaryPoint(Q2.one)) == B(Q2, 0, 0)
        assert peak(BoundaryPoint(Q2.zero),
                    BoundaryPoint(Q2.from_rational(4))) == B(Q2, 0, 2)
        with pytest.raises(NoPeak):
            peak(BoundaryPoint(Q2.zero), BoundaryPoint.infinity())

    def test_quaternion_branch_peak(self):
        s3 = OMEGA.sqrt_of(3)
        sm3 = OMEGA.sqrt_of(-3)
        w = (sm3 - 1) / 2
        z1 = (1 + s3) / (2 * (w + 1))
        z3 = (-1 + s3) / (2 * w)
        assert z1 * z3 == Fraction(-1, 2)
        pk = peak(BoundaryPoint(z1), BoundaryPoint(z3))
        assert pk.level == Fraction(-1, 2)


class TestConvexSets:
    def test_standard_horoball_is_level_set(self):
        F0 = standard_horoball(Q2, 0)
        win = Window(B(Q2, 0, 0), 3)
        for v in win:
            assert F0.contains(v) == (v.level <= 0)

    def test_tube_membership(self):
        T = line(Q2, Q2.zero, BoundaryPoint.infinity(), 1)
        assert T.contains(B(Q2, 1, 1))
        assert not T.contains(B(Q2, 1, 2))

    def test_empty_and_whole(self):
        from bttwist.bttree import EMPTY, WHOLE
        v = B(Q2, 0, 0)
        assert not EMPTY.contains(v) and WHOLE.contains(v)
        assert intersect(EMPTY, WHOLE) is EMPTY
        T = line(Q2, Q2.zero, Q2.one, 0)
        assert intersect(T, WHOLE) is T

    def test_tubular(self):
        F0 = standard_horoball(Q2, 0)
        grown = tubular(F0, 1)
        win = Window(B(Q2, 0, 0), 3)
        for v in win:
            assert grown.contains(v) == (v.level <= 1)
        T = line(Q2, Q2.zero, Q2.one, 0)
        assert tubular(T, 0) .width == T.width
        bl = tubular(ball(B(Q2, 0, 0), 0), 2)
        for v in win:
            assert bl.contains(v) == (distance(v, B(Q2, 0, 0)) <= 2)

    def test_convexity_of_membership(self):
        rng = random.Random(21)
        f = make_field(2, (2,))
        win = Window(B(f, 0, 0), 2)
        for _ in range(25):
            S = rand_convex(f, rng)
            members = [v for v in win if S.contains(v)]
            for i in range(0, len(members), 7):
                for j in range(0, len(members), 11):
                    for x in path_vertices(members[i], members[j]):
                        assert S.contains(x)

    def test_galois_stability_with_stable_data(self):
        # a tube with rational defining data is stable under conjugation
        f = make_field(2, (-1,))
        T = line(f, f.from_rational(1), f.from_rational(-1), Fraction(1, 2))
        H = standard_horoball(f, 1)
        rng = random.Random(4)
        for _ in range(40):
            v = rand_vertex(f, rng)
            vg = Vertex(v.center.conj(1), v.level)
            assert T.contains(v) == T.contains(vg)
            assert H.contains(v) == H.contains(vg)


class TestTypedErrors:
    def test_negative_tube_width(self):
        from bttwist.bttree import Tube as GeodesicTube
        from convex_oracle import NEG_INFINITY, Tube
        from bttwist.padic import INFINITY
        with pytest.raises(InternalInvariant):
            Tube(Q2, BoundaryPoint(Q2.zero), BoundaryPoint.infinity(),
                 NEG_INFINITY, INFINITY, -1)
        with pytest.raises(InternalInvariant):
            GeodesicTube(Q2, BoundaryPoint(Q2.zero), BoundaryPoint.infinity(),
                         -1)

    def test_axis_coord_off_the_carrier(self):
        T = line(Q2, Q2.zero, BoundaryPoint.infinity(), 0)
        assert T.axis_coord(B(Q2, 0, 2)) == 2
        with pytest.raises(InternalInvariant):
            T.axis_coord(B(Q2, 1, 2))

    def test_coincident_boundary_ends(self):
        from bttwist.bttree import Tube as GeodesicTube
        with pytest.raises(InternalInvariant):
            line(Q2, Q2.one, Q2.one)
        with pytest.raises(InternalInvariant):
            GeodesicTube(Q2, BoundaryPoint(Q2.one), BoundaryPoint(Q2.one), 0)

    def test_negative_tubular_radius(self):
        with pytest.raises(InternalInvariant):
            tubular(standard_horoball(Q2, 0), -1)

    def test_incomplete_residue_reps_raise_instead_of_a_wrong_id(self):
        # a fresh model, so the cached make_field one keeps its digits
        from bttwist.padic import LocalField
        f = LocalField(2, (-3,))
        w = f.residue_reps[3]  # a unit whose digit is about to go missing
        f._residue_reps = f.residue_reps[:2]
        with pytest.raises(InternalInvariant):
            Vertex(w, Fraction(1)).key()


class TestIntersection:
    def test_quaternion_generator_tubes_meet_in_ball(self):
        s3 = OMEGA.sqrt_of(3)
        w = (OMEGA.sqrt_of(-3) - 1) / 2
        z1 = (1 + s3) / (2 * (w + 1))
        z2 = (1 - s3) / (2 * (w + 1))
        z3 = (-1 + s3) / (2 * w)
        z4 = (-1 - s3) / (2 * w)
        S = intersect(line(OMEGA, z1, z2, 1), line(OMEGA, z3, z4, 1))
        assert S.width == Fraction(1, 2)
        assert S.lo == S.hi  # a ball
        vc = Vertex(z1, Fraction(-1, 2))
        assert S.contains(vc) and S.core_distance(vc) == 0

    def test_division_order_segment(self):
        # the ramified-uniformizer tube meets the split line in a segment of
        # length one (in base units), at every residue characteristic
        for p, args, width in [(2, (-3, 2), Fraction(3, 2)),
                               (3, (-1, 3), Fraction(1, 2))]:
            L = make_field(p, args)
            rt = L.sqrt_of(p if p != 2 else 2)
            Ti = line(L, 1 / rt, -(1 / rt), width)
            Tj = line(L, L.zero, BoundaryPoint.infinity(), 0)
            S = intersect(Ti, Tj)
            assert S.width == 0
            assert (S.lo, S.hi) == (Fraction(-1), Fraction(0))

    def test_same_horoball_point(self):
        H1 = standard_horoball(Q2, 2)
        H2 = standard_horoball(Q2, 0)
        S = intersect(H1, H2)
        win = Window(B(Q2, 0, 0), 3)
        assert contains_set(S, win) == [
            H1.contains(v) and H2.contains(v) for v in win]

    def test_distinct_horoballs_fall_back_to_meet(self):
        H1 = standard_horoball(Q2, 1)
        g = MoebiusMap.from_rows(Q2, [[0, 1], [1, 0]])
        H2 = intersect(H1, intersect(H1, H1))  # still a horoball
        from bttwist.bttree import Horoball
        H3 = Horoball(Q2, g, Fraction(1))
        S = intersect(H1, H3)
        assert isinstance(S, Meet)
        win = Window(B(Q2, 0, 0), 3)
        assert contains_set(S, win) == [
            H1.contains(v) and H3.contains(v) for v in win]

    @pytest.mark.parametrize("p,args,trials,seed", [
        (2, (), 120, 11), (2, (2,), 120, 7), (3, (), 80, 13),
        (2, (-3,), 50, 17),
    ])
    def test_intersect_matches_window_enumeration(self, p, args, trials, seed):
        fld = make_field(p, args)
        rng = random.Random(seed)
        win = Window(Vertex(fld.zero, Fraction(0)), 2)
        for _ in range(trials):
            S1, S2 = rand_convex(fld, rng), rand_convex(fld, rng)
            S = intersect(S1, S2)
            for v in win:
                assert S.contains(v) == (S1.contains(v) and S2.contains(v))


class TestWindows:
    def test_radius_zero(self):
        assert Window(B(Q2, 0, 0), 0).vertices == [B(Q2, 0, 0)]

    def test_counts_match_formula(self):
        # 1 + (q+1)(q^(eR) - 1)/(q - 1)
        for fld, R in [(Q2, 1), (Q2, 3), (OMEGA, Fraction(1, 4)),
                       (OMEGA, Fraction(3, 4)), (make_field(3, (2,)), 1)]:
            q = fld.q
            n = int(q ** (Fraction(R) * fld.e))
            expect = 1 + (q + 1) * (n - 1) // (q - 1)
            assert len(Window(Vertex(fld.zero, Fraction(0)), R).vertices) \
                == expect

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("BTTWIST_VERTEX_CAP", "100")
        with pytest.raises(WindowTooLarge):
            Window(B(Q2, 0, 0), 10)

    @pytest.mark.parametrize("p,args,center,level,radius", [
        (2, (), 0, 0, 4), (2, (), 1, -2, 3),
        (2, (-1,), 0, 0, 2), (2, (-1, 2), 0, 0, 1),
        (2, (-1, -3, 2), "sqrt -3", Fraction(1, 4), Fraction(3, 4)),
        (3, (), 1, -1, 3), (3, (3,), 0, 0, Fraction(3, 2)),
        (3, (-1,), 0, 0, 2), (5, (), 0, 0, 2), (5, (5,), 2, 1, 1),
    ])
    def test_position_skip_matches_the_equality_rule(self, p, args, center,
                                                     level, radius):
        # the oracle skips the neighbour equal to the vertex it came from
        fld = make_field(p, args)
        c = fld.sqrt_of(-3) if center == "sqrt -3" else center
        win = Window(B(fld, c, level), radius)
        verts, dists, edges = vertex_oracle.window(B(fld, c, level), radius)
        assert [v.key() for v in win] == [v.key() for v in verts]
        assert (win.distances, win.edges) == (dists, edges)


class TestSubfieldVertices:
    def test_rational_centers_always_pass(self):
        f = make_field(2, (-1,))
        sub = f.find_subfield(())
        for n in (0, 1, 2, -3):
            assert in_standard_subtree(B(f, n, 1), sub)

    def test_half_levels_fail(self):
        f = make_field(2, (-1,))
        sub = f.find_subfield(())
        assert not in_standard_subtree(B(f, 0, Fraction(1, 2)), sub)

    def test_ghost_threshold_over_ramified_subfield(self):
        # balls around sqrt(-3) meet Q_2(sqrt 2) down to the defect bound:
        # sup nu(sqrt(-3) - lambda) = nu(1) + defect(-3)/2 = 1, so level 1 is
        # the last subfield vertex and deeper balls are ghosts
        f = make_field(2, (-3, 2))
        sub = f.find_subfield((2,))
        base = sub.field
        assert base.quadratic_defect(base.from_rational(-3)) == 2
        root = f.sqrt_of(-3)
        assert in_standard_subtree(Vertex(root, Fraction(1, 2)), sub)
        assert in_standard_subtree(Vertex(root, Fraction(1)), sub)
        assert not in_standard_subtree(Vertex(root, Fraction(3, 2)), sub)
        assert not in_standard_subtree(Vertex(root, Fraction(2)), sub)

    def test_ghost_threshold_matches_defect(self):
        # B(sqrt(alpha), r) is a base vertex iff r <= defect(alpha)/2
        f = make_field(2, (-3,))
        sub = f.find_subfield(())
        root = f.sqrt_gen(0)
        assert in_standard_subtree(Vertex(root, Fraction(1)), sub)
        assert not in_standard_subtree(Vertex(root, Fraction(2)), sub)


class TestDot:
    def test_deterministic_and_wellformed(self):
        win = Window(B(Q2, 0, 0), 2)
        S = standard_horoball(Q2, 0)
        out1 = emit_dot(win, S)
        out2 = emit_dot(Window(B(Q2, 0, 0), 2), S)
        assert out1 == out2
        assert out1.count("{") == out1.count("}") == 1
        ids = [ln.split()[0] for ln in out1.splitlines()
               if ln.strip().startswith("v") and "[label" in ln]
        assert len(ids) == len(set(ids)) == len(win)
        assert "lightblue" in out1

    @pytest.mark.parametrize("args", [(), (-3,)])
    def test_edges_match_pairwise_scan(self, args):
        # emit_dot numbers the window's own edges; the O(n^2) distance scan
        # is kept here as the reference
        fld = make_field(2, args)
        win = Window(Vertex(fld.zero, Fraction(0)), 2)
        verts = sorted(win.vertices, key=lambda v: v.key())
        step = Fraction(1, fld.e)
        edges = [f"  v{i} -- v{j};" for i in range(len(verts))
                 for j in range(i + 1, len(verts))
                 if distance(verts[i], verts[j]) == step]
        out = emit_dot(win, standard_horoball(fld, 0))
        got = [ln for ln in out.splitlines() if " -- " in ln]
        assert got == edges and len(edges) == len(win) - 1
        assert out.endswith("\n".join(edges) + "\n}\n")
