import random
from fractions import Fraction

import pytest

from bttwist.errors import CocycleLawViolated, InternalInvariant, NotInField
from bttwist.linalg import det, inverse
from bttwist import enumerate as counting
from bttwist import twisted
from bttwist.padic import LocalField, make_field, parity
from bttwist.bttree import (BoundaryPoint, MoebiusMap, Vertex, Window,
                            distance, neighbors)
from bttwist.quatalg import (find_trivialization,
                             maxorder_generators, q8_trivialization,
                             standard_groups)
from bttwist.twisted import (Cocycle, TwistedTree, VertexOrder,
                             order_lattice_of_vertex, subfield_vertex_test,
                             sublattice_machinery, trivial_cocycle)

from cocycle_oracle import first_violation
from helpers import rand_vertex
from test_cocycle_witness import law_fails_where_the_oracle_does
import vertex_oracle

OMEGA = make_field(2, (-1, -3, 2))
F_UNRAM = make_field(2, (-3,))


def division_tree(field):
    alg, _ = maxorder_generators(2, -3)
    triv = find_trivialization(alg, field)
    coc = Cocycle(field, triv.flip_d, triv.cocycle_witness)
    return TwistedTree(field, coc), triv


class TestCocycles:
    def test_standard_cocycle_law_exhaustive(self):
        tree, triv = division_tree(OMEGA)
        coc = tree.cocycle
        for s in range(8):
            for t in range(8):
                assert coc[s ^ t].proj_eq(coc[s] * coc[t].galois(s))

    def test_trivial_cocycle(self):
        coc = trivial_cocycle(OMEGA)
        tree = TwistedTree(OMEGA, coc)
        v = Vertex(OMEGA.sqrt_of(-3), Fraction(1))
        moved = tree.apply(0b010, v)
        assert moved == Vertex(OMEGA.sqrt_of(-3).conj(0b010), Fraction(1))

    def test_seven_variant_witness(self):
        g = q8_trivialization(OMEGA)
        coc = Cocycle(OMEGA, g.flip_d, g.I)
        want = MoebiusMap.from_rows(OMEGA, [[0, 1], [-2, 0]])
        flips = OMEGA.mask_of(-3)
        for s in range(8):
            if parity(s & flips):
                assert coc[s].proj_eq(want)
            else:
                assert coc[s].proj_eq(MoebiusMap.identity(OMEGA))

    def test_law_violation_detected(self):
        # W sigma(W) = [[1, 2], [0, 1]] at the sigma flipping sqrt(-3)
        bad = MoebiusMap.from_rows(F_UNRAM, [[1, 1], [0, 1]])
        with pytest.raises(CocycleLawViolated) as err:
            Cocycle(F_UNRAM, -3, bad)
        assert "sigma = 1" in str(err.value)

    def test_witness_cocycle_answers_by_parity(self):
        g = q8_trivialization(OMEGA)
        coc = Cocycle(OMEGA, g.flip_d, g.I)
        flipping = {s for s in range(8) if parity(s & OMEGA.mask_of(-3))}
        assert {s for s in range(8) if coc.flips(s)} == flipping
        assert coc.moving == flipping
        assert all(coc[s] is (g.I if s in flipping else coc.identity)
                   for s in range(8))
        scalar = MoebiusMap.from_rows(OMEGA, [[3, 0], [0, 3]])
        assert Cocycle(OMEGA, -3, scalar).moving == frozenset()
        assert trivial_cocycle(OMEGA).moving == frozenset()
        with pytest.raises(NotInField):
            Cocycle(F_UNRAM, -1, g.I)  # sqrt(-1) is not in Q_2(sqrt -3)

    @pytest.mark.parametrize("entries,pair", [
        # a_1 = [[0, 1], [-1, 0]] squares to -1, so the pairs before (1, 2)
        # hold; at (1, 2) the scalar a_2 leaves a_3 = 1 against a_1
        ({1: [[0, 1], [-1, 0]], 2: [[2, 0], [0, 2]], 3: [[1, 0], [0, 1]]},
         "(1, 2)"),
        # a_1 = [[0, sqrt 2], [1, 0]] squares to sqrt 2; at (2, 1) the
        # scalar a_2 leaves a_3 = a_1 against a_1 with sqrt 2 flipped
        ({1: [[0, "r"], [1, 0]], 2: [[3, 0], [0, 3]], 3: [[0, "r"], [1, 0]]},
         "(2, 1)"),
    ])
    def test_law_checked_on_pairs_with_a_scalar_factor(self, entries, pair):
        # the pair-by-pair oracle, the reference for `Cocycle`, checks the
        # pairs where a factor is scalar; the witness a_1 with the flip of
        # sqrt(-3) gives a cocycle exactly when its own table passes it
        F = make_field(2, (-3, 2))
        r = F.sqrt_of(2)
        maps = {0: MoebiusMap.identity(F)}
        for s, rows in entries.items():
            maps[s] = MoebiusMap.from_rows(
                F, [[r if x == "r" else x for x in row] for row in rows])
        assert maps[2].is_scalar()
        assert str(first_violation(F, maps)) == pair
        law_fails_where_the_oracle_does(F, -3, maps[1])


class TestTwistedAction:
    def test_swaps_zero_and_infinity(self):
        tree, _ = division_tree(F_UNRAM)
        tau = 1
        assert tree.apply(tau, BoundaryPoint(F_UNRAM.zero)).is_infinity
        assert tree.apply(tau, BoundaryPoint.infinity()).value.is_zero()

    def test_half_vertex_is_the_pivot(self):
        tree, _ = division_tree(F_UNRAM)
        pivot = Vertex(F_UNRAM.zero, Fraction(-1, 2))
        assert tree.apply(1, pivot) == pivot
        v0 = Vertex(F_UNRAM.zero, Fraction(0))
        assert tree.apply(1, v0) == Vertex(F_UNRAM.zero, Fraction(-1))
        win = Window(v0, 2)
        inv = tree.invariant_vertices([0, 1], win, include_midpoints=True)
        assert len(inv) == 1 and inv[0] == pivot

    def test_group_action_law(self):
        tree, _ = division_tree(OMEGA)
        rng = random.Random(3)
        win = Window(Vertex(OMEGA.zero, Fraction(0)), Fraction(1, 2))
        for _ in range(100):
            v = win.vertices[rng.randrange(len(win))]
            s, t = rng.randrange(8), rng.randrange(8)
            assert tree.apply(s ^ t, v) == tree.apply(s, tree.apply(t, v))

    def test_action_is_isometric_and_simplicial(self):
        tree, _ = division_tree(OMEGA)
        rng = random.Random(5)
        for _ in range(30):
            v = rand_vertex(OMEGA, rng, 2)
            w = rand_vertex(OMEGA, rng, 2)
            s = rng.randrange(8)
            assert distance(tree.apply(s, v), tree.apply(s, w)) == \
                distance(v, w)
        v = Vertex(OMEGA.zero, Fraction(0))
        s = 1
        imgs = [tree.apply(s, n) for n in neighbors(v)]
        center = tree.apply(s, v)
        for im in imgs:
            assert distance(center, im) == Fraction(1, OMEGA.e)

    def test_no_invariant_boundary_point(self):
        tree, _ = division_tree(F_UNRAM)
        rng = random.Random(8)
        samples = [BoundaryPoint(F_UNRAM.zero), BoundaryPoint.infinity(),
                   BoundaryPoint(F_UNRAM.one)]
        for _ in range(30):
            coords = [Fraction(rng.randint(-9, 9), rng.choice([1, 2]))
                      for _ in range(2)]
            samples.append(BoundaryPoint(F_UNRAM.el(coords)))
        for b in samples:
            moved = tree.apply(1, b)
            assert not (moved == b)


class TestInvariantSubtrees:
    def test_trivial_subgroup_fixes_everything(self):
        tree = TwistedTree(F_UNRAM, trivial_cocycle(F_UNRAM))
        win = Window(Vertex(F_UNRAM.zero, Fraction(0)), 1)
        assert len(tree.invariant_vertices([0], win)) == len(win)

    @pytest.mark.parametrize("alpha,ell", [(-1, Fraction(1, 2)),
                                           (2, Fraction(1))])
    def test_wild_hairs(self, alpha, ell):
        L = make_field(2, (alpha,))
        tree = TwistedTree(L, trivial_cocycle(L))
        win = Window(Vertex(L.zero, Fraction(0)), 2)
        inv = tree.invariant_vertices([0, 1], win)
        sub = L.find_subfield(())
        kverts = [v for v in win
                  if VertexOrder(tree, None, v).in_subtree(sub)]

        def dist_to_base_tree(v):
            return min((distance(v, a) + distance(v, b) - distance(a, b)) / 2
                       for a in kverts for b in kverts)

        assert max(dist_to_base_tree(v) for v in inv) == ell
        q2 = make_field(2, ())
        formula = (L.from_rational(2) * L.sqrt_gen(0)).valuation() - Fraction(
            q2.quadratic_defect(q2.from_rational(alpha)), 2)
        assert formula == ell
        for v in win:
            assert (dist_to_base_tree(v) <= ell) == \
                any(v == w for w in inv)


@pytest.mark.parametrize("midpoints", [False, True])
@pytest.mark.parametrize("args,subgroups", [
    # every subgroup of Gal(L/Q_2); only the unramified quadratic has a
    # swapped edge in its window, so only it has an invariant midpoint
    ((-1, -3), ([0], [0, 1], [0, 2], [0, 3], [0, 1, 2, 3])),
    ((-3,), ([0], [0, 1])),
])
def test_invariant_vertices_match_the_old_loop(args, subgroups, midpoints,
                                               monkeypatch):
    L = make_field(2, args)
    tree, _ = division_tree(L)
    win = Window(Vertex(L.zero, Fraction(0)), Fraction(3, L.e))
    fixes = TwistedTree.fixes
    off_grid = 0
    for subgroup in subgroups:
        want = vertex_oracle.invariant_vertices(tree, subgroup, win,
                                                midpoints)
        calls = []
        monkeypatch.setattr(
            TwistedTree, "fixes",
            lambda self, s, x: calls.append((s, x.key())) or fixes(self, s, x))
        got = tree.invariant_vertices(subgroup, win, midpoints)
        monkeypatch.undo()
        assert len(got) == len(want)
        assert all(u.level == w.level and u == w for u, w in zip(got, want))
        assert calls and len(calls) == len(set(calls))  # each asked once
        off_grid += sum((v.level * L.e).denominator != 1 for v in got)
    assert off_grid == (midpoints and args == (-3,))


def test_sublattice_machinery_of_fresh_fields(monkeypatch):
    # two models of the same field, built apart, each get their own
    # machinery; neither is answered from the other's cache entry
    monkeypatch.setattr(twisted, "_SUBLATTICE_CACHE", {})
    first, second = LocalField(2, (-1,)), LocalField(2, (-1,))
    for L in (first, second, first):
        mach = sublattice_machinery(L.find_subfield(()))
        assert mach.sub.parent is L and mach.L is L
        assert all(m.field is L for m in mach.mhat)
    assert len(twisted._SUBLATTICE_CACHE) == 2


class TestOrderPullback:
    def test_contains_one_and_closed(self):
        tree, triv = division_tree(F_UNRAM)
        v0 = Vertex(F_UNRAM.zero, Fraction(0))
        basis = order_lattice_of_vertex(triv, v0)
        # 1 is in the lattice: solve integrally against the basis
        cols = [[basis[j][i] for j in range(4)] for i in range(4)]
        inv = inverse(cols)
        one_coords = [F_UNRAM.one, F_UNRAM.zero, F_UNRAM.zero, F_UNRAM.zero]
        sol = [sum((inv[i][j] * one_coords[j] for j in range(4)),
                   F_UNRAM.zero) for i in range(4)]
        assert all(c.valuation() >= 0 for c in sol)
        # closed under multiplication: every product of basis elements
        # re-expands with integral coefficients
        from bttwist.quatalg import Quaternion, QuaternionAlgebra
        alg = QuaternionAlgebra(Fraction(2), Fraction(-3))

        def expand(vec):
            return [sum((inv[i][j] * vec[j] for j in range(4)), F_UNRAM.zero)
                    for i in range(4)]

        embedded = [Quaternion(alg, tuple(c.rational_value() for c in b))
                    for b in basis if all(c.is_rational() for c in b)]
        for q1 in embedded:
            for q2 in embedded:
                prod = q1 * q2
                coords = [F_UNRAM.from_rational(c) for c in prod.x]
                assert all(c.valuation() >= 0 for c in expand(coords))
        v1 = Vertex(F_UNRAM.zero, Fraction(-1))
        assert len(order_lattice_of_vertex(triv, v1)) == 4

    def test_pullback_volumes_differ_off_tree(self):
        tree, triv = division_tree(F_UNRAM)
        v0 = Vertex(F_UNRAM.zero, Fraction(0))
        b0 = order_lattice_of_vertex(triv, v0)
        vol0 = det([list(b) for b in b0]).valuation()
        v1 = Vertex(F_UNRAM.zero, Fraction(-1))
        b1 = order_lattice_of_vertex(triv, v1)
        vol1 = det([list(b) for b in b1]).valuation()
        assert vol0 == vol1  # conjugate orders, equal volume


class TestSubfieldVertexTest:
    def test_center_vertex_over_ramified_quadratics(self):
        tree, triv = division_tree(OMEGA)
        g = q8_trivialization(OMEGA)
        treeq = TwistedTree(OMEGA, Cocycle(OMEGA, g.flip_d, g.I))
        vc = Vertex(OMEGA.zero, Fraction(-1, 2))
        for d in (-1, 3, 2, -2, 6, -6):
            sub = OMEGA.find_subfield((d,))
            assert subfield_vertex_test(treeq, g, vc, sub), d
        assert not subfield_vertex_test(
            treeq, g, vc, OMEGA.find_subfield((-3,)))

    def test_swapped_pair_over_unramified(self):
        EF = make_field(2, (-1, -3))
        g = q8_trivialization(EF)
        tree = TwistedTree(EF, Cocycle(EF, g.flip_d, g.I))
        subE = EF.find_subfield((-3,))
        subF = EF.find_subfield((-1,))
        w1 = Vertex(EF.zero, Fraction(-1))
        w0 = Vertex(EF.one, Fraction(0))
        for w in (w0, w1):
            assert subfield_vertex_test(tree, g, w, subE)
            assert not subfield_vertex_test(tree, g, w, subF)

    def test_midpoints_never_pass(self):
        tree, triv = division_tree(F_UNRAM)
        sub = F_UNRAM.find_subfield(())
        assert not subfield_vertex_test(
            tree, triv, Vertex(F_UNRAM.zero, Fraction(-1, 2)), sub)

    def test_trivial_cocycle_agrees_with_untwisted_test(self):
        # tame case with a base-rational trivialization of a split algebra:
        # the twisted machinery reduces to the plain subfield test: the
        # same answer with no trivialization at all, and the digit oracle's
        from bttwist.quatalg import QuaternionAlgebra
        L = make_field(2, (-3,))
        split_alg = QuaternionAlgebra(Fraction(1), Fraction(1))
        triv = find_trivialization(split_alg, L)
        assert triv.J.a.is_rational() and triv.J.b.is_rational()
        tree = TwistedTree(L, trivial_cocycle(L))
        sub = L.find_subfield(())
        win = Window(Vertex(L.zero, Fraction(0)), 2)
        for v in win:
            assert subfield_vertex_test(tree, triv, v, sub) == \
                VertexOrder(tree, None, v).in_subtree(sub) == \
                vertex_oracle.e_vertex(v, sub)

    def test_wild_invariants_strictly_exceed_subfield_vertices(self):
        from bttwist.quatalg import QuaternionAlgebra
        L = make_field(2, (2,))
        split_alg = QuaternionAlgebra(Fraction(2), Fraction(2))
        triv = find_trivialization(split_alg, L)
        assert triv.J.a.is_rational() and triv.J.b.is_rational()
        tree = TwistedTree(L, trivial_cocycle(L))
        sub = L.find_subfield(())
        win = Window(Vertex(L.zero, Fraction(0)), 2)
        inv = tree.invariant_vertices([0, 1], win)
        passing = [v for v in win if subfield_vertex_test(tree, triv, v, sub)]
        untwisted = [v for v in win if vertex_oracle.e_vertex(v, sub)]
        assert [v.key() for v in passing] == [v.key() for v in untwisted]
        assert len(inv) > len(passing)

    def test_branch_stability_under_twisted_action(self):
        from bttwist.branch import branch_member
        g = q8_trivialization(OMEGA)
        tree = TwistedTree(OMEGA, Cocycle(OMEGA, g.flip_d, g.I))
        _, (u, v) = standard_groups()["q8"]
        U, V = g.image(u), g.image(v)
        win = Window(Vertex(OMEGA.zero, Fraction(-1, 2)), Fraction(1, 2))
        for w in win:
            member = branch_member(U, w) and branch_member(V, w)
            for s in range(8):
                moved = tree.apply(s, w)
                assert (branch_member(U, moved) and
                        branch_member(V, moved)) == member


def test_a_subfield_of_another_model_is_refused():
    # Q_2(sqrt 2, sqrt -1, sqrt -3) is table1's field with its generators in
    # another order, so the same span names other square classes: asked of
    # table1's vertices, its subfields gave wrong counts with no error (1
    # member in the subtree of Q_2(sqrt 2) against 4, 26 in that of
    # Q_2(sqrt 2, sqrt -1) against 10).  The refusal comes before the memo.
    ctx = counting.make_context("q8", 2, counting.OMEGA_ARGS)
    other = make_field(2, (2, -1, -3))
    assert other is not ctx.ambient
    own = {s.span: s for s in ctx.ambient.subfields()
           + [ctx.ambient.find_subfield(OMEGA.sqrt_args)]}
    foreign = other.subfields() + [other.find_subfield(other.sqrt_args)]
    for v in counting.count_integral_forms(ctx, counting.OMEGA_ARGS).vertices:
        order = twisted.VertexOrder(ctx.tree, ctx.triv, v)
        for sub in foreign:
            order.in_subtree(own[sub.span])
            with pytest.raises(InternalInvariant):
                order.in_subtree(sub)
