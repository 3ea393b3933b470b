import itertools
from fractions import Fraction

import pytest

from bttwist.errors import (FieldTooSmall, InternalInvariant,
                            NotAbsolutelyIrreducible, WindowInsufficient)
from bttwist.padic import Subfield, make_field
from bttwist.bttree import Vertex, distance
from bttwist import enumerate as counting
from bttwist.quatalg import maxorder_generators
from bttwist.twisted import subfield_vertex_test
from orders import order_closure


class TestQ8Local:
    def test_full_tower(self):
        rep = counting.count_local("q8", 2, (-1, -3, 2))
        assert rep.count == 26
        assert rep.e == 4 and rep.f == 2

    def test_totally_ramified_biquadratic(self):
        rep = counting.count_local("q8", 2, (-1, 2))
        assert rep.count == 10

    def test_unramified_quadratic_pair(self):
        rep = counting.count_local("q8", 2, (-3,))
        assert rep.count == 2

    def test_odd_prime_is_singleton(self):
        assert counting.count_local("q8", 3, (-1,)).count == 1
        assert counting.count_local("q8", 3, ()).count == 1

    def test_mixed_quartic_breakdown(self):
        # over E*F: six forms; two over the unramified quadratic, the others
        # over one of the two ramified quadratics
        ctx = counting.make_context("q8", 2, (-3, -1))
        rep = counting.count_integral_forms(ctx, (-3, -1))
        assert rep.count == 6
        amb = ctx.ambient
        subE = amb.find_subfield((-3,))
        over_e = [v for v in rep.vertices
                  if subfield_vertex_test(ctx.tree, ctx.triv, v, subE)]
        assert len(over_e) == 2
        subF = amb.find_subfield((-1,))
        subF2 = amb.find_subfield((3,))
        for v in rep.vertices:
            if any(v == w for w in over_e):
                continue
            assert (subfield_vertex_test(ctx.tree, ctx.triv, v, subF)
                    or subfield_vertex_test(ctx.tree, ctx.triv, v, subF2))


# the count-local contexts whose field is the whole ambient model
WHOLE_FIELD = [
    ("q8", 2, (-1, -3, 2)), ("q8", 2, (-3, -1)), ("q8", 2, (-3, 2)),
    ("q8", 2, (-3, 6)), ("q8", 2, (-3,)), ("maxorder", 2, (-3,)),
    ("maxorder", 2, (-1,)), ("maxorder", 2, (2,)), ("maxorder", 2, (-3, 2)),
    ("maxorder", 2, (-1, -3, 2)), ("hurwitz", 2, (-3,)),
    ("hurwitz", 3, (-1,)), ("dicyclic", 3, (-1,)), ("dicyclic", 2, (-6,)),
]


class TestWholeField:
    def test_lookup_returns_the_model_itself(self):
        amb = make_field(2, (-1, -3, 2))
        sub = amb.find_subfield(amb.sqrt_args)
        assert isinstance(sub, Subfield)
        assert sub.field is amb and sub.parent is amb
        assert sub.fixing_masks() == (0,)
        assert amb.find_subfield((-3, 2, -1)) == sub

    @pytest.mark.parametrize("group,p,args", WHOLE_FIELD)
    def test_subfield_test_keeps_the_lattice_members(self, group, p, args):
        ctx = counting.make_context(group, p, args)
        amb = ctx.ambient
        assert amb.sqrt_args == args
        sub = amb.find_subfield(args)
        level = Fraction(-1, 2) if amb.e % 2 == 0 else Fraction(0)
        members = counting.branch_vertices(ctx.images, Vertex(amb.zero, level))
        kept = [v for v in members
                if subfield_vertex_test(ctx.tree, ctx.triv, v, sub)]
        on_lattice = [v for v in members
                      if (v.level * amb.e).denominator == 1]
        assert [v.key() for v in kept] == [v.key() for v in on_lattice]


class TestMaxOrder:
    @pytest.mark.parametrize("args,want", [
        ((-3,), 2), ((-1,), 1), ((2,), 1), ((-3, 2), 3), ((-1, -3, 2), 5),
    ])
    def test_counts(self, args, want):
        rep = counting.count_local("maxorder", 2, args, (2, -3))
        assert rep.count == want
        # e + 1 when the unramified root is present
        span = set()
        from bttwist.padic import squarefree_part
        cur = {1}
        for d in args:
            cur = cur | {squarefree_part(d * x)[0] for x in cur}
        if -3 in cur:
            assert want == rep.e + 1
        else:
            assert want == 1

    @pytest.mark.parametrize("p", [3, 5])
    def test_split_algebra_over_the_base_field(self, p):
        # (-1,2) has the rational solution 1 - (-1) 1 = 2, so Q_p itself is
        # the ambient; a maximal order of the split algebra is one vertex
        alg, gens = maxorder_generators(-1, 2)
        assert order_closure(alg, gens, p)[1]
        rep = counting.count_local("maxorder", p, (), (-1, 2))
        assert rep.ambient_args == () and rep.count == 1

    def test_non_integral_generators_have_no_forms(self, monkeypatch):
        # (j - 1)/2 has reduced norm -1/4 in (-1,2), so at 2 no maximal order
        # contains it; the walk used to run to the vertex cap instead
        monkeypatch.setenv("BTTWIST_VERTEX_CAP", "30")
        assert counting.count_local("maxorder", 2, (), (-1, 2)).count == 0


class TestHurwitzDicyclic:
    def test_hurwitz(self):
        assert counting.count_local("hurwitz", 2, (-3,)).count == 2
        assert counting.count_local("hurwitz", 2, (2,)).count == 1
        assert counting.count_local("hurwitz", 3, (-1,)).count == 1
        assert counting.count_local("hurwitz", 5, ()).count == 1

    def test_dicyclic(self):
        # Q_3(sqrt 2) and Q_3(sqrt -1) are the same local field (-2 is a
        # 3-adic square); the model uses -1
        assert counting.count_local("dicyclic", 3, (-1,)).count == 2
        assert counting.count_local("dicyclic", 3, (3,)).count == 1
        assert counting.count_local("dicyclic", 2, (-6,)).count == 1


class TestStructuralProperties:
    def test_monotone_in_the_subfield(self):
        data = counting.table1()
        ids = {tuple(r["field"]): set(r["vertex_ids"]) for r in data["rows"]}
        # quadratic rows embed into the quartic rows containing them
        from bttwist.padic import squarefree_part
        for quart, vs in ids.items():
            if len(quart) != 2:
                continue
            span = {quart[0], quart[1],
                    squarefree_part(quart[0] * quart[1])[0]}
            for d in span:
                assert ids[(d,)] <= vs

    def test_vertex_set_is_galois_stable(self):
        ctx = counting.make_context("q8", 2, (-1, -3, 2))
        rep = counting.count_integral_forms(ctx, (-3,))
        keys = {v.key() for v in rep.vertices}
        sub = ctx.ambient.find_subfield((-3,))
        for v in rep.vertices:
            for s in sub.fixing_masks():
                assert ctx.tree.apply(s, v).key() in keys

    def test_shell_structure_over_tower(self):
        rep = counting.count_local("q8", 2, (-1, -3, 2))
        center = Vertex(make_field(2, (-1, -3, 2)).zero, Fraction(-1, 2))
        from collections import Counter
        shells = Counter(distance(center, v) for v in rep.vertices)
        assert shells == {Fraction(0): 1, Fraction(1, 4): 5,
                          Fraction(1, 2): 20}

    def test_window_grows_from_tiny_start(self):
        ctx = counting.make_context("q8", 2, (-3,))
        rep = counting.count_integral_forms(ctx, (-3,))
        assert rep.count == 2

    def test_window_insufficient_at_cap(self):
        import os
        ctx = counting.make_context("q8", 2, (-3,))
        os.environ["BTTWIST_VERTEX_CAP"] = "3"
        try:
            with pytest.raises(WindowInsufficient):
                counting.count_integral_forms(ctx, (-3,))
        finally:
            del os.environ["BTTWIST_VERTEX_CAP"]

    def test_walk_fits_a_cap_the_doubling_scan_exceeds(self, monkeypatch):
        # the walk tests the 6 members and their 20 outside neighbors; the
        # doubling scan needed a 106-vertex window to see the branch inside
        ctx = counting.make_context("q8", 2, (-3, -1))
        monkeypatch.setenv("BTTWIST_VERTEX_CAP", "30")
        assert counting.count_integral_forms(ctx, (-3, -1)).count == 6

    def test_reducible_input_rejected(self):
        from bttwist.quatalg import HAMILTON, q8_trivialization, quat
        amb = make_field(2, (-3,))
        triv = q8_trivialization(amb)
        scalars = [quat(HAMILTON, 2), quat(HAMILTON, 3)]
        with pytest.raises(NotAbsolutelyIrreducible):
            counting.CountingContext("scalars", amb, triv, scalars)

    def test_report_count_mismatch_is_internal_invariant(self):
        rep = counting.count_local("q8", 2, (-3,))
        with pytest.raises(InternalInvariant):
            counting.IFReport(rep.group, rep.subfield_args, rep.ambient_args,
                              rep.e, rep.f, rep.count + 1, rep.vertices)

    @pytest.mark.parametrize("p,e_args,failures", [
        # q8 at p = 2 needs sqrt(-3); -3 * 5 is a square class that splits
        (2, (5,), ["NotInField", "SplitPrime"] + ["NotInField"] * 6),
        # the grid finds no solution; -1 and -2 split at 3, 2 is in E
        (3, (2,), ["FieldTooSmall"] * 2 + ["SplitPrime", "NotSquareFree",
                                           "SplitPrime"]
         + ["FieldTooSmall"] * 3),
    ])
    def test_field_too_small_names_every_ambient_tried(self, p, e_args,
                                                      failures):
        # regression: the message named only the last candidate's error
        with pytest.raises(FieldTooSmall) as info:
            counting.count_local("q8", p, e_args)
        head, *tried = str(info.value).split("; ")
        assert head == ("no trivialization of (-1,-1) over extensions of "
                        f"Q_{p}{e_args}")
        candidates = [e_args] + [e_args + (d,)
                                 for d in counting._TRIV_EXTENSIONS]
        assert [t.split(":")[0] for t in tried] == [
            f"{args} {error}" for args, error in zip(candidates, failures)]

    def test_no_small_unramified_unit_is_field_too_small(self):
        # -3, -1, 2, 3, 5, 6, 7 and their negatives are all squares mod 1009
        with pytest.raises(FieldTooSmall):
            counting.count_local("maxorder", 1009, ())

    def test_report_ids_are_canonical(self):
        rep = counting.count_local("q8", 2, (-3,))
        assert len(rep.vertex_ids) == rep.count
        assert len(set(rep.vertex_ids)) == rep.count


def _carry(x, field):
    """The image of x in a model of the same field with its generators in
    another order, under the isomorphism sending each sqrt(d) to sqrt(d)."""
    src = x.field.sqrt_args
    pos = [field.sqrt_args.index(d) for d in src]
    coords = [0] * field.degree
    for m, c in enumerate(x.coords):
        coords[sum(1 << pos[i] for i in range(len(src)) if m >> i & 1)] = c
    return field.el(coords)


class TestPermutedSqrtArgs:
    """Counts and vertex sets do not depend on the order of sqrt_args."""

    @staticmethod
    def _same_vertices(rep, other):
        amb = make_field(2, other.ambient_args)
        carried = [Vertex(_carry(v.center, amb), v.level)
                   for v in rep.vertices]
        assert rep.count == other.count
        assert (rep.e, rep.f) == (other.e, other.f)
        for v in carried:
            assert sum(v == w for w in other.vertices) == 1

    def test_full_tower_in_every_order(self):
        ref = counting.count_local("q8", 2, (-1, -3, 2))
        for args in itertools.permutations((-1, -3, 2)):
            self._same_vertices(ref, counting.count_local("q8", 2, args))

    def test_subfield_count_in_both_orders(self):
        # the ambient adds sqrt(-3), so both counts go through the subfield
        # test, against subfields (-1,2) and (2,-1) of different models
        ref = counting.count_local("q8", 2, (-1, 2))
        other = counting.count_local("q8", 2, (2, -1))
        assert ref.ambient_args == (-1, 2, -3)
        assert other.ambient_args == (2, -1, -3)
        self._same_vertices(ref, other)


class TestTable:
    def test_rows_and_cross(self):
        data = counting.table1()
        assert data["total"] == 26
        by_field = {r["field"]: r["count"] for r in data["rows"]}
        assert by_field[(-3,)] == 2
        assert all(by_field[(d,)] == 4 for d in (-1, 3, 2, -2, 6, -6))
        for fld, cnt in by_field.items():
            if len(fld) == 2:
                from bttwist.padic import squarefree_part
                span = {fld[0], fld[1], squarefree_part(fld[0] * fld[1])[0]}
                assert cnt == (6 if -3 in span else 10)
        assert set(data["cross_table"].values()) == {1}
        assert data["summary"]["quadratic_counts"] == [2, 4, 4, 4, 4, 4, 4]
        assert data["summary"]["quartic_counts"] == [6, 6, 6, 10, 10, 10, 10]

    def test_quartic_rows_union_quadratics_plus_deep_vertices(self):
        # a quartic count is its quadratic subfields' union, plus the extra
        # vertices exactly when the quartic is totally ramified
        data = counting.table1()
        ids = {tuple(r["field"]): set(r["vertex_ids"]) for r in data["rows"]}
        es = {tuple(r["field"]): r["e"] for r in data["rows"]}
        from bttwist.padic import squarefree_part
        for quart in [k for k in ids if len(k) == 2]:
            span = {quart[0], quart[1],
                    squarefree_part(quart[0] * quart[1])[0]}
            union = set()
            for d in span:
                union |= ids[(d,)]
            extra = ids[quart] - union
            if es[quart] == 4:
                assert len(extra) > 0
            else:
                assert not extra
