import ast
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bttwist import globalforms
from bttwist.errors import (BadN, DyadicSplit, ExistenceFails,
                            ExistenceUnknown, InvalidRepresentation,
                            NumberTooLarge, WrongResidue)
from bttwist.globalforms import (ClassGroup, case_c_example_rep,
                                 class_group, discriminant_of,
                                 dyadic_class_square, genus_number,
                                 global_count, h2, resolve_case_c,
                                 serre_existence)
from bttwist.padic import squarefree_part
from class_group_oracle import (FullTableClassGroup, QuadForm, compose,
                                principal_form)


SQUAREFREE = [n for n in range(1, 140) if squarefree_part(n)[0] == n]
SQUAREFREE_TO_1000 = [n for n in range(1, 1001)
                      if squarefree_part(n)[0] == n]
SRC = Path(globalforms.__file__).resolve().parent


def _oracle_forms(N):
    return [QuadForm(*f) for f in class_group(N).elements]


def _dyadic_form(N):
    """The reduced form of the prime over 2 when 2 | D."""
    f = QuadForm(2, 0, N // 2) if N % 2 == 0 else QuadForm(2, 2, (N + 1) // 2)
    return f.reduce()


class TestClassGroups:
    def test_small_groups(self):
        C = class_group(5)
        assert C.D == -20 and C.h == 2
        assert C.elements == [(1, 0, 5), (2, 2, 3)]
        assert class_group(1).h == 1
        C6 = class_group(6)
        assert C6.h == 2 and C6.elements == [(1, 0, 6), (2, 0, 3)]
        assert class_group(23).h == 3
        assert class_group(47).h == 5

    def test_reduction(self):
        f = QuadForm(6, 7, 3)
        r = f.reduce()
        assert r.is_reduced() and r.D == f.D

    def test_identity_and_inverse(self):
        full = FullTableClassGroup(14)
        e = full.identity
        for f in full.elements:
            assert compose(f, e) == f
            assert compose(f, f.inverse()) == e

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([5, 6, 14, 23, 26, 47, 41]), st.data())
    def test_composition_laws(self, N, data):
        forms = _oracle_forms(N)
        i = data.draw(st.integers(0, len(forms) - 1))
        j = data.draw(st.integers(0, len(forms) - 1))
        k = data.draw(st.integers(0, len(forms) - 1))
        f, g, hq = forms[i], forms[j], forms[k]
        assert compose(f, g) == compose(g, f)
        assert compose(compose(f, g), hq) == compose(f, compose(g, hq))

    def test_two_torsion_vs_genus_theory(self):
        for N in SQUAREFREE:
            C = class_group(N)
            assert C.h2() == genus_number(N), N
            # the ambiguous reduced forms are exactly the classes that
            # Gauss composition sends to the identity when doubled
            e = principal_form(C.D).reduce()
            ambiguous = {(a, b, c) for a, b, c in C.elements
                         if b == 0 or b == a or a == c}
            order_two = {(f.a, f.b, f.c) for f in _oracle_forms(N)
                         if compose(f, f) == e}
            assert ambiguous == order_two, N

    @pytest.mark.parametrize("N", SQUAREFREE_TO_1000)
    def test_h2_and_squares_match_the_full_table(self, N):
        C, full = class_group(N), FullTableClassGroup(N)
        assert C.elements == [(f.a, f.b, f.c) for f in full.elements]
        assert (C.h, C.h2(), h2(C)) == (full.h, full.h2(), full.h2())
        if C.D % 2 == 0:
            assert dyadic_class_square(N) == (_dyadic_form(N)
                                              in full.squares())

    def test_case_c_to_60(self):
        # ROADMAP item 3 lists these 16 squarefree N <= 60 in case (c)
        case_c = [N for N in SQUAREFREE if N <= 60 and N % 8 in (1, 2, 5, 6)
                  and global_count(N, assert_existence=True)["case"] == "c"]
        assert case_c == [5, 6, 10, 13, 21, 22, 26, 29, 30, 33, 37, 38, 42,
                          53, 57, 58]

    def test_src_composes_no_forms(self):
        # genus theory replaced Gauss composition: no module defines or
        # reads the composition machinery, and a class group holds only
        # its reduced forms
        gone = {"QuadForm", "compose", "_coprime_representative", "_xgcd",
                "principal_form", "FullTableClassGroup"}
        for path in sorted(SRC.glob("*.py")):
            tree = ast.parse(path.read_text())
            names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(tree)
                      if isinstance(n, ast.Attribute)}
            names |= {n.name for n in ast.walk(tree)
                      if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
            assert not names & gone, (path.name, names & gone)
        assert set(vars(class_group(479))) == {"N", "D", "elements", "h"}
        assert not {"product", "squares", "table", "identity"} & set(
            vars(ClassGroup))

    def test_h2_examples(self):
        assert h2(class_group(5)) == 2
        assert h2(class_group(1)) == 1
        assert h2(class_group(35)) == 2
        assert h2(class_group(30)) == 4

    def test_discriminant_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(globalforms, "CLASS_GROUP_DISC_LIMIT", 20)
        assert class_group(5).D == -20
        with pytest.raises(NumberTooLarge):
            class_group(6)  # D = -24
        with pytest.raises(NumberTooLarge):
            global_count(6, assert_existence=True)

    @pytest.mark.parametrize("helper", [serre_existence, genus_number,
                                        dyadic_class_square])
    def test_genus_helpers_check_the_limit(self, helper):
        # regression: each trial-divided up to sqrt(N) with no bound, about
        # 1.2 s for this prime (3 mod 8, so serre_existence applies)
        start = time.perf_counter()
        with pytest.raises(NumberTooLarge):
            helper(100000000000067)
        assert time.perf_counter() - start < 0.1

    def test_bad_n(self):
        with pytest.raises(BadN):
            discriminant_of(12)
        with pytest.raises(BadN):
            discriminant_of(-5)
        with pytest.raises(BadN):
            discriminant_of(0)
        with pytest.raises(BadN):
            serre_existence(0)
        for helper in (serre_existence, genus_number, dyadic_class_square):
            with pytest.raises(BadN):
                helper(12)


class TestDyadicClass:
    def test_examples(self):
        assert dyadic_class_square(5) is False
        assert dyadic_class_square(6) is False
        assert dyadic_class_square(1) is True
        assert dyadic_class_square(2) is True
        assert dyadic_class_square(10) is False
        # N=14: class group is cyclic of order 4, so the
        # norm-2 class is the square of a generator
        assert dyadic_class_square(14) is True

    def test_split_and_inert_raise(self):
        with pytest.raises(DyadicSplit):
            dyadic_class_square(7)   # D = -7: 2 splits
        with pytest.raises(DyadicSplit):
            dyadic_class_square(3)   # D = -3: 2 inert

    def test_error_order(self, monkeypatch):
        # BadN, then the limit, then the splitting of 2
        monkeypatch.setattr(globalforms, "CLASS_GROUP_DISC_LIMIT", 6)
        with pytest.raises(BadN):
            dyadic_class_square(12)
        with pytest.raises(NumberTooLarge):
            dyadic_class_square(7)
        with pytest.raises(DyadicSplit):
            dyadic_class_square(3)


class TestExistence:
    def test_examples(self):
        assert serre_existence(3) is True
        assert serre_existence(11) is True
        assert serre_existence(35) is False
        assert serre_existence(19) is True
        assert serre_existence(115) is False  # 5 * 23

    def test_representation_oracle(self):
        # N = x^2 + 2 y^2 is solvable exactly when the criterion passes
        for N in [n for n in SQUAREFREE if n % 8 == 3]:
            found = any(N == x * x + 2 * y * y
                        for x in range(0, 12) for y in range(0, 9))
            assert serre_existence(N) == found, N

    def test_wrong_residue(self):
        with pytest.raises(WrongResidue):
            serre_existence(5)


class TestGlobalCount:
    def test_case_a(self):
        out = global_count(3)
        assert out["case"] == "a" and out["count"] == 2
        out11 = global_count(11)
        assert out11["count"] == 2 * out11["h2"] == 2

    def test_existence_failure(self):
        with pytest.raises(ExistenceFails):
            global_count(35)

    def test_existence_must_be_asserted(self):
        with pytest.raises(ExistenceUnknown):
            global_count(5)

    def test_case_b(self):
        out = global_count(2, assert_existence=True)
        assert out["case"] == "b" and out["count"] == 4 * out["h2"] == 4

    def test_case_c_pair_and_resolution(self):
        out5 = global_count(5, assert_existence=True, resolve=True)
        assert out5["case"] == "c"
        assert out5["case_c_pair"] == (2, 6)
        assert out5["count"] == 6
        out6 = global_count(6, assert_existence=True, resolve=True)
        assert out6["case_c_pair"] == (2, 6) and out6["count"] == 2

    def test_resolution_stays_in_the_pair(self):
        for N in (5, 6):
            out = global_count(N, assert_existence=True, resolve=True)
            assert out["count"] in out["case_c_pair"]

    def test_ambiguous_residue_seven(self):
        # 7 mod 8 appears in only one stated range, and its dyadic place
        # splits, so the squareness test cannot apply
        with pytest.raises(DyadicSplit):
            global_count(15, assert_existence=True)

    def test_invalid_representation(self):
        from bttwist.bttree import MoebiusMap
        from bttwist.padic import make_field
        f = make_field(2, (-5,))
        bad_i = MoebiusMap.from_rows(f, [[0, 1], [1, 0]])  # squares to +1
        _, j = case_c_example_rep(5)
        with pytest.raises(InvalidRepresentation):
            resolve_case_c((bad_i, j), 2)

    def test_global_run_builds_one_class_group(self, monkeypatch, capsys):
        from bttwist import cli
        builds = []
        init = ClassGroup.__init__

        def counted(self, N):
            builds.append(N)
            init(self, N)

        monkeypatch.setattr(ClassGroup, "__init__", counted)
        assert cli.main(["global", "-N", "5", "--resolve"]) == 0
        assert '"count": 6' in capsys.readouterr().out
        assert builds == [5]


def test_principal_form():
    assert principal_form(-20) == QuadForm(1, 0, 5)
    assert principal_form(-3) == QuadForm(1, 1, 1)
