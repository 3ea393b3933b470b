"""`find_trivialization` against the grid search it replaced.

The row solve must return the grid's first hit, the same (flip_d, I, J), or
raise the same error, on a seeded sample of the (algebra, field) pairs below
and on every pair the golden CLI cases reach.  Over a degree-1 field a
rational solution is a trivialization with no Galois twist; the grid
search raised IndexError there.
"""

import random
from fractions import Fraction

import pytest

import trivialization_oracle as oracle
from bttwist.errors import FieldTooSmall, ZeroInput
from bttwist.padic import make_field
from bttwist.quatalg import QuaternionAlgebra, find_trivialization
from bttwist.twisted import Cocycle

PARAMS = [Fraction(n) for n in (-1, -2, -3, 2, 3, 5, -5, 6, -6, 7)] + [
    Fraction(1, 2), Fraction(-10)]
FIELDS = [(2, ()), (2, (-1,)), (2, (-3,)), (2, (2,)), (2, (-3, 2)),
          (2, (-1, -3, 2)), (3, ()), (3, (-1,)), (3, (3,)), (3, (-1, 3)),
          (5, ()), (5, (2,)), (5, (5,))]
ALL_PAIRS = [(a, b, p, args) for p, args in FIELDS
             for a in PARAMS for b in PARAMS]
SAMPLE = random.Random(8).sample(ALL_PAIRS, 100)

# (a, b, p, sqrt_args) of every find_trivialization call that replaying
# perfbench/golden.json makes: maxorder at p = 2, hurwitz at 3:-1 and
# dicyclic at 2:-6, 3:-1 and 3:3 (the last through its extension by -3)
GOLDEN_PAIRS = [(-3, -1, 2, (-6,)), (2, -3, 2, (-3,)), (2, -3, 2, (-1,)),
                (2, -3, 2, (2,)), (2, -3, 2, (-3, 2)), (2, -3, 2, (-1, -3, 2)),
                (-1, -1, 3, (-1,)), (-3, -1, 3, (-1,)), (-3, -1, 3, (3,)),
                (-3, -1, 3, (3, -3))]


def _outcome(search, a, b, p, args):
    alg = QuaternionAlgebra(Fraction(a), Fraction(b))
    try:
        t = search(alg, make_field(p, args))
    except FieldTooSmall:
        return "FieldTooSmall"
    return t.flip_d, [(m.a, m.b, m.c, m.d) for m in (t.I, t.J)]


def _id(pair):
    a, b, p, args = pair
    return f"({a},{b})@{p}:{','.join(map(str, args))}"


CASES = list(dict.fromkeys(SAMPLE + GOLDEN_PAIRS))


@pytest.mark.parametrize("a, b, p, args", CASES, ids=map(_id, CASES))
def test_row_solve_is_the_grids_first_hit(a, b, p, args):
    assert (_outcome(find_trivialization, a, b, p, args)
            == _outcome(oracle.find_trivialization, a, b, p, args))


def test_rational_solution_over_the_base_field():
    """111 of the 432 pairs over Q_2, Q_3 and Q_5 have a rational solution
    on the grid; each is a trivialization with an identity witness that
    builds a cocycle, and the rest raise FieldTooSmall."""
    solved = 0
    for p in (2, 3, 5):
        F = make_field(p, ())
        for a in PARAMS:
            for b in PARAMS:
                try:
                    t = find_trivialization(QuaternionAlgebra(a, b), F)
                except FieldTooSmall:
                    continue
                solved += 1
                W = t.cocycle_witness
                assert t.flip_d == 1
                assert (W.a, W.b, W.c, W.d) == (1, 0, 0, 1)
                Cocycle(F, t.flip_d, W)  # sqrt(1) is in every field
    assert solved == 111


def test_zero_parameter_raises():
    with pytest.raises(ZeroInput):
        find_trivialization(QuaternionAlgebra(Fraction(0), Fraction(1)),
                            make_field(2, (-1,)))
