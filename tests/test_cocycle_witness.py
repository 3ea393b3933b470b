"""`twisted.Cocycle` checks the law once per sigma on its witness W; the
oracle is the law pair by pair (`cocycle_oracle.first_violation`) on the
table {sigma: W^eps(sigma)}.

For every witness the program builds (the golden `count-local` contexts,
`table1`'s, and the three of criterion 10 of `bttwist verify`) and for
corrupted witnesses, the construction raises exactly when the oracle finds
a failing pair, and names the s of the first one.  The construction's
field products are counted on `table1`'s context.
"""

import pytest

from bttwist import enumerate as counting
from bttwist.bttree import MoebiusMap
from bttwist.errors import CocycleLawViolated
from bttwist.padic import FieldElement, make_field
from bttwist.quatalg import find_trivialization, maxorder_generators
from bttwist.twisted import Cocycle, trivial_cocycle
from cocycle_oracle import first_violation, witness_table
from test_branch_walk_diff import CASES  # the golden count-local cases


def law_fails_where_the_oracle_does(field, flip_d, witness):
    """Cocycle(field, flip_d, witness) raises exactly when the pair-by-pair
    law fails on the witness's table, naming the s of the first failing
    pair; True when it raised."""
    want = first_violation(field, witness_table(field, flip_d, witness))
    if want is None:
        Cocycle(field, flip_d, witness)
        return False
    with pytest.raises(CocycleLawViolated) as err:
        Cocycle(field, flip_d, witness)
    assert f"sigma = {want[0]}" in str(err.value)
    return True


def _entries(m):
    return (m.a, m.b, m.c, m.d)


def _is_its_table(coc, flip_d):
    table = witness_table(coc.field, flip_d, coc.witness)
    return all(_entries(coc[s]) == _entries(table[s])
               for s in range(coc.field.degree))


@pytest.mark.parametrize("group,field", CASES,
                         ids=[f"{g}-{p}:{','.join(map(str, a))}"
                              for g, (p, a) in CASES])
def test_count_local_witnesses(group, field):
    p, args = field
    ctx = counting.make_context(group, p, args)
    t = ctx.triv
    assert not law_fails_where_the_oracle_does(ctx.ambient, t.flip_d,
                                               t.cocycle_witness)
    assert _is_its_table(ctx.tree.cocycle, t.flip_d)


def test_verify_witnesses():
    # criterion 10 builds the division algebra's cocycle over the dyadic
    # tower and over Q_2(sqrt -3), and trivial ones over the wild quadratics
    alg, _ = maxorder_generators(2, -3)
    for args in ((-1, -3, 2), (-3,)):
        F = make_field(2, args)
        t = find_trivialization(alg, F)
        assert t.flip_d != 1
        assert not law_fails_where_the_oracle_does(F, t.flip_d,
                                                   t.cocycle_witness)
    for alpha in (-1, 2):
        L = make_field(2, (alpha,))
        coc = trivial_cocycle(L)
        assert not law_fails_where_the_oracle_does(L, 1, coc.witness)
        assert _is_its_table(coc, 1) and coc.moving == frozenset()


_CORRUPTED = [[[1, 1], [0, 1]], [[0, 1], [2, 0]], [[1, "r"], [0, 1]],
              [[1, 0], [0, 0]], [[0, 0], [0, 0]], [[0, "r"], [1, 0]]]


@pytest.mark.parametrize("args,flip_d", [
    ((-3,), -3), ((-3, 2), -3), ((-3, 2), 2), ((-3, 2), -6), ((-3, 2), 1),
    ((-1, -3, 2), -3),
])
def test_corrupted_witnesses(args, flip_d):
    F = make_field(2, args)
    r = F.sqrt_of(2) if 2 in args else F.one
    raised = [law_fails_where_the_oracle_does(
        F, flip_d, MoebiusMap.from_rows(
            F, [[r if x == "r" else x for x in row] for row in rows]))
        for rows in _CORRUPTED]
    # d = 1 leaves the witness unused; otherwise [[1, 1], [0, 1]] squares to
    # a non-scalar, a singular map or zero never squares to a unit
    if flip_d == 1:
        assert not any(raised)
    else:
        assert raised[0] and raised[3] and raised[4]


def test_table1_cocycle_field_products(monkeypatch):
    ctx = counting.make_context("q8", 2, counting.OMEGA_ARGS)
    calls = [0]
    mul = FieldElement.__mul__

    def counted(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(FieldElement, "__mul__", counted)
    Cocycle(ctx.ambient, ctx.triv.flip_d, ctx.triv.cocycle_witness)
    cocycle = calls[0]
    calls[0] = 0
    counting.make_context("q8", 2, counting.OMEGA_ARGS)
    # one proj_eq per sigma: W s(W) against 1 at the four sigma flipping
    # sqrt(-3), s(W) against W at the other four
    assert cocycle <= 48
    assert calls[0] <= 203
