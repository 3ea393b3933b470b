"""The subfield test's lattice inverse on the walk's members, and the
context's invariants in closed form, against the slow paths they replace.

- `member_orders` builds a `VertexOrder` for each member the walk
  `branch_vertices` yields; its `lattice_inverse`, the inverse of
  `order_lattice_of_vertex`, must equal `conjugate_by_vertex` of the four
  basis matrices (1, I, J, IJ), on every member of `table1` and of every
  golden `count-local` branch.
- `basis_valuation` is v_p(4ab); the oracle is v(det T) for the four
  groups' algebras over the fields of `test_trivialization_diff`, and for
  its seeded sample of algebras.
- `_check_irreducible` accepts a pair of images with det(AB - BA) != 0 at
  once; the oracle is the rank loop, on every golden context, a triple
  whose pairs each share an eigenvector (so the rank loop runs) and a
  reducible pair.
- The cocycle law is one check per sigma on the witness W; a corrupted
  witness must fail at the sigma of the first pair where the pair-by-pair
  law (`cocycle_oracle.first_violation`) fails on {sigma: W^eps(sigma)}.
"""

from fractions import Fraction

import pytest

import test_trivialization_diff as triv_diff
from bttwist import enumerate as counting
from bttwist.branch import conjugate_by_vertex
from bttwist.bttree import MoebiusMap
from bttwist.errors import (CocycleLawViolated, FieldTooSmall,
                            NotAbsolutelyIrreducible)
from bttwist.linalg import det, rank
from bttwist.padic import make_field
from bttwist.quatalg import (HAMILTON, QuaternionAlgebra, find_trivialization,
                             maxorder_generators, q8_trivialization,
                             standard_groups)
from bttwist.twisted import Cocycle
from cocycle_oracle import first_violation, witness_table
from test_branch_walk_diff import CASES  # the golden count-local cases
from test_cocycle_witness import law_fails_where_the_oracle_does


def lattice_inverse_by_conjugation(triv, v):
    """B^-1 with every basis matrix conjugated into the vertex basis: column
    j is M^-1 b_j M, and `conjugate_by_vertex` uses the basis
    [[t, a], [0, 1]], M = [[a, t], [1, 0]] with its columns swapped, so
    its entries are read in reverse."""
    xs = [conjugate_by_vertex(b, v) for b in triv.basis]
    return [[x[k] for x in xs] for k in (3, 2, 1, 0)]


def _mismatches(ctx):
    """The members whose lattice inverse differs from the conjugations, and
    how many members there are."""
    orders = counting.member_orders(ctx)
    wrong = [o.v.key() for o in orders if o.lattice_inverse
             != lattice_inverse_by_conjugation(ctx.triv, o.v)]
    return wrong, len(orders)


def test_walk_fed_lattice_inverse_on_the_table1_branch():
    ctx = counting.make_context("q8", 2, counting.OMEGA_ARGS)
    assert _mismatches(ctx) == ([], 26)


@pytest.mark.parametrize("group,field", CASES,
                         ids=[f"{g}-{p}:{','.join(map(str, a))}"
                              for g, (p, a) in CASES])
def test_walk_fed_lattice_inverse_on_count_local_branches(group, field):
    p, args = field
    wrong, n = _mismatches(counting.make_context(group, p, args))
    assert wrong == [] and n > 0


# -- basis_valuation -------------------------------------------------------


def _group_trivializations(p, args):
    """Each group's trivialization over the model that has one; q8 also by
    the composed trivialization where sqrt -3 is in the model."""
    F = make_field(p, args)
    algs = {name: alg for name, (alg, _) in standard_groups().items()}
    for delta in (-3, -1):
        algs[f"maxorder({p},{delta})"] = maxorder_generators(p, delta)[0]
    out = []
    for name, alg in algs.items():
        try:
            out.append((name, find_trivialization(alg, F)))
        except FieldTooSmall:
            pass
    if p == 2 and F.mask_of(-3) is not None:
        out.append(("q8 composed", q8_trivialization(F)))
    return out


def _det_valuation(triv):
    return det([list(m.entries) for m in triv.basis]).valuation()


@pytest.mark.parametrize("p,args", triv_diff.FIELDS,
                         ids=[f"{p}:{','.join(map(str, a))}"
                              for p, a in triv_diff.FIELDS])
def test_basis_valuation_is_the_determinants(p, args):
    found = _group_trivializations(p, args)
    for name, triv in found:
        assert triv.basis_valuation == _det_valuation(triv), name


def test_basis_valuation_on_the_seeded_algebras():
    checked = 0
    for a, b, p, args in triv_diff.SAMPLE:
        try:
            triv = find_trivialization(
                QuaternionAlgebra(Fraction(a), Fraction(b)),
                make_field(p, args))
        except FieldTooSmall:
            continue
        checked += 1
        assert triv.basis_valuation == _det_valuation(triv), (a, b, p, args)
    assert checked >= 20
    # and the composed trivialization over the full dyadic tower
    triv = q8_trivialization(make_field(2, counting.OMEGA_ARGS))
    assert triv.alg == HAMILTON
    assert triv.basis_valuation == _det_valuation(triv) == 2


# -- the irreducibility check ---------------------------------------------


def rank_loop(field, images) -> int:
    """The rank of the algebra the images generate, by adding products."""
    elems = [MoebiusMap.identity(field)] + list(images)
    r = rank([m.entries for m in elems])
    while r < 4:
        cand = elems + [x * y for x in elems for y in images]
        new_r = rank([m.entries for m in cand])
        if new_r == r:
            break
        elems, r = cand, new_r
    return r


def _check(field, images):
    """`CountingContext._check_irreducible` on the given images."""
    ctx = counting.CountingContext.__new__(counting.CountingContext)
    ctx.ambient, ctx.images = field, images
    return ctx._check_irreducible()


def _maps(field, *rows):
    return [MoebiusMap.from_rows(field, r) for r in rows]


@pytest.mark.parametrize("group,field", CASES,
                         ids=[f"{g}-{p}:{','.join(map(str, a))}"
                              for g, (p, a) in CASES])
def test_commutator_shortcut_on_count_local_contexts(group, field,
                                                     monkeypatch):
    p, args = field
    ctx = counting.make_context(group, p, args)
    assert rank_loop(ctx.ambient, ctx.images) == 4
    ranks = []
    monkeypatch.setattr(counting, "rank", lambda m: ranks.append(1) or rank(m))
    _check(ctx.ambient, ctx.images)
    assert ranks == []  # some pair of group images never shares a line


def test_pairwise_reducible_triple_runs_the_rank_loop(monkeypatch):
    # A fixes the lines of e1 and e2, B those of e2 and e1 + e2, C those of
    # e1 + e2 and e1: each pair shares an eigenvector, the three none
    F = make_field(2, (-1,))
    images = _maps(F, [[1, 0], [0, 2]], [[3, 0], [1, 2]], [[2, 1], [0, 3]])
    for i in range(3):
        for j in range(i + 1, 3):
            x, y = images[i], images[j]
            assert (x * y + -(y * x)).det().is_zero()
    assert rank_loop(F, images) == 4
    ranks = []
    monkeypatch.setattr(counting, "rank", lambda m: ranks.append(1) or rank(m))
    _check(F, images)
    assert ranks  # the shortcut could not decide


def test_reducible_pair_raises():
    F = make_field(2, (-3, 2))
    images = _maps(F, [[1, 1], [0, 2]], [[3, 5], [0, 1]])
    assert rank_loop(F, images) < 4
    with pytest.raises(NotAbsolutelyIrreducible):
        _check(F, images)


# -- the cocycle law -------------------------------------------------------


def test_corrupted_cocycle_fails_where_the_shortcut_applies():
    # a rational witness is its own conjugate, s(W) = W, so the law at the
    # sigma fixing sqrt(d) holds and it fails at the first sigma flipping
    # sqrt(2), where W W = [[1, 2], [0, 1]] is not scalar
    F = make_field(2, (-3, 2))
    W, = _maps(F, [[1, 1], [0, 1]])
    assert first_violation(F, witness_table(F, 2, W)) == (2, 2)
    with pytest.raises(CocycleLawViolated) as err:
        Cocycle(F, 2, W)
    assert "sigma = 2" in str(err.value)


def test_shared_objects_and_rational_maps_still_fail_at_the_same_pair():
    # replace the table1 witness, one shared object at every sigma flipping
    # sqrt(d), by rational and irrational maps, a singular one and zero
    ctx = counting.make_context("q8", 2, counting.OMEGA_ARGS)
    F, coc = ctx.ambient, ctx.tree.cocycle
    r = F.sqrt_of(2)
    odd = _maps(F, [[1, 1], [0, 1]], [[0, 1], [2, 0]], [[1, 0], [0, 0]],
                [[0, 0], [0, 0]])
    odd.append(MoebiusMap(F.one, r, F.zero, F.one))
    raised = [law_fails_where_the_oracle_does(F, ctx.triv.flip_d, W)
              for W in [coc.witness] + odd]
    # [[0, 1], [2, 0]] squares to 2 and is rational: a cocycle
    assert raised == [False, True, False, True, True, True]
