"""The subfield test where the cocycle is trivial on Gal(L/E).

When a_sigma = 1 in PGL_2 for every sigma fixing E (the cocycle moves
nothing, or sqrt(flip_d) lies in E), T_E is the standard E-tree, and
`VertexOrder._decide` decides a ramified pair with f(L/E) = 1 by one
distance test, r in (1/e_E)Z and dist(a, E) >= r for the vertex B(a, r),
where it ran the pivot kernel before.  The kernel stays in the program for
the twisted pairs and is the oracle here: on every such (member, E) pair of
`table1`, of the golden `count-local` contexts and of a fixed slice of
`scripts/ambient_sweep.py` at p <= 7, the closed form, the kernel's volume
test, a fresh `VertexOrder.in_subtree` and the digit test
`e_vertex_test_untwisted` must give one answer, and both answers must
occur.

The same predicate guards the shortcut "a level off E's value group is
outside", which holds only for those pairs.  Unguarded, it rejected every
member over the models of Q_3(sqrt -1) and Q_2(sqrt -3) that host no
trivialization themselves; the counts over those models must equal the
count over the model where E hosts one.
"""

import importlib.util
from pathlib import Path

import pytest

from bttwist import enumerate as counting
from bttwist.bttree import e_vertex_test_untwisted
from bttwist.linalg import pivot_valuation_sum
from bttwist.twisted import VertexOrder, sublattice_machinery
from test_branch_walk_diff import CASES  # the golden count-local cases

_SPEC = importlib.util.spec_from_file_location(
    "ambient_sweep",
    Path(__file__).resolve().parent.parent / "scripts" / "ambient_sweep.py")
sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sweep)


def closed_form_pairs(ctx) -> list:
    """(member order, E) for every member of the branch and every trivial,
    ramified E with f(L/E) = 1."""
    L = ctx.ambient
    subs = [s for s in L.subfields()
            if ctx.tree.cocycle.trivial_on(s.span)
            and s.field.e < L.e and s.field.f == L.f]
    if not subs:
        return []  # no walk needed
    return [(order, s) for order in counting.member_orders(ctx)
            for s in subs]


def answers(ctx, order, sub) -> tuple:
    """The closed form, the kernel's volume test, the program's answer on a
    fresh order and the digit test."""
    E, v = sub.field, order.v
    lattice = sublattice_machinery(sub)
    closed = ((v.level * E.e).denominator == 1
              and lattice.distance(v.center) >= v.level)
    total = pivot_valuation_sum(E, *lattice.functionals(order.lattice_inverse))
    kernel = total is not None and total == E.degree * ctx.triv.basis_valuation
    fresh = VertexOrder(ctx.tree, ctx.triv, v).in_subtree(sub)
    return closed, kernel, fresh, e_vertex_test_untwisted(v, sub)


def sweep_slice() -> list:
    """maxorder at p = 2 and all four groups at p = 3, 5 and 7, in every
    distinct ambient of the sweep with a trivialization."""
    out, seen = [], set()
    for group, primes in [("maxorder", (2, 3, 5, 7))] + [
            (g, (3, 5, 7)) for g in ("q8", "hurwitz", "dicyclic")]:
        for p in primes:
            for e_args in sweep.subfields_E(p):
                for L in sweep.ambients(p, e_args):
                    if (group, L.sqrt_args) not in seen:
                        seen.add((group, L.sqrt_args))
                        ctx = sweep.context(group, L)
                        if ctx is not None:
                            out.append(ctx)
    return out


SOURCES = {
    "table1": lambda: [counting.make_context("q8", 2, counting.OMEGA_ARGS)],
    "golden": lambda: [counting.make_context(g, p, a) for g, (p, a) in CASES],
    "sweep": sweep_slice,
}


@pytest.mark.parametrize("source", SOURCES)
def test_closed_form_agrees_with_the_kernel(source):
    seen, wrong = set(), []
    for ctx in SOURCES[source]():
        for order, sub in closed_form_pairs(ctx):
            got = answers(ctx, order, sub)
            seen.add(got[0])
            if len(set(got)) > 1:
                wrong.append((ctx.ambient, sub.field, order.v.key(), got))
    assert wrong == []
    assert seen == {True, False}


def test_table1_decides_its_kernel_pairs_in_closed_form():
    # table1's branch has 104 such pairs, 20 of them inside; the memo and
    # the invariance check leave 65 for the distance test
    ctx = counting.make_context("q8", 2, counting.OMEGA_ARGS)
    pairs = closed_form_pairs(ctx)
    assert len(pairs) == 104
    assert sum(answers(ctx, o, s)[0] for o, s in pairs) == 20


# models of one local field: (group, p, the model that hosts a
# trivialization over E itself, the other models of the same E)
ALIASES = [
    ("dicyclic", 3, (-1,), [(2,), (5,), (11,)]),
    ("maxorder", 3, (-1,), [(5,), (-7,)]),
    ("maxorder", 2, (-3,), [(13,), (-11,)]),
]


@pytest.mark.parametrize("group,p,home,models", ALIASES,
                         ids=[f"{g}-{p}" for g, p, _, _ in ALIASES])
def test_counts_do_not_depend_on_the_model_of_E(group, p, home, models):
    want = counting.count_local(group, p, home)
    assert (want.count, want.e, want.f) == (2, 1, 2)
    for args in models:
        rep = counting.count_local(group, p, args)
        assert (rep.count, rep.e, rep.f) == (2, 1, 2), args


def test_trivial_on_is_a_scalar_cocycle_on_the_fixing_group():
    seen = set()
    for ctx in SOURCES["table1"]() + SOURCES["golden"]():
        cocycle = ctx.tree.cocycle
        for sub in ctx.ambient.subfields():
            want = all(cocycle[s].is_scalar() for s in sub.fixing_masks())
            assert cocycle.trivial_on(sub.span) == want, (ctx.ambient, sub)
            seen.add(want)
    assert seen == {True, False}
