"""Counts that do not depend on the trivialization.

IF over E is a property of the group and E, so the count over E and the
geometry of its vertices cannot depend on which isomorphism of the algebra
with M_2(L) the counting context uses.  For each case below, every grid
solution of `find_trivialization`'s shapes is a trivialization: x^2 - a y^2
= b with x and y rational, or x, y or both pure in one square class d of L,
x1 and y1 on the grid `quatalg._SMALL`, both signs of each.  Over all of
them the signature of the count over E (count, e, f and the sorted pairwise
distances of its vertices) must be one.

Many of these trivializations twist Gal(L/E), so the slice runs the pivot
kernel.  With the off-grid-level shortcut unguarded (applied to twisted
pairs too), maxorder over Q_2(sqrt -3) inside Q_2(sqrt -1, sqrt -3, sqrt 2)
counts 2 under 24 of its 40 trivializations and 0 under 16, and dicyclic
and maxorder over Q_3(sqrt -1) count 0 under 4 of their 20.
"""

import importlib.util
from pathlib import Path

import pytest

from bttwist import enumerate as counting
from bttwist import twisted
from bttwist.padic import make_field
from bttwist.quatalg import _SMALL, standard_trivialization

_SPEC = importlib.util.spec_from_file_location(
    "ambient_sweep",
    Path(__file__).resolve().parent.parent / "scripts" / "ambient_sweep.py")
sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sweep)

GRID = list(dict.fromkeys(_SMALL))

# (group, p, L, E, distinct trivializations, least kernel calls over them);
# the slice makes at least 276 kernel calls in all
CASES = [
    ("maxorder", 2, (-1, -3, 2), (-3,), 40, 170),
    ("maxorder", 2, (-1, -3, 2), (-1,), 40, 22),
    ("hurwitz", 2, (-1, -3, 2), (2,), 24, 24),
    ("dicyclic", 3, (-1, 3), (-1,), 20, 30),
    ("maxorder", 3, (-1, 3), (-1,), 20, 30),
]


def grid_trivializations(alg, L) -> list:
    """Every distinct standard trivialization of the grid's shapes: the
    rational one (flip_d the first square class, as `find_trivialization`
    takes it), and for each square class d of L, x pure, y pure and both
    pure in sqrt(d)."""
    a, b = alg.a, alg.b
    ds = [L.span_class[m][0] for m in range(1, L.degree)]
    shapes = [(1, a, ds[0], L.one, L.one)]
    for d in ds:
        root = L.sqrt_of(d)
        shapes += [(d, a, d, root, L.one), (1, a * d, d, L.one, root),
                   (d, a * d, d, root, root)]
    out = {}
    for c, den, d, x_unit, y_unit in shapes:
        for x1 in GRID:
            for y1 in GRID:
                if c * x1 * x1 - den * y1 * y1 == b:
                    x, y = x_unit * x1, y_unit * y1
                    out.setdefault((d, x.coords, y.coords), (d, x, y))
    return [standard_trivialization(alg, L, d, x, y)
            for d, x, y in out.values()]


@pytest.mark.parametrize("group,p,L_args,E_args,n_triv,min_kernel", CASES,
                         ids=[f"{g}-{p}:{','.join(map(str, e))}"
                              for g, p, _, e, _, _ in CASES])
def test_counts_do_not_depend_on_the_trivialization(
        group, p, L_args, E_args, n_triv, min_kernel, monkeypatch):
    kernel = twisted.pivot_valuation_sum
    calls = []
    monkeypatch.setattr(twisted, "pivot_valuation_sum",
                        lambda *args: calls.append(1) or kernel(*args))
    L = make_field(p, L_args)
    alg, gens = sweep.algebra(group, p)
    trivs = grid_trivializations(alg, L)
    assert len(trivs) == n_triv
    sigs = {sweep.signature(counting.CountingContext(group, L, triv, gens),
                            E_args)
            for triv in trivs}
    assert len(sigs) == 1, [sig[:3] for sig in sigs]
    # the slice reaches the kernel, the path of the twisted pairs
    assert len(calls) >= min_kernel
