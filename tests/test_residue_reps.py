"""The closed-form residue representatives and the uniformizer.

`LocalField.residue_reps` writes the representatives down; the oracle in
`fraction_kernel.OracleField` still finds them by the original search of
one- and two-term combinations of small rationals and unit monomials, and
the uniformizer by its original five stages.  Up to p = 13 the two must
agree element for element and in order, since every vertex id and digit
is read from them.
"""

from fractions import Fraction
from itertools import combinations

import pytest

from bttwist import padic
from bttwist.errors import NotSquareFree, NumberTooLarge, SplitPrime
from bttwist.padic import (LocalField, make_field, quad_ext_type,
                           squarefree_part)

import fraction_kernel as oracle

# the least non-residue unit at each odd prime, generating the unramified
# quadratic
_UNRAMIFIED = {3: -1, 5: 2, 7: -1, 11: -1, 13: 2}

# every (e, f) shape at each prime, and models whose unramified monomial
# is scaled to a unit (sqrt(-9) over Q_3(sqrt 3, sqrt -3), sqrt(20) over
# Q_2(sqrt 2, sqrt 10), sqrt(-12) over Q_2(sqrt -2, sqrt 6))
MODELS = [(2, ()), (2, (-3,)), (2, (-1,)), (2, (-1, -3)), (2, (-1, 2)),
          (2, (2, 10)), (2, (-2, 6)), (2, (-1, -3, 2)), (2, (3, 5, 2)),
          (3, (3, -3))]
for _p, _u in _UNRAMIFIED.items():
    MODELS += [(_p, ()), (_p, (_u,)), (_p, (_p,)), (_p, (_u, _p))]


@pytest.mark.parametrize("p,args", MODELS)
def test_closed_form_matches_the_search(p, args):
    f, o = LocalField(p, args), oracle.make_field(p, args)
    reps = f.residue_reps
    assert len(reps) == f.q
    assert [r.coords for r in reps] == [r.coords for r in o.residue_reps]
    assert reps[:2] == (f.zero, f.one)
    assert f.uniformizer.coords == o.uniformizer.coords


def test_the_shapes_are_all_there():
    shapes = {(p, make_field(p, args).e, make_field(p, args).f)
              for p, args in MODELS}
    assert shapes == ({(2, e, f) for e in (1, 2, 4) for f in (1, 2)}
                      | {(p, e, f) for p in _UNRAMIFIED
                         for e in (1, 2) for f in (1, 2)})


def _residue(x, p):
    return x.numerator * pow(x.denominator, -1, p) % p


def _residue_pairs(f):
    """(a mod p, b mod p) for each representative a + b u, u the scaled
    unramified monomial: the residue a + b u-bar, read from coordinates
    (exact at odd p, where the degree is prime to p)."""
    p, mask = f.p, f.unramified_mask
    m = f.monomial(mask)
    scale = m.coords[mask] / p ** int(m.valuation())
    out = []
    for r in f.residue_reps:
        assert not any(c for s, c in enumerate(r.coords)
                       if s not in (0, mask))
        out.append((_residue(r.coords[0], p),
                    _residue(r.coords[mask] / scale, p)))
    return out


@pytest.mark.parametrize("p", [17, 19, 23, 59, 61])
def test_every_residue_class_past_the_pool(p):
    # past p = 13 the pool misses classes, and the least positive integers
    # of the missing ones follow it
    reps = make_field(p, ()).residue_reps
    assert sorted(_residue(r.rational_value(), p) for r in reps) == \
        list(range(p))
    assert all(r.valuation() == 0 for r in reps[1:])
    u = next(d for d in (-1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10)
             if quad_ext_type(d, p) == "unramified")
    for args in ((u,), (p, u)):
        g = make_field(p, args)
        assert len(set(_residue_pairs(g))) == p * p == len(g.residue_reps)
        assert g.residue_reps[:2] == (g.zero, g.one)


def test_differences_of_representatives_are_units_at_17():
    f = make_field(17, (3,))
    reps = f.residue_reps[:40]
    assert all((x - y).valuation() == 0 for x, y in combinations(reps, 2))


def _dyadic_e4_models():
    sf = [d for d in range(-15, 16)
          if d not in (0, 1) and squarefree_part(d)[0] == d]
    out = []
    for args in list(combinations(sf, 2)) + list(combinations(sf[::3], 3)):
        try:
            f = make_field(2, args)
        except (NotSquareFree, SplitPrime):
            continue
        if f.e == 4:
            out.append(args)
    return out


def test_dyadic_e4_uniformizers_need_no_fallback():
    # e = 4 models: the monomials, 1 + a monomial and (m1 +- m2)/2 - 1
    # always hold an element of valuation 1/4
    models = _dyadic_e4_models()
    assert len(models) >= 20
    for args in models:
        pi = LocalField(2, args).uniformizer
        assert pi.valuation() == Fraction(1, 4), args


def test_large_residue_fields_are_a_typed_error(monkeypatch):
    assert padic.RESIDUE_FIELD_LIMIT == 4096
    assert len(LocalField(61, (2,)).residue_reps) == 61 ** 2
    for p, args in ((67, (2,)), (4099, ()), (1000000007, (-1,))):
        with pytest.raises(NumberTooLarge, match=str(p ** (len(args) + 1))):
            LocalField(p, args).residue_reps
    monkeypatch.setattr(padic, "RESIDUE_FIELD_LIMIT", 8)
    assert len(LocalField(2, (-1, -3)).residue_reps) == 4
    with pytest.raises(NumberTooLarge):
        LocalField(3, (-1,)).residue_reps
