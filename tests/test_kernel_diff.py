"""The integer-vector field kernel against the Fraction oracle.

Every operation must give exactly the oracle's result: the same coordinate
Fractions, valuations, defects, square roots and keys.  Fields cover
degrees 1, 2, 4 and 8 at p = 2, degrees 1, 2 and 4 at p = 3 (Q_3 has
four square classes, so no multiquadratic model of degree 8 keeps a unique
prime above 3) and degree 4 at p = 5, whose first generator is unramified.
Coordinates mix small and > 2^64 numerators with a denominator per
coordinate, so the common denominator is a true lcm.

The integer product itself is checked against the monomial-table loop,
which `LocalField._mul` ran at every length before the lengths 1, 2 and 4
were written out, on every prefix length of every field.  The integer norm
and adjugate, written out over the tower for every model degree, are
checked against the loop down the tower that took them before, on every
field; the degree bound they rest on is checked too.
"""

import itertools
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

import fraction_kernel as oracle
from bttwist.errors import (InternalInvariant, NotInField, NotSquareFree,
                            SplitPrime)
from bttwist.padic import (FieldElement, _element_sqrt, _norm_kernels,
                           make_field)

FIELDS = [(2, ()), (2, (-3,)), (2, (-3, 2)), (2, (-1, -3, 2)),
          (3, ()), (3, (2,)), (3, (-1, 3)), (5, (2, 5))]

BIG = 2 ** 64
numerators = st.one_of(st.integers(-9, 9), st.integers(-9, 9),
                       st.integers(BIG, 2 ** 80), st.integers(-2 ** 80, -BIG))
denominators = st.one_of(st.sampled_from([1, 1, 1, 2, 3, 4, 6, 9, 12]),
                         st.integers(BIG, 2 ** 70))
coords = st.builds(Fraction, numerators, denominators)
SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def field_elements(draw, count):
    """(new field, oracle field, [coordinate lists]) on one random field."""
    p, args = draw(st.sampled_from(FIELDS))
    new, old = make_field(p, args), oracle.make_field(p, args)
    n = new.degree
    sparse = st.one_of(coords, st.just(Fraction(0)))
    vecs = [draw(st.lists(sparse, min_size=n, max_size=n))
            for _ in range(count)]
    return new, old, vecs


def table_mul(sqrt_args, a, b):
    """The product of two integer vectors of length n over the monomial
    table m_S * m_T = (product of d_i for i in S & T) * m_(S xor T)."""
    n = len(a)
    mult = [[prod(d for i, d in enumerate(sqrt_args) if (s & t) >> i & 1)
             for t in range(n)] for s in range(n)]
    out = [0] * n
    nz = [(t, cb) for t, cb in enumerate(b) if cb]
    for s, ca in enumerate(a):
        if not ca:
            continue
        row = mult[s]
        for t, cb in nz:
            out[s ^ t] += ca * cb * row[t]
    return tuple(out)


def tower_norm(sqrt_args, num):
    """(N, y): the integer norm N of the integer vector num, taken down the
    tower by monomial-table products (at each stage x * sigma(x), sigma
    flipping the top generator, lies in the half-degree subfield), and the
    integer vector y with num * y = N, assembled back up the tower from the
    conjugates."""
    n, x, conjugates = len(num), tuple(num), []
    while n > 1:
        h = n >> 1
        sx = x[:h] + tuple([-c for c in x[h:]])
        product = table_mul(sqrt_args, x, sx)
        if any(product[h:]):
            raise InternalInvariant("tower norm left the subfield")
        conjugates.append(sx)
        x, n = product[:h], h
    y = (1,)
    for sx in reversed(conjugates):
        y = table_mul(sqrt_args, sx, y + (0,) * (len(sx) - len(y)))
    return x[0], y


PREFIXES = [(p, args, 1 << j) for p, args in FIELDS
            for j in range(len(args) + 1)]
integers = st.one_of(st.just(0), st.just(0), st.integers(-9, 9),
                     st.integers(BIG, 2 ** 80), st.integers(-2 ** 80, -BIG))


@pytest.mark.parametrize("p,args,n", PREFIXES,
                         ids=[f"{p}:{','.join(map(str, a))}-n{n}"
                              for p, a, n in PREFIXES])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mul_agrees_with_the_table(p, args, n, data):
    f = make_field(p, args)
    vec = st.lists(integers, min_size=n, max_size=n).map(tuple)
    a, b = data.draw(vec), data.draw(vec)
    got = f._mul(a, b)
    assert type(got) is tuple
    assert got == table_mul(args, a, b)


@pytest.mark.parametrize("p,args", FIELDS, ids=[
    f"{p}:{','.join(map(str, a))}" for p, a in FIELDS])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_norm_and_adjugate_agree_with_the_tower(p, args, data):
    f = make_field(p, args)
    x = data.draw(st.lists(integers, min_size=f.degree,
                           max_size=f.degree).map(tuple))
    norm, adjugate = tower_norm(args, x)
    assert f._norm(x) == norm
    got = f._norm_adjugate(x)
    assert type(got[1]) is tuple and got == (norm, adjugate)
    assert f._mul(x, got[1]) == (norm,) + (0,) * (f.degree - 1)


# Q_p has 8 square classes at p = 2 and 4 at odd p: no model with one
# prime above p has a fourth generator at 2 or a third at odd p
GENERATOR_GRIDS = [(2, (-1, -3, 2, 5, 3, -2), 4), (3, (-1, 3, 2, -3), 3),
                   (5, (2, 5, 3, 10), 3)]


@pytest.mark.parametrize("p,grid,k", GENERATOR_GRIDS,
                         ids=[f"{p}-k{k}" for p, _, k in GENERATOR_GRIDS])
def test_no_model_has_more_generators_than_the_closed_forms(p, grid, k):
    for args in itertools.permutations(grid, k):
        with pytest.raises((SplitPrime, NotSquareFree)):
            make_field(p, args)
    built = []
    for args in itertools.combinations(grid, k - 1):
        try:
            built.append(make_field(p, args))
        except (SplitPrime, NotSquareFree):
            pass
    assert built and all(f.degree == 1 << (k - 1) for f in built)


def test_the_norm_builder_refuses_a_fourth_generator():
    with pytest.raises(InternalInvariant):
        _norm_kernels((-1, -3, 2, 5), None)


def same(x, y):
    """x from the new kernel equals y from the oracle, exactly."""
    if x is None or y is None:
        return x is None and y is None
    assert x.den > 0 and gcd(x.den, *x.num) == 1, "not in lowest terms"
    return x.coords == y.coords and x.key() == y.key()


@SETTINGS
@given(field_elements(2), coords)
def test_ring_ops_agree(data, c):
    new, old, (u, v) = data
    x, y = new.el(u), new.el(v)
    ox, oy = old.el(u), old.el(v)
    assert same(x + y, ox + oy)
    assert same(x - y, ox - oy)
    assert same(x * y, ox * oy)
    assert same(-x, -ox)
    assert same(x * c, ox * c)
    assert same(c * x, c * ox)
    assert same(x + c, ox + c)
    assert same(3 - x, 3 - ox)
    if c:
        assert same(x / c, ox / c)
    if not oy.is_zero():
        assert same(x / y, ox / oy)


@SETTINGS
@given(field_elements(1))
def test_inverse_and_valuation_agree(data):
    new, old, (u,) = data
    x, ox = new.el(u), old.el(u)
    assert x.valuation() == ox.valuation()
    if ox.is_zero():
        return
    # a fresh element: inv computes the valuation as a by-product
    y, oy = new.el(u), old.el(u)
    inv, oinv = y.inv(), oy.inv()
    assert same(inv, oinv)
    assert y.valuation() == ox.valuation()
    assert inv.valuation() == oinv.valuation()
    assert new.el(inv.coords).valuation() == oinv.valuation()


@SETTINGS
@given(field_elements(1))
def test_conjugates_agree(data):
    new, old, (u,) = data
    x, ox = new.el(u), old.el(u)
    for mask in range(new.degree):
        assert same(x.conj(mask), ox.conj(mask))
        assert x.conj(mask).valuation() == ox.conj(mask).valuation()


@settings(max_examples=30, deadline=None)
@given(field_elements(1))
def test_quadratic_defect_agrees(data):
    new, old, (u,) = data
    x, ox = new.el(u), old.el(u)
    if ox.is_zero():
        return
    assert new.quadratic_defect(x) == old.quadratic_defect(ox)
    sq, osq = x * x, ox * ox
    assert new.quadratic_defect(sq) == old.quadratic_defect(osq)


def _sqrt_or_none(field, x):
    try:
        return field.sqrt_of(x)
    except NotInField:
        return None


@settings(max_examples=40, deadline=None)
@given(field_elements(1))
def test_element_sqrt_agrees(data):
    # `sqrt_of` on elements against the oracle's tower recursion
    new, old, (u,) = data
    x, ox = new.el(u), old.el(u)
    if ox.is_zero():
        return
    assert same(_sqrt_or_none(new, x), oracle.element_sqrt(ox))
    root = new.sqrt_of(x * x)
    assert same(root, oracle.element_sqrt(ox * ox))
    assert root * root == x * x


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(0, 7), coords,
       st.sampled_from([1, 1, -1, 2, 3, 5, 17]))
def test_rational_sqrt_of_is_the_tower_recursion(fld, mask, c, extra):
    # `sqrt_of` takes a rational, or a rational element, by its monomial
    # loop; the tower recursion must give the same root, sign included
    f = make_field(*fld)
    if not c:
        return
    n = c * c * f.span_class[mask % f.degree][0] * extra
    root = _element_sqrt(f.from_rational(n))
    assert same(_sqrt_or_none(f, n), root)
    assert same(_sqrt_or_none(f, f.from_rational(n)), root)


@SETTINGS
@given(field_elements(2), coords)
def test_equality_hash_and_key_agree(data, c):
    new, old, (u, v) = data
    x, y = new.el(u), new.el(v)
    ox, oy = old.el(u), old.el(v)
    assert (x == y) == (ox == oy)
    assert (x == c) == (ox == c)
    assert x.key() == ox.key()
    w = new.el(ox.coords)
    assert w == x and hash(w) == hash(x)
    # the same value reached by arithmetic is the same key
    z = (x + y) - y
    assert z == x and hash(z) == hash(x) and z.key() == x.key()


@SETTINGS
@given(field_elements(1))
def test_coords_round_trip(data):
    new, _, (u,) = data
    x = FieldElement(new, u)
    assert x.coords == tuple(u)
    y = FieldElement(new, x.coords)
    assert y == x and (y.num, y.den) == (x.num, x.den)
    # the lazily built view of an arithmetic result matches too
    z = x + new.zero
    assert z._coords is None and z.coords == tuple(u)
