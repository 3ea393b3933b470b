"""`MoebiusMap.proj_eq` by cross-multiplication against the division form
it replaced (`moebius_oracle.proj_eq_by_division`).

Pairs are drawn as a map and a scalar multiple of it (by integers, by
powers of p and of the uniformizer, and by arbitrary nonzero elements, so
most scalars are not units), as a map and the same map with one entry
zeroed or made nonzero, and as two unrelated maps.  Entries are often zero,
so every zero pattern occurs, the all-zero map included.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from bttwist.bttree import MoebiusMap
from bttwist.padic import make_field
from moebius_oracle import proj_eq_by_division

FIELDS = [(2, ()), (2, (-1,)), (3, (3,)), (2, (-3, 2)), (2, (-1, -3, 2))]

coefficients = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4])),
    st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70),
              st.integers(1, 2 ** 20)))


@st.composite
def element(draw, field, zero_weight=2):
    if draw(st.integers(0, zero_weight)) == 0:
        return field.zero
    return field.el(draw(st.lists(coefficients, min_size=field.degree,
                                  max_size=field.degree)))


@st.composite
def nonzero_element(draw, field):
    x = draw(element(field, zero_weight=100))
    return x if not x.is_zero() else field.one


@st.composite
def moebius(draw, field):
    return MoebiusMap(*[draw(element(field)) for _ in range(4)])


@st.composite
def scalar(draw, field):
    kind = draw(st.sampled_from(["int", "p", "pi", "any"]))
    if kind == "int":
        return field.from_rational(draw(st.sampled_from([-1, 2, -3, 6, 12])))
    if kind == "p":
        return field.from_rational(Fraction(field.p) ** draw(
            st.integers(-3, 3)))
    if kind == "pi":
        return field.pi_pow(draw(st.integers(-4, 4)))
    return draw(nonzero_element(field))


def _entries(m):
    return [m.a, m.b, m.c, m.d]


@st.composite
def pair(draw):
    p, args = draw(st.sampled_from(FIELDS))
    f = make_field(p, args)
    m = draw(moebius(f))
    kind = draw(st.sampled_from(["multiple", "pattern", "unrelated"]))
    if kind == "multiple":
        lam = draw(scalar(f))
        n = MoebiusMap(*[lam * x for x in _entries(m)])
    elif kind == "pattern":
        lam = draw(scalar(f))
        entries = [lam * x for x in _entries(m)]
        i = draw(st.integers(0, 3))
        entries[i] = (draw(nonzero_element(f)) if entries[i].is_zero()
                      else f.zero)
        n = MoebiusMap(*entries)
    else:
        n = draw(moebius(f))
    return (m, n) if draw(st.booleans()) else (n, m)


@settings(max_examples=300, deadline=None)
@given(pair())
def test_cross_multiplication_matches_division(mn):
    m, n = mn
    assert m.proj_eq(n) == proj_eq_by_division(m, n)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(
    lambda pa: st.tuples(moebius(make_field(*pa)),
                         scalar(make_field(*pa)))))
def test_scalar_multiples_are_equal(m_lam):
    m, lam = m_lam
    n = MoebiusMap(*[lam * x for x in _entries(m)])
    assert m.proj_eq(n) and n.proj_eq(m)


def test_zero_maps_and_fixed_cases():
    f = make_field(2, (-1,))
    zero, one, two, i = f.zero, f.one, f.from_rational(2), f.sqrt_gen(0)
    z = MoebiusMap(zero, zero, zero, zero)
    assert z.proj_eq(MoebiusMap(zero, zero, zero, zero))
    assert not z.proj_eq(MoebiusMap(one, zero, zero, zero))
    ident = MoebiusMap.identity(f)
    assert ident.proj_eq(MoebiusMap(i, zero, zero, i))
    assert ident.proj_eq(MoebiusMap(two, zero, zero, two))
    assert not ident.proj_eq(MoebiusMap(one, zero, zero, two))
    assert not ident.proj_eq(MoebiusMap(one, one, zero, one))
    m = MoebiusMap(one, i, two, zero)
    assert m.proj_eq(MoebiusMap(i, -one, 2 * i, zero))
    assert not m.proj_eq(MoebiusMap(i, one, 2 * i, zero))
