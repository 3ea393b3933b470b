"""`bttwist.linalg` against the eliminations it replaced.

Determinant, inverse, solve and rank, and the valuation echelon that is now
the pivot kernel's test-only oracle, must give exactly the old routines'
results, over `Fraction` and over Q_2 models of degree 1, 2, 4 and 8;
`M . inverse(M)` must be the identity; a singular matrix must raise
`InternalInvariant`; and the decomposition over the mhat basis must match
the old `Fraction` change of basis on `coords`.  Entries are sparse,
and one row is sometimes a combination of two others, so singular and
rank-deficient inputs come up often.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import linalg_oracle as old
from linalg_oracle import echelon
from bttwist.errors import InternalInvariant
from bttwist.linalg import det, inverse, mat_vec, rank
from bttwist.padic import FieldElement, LocalField, make_field, vp_frac
from subfield_test_oracle import decompose, machinery

FIELDS = [(), (-3,), (-3, 2), (-1, -3, 2)]

entries = st.one_of(st.just(Fraction(0)),
                    st.builds(Fraction, st.integers(-9, 9),
                              st.sampled_from([1, 1, 2, 3, 4, 8])),
                    st.builds(Fraction, st.integers(2 ** 40, 2 ** 50),
                              st.integers(1, 2 ** 20)))
SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def rational_rows(draw, count, width=4):
    """count rows of width Fractions; maybe the last is a combination of
    the first two."""
    rows = [draw(st.lists(entries, min_size=width, max_size=width))
            for _ in range(count)]
    if count > 2 and draw(st.booleans()):
        a, b = draw(entries), draw(entries)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows


@st.composite
def field_rows(draw, count):
    """A Q_2 model and count rows of 4 elements of it, sparse in each
    coordinate; maybe the last row is a combination of the first two."""
    field = make_field(2, draw(st.sampled_from(FIELDS)))
    rows = [[field.el(draw(st.lists(entries, min_size=field.degree,
                                    max_size=field.degree)))
             for _ in range(4)] for _ in range(count)]
    if count > 2 and draw(st.booleans()):
        a = field.el(draw(st.lists(entries, min_size=field.degree,
                                   max_size=field.degree)))
        rows[-1] = [a * x + y for x, y in zip(rows[0], rows[1])]
    return field, rows


def transpose(m):
    return [list(col) for col in zip(*m)]


def product(a, b):
    """a . b for square a and b, as the list of its columns."""
    return [mat_vec(a, col) for col in zip(*b)]


@SETTINGS
@given(rational_rows(4))
def test_fraction_det_and_inverse(m):
    d = det(m)
    assert d == old._det4(m)
    if d == 0:
        with pytest.raises(StopIteration):
            old._invert_rational(transpose(m), 4)
        with pytest.raises(InternalInvariant):
            inverse(m)
        return
    inv = inverse(m)
    assert inv == old._invert_rational(transpose(m), 4)
    assert product(m, inv) == [[int(i == j) for i in range(4)]
                               for j in range(4)]
    v = m[0]
    assert mat_vec(inv, v) == old._mat_vec(inv, v)


@SETTINGS
@given(st.integers(1, 8).flatmap(rational_rows))
def test_fraction_rank_and_echelon(vecs):
    q2 = make_field(2, ())
    embedded = [[q2.from_rational(x) for x in v] for v in vecs]
    assert rank(vecs) == old._rank4(q2, embedded)
    for p in (2, 3):
        assert (echelon(vecs, lambda x: vp_frac(x, p))
                == old._echelon_valuation(p, vecs))


@SETTINGS
@given(field_rows(4))
def test_field_det_inverse_and_solve(data):
    field, m = data
    d = det(m)
    assert d == old.det4_field(field, m)
    if d.is_zero():
        with pytest.raises(StopIteration):
            old._invert_field_4(field, m)
        with pytest.raises(InternalInvariant):
            inverse(m)
        return
    inv = inverse(m)
    assert inv == old._invert_field_4(field, m)
    one, zero = field.one, field.zero
    assert product(m, inv) == [[one if i == j else zero for i in range(4)]
                               for j in range(4)]
    # solving m . c = target as matrix_coords does, by columns
    target = m[1]
    assert (mat_vec(inverse(transpose(m)), target)
            == old._solve4(field, m, target))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(field_rows))
def test_field_rank_and_echelon(data):
    field, vecs = data
    assert rank(vecs) == old._rank4(field, vecs)
    got = echelon(vecs, FieldElement.valuation)
    want = old.echelon_over_field_ring(field, vecs)
    assert [list(v) for v in got] == want


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FIELDS[1:]), st.data())
def test_decompose_matches_fraction_change_of_basis(args, data):
    L = make_field(2, args)
    sub = data.draw(st.sampled_from(L.subfields()))
    x = L.el(data.draw(st.lists(entries, min_size=L.degree,
                                max_size=L.degree)))
    mach = machinery(sub)
    E = sub.field
    cols = [(sub.embed(E.monomial(em)) * mh).coords
            for mh in mach.mhat for em in range(E.degree)]
    sol = old._mat_vec(old._invert_rational(cols, L.degree), list(x.coords))
    want = [FieldElement(E, sol[i:i + E.degree])
            for i in range(0, L.degree, E.degree)]
    got = decompose(mach, x)
    assert [y.coords for y in got] == [y.coords for y in want]
    assert got == want


def test_pivot_tests_use_a_zero_of_the_entries_type(monkeypatch):
    # an entry is tested against a zero of its own type: no model element is
    # built from the int 0 for each entry that rank, det, inverse and the
    # echelon test
    f = make_field(2, (-1, -3, 2))
    m = [[f.el([Fraction((3 * i + j + k) % 5 - 2, 1 + (i + k) % 3)
                for k in range(f.degree)]) for j in range(4)]
         for i in range(4)]
    m[2][1] = f.zero
    made = []
    real = LocalField.from_rational
    monkeypatch.setattr(LocalField, "from_rational",
                        lambda self, x: made.append(x) or real(self, x))
    rank(m)
    det(m)
    echelon(m, FieldElement.valuation)
    if not det(m).is_zero():
        inverse(m)
    assert 0 not in made


def test_singular_inverse_raises_internal_invariant():
    # a singular matrix is an internal error, never a bare StopIteration
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    with pytest.raises(InternalInvariant):
        inverse(m)
    f = make_field(2, (-3,))
    r = f.sqrt_of(-3)
    with pytest.raises(InternalInvariant):
        inverse([[f.one, r], [r, f.from_rational(-3)]])
    assert det([[f.one, r], [r, f.from_rational(-3)]]) == f.zero
