"""`linalg.pivot_valuation_sum` against the valuation echelon it replaced.

The kernel eliminates on integer vectors with an offset per row; the oracle
is the `FieldElement` echelon of `linalg_oracle`, whose pivots' valuations,
times n = [E : Q_p], must sum to the kernel's answer, and whose rank is
below 4 exactly when the kernel answers None.  The matrices are drawn over
Q_2, Q_2(sqrt -1), Q_2(sqrt -3), Q_2(sqrt -3, sqrt 2) and
Q_3(sqrt 3, sqrt -1): entries are often zero, some coefficients exceed
2^200, rows come over scales with p in them (so offsets and p-power
contents differ from row to row), and one row is sometimes a combination
of two others.

The subfield test feeds the kernel `SubfieldLattice.functionals`; its rows
over their scales must be the components of the decomposition over mhat
(`subfield_test_oracle.decompose`), element for element, and they must be
the very rows and scales of the dense change of basis it replaced
(`subfield_test_oracle.dense_functionals`), on drawn matrices and on the
order-lattice inverses of the `table1` branch.
"""

from fractions import Fraction
from math import lcm

from hypothesis import given, settings, strategies as st

from bttwist.linalg import pivot_valuation_sum
from bttwist.padic import FieldElement, make_field
from bttwist.twisted import VertexOrder
from linalg_oracle import echelon
from subfield_test_oracle import decompose, dense_functionals, machinery

FIELDS = [(2, ()), (2, (-1,)), (2, (-3,)), (2, (-3, 2)), (3, (3, -1))]

coefficients = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-12, 12),
              st.sampled_from([1, 1, 2, 3, 4, 9, 8])),
    st.builds(Fraction, st.integers(2 ** 200, 2 ** 210),
              st.integers(1, 2 ** 30)),
    st.builds(Fraction, st.integers(-2 ** 20, 2 ** 20),
              st.integers(2 ** 200, 2 ** 201)))


@st.composite
def element(draw, field):
    return field.el(draw(st.lists(coefficients, min_size=field.degree,
                                  max_size=field.degree)))


@st.composite
def matrix_over(draw, field, count):
    """count rows of 4 elements; the last row may be a combination of the
    first two, and a column may be zero throughout."""
    rows = [[draw(element(field)) for _ in range(4)] for _ in range(count)]
    if count > 2 and draw(st.booleans()):
        a, b = draw(element(field)), draw(element(field))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    if draw(st.integers(0, 4)) == 0:
        col = draw(st.integers(0, 3))
        for row in rows:
            row[col] = field.zero
    return rows


@st.composite
def field_and_matrix(draw):
    p, args = draw(st.sampled_from(FIELDS))
    field = make_field(p, args)
    count = draw(st.integers(1, 9))
    return field, draw(matrix_over(field, count))


def as_integer_rows(field, matrix, extra):
    """Each row as integer numerator vectors over one scale: the lcm of its
    entries' denominators, with both numerators and scale multiplied by the
    row's extra factor, so that a row's integers have that much content."""
    rows, scales = [], []
    for row, t in zip(matrix, extra):
        den = lcm(*(x.den for x in row))
        rows.append([tuple(t * (den // x.den) * c for c in x.num)
                     for x in row])
        scales.append(t * den)
    return rows, scales


def divided(matrix, divisors):
    """The matrix each of whose rows is divided by its divisor."""
    return [[x / t for x in row] for row, t in zip(matrix, divisors)]


def oracle(field, matrix):
    G = echelon(matrix, FieldElement.valuation)
    if len(G) < 4:
        return None
    total = sum(G[k][k].valuation() for k in range(4)) * field.degree
    assert total.denominator == 1
    return int(total)


def p_scales(data, p, count):
    """count factors p^k u, u a unit, drawn with data."""
    return [p ** data.draw(st.integers(0, 4))
            * data.draw(st.sampled_from([1, 1, 5, 7, 11 * 13]))
            for _ in range(count)]


@settings(max_examples=150, deadline=None)
@given(field_and_matrix(), st.data())
def test_kernel_matches_the_echelon_pivots(fm, data):
    field, matrix = fm
    # rows over scales with p in them, and integers with p-power content
    matrix = divided(matrix, p_scales(data, field.p, len(matrix)))
    extra = p_scales(data, field.p, len(matrix))
    rows, scales = as_integer_rows(field, matrix, extra)
    assert pivot_valuation_sum(field, rows, scales) == oracle(field, matrix)


def test_kernel_on_fixed_cases():
    # the cases the kernel's steps are about, one at a time
    q2 = make_field(2, ())
    E = make_field(2, (-3, 2))  # n = 4, e = 2
    one, zero = E.one, E.zero
    pi = E.uniformizer
    diag = [[one if i == j else zero for j in range(4)] for i in range(4)]
    # a row's p-power content is no part of its valuation: 4 e_0 over 4
    rows, scales = as_integer_rows(E, diag, [4, 1, 1, 1])
    assert rows[0][0] == (4, 0, 0, 0)
    assert pivot_valuation_sum(E, rows, scales) == 0
    # the pivot is the entry of least true valuation: row 0 is
    # (8, 1, 0, 0) / 16, its numerator 8 of valuation 3 above pi's 1/2,
    # but 8 / 16 has valuation -1 below it
    m = divided([[E.from_rational(8), one, zero, zero],
                 [pi, zero, one, zero], [zero, zero, zero, one],
                 [zero, one, zero, zero]], [16, 1, 1, 1])
    rows, scales = as_integer_rows(E, m, [1] * 4)
    assert rows[0][0] == (8, 0, 0, 0) and scales[0] == 16
    assert pivot_valuation_sum(E, rows, scales) == oracle(E, m) == -4
    # with more rows than columns the pivot decides the lattice: (0, 2, 0, 0)
    # is stored as (0, 1, 0, 0) over an offset once its content 2 is
    # divided out, and e_1, not it, must pivot in column 1
    two = E.from_rational(2)
    m = [[one / two, zero, zero, zero], [zero, two, zero, zero]] + diag[1:]
    rows, scales = as_integer_rows(E, m, [1] * 5)
    assert pivot_valuation_sum(E, rows, scales) == oracle(E, m) == -4
    # an eliminated row carries the pivot's valuation into later columns
    m = [[pi, one, zero, zero], [one, pi, zero, zero],
         [zero, zero, one, zero], [zero, zero, zero, one]]
    rows, scales = as_integer_rows(E, m, [1] * 4)
    assert pivot_valuation_sum(E, rows, scales) == oracle(E, m) == 0
    # rank below 4: a zero column, and too few rows
    m = [[one, zero, one, one], [one, zero, zero, one],
         [zero, zero, one, one], [one, zero, one, zero]]
    assert pivot_valuation_sum(E, *as_integer_rows(E, m, [1] * 4)) is None
    assert pivot_valuation_sum(
        E, *as_integer_rows(E, diag[:3], [1] * 3)) is None
    # coefficients past 2^200 over Q_2
    big = q2.from_rational(Fraction(3 * 2 ** 205, 2 ** 201 + 1))
    m = [[big if i == j else q2.zero for j in range(4)] for i in range(4)]
    assert pivot_valuation_sum(q2, *as_integer_rows(q2, m, [1] * 4)) == 820


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(2, (-1, -3, 2)), (2, (-3, 2)), (3, (3, -1))]),
       st.data())
def test_functionals_are_the_decomposition_components(field, data):
    p, args = field
    L = make_field(p, args)
    matrix = data.draw(matrix_over(L, 2))
    for sub in L.subfields():
        mach = machinery(sub)
        rows, scales = mach.functionals(matrix)
        m = len(mach.mhat)
        assert len(rows) == len(scales) == 2 * m
        E = sub.field
        for i, row in enumerate(matrix):
            parts = [decompose(mach, x) for x in row]
            for s in range(m):
                got = [E.el([Fraction(c, scales[i * m + s]) for c in num])
                       for num in rows[i * m + s]]
                assert got == [part[s] for part in parts], sub


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(2, (-1, -3, 2)), (2, (-3, 2)), (3, (3, -1)),
                        (2, (-1, 2))]),
       st.data())
def test_sparse_functionals_equal_the_dense_rows(field, data):
    p, args = field
    L = make_field(p, args)
    matrix = data.draw(matrix_over(L, data.draw(st.integers(1, 4))))
    for sub in L.subfields():
        mach = machinery(sub)
        assert mach.functionals(matrix) == dense_functionals(mach, matrix), sub


def test_sparse_functionals_on_the_table1_branch():
    from bttwist import enumerate as counting
    ctx = counting.make_context("q8", 2, (-1, -3, 2))
    members = counting.count_integral_forms(ctx, (-1, -3, 2)).vertices
    assert len(members) == 26
    subs = ctx.ambient.subfields()
    for v in members:
        inverse = VertexOrder(ctx.tree, ctx.triv, v).lattice_inverse
        for sub in subs:
            mach = machinery(sub)
            assert mach.functionals(inverse) == \
                dense_functionals(mach, inverse), (v, sub)
