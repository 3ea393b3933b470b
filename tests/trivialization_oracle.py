"""The grid search that `bttwist.quatalg.find_trivialization` replaced,
kept as a test-only oracle.

Copied from `quatalg.py` with its imports moved to the top and one fix: a
rational solution over a degree-1 field takes flip_d = 1, where the original
indexed the empty list of square classes and raised IndexError.  Every shape
tests the whole 52 x 52 grid of x1, y1 in `small`, row by row."""

from fractions import Fraction

from bttwist.errors import FieldTooSmall, NotInField
from bttwist.padic import squarefree_part
from bttwist.quatalg import standard_trivialization


def find_trivialization(alg, field):
    ds = [field.span_class[m][0] for m in range(1, field.degree)]
    small = [Fraction(n, m) for m in (1, 2, 3, 6) for n in range(-6, 7)]
    for x1 in small:
        for y1 in small:
            if x1 * x1 - alg.a * y1 * y1 == alg.b:
                return standard_trivialization(
                    alg, field, ds[0] if ds else 1, field.from_rational(x1),
                    field.from_rational(y1))
    try:
        root_b = field.sqrt_of(alg.b)
        d_b = squarefree_part(Fraction(alg.b).numerator *
                              Fraction(alg.b).denominator)[0]
        if d_b != 1:
            return standard_trivialization(alg, field, d_b, root_b, field.zero)
    except NotInField:
        pass
    shapes = []
    for d in ds:
        shapes.append(("pure_rat", d))   # x = x1 sqrt(d), y rational
        shapes.append(("rat_pure", d))   # x rational, y = y1 sqrt(d)
        shapes.append(("pure_pure", d))  # both pure
    for shape, d in shapes:
        root = field.sqrt_of(d)
        for x1 in small:
            for y1 in small:
                if shape == "pure_rat":
                    ok = d * x1 * x1 - alg.a * y1 * y1 == alg.b
                    x, y = root * x1, field.from_rational(y1)
                elif shape == "rat_pure":
                    ok = x1 * x1 - alg.a * d * y1 * y1 == alg.b
                    x, y = field.from_rational(x1), root * y1
                else:
                    ok = d * (x1 * x1 - alg.a * y1 * y1) == alg.b
                    x, y = root * x1, root * y1
                if ok:
                    return standard_trivialization(alg, field, d, x, y)
    raise FieldTooSmall(f"no trivialization of {alg} over {field}")
