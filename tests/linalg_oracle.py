"""The hand-written eliminations that `bttwist.linalg` replaced, kept as
test-only oracles, and the valuation echelon that
`bttwist.linalg.pivot_valuation_sum` replaced.

Each is copied from the module it lived in, with only its imports moved to
the top: Gauss-Jordan rank, solve and inverse over a model field (`_rank4`,
`_solve4`, `_invert_field_4`) and over the rationals (`_invert_rational`),
the two valuation-pivoting echelons, the two 24-permutation Leibniz
determinants, and `_mat_vec`.  The field versions test for zero with
`is_zero()` and invert with `inv()`, so they take `FieldElement`s only; the
rational ones take `Fraction`s.  A singular matrix escapes from the
inverses and the solve as `StopIteration`.

`echelon` is the one elimination here that takes either kind of entry: it
was `bttwist.linalg.echelon`, and its pivots are the oracle of the
fraction-free kernel."""

import itertools
from fractions import Fraction

from bttwist.padic import vp_frac


# -- from enumerate.py ----------------------------------------------------


def _rank4(field, vecs):
    work = [list(v) for v in vecs]
    rank = 0
    for col in range(4):
        piv = None
        for r in range(rank, len(work)):
            if not work[r][col].is_zero():
                piv = r
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = work[rank][col].inv()
        work[rank] = [x * inv for x in work[rank]]
        for r in range(len(work)):
            if r != rank and not work[r][col].is_zero():
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[rank])]
        rank += 1
        if rank == 4:
            break
    return rank


# -- from quatalg.py ------------------------------------------------------


def _solve4(field, cols, target):
    """Solve a 4x4 linear system over the field by Gaussian elimination."""
    n = 4
    aug = [[cols[j][i] for j in range(n)] + [target[i]] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if not aug[r][col].is_zero())
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col].inv()
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def _echelon_valuation(field_p: int, vectors):
    """Echelonize rational 4-vectors over Z_(p) by valuation pivoting.

    Returns a list of at most 4 basis vectors (tuples of Fractions)."""
    vecs = [list(v) for v in vectors]
    basis = []
    for col in range(4):
        best = None
        for r, v in enumerate(vecs):
            if v[col] == 0:
                continue
            val = vp_frac(v[col], field_p)
            if best is None or val < best[1]:
                best = (r, val)
        if best is None:
            continue
        pivot = vecs.pop(best[0])
        basis.append(pivot)
        for v in vecs:
            if v[col] != 0:
                f = v[col] / pivot[col]
                for idx in range(4):
                    v[idx] -= f * pivot[idx]
    return [tuple(v) for v in basis]


def _det4(m):
    det = Fraction(0)
    for perm in itertools.permutations(range(4)):
        inv = sum(1 for i in range(4) for j in range(i + 1, 4)
                  if perm[i] > perm[j])
        term = Fraction(1)
        for i in range(4):
            term *= Fraction(m[i][perm[i]])
        det += -term if inv % 2 else term
    return det


# -- from twisted.py ------------------------------------------------------


def echelon_over_field_ring(field, vectors):
    """Column echelon of vectors in field^4 over the valuation ring
    (unimodular operations only: valuation pivoting, integral elimination)."""
    vecs = [list(v) for v in vectors]
    basis = []
    for col in range(4):
        best = None
        for idx, v in enumerate(vecs):
            if v[col].is_zero():
                continue
            val = v[col].valuation()
            if best is None or val < best[1]:
                best = (idx, val)
        if best is None:
            continue
        pivot = vecs.pop(best[0])
        for v in vecs:
            if not v[col].is_zero():
                coef = v[col] / pivot[col]
                for i in range(4):
                    v[i] = v[i] - coef * pivot[i]
        basis.append(pivot)
    return basis


def det4_field(field, cols):
    det = field.zero
    for perm in itertools.permutations(range(4)):
        inv = sum(1 for i in range(4) for j in range(i + 1, 4)
                  if perm[i] > perm[j])
        term = field.one
        for i in range(4):
            term = term * cols[i][perm[i]]
        det = det + (-term if inv % 2 else term)
    return det


def _invert_rational(cols, n):
    aug = [[cols[j][i] for j in range(n)] + [Fraction(int(i == k))
            for k in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _mat_vec(m, v):
    return [sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m))]


def _invert_field_4(field, rows_or_vecs):
    """Inverse of the 4x4 matrix whose ROWS are the given coordinate vectors;
    returns rows of the inverse."""
    n = 4
    aug = [[rows_or_vecs[i][j] for j in range(n)] +
           [field.one if i == k else field.zero for k in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if not aug[r][col].is_zero())
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col].inv()
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


# -- from linalg.py -------------------------------------------------------


def echelon(vectors, val) -> list:
    """A basis, over the valuation ring of val, of the lattice the vectors
    span: in each column the entry of least valuation pivots, so every
    elimination step is unimodular.  Every vector left is zero before the
    pivot column, so a step sets that column to zero and updates only the
    columns to its right."""
    vecs = [list(v) for v in vectors]
    basis = []
    if not vecs:
        return basis
    zero = vecs[0][0] * 0
    for col in range(len(vecs[0])):
        live = [(val(v[col]), i) for i, v in enumerate(vecs)
                if v[col] != zero]
        if not live:
            continue
        pivot = vecs.pop(min(live)[1])
        inv = 1 / pivot[col]
        tail = pivot[col + 1:]
        for v in vecs:
            if v[col] != zero:
                f = v[col] * inv
                v[col] = zero
                v[col + 1:] = [x - f * y for x, y in zip(v[col + 1:], tail)]
        basis.append(tuple(pivot))
    return basis
