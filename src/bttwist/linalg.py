"""Exact linear algebra over any field whose elements support + - * and
division (Fraction, FieldElement): Gauss-Jordan elimination for rank and
inverse, determinant by elimination, and echelon bases over a valuation ring
(H. Cohen, A Course in Computational Algebraic Number Theory, ch. 2).

Matrices are sequences of rows.  Entries are Fractions or elements of one
model field, never plain ints, whose quotients would be floats.
"""

from __future__ import annotations

from operator import mul

from .errors import InternalInvariant


def _gauss_jordan(rows, ncols: int):
    """Bring rows (lists, changed in place) to reduced row echelon form on
    their first ncols columns; later columns ride along.  Returns the rank
    and the product of the pivots times the sign of the row swaps, which is
    the determinant when the leading block is square and of full rank.

    Entries are tested against a zero of their own type, and a pivot row is
    zero left of its pivot, so each step touches only the columns from the
    pivot on."""
    rank, det = 0, 1
    zero = rows[0][0] * 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows))
                    if rows[r][col] != zero), None)
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            det = -det
        p = rows[rank][col]
        det = p * det
        inv = 1 / p
        prow = rows[rank]
        prow[col:] = [x * inv for x in prow[col:]]
        tail = prow[col + 1:]
        for r, row in enumerate(rows):
            if r != rank and row[col] != zero:
                f = row[col]
                row[col] = zero
                row[col + 1:] = [x - f * y
                                 for x, y in zip(row[col + 1:], tail)]
        rank += 1
    return rank, det


def rank(m) -> int:
    return _gauss_jordan([list(row) for row in m], len(m[0]))[0]


def det(m):
    n = len(m)
    r, d = _gauss_jordan([list(row) for row in m], n)
    return d if r == n else m[0][0] * 0


def inverse(m) -> list:
    """Rows of m^-1; a singular m raises InternalInvariant."""
    n = len(m)
    zero = m[0][0] * 0
    one = zero + 1
    aug = [list(row) + [one if i == k else zero for k in range(n)]
           for i, row in enumerate(m)]
    if _gauss_jordan(aug, n)[0] < n:
        raise InternalInvariant(f"singular {n}x{n} matrix has no inverse")
    return [row[n:] for row in aug]


def mat_vec(m, v) -> list:
    return [sum(map(mul, row[1:], v[1:]), row[0] * v[0]) for row in m]


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
