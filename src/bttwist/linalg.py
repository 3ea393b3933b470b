"""Exact linear algebra over any field whose elements support + - * and
division (Fraction, FieldElement): Gauss-Jordan elimination for rank and
inverse, and determinant by elimination (H. Cohen, A Course in
Computational Algebraic Number Theory, ch. 2).  Over the valuation ring of
a model field, `pivot_valuation_sum` gives the volume of a lattice by
fraction-free elimination on integer vectors.

Matrices are sequences of rows.  Entries are Fractions or elements of one
model field, never plain ints, whose quotients would be floats.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from .errors import InternalInvariant
from .padic import vp_int


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


def pivot_valuation_sum(field, rows, scales):
    """n times the sum of the pivot valuations of an echelon basis, over
    the valuation ring of the model field, of the lattice the rows span
    (n = [field : Q_p]); None if their rank is below their width.

    Row i is rows[i] / scales[i]: one integer numerator vector per entry
    over a positive integer scale.  The elimination is fraction free
    (E. H. Bareiss, Math. Comp. 22, 1968).  A row is kept as integer
    vectors and an offset, n v of its scale, so an entry's valuation in
    units of 1/n is vp(N(entry)) - offset, N the integer norm of the
    field.  In each column the entry of least valuation pivots, and a row
    becomes P row - row[col] pivot row: the unimodular step of the echelon
    times the pivot P, so its offset grows by n v(P).  A row's p-power
    content is divided out, its offset lowered to match, and a zero row
    is dropped.  The sum is the lattice's volume, whichever entry wins a
    tie."""
    p, n = field.p, field.degree
    fmul, norm = field._mul, field._norm
    live = []
    for row, scale in zip(rows, scales):
        _keep(live, list(row), n * vp_int(scale, p), p, n)
    width = len(rows[0]) if rows else 0
    total = 0
    for col in range(width):
        vals = [(vp_int(norm(row[0]), p) - off, k)
                for k, (row, off) in enumerate(live) if any(row[0])]
        if not vals:
            return None
        val, k = min(vals)
        total += val
        if col == width - 1:
            break
        (pivot, *ptail), poff = live.pop(k)
        grow = val + poff  # n v(P)
        rest, live = live, []
        for (f, *tail), off in rest:
            if any(f):
                _keep(live, [tuple([x - y for x, y in zip(fmul(pivot, a),
                                                          fmul(f, b))])
                             for a, b in zip(tail, ptail)], off + grow, p, n)
            else:
                live.append((tail, off))
    return total


def _keep(live, row, off, p, n):
    """Append (row, off) to live without the row's p-power content, its
    offset lowered to match; a zero row is dropped."""
    g = gcd(*[c for x in row for c in x])
    if g:
        k = vp_int(g, p)
        if k:
            q = p ** k
            row = [tuple([c // q for c in x]) for x in row]
            off -= n * k
        live.append((row, off))
