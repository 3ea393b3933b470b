"""The subfield-vertex test that `bttwist.twisted.VertexOrder` replaced,
kept as a test-only oracle.

Copied from `twisted.py` with only its imports moved to the top.  For every
(vertex, subfield) pair it rebuilds the vertex's order lattice B through
`matrix_coords`, inverts it, tests twisted invariance under every element of
the fixing group, and compares det(B) with the determinant of the dual of
the E-rational sublattice, embedded back into the ambient field.  It has no
shortcut for a level off the subfield's value group, which the program
takes only where the cocycle is trivial on Gal(L/E): the echelon decides
every level.

`decompose` (with `rational_image`) is the decomposition over the mhat
basis as `SubfieldLattice.decompose` gave it, one element of E per
component, before the subfield test took the components as integer vectors
(`SubfieldLattice.functionals`); it rebuilds the dense change of basis from
the mhat basis.  `dense_functionals` is `functionals` before it applied the
change of basis as sparse columns to the nonzero numerators only.

`tree_invariant` and `order_invariant` are the two invariance checks that
`TwistedTree` and `VertexOrder` carried as `invariant` methods before the
subfield test asked `VertexOrder.fixed_by` of cached fixing generators
directly.

`GeneralSubfieldLattice` is `SubfieldLattice` for every pair L/E, with the
f(L/E) = 2 basis (the residue generator u and the columns pi_L^t u^s) that
the program dropped once relative descent left it only f(L/E) = 1 pairs;
`machinery` hands out whichever of the two a pair has."""

import math
from operator import mul

from bttwist.errors import InternalInvariant
from bttwist.linalg import det, inverse
from bttwist.padic import FieldElement, _reduced, xor_basis
from bttwist.twisted import (SubfieldLattice, order_lattice_of_vertex,
                             sublattice_machinery)
from linalg_oracle import echelon


class GeneralSubfieldLattice(SubfieldLattice):
    """mhat_s = pi_L^t u^s with 0 <= t < e(L/E), 0 <= s < f(L/E) and u a
    unit whose residue generates that of L over E's."""

    def _basis(self) -> list:
        L = self.L
        u = L.one
        if self.f_rel == 2:
            # L.f <= 2, so E.f = 1: u is the first residue representative
            # outside F_p, where r^p = r fails
            u = next((r for r in L.residue_reps[1:]
                      if (r ** L.p - r).valuation() == 0), None)
            if u is None:
                raise InternalInvariant("no residue generator found")
        return [L.pi_pow(ti) * (u ** s)
                for ti in range(self.e_rel) for s in range(self.f_rel)]


_GENERAL: dict = {}


def machinery(sub) -> SubfieldLattice:
    """The program's lattice for f(L/E) = 1, else the general one."""
    if sub not in _GENERAL:
        _GENERAL[sub] = (sublattice_machinery(sub)
                         if sub.parent.f == sub.field.f
                         else GeneralSubfieldLattice(sub))
    return _GENERAL[sub]


def tree_invariant(tree, subgroup, v) -> bool:
    """Is v fixed by every mask of the subgroup under the twisted action?"""
    return all(tree.apply(s, v) == v for s in subgroup)


def order_invariant(order, masks) -> bool:
    """Is the order's vertex fixed by the group of these Galois masks?  The
    twisted action is a group action, so `fixed_by` of an xor basis of them
    suffices."""
    return all(map(order.fixed_by, xor_basis(masks)))


def rational_image(rows, den: int, x: FieldElement, target) -> list:
    """(rows / den) . x.coords for integer rows, cut into consecutive
    elements of target; computed on x's integer numerator, with no Fraction
    coordinates built."""
    y = [sum(map(mul, row, x.num)) for row in rows]
    den *= x.den
    n = target.degree
    return [_reduced(target, tuple(y[i:i + n]), den)
            for i in range(0, len(y), n)]


_DENSE: dict = {}


def dense_change_of_basis(mach) -> tuple:
    """The inverse change of basis to the mhat basis as dense integer rows
    over one denominator, built as `SubfieldLattice` built it before it
    kept sparse columns."""
    if mach.sub not in _DENSE:
        E = mach.E
        cols = [(mach.sub.embed(E.monomial(em)) * mh).coords
                for mh in mach.mhat for em in range(E.degree)]
        to_mhat = inverse(list(zip(*cols)))
        den = math.lcm(*(c.denominator for row in to_mhat for c in row))
        _DENSE[mach.sub] = (
            tuple(tuple(int(c * den) for c in row) for row in to_mhat), den)
    return _DENSE[mach.sub]


def decompose(mach, x: FieldElement):
    """x = sum_s mhat_s * y_s with y_s in the subfield model."""
    rows, den = dense_change_of_basis(mach)
    return rational_image(rows, den, x, mach.E)


def dense_functionals(mach, matrix):
    """`SubfieldLattice.functionals` as it was before the sparse columns:
    every entry's whole numerator meets every dense row."""
    rows_in, den_in = dense_change_of_basis(mach)
    n = mach.E.degree
    width = len(rows_in)
    rows, scales = [], []
    for xs in matrix:
        den = math.lcm(*(x.den for x in xs))
        images = []
        for x in xs:
            k = den // x.den
            num = x.num if k == 1 else [k * c for c in x.num]
            images.append([sum(map(mul, r, num)) for r in rows_in])
        for s in range(0, width, n):
            rows.append([tuple(y[s:s + n]) for y in images])
        scales.extend([den * den_in] * (width // n))
    return rows, scales


def subfield_vertex_test(tree, triv, v, sub) -> bool:
    L = tree.field
    if (v.level * L.e).denominator != 1:
        return False  # midpoints never carry an O_L-order
    H = sub.fixing_masks()
    if not tree_invariant(tree, H, v):
        return False
    if sub.field.degree == L.degree:
        return True  # E = L
    mach = machinery(sub)
    E = sub.field
    B = order_lattice_of_vertex(triv, v)
    # invert the matrix whose columns are the basis vectors
    Binv = inverse(list(zip(*B)))
    # one valuation-bounded E-functional per (matrix row, mhat component)
    rows = []
    for i in range(4):
        parts = [decompose(mach, Binv[i][j]) for j in range(4)]
        for s, mh in enumerate(mach.mhat):
            bound = -mh.valuation()
            grid = math.ceil(bound * E.e)  # smallest E-grid point >= bound
            piE = E.pi_pow(-grid)
            rows.append([piE * parts[j][s] for j in range(4)])
    G = echelon(rows, FieldElement.valuation)
    if len(G) < 4:
        return False
    # the dual lattice {x : <g, x> integral for all g in G} is spanned by
    # the columns of G^-1; compare its volume with the order's over L
    W_L = [[sub.embed(x) for x in w] for w in zip(*inverse(G))]
    return det(W_L).valuation() == det(B).valuation()
