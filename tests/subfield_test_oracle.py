"""The subfield-vertex test that `bttwist.twisted.VertexOrder` replaced,
kept as a test-only oracle.

Copied from `twisted.py` with only its imports moved to the top.  For every
(vertex, subfield) pair it rebuilds the vertex's order lattice B through
`matrix_coords`, inverts it, tests twisted invariance under every element of
the fixing group, and compares det(B) with the determinant of the dual of
the E-rational sublattice, embedded back into the ambient field."""

import math

from bttwist.linalg import det, echelon, inverse
from bttwist.padic import FieldElement
from bttwist.twisted import order_lattice_of_vertex, sublattice_machinery


def subfield_vertex_test(tree, triv, v, sub) -> bool:
    L = tree.field
    if (v.level * L.e).denominator != 1:
        return False  # midpoints never carry an O_L-order
    H = sub.fixing_masks()
    if not tree.invariant(H, v):
        return False
    if sub.field.degree == L.degree:
        return True  # E = L
    if (v.level * sub.field.e).denominator != 1:
        return False  # level not in the subfield's value group
    mach = sublattice_machinery(sub)
    E = sub.field
    B = order_lattice_of_vertex(triv, v)
    # invert the matrix whose columns are the basis vectors
    Binv = inverse(list(zip(*B)))
    # one valuation-bounded E-functional per (matrix row, mhat component)
    rows = []
    for i in range(4):
        parts = [mach.decompose(Binv[i][j]) for j in range(4)]
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
