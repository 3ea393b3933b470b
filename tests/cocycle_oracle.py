"""The cocycle law pair by pair, kept as a test-only oracle.

`first_violation` is the check the general sigma -> map table made at
construction: every pair (s, t) of Galois masks, with a_{st} and
a_s . s(a_t) compared in PGL_2 and every product computed in full.
`witness_table` is the table {sigma: W^eps(sigma)} of a witness, eps the
parity of sigma on the mask of sqrt(d), that `twisted.Cocycle` stands for.
"""

from bttwist.bttree import MoebiusMap
from bttwist.padic import parity


def first_violation(field, maps):
    """The first pair (s, t), in order, where a_{st} and a_s s(a_t) differ
    in PGL_2, or None when the law holds."""
    for s in range(field.degree):
        for t in range(field.degree):
            if not maps[s ^ t].proj_eq(maps[s] * maps[t].galois(s)):
                return s, t
    return None


def witness_table(field, flip_d, witness):
    mask = field.mask_of(flip_d)
    ident = MoebiusMap.identity(field)
    return {s: witness if parity(s & mask) else ident
            for s in range(field.degree)}
