"""Twisted Galois forms of the tree and subfield-tree membership.

A 1-cocycle valued in Moebius maps twists the coordinate Galois action:
tau * x = a_tau(tau(x)).  The nontrivial class realizes the quaternion
division algebra; vertices of the subtree belonging to an intermediate
field E are recognized by an exact lattice criterion: the order of the
vertex must be spanned over O_L by its E-rational quaternions.  Where the
cocycle is trivial on Gal(L/E), that subtree is the standard E-tree, and
a distance to E decides it.
"""

from __future__ import annotations

import math
from functools import cached_property

from .errors import CocycleLawViolated, InternalInvariant
from .padic import (INFINITY, LocalField, Subfield, _reduced, parity,
                    val_min, xor_basis)
from .bttree import BoundaryPoint, MoebiusMap, Vertex
from .branch import conjugate_by_vertex
from .linalg import inverse, pivot_valuation_sum


class Cocycle:
    """The cocycle of a quaternion algebra (d, b) over a model field that
    splits it: a_sigma = W when sigma flips sqrt(d) and the identity
    otherwise, for the witness W of a trivialization.  The algebra is the
    cyclic algebra of K(sqrt d)/K, so its cocycle has this one shape
    (J.-P. Serre, Local Fields, GTM 67, ch. X); for d = 1 it is the
    identity throughout.

    The law a_{st} = a_s . s(a_t) in PGL_2 is checked once per sigma.  With
    eps the parity character of the flip mask, a_sigma = W^eps(sigma).  If t
    fixes sqrt(d), then a_t = 1 and eps(st) = eps(s), so both sides are
    a_s.  If t flips it, a_t = W and the law reads W . s(W) = 1 when s
    flips sqrt(d) (st then fixes it), and s(W) = W when s fixes it.  When
    d = 1 no t flips and nothing is left to check.  A violation raises
    CocycleLawViolated naming the sigma.

    `moving` holds the sigma whose a_sigma acts on the tree: those that
    flip sqrt(d), or none when W is scalar, the identity in PGL_2."""

    def __init__(self, field: LocalField, flip_d: int, witness: MoebiusMap):
        mask = field.mask_of(flip_d)
        if mask is None:
            raise ValueError(f"sqrt({flip_d}) not in {field}")
        self.field = field
        self.flip_mask = mask
        self.witness = witness
        self.identity = MoebiusMap.identity(field)
        for s in range(field.degree) if mask else ():
            image = witness.galois(s)
            if not ((witness * image).proj_eq(self.identity) if self.flips(s)
                    else image.proj_eq(witness)):
                raise CocycleLawViolated(f"law fails at sigma = {s}")
        self.moving = frozenset(
            s for s in range(field.degree)
            if self.flips(s) and not witness.is_scalar())

    def flips(self, sigma: int) -> bool:
        """Does sigma flip sqrt(d)?"""
        return parity(sigma & self.flip_mask)

    def __getitem__(self, sigma: int) -> MoebiusMap:
        return self.witness if self.flips(sigma) else self.identity

    def trivial_on(self, span) -> bool:
        """Is a_sigma = 1 in PGL_2 for every sigma fixing the monomials of
        the span, the Galois group of the subfield they span?  Exactly when
        none of those sigma is moving: none is, or sqrt(d) lies in the span,
        and then they all fix it."""
        return not self.moving or self.flip_mask in span


def trivial_cocycle(field: LocalField) -> Cocycle:
    return Cocycle(field, 1, MoebiusMap.identity(field))


class TwistedTree:
    """The tree of the field together with a twisted Galois action."""

    def __init__(self, field: LocalField, cocycle: Cocycle):
        self.field = field
        self.cocycle = cocycle

    def apply(self, sigma: int, x):
        """tau * x = a_tau(tau(x)) on vertices and boundary points.  Off
        `moving`, a_tau is the identity in PGL_2 and fixes every vertex,
        midpoints included, so the image of a vertex is its conjugate,
        exactly as apply_vertex returns it."""
        if isinstance(x, Vertex):
            moved = Vertex(x.center.conj(sigma), x.level)
            if sigma in self.cocycle.moving:
                return self.cocycle.witness.apply_vertex(moved)
            return moved
        x = BoundaryPoint.of(x)
        return self.cocycle[sigma].apply_boundary(x.galois(sigma))

    def fixes(self, sigma: int, v: Vertex) -> bool:
        """apply(sigma, v) == v, by `MoebiusMap.sends`: no image is built."""
        moved = Vertex(v.center.conj(sigma), v.level)
        return (self.cocycle.witness.sends(moved, v)
                if sigma in self.cocycle.moving else moved == v)

    def invariant_vertices(self, subgroup, window,
                           include_midpoints: bool = False):
        """Window vertices fixed by the whole subgroup; optionally also the
        midpoints of edges that every element fixes or swaps end for end and
        some element swaps.  An element fixes or swaps an edge exactly when
        it fixes the midpoint, whose image interpolates the ends' images;
        then some element swaps it exactly when an end is moved."""
        def fixed(v):
            return all(self.fixes(s, v) for s in subgroup)

        verts = window.vertices
        ok = [fixed(v) for v in verts]
        out = [v for v, fx in zip(verts, ok) if fx]
        if include_midpoints:
            for pi, ci in window.edges:
                mid = Vertex(verts[ci].center,
                             (verts[pi].level + verts[ci].level) / 2)
                if not ok[ci] and fixed(mid):
                    out.append(mid)
        return out


# ---------------------------------------------------------------------------
# orders of vertices in quaternion coordinates


def order_lattice_of_vertex(triv, v: Vertex):
    """Pull End(Lambda_v) back through the trivialization: four vectors of
    quaternion coordinates spanning the order over the local ring."""
    f = v.field
    a = v.center
    t = f.scale_of_valuation(v.level)
    zero, one = f.zero, f.one
    M = MoebiusMap(a, t, one, zero)
    Minv = M.inv()
    vecs = []
    for k in range(4):  # the matrix units E_11, E_12, E_21, E_22
        E = MoebiusMap(*(one if i == k else zero for i in range(4)))
        X = M * E * Minv
        vecs.append(tuple(triv.matrix_coords(X)))
    return vecs


class SubfieldLattice:
    """Per (L, E) machinery for an L/E with f(L/E) = 1 and e(L/E) > 1: the
    O_E-basis mhat_t = pi_L^t (0 <= t < e(L/E)) of O_L, the change of basis
    to it (`decompose`), and the two subfield tests built on it.
    `VertexOrder._decide` sends every ramified E with f_E < f_L to relative
    descent first, so no other pair reaches here; one that does raises
    InternalInvariant.

    Where the cocycle is trivial on Gal(L/E), T_E is the standard E-tree
    and `distance` decides it in closed form.  The lattice echelon is left
    for the twisted pairs: `functionals` gives its rows, and the pivot
    kernel is their only consumer.

    v(mhat_t) = t / e_L lies in [0, 1/e_E).  The subfield test bounds
    component t of a decomposition by -v(mhat_t), and the least point of
    E's value group at or above that bound is 0: the components enter the
    echelon as they are, with no power of pi_E to multiply in.  The
    construction checks the valuations."""

    def __init__(self, sub: Subfield):
        self.sub = sub
        L = sub.parent
        E = sub.field
        self.L, self.E = L, E
        self.e_rel = L.e // E.e
        self.f_rel = L.f // E.f
        self.mhat = self._basis()
        if len(self.mhat) != L.degree // E.degree:
            raise InternalInvariant(f"{len(self.mhat)} mhat for {sub}")
        self._mhat_vals = [mh.valuation() for mh in self.mhat]
        if not all(0 <= val * E.e < 1 for val in self._mhat_vals):
            raise InternalInvariant(
                f"an mhat valuation leaves [0, 1/e_E) for {sub}")
        # rational change of basis: columns are embed(E-monomial)*mhat;
        # its inverse is kept over one denominator as sparse integer
        # columns, the (row, value) pairs of each column's nonzero entries
        cols = [(sub.embed(E.monomial(em)) * mh).coords
                for mh in self.mhat for em in range(E.degree)]
        to_mhat = inverse(list(zip(*cols)))
        self._den = math.lcm(*(c.denominator for row in to_mhat for c in row))
        self._cols = tuple(
            tuple([(i, int(row[j] * self._den))
                   for i, row in enumerate(to_mhat) if row[j]])
            for j in range(len(to_mhat)))

    def _basis(self) -> list:
        """mhat: the powers pi_L^t, 0 <= t < e(L/E)."""
        if self.f_rel != 1:
            raise InternalInvariant(
                f"f(L/E) = {self.f_rel} for {self.sub}: relative descent "
                "decides every pair with f_E < f_L")
        return [self.L.pi_pow(t) for t in range(self.e_rel)]

    def decompose(self, num) -> list:
        """The change of basis on the integer numerator of an element
        x = num / den of L: the integer vector y with
        x = sum_t mhat_t * y[t n : (t + 1) n] / (den * _den) in E's
        coordinates, n = [E : Q_p].  Only nonzero entries of num meet the
        change of basis, each through its sparse column."""
        y = [0] * len(self._cols)
        for c, col in zip(num, self._cols):
            if c:
                for i, r in col:
                    y[i] += c * r
        return y

    def distance(self, x):
        """dist(x, E) = max over y in E of v(x - y), INFINITY for x in E.

        Write x = sum_t mhat_t y_t with y_t in E.  The terms with t >= 1
        have valuations t / e_L + v(y_t) in distinct classes modulo E's
        value group (1/e_E)Z, and none of them lies in it, so they cannot
        cancel: v(x - y) = min(v(y_0 - y), min over t >= 1 of those), and
        y = y_0 attains the maximum, the minimum over t >= 1."""
        E, n = self.E, self.E.degree
        y, den = self.decompose(x.num), x.den * self._den
        dist = INFINITY
        for t in range(1, self.e_rel):
            part = tuple(y[t * n:(t + 1) * n])
            if any(part):
                dist = val_min(dist, self._mhat_vals[t]
                               + _reduced(E, part, den).valuation())
        return dist

    def functionals(self, matrix):
        """The echelon rows for the rows of a matrix over L, as the integer
        vectors and scales that `pivot_valuation_sum` takes.  Writing each
        entry x = sum_s mhat_s * y_s with y_s in E, component s of the
        entries of one matrix row is one echelon row: an E-functional.  A
        matrix row's entries are brought to the lcm of their denominators
        before `decompose`, so that row's components share one scale."""
        n, width = self.E.degree, len(self._cols)
        rows, scales = [], []
        for xs in matrix:
            den = math.lcm(*(x.den for x in xs))
            images = [self.decompose(x.num if x.den == den else
                                     [c * (den // x.den) for c in x.num])
                      for x in xs]
            for s in range(0, width, n):
                rows.append([tuple(y[s:s + n]) for y in images])
            scales.extend([den * self._den] * (width // n))
        return rows, scales


# keyed by the Subfield itself: the key holds its parent field alive
_SUBLATTICE_CACHE: dict = {}
_FIXING_GENERATORS: dict = {}


def sublattice_machinery(sub: Subfield) -> SubfieldLattice:
    if sub not in _SUBLATTICE_CACHE:
        _SUBLATTICE_CACHE[sub] = SubfieldLattice(sub)
    return _SUBLATTICE_CACHE[sub]


def fixing_generators(sub: Subfield) -> list:
    """Independent generators of the Galois masks fixing the subfield."""
    if sub not in _FIXING_GENERATORS:
        _FIXING_GENERATORS[sub] = xor_basis(sub.fixing_masks())
    return _FIXING_GENERATORS[sub]


class VertexOrder:
    """What the subfield test needs to know about one vertex, computed at
    most once however many subfields it is asked about: which Galois
    elements fix the vertex under the twisted action, the inverse of its
    order lattice in quaternion coordinates, and its answer for each
    subfield it was asked about, keyed by the subfield's span.

    `conjugates` holds M^-1 I M and M^-1 J M, the trivialization's i- and
    j-images in the vertex basis M as `conjugate_by_vertex` gives them,
    where the caller already has them (the flood fill
    `enumerate.branch_walk` steps each group image from member to member);
    a None is conjugated on first use."""

    def __init__(self, tree: TwistedTree, triv, v: Vertex,
                 conjugates=(None, None)):
        self.tree = tree
        self.triv = triv
        self.v = v
        self._conjugates = conjugates
        self._fixed = {0: True}
        self._stabilizer = [0]  # the masks known to fix v: a subgroup
        self._answers = {}  # span -> whether v is in that subfield's tree

    def fixed_by(self, sigma: int) -> bool:
        """Does sigma fix v under the twisted action?  By the cocycle law
        the action is a group action, so the stabilizer of v is a subgroup
        of the elementary abelian Galois group: for k in it, sigma fixes v
        iff sigma ^ k does.  An answer known for some sigma ^ k is reused,
        and a sigma found to fix v adds sigma ^ k to the stabilizer for
        every k already in it, so the action is computed only for masks
        in no known coset."""
        fixed = self._fixed
        if sigma not in fixed:
            stab = self._stabilizer
            if any(sigma ^ k in fixed for k in stab):
                fixed[sigma] = False  # that sigma ^ k is outside stab
            elif self.tree.fixes(sigma, self.v):
                coset = [sigma ^ k for k in stab]
                fixed.update(dict.fromkeys(coset, True))
                stab.extend(coset)
            else:
                fixed[sigma] = False
        return fixed[sigma]

    @cached_property
    def lattice_inverse(self) -> list:
        """Rows of B^-1, where the columns of B are the quaternion
        coordinates of End(Lambda_v).  B = T^-1 Ad(M) with T's columns the
        trivialization basis (1, I, J, IJ) and M = [[a, t], [1, 0]], so
        column j of B^-1 = Ad(M^-1) T is M^-1 b_j M: the closed form of
        `conjugate_by_vertex`, whose basis [[t, a], [0, 1]] is M with its
        columns swapped, read in reverse.  The columns are 1, X_I, X_J and
        X_I X_J, as M^-1 I J M = (M^-1 I M)(M^-1 J M): one 2x2 product
        beside the conjugates not already held.  I, J and IJ anticommute
        in pairs, so each has trace 0, and so has its conjugate: the
        product takes six field products."""
        f, v = self.v.field, self.v
        xi, xj = (conjugate_by_vertex(b, v) if x is None else x
                  for x, b in zip(self._conjugates, self.triv.basis[1:3]))
        a1, b1, c1, _ = xi
        a2, b2, c2, _ = xj
        k11 = a1 * a2 + b1 * c2
        xk = (k11, a1 * b2 - b1 * a2, c1 * a2 - a1 * c2, -k11)
        xs = ((f.one, f.zero, f.zero, f.one), xi, xj, xk)
        return [[x[k] for x in xs] for k in (3, 2, 1, 0)]

    def in_subtree(self, sub: Subfield) -> bool:
        """Is the vertex a vertex of the twisted subtree of the subfield?

        Criterion: the order of v is spanned over O_L by its E-rational
        part, equivalently the E-rational sublattice has full volume.  A
        cheap twisted Galois invariance check filters first.  Four exact
        facts decide most pairs without the lattice echelon:

        - trivial descent: where a_sigma = 1 in PGL_2 for every sigma in
          Gal(L/E) (the cocycle moves nothing, or sqrt(flip_d) lies in E),
          the twisted action of Gal(L/E) is the coordinate one, so
          tau(H_E) = M_2(E).  The orders that descend are End(Lambda (x)
          O_L) for the O_E-lattices Lambda, and T_E is the standard E-tree:
          B(a, r) lies in it exactly when r is in (1/e_E)Z and
          v(a - y) >= r for some y in E (`SubfieldLattice.distance`).
          Elsewhere a sigma in Gal(L/E) acts through the witness, and the
          vertices of T_E need not sit on E's levels;
        - unramified descent: if L/E is unramified (E.e == L.e), O_L/O_E is
          etale and H^1(Gal(L/E), GL_n(O_L)) is trivial, so an invariant
          order descends to O_E (J.-P. Serre, Local Fields, GTM 67);
        - subfield inclusion: if E lies in E', the E-rational quaternions
          H_E lie in H_E', so O_v = O_L (O_v cap H_E) gives
          O_v = O_L (O_v cap H_E').  T_E lies in T_E', and v is outside
          every subfield of one it was found outside;
        - relative unramified descent: with L_ur the maximal unramified
          subfield of L and E' = E L_ur, v is in T_E exactly when
          Gal(L/E) fixes v and v is in T_E'.  (=>) T_E lies in T_E', and
          an order spanned by Gal(L/E)-fixed elements is Gal(L/E)-stable.
          (<=) Lambda' = O_v cap H_E' spans O_v over O_L and is a
          Gal(E'/E)-stable O_E'-lattice (H_E' is Gal(L/E)-stable, as
          Gal(L/E') is normal); O_E'/O_E is etale, so
          Lambda' = O_E' (Lambda' cap H_E) and O_L (O_v cap H_E) = O_v.

        Every answer is kept, by span, for the inclusion fact and for the
        E' that relative descent asks.  The echelon is left for the pairs
        none of these decides.
        """
        if sub.parent is not self.tree.field:
            raise InternalInvariant(
                f"{sub} is not a subfield of the tree's {self.tree.field}")
        span = sub.span
        answers = self._answers
        if span not in answers:
            answers[span] = (
                not any(span < s for s, ok in answers.items() if not ok)
                and self._decide(sub))
        return answers[span]

    def _decide(self, sub: Subfield) -> bool:
        """`in_subtree` for a subfield the memo cannot answer.

        Midpoints and vertices the twisted action moves are outside;
        unramified L/E descends, and a ramified L/E with f_E < f_L is
        decided at E' = E L_ur.  Invariance is asked of the subfield's
        fixing generators, cached per subfield.  E' is a proper subfield,
        as E' = L would force e_E = e_L.

        Where the cocycle is trivial on Gal(L/E), T_E is the standard
        E-tree (see `in_subtree`): a level off E's value group is outside,
        and a ramified pair with f(L/E) = 1 is the one distance test
        dist(a, E) >= r of the center a and level r.  Neither holds for a
        twisted pair, whose vertices need not sit on E's levels.

        For the twisted ramified pairs, each entry of B^-1 is decomposed
        over the mhat basis, and component s of the entries of one row is
        one echelon row: an E-functional, and the E-rational part of the
        order is where all of them are integral (SubfieldLattice shows why
        no component needs scaling).  The rows' echelon over O_E is never
        built: `pivot_valuation_sum` eliminates on their integer vectors
        and gives n = [E : Q_p] times the sum of its pivot valuations, or
        None below full rank.

        The dual lattice {x : <g, x> integral for all g in the echelon G}
        is spanned by the columns of G^-1, and G is triangular with its
        pivots on the diagonal, so the dual volume is minus the pivot
        sum; the order's volume is v(det B) = -v(det T) at every vertex,
        as det Ad(M) = 1."""
        L = self.tree.field
        E = sub.field
        level = self.v.level
        if (level * L.e).denominator != 1:
            return False  # midpoints never carry an O_L-order
        if not all(map(self.fixed_by, fixing_generators(sub))):
            return False
        trivial = self.tree.cocycle.trivial_on(sub.span)
        if trivial and (level * E.e).denominator != 1:
            return False  # level not in the value group of E's own tree
        if E.e == L.e:
            return True  # L/E unramified (E = L included): v descends
        if E.f < L.f:
            u = L.unramified_mask
            wider = L.subfield_of_span(sub.span | {m ^ u for m in sub.span})
            if wider is None:
                raise InternalInvariant(f"no proper subfield E L_ur for {sub}")
            return self.in_subtree(wider)  # E'/E unramified: v descends
        lattice = sublattice_machinery(sub)
        if trivial:
            return lattice.distance(self.v.center) >= level
        rows, scales = lattice.functionals(self.lattice_inverse)
        total = pivot_valuation_sum(E, rows, scales)
        return (total is not None
                and total == E.degree * self.triv.basis_valuation)


def subfield_vertex_test(tree: TwistedTree, triv, v: Vertex,
                         sub: Subfield) -> bool:
    """Is v a vertex of the twisted subtree of the subfield?  To test one
    vertex against several subfields, build one VertexOrder and ask it."""
    return VertexOrder(tree, triv, v).in_subtree(sub)
