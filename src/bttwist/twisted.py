"""Twisted Galois forms of the tree and subfield-tree membership.

A 1-cocycle valued in Moebius maps twists the coordinate Galois action:
tau * x = a_tau(tau(x)).  The nontrivial class realizes the quaternion
division algebra; vertices of the subtree belonging to an intermediate
field E are recognized by an exact lattice criterion: the order of the
vertex must be spanned over O_L by its E-rational quaternions.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CocycleLawViolated
from .padic import FieldElement, LocalField, Subfield, parity
from .bttree import BoundaryPoint, MoebiusMap, Vertex
from .quatalg import Matrix2


class GaloisGroup:
    """Gal(L/Q_p) of a model field: sign patterns on the square roots."""

    def __init__(self, field: LocalField):
        self.field = field
        self.elements = tuple(range(field.degree))

    def compose(self, s: int, t: int) -> int:
        return s ^ t

    def subgroup_fixing(self, sub: Subfield) -> tuple:
        return sub.fixing_masks()

    def flips(self, sigma: int, d: int) -> bool:
        """Does sigma change the sign of sqrt(d)?"""
        for m in range(1, self.field.degree):
            if self.field.span_class[m][0] == d:
                return parity(sigma & m) == 1
        raise ValueError(f"sqrt({d}) not in {self.field}")


class Cocycle:
    """A map sigma -> a_sigma into Moebius maps satisfying the cocycle law
    a_{st} = a_s . s(a_t); verified exhaustively at construction."""

    def __init__(self, field: LocalField, maps: dict):
        self.field = field
        self.maps = dict(maps)
        for s in range(field.degree):
            if s not in self.maps:
                raise ValueError("cocycle must be defined on every element")
        for s in range(field.degree):
            for t in range(field.degree):
                lhs = self.maps[s ^ t]
                rhs = self.maps[s] * self.maps[t].galois(s)
                if not lhs.proj_eq(rhs):
                    raise CocycleLawViolated(f"law fails at ({s}, {t})")

    def __getitem__(self, sigma: int) -> MoebiusMap:
        return self.maps[sigma]


def trivial_cocycle(field: LocalField) -> Cocycle:
    ident = MoebiusMap.identity(field)
    return Cocycle(field, {s: ident for s in range(field.degree)})


def standard_cocycle(field: LocalField, flip_d: int,
                     witness: MoebiusMap) -> Cocycle:
    """a_sigma = witness for every sigma flipping sqrt(flip_d), else id.

    With the division-algebra presentation (pi, Delta) and the trivialization
    i -> [[0,1],[pi,0]], j -> diag(sqrt Delta, -sqrt Delta), the witness is
    the i-image; general trivializations supply their own witness."""
    G = GaloisGroup(field)
    ident = MoebiusMap.identity(field)
    maps = {}
    for s in range(field.degree):
        maps[s] = witness if G.flips(s, flip_d) else ident
    return Cocycle(field, maps)


class TwistedTree:
    """The tree of the field together with a twisted Galois action."""

    def __init__(self, field: LocalField, cocycle: Cocycle):
        self.field = field
        self.cocycle = cocycle
        self.group = GaloisGroup(field)

    def apply(self, sigma: int, x):
        """tau * x = a_tau(tau(x)) on vertices and boundary points."""
        a = self.cocycle[sigma]
        if isinstance(x, Vertex):
            moved = Vertex(x.center.conj(sigma), x.level)
            return a.apply_vertex(moved)
        x = BoundaryPoint.of(x)
        return a.apply_boundary(x.galois(sigma))

    def invariant(self, subgroup, v) -> bool:
        return all(self.apply(s, v) == v for s in subgroup)

    def invariant_vertices(self, subgroup, window,
                           include_midpoints: bool = False):
        """Window vertices fixed by the whole subgroup; optionally also the
        flagged midpoints of swapped edges."""
        out = [v for v in window if self.invariant(subgroup, v)]
        if include_midpoints:
            half = Fraction(1, 2 * self.field.e)
            for pi, ci in window.edges:
                p, c = window.vertices[pi], window.vertices[ci]
                mid = Vertex(c.center, (p.level + c.level) / 2)
                swapped = any(
                    self.apply(s, p) == c and self.apply(s, c) == p
                    for s in subgroup
                )
                stable = all(
                    (self.apply(s, p) == p and self.apply(s, c) == c)
                    or (self.apply(s, p) == c and self.apply(s, c) == p)
                    for s in subgroup
                )
                if swapped and stable:
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
    M = Matrix2(a, t, one, zero)
    Minv = M.inv()
    vecs = []
    for (r, c) in ((0, 0), (0, 1), (1, 0), (1, 1)):
        E = Matrix2(one if (r, c) == (0, 0) else zero,
                    one if (r, c) == (0, 1) else zero,
                    one if (r, c) == (1, 0) else zero,
                    one if (r, c) == (1, 1) else zero)
        X = M * E * Minv
        vecs.append(tuple(triv.matrix_coords(X)))
    return vecs


def echelon_over_field_ring(field: LocalField, vectors):
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


def det4_field(field: LocalField, cols):
    import itertools
    det = field.zero
    for perm in itertools.permutations(range(4)):
        inv = sum(1 for i in range(4) for j in range(i + 1, 4)
                  if perm[i] > perm[j])
        term = field.one
        for i in range(4):
            term = term * cols[i][perm[i]]
        det = det + (-term if inv % 2 else term)
    return det


class SubfieldLattice:
    """Per (L, E) machinery: an O_E-basis of O_L adapted to valuations, and
    the decomposition of L over it."""

    def __init__(self, sub: Subfield):
        self.sub = sub
        L = sub.parent
        E = sub.field
        self.L, self.E = L, E
        self.e_rel = L.e // E.e
        self.f_rel = L.f // E.f
        u = L.one
        if self.f_rel == 2:
            from .bttree import approximates_from
            for r in L.residue_reps[1:]:
                if not approximates_from(r, sub, Fraction(1, L.e)):
                    u = r
                    break
            else:
                raise AssertionError("no residue generator found")
        self.mhat = []
        for ti in range(self.e_rel):
            for s in range(self.f_rel):
                self.mhat.append(L.pi_pow(ti) * (u ** s))
        assert len(self.mhat) == L.degree // E.degree
        # rational change of basis: columns are embed(E-monomial)*mhat
        cols = []
        for mh in self.mhat:
            for em in range(E.degree):
                e_mono = E.monomial(em)
                cols.append((sub.embed(e_mono) * mh).coords)
        n = L.degree
        self.to_mhat = _invert_rational([list(c) for c in cols], n)

    def decompose(self, x: FieldElement):
        """x = sum_s mhat_s * y_s with y_s in the subfield model."""
        L, E = self.L, self.E
        sol = _mat_vec(self.to_mhat, list(x.coords))
        out = []
        idx = 0
        for _ in range(len(self.mhat)):
            out.append(FieldElement(E, tuple(sol[idx: idx + E.degree])))
            idx += E.degree
        return out


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


_SUBLATTICE_CACHE: dict = {}


def sublattice_machinery(sub: Subfield) -> SubfieldLattice:
    key = (id(sub.parent), sub.field.sqrt_args)
    if key not in _SUBLATTICE_CACHE:
        _SUBLATTICE_CACHE[key] = SubfieldLattice(sub)
    return _SUBLATTICE_CACHE[key]


def subfield_vertex_test(tree: TwistedTree, triv, v: Vertex,
                         sub: Subfield) -> bool:
    """Is v a vertex of the twisted subtree of the subfield?

    Criterion: the order of v is spanned over O_L by its E-rational part,
    equivalently the E-rational sublattice has full volume.  A cheap twisted
    Galois invariance check filters first.
    """
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
    Binv = _invert_field_4(L, [[B[j][i] for j in range(4)] for i in range(4)])
    # one valuation-bounded E-functional per (matrix row, mhat component)
    import math
    rows = []
    for i in range(4):
        parts = [mach.decompose(Binv[i][j]) for j in range(4)]
        for s, mh in enumerate(mach.mhat):
            bound = -mh.valuation()
            grid = math.ceil(bound * E.e)  # smallest E-grid point >= bound
            piE = E.pi_pow(-grid)
            rows.append([piE * parts[j][s] for j in range(4)])
    G = echelon_over_field_ring(E, rows)
    if len(G) < 4:
        return False
    W = _dual_basis(E, G)
    # compare volumes over L
    W_L = [[sub.embed(x) for x in w] for w in W]
    volW = det4_field(L, W_L).valuation()
    volB = det4_field(L, [list(b) for b in B]).valuation()
    return volW == volB


def _invert_field_4(field: LocalField, rows_or_vecs):
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


def _dual_basis(field: LocalField, G):
    """Basis of {x : <g, x> integral for all g in G}: columns of A^{-1},
    where A is the matrix with rows the basis vectors G."""
    inv_rows = _invert_field_4(field, [list(g) for g in G])
    return [[inv_rows[r][c] for r in range(4)] for c in range(4)]
