"""Counting integral forms: intersect a group's branch with the subfield
tree inside the twisted form and count vertices.

For an absolutely irreducible representation the count over E is the number
of vertices of the E-subtree whose maximal orders contain the group image.
Everything runs in an ambient model field large enough to split the algebra
and host the trivialization.  The branch is an intersection of subtrees, so
it is convex and connected: a breadth-first search with `branch_member`
finds its nearest vertex, and a flood fill through members finds the rest.
The neighbours of a vertex are the points of P^1 over the residue field (one
up, one child per residue class), so the fill steps each member's images,
conjugated into the vertex basis, to its neighbours without rebuilding them.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations

from .errors import (FieldTooSmall, InternalInvariant,
                     NotAbsolutelyIrreducible, NotInField, NotSquareFree,
                     SplitPrime, WindowInsufficient)
from .padic import LocalField, make_field, quad_ext_type
from .bttree import MoebiusMap, Vertex, neighbors, vertex_cap
from .branch import branch_member, conjugate_by_vertex
from .linalg import rank
from .quatalg import (HAMILTON, QuaternionAlgebra, find_trivialization,
                      maxorder_generators, q8_trivialization, standard_groups)
from .twisted import Cocycle, TwistedTree, VertexOrder


class IFReport:
    """A count of integral forms with its vertices; equal by its fields."""

    __slots__ = ("group", "subfield_args", "ambient_args", "e", "f", "count",
                 "vertices", "vertex_ids")

    def __init__(self, group: str, subfield_args: tuple, ambient_args: tuple,
                 e: int, f: int, count: int, vertices: list):
        if count != len(vertices):
            raise InternalInvariant(
                f"count {count} != {len(vertices)} vertices")
        self.group = group
        self.subfield_args = subfield_args
        self.ambient_args = ambient_args
        self.e = e
        self.f = f
        self.count = count
        self.vertices = vertices
        self.vertex_ids = [v.key() for v in vertices]

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return "IFReport(" + ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self.__slots__, self._fields())) + ")"


class CountingContext:
    """Ambient field, trivialization, cocycle-twisted tree, and the matrix
    images of the group generators."""

    def __init__(self, group_name: str, ambient: LocalField, triv, gens):
        self.group = group_name
        self.ambient = ambient
        self.triv = triv
        self.images = [triv.image(g) for g in gens]
        self.tree = TwistedTree(
            ambient, Cocycle(ambient, triv.flip_d, triv.cocycle_witness))
        self._check_irreducible()

    def _check_irreducible(self):
        """The generated algebra must be all of the 2x2 matrices.

        Two images A and B with det(AB - BA) != 0 settle it at once.  Over
        an algebraic closure, a proper subalgebra of M_2 containing 1 fixes
        a line (Burnside), so A and B would share an eigenvector w, and
        AB - BA would kill w.  The span's rank does not change under the
        extension, so the images generate M_2 over the model.  When every
        pair commutes up to a singular matrix, products of the images are
        added until the rank stops growing."""
        if any(not (x * y + -(y * x)).det().is_zero()
               for x, y in combinations(self.images, 2)):
            return
        elems = [MoebiusMap.identity(self.ambient)] + list(self.images)
        r = rank([m.entries for m in elems])
        while r < 4:
            cand = elems + [x * y for x in elems for y in self.images]
            new_r = rank([m.entries for m in cand])
            if new_r == r:
                break
            elems, r = cand, new_r
        if r < 4:
            raise NotAbsolutelyIrreducible(
                f"generated algebra has rank {r} < 4")


_TRIV_EXTENSIONS = [-3, -1, 2, -2, 3, 6, -6]


def _ambient_for(alg: QuaternionAlgebra, p: int, e_args: tuple):
    """A model containing E and admitting a trivialization of the algebra:
    E itself, else E with one of `_TRIV_EXTENSIONS` adjoined.  A candidate
    fails when the extra root is already in E or splits at p, or when the
    model holds no trivialization; FieldTooSmall then names each candidate
    and why it failed."""
    make_field(p, e_args)  # a bad base field raises its own error
    failures = []
    for extra in [()] + [(d,) for d in _TRIV_EXTENSIONS]:
        args = tuple(e_args) + extra
        try:
            amb = make_field(p, args)
            if alg == HAMILTON and p == 2:
                return amb, q8_trivialization(amb)
            return amb, find_trivialization(alg, amb)
        except (NotSquareFree, SplitPrime, FieldTooSmall, NotInField) as exc:
            failures.append(f"{args} {type(exc).__name__}: {exc}")
    raise FieldTooSmall(
        f"no trivialization of {alg} over extensions of Q_{p}{e_args}; "
        + "; ".join(failures))


def make_context(group: str, p: int, e_args: tuple,
                 maxorder_params=None) -> CountingContext:
    e_args = tuple(e_args)
    if group == "maxorder":
        pi, delta = maxorder_params if maxorder_params else (p, _unram_unit(p))
        alg, gens = maxorder_generators(pi, delta)
    else:
        alg, gens = standard_groups()[group]
    ambient, triv = _ambient_for(alg, p, e_args)
    return CountingContext(group, ambient, triv, gens)


def _unram_unit(p: int) -> int:
    """A small squarefree integer generating the unramified quadratic."""
    for d in (-3, -1, 2, -2, 3, 5, -5, 6, -6, 7):
        if quad_ext_type(d, p) == "unramified":
            return d
    raise FieldTooSmall(f"no small unramified unit found at p={p}")


def _search(images, center: Vertex):
    """Breadth-first from center to the nearest member, asking
    `branch_member`: (member, skip, tested) or None for a non-integral
    image.  skip indexes in `neighbors(member)` the vertex the search came
    from (None at the center); tested counts against the vertex cap."""
    # a matrix lies in some maximal order iff its trace and determinant are
    # integral, so a non-integral image has no branch to search for
    if any((m.a + m.d).valuation() < 0 or m.det().valuation() < 0
           for m in images):
        return None
    cap, tested = vertex_cap(), 0
    queue = deque([(center, None)])
    while True:
        v, skip = queue.popleft()
        tested += 1
        if tested > cap:
            raise WindowInsufficient(f"branch search exceeds vertex cap {cap}")
        if all(branch_member(m, v) for m in images):
            return v, skip, tested
        # v is the c = 0 child (index 1) of its up-neighbour (index 0 in
        # neighbors(v)) and the up-neighbour of each of its children
        queue.extend((n, 0 if i else 1) for i, n in enumerate(neighbors(v))
                     if i != skip)


def nearest_member(images, center: Vertex):
    """The first member of the images' branch in breadth-first order from
    center, or None for a non-integral image."""
    found = _search(images, center)
    return found and found[0]


def branch_vertices(images, center: Vertex) -> list:
    """The branch of the images in breadth-first order from center: a
    flood fill through members from the nearest one.  Each vertex tested
    counts against the vertex cap; passing it raises WindowInsufficient.

    The queue carries each member B(a, r) with X = M^-1 q M = [[x11, x12],
    [x21, x22]] for each image q, M = [[t, a], [0, 1]], and decides each
    neighbour from X with one valuation per image.  The child B(a + c t,
    r + 1/e), basis M [[pi, c], [0, 1]], has X' = [[x11 - c x21, y / pi],
    [pi x21, x22 + c x21]] with y = x12 + c (x11 - x22 - c x21): a member
    iff v(y) >= 1/e.  The residue representatives begin with 0 and 1 (an
    invariant of `LocalField.residue_reps`), and at those two no product by
    c is taken.  The up-neighbour B(a, r - 1/e), basis M [[1/pi, 0],
    [0, 1]], has X' = [[x11, pi x12], [x21 / pi, x22]]: a member iff
    v(x21) >= 1/e.  The vertex a member came from is skipped by position."""
    found = _search(images, center)
    if found is None:
        return []
    v, skip, tested = found
    f = v.field
    cap, step = vertex_cap(), Fraction(1, f.e)
    pi, pi_inv, reps = f.pi_pow(1), f.pi_pow(-1), f.residue_reps
    members = []
    queue = deque([(v, skip, [conjugate_by_vertex(m, v) for m in images])])
    while queue:
        v, skip, xs = queue.popleft()
        members.append(v)
        tested += (f.q + 1) - (skip is not None)
        if tested > cap:
            raise WindowInsufficient(f"branch search exceeds vertex cap {cap}")
        if skip != 0 and all(x[2].valuation() >= step for x in xs):
            queue.append((Vertex(v.center, v.level - step), 1,
                          [(x11, x12 * pi, x21 * pi_inv, x22)
                           for x11, x12, x21, x22 in xs]))
        t = f.scale_of_valuation(v.level)
        for i in range(skip == 1, len(reps)):
            c = reps[i]
            shifted = []
            for x11, x12, x21, x22 in xs:
                if i >= 2:
                    cx21 = x21 * c
                    x11, x12, x22 = (x11 - cx21, x12 + (x11 - x22 - cx21) * c,
                                     x22 + cx21)
                elif i:  # c = 1
                    x11, x12, x22 = (x11 - x21, x12 + (x11 - x22 - x21),
                                     x22 + x21)
                if x12.valuation() < step:  # x12 is y now
                    break
                shifted.append((x11, x12, x21, x22))
            else:
                queue.append((Vertex(v.center + c * t, v.level + step), 0,
                              [(x11, y * pi_inv, x21 * pi, x22)
                               for x11, y, x21, x22 in shifted]))
    return members


def member_orders(ctx: CountingContext) -> list:
    """A `VertexOrder` for each member of the branch of the group images,
    found from the standard center by `branch_vertices`."""
    amb = ctx.ambient
    center_level = Fraction(-1, 2) if amb.e % 2 == 0 else Fraction(0)
    return [VertexOrder(ctx.tree, ctx.triv, v)
            for v in branch_vertices(ctx.images,
                                     Vertex(amb.zero, center_level))]


def count_integral_forms(ctx: CountingContext, e_args: tuple,
                         orders=None) -> IFReport:
    """Count the group's integral forms over the subfield given by e_args.

    Each member's `VertexOrder` (from `member_orders`, or the caller's
    `orders`, which must be that list) is asked whether the member is a
    vertex of the subfield's subtree.  When e_args generate the whole
    ambient field, the test keeps exactly the members on its lattice
    levels.
    """
    amb = ctx.ambient
    e_args = tuple(e_args)
    sub = amb.find_subfield(e_args)
    if orders is None:
        orders = member_orders(ctx)
    vertices = [o.v for o in orders if o.in_subtree(sub)]
    return IFReport(ctx.group, e_args, amb.sqrt_args, sub.field.e,
                    sub.field.f, len(vertices), vertices)


def count_local(group: str, p: int, e_args: tuple,
                maxorder_params=None) -> IFReport:
    """Conjugacy classes of integral representations of the group over the
    field Q_p(sqrt d : d in e_args); `maxorder_params` is the (pi, delta)
    of the division algebra whose maximal order is the group "maxorder"."""
    ctx = make_context(group, p, e_args, maxorder_params)
    return count_integral_forms(ctx, e_args)


# ---------------------------------------------------------------------------
# the 14-subfield table over the full dyadic tower


OMEGA_ARGS = (-1, -3, 2)
SYMBOL_A = (2, -2, 6, -6)
SYMBOL_B = (3, -1)


def table1() -> dict:
    """Counts of dyadic integral forms of Q8 over every proper subfield of
    the full tower, with the singleton cross-intersections between
    ramified-pair classes."""
    ctx = make_context("q8", 2, OMEGA_ARGS)
    amb = ctx.ambient
    orders = member_orders(ctx)
    report = count_integral_forms(ctx, OMEGA_ARGS, orders)
    members = report.vertices
    # the rows index report.vertices: the count over L keeps every member,
    # as the walk steps along L's lattice levels
    if len(members) != len(orders):
        raise InternalInvariant(
            f"{len(orders) - len(members)} branch members off L's levels")
    subs = [s for s in amb.subfields() if s.field.degree > 1]
    # ask the largest subfields first, so that a vertex found outside one is
    # outside its subfields without a test; report in `subs` order
    inside = {s: [order.in_subtree(s) for order in orders]
              for s in reversed(subs)}
    ids = [str(k) for k in report.vertex_ids]
    rows = []
    for s in subs:
        hit = [i for i, ok in enumerate(inside[s]) if ok]
        rows.append({
            "field": s.field.sqrt_args,
            "e": s.field.e,
            "f": s.field.f,
            "count": len(hit),
            "vertex_ids": sorted(ids[i] for i in hit),
            "members": hit,
        })
    cross = {}
    for a in SYMBOL_A:
        for b in SYMBOL_B:
            sa = next(r["members"] for r in rows if r["field"] == (a,))
            sb = next(r["members"] for r in rows if r["field"] == (b,))
            cross[(a, b)] = len(set(sa) & set(sb))
    quad_counts = sorted(r["count"] for r in rows if len(r["field"]) == 1)
    quart_counts = sorted(r["count"] for r in rows if len(r["field"]) == 2)
    return {
        "group": "q8",
        "base_field": f"Q_2",
        "total": len(members),
        "rows": rows,
        "cross_table": cross,
        "summary": {
            "quadratic_counts": quad_counts,
            "quartic_counts": quart_counts,
        },
    }
