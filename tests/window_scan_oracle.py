"""The window scans that `bttwist.enumerate.branch_vertices` replaced, kept
as test-only oracles.

`doubling_scan` is the loop of the old `count_integral_forms`: scan a window
around the center, double its radius until the members lie strictly inside
(the largest member distance is below the window's largest distance), and
translate a window past the vertex cap into `WindowInsufficient`.
`case_c_distance` is the old `resolve_case_c` scan: the least distance from
the standard vertex to a member of the radius-2 window."""

from fractions import Fraction

from bttwist.branch import branch_member
from bttwist.bttree import Vertex, Window, distance, vertex_cap
from bttwist.errors import (InvalidRepresentation, WindowInsufficient,
                            WindowTooLarge)


def doubling_scan(images, center, initial_radius=Fraction(3, 4)) -> list:
    radius = Fraction(initial_radius)
    cap = vertex_cap()
    while True:
        try:
            win = Window(center, radius)
        except WindowTooLarge as exc:
            raise WindowInsufficient(str(exc))
        d_max = max(win.distances)
        picked = [(v, d) for v, d in zip(win.vertices, win.distances)
                  if all(branch_member(m, v) for m in images)]
        members = [v for v, _ in picked]
        if members and d_max > 0 and max(d for _, d in picked) < d_max:
            return members
        if len(win) >= cap:
            raise WindowInsufficient(
                f"branch not strictly inside any window up to cap {cap}")
        radius *= 2


def case_c_distance(i_mat, j_mat):
    f = i_mat.a.field
    v0 = Vertex(f.zero, Fraction(0))
    win = Window(v0, 2)
    members = [v for v in win
               if branch_member(i_mat, v) and branch_member(j_mat, v)]
    if not members:
        raise InvalidRepresentation("no maximal order contains the image nearby")
    return min(distance(v0, v) for v in members)
