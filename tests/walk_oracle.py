"""The per-vertex walk that `bttwist.enumerate.branch_vertices` replaced,
kept as a test-only oracle.

It searches breadth-first from the center to the nearest member and then
flood-fills through members only, exactly as the stepped walk does, but
decides every vertex it tests with `branch_member`, conjugating each image
by the vertex basis from scratch, and skips the vertex it came from by
`Vertex.__eq__`.  `per_vertex_walk` returns the members in breadth-first
order and the number of vertices tested, each of which counts against the
vertex cap."""

from collections import deque

from bttwist.branch import branch_member
from bttwist.bttree import neighbors, vertex_cap
from bttwist.errors import WindowInsufficient


def per_vertex_walk(images, center) -> tuple:
    if any((m.a + m.d).valuation() < 0 or m.det().valuation() < 0
           for m in images):
        return [], 0
    cap, tested = vertex_cap(), 0
    members, queue = [], deque([(center, None)])
    while queue:
        v, parent = queue.popleft()
        tested += 1
        if tested > cap:
            raise WindowInsufficient(f"branch search exceeds vertex cap {cap}")
        if all(branch_member(m, v) for m in images):
            if not members:
                queue.clear()  # v is the nearest member: flood-fill from it
            members.append(v)
        elif members:
            continue
        queue.extend((n, v) for n in neighbors(v)
                     if parent is None or n != parent)
    return members, tested
