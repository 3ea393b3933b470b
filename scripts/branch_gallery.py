#!/usr/bin/env python3
"""Render DOT graphs for a few instructive branches."""

import os
import sys
from fractions import Fraction

from bttwist.padic import make_field
from bttwist.bttree import MoebiusMap, Vertex, Window, emit_dot
from bttwist.branch import branch_member
from bttwist.quatalg import q8_trivialization, standard_groups


def main():
    outdir = sys.argv[1] if len(sys.argv) > 1 else "branch_dot"
    os.makedirs(outdir, exist_ok=True)
    q2 = make_field(2, ())

    class Oracle:
        def __init__(self, mats):
            self.mats = mats

        def contains(self, v):
            return all(branch_member(m, v) for m in self.mats)

    jobs = {
        "nilpotent": (q2, [MoebiusMap.from_rows(q2, [[0, 1], [0, 0]])],
                      Vertex(q2.zero, Fraction(0)), 2),
        "width_two_ball": (q2, [MoebiusMap.from_rows(q2, [[0, 20], [1, 0]])],
                           Vertex(q2.from_rational(2), Fraction(2)), 3),
    }
    omega = make_field(2, (-1, -3, 2))
    triv = q8_trivialization(omega)
    _, (u, v) = standard_groups()["q8"]
    jobs["q8_ball"] = (omega, [triv.image(u), triv.image(v)],
                       Vertex(omega.zero, Fraction(-1, 2)), Fraction(3, 4))

    for name, (field, mats, center, radius) in jobs.items():
        win = Window(center, radius)
        dot = emit_dot(win, Oracle(mats), title=name)
        path = os.path.join(outdir, f"{name}.dot")
        with open(path, "w") as fh:
            fh.write(dot)
        members = sum(1 for w in win if Oracle(mats).contains(w))
        print(f"{name}: {len(win)} window vertices, {members} in the branch "
              f"-> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
