"""`branch_vertices` (seed search and flood fill) against the window scans
it replaced.

On every `count-local` case of the golden file the walk must return the
doubling scan's vertices, with the same keys in the same order, and
`count_integral_forms` must keep those vertices.  For the built-in case (c)
representations the walk's nearest member must sit at the old scan's
distance.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import window_scan_oracle as old
from bttwist import enumerate as counting
from bttwist.bttree import Vertex, distance
from bttwist.cli import parse_field
from bttwist.globalforms import case_c_example_rep

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"


def _count_local_cases():
    out = []
    for argv in json.loads(GOLDEN.read_text()):
        words = argv.split()
        if words[0] == "count-local":
            out.append((words[2], parse_field(words[4])))
    return out


CASES = _count_local_cases()


def _center(ctx):
    """The standard center `count_integral_forms` starts from."""
    amb = ctx.ambient
    return Vertex(amb.zero, Fraction(-1, 2) if amb.e % 2 == 0 else 0)


def test_golden_file_has_the_count_local_cases():
    assert len(CASES) == 23


@pytest.mark.parametrize("group,field", CASES,
                         ids=[f"{g}-{p}:{','.join(map(str, a))}"
                              for g, (p, a) in CASES])
def test_walk_matches_doubling_scan(group, field):
    p, args = field
    ctx = counting.make_context(group, p, args)
    center = _center(ctx)
    want = [v.key() for v in old.doubling_scan(ctx.images, center)]
    got = counting.branch_vertices(ctx.images, center)
    assert [v.key() for v in got] == want
    rep = counting.count_integral_forms(ctx, args)
    kept = {v.key() for v in rep.vertices}
    assert [k for k in want if k in kept] == [v.key() for v in rep.vertices]


@pytest.mark.parametrize("N", [5, 6])
def test_case_c_distance_matches_window_scan(N):
    i_mat, j_mat = case_c_example_rep(N)
    v0 = Vertex(i_mat.a.field.zero, Fraction(0))
    nearest = counting.branch_vertices([i_mat, j_mat], v0)[0]
    assert distance(v0, nearest) == old.case_c_distance(i_mat, j_mat)


@pytest.mark.parametrize("group,args", [("maxorder", (-1,)),
                                        ("dicyclic", (-6,))])
def test_seed_search_leaves_the_center(group, args):
    # these branches miss the standard center, so the walk must search
    # outward before it floods, and still match the doubling scan
    ctx = counting.make_context(group, 2, args)
    center = _center(ctx)
    got = counting.branch_vertices(ctx.images, center)
    assert distance(center, got[0]) > 0
    assert [v.key() for v in got] == [
        v.key() for v in old.doubling_scan(ctx.images, center)]
