"""The stepped flood fill of `branch_vertices` against the per-vertex walk
it replaced (`walk_oracle.per_vertex_walk`), and the nearest-member search
split out of it.

The stepped walk decides each neighbour of a member from the member's
conjugated images, so a wrong step formula, a wrong matrix carried to a
neighbour or the wrong neighbour skipped as the parent shows up as a
different member list, a different order or a different number of tested
vertices.  The tested count is read through the vertex cap: with
`BTTWIST_VERTEX_CAP` one below the oracle's count both walks raise
`WindowInsufficient`, and at the count neither does.  The cases are every
`count-local` context of the golden file from its standard center, starts
off that center (above it, deep below it, inside the branch, at another
center), p = 3 fields and the case (c) representations.
"""

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import walk_oracle
from bttwist import enumerate as counting
from bttwist.bttree import MoebiusMap, Vertex, neighbors
from bttwist.cli import parse_field
from bttwist.errors import WindowInsufficient
from bttwist.globalforms import case_c_example_rep
from bttwist.padic import make_field

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"

CASES = [(w[2], parse_field(w[4]))
         for w in (argv.split() for argv in json.loads(GOLDEN.read_text()))
         if w[0] == "count-local"]
CASE_IDS = [f"{g}-{p}:{','.join(map(str, a))}" for g, (p, a) in CASES]

P3_CASES = [("maxorder", (3, ())), ("maxorder", (3, (3,))),
            ("maxorder", (3, (3, -1))), ("q8", (3, (3,)))]


def _center(amb):
    return Vertex(amb.zero, Fraction(-1, 2) if amb.e % 2 == 0 else 0)


def _same_vertices(got, want):
    """Equal centers (as exact elements, not only as balls) and levels."""
    return ([(v.center, v.level) for v in got]
            == [(v.center, v.level) for v in want])


def _raises(walk, monkeypatch, cap):
    monkeypatch.setenv("BTTWIST_VERTEX_CAP", str(cap))
    try:
        walk()
    except WindowInsufficient:
        return True
    finally:
        monkeypatch.delenv("BTTWIST_VERTEX_CAP")
    return False


def assert_walks_agree(images, center, monkeypatch):
    want, tested = walk_oracle.per_vertex_walk(images, center)
    got = counting.branch_vertices(images, center)
    assert _same_vertices(got, want)
    assert [v.key() for v in got] == [v.key() for v in want]
    nearest = counting.nearest_member(images, center)
    assert _same_vertices([nearest], got[:1])
    old = lambda: walk_oracle.per_vertex_walk(images, center)
    new = lambda: counting.branch_vertices(images, center)
    assert _raises(old, monkeypatch, tested - 1)
    assert _raises(new, monkeypatch, tested - 1)
    assert not _raises(old, monkeypatch, tested)
    assert not _raises(new, monkeypatch, tested)
    return got, tested


def test_golden_file_has_the_count_local_cases():
    assert len(CASES) == 23
    assert {p for _, (p, _) in CASES} == {2, 3}


@pytest.mark.parametrize("group,field", CASES, ids=CASE_IDS)
def test_stepped_walk_matches_per_vertex_walk(group, field, monkeypatch):
    p, args = field
    ctx = counting.make_context(group, p, args)
    assert_walks_agree(ctx.images, _center(ctx.ambient), monkeypatch)


def _off_center_starts(amb, members):
    center = _center(amb)
    step = Fraction(1, amb.e)
    deep = center
    for _ in range(3):
        deep = neighbors(deep)[-1]  # the last child, three times
    return [Vertex(amb.zero, center.level - 2 * step), deep, members[-1],
            Vertex(amb.one, center.level + step),
            neighbors(members[0])[0]]


@pytest.mark.parametrize("group,field", [
    ("q8", (2, (-1, -3, 2))), ("q8", (2, (-3, -1))),
    ("maxorder", (2, (-1,))), ("dicyclic", (2, (-6,))),
    ("hurwitz", (3, (-1,))), ("maxorder", (3, (3, -1)))],
    ids=lambda x: str(x))
def test_off_center_starts(group, field, monkeypatch):
    p, args = field
    ctx = counting.make_context(group, p, args)
    members = counting.branch_vertices(ctx.images, _center(ctx.ambient))
    for start in _off_center_starts(ctx.ambient, members):
        assert_walks_agree(ctx.images, start, monkeypatch)


@pytest.mark.parametrize("group,field", P3_CASES, ids=lambda x: str(x))
def test_p3_fields(group, field, monkeypatch):
    p, args = field
    ctx = counting.make_context(group, p, args)
    assert ctx.ambient.p == 3
    got, _ = assert_walks_agree(ctx.images, _center(ctx.ambient),
                                monkeypatch)
    assert got


@pytest.mark.parametrize("N", [5, 6])
def test_case_c_walks_and_nearest_member(N, monkeypatch):
    i_mat, j_mat = case_c_example_rep(N)
    v0 = Vertex(i_mat.a.field.zero, Fraction(0))
    got, _ = assert_walks_agree([i_mat, j_mat], v0, monkeypatch)
    nearest = counting.nearest_member([i_mat, j_mat], v0)
    assert _same_vertices([nearest], [got[0]])


def test_non_integral_image_has_no_branch():
    f = make_field(2, (-1,))
    half = MoebiusMap(f.one / 2, f.zero, f.zero, f.one)
    center = _center(f)
    assert counting.branch_vertices([half], center) == []
    assert counting.nearest_member([half], center) is None
    assert walk_oracle.per_vertex_walk([half], center) == ([], 0)


def test_table1_walk_makes_two_member_tests(monkeypatch):
    """The walk of `table1` asks `branch_member` only at the standard
    center (a member, one call per image), conjugates the two images once
    there and steps to the other 25 members."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(counting, "branch_member",
                        counted("branch_member", counting.branch_member))
    monkeypatch.setattr(counting, "conjugate_by_vertex",
                        counted("conjugate", counting.conjugate_by_vertex))
    table = counting.table1()
    assert table["total"] == 26
    assert calls == {"branch_member": 2, "conjugate": 2}
