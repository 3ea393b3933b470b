"""The digit expansion and the distance to a subfield, against the digit
loops kept in `vertex_oracle`.

`Vertex.key` (through `bttree.digit_rest`) is compared with the loop
`digit_rest` replaced; `SubfieldLattice.distance`, the program's closed
form for how near an element comes to a subfield, with the digit walk
over the subfield's embedded digits; and the residue generator of the
general subfield lattice (`subfield_test_oracle.GeneralSubfieldLattice`,
the f(L/E) = 2 basis that `SubfieldLattice` no longer builds) with the
oracle's search.  The elements are seeded, in fields of degree 1, 2, 4
and 8 at p = 2 and of degree 1, 2 and 4 at p = 3 and 5 (a multiquadratic
field with one prime above an odd p has degree at most 4).  The centers
include zero, centers already reduced, midpoints, negative valuations and
valuations off a subfield's value group.
"""

import random
from fractions import Fraction

import pytest

from bttwist.bttree import Vertex, digit_rest
from bttwist.errors import InternalInvariant
from bttwist.padic import INFINITY, make_field
from bttwist.twisted import SubfieldLattice, sublattice_machinery
from helpers import in_standard_subtree
from subfield_test_oracle import GeneralSubfieldLattice

import vertex_oracle as old

FIELDS = [(2, ()), (2, (-1,)), (2, (-3,)), (2, (-3, 2)), (2, (-1, -3, 2)),
          (3, ()), (3, (2,)), (3, (3,)), (3, (-1, 3)),
          (5, ()), (5, (2,)), (5, (5,)), (5, (2, 5))]
IDS = [f"{p}:{','.join(map(str, a))}" for p, a in FIELDS]


def centers(f, rng, n):
    """Seeded elements: zero, and small elements times pi^k for k from -3
    to 3, with denominators p so that digits below the unit level occur."""
    out = [f.zero, f.one, f.uniformizer, f.pi_pow(-2)]
    while len(out) < n:
        coords = [Fraction(rng.randint(-6, 6), rng.choice((1, 1, f.p)))
                  if rng.random() < 0.6 else 0 for _ in range(f.degree)]
        x = f.el(coords)
        out.append(x * f.pi_pow(rng.randint(-3, 3)))
    return out


def levels(f, rng, n):
    """Lattice levels in (1/e)Z from -3 to 4 and midpoints between them."""
    e = f.e
    return [Fraction(rng.randint(-3 * e, 4 * e), e) if rng.random() < 0.7
            else Fraction(2 * rng.randint(-3 * e, 4 * e) + 1, 2 * e)
            for _ in range(n)]


def ceil_units(level, e):
    return -(-level.numerator * e // level.denominator)


@pytest.mark.parametrize("p,args", FIELDS, ids=IDS)
def test_vertex_key_matches_the_old_reduction(p, args):
    f = make_field(p, args)
    rng = random.Random(1000 * p + len(args))
    seen = {"zero": 0, "negative": 0, "midpoint": 0, "above": 0}
    for a in centers(f, rng, 40):
        for level in levels(f, rng, 4) + [Fraction(0)]:
            n_end = ceil_units(level, f.e)
            want = old.reduce_center(a, n_end)
            key = Vertex(a, level).key()
            assert key == (level, want.key())
            # an already reduced center reduces to itself
            assert Vertex(want, level).key() == key
            v = a.valuation()
            seen["zero"] += v is INFINITY
            seen["negative"] += v is not INFINITY and v < 0
            seen["midpoint"] += (level * f.e).denominator != 1
            seen["above"] += v is not INFINITY and v >= level
    assert all(seen.values()), seen


def subfield_cases():
    out = []
    for (p, args), name in zip(FIELDS, IDS):
        for i, sub in enumerate(make_field(p, args).subfields()):
            out.append(pytest.param(sub, id=f"{name}>{i}"))
    return out


@pytest.mark.parametrize("sub", subfield_cases())
def test_approximates_from_matches_the_old_walk(sub):
    """Does a center come within pi^target of E?  The program answers in
    two ways, both checked against the oracle's digit walk over E:
    `SubfieldLattice.distance`, dist(a, E) >= target, at every target for
    each E with f(L/E) = 1 (the pairs it serves, E = L included); and the
    standard E-tree through `VertexOrder`, B(a, r) in T_E, at each target
    r in E's value group for every E."""
    L, E = sub.parent, sub.field
    lattice = sublattice_machinery(sub) if E.f == L.f else None
    rng = random.Random(L.p * 100 + L.degree * 10 + E.degree)
    answers = set()
    elems = centers(L, rng, 30)
    # elements of E, and E's elements plus a term of L
    elems += [sub.embed(x) for x in centers(E, rng, 8)]
    elems += [sub.embed(x) + y for x, y in
              zip(centers(E, rng, 8), centers(L, rng, 8))]
    for a in elems:
        dist = lattice.distance(a) if lattice else None
        for target in levels(L, rng, 3) + [Fraction(1, L.e), 7]:
            want = old.approximates_from(a, sub, target)
            if lattice:
                assert (dist >= target) == want, (a, target)
            if (target * E.e).denominator == 1:
                assert in_standard_subtree(Vertex(a, target), sub) == want
            answers.add(want)
    assert answers == ({True} if E is L else {True, False})


def test_both_ways_to_miss_a_digit():
    # each miss of the digit walk is a vertex outside the standard E-tree
    L = make_field(2, (-3, 2))  # e = f = 2
    by_args = {s.field.sqrt_args: s for s in L.subfields()}
    base, unram, ram = by_args[()], by_args[(-3,)], by_args[(2,)]
    # nu = 1/2 is off the value group of Q_2(sqrt -3) and of Q_2
    for sub in (base, unram):
        assert old.approximates_from(L.uniformizer, sub, 1) is False
        assert not in_standard_subtree(Vertex(L.uniformizer, 1), sub)
    # a unit whose residue lies outside F_2 has no digit over Q_2(sqrt 2)
    r = old.residue_generator(ram)
    assert old.approximates_from(r, ram, Fraction(1, 2)) is False
    assert not in_standard_subtree(Vertex(r, Fraction(1, 2)), ram)
    assert old.approximates_from(r, unram, 5) is True
    assert in_standard_subtree(Vertex(r, 5), unram)


def test_zero_digits_are_skipped(monkeypatch):
    # 1 + 2^5 over Q_2 has two nonzero digits: two powers of pi, not six
    f = make_field(2, ())
    a = f.from_rational(1 + 2 ** 5)
    assert digit_rest(a, 3) == f.from_rational(2 ** 5)
    f.pi_pow(5)  # cached, so that pi_pow does not recurse while counted
    asked, pi_pow = [], f.pi_pow

    def counted(n):
        asked.append(n)
        return pi_pow(n)

    monkeypatch.setattr(f, "pi_pow", counted)
    assert digit_rest(a, 9).is_zero() and asked == [0, 5]


def test_a_missing_digit_raises(monkeypatch):
    # with the representative of 2 mod 3 taken away, 2 has no digit
    f = make_field(3, ())
    monkeypatch.setattr(f, "_residue_reps", f.residue_reps[:2])
    with pytest.raises(InternalInvariant):
        digit_rest(f.from_rational(2), 1)
    assert digit_rest(f.from_rational(4), 1) == f.from_rational(3)


def test_residue_generator_matches_the_old_search():
    checked = set()
    for p, args in FIELDS:
        for sub in make_field(p, args).subfields():
            lat = GeneralSubfieldLattice(sub)
            if lat.f_rel == 2:
                assert lat.mhat[1] == old.residue_generator(sub)
                with pytest.raises(InternalInvariant):
                    SubfieldLattice(sub)  # relative descent's pairs
                checked.add(p)
            else:
                assert SubfieldLattice(sub).mhat == lat.mhat
    assert checked == {2, 3, 5}
