"""The five record types are plain `__slots__` classes, so that importing
the package does not load `dataclasses`.  Each keeps what the dataclass it
replaced gave: the constructor and its defaults, equality by fields (and
only with its own class), a hash by fields for the three immutable ones and
none for the two mutable ones, and the repr.  `QuadForm` has since moved
with Gauss composition into the test-only class-group oracle."""

import dataclasses
from fractions import Fraction

import pytest

from bttwist.branch import QuadClass
from bttwist.bttree import Vertex
from bttwist.enumerate import IFReport
from bttwist.errors import InternalInvariant
from bttwist.padic import make_field
from bttwist.quatalg import QuaternionAlgebra
from class_group_oracle import QuadForm

F = make_field(2, (-1, -3))


def _immutable_cases():
    sub = F.subfields()[1]
    again = type(sub)(sub.parent, sub.field, sub.span, sub.monomial_images)
    return [
        (QuaternionAlgebra(Fraction(-1), Fraction(2)),
         QuaternionAlgebra(Fraction(-1), Fraction(2)),
         QuaternionAlgebra(Fraction(-1), Fraction(3)), ("a", "b")),
        (QuadForm(2, 1, 3), QuadForm(2, 1, 3), QuadForm(2, -1, 3),
         ("a", "b", "c")),
        (sub, again, F.subfields()[2],
         ("parent", "field", "span", "monomial_images")),
    ]


@pytest.mark.parametrize("x, same, other, fields", _immutable_cases(),
                         ids=["QuaternionAlgebra", "QuadForm", "Subfield"])
def test_immutable_records(x, same, other, fields):
    assert x == same and x is not same and x != other
    assert x != tuple(getattr(x, f) for f in fields)  # other classes differ
    assert hash(x) == hash(same) == hash(tuple(getattr(x, f) for f in fields))
    assert len({x, same, other}) == 2
    with pytest.raises(AttributeError):
        setattr(x, fields[0], getattr(other, fields[0]))
    with pytest.raises(AttributeError):
        delattr(x, fields[0])
    with pytest.raises(AttributeError):
        x.extra = 1


def test_the_whole_field_as_a_subfield_hashes_alike():
    # find_subfield builds the whole field's Subfield afresh on each call;
    # the hash kept at construction is the hash of its fields
    whole, again = F.find_subfield(F.sqrt_args), F.find_subfield((-3, -1))
    assert whole == again and whole is not again
    assert hash(whole) == hash(again) == hash(whole._fields())


def test_quad_class():
    q = QuadClass("scalar")
    assert (q.eigenvalues, q.ramified) == (None, None)
    assert q == QuadClass("scalar", None, None)
    assert q != QuadClass("etale_field", ramified=True)
    assert repr(QuadClass("etale_field", ramified=True)) == \
        "EtaleField(ramified=True)"
    with pytest.raises(TypeError):
        hash(q)


def test_if_report():
    v = Vertex(F.zero, Fraction(0))
    rep = IFReport("q8", (-1,), (-1, -3), 2, 1, 0, [])
    assert rep.vertex_ids == [] and rep == IFReport(
        "q8", (-1,), (-1, -3), 2, 1, 0, [])
    one = IFReport("q8", (-1,), (-1, -3), 2, 1, 1, [v])
    assert one.vertex_ids == [v.key()] and rep != one
    with pytest.raises(TypeError):
        hash(rep)
    with pytest.raises(InternalInvariant):
        IFReport("q8", (), (), 1, 1, 1, [])
    # the repr the dataclass generated
    fields = ["group", "subfield_args", "ambient_args", "e", "f", "count",
              "vertices", "vertex_ids"]
    old = dataclasses.make_dataclass("IFReport", fields)
    args = ("q8", (-1,), (-1, -3), 2, 1, 1, [v])
    assert repr(IFReport(*args)) == repr(old(*args, [v.key()]))
