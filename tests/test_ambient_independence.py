"""Ambient independence: the paper's descent as a tested contract.

IF over E is computed inside a splitting model L of E, through the twisted
form T_E of L's tree, so the count over E and the geometry of its vertices
cannot depend on L.  This runs a slice of `scripts/ambient_sweep.py`: q8
over every E of the sweep at p = 2, and dicyclic and maxorder over every E
at p = 3, each in every ambient L of degree at most 8 over which the
algebra has a trivialization.  The count, e, f and the sorted pairwise
distances of the vertices must agree across the ambients of each E.

The slice needs no oracle to catch two wrong shortcuts in
`VertexOrder._decide`: skipping the kernel, with the answer "inside",
whenever f_E = f_L breaks q8 over Q_2 and over six of its quadratic and two
of its quartic extensions, and "tame descent" (an invariant vertex on an
E-level is in T_E at odd p) breaks dicyclic and maxorder over Q_3.

`table1`'s rows must also equal standalone `count-local` over the same E.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from bttwist import enumerate as counting

_SPEC = importlib.util.spec_from_file_location(
    "ambient_sweep",
    Path(__file__).resolve().parent.parent / "scripts" / "ambient_sweep.py")
sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sweep)

SLICE = ([("q8", 2, e) for e in sweep.subfields_E(2)]
         + [(g, 3, e) for g in ("dicyclic", "maxorder")
            for e in sweep.subfields_E(3)])


def test_table1_rows_equal_count_local():
    with contextlib.redirect_stdout(io.StringIO()):
        table = counting.table1()
    assert len(table["rows"]) == 14
    for row in table["rows"]:
        rep = counting.count_local("q8", 2, row["field"])
        assert (row["count"], row["e"], row["f"]) == \
            (rep.count, rep.e, rep.f), row["field"]


@pytest.mark.parametrize("group,p,e_args", SLICE,
                         ids=[f"{g}-{p}:{','.join(map(str, e))}"
                              for g, p, e in SLICE])
def test_counts_and_distances_do_not_depend_on_the_ambient(group, p, e_args):
    sigs = sweep.compare(group, p, e_args)
    # every E below degree 4 is compared across ambients; Q_2 has 17
    assert len(sigs) >= (2 if len(e_args) < 2 else 1)
    assert (group, p, e_args) != ("q8", 2, ()) or len(sigs) == 17
    assert len(set(sigs.values())) == 1, {
        amb: sig[:3] for amb, sig in sigs.items()}
