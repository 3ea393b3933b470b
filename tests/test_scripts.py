"""The scripts under scripts/, run in-process through their `main` or
their functions."""

import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

from bttwist import padic
from bttwist.twisted import SubfieldLattice

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(monkeypatch, name, *argv):
    module = _load(name)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    return module.main()


def test_run_table1(monkeypatch, capsys):
    assert _run(monkeypatch, "run_table1") == 0
    out = capsys.readouterr().out
    assert "integral forms of Q8 over the full dyadic tower: 26" in out
    assert "summary: quadratics [2, 4, 4, 4, 4, 4, 4], " \
           "quartics [6, 6, 6, 10, 10, 10, 10]" in out


def test_global_sweep(monkeypatch, capsys):
    assert _run(monkeypatch, "global_sweep", "--max", "12") == 0
    lines = capsys.readouterr().out.splitlines()
    rows = {int(line.split()[0]): line.split() for line in lines[1:]}
    assert rows[5] == ["5", "-20", "2", "2", "c", "6"]
    assert rows[6] == ["6", "-24", "2", "2", "c", "2"]
    assert rows[3][-2:] == ["a", "2"]
    assert rows[10][-3:] == ["c", "(2,", "6)"]  # no representation for 10
    assert "DyadicSplit" in " ".join(rows[7])


def test_branch_gallery(monkeypatch, capsys, tmp_path):
    assert _run(monkeypatch, "branch_gallery", str(tmp_path)) == 0
    out = capsys.readouterr().out
    for name in ("nilpotent", "width_two_ball", "q8_ball"):
        assert f"{name}: " in out
        assert (tmp_path / f"{name}.dot").read_text().startswith("graph")


def test_ambient_sweep(monkeypatch, capsys):
    assert _run(monkeypatch, "ambient_sweep", "--groups", "maxorder",
                "--primes", "3") == 0
    out = capsys.readouterr().out
    assert "DISAGREE" not in out
    assert out.splitlines()[-1] == "14 contexts, 0 disagreeing fields"


def test_local_sweep(monkeypatch, capsys):
    assert _run(monkeypatch, "local_sweep", "--groups", "q8,maxorder",
                "--primes", "3,19") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("28 cases, 0 faults, ")
    assert lines[:-1] == ["answer               20",
                          "SplitPrime           6",
                          "FieldTooSmall        2"]


def test_local_sweep_past_the_residue_pool():
    # the input-space contract at p = 17, 19 and 23, where the residue
    # representatives outgrow the pool of small rationals: no case ends in
    # InternalInvariant or an untyped exception, each answer meets the q8
    # and maxorder oracles, and a FieldTooSmall must be a known case; 42
    # of the 84 cases answer
    sweep = _load("local_sweep")
    cases = list(sweep.sweep(sweep.GROUPS, [17, 19, 23]))
    assert [c for c in cases if c[4]] == []
    outcomes = Counter(c[3] for c in cases)
    assert set(outcomes) <= {"answer", "SplitPrime", "FieldTooSmall"}
    assert outcomes["answer"] >= 42
    # the oracles are asked: q8 over Q_19(sqrt -1); maxorder over Q_19,
    # Q_19(sqrt -1) (f = 2, e = 1), Q_19(sqrt 19) (f = 1) and both
    for group, args, count in (("q8", (-1,), 1), ("maxorder", (), 0),
                               ("maxorder", (-1,), 2), ("maxorder", (19,), 1),
                               ("maxorder", (-1, 19), 3)):
        rep = sweep.run_case(group, 19, args)[1]
        assert rep.count == count
        assert sweep.expected_count(group, 19, args, rep) == count


def test_table1_layers(monkeypatch, capsys):
    before = SubfieldLattice.__dict__["distance"]
    assert _run(monkeypatch, "table1_layers", "--runs", "1") == 0
    layers = json.loads(capsys.readouterr().out)["layers"]
    assert set(layers) == {"closed_form", "flood_fill", "make_context",
                           "norms", "table1"}
    # every ramified pair table1 asks is trivial on Gal(L/E): 65 distance
    # tests, which take no field product, and no lattice inverse
    assert layers["closed_form"]["calls_per_table1"] == 65
    assert layers["closed_form"]["products_per_table1"] == 0
    assert layers["table1"]["products_per_table1"] == 694
    # a warm table1 takes 368 integer norms: 317 over L itself, 51 over
    # its quartic subfields
    assert layers["norms"]["calls_by_degree"] == {"d4": 51, "d8": 317}
    assert layers["norms"]["calls_per_table1"] == 368
    assert SubfieldLattice.__dict__["distance"] is before  # restored
    assert not any(f._norm.__name__ == "wrapper"
                   for f in padic._FIELD_CACHE.values())
