"""The scripts under scripts/, run in-process through their `main`."""

import importlib.util
import json
import sys
from pathlib import Path

from bttwist.twisted import VertexOrder

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(monkeypatch, name, *argv):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
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


def test_table1_layers(monkeypatch, capsys):
    before = VertexOrder.__dict__["lattice_inverse"]
    assert _run(monkeypatch, "table1_layers", "--runs", "1") == 0
    layers = json.loads(capsys.readouterr().out)["layers"]
    assert set(layers) == {"basis_valuation", "flood_fill", "lattice_inverse",
                           "make_context", "table1"}
    # six field products (one traceless 2x2 product) for each of the 21
    # members the kernel asks about
    assert layers["lattice_inverse"]["products_per_table1"] == 6 * 21
    assert layers["basis_valuation"]["products_per_table1"] == 0
    assert VertexOrder.__dict__["lattice_inverse"] is before  # restored
