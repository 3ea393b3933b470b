"""`bttwist branch` replayed in-process against `branch_golden.json`: the
exit code, the stdout byte for byte and the type of the JSON error must be
those recorded at 3b32564, before the closed form's tube kept only the
geodesic shape.  The cases cover a tube over the base and over a splitting
extension, a horoball, the whole tree, the empty set, the NeedsExtension
exit, fields at p = 3 and non-default radii; `shape` is the subtree's
repr."""

import contextlib
import io
import json
from pathlib import Path

from bttwist import cli

GOLDEN = Path(__file__).resolve().parent / "branch_golden.json"


def _error_type(stderr: str):
    lines = stderr.strip().splitlines()
    return json.loads(lines[-1])["error"] if lines else None


def test_branch_output_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == 12
    shapes = {json.loads(w["stdout"])["shape"].split("(")[0]
              for w in golden.values() if w["rc"] == 0}
    assert shapes == {"Tube", "Horoball", "Whole", "Empty"}
    assert {w["error"] for w in golden.values()} == {None, "NeedsExtension"}
    wrong = []
    for argv, want in golden.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv.split())
        got = {"rc": rc, "stdout": out.getvalue(),
               "error": _error_type(err.getvalue())}
        if got != want:
            wrong.append(argv)
    assert wrong == []
