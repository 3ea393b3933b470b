"""`bttwist global` replayed in-process against `global_golden.json`: the
exit code, the stdout byte for byte and the type of the JSON error must be
those recorded at 78eac84, while the class group was still built under
Gauss composition.  The cases are `global -N n` and
`global -N n --assert-existence` for every n in [-3, 200]: bad N, every
residue class mod 8, each case (a), (b) and (c), failed existence, a split
or inert dyadic prime, and existence left unasserted."""

import contextlib
import io
import json
from pathlib import Path

from bttwist import cli

GOLDEN = Path(__file__).resolve().parent / "global_golden.json"


def _error_type(stderr: str):
    lines = stderr.strip().splitlines()
    return json.loads(lines[-1])["error"] if lines else None


def test_global_output_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == 2 * 204
    cases = {json.loads(w["stdout"])["case"]
             for w in golden.values() if w["rc"] == 0}
    assert cases == {"a", "b", "c"}
    assert {w["error"] for w in golden.values()} == {
        None, "BadN", "DyadicSplit", "ExistenceFails", "ExistenceUnknown"}
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
