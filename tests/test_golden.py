"""Every case of `perfbench/golden.json`, replayed in-process through
`bttwist.cli.main`: the exit code, the stdout byte for byte and the type of
the JSON error must be those recorded."""

import contextlib
import io
import json
from pathlib import Path

from bttwist import cli

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"


def _error_type(stderr: str):
    lines = stderr.strip().splitlines()
    return json.loads(lines[-1])["error"] if lines else None


def test_cli_output_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == 496
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
