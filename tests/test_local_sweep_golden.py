"""`count-local` replayed in-process against `local_sweep_golden.json`,
written by `scripts/record_local_sweep.py`: for each input of
`scripts/local_sweep.py` the exit code, the stdout byte for byte and the
type and message of the JSON error must be those recorded.  A change that
moves a recorded line re-records the file and names the moved lines in
CHANGES.md."""

import importlib.util
import json
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _recorder():
    path = ROOT / "scripts" / "record_local_sweep.py"
    spec = importlib.util.spec_from_file_location("record_local_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_local_sweep_matches_golden():
    recorder = _recorder()
    golden = json.loads(recorder.GOLDEN.read_text())
    assert list(golden) == recorder.inputs()
    assert Counter(w["error"] for w in golden.values()) == {
        None: 266, "SplitPrime": 132, "FieldTooSmall": 74}
    wrong = [argv for argv, want in golden.items()
             if recorder.outcome(argv) != want]
    assert wrong == []
