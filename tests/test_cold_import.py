"""What `import bttwist.cli` loads in a fresh interpreter.

A cold CLI process pays for every module it imports.  `dataclasses` drags
in `inspect` and a dozen more, and the verification suite is needed only by
`bttwist verify`, so none of these may load.  Every layer the benchmark's
tracer wraps must load, because it patches them right after this import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
before = set(sys.modules)
import bttwist.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""

NOT_LOADED = {"dataclasses", "inspect", "bttwist.verify"}
LOADED = {f"bttwist.{m}" for m in ("padic", "bttree", "branch", "quatalg",
                                   "twisted", "enumerate", "globalforms")}


def test_cli_import_loads_only_what_every_command_needs():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    new = set(json.loads(out))
    assert "bttwist.cli" in new
    assert NOT_LOADED & new == set()
    assert LOADED - new == set()
