"""The three benchmark workloads.

Each workload builds its inputs from the seed in its constructor (the
set-up), hands out jobs one cycle at a time (`cycle(i)`, built outside the
timed region), runs one job in `execute` (the timed part) and validates the
outcome in `check`.  `key` names a job's input, so that repeated runs of one
input can be averaged; `kind` groups jobs in the run record.  Every cycle
has the same composition, so a run that ends on a cycle boundary does the
same kind of work whatever the seed.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import gate

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CHILD_TIMEOUT_S = 120


def run_in_process(argv):
    """(exit code, stdout, stderr) of `bttwist.cli.main(argv)`."""
    from bttwist import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


class SubfieldTable:
    """Repeated in-process `bttwist table1` jobs.  The table has no inputs,
    so the seed changes nothing."""

    name = "subfield-table"

    def __init__(self, seed: int, golden: dict):
        self.golden = golden

    def cycle(self, i: int) -> list:
        return [gate.TABLE1_ARGV]

    def key(self, argv) -> tuple:
        return argv

    def kind(self, argv) -> str:
        return "table1"

    def execute(self, argv):
        return run_in_process(argv)

    def check(self, argv, outcome) -> list:
        return [f"{' '.join(argv)}: {p}"
                for p in gate.check(argv, *outcome, self.golden)]


# -- engine agreement ---------------------------------------------------

# Matrix kinds, each with a narrow cost range so that a seed changes the
# entries but not the mix: "companion" has its eigenvalues in the model,
# "extension" needs one more square root (no field of degree 8 has one).
KINDS = ("split", "companion", "extension", "nilpotent", "scalar")

# (p, sqrt_args, window radius, matrices of each kind per cycle): every
# degree of the dyadic tower plus p = 3.  The radii give every field a
# similar cost per matrix (about 0.1 s here), so the median job is not a
# boundary between fields, and the weights give each degree a similar share
# of a cycle.  Q_2(sqrt -3, sqrt 2) is the degree-4 field criterion 9 lacks.
ENGINE_FIELDS = [
    (2, (), Fraction(6), 2),
    (3, (), Fraction(4), 2),
    (2, (-3,), Fraction(3), 1),
    (2, (2,), Fraction(5, 2), 1),
    (3, (2,), Fraction(2), 1),
    (2, (-3, 2), Fraction(1), 3),
    (2, (-1, -3, 2), Fraction(1, 4), 3),
]


def _in_model(field, d: int) -> bool:
    try:
        field.sqrt_of(d)
        return True
    except ValueError:
        return False


def _extends(field, d: int) -> bool:
    from bttwist import padic
    from bttwist.errors import BttwistError
    try:
        padic.make_field(field.p, field.sqrt_args + (d,))
        return True
    except (BttwistError, ValueError):
        return False


def kinds_for(field) -> tuple:
    return KINDS if field.degree < 8 else tuple(
        k for k in KINDS if k != "extension")


def sample_matrix(field, kind: str, rng: random.Random):
    """g * core * g^-1 with g an integral unit and a core of the given kind.

    Scalar and nilpotent cores are units, so the fixed-point engine always
    runs on them; a companion core's discriminant has its square root in the
    model, an extension core's in a one-step extension of it.
    """
    from bttwist import bttree, padic
    M = bttree.MoebiusMap

    def small():
        return field.el([rng.randint(-4, 4) if rng.random() < 0.5 else 0
                         for _ in range(field.degree)])

    def unit():
        while True:
            x = small()
            if not x.is_zero() and x.valuation() == 0:
                return x

    zero, one = field.zero, field.one
    if kind == "scalar":
        s = unit()
        core = M(s, zero, zero, s)
    elif kind == "nilpotent":
        s = unit()
        core = M(s, field.pi_pow(rng.randint(0, 2)), zero, s)
    elif kind == "split":
        core = M(small(), zero, zero, small())
    else:
        while True:
            t, n = rng.randint(-6, 6), rng.randint(-6, 6)
            disc = t * t - 4 * n
            if disc == 0:
                continue
            d = padic.squarefree_part(disc)[0]
            in_model = d == 1 or _in_model(field, d)
            if in_model if kind == "companion" else (
                    not in_model and _extends(field, d)):
                break
        core = M(zero, one, field.from_rational(-n), field.from_rational(t))
    while True:
        g = M(small(), small(), small(), small())
        if g.det().valuation() == 0:
            return g * core * g.inv()


class EngineAgreement:
    """Each job decides one matrix's branch on a fixed window with the
    integrality oracle, the closed form and (for units) the fixed points."""

    name = "engine-agreement"

    def __init__(self, seed: int, golden: dict):
        from bttwist import bttree, padic
        self.seed = seed
        self.fields, self.windows = [], []
        for p, args, radius, _ in ENGINE_FIELDS:
            f = padic.make_field(p, args)
            self.fields.append(f)
            self.windows.append(bttree.Window(bttree.Vertex(f.zero, 0),
                                              radius))

    def cycle(self, i: int) -> list:
        rng = random.Random(f"engine-agreement:{self.seed}:{i}")
        jobs = []
        for fi, (_, _, _, per_kind) in enumerate(ENGINE_FIELDS):
            for kind in kinds_for(self.fields[fi]) * per_kind:
                label = f"{i}.{len(jobs)}"
                jobs.append((label, fi, kind,
                             sample_matrix(self.fields[fi], kind, rng)))
        rng.shuffle(jobs)
        return jobs

    def key(self, job) -> str:
        return job[0]

    def kind(self, job) -> str:
        return f"d{self.fields[job[1]].degree}"

    def execute(self, job):
        from bttwist import branch, bttree
        _, fi, _, q = job
        field, win = self.fields[fi], self.windows[fi]
        oracle = [branch.branch_member(q, v) for v in win.vertices]
        S, amb = branch.branch_with_extension(q, field)
        verts = win.vertices if amb is field else [
            bttree.Vertex(branch.lift_element(v.center, amb), v.level)
            for v in win.vertices]
        closed = [S.contains(v) for v in verts]
        fixed = None
        if (q.a + q.d).valuation() >= 0 and q.det().valuation() == 0:
            fx = branch.unit_fixed_points(q, win)
            fixed = [any(v == u for u in fx) for v in win.vertices]
        return oracle, closed, fixed

    def check(self, job, outcome) -> list:
        oracle, closed, fixed = outcome
        problems = []
        if closed != oracle:
            problems.append(f"closed form disagrees with the oracle: {job}")
        if fixed is not None and fixed != oracle:
            problems.append(f"fixed points disagree with the oracle: {job}")
        return problems


# -- cold CLI invocations -----------------------------------------------

SEEDED_N = 5


class CliCold:
    """A seeded stream of `count-local` and `global` jobs, each run as a
    fresh `python -m bttwist.cli` process, one at a time."""

    name = "cli-cold"

    def __init__(self, seed: int, golden: dict):
        self.seed = seed
        self.golden = golden
        # the same inputs every cycle, so that the set of distinct inputs
        # does not depend on how many cycles a run completes
        drawn = random.Random(f"cli-cold:{seed}").sample(gate.seeded_n_pool(),
                                                         SEEDED_N)
        self.cases = gate.fixed_cli_cases() + [gate.global_argv(n)
                                               for n in drawn]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def cycle(self, i: int) -> list:
        jobs = list(self.cases)
        random.Random(f"cli-cold:{self.seed}:{i}").shuffle(jobs)
        return jobs

    def key(self, argv) -> tuple:
        return argv

    def kind(self, argv) -> str:
        return argv[0]

    def execute(self, argv, command=None):
        """Run `python -m bttwist.cli argv`, or `command` in its place."""
        command = command or [sys.executable, "-m", "bttwist.cli", *argv]
        proc = subprocess.run(command, env=self.env,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, argv, outcome) -> list:
        return [f"{' '.join(argv)}: {p}"
                for p in gate.check(argv, *outcome, self.golden)]


WORKLOADS = {w.name: w for w in (SubfieldTable, EngineAgreement, CliCold)}
