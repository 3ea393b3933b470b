"""Output gate: every CLI job must reproduce the recorded output and the
paper's numbers.

`golden.json` holds, for every CLI case the benchmark can run, the exit code,
the exact stdout and (for failing cases) the error type, recorded with
`record_golden.py`.  On top of the byte-for-byte comparison, `check` decodes
the JSON and checks the numbers the paper states, so a wrong golden file
cannot make a wrong answer pass.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# (group, field) -> count stated in the paper
COUNT_LOCAL = {
    ("q8", "2:-1,-3,2"): 26,          # criterion 1
    ("q8", "2:-3,-1"): 6,             # criterion 3
    ("q8", "2:-3,2"): 6,
    ("q8", "2:-3,6"): 6,
    ("q8", "2:-1,2"): 10,             # criterion 4
    ("maxorder", "2:-3"): 2,          # criterion 5
    ("maxorder", "2:-1"): 1,
    ("maxorder", "2:2"): 1,
    ("maxorder", "2:-3,2"): 3,
    ("maxorder", "2:-1,-3,2"): 5,
    ("hurwitz", "2:-3"): 2,           # criterion 6
    ("hurwitz", "2:2"): 1,
    ("hurwitz", "3:-1"): 1,
    ("dicyclic", "3:-1"): 2,
    ("dicyclic", "3:3"): 1,
    ("dicyclic", "2:-6"): 1,
    ("q8", "2:-1"): 4,                # the quadratic rows of the table
    ("q8", "2:3"): 4,
    ("q8", "2:-3"): 2,
    ("q8", "2:2"): 4,
    ("q8", "2:-2"): 4,
    ("q8", "2:6"): 4,
    ("q8", "2:-6"): 4,
}

# argv tail after "global -N" -> count, or the error type the CLI must raise
GLOBAL_FIXED = {
    ("3",): 2,
    ("5", "--resolve"): 6,
    ("6", "--resolve"): 2,
    ("11",): 2,
    ("35",): "ExistenceFails",
}

# seeded N: squarefree N with a defined answer and no error, other than the
# fixed cases: N = 3 (mod 8) where every odd prime divisor is 1 or 3 (mod 8),
# or N in the asserted-existence residues 1, 2, 5, 6 (mod 8).  N = 7 (mod 8)
# is left out because 2 splits.
SEEDED_N_MAX = 1000

TABLE1_ARGV = ("table1",)


def prime_divisors(n: int) -> list:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _squarefree(n: int) -> bool:
    return all(n % (p * p) for p in prime_divisors(n))


def seeded_n_pool() -> list:
    pool = []
    for n in range(1, SEEDED_N_MAX + 1):
        if not _squarefree(n) or n % 8 == 7:
            continue
        if n % 8 == 3 and not all(p % 8 in (1, 3) for p in prime_divisors(n)):
            continue
        if (str(n),) not in GLOBAL_FIXED:
            pool.append(n)
    return pool


def global_argv(n: int) -> tuple:
    tail = () if n % 8 == 3 else ("--assert-existence",)
    return ("global", "-N", str(n)) + tail


def count_local_argv(group: str, field: str) -> tuple:
    return ("count-local", "--group", group, "--field", field)


def fixed_cli_cases() -> list:
    """Every count-local case and every fixed global case, in a fixed order."""
    cases = [count_local_argv(g, f) for g, f in COUNT_LOCAL]
    cases += [("global", "-N") + tail for tail in GLOBAL_FIXED]
    return cases


def all_cases() -> list:
    seeded = [global_argv(n) for n in seeded_n_pool()]
    return [TABLE1_ARGV] + fixed_cli_cases() + seeded


def genus_number(n: int) -> int:
    """2^(omega(D) - 1) for the discriminant D of Q(sqrt(-n)), computed here
    independently of the program."""
    disc = -n if (-n) % 4 == 1 else -4 * n
    return 2 ** (len(prime_divisors(-disc)) - 1)


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def error_type(stderr: str):
    """The error type named by the CLI's JSON error line, if any."""
    lines = stderr.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1]).get("error")
    except (ValueError, AttributeError):
        return None


def check(argv, rc: int, stdout: str, stderr: str, golden: dict) -> list:
    """Problems with one CLI job's outcome; an empty list means correct."""
    argv = tuple(argv)
    want = golden.get(" ".join(argv))
    problems = []
    if want is None:
        problems.append("no recorded output for this case")
    else:
        if rc != want["rc"]:
            problems.append(f"exit code {rc} != recorded {want['rc']}")
        if stdout != want["stdout"]:
            problems.append("stdout differs from the recorded output")
        if want["error"] != error_type(stderr):
            problems.append(f"error {error_type(stderr)} != recorded "
                            f"{want['error']}")
    problems += check_numbers(argv, rc, stdout, stderr)
    return problems


def check_numbers(argv, rc: int, stdout: str, stderr: str) -> list:
    """The paper's numbers for this case."""
    argv = tuple(argv)
    if argv[0] == "global" and GLOBAL_FIXED.get(argv[2:]) == "ExistenceFails":
        if rc == 1 and error_type(stderr) == "ExistenceFails":
            return []
        return [f"expected ExistenceFails, got exit {rc}"]
    if rc != 0:
        return [f"exit code {rc}: {stderr.strip()[:200]}"]
    try:
        out = json.loads(stdout)
    except ValueError:
        return ["stdout is not JSON"]
    if argv == TABLE1_ARGV:
        return _check_table1(out)
    if argv[0] == "count-local":
        want = COUNT_LOCAL.get((argv[2], argv[4]))
        if out.get("count") != want or len(out.get("vertex_ids", ())) != want:
            return [f"count {out.get('count')} != {want}"]
        return []
    if argv[0] == "global":
        return _check_global(argv, out)
    return [f"unknown case {argv}"]


def _check_table1(out: dict) -> list:
    problems = []
    if out.get("total_over_tower") != 26:
        problems.append(f"total {out.get('total_over_tower')} != 26")
    summary = out.get("summary", {})
    if summary.get("quadratic_counts") != [2, 4, 4, 4, 4, 4, 4]:
        problems.append(f"quadratic rows {summary.get('quadratic_counts')}")
    if summary.get("quartic_counts") != [6, 6, 6, 10, 10, 10, 10]:
        problems.append(f"quartic rows {summary.get('quartic_counts')}")
    cross = out.get("cross_table", {})
    if len(cross) != 8 or set(cross.values()) != {1}:
        problems.append(f"cross intersections {cross}")
    if len(out.get("rows", ())) != 14:
        problems.append(f"{len(out.get('rows', ()))} rows != 14")
    return problems


def _check_global(argv, out: dict) -> list:
    n = int(argv[2])
    want = GLOBAL_FIXED.get(tuple(argv[2:]))
    if want is not None:
        return [] if out.get("count") == want else [
            f"N={n}: count {out.get('count')} != {want}"]
    h2 = out.get("h2")
    if h2 != genus_number(n):
        return [f"N={n}: h2 {h2} != genus number {genus_number(n)}"]
    case = out.get("case")
    if case == "a" and out.get("count") == 2 * h2:
        return []
    if case == "b" and out.get("count") == 4 * h2:
        return []
    if case == "c" and out.get("case_c_pair") == [h2, 3 * h2]:
        return []
    return [f"N={n}: case {case} with count {out.get('count')}"]
