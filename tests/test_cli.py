import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest

from bttwist import cli
from bttwist.padic import squarefree_part

def run_cli(*args, env_extra=None, check=True, python_flags=(),
            timeout=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    cmd = [sys.executable, *python_flags, "-m", "bttwist.cli", *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=timeout)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def test_field_command():
    out = json.loads(run_cli("field", "-p", "2", "--sqrts", "-1,-3,2").stdout)
    assert out["e"] == 4 and out["f"] == 2 and out["degree"] == 8
    assert len(out["subfields"]) == 15
    assert out["sample_defects"]["-3"] == "2/1"
    assert out["uniformizer_valuation"] == "1/4"


def test_field_base():
    out = json.loads(run_cli("field", "-p", "5").stdout)
    assert out["e"] == 1 and out["f"] == 1


def test_count_local_q8_full_tower():
    out = json.loads(run_cli("count-local", "--group", "q8",
                             "--field", "2:-1,-3,2").stdout)
    assert out["count"] == 26
    assert len(out["vertex_ids"]) == 26


def test_count_local_hurwitz():
    out = json.loads(run_cli("count-local", "--group", "hurwitz",
                             "--field", "2:-3").stdout)
    assert out["count"] == 2


def test_count_local_maxorder():
    out = json.loads(run_cli("count-local", "--group", "maxorder",
                             "--field", "2:-3,2").stdout)
    assert out["count"] == 3


def test_branch_command_with_dot(tmp_path):
    dot_file = tmp_path / "branch.dot"
    out = json.loads(run_cli(
        "branch", "--field", "2:", "--matrix", "0,1;0,0",
        "--radius", "2", "--dot", str(dot_file)).stdout)
    assert out["shape"].startswith("Horoball")
    text = dot_file.read_text()
    assert text.count("{") == text.count("}") == 1
    node_ids = [ln.split()[0] for ln in text.splitlines()
                if "[label" in ln]
    assert len(node_ids) == len(set(node_ids))


def test_branch_needs_extension_exit_code():
    proc = run_cli("branch", "--field", "2:", "--matrix", "0,1;17,0",
                   check=False)
    assert proc.returncode == 1
    err = json.loads(proc.stderr)
    assert err["error"] == "NeedsExtension"


def test_global_command():
    out = json.loads(run_cli("global", "-N", "3").stdout)
    assert out["count"] == 2 and out["case"] == "a"
    out5 = json.loads(run_cli("global", "-N", "5", "--resolve").stdout)
    assert out5["count"] == 6 and out5["case_c_pair"] == [2, 6]
    proc = run_cli("global", "-N", "35", check=False)
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "ExistenceFails"
    proc = run_cli("global", "-N", "5", check=False)
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "ExistenceUnknown"


def test_byte_identical_reruns():
    a = run_cli("count-local", "--group", "q8", "--field", "2:-3").stdout
    b = run_cli("count-local", "--group", "q8", "--field", "2:-3").stdout
    assert a == b
    c = run_cli("field", "-p", "2", "--sqrts", "-1,2").stdout
    d = run_cli("field", "-p", "2", "--sqrts", "-1,2").stdout
    assert c == d


def test_usage_errors_exit_two():
    proc = run_cli("count-local", "--group", "nope", "--field", "2:",
                   check=False)
    assert proc.returncode == 2
    proc = run_cli("frobnicate", check=False)
    assert proc.returncode == 2


@pytest.mark.parametrize("args", [
    ("branch", "--field", "2:", "--matrix", "1,2"),
    ("branch", "--field", "2:", "--matrix", "1,2;3,x"),
    ("count-local", "--group", "q8", "--field", "2:x"),
    ("branch", "--field", "2:", "--matrix", "0,1;0,0", "--radius", "-1"),
])
def test_malformed_arguments_are_usage_errors(args):
    proc = run_cli(*args, check=False)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "usage:" in proc.stderr


@pytest.mark.parametrize("args", [
    ("branch", "--field", "2:", "--matrix", "0,1;0,0", "--radius", "1/0"),
    ("branch", "--field", "2:", "--matrix", "1,1/0;0,1"),
])
def test_zero_denominator_is_named_in_the_usage_error(args):
    proc = run_cli(*args, check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "zero denominator in '1/0'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_non_prime_p_is_a_json_error():
    proc = run_cli("field", "-p", "4", check=False)
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "NotPrime"


@pytest.mark.parametrize("field,error", [
    ("4:", "NotPrime"),
    ("2:4", "NotSquareFree"),
    ("2:17", "SplitPrime"),
    ("2:1", "NotSquareFree"),
    ("2:-1,-1", "NotSquareFree"),
])
def test_bad_base_field_raises_its_own_error(field, error):
    # not FieldTooSmall: no extension can repair the base field
    proc = run_cli("count-local", "--group", "q8", "--field", field,
                   check=False)
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == error


def _main_in_process(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def test_large_prime_and_semiprime_are_decided_quickly():
    # regression: primality was trial division up to sqrt(p), which took
    # 14.6 s on this prime and about as long on the semiprime
    semiprime = (10 ** 9 + 7) * (10 ** 9 + 9)
    t0 = time.perf_counter()
    assert _main_in_process("field", "-p", "10000000000000061") == (0, (
        '{"degree": 1, "e": 1, "f": 1, "p": 10000000000000061, '
        '"residue_size": 10000000000000061, "sample_defects": {}, '
        '"sqrt_args": [], "subfields": [], "uniformizer_valuation": '
        '"1/1"}\n'))
    assert _main_in_process("field", "-p", str(10 ** 18 + 3))[0] == 0
    assert _main_in_process("field", "-p", str(semiprime)) == (1, "")
    assert time.perf_counter() - t0 < 1
    for args in (("field", "-p", str(semiprime)),
                 ("count-local", "--group", "q8", "--field",
                  f"{semiprime}:")):
        proc = run_cli(*args, check=False, timeout=20)
        assert proc.returncode == 1
        assert json.loads(proc.stderr)["error"] == "NotPrime"


def test_primality_past_its_exact_bound_is_a_typed_error():
    proc = run_cli("field", "-p", str(3317044064679887385961981),
                   check=False, timeout=20)
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "NumberTooLarge"


def test_global_resolve_in_cases_a_and_b():
    # only case (c) needs a representation to resolve; in cases (a) and (b)
    # --resolve must answer as --assert-existence does, not fail on N
    answered = []
    for N in range(1, 61):
        if squarefree_part(N)[0] != N:
            continue
        rc, out = _main_in_process("global", "-N", str(N),
                                   "--assert-existence")
        if rc == 0 and json.loads(out)["case"] in ("a", "b"):
            answered.append(N)
            assert _main_in_process("global", "-N", str(N),
                                    "--resolve") == (0, out), N
    assert answered == [1, 2, 3, 11, 14, 17, 19, 34, 41, 43, 46, 51, 59]


def test_global_zero_is_bad_n():
    proc = run_cli("global", "-N", "0", check=False)
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "BadN"


def test_branch_over_a_large_semiprime_returns():
    # regression: squarefree_part trial-divided the discriminant up to its
    # square root, and this command did not return
    n = 998244353 * 1000000007
    proc = run_cli("branch", "--field", "2:", "--matrix", f"0,{n};1,0",
                   "--radius", "1", timeout=20)
    assert json.loads(proc.stdout)["ambient_sqrt_args"] == [n]


def test_unfactorable_discriminant_is_a_typed_error():
    n = 1000000007 * 1000000009 * 1000000021
    proc = run_cli("branch", "--field", "2:", "--matrix", f"0,{n};1,0",
                   "--radius", "1", check=False, timeout=20)
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "NumberTooLarge"


def test_global_existence_unknown_without_a_class_group(monkeypatch,
                                                        capsys):
    # regression: -N 999911 (7 mod 8) built its class group of h = 1454,
    # about 27 s, before it raised ExistenceUnknown
    start = time.perf_counter()
    proc = run_cli("global", "-N", "999911", check=False, timeout=20)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "ExistenceUnknown"
    assert elapsed < 1
    from bttwist.globalforms import ClassGroup
    builds = []
    init = ClassGroup.__init__
    monkeypatch.setattr(ClassGroup, "__init__",
                        lambda self, N: builds.append(N) or init(self, N))
    assert cli.main(["global", "-N", "999911"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ExistenceUnknown"
    assert builds == []
    # the limit is still checked first: no input changes its error type
    assert cli.main(["global", "-N", "100000007"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "NumberTooLarge"


def test_global_past_the_class_group_limit_is_a_typed_error():
    # regression: the class group of discriminant -10000000019 was built as
    # a table of h^2 compositions, and the command did not return
    start = time.perf_counter()
    proc = run_cli("global", "-N", "10000000019", check=False, timeout=20)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "NumberTooLarge"
    assert elapsed < 1


def test_residue_field_past_its_limit_is_a_typed_error():
    # the closed form lists q = p^2 representatives, about 10^18 here
    start = time.perf_counter()
    proc = run_cli("count-local", "--group", "q8", "--field", "1000000007:",
                   check=False, timeout=20)
    assert proc.returncode == 1
    err = json.loads(proc.stderr)
    assert err["error"] == "NumberTooLarge"
    assert str(1000000007 ** 2) in err["message"]
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("args,expect", [
    (("field", "-p", "17", "--sqrts", "3"),
     {"e": 1, "f": 2, "residue_size": 289, "sample_defects": {"3": "0/1"}}),
    (("branch", "--field", "17:", "--matrix", "0,17;1,0", "--radius", "1"),
     {"ambient_sqrt_args": [17], "member_ids": ["B[0]@0/1", "B[0]@1/1"]}),
])
def test_residue_digits_past_p_13(args, expect):
    # regression: both raised InternalInvariant, since a search of small
    # rationals found at most 12 residue classes mod p
    out = json.loads(run_cli(*args).stdout)
    assert {k: out[k] for k in expect} == expect


def test_vertex_cap_env():
    proc = run_cli("count-local", "--group", "q8", "--field", "2:-3",
                   env_extra={"BTTWIST_VERTEX_CAP": "2"}, check=False)
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "WindowInsufficient"


def test_computation_error_is_machine_readable():
    proc = run_cli("field", "-p", "2", "--sqrts", "17", check=False)
    assert proc.returncode == 1
    err = json.loads(proc.stderr)
    assert err["error"] == "SplitPrime"


@pytest.mark.parametrize("args", [
    ("count-local", "--group", "q8", "--field", "2:-1,-3,2"),
    ("table1",),
])
def test_stdout_unchanged_with_asserts_stripped(args):
    # python -O strips asserts: no result may rest on one
    plain = run_cli(*args)
    optimized = run_cli(*args, python_flags=("-O",))
    assert optimized.stdout == plain.stdout


def test_verify_fast_with_asserts_stripped():
    # every acceptance criterion must hold with asserts stripped
    proc = run_cli("verify", "--fast", python_flags=("-O",), check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout
    # stdout is the ten PASS lines alone; the seconds go to stderr as one
    # JSON object: the shared table1, then each criterion in order
    from bttwist.verify import CHECKS
    names = [name for name, _ in CHECKS]
    assert [line.split(": ")[0] for line in proc.stdout.splitlines()] == [
        f"PASS  {name}" for name in names]
    (line,) = proc.stderr.splitlines()
    seconds = json.loads(line)["verify_seconds"]
    assert list(seconds) == ["table1"] + names
    assert all(isinstance(t, float) and t >= 0 for t in seconds.values())


def test_verify_error_json_stays_the_last_stderr_line(monkeypatch):
    from bttwist import verify
    from bttwist.errors import NotAUnit

    def broken():
        raise NotAUnit("criterion raised")

    monkeypatch.setattr(verify, "CHECKS", [verify.CHECKS[3],
                                           ("x broken", broken)])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["verify", "--fast"])
    assert rc == 1
    assert out.getvalue().startswith("PASS  4 biquadratic-10:")
    timing, error = err.getvalue().splitlines()
    assert list(json.loads(timing)["verify_seconds"]) == [
        "table1", "4 biquadratic-10"]
    assert json.loads(error) == {"error": "NotAUnit",
                                 "message": "criterion raised"}
