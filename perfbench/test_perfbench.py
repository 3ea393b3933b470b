"""Tests of the benchmark's own helpers (run: python3 -m pytest perfbench)."""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import gate  # noqa: E402
import micro  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([]) is None
    assert run.tail_percentile(list(range(1, 100))) is None  # 99 samples
    assert run.tail_percentile(list(range(1, 101))) == 90
    assert run.tail_percentile(list(range(110, 0, -1))) == 99


def test_self_time_subtracts_what_children_cover():
    spans = [
        ("parent", -1, 1, 0.0, 10.0),
        ("child", 0, 1, 1.0, 3.0),
        ("child", 0, 1, 2.0, 4.0),    # overlaps its sibling
        ("child", 0, 1, 8.0, 12.0),   # runs past the parent's end
        ("leaf", 3, 1, 9.0, 9.5),
    ]
    assert tracing.union_length([(1, 3), (2, 4), (8, 12)], 0, 10) == 5
    got = tracing.self_times(spans)
    assert got["parent"] == 5.0
    assert got["child"] == 2.0 + 2.0 + 3.5
    assert got["leaf"] == 0.5


def _golden_case(argv):
    want = gate.load_golden()[" ".join(argv)]
    return want["rc"], want["stdout"], ""


def test_gate_accepts_the_recorded_output():
    golden = gate.load_golden()
    for argv in (gate.TABLE1_ARGV, ("global", "-N", "35"),
                 gate.count_local_argv("q8", "2:-1,-3,2"),
                 gate.global_argv(gate.seeded_n_pool()[10])):
        want = golden[" ".join(argv)]
        stderr = (json.dumps({"error": want["error"], "message": ""})
                  if want["error"] else "")
        assert gate.check(argv, want["rc"], want["stdout"], stderr,
                          golden) == []


def test_gate_rejects_a_wrong_count():
    argv = gate.count_local_argv("q8", "2:-1,-3,2")
    rc, stdout, stderr = _golden_case(argv)
    out = json.loads(stdout)
    out["count"] = 25
    wrong = json.dumps(out, sort_keys=True) + "\n"
    problems = gate.check(argv, rc, wrong, stderr, gate.load_golden())
    assert "stdout differs from the recorded output" in problems
    assert any("count 25 != 26" in p for p in problems)
    # the paper-number check stands on its own, without the recording
    assert gate.check_numbers(argv, rc, wrong, stderr)


def test_gate_checks_h2_against_the_genus_number():
    n = next(n for n in gate.seeded_n_pool() if gate.genus_number(n) > 1)
    argv = gate.global_argv(n)
    rc, stdout, stderr = _golden_case(argv)
    assert gate.check_numbers(argv, rc, stdout, stderr) == []
    out = json.loads(stdout)
    out["h2"] += 1
    assert gate.check_numbers(argv, rc, json.dumps(out), stderr)


def _bindings():
    """Every module global and class attribute of bttwist, by identity."""
    out = {}
    for m in tracing.bttwist_modules():
        for name, val in vars(m).items():
            out[(m.__name__, name)] = val
            if isinstance(val, type) and val.__module__ == m.__name__:
                for attr, inner in vars(val).items():
                    out[(m.__name__, name, attr)] = inner
    return out


def test_wrappers_are_fully_removed_after_a_traced_run():
    import bttwist.cli
    import bttwist.enumerate
    before = _bindings()
    tracer = tracing.Tracer()
    with tracing.install(tracer) as patch:
        assert patch.missing == []
        # names copied by `from .branch import branch_member` are rebound too
        assert getattr(bttwist.enumerate.branch_member, tracing.MARK, False)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            for argv in (["global", "-N", "3"],
                         ["count-local", "--group", "q8", "--field", "2:-3"]):
                tracer.begin_job()
                assert bttwist.cli.main(argv) == 0
    summary = tracer.summary()
    assert summary["counts"]["cli.calls"] == 2
    assert summary["counts"]["branch.member.calls"] > 0
    assert summary["counts"]["enumerate.vertices_scanned"] > 0
    assert summary["self_s"]["enumerate.count"] > 0
    assert tracing.leftover_wrappers() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_benchmark_json_lists_every_traced_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    empty = tracing.layer_metrics({"counts": {}, "self_s": {}})
    names = set(empty) | {"cli.import_s", "trace.overhead_ratio"}
    names |= {f"padic.{op}_us.d{deg}" for deg in micro.FIELDS
              for op in ("mul", "inv", "valuation", "quadratic_defect")}
    names |= {"bttree.apply_vertex_us.d8", "branch.member_us.d8"}
    assert {m["name"] for m in spec["per_layer"]} == names
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "jobs_per_s", "job_p50_s", "peak_rss_mb"}
