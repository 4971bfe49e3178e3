"""Self-tests of the benchmark: imports, failure counting, the traced
run's wrappers and the determinism of everything a seed fixes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

run.prepare_imports()

import clock  # noqa: E402
import tracing  # noqa: E402
import workload  # noqa: E402

# small versions of the real workloads: same code paths, tiny inputs
SMALL_CALLS = dataclasses.replace(
    workload.WORKLOADS["call-guard"], tier="tiny", draws=1, trials=3)
SMALL_CAMPAIGN = dataclasses.replace(
    workload.WORKLOADS["tamper-campaign"], draws=2, trials=3)


def session_for(spec, seed=5):
    session = workload.Session(spec, seed)
    session.setup()
    return session


def test_entry_point_imports_in_a_fresh_interpreter():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
            "run.prepare_imports(); import workload, tracing")
    done = subprocess.run([sys.executable, "-c", code, BENCH_DIR],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_refuses_to_run_without_the_sources(tmp_path):
    bare = tmp_path / "checkout"
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"),
                bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "call-guard",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_clock_scales_spans_by_the_marks_around_them():
    c = clock.SpeedClock()
    c.starts, c.ends = [0.0, 1.0, 2.0], [0.002, 1.001, 2.0005]
    c.speeds = [0.5, 1.0, 2.0]
    # between the first two marks: mean speed 0.75
    assert math.isclose(c.seconds(0.5, 0.8), 0.3 * 0.75)
    # across the second mark, whose own run is left out
    assert math.isclose(c.seconds(0.5, 1.5), 0.5 * 0.75 + 0.499 * 1.5)
    try:
        c.seconds(2.5, 3.0)
    except RuntimeError:
        pass
    else:
        raise AssertionError("a span with no mark after it was converted")
    c.mark()
    assert c.speeds[-1] > 0 and c.ends[-1] > c.starts[-1]


def test_escaping_exception_is_one_failed_operation():
    session = workload.Session(SMALL_CALLS, 1)
    (t0, t1), value = session._op("divide", lambda: 1 // 0)
    assert value is None and t1 >= t0
    assert (session.attempted, session.failed) == (1, 1)
    assert "ZeroDivisionError" in session.failures[0]


def test_wrong_result_is_counted_and_the_round_goes_on():
    session = session_for(SMALL_CALLS)
    honest = session_for(SMALL_CALLS)
    honest.round(0)
    fib = session.programs[0]
    fib.expect = {"value": fib.expect["value"], "output": [0]}
    session.round(0)
    assert session.attempted == honest.attempted
    # the five honest runs of fib (plain, two engines, two arms) fail
    assert session.failed == 5
    assert honest.failed == 0


def test_tracer_patches_and_restores_every_point():
    originals = {(m.__name__, a): getattr(m, a)
                 for m, a, *_ in tracing.SPAN_POINTS + tracing.COUNT_POINTS}
    tracer = tracing.Tracer()
    with tracer:
        for (module, attr), fn in originals.items():
            assert getattr(sys.modules[module], attr) is not fn
    for (module, attr), fn in originals.items():
        assert getattr(sys.modules[module], attr) is fn


def test_traced_counts_match_the_runs_and_results_are_unchanged():
    session = session_for(SMALL_CALLS)
    untraced = session.round(0)
    tracer = tracing.Tracer()
    session.tracer = tracer
    with tracer:
        traced = session.round(0)
    session.tracer = None
    assert traced == untraced
    assert session.failed == 0 and session.check_failures == []
    # fingerprint fields 5 and 6 are the run's steps and guard executions
    assert tracer.steps_counted() == sum(fp[5] for fp in traced)
    assert tracer.calls["guards.hash"] == sum(fp[6] for fp in traced)
    assert tracer.calls["guards.hash"] > 0
    metrics = tracer.layer_metrics(1)
    for name in ("parser.parse_s", "protect.self_s", "lift.self_s",
                 "bundle.deserialize_s", "threaded.pre_decode_s",
                 "runtime.dispatch_self_s", "threaded.dispatch_self_s",
                 "guards.hash_s", "interp.self_s"):
        assert metrics[name][0] > 0, name
    assert metrics["runtime.call_bridge_calls"][0] > 0


def run_cycle(spec, seed):
    session = session_for(spec, seed)
    for r in range(spec.draws):
        session.round(r)
    assert session.failed == 0 and session.check_failures == []
    return session


def test_same_seed_repeats_every_count_and_every_bundle():
    first = run_cycle(SMALL_CAMPAIGN, 9)
    second = run_cycle(SMALL_CAMPAIGN, 9)
    assert first.bundle_bytes() == second.bundle_bytes()
    assert first.detected_pct() == second.detected_pct()
    assert first.outcome_totals() == second.outcome_totals()
    assert first.facts == second.facts
    assert any(key[0] == "sha256" for key in first.facts)
    assert any(key[0] == "run" for key in first.facts)
    other = run_cycle(SMALL_CAMPAIGN, 10)
    assert other.facts != first.facts


def test_result_line_has_the_contract_keys():
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         "tamper-campaign", "--seed", "3", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == list(run.END_TO_END)


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH_DIR),
                           "BENCHMARK.json")) as f:
        declared = json.load(f)
    session = session_for(SMALL_CALLS)
    session.round(0)
    session.finish()
    e2e = run.end_to_end_metrics(session)
    layers = run.per_layer_metrics(session, tracing.Tracer(), 1, 1.0, 1.0)
    for metrics, key in ((e2e, "end_to_end"), (layers, "per_layer")):
        assert [(m["name"], m["unit"]) for m in declared[key]] == \
            [(name, unit) for name, (_, unit) in metrics.items()]
