import csv
import io
import time

import pytest

from vmguard import bench
from vmguard.bench import (ARMS, MODES, TIERS, BenchError, BenchmarkConfig,
                           BenchmarkRow, _sample, coverage_table,
                           format_coverage_table, load_manifest,
                           load_program_text, measure, run_benchmarks)
from vmguard.ir import parse_module
from vmguard.ir.interp import reference_interpret
from vmguard.ir.phi import eliminate_phis
from vmguard.protect import ProtectionConfig, virtualize_module
from vmguard.runtime import execute_secure
from vmguard.threaded import execute_optimized


def test_corpus_files_load_through_package_data():
    manifest = load_manifest()
    names = [p["name"] for p in manifest["programs"]]
    assert len(names) == 6
    for entry in manifest["programs"]:
        text = load_program_text(entry["file"])
        assert text.lstrip(";\n ").startswith("func @main") or \
            "func @main" in text


def test_measure_returns_median_and_last_result():
    calls = []

    def thunk():
        calls.append(1)
        return len(calls)

    median, result = measure(thunk, reps=5)
    assert len(calls) == 6          # one untimed warm-up, five timed
    assert result == 6
    assert median >= 0.0


def test_sample_warms_up_once_untimed():
    calls = []

    def thunk():
        calls.append(1)
        # the first call is slow, as a first call filling caches would be
        time.sleep(0.05 if len(calls) == 1 else 0.0)
        return len(calls)

    times, result = _sample(thunk, reps=3)
    assert len(calls) == 4 and result == 4
    assert len(times) == 3
    assert max(times) < 0.05


def test_timed_reps_rotate_through_every_cell(monkeypatch):
    calls = []

    def recording(mode, executor):
        def run(bundle, inputs, **kw):
            calls.append((mode, id(bundle)))
            return executor(bundle, inputs, **kw)
        return run

    monkeypatch.setattr(bench, "execute_secure",
                        recording("secure", execute_secure))
    monkeypatch.setattr(bench, "execute_optimized",
                        recording("optimized", execute_optimized))
    reps, seeds = 3, 2
    report = run_benchmarks(BenchmarkConfig(
        programs=("fib",), reps=reps, seeds=seeds, tier="tiny", seed=3))
    assert len(report.rows) == len(ARMS) * len(MODES)
    cells = len(ARMS) * len(MODES) * seeds
    # one untimed run per draw and mode, then the timed reps
    warm, timed = calls[:cells], calls[cells:]
    assert len(set(warm)) == cells and len(timed) == reps * cells
    laps = [timed[i:i + cells] for i in range(0, len(timed), cells)]
    # each lap runs every cell once, in turn, and odd laps run backwards
    assert laps[0] == warm
    assert laps[1] == laps[0][::-1] and laps[2] == laps[0]
    # the first half of a lap is one arm's draws, the second the other's
    half = cells // 2
    assert not {b for _, b in laps[0][:half]} & {b for _, b in
                                                  laps[0][half:]}


@pytest.fixture(scope="module")
def tiny_report():
    cfg = BenchmarkConfig(programs=("fib",), reps=1, seeds=1, tier="tiny",
                          seed=3)
    return run_benchmarks(cfg)


def test_report_has_one_row_per_cell(tiny_report):
    assert len(tiny_report.rows) == len(ARMS) * len(MODES)
    for arm in ARMS:
        for mode in MODES:
            row = tiny_report.row("fib", arm, mode)
            assert isinstance(row, BenchmarkRow)
            assert row.median_seconds > 0
            assert 0 < row.min_seconds <= row.median_seconds
            assert row.iqr_seconds >= 0
            assert row.reference_seconds > 0
            assert row.steps > 0


def test_guard_execs_appear_only_in_the_guarded_arm(tiny_report):
    for mode in MODES:
        assert tiny_report.row("fib", "vo", mode).guard_execs == 0
        assert tiny_report.row("fib", "vo+sc", mode).guard_execs > 0


def test_modes_agree_on_work_counts(tiny_report):
    for arm in ARMS:
        secure = tiny_report.row("fib", arm, "secure")
        optimized = tiny_report.row("fib", arm, "optimized")
        assert secure.steps == optimized.steps
        assert secure.guard_execs == optimized.guard_execs


def test_csv_round_trips_through_the_stdlib_reader(tiny_report):
    text = tiny_report.to_csv()
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == len(tiny_report.rows)
    for parsed in rows:
        row = tiny_report.row(parsed["program"], parsed["arm"],
                              parsed["mode"])
        for column in ("median_seconds", "min_seconds", "iqr_seconds"):
            assert float(parsed[column]) == \
                pytest.approx(getattr(row, column), abs=1e-6)
        assert int(parsed["steps"]) == row.steps


def test_table_mentions_every_cell(tiny_report):
    text = tiny_report.format_table()
    assert "fib" in text
    assert "min s" in text and "IQR s" in text
    for arm in ARMS:
        assert arm in text


def test_overhead_is_relative_to_the_reference_run(tiny_report):
    row = tiny_report.row("fib", "vo", "secure")
    want = 100.0 * (row.median_seconds - row.reference_seconds) \
        / row.reference_seconds
    assert row.overhead_pct == pytest.approx(want)


def test_plan_with_several_levels_keeps_them_apart():
    cfg = BenchmarkConfig(programs=("fib",), levels=(50, 100), reps=1,
                          seeds=1, tier="tiny", seed=3)
    report = run_benchmarks(cfg)
    assert len(report.rows) == 2 * len(ARMS) * len(MODES)
    low = report.row("fib", "vo+sc", "secure", level=50)
    high = report.row("fib", "vo+sc", "secure", level=100)
    assert low.level == 50 and high.level == 100
    # a single-level lookup is ambiguous here
    with pytest.raises(KeyError):
        report.row("fib", "vo+sc", "secure")


def test_several_draws_per_cell_still_agree_across_modes():
    cfg = BenchmarkConfig(programs=("fib",), reps=1, seeds=2, tier="tiny",
                          seed=3)
    report = run_benchmarks(cfg)
    assert len(report.rows) == len(ARMS) * len(MODES)
    for arm in ARMS:
        secure = report.row("fib", arm, "secure")
        optimized = report.row("fib", arm, "optimized")
        assert secure.steps == optimized.steps
        assert secure.guard_execs == optimized.guard_execs


def test_reference_trap_is_recorded_not_raised():
    cfg = BenchmarkConfig(programs=("fib",), reps=1, seeds=1, tier="tiny",
                          seed=3, step_limit=10)
    report = run_benchmarks(cfg)
    assert report.rows == []
    assert len(report.failures) == 1
    failure = report.failures[0]
    assert failure.program == "fib"
    assert "reference" in failure.message
    assert "failed: fib" in report.format_table()


def test_protected_cell_failure_skips_only_that_cell():
    manifest = load_manifest()
    prog = next(p for p in manifest["programs"] if p["name"] == "fib")
    module = parse_module(load_program_text(prog["file"]))
    inputs = prog["inputs"]["tiny"]
    ref = reference_interpret(eliminate_phis(module), "main", inputs)
    vo = execute_secure(virtualize_module(module, ProtectionConfig(
        seed=3, enable_guards=False)), inputs)
    guarded = execute_secure(virtualize_module(module, ProtectionConfig(
        seed=3, guards_per_checkee=2)), inputs)
    # budget admits the reference and the plain arm, not the guarded one
    limit = guarded.steps - 1
    if ref.steps >= limit or vo.steps >= limit:
        pytest.skip("guard records did not add enough steps to wedge a "
                    "budget between the arms")
    cfg = BenchmarkConfig(programs=("fib",), reps=1, seeds=1, tier="tiny",
                          seed=3, step_limit=limit,
                          modes=("secure",))
    report = run_benchmarks(cfg)
    kinds = {(r.arm, r.mode) for r in report.rows}
    assert ("vo", "secure") in kinds
    assert ("vo+sc", "secure") not in kinds
    assert any(f.arm == "vo+sc" for f in report.failures)


def test_unknown_program_is_rejected():
    with pytest.raises(BenchError):
        run_benchmarks(BenchmarkConfig(programs=("nope",), tier="tiny",
                                       reps=1))


def test_invalid_axes_are_rejected():
    with pytest.raises(BenchError):
        run_benchmarks(BenchmarkConfig(programs=("fib",), tier="warp",
                                       reps=1))
    with pytest.raises(BenchError):
        run_benchmarks(BenchmarkConfig(programs=("fib",), tier="tiny",
                                       reps=1, modes=("secure", "dreamy")))
    with pytest.raises(BenchError):
        run_benchmarks(BenchmarkConfig(programs=("fib",), tier="tiny",
                                       reps=1, arms=("vo", "nope")))
    with pytest.raises(BenchError):
        run_benchmarks(BenchmarkConfig(programs=("fib",), tier="tiny",
                                       reps=1, levels=(0,)))
    with pytest.raises(BenchError):
        run_benchmarks(BenchmarkConfig(programs=("fib",), tier="tiny",
                                       reps=0))


def test_tier_axis_is_complete():
    assert TIERS == ("tiny", "check", "bench")


def test_coverage_table_covers_the_whole_corpus():
    rows = coverage_table(level=100, guards_per_checkee=2, seed=1)
    manifest = load_manifest()
    assert [r["name"] for r in rows] == \
        [p["name"] for p in manifest["programs"]]
    for r in rows:
        assert set(r) == {"name", "records", "functions", "protected",
                          "protected_pct"}
        assert 0 < r["protected"] <= r["records"]
        assert r["functions"] >= 1
        assert 0.0 < r["protected_pct"] <= 100.0
        assert r["protected_pct"] == \
            pytest.approx(100.0 * r["protected"] / r["records"], abs=0.05)


def test_coverage_table_formats():
    rows = coverage_table(programs=("fib",), seed=1)
    text = format_coverage_table(rows)
    assert "name" in text and "protected %" in text
    assert "fib" in text


def test_coverage_table_rejects_unknown_programs():
    with pytest.raises(BenchError):
        coverage_table(programs=("nope",))
