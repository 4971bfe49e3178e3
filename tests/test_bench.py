import csv
import io
import statistics
import time

import pytest

from vmguard import bench
from vmguard.bench import (ARMS, MODES, TIERS, BenchError, BenchmarkConfig,
                           BenchmarkRow, coverage_table,
                           format_coverage_table, load_manifest,
                           load_program_text, run_benchmarks)
from vmguard.ir import parse_module
from vmguard.ir.interp import reference_interpret
from vmguard.ir import phi
from vmguard.ir.phi import eliminate_phis, eliminate_phis_function
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


def test_reference_is_timed_in_every_levels_rotation(monkeypatch):
    """The plain reference runs once untimed, then once per lap of each
    level's timed reps, as the first cell of the rotation: a lap that
    runs forwards starts with it and one that runs backwards ends with
    it.  Its first run is slow, as a first call filling caches would be,
    and stays out of every row."""
    calls = []

    def recording(label, fn):
        def run(*args, **kw):
            calls.append(label)
            if label == "reference" and calls.count(label) == 1:
                time.sleep(0.05)
            return fn(*args, **kw)
        return run

    monkeypatch.setattr(bench, "reference_interpret",
                        recording("reference", reference_interpret))
    for mode, executor in zip(MODES, (execute_secure, execute_optimized)):
        monkeypatch.setitem(bench.EXECUTORS, mode, recording(mode, executor))
    reps, levels = 3, (50, 100)
    report = run_benchmarks(BenchmarkConfig(
        programs=("fib",), levels=levels, reps=reps, seeds=1, tier="tiny",
        seed=3))
    cells = len(ARMS) * len(MODES)
    assert calls[0] == "reference"
    assert calls.count("reference") == 1 + reps * len(levels)
    per_level = len(calls[1:]) // len(levels)
    for lv in range(len(levels)):
        level_calls = calls[1 + lv * per_level:1 + (lv + 1) * per_level]
        # the untimed outcome checks, then the laps of the timed reps
        timed = level_calls[cells:]
        laps = [timed[i:i + cells + 1] for i in range(0, len(timed),
                                                      cells + 1)]
        assert len(laps) == reps
        for i, lap in enumerate(laps):
            assert lap.count("reference") == 1
            assert lap[-1 if i % 2 else 0] == "reference"
    for level in levels:
        for arm in ARMS:
            for mode in MODES:
                ref_s = report.row("fib", arm, mode, level).reference_seconds
                assert 0 < ref_s < 0.05


def test_timed_reps_rotate_through_every_cell(monkeypatch):
    calls = []

    def recording(mode, executor):
        def run(bundle, inputs, **kw):
            calls.append((mode, id(bundle)))
            return executor(bundle, inputs, **kw)
        return run

    monkeypatch.setitem(bench.EXECUTORS, "secure",
                        recording("secure", execute_secure))
    monkeypatch.setitem(bench.EXECUTORS, "optimized",
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


def test_each_program_is_phi_eliminated_once(monkeypatch):
    """The reference runs on the phi-free module the protected draws are
    lowered from; the rows and failures are those of fresh protections
    of fresh parses."""
    programs, seeds, levels = ("fib", "qsort", "sieve"), 2, (50, 100)
    eliminated = []
    monkeypatch.setattr(phi, "eliminate_phis_function", lambda fn: (
        eliminated.append(fn.name) or eliminate_phis_function(fn)))
    report = run_benchmarks(BenchmarkConfig(
        programs=programs, levels=levels, reps=1, seeds=seeds, tier="tiny",
        seed=3))
    monkeypatch.undo()
    by_name = {p["name"]: p for p in load_manifest()["programs"]}
    modules = {name: parse_module(load_program_text(by_name[name]["file"]))
               for name in programs}
    assert sorted(eliminated) == sorted(
        fn.name for module in modules.values() for fn in module.functions)
    assert report.failures == []
    assert len(report.rows) == (len(programs) * len(levels) * len(ARMS)
                                * len(MODES))
    for row in report.rows:
        executor = (execute_secure if row.mode == "secure"
                    else execute_optimized)
        results = [executor(virtualize_module(
            parse_module(load_program_text(by_name[row.program]["file"])),
            ProtectionConfig(seed=3 + i, level=row.level,
                             enable_guards=(row.arm == "vo+sc"))),
            by_name[row.program]["inputs"]["tiny"]) for i in range(seeds)]
        assert row.steps == statistics.median(r.steps for r in results)
        assert row.guard_execs == statistics.median(r.guard_execs
                                                    for r in results)


@pytest.fixture(scope="module")
def tiny_report():
    cfg = BenchmarkConfig(programs=("fib",), reps=1, seeds=1, tier="tiny",
                          seed=3)
    return run_benchmarks(cfg)


def test_mean_over_draws_shows_a_slow_draw_the_median_hides(monkeypatch):
    """One draw in three of a cell runs 20 ms slower: the median is a fast
    run, and the mean over the draws carries a third of the delay."""
    slow, runs = [], {}

    def delayed(bundle, inputs, **kw):
        slow[:] = slow or [id(bundle)]
        runs[id(bundle)] = runs.get(id(bundle), 0) + 1
        if id(bundle) == slow[0] and runs[id(bundle)] > 1:   # timed runs
            time.sleep(0.02)
        return execute_secure(bundle, inputs, **kw)

    monkeypatch.setitem(bench.EXECUTORS, "secure", delayed)
    report = run_benchmarks(BenchmarkConfig(
        programs=("fib",), arms=("vo",), modes=("secure",), reps=2,
        seeds=3, tier="tiny", seed=3))
    row = report.row("fib", "vo", "secure")
    assert row.median_seconds < 0.02 / 3 <= row.mean_seconds
    assert row.min_seconds <= row.median_seconds < row.mean_seconds


def test_report_has_one_row_per_cell(tiny_report):
    assert len(tiny_report.rows) == len(ARMS) * len(MODES)
    for arm in ARMS:
        for mode in MODES:
            row = tiny_report.row("fib", arm, mode)
            assert isinstance(row, BenchmarkRow)
            assert row.median_seconds > 0
            assert 0 < row.min_seconds <= row.median_seconds
            assert row.min_seconds <= row.mean_seconds
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
        for column in ("median_seconds", "mean_seconds", "min_seconds",
                       "iqr_seconds"):
            assert float(parsed[column]) == \
                pytest.approx(getattr(row, column), abs=1e-6)
        assert int(parsed["steps"]) == row.steps


def test_table_mentions_every_cell(tiny_report):
    text = tiny_report.format_table()
    assert "fib" in text
    assert "min s" in text and "IQR s" in text and "mean s" in text
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


def test_every_program_name_is_checked_before_any_run(monkeypatch):
    def ran(*args, **kwargs):
        raise AssertionError("a program ran before every name was checked")

    monkeypatch.setattr(bench, "reference_interpret", ran)
    for mode in MODES:
        monkeypatch.setitem(bench.EXECUTORS, mode, ran)
    with pytest.raises(BenchError, match="'nosuch'"):
        run_benchmarks(BenchmarkConfig(programs=("fib", "crc32", "nosuch"),
                                       tier="tiny", reps=1, seeds=1))


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
