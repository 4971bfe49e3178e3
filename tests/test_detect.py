import pytest

from builders import CHECKED_HELPER, protect_text
from conftest import corpus_text
from vmguard import bundle as bundle_module
from vmguard.bundle import (FlipElement, PreserveChecksumPair, deserialize,
                            serialize)
from vmguard.detect import (CHANGED, COLLISION_MISS, DETECTED, OUTCOMES,
                            REFINED, ROOT_MISS, SILENT, TRAPPED,
                            UNRUN_MISS, classify_run, refined_counts,
                            refined_outcome, run_detection)
from vmguard.ir.core import ExecutionResult
from vmguard.protect import ProtectionConfig, virtualize_module
from vmguard.runtime import execute_secure
from vmguard.threaded import execute_optimized


def test_outcome_labels_are_distinct():
    assert len(set(OUTCOMES)) == 4
    assert set(OUTCOMES) == {DETECTED, TRAPPED, CHANGED, SILENT}


def test_classification_covers_every_status():
    honest = ExecutionResult("normal", value=3, output=[1])
    assert classify_run(ExecutionResult("tamper"), honest) == DETECTED
    assert classify_run(ExecutionResult("trap", trap_reason="x"),
                        honest) == TRAPPED
    assert classify_run(ExecutionResult("normal", value=3, output=[1]),
                        honest) == SILENT
    assert classify_run(ExecutionResult("normal", value=4, output=[1]),
                        honest) == CHANGED
    assert classify_run(ExecutionResult("normal", value=3, output=[2]),
                        honest) == CHANGED


def test_experiment_summary_is_internally_consistent(corpus_flat):
    bundle = virtualize_module(corpus_flat["fib"], ProtectionConfig(seed=4))
    summary = run_detection(bundle, [6], trials=40, seed=11, program="fib")
    assert summary.program == "fib"
    assert summary.trials == 40 == len(summary.rows)
    assert sum(summary.count(o) for o in OUTCOMES) == 40
    assert summary.covered_trials + summary.root_trials == 40
    assert summary.honest_guard_execs > 0
    for row in summary.rows:
        assert row.outcome in OUTCOMES
        assert len(row.changes) == 1
        if row.covered:
            # a covered target was hashed at least once in the honest run
            assert any(e.checkee == row.function for e in summary.edges)
    text = summary.table()
    assert "fib" in text and "covered" in text


def test_roots_are_separated_from_covered_targets(corpus_flat):
    bundle = virtualize_module(corpus_flat["fib"], ProtectionConfig(seed=4))
    edges = bundle.edge_names()
    checkees = {e.checkee for e in edges}
    roots = {f.name for f in bundle.functions
             if hasattr(f, "vpa") and f.name not in checkees}
    summary = run_detection(bundle, [6], trials=60, seed=7, program="fib")
    for row in summary.rows:
        assert row.covered == (row.function not in roots)


def test_directed_strategy_factories_are_honoured():
    bundle = protect_text(CHECKED_HELPER, seed=6)
    summary = run_detection(
        bundle, [3], trials=10, seed=2,
        strategy_factory=lambda: FlipElement("g", 0, mask=0x8),
        program="helper")
    assert summary.count(DETECTED) == 10
    assert summary.covered_missed == 0
    collide = run_detection(
        bundle, [3], trials=10, seed=2,
        strategy_factory=lambda: PreserveChecksumPair("g"),
        program="helper")
    assert collide.count(SILENT) == 10
    assert collide.covered_missed == 10


def test_refined_counts_are_exhaustive(corpus_flat):
    bundle = virtualize_module(corpus_flat["fib"], ProtectionConfig(seed=4))
    summary = run_detection(bundle, [6], trials=40, seed=11, program="fib")
    counts = refined_counts(summary)
    assert set(counts) == set(REFINED)
    assert sum(counts.values()) == 40
    assert counts[DETECTED] == summary.count(DETECTED)
    assert counts[TRAPPED] == summary.count(TRAPPED)
    undetected = counts[ROOT_MISS] + counts[UNRUN_MISS] + \
        counts[COLLISION_MISS]
    assert undetected == summary.count(CHANGED) + summary.count(SILENT)
    # random flips cannot preserve the fold, so no collision verdicts
    assert counts[COLLISION_MISS] == 0
    assert counts[ROOT_MISS] == summary.count(SILENT, covered=False) + \
        summary.count(CHANGED, covered=False)


def test_refined_outcome_distinguishes_the_miss_causes():
    def trial(outcome, covered, over):
        return type("T", (), {"outcome": outcome, "covered": covered,
                              "guards_over_target": over})()

    assert refined_outcome(trial(DETECTED, True, 3)) == DETECTED
    assert refined_outcome(trial(TRAPPED, False, 0)) == TRAPPED
    assert refined_outcome(trial(SILENT, False, 0)) == ROOT_MISS
    assert refined_outcome(trial(CHANGED, True, 0)) == UNRUN_MISS
    assert refined_outcome(trial(SILENT, True, 2)) == COLLISION_MISS


def test_preserving_pairs_land_in_the_collision_bucket():
    bundle = protect_text(CHECKED_HELPER, seed=6)
    summary = run_detection(
        bundle, [3], trials=10, seed=2,
        strategy_factory=lambda: PreserveChecksumPair("g"),
        program="helper")
    counts = refined_counts(summary)
    assert counts[COLLISION_MISS] == 10


def test_detection_works_under_the_optimized_engine(corpus_flat):
    bundle = virtualize_module(corpus_flat["fib"], ProtectionConfig(seed=4))
    summary = run_detection(bundle, [6], trials=25, seed=9, program="fib",
                            executor=execute_optimized)
    assert summary.trials == 25
    assert summary.count(DETECTED) > 0


def test_honest_failure_is_rejected_up_front():
    bundle = protect_text(CHECKED_HELPER, seed=1)
    with pytest.raises(ValueError):
        run_detection(bundle, [], trials=5, seed=1)   # missing input


@pytest.mark.parametrize("engine", [execute_secure, execute_optimized])
@pytest.mark.parametrize("name", ["fib", "crc32"])
def test_trials_match_trials_on_round_trip_copies(manifest, monkeypatch,
                                                  name, engine):
    """Trials on structural copies classify exactly like trials on copies
    made through the wire format."""
    bundle = protect_text(corpus_text(name), seed=17, level=50)
    inputs = next(p["inputs"]["tiny"] for p in manifest["programs"]
                  if p["name"] == name)
    rows = run_detection(bundle, inputs, trials=30, seed=5,
                         executor=engine).rows
    monkeypatch.setattr(bundle_module, "copy_bundle",
                        lambda b: deserialize(serialize(b)))
    oracle = run_detection(bundle, inputs, trials=30, seed=5,
                           executor=engine).rows
    assert rows == oracle
