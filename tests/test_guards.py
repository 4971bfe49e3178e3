import random
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from builders import CHECKED_HELPER, protect_text
from oracles import xor_fold16
from vmguard.guards import (GuardError, compute_vpa_hash, coverage_report,
                            finalize_expected_hashes, format_coverage,
                            guard_insertion_indices, inject_guards)
from vmguard.ir import parse_module
from vmguard.layout import build_layout
from vmguard.lift import assign_opcodes, lift_function
from vmguard.network import GuardEdge
from vmguard.risa import Risa, walk_records
from vmguard.rng import SplitMix64

elements = st.lists(st.integers(min_value=0, max_value=0xFFFF),
                    max_size=300)


def test_checksum_known_vectors():
    assert compute_vpa_hash([]) == 0
    assert compute_vpa_hash([0x1234]) == 0x1234
    assert compute_vpa_hash([0x1234, 0x00FF, 0x1234]) == 0x00FF
    assert compute_vpa_hash([0] * 500) == 0
    assert compute_vpa_hash([0xFFFF, 0xFFFF]) == 0
    assert compute_vpa_hash(list(range(100)) * 2) == 0


@given(elements)
def test_checksum_matches_independent_fold(elems):
    assert compute_vpa_hash(elems) == xor_fold16(elems)
    assert compute_vpa_hash(array("H", elems)) == xor_fold16(elems)


@given(elements)
def test_checksum_ignores_element_order(elems):
    assert compute_vpa_hash(list(reversed(elems))) == compute_vpa_hash(elems)


@given(st.lists(st.integers(min_value=0, max_value=0xFFFF), min_size=1,
                max_size=300),
       st.data())
def test_any_single_element_change_alters_the_checksum(elems, data):
    i = data.draw(st.integers(min_value=0, max_value=len(elems) - 1))
    mask = data.draw(st.integers(min_value=1, max_value=0xFFFF))
    before = compute_vpa_hash(elems)
    elems[i] ^= mask
    assert compute_vpa_hash(elems) != before


@given(st.lists(st.integers(min_value=0, max_value=0xFFFF), min_size=2,
                max_size=300),
       st.data())
def test_same_mask_on_two_elements_preserves_the_checksum(elems, data):
    i = data.draw(st.integers(min_value=0, max_value=len(elems) - 2))
    j = data.draw(st.integers(min_value=i + 1, max_value=len(elems) - 1))
    mask = data.draw(st.integers(min_value=1, max_value=0xFFFF))
    before = compute_vpa_hash(elems)
    elems[i] ^= mask
    elems[j] ^= mask
    assert compute_vpa_hash(elems) == before


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=5000),
       st.randoms(use_true_random=False),
       st.sampled_from([array, tuple, list]))
@example(0, random.Random(0), array)
@example(23, random.Random(1), array)
@example(24, random.Random(2), tuple)
@example(1025, random.Random(3), list)
@example(5000, random.Random(4), array)
def test_checksum_matches_xor_reduce_at_every_length(n, rng, form):
    # lengths span the element loop, the crossover and several halving
    # schedules; every container the guards and tests hash is covered
    elems = [rng.randrange(0x10000) for _ in range(n)]
    vpa = array("H", elems) if form is array else form(elems)
    assert compute_vpa_hash(vpa) == xor_fold16(elems)
    assert list(vpa) == elems               # the caller's stream is intact


def test_small_and_large_folding_paths_agree():
    elems = [(i * 2654435761) & 0xFFFF for i in range(200)]
    whole = compute_vpa_hash(array("H", elems))
    pieces = 0
    for i in range(0, 200, 40):
        pieces ^= compute_vpa_hash(elems[i:i + 40])
    assert whole == pieces


def _lifted_main():
    fn = parse_module(CHECKED_HELPER).functions[0]
    lay = build_layout(fn)
    risa = Risa()
    records = assign_opcodes(lift_function(fn, lay, {"main": 0, "g": 1}),
                             risa, SplitMix64(7))
    return fn, lay, risa, records


def test_insertion_indices_exclude_the_entry_record():
    _, _, _, records = _lifted_main()
    assert guard_insertion_indices(records) == list(range(1, len(records)))


def test_inject_adds_one_record_per_checkee():
    _, lay, risa, records = _lifted_main()
    n = len(records)
    size = lay.size
    placements = inject_guards("main", records, ["g", "g"], risa, lay,
                               SplitMix64(3), {"main": 0, "g": 1})
    assert len(records) == n + 2
    assert lay.size == size + 8          # a 2-byte cell pair per guard
    assert len(placements) == 2
    for p in placements:
        assert set(p) == {"checkee", "point", "order", "opcode",
                          "expected_cell", "observed_cell"}
        assert p["checkee"] == "g"
        assert 1 <= p["point"] < n
        assert p["observed_cell"] == p["expected_cell"] + 2
    guards = [r for r in records if r.spec.kind == "guard"]
    assert len(guards) == 2
    assert records[0].spec.kind != "guard"
    for rec in guards:
        assert rec.elements[1] == 1      # table index of @g
        assert len(rec.elements) == 4


def test_inject_refuses_functions_without_a_legal_point():
    fn = parse_module(CHECKED_HELPER).functions[1]     # single-record @g
    lay = build_layout(fn)
    risa = Risa()
    records = assign_opcodes(lift_function(fn, lay, {"main": 0, "g": 1}),
                             risa, SplitMix64(1))
    with pytest.raises(GuardError):
        inject_guards("g", records, ["main"], risa, lay, SplitMix64(2),
                      {"main": 0, "g": 1})


def test_finalize_bakes_checkee_hash_into_checker_image():
    bundle = protect_text(CHECKED_HELPER, seed=11)
    main = bundle.function("main")
    g = bundle.function("g")
    guards = [(off, spec) for off, spec in walk_records(main.risa, main.vpa)
              if spec.kind == "guard"]
    assert len(guards) == 1
    off, _ = guards[0]
    assert main.vpa[off + 1] == bundle.index_of("g")
    exp_off = main.vpa[off + 2]
    baked = int.from_bytes(main.image[exp_off:exp_off + 2], "little")
    assert baked == compute_vpa_hash(g.vpa)


def test_finalize_is_idempotent():
    bundle = protect_text(CHECKED_HELPER, seed=11)
    images = [bytes(f.image) for f in bundle.virt_functions()]
    wrote = finalize_expected_hashes(bundle)
    assert wrote == len(bundle.edges) == 1
    assert [bytes(f.image) for f in bundle.virt_functions()] == images


def test_coverage_report_schema_and_percentages():
    module = parse_module(CHECKED_HELPER)
    edges = [GuardEdge("main", "g")]
    rep = coverage_report(module, {"main", "g"}, edges)
    rows = {r["function"]: r for r in rep["rows"]}
    assert rows["main"]["instructions"] == 3
    assert rows["g"]["instructions"] == 1
    assert rows["main"]["virtualized"] and rows["g"]["virtualized"]
    assert rows["main"]["checkers"] == 0
    assert rows["g"]["checkers"] == 1
    s = rep["summary"]
    assert s["total_instructions"] == 4
    assert s["virtualized_pct"] == 100.0
    assert s["guarded_pct"] == 25.0


def test_partial_virtualization_shrinks_the_percentages():
    module = parse_module(CHECKED_HELPER)
    rep = coverage_report(module, {"g"}, [])
    s = rep["summary"]
    assert s["virtualized_instructions"] == 1
    assert s["guarded_instructions"] == 0
    assert s["virtualized_pct"] == 25.0
    assert s["guarded_pct"] == 0.0


def test_format_coverage_mentions_every_function():
    module = parse_module(CHECKED_HELPER)
    text = format_coverage(coverage_report(module, {"main"},
                                           [GuardEdge("x", "main")]))
    assert "main" in text and "g" in text
    assert "total instructions: 4" in text
