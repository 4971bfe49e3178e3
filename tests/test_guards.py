import random
import sys
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from builders import CHECKED_HELPER, drawn_templates, protect_text
from oracles import xor_fold16
from vmguard.guards import (FOLD_MEMO_SIZE, GuardError, _fold,
                            compute_vpa_hash, coverage_report,
                            finalize_expected_hashes, format_coverage,
                            inject_guards)
from vmguard.ir import parse_module
from vmguard.layout import build_layout
from vmguard.lift import encode, lift_function
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
    # lengths run the `_fold` cascade's halving schedules, from none at
    # one element to thirteen at 5,000; the array, list and tuple forms
    # cover every container the guards and tests hash
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


@given(elements)
def test_an_image_in_the_other_byte_order_folds_alike(elems):
    # what a host of the other byte order holds, read in that order
    image = array("H", elems)
    image.byteswap()
    other = "big" if sys.byteorder == "little" else "little"
    assert _fold(image.tobytes(), other) == xor_fold16(elems)


def test_a_stream_changed_in_place_folds_afresh():
    vpa = array("H", range(300))
    before = compute_vpa_hash(vpa)
    assert compute_vpa_hash(array("H", vpa)) == before     # a memo hit
    vpa[7] ^= 0x0410
    assert compute_vpa_hash(vpa) == before ^ 0x0410 == xor_fold16(vpa)


def test_the_fold_memo_keeps_at_most_its_bound():
    first = [(i * 40503) & 0xFFFF for i in range(64)]
    assert compute_vpa_hash(array("H", first)) == xor_fold16(first)
    for i in range(FOLD_MEMO_SIZE + 50):
        compute_vpa_hash(array("H", [i & 0xFFFF, i >> 16, 0xBEEF]))
    info = _fold.cache_info()
    assert info.maxsize == FOLD_MEMO_SIZE
    assert info.currsize <= FOLD_MEMO_SIZE
    # the first stream has been evicted and folds again, correctly
    assert compute_vpa_hash(array("H", first)) == xor_fold16(first)


TABLE = {"main": 0, "g": 1}

# two records: a guard's only legal point is before the `ret`
TWO_RECORDS = """\
func @two(i64 %x) -> i64 {
entry:
  %one = const i64 1
  ret i64 %one
}
"""


def _lifted(text=CHECKED_HELPER, seed=7):
    return drawn_templates(text, TABLE, seed)[1:]


def _inject(lay, risa, templates, checkees, seed):
    guards = inject_guards("main", len(templates), checkees, risa, lay,
                           SplitMix64(seed), TABLE)
    vpa = encode("main", templates, risa.opcode_of, guards)
    return guards, vpa, walk_records(risa, vpa)


def test_insertion_indices_exclude_the_entry_record():
    points = set()
    for seed in range(200):
        lay, risa, templates = _lifted()
        guards, _, records = _inject(lay, risa, templates, ["g"], seed)
        points.update(guards)
        assert records[0][1] == templates[0].spec
    assert points == set(range(1, len(templates)))


def test_inject_adds_one_record_per_checkee():
    lay, risa, templates = _lifted()
    n = len(templates)
    size = lay.size
    guards, vpa, records = _inject(lay, risa, templates, ["g", "g"], 3)
    assert lay.size == size + 8          # a 2-byte cell pair per guard
    assert sum(len(at) for at in guards.values()) == 2
    assert all(1 <= point < n for point in guards)
    for elems in (e for at in guards.values() for e in at):
        assert len(elems) == 4
        assert elems[1] == 1             # table index of @g
        assert elems[3] == elems[2] + 2  # observed cell after expected
    assert len(records) == n + 2
    assert records[0][1].kind != "guard"
    woven = [list(vpa[at:at + 4]) for at, spec in records
             if spec.kind == "guard"]
    assert woven == [e for point in sorted(guards) for e in guards[point]]


def test_two_guards_at_one_record_keep_checkee_order():
    lay, risa, templates = _lifted(TWO_RECORDS)
    guards, vpa, records = _inject(lay, risa, templates, ["g", "main"], 5)
    assert list(guards) == [1]
    assert [e[1] for e in guards[1]] == [1, 0]
    assert [spec.kind for _, spec in records] == \
        [templates[0].spec.kind, "guard", "guard", templates[1].spec.kind]
    assert [vpa[at + 1] for at, _ in records[1:3]] == [1, 0]


def test_inject_refuses_functions_without_a_legal_point():
    fn = parse_module(CHECKED_HELPER).functions[1]     # single-record @g
    lay = build_layout(fn)
    templates = lift_function(fn, lay, TABLE)
    with pytest.raises(GuardError):
        inject_guards("g", len(templates), ["main"], Risa(), lay,
                      SplitMix64(2), TABLE)


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
