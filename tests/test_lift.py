import pytest

from vmguard.ir import parse_module
from vmguard.layout import build_layout
from vmguard.lift import (MAX_STREAM_ELEMENTS, LiftError, LiftRecord,
                          assign_opcodes, encode, lift_function,
                          record_offsets, resolve_branches)
from vmguard.risa import BRANCH_PLACEHOLDER, GUARD_SPEC, HandlerSpec, Risa
from vmguard.rng import SplitMix64

BRANCHY = """\
func @f(i64 %n) -> i64 {
entry:
  %zero = const i64 0
  %neg = icmp slt i64 %n, %zero
  brcond %neg, %low, %high
low:
  ret i64 %zero
high:
  %two = const i64 2
  %d = mul i64 %n, %two
  br %done
done:
  ret i64 %d
}
"""


def lifted(text=BRANCHY, seed=3):
    fn = parse_module(text).functions[0]
    lay = build_layout(fn)
    risa = Risa()
    records = assign_opcodes(lift_function(fn, lay, {"f": 0}), risa,
                             SplitMix64(seed))
    return fn, lay, risa, records


def test_one_record_per_instruction_in_program_order():
    fn, _, _, records = lifted()
    kinds = [i.kind for b in fn.blocks for i in b.instructions]
    assert [r.spec.kind.split(".")[0] for r in records] == kinds
    assert [r.block for r in records] == \
        [b.label for b in fn.blocks for i in b.instructions]


def test_every_record_starts_with_its_assigned_opcode():
    _, _, risa, records = lifted()
    for rec in records:
        assert risa.spec_of[rec.elements[0]] == rec.spec
        assert len(rec.elements) == rec.spec.record_len


def test_operands_are_layout_offsets():
    _, lay, _, records = lifted()
    mul = next(r for r in records if r.spec.kind == "mul")
    assert mul.elements[1:] == [lay.slots["n"][0], lay.slots["two"][0],
                               lay.slots["d"][0]]


def test_branch_targets_start_as_placeholders():
    _, _, _, records = lifted()
    brc = next(r for r in records if r.spec.kind == "brcond")
    assert brc.elements[2] == BRANCH_PLACEHOLDER
    assert brc.elements[3] == BRANCH_PLACEHOLDER
    assert brc.targets == ("low", "high")
    br = next(r for r in records if r.spec.kind == "br")
    assert br.elements[1] == BRANCH_PLACEHOLDER
    assert br.targets == ("done",)


def test_record_offsets_are_cumulative_lengths():
    _, _, _, records = lifted()
    offs = record_offsets(records)
    assert offs[0] == 0
    for i in range(1, len(records)):
        assert offs[i] == offs[i - 1] + len(records[i - 1].elements)


def test_resolved_branches_point_at_block_head_records():
    _, _, _, records = lifted()
    resolve_branches("f", records)
    offs = record_offsets(records)
    heads = {}
    for rec, off in zip(records, offs):
        heads.setdefault(rec.block, off)
    brc = next(r for r in records if r.spec.kind == "brcond")
    assert brc.elements[2] == heads["low"]
    assert brc.elements[3] == heads["high"]
    br = next(r for r in records if r.spec.kind == "br")
    assert br.elements[1] == heads["done"]


def test_guard_inserted_at_block_head_becomes_the_branch_target():
    _, _, risa, records = lifted()
    # place a guard record immediately before the first record of "done"
    at = next(i for i, r in enumerate(records) if r.block == "done")
    opc = risa.opcode_for(GUARD_SPEC, SplitMix64(8))
    records.insert(at, LiftRecord("done", GUARD_SPEC, [opc, 0, 50, 52]))
    resolve_branches("f", records)
    offs = record_offsets(records)
    br = next(r for r in records if r.spec.kind == "br")
    assert br.elements[1] == offs[at]
    assert records[at].spec.kind == "guard"


def test_branch_to_vanished_block_is_an_error():
    _, _, _, records = lifted()
    br = next(r for r in records if r.spec.kind == "br")
    br.targets = ("nowhere",)
    with pytest.raises(LiftError):
        resolve_branches("f", records)


def test_call_to_unindexed_function_is_an_error():
    text = """\
func @f() -> i64 {
entry:
  %r = call i64 @h()
  ret i64 %r
}

func @h() -> i64 {
entry:
  %z = const i64 0
  ret i64 %z
}
"""
    module = parse_module(text)
    fn = module.functions[0]
    with pytest.raises(LiftError):
        lift_function(fn, build_layout(fn), {"f": 0})


def test_encode_flattens_in_order():
    _, _, _, records = lifted()
    resolve_branches("f", records)
    vpa = encode("f", records)
    assert vpa.typecode == "H"
    assert list(vpa) == [e for r in records for e in r.elements]


def test_encode_rejects_wrong_record_arity():
    _, _, _, records = lifted()
    resolve_branches("f", records)
    records[0].elements.append(0)
    with pytest.raises(LiftError):
        encode("f", records)


def test_encode_rejects_elements_beyond_16_bits():
    _, _, _, records = lifted()
    resolve_branches("f", records)
    records[0].elements[-1] = 0x10000
    with pytest.raises(LiftError):
        encode("f", records)


def test_encode_rejects_streams_beyond_the_element_cap():
    spec = HandlerSpec("alloca")
    records = [LiftRecord("entry", spec, [7])
               for _ in range(MAX_STREAM_ELEMENTS + 1)]
    with pytest.raises(LiftError):
        encode("f", records)
    assert len(encode("f", records[:MAX_STREAM_ELEMENTS])) == \
        MAX_STREAM_ELEMENTS
