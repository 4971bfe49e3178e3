from dataclasses import replace

import pytest

from builders import drawn_templates
from vmguard.ir import parse_module
from vmguard.layout import build_layout
from vmguard.lift import (MAX_STREAM_ELEMENTS, LiftError, LiftRecord, encode,
                          lift_function)
from vmguard.risa import (BRANCH_PLACEHOLDER, GUARD_SPEC, OPCODE_SPACE,
                          HandlerSpec, walk_records)
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
    return drawn_templates(text, {"f": 0}, seed)


def encoded(templates, risa, guards=None):
    """The stream and its (element index, spec) records."""
    vpa = encode("f", templates, risa.opcode_of, guards or {})
    return vpa, walk_records(risa, vpa)


def test_one_record_per_instruction_in_program_order():
    fn, _, risa, templates = lifted()
    kinds = [i.kind for b in fn.blocks for i in b.instructions]
    assert [t.spec.kind.split(".")[0] for t in templates] == kinds
    assert [t.block for t in templates] == \
        [b.label for b in fn.blocks for i in b.instructions]
    _, records = encoded(templates, risa)
    assert [spec for _, spec in records] == [t.spec for t in templates]


def test_every_record_starts_with_its_assigned_opcode():
    _, _, risa, templates = lifted()
    vpa, records = encoded(templates, risa)
    for at, spec in records:
        assert risa.spec_of[vpa[at]] == spec
        assert vpa[at] == risa.opcode_of[spec.number]


def test_operands_are_layout_offsets():
    _, lay, risa, templates = lifted()
    vpa, records = encoded(templates, risa)
    at = next(at for at, spec in records if spec.kind == "mul")
    assert list(vpa[at + 1:at + 4]) == [lay.slots["n"][0],
                                        lay.slots["two"][0],
                                        lay.slots["d"][0]]


def test_branch_targets_start_as_placeholders():
    _, _, risa, templates = lifted()
    before = list(templates)
    encoded(templates, risa)
    # encoding writes opcodes and targets into the stream, never the
    # templates, which every later draw reads again
    assert templates == before
    assert all(t.elements[0] == OPCODE_SPACE for t in templates)
    brc = next(t for t in templates if t.spec.kind == "brcond")
    assert brc.elements[2:] == (BRANCH_PLACEHOLDER, BRANCH_PLACEHOLDER)
    assert brc.targets == ("low", "high")
    br = next(t for t in templates if t.spec.kind == "br")
    assert br.elements == (OPCODE_SPACE, BRANCH_PLACEHOLDER)
    assert br.targets == ("done",)


def test_resolved_branches_point_at_block_head_records():
    _, _, risa, templates = lifted()
    vpa, records = encoded(templates, risa)
    heads = {}
    for tmpl, (at, _) in zip(templates, records):
        heads.setdefault(tmpl.block, at)
    brc = next(at for at, spec in records if spec.kind == "brcond")
    assert vpa[brc + 2] == heads["low"]
    assert vpa[brc + 3] == heads["high"]
    br = next(at for at, spec in records if spec.kind == "br")
    assert vpa[br + 1] == heads["done"]


def test_guard_inserted_at_block_head_becomes_the_branch_target():
    _, _, risa, templates = lifted()
    # place a guard immediately before the first record of "done"
    at = next(i for i, t in enumerate(templates) if t.block == "done")
    opc = risa.opcode_for(GUARD_SPEC, SplitMix64(8))
    vpa, records = encoded(templates, risa, {at: [[opc, 0, 50, 52]]})
    guard, spec = records[at]
    assert spec.kind == "guard"
    assert list(vpa[guard:guard + 4]) == [opc, 0, 50, 52]
    assert records[at + 1][1] == templates[at].spec
    br = next(pos for pos, spec in records if spec.kind == "br")
    assert vpa[br + 1] == guard


def test_branch_to_vanished_block_is_an_error():
    _, _, risa, templates = lifted()
    templates = [replace(t, targets=("nowhere",)) if t.spec.kind == "br"
                 else t for t in templates]
    with pytest.raises(LiftError):
        encode("f", templates, risa.opcode_of, {})


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
    _, _, risa, templates = lifted()
    vpa, records = encoded(templates, risa)
    assert vpa.typecode == "H"
    offsets = [0]
    for tmpl in templates:
        offsets.append(offsets[-1] + len(tmpl.elements))
    assert [at for at, _ in records] == offsets[:-1]
    assert len(vpa) == offsets[-1]
    for (at, spec), tmpl in zip(records, templates):
        for i, elem in enumerate(tmpl.elements[1:]):
            if i not in spec.targets:
                assert vpa[at + 1 + i] == elem


def test_encode_rejects_elements_beyond_16_bits():
    _, _, risa, templates = lifted()
    first = templates[0]
    templates[0] = replace(first, elements=first.elements[:-1] + (0x10000,))
    with pytest.raises(LiftError):
        encode("f", templates, risa.opcode_of, {})


def test_encode_rejects_streams_beyond_the_element_cap():
    spec = HandlerSpec("alloca")
    templates = [LiftRecord("entry", spec, (OPCODE_SPACE,))
                 for _ in range(MAX_STREAM_ELEMENTS + 1)]
    opcode_of = {spec.number: 7}
    with pytest.raises(LiftError):
        encode("f", templates, opcode_of, {})
    assert len(encode("f", templates[:MAX_STREAM_ELEMENTS], opcode_of,
                      {})) == MAX_STREAM_ELEMENTS
