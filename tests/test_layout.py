import pytest

from vmguard.ir import Block, Instruction, IrFunction, TypeTag, parse_module
from vmguard.layout import (MAX_IMAGE_SIZE, MAX_SLOT_START, LayoutError,
                            VmLayout, build_layout, materialize_image)

SAMPLE = """\
func @f(i64 %x, i32 %y) -> i64 {
entry:
  %c = const i64 81985529216486895
  %s = add i64 %x, %c
  %t = icmp eq i64 %s, %c
  %buf = alloca i64 x 4
  %zero = const i64 0
  store i64 %s, %buf, %zero
  %back = load i64 %buf, %zero
  ret i64 %back
}
"""


def sample_fn():
    return parse_module(SAMPLE).functions[0]


def test_parameters_come_first_in_declaration_order():
    lay = build_layout(sample_fn())
    assert lay.param_slots == [(0, TypeTag.I64), (8, TypeTag.I32)]
    assert lay.slots["x"] == (0, TypeTag.I64)
    assert lay.slots["y"] == (8, TypeTag.I32)


def test_constants_follow_parameters_and_precede_other_results():
    lay = build_layout(sample_fn())
    c_off = lay.slots["c"][0]
    z_off = lay.slots["zero"][0]
    assert c_off == 12                      # right after the 8+4 param bytes
    assert z_off == c_off + 8
    for name in ("s", "t", "back"):
        assert lay.slots[name][0] > z_off


def test_comparison_results_occupy_one_byte():
    lay = build_layout(sample_fn())
    assert lay.slots["t"][1] is TypeTag.I1


def test_return_cell_sits_between_results_and_regions():
    lay = build_layout(sample_fn())
    ret_off, ret_tag = lay.ret_slot
    assert ret_tag is TypeTag.I64
    assert all(off < ret_off for off, _ in
               (lay.slots[n] for n in ("x", "y", "c", "s", "t", "back")))
    region_start, count, tag = lay.regions["buf"]
    assert region_start == ret_off + 8
    assert count == 4 and tag is TypeTag.I64
    assert lay.size == region_start + 4 * 8


def test_materialized_image_bakes_constants_little_endian():
    lay = build_layout(sample_fn())
    image = materialize_image(lay)
    assert len(image) == lay.size
    c_off = lay.slots["c"][0]
    assert image[c_off:c_off + 8] == \
        (81985529216486895).to_bytes(8, "little")
    # everything that is not a baked constant starts zeroed
    z_off = lay.slots["zero"][0]
    blank = bytearray(image)
    blank[c_off:c_off + 8] = bytes(8)
    blank[z_off:z_off + 8] = bytes(8)
    assert blank == bytearray(lay.size)


def test_guard_pair_appends_two_adjacent_cells():
    lay = build_layout(sample_fn())
    before = lay.size
    exp, run = lay.add_guard_pair()
    assert (exp, run) == (before, before + 2)
    assert lay.size == before + 4
    exp2, run2 = lay.add_guard_pair()
    assert exp2 == before + 4 and run2 == before + 6


def _alloca_fn(count):
    return IrFunction("big", (), TypeTag.I64, (Block("entry", (
        Instruction("alloca", result="buf", type=TypeTag.I64, count=count),
        Instruction("const", result="z", type=TypeTag.I64, value=0),
        Instruction("ret", operands=("z",), type=TypeTag.I64),
    )),))


def test_oversized_allocation_overflows_the_image():
    with pytest.raises(LayoutError):
        build_layout(_alloca_fn(MAX_IMAGE_SIZE // 8 + 1))


def test_alloca_filling_the_image_exactly_is_accepted():
    fn = _alloca_fn((MAX_IMAGE_SIZE - 16) // 8)
    lay = build_layout(fn)
    assert lay.size == MAX_IMAGE_SIZE
    # but no further cell fits afterwards
    with pytest.raises(LayoutError):
        lay.add_guard_pair()


def test_slot_start_beyond_offset_space_is_rejected():
    lay = VmLayout("t")
    lay.size = MAX_SLOT_START + 1
    with pytest.raises(LayoutError):
        lay.place(1, "straggler")


def test_phi_must_be_lowered_first():
    fn = IrFunction("p", (), TypeTag.I64, (Block("entry", (
        Instruction("phi", result="v", type=TypeTag.I64,
                    phi_args=(("a", "x"), ("b", "y"))),
        Instruction("ret", operands=("v",), type=TypeTag.I64),
    )),))
    with pytest.raises(LayoutError):
        build_layout(fn)
