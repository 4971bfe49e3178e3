import pytest
from hypothesis import given
from hypothesis import strategies as st

from vmguard.ir import Instruction, TypeTag, parse_module
from vmguard.rng import SplitMix64
from vmguard.risa import (BRANCH_PLACEHOLDER, GUARD_SPEC, KIND_CODE,
                          KIND_NAMES, OPCODE_SPACE, HandlerSpec,
                          MalformedStream, Risa, handler_spec,
                          spec_for_instruction, walk_records)


def test_kind_table_is_frozen():
    assert len(KIND_NAMES) == 34
    assert KIND_NAMES[0] == "const"
    assert KIND_NAMES[-1] == "guard"
    assert KIND_CODE["guard"] == 33
    assert len(set(KIND_NAMES)) == len(KIND_NAMES)


def test_thousand_fresh_draws_all_distinct_and_in_range():
    risa = Risa()
    rng = SplitMix64(99)
    # call signatures with growing arity give 1000 genuinely distinct specs
    specs = [HandlerSpec("call", (TypeTag.I1,) * i, TypeTag.I64)
             for i in range(1000)]
    opcodes = [risa.opcode_for(s, rng) for s in specs]
    assert len(set(opcodes)) == 1000
    assert all(0 <= o < OPCODE_SPACE for o in opcodes)
    assert BRANCH_PLACEHOLDER not in opcodes
    assert len(risa) == 1000


def test_equal_signatures_reuse_the_same_opcode():
    risa = Risa()
    rng = SplitMix64(5)
    a = HandlerSpec("add", (TypeTag.I64, TypeTag.I64), TypeTag.I64)
    b = HandlerSpec("add", (TypeTag.I64, TypeTag.I64), TypeTag.I64)
    assert risa.opcode_for(a, rng) == risa.opcode_for(b, rng)
    assert len(risa) == 1


def test_differing_signatures_get_distinct_opcodes():
    risa = Risa()
    rng = SplitMix64(5)
    wide = risa.opcode_for(
        HandlerSpec("add", (TypeTag.I64, TypeTag.I64), TypeTag.I64), rng)
    narrow = risa.opcode_for(
        HandlerSpec("add", (TypeTag.I32, TypeTag.I32), TypeTag.I32), rng)
    other = risa.opcode_for(
        HandlerSpec("sub", (TypeTag.I64, TypeTag.I64), TypeTag.I64), rng)
    assert len({wide, narrow, other}) == 3


RECORD_LEN_CASES = [
    (HandlerSpec("const", (), TypeTag.I64), 2),
    (HandlerSpec("zext", (TypeTag.I8,), TypeTag.I64), 3),
    (HandlerSpec("sext", (TypeTag.I8,), TypeTag.I64), 3),
    (HandlerSpec("trunc", (TypeTag.I64,), TypeTag.I8), 3),
    (HandlerSpec("select", (TypeTag.I1, TypeTag.I64, TypeTag.I64),
                 TypeTag.I64), 5),
    (HandlerSpec("alloca"), 1),
    (HandlerSpec("load", (TypeTag.I64,), TypeTag.I64), 5),
    (HandlerSpec("store", (TypeTag.I64, TypeTag.I64)), 5),
    (HandlerSpec("br"), 2),
    (HandlerSpec("brcond", (TypeTag.I1,)), 4),
    (HandlerSpec("ret"), 1),
    (HandlerSpec("ret", (TypeTag.I64,)), 2),
    (HandlerSpec("call", (), None), 2),
    (HandlerSpec("call", (TypeTag.I64, TypeTag.I64), TypeTag.I64), 5),
    (HandlerSpec("guard"), 4),
    (HandlerSpec("add", (TypeTag.I64, TypeTag.I64), TypeTag.I64), 4),
    (HandlerSpec("icmp.slt", (TypeTag.I64, TypeTag.I64), TypeTag.I1), 4),
]


@pytest.mark.parametrize("spec, want", RECORD_LEN_CASES)
def test_record_lengths(spec, want):
    assert spec.record_len == want


I64, I1 = TypeTag.I64, TypeTag.I1

# one well-formed signature per kind, as spec_for_instruction builds them
WELL_FORMED = {
    "const": ((), I64), "select": ((I1, I64, I64), I64),
    "zext": ((TypeTag.I8,), I64), "sext": ((TypeTag.I8,), I64),
    "trunc": ((I64,), TypeTag.I8), "alloca": ((), None),
    "load": ((I64,), I64), "store": ((I64, I64), None), "br": ((), None),
    "brcond": ((I1,), None), "ret": ((I64,), None),
    "call": ((I64, I64), I64), "guard": ((), None),
}


@pytest.mark.parametrize("kind", KIND_NAMES)
def test_every_kind_has_a_layout_that_fixes_its_record_length(kind):
    if kind.startswith("icmp."):
        ops, res = (I64, I64), I1
    else:
        ops, res = WELL_FORMED.get(kind, ((I64, I64), I64))
    spec = HandlerSpec(kind, ops, res)
    assert spec.layout is not None
    assert spec.record_len == 1 + len(spec.layout)
    assert handler_spec(kind, ops, res) is handler_spec(kind, ops, res)


@pytest.mark.parametrize("spec", [
    HandlerSpec("add", (I64, I64), None),
    HandlerSpec("add", (I64, TypeTag.I32), I64),
    HandlerSpec("icmp.eq", (I64, I64), I64),
    HandlerSpec("select", (I64, I64, I64), I64),
    HandlerSpec("zext", (I64,), TypeTag.I8),
    HandlerSpec("trunc", (TypeTag.I8,), I64),
    HandlerSpec("load", (I1,), I64),
    HandlerSpec("store", (I64,), None),
    HandlerSpec("brcond", (I64,)),
    HandlerSpec("ret", (I64, I64)),
    HandlerSpec("const", (I64,), I64),
    HandlerSpec("guard", (), I64),
])
def test_signatures_that_do_not_fit_their_kind_have_no_layout(spec):
    assert spec.layout is None
    risa = Risa()
    risa.spec_of[7] = spec
    with pytest.raises(MalformedStream) as exc:
        walk_records(risa, [7, 0, 0, 0])
    assert not exc.value.truncated


def test_spec_for_instruction_separates_predicates_and_widths():
    tags = {"a": TypeTag.I64, "b": TypeTag.I64, "c": TypeTag.I32,
            "d": TypeTag.I32}.__getitem__
    lt = spec_for_instruction(
        Instruction("icmp", result="r", predicate="slt",
                    operands=("a", "b"), type=TypeTag.I64), tags)
    gt = spec_for_instruction(
        Instruction("icmp", result="r", predicate="sgt",
                    operands=("a", "b"), type=TypeTag.I64), tags)
    lt32 = spec_for_instruction(
        Instruction("icmp", result="r", predicate="slt",
                    operands=("c", "d"), type=TypeTag.I32), tags)
    assert lt != gt
    assert lt != lt32
    assert lt.kind == "icmp.slt"
    assert lt.result_type is TypeTag.I1


def test_spec_for_instruction_shares_structurally_identical_ops():
    module = parse_module("""\
func @f(i64 %x, i64 %y) -> i64 {
entry:
  %a = add i64 %x, %y
  %b = add i64 %y, %x
  %c = add i64 %a, %b
  ret i64 %c
}
""")
    fn = module.functions[0]
    tags = {n: TypeTag.I64 for n in ("x", "y", "a", "b", "c")}.__getitem__
    specs = {spec_for_instruction(i, tags)
             for i in fn.blocks[0].instructions if i.kind == "add"}
    assert len(specs) == 1


def test_guard_spec_is_a_plain_niladic_kind():
    assert GUARD_SPEC.kind == "guard"
    assert GUARD_SPEC.operand_types == ()
    assert GUARD_SPEC.result_type is None


def _stream(risa, rng, kinds):
    """Encode a dummy stream of records with correct lengths."""
    flat = []
    bounds = []
    for spec in kinds:
        opc = risa.opcode_for(spec, rng)
        bounds.append(len(flat))
        flat.append(opc)
        flat.extend([0] * (spec.record_len - 1))
    return flat, bounds


def test_walk_records_finds_every_boundary():
    risa = Risa()
    rng = SplitMix64(17)
    kinds = [HandlerSpec("const", (), TypeTag.I64),
             HandlerSpec("add", (TypeTag.I64, TypeTag.I64), TypeTag.I64),
             HandlerSpec("guard"),
             HandlerSpec("ret", (TypeTag.I64,))]
    flat, bounds = _stream(risa, rng, kinds)
    walked = walk_records(risa, flat)
    assert [off for off, _ in walked] == bounds
    assert [spec.kind for _, spec in walked] == \
        ["const", "add", "guard", "ret"]


def test_walk_records_rejects_non_opcode_at_boundary():
    risa = Risa()
    rng = SplitMix64(17)
    flat, _ = _stream(risa, rng, [HandlerSpec("const", (), TypeTag.I64)])
    opc = flat[0]
    bad = (opc + 1) % OPCODE_SPACE
    assert bad not in risa.spec_of
    with pytest.raises(MalformedStream):
        walk_records(risa, [bad] + flat[1:])


def test_walk_records_rejects_truncated_final_record():
    risa = Risa()
    rng = SplitMix64(17)
    flat, _ = _stream(risa, rng, [HandlerSpec("select",
                                              (TypeTag.I1, TypeTag.I64,
                                               TypeTag.I64), TypeTag.I64)])
    with pytest.raises(MalformedStream) as exc:
        walk_records(risa, flat[:-1])
    assert exc.value.truncated


def test_walk_records_accepts_empty_stream():
    assert walk_records(Risa(), []) == []


@given(st.integers(min_value=0, max_value=OPCODE_SPACE - 1))
def test_placeholder_never_collides_with_a_valid_opcode(opc):
    assert opc != BRANCH_PLACEHOLDER
