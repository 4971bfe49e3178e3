import json
import pathlib

import pytest

from vmguard.ir import (Block, Instruction, IrFunction, IrModule, TypeTag,
                        parse_module, validate_module)
from vmguard.ir.validate import MAX_ALLOCA_COUNT

# the exact violation list of every input below, in order, keyed by the
# input's text or, for a module built by hand, its repr
PINNED = json.loads((pathlib.Path(__file__).resolve().parent
                     / "validate_pins.json").read_text())


def pinned(key, module):
    found = validate_module(module)
    assert found == PINNED[key], key
    return found


def violations(text):
    return pinned(text, parse_module(text))


def wrap(body, sig="() -> i64", name="f"):
    return f"func @{name}{sig} {{\n{body}}}\n"


def built(*blocks, ret=TypeTag.I64, params=()):
    module = IrModule((IrFunction("f", tuple(params), ret, tuple(blocks)),))
    return pinned(repr(module), module)


RET_A = Instruction("ret", operands=("a",))
CONST_A = Instruction("const", result="a", type=TypeTag.I64, value=1)


def test_clean_function_has_no_violations():
    text = wrap("entry:\n  %a = const i64 1\n  ret i64 %a\n")
    assert violations(text) == []


@pytest.mark.parametrize("body, fragment", [
    ("entry:\n  %a = const i64 1\n  %a = const i64 2\n  ret i64 %a\n",
     "duplicate definition of %a"),
    ("entry:\n  %b = add i64 %a, %a\n  ret i64 %b\n",
     "use of undefined value %a"),
    ("entry:\n  %a = const i64 500\n  br %entry\n",
     "targets the entry block"),
])
def test_structural_rules_from_text(body, fragment):
    found = violations(wrap(body))
    assert any(fragment in v for v in found), found


def test_function_without_blocks_rejected():
    assert any("no blocks" in v for v in built())


def test_block_missing_terminator_rejected():
    found = built(Block("entry", (CONST_A,)))
    assert any("missing terminator" in v for v in found)


def test_terminator_before_block_end_rejected():
    found = built(Block("entry", (CONST_A, RET_A, RET_A)))
    assert any("has terminator" in v for v in found)


def test_branch_to_undefined_label_rejected():
    found = built(Block("entry", (CONST_A, Instruction("br",
                                                       labels=("gone",)))))
    assert any("undefined label %gone" in v for v in found)


def test_const_out_of_range_rejected():
    bad = Instruction("const", result="a", type=TypeTag.I8, value=500)
    found = built(Block("entry", (bad, Instruction("ret"))), ret=None)
    assert any("value out of range" in v for v in found)


@pytest.mark.parametrize("body, fragment", [
    # operand type mismatches
    ("entry:\n  %a = const i32 1\n  %b = const i64 2\n"
     "  %c = add i64 %a, %b\n  ret i64 %c\n", "has type i32, expected i64"),
    ("entry:\n  %a = const i64 1\n  %c = icmp eq i32 %a, %a\n"
     "  %r = zext i64 %c\n  ret i64 %r\n", "has type i64, expected i32"),
    # select condition must be a comparison result
    ("entry:\n  %a = const i64 1\n  %r = select i64 %a, %a, %a\n"
     "  ret i64 %r\n", "has type i64, expected i1"),
    # brcond condition must be i1
    ("entry:\n  %a = const i64 1\n  brcond %a, %x, %x\nx:\n  ret i64 %a\n",
     "expected i1"),
    # casts must change width the right way
    ("entry:\n  %a = const i64 1\n  %b = trunc i64 %a\n  ret i64 %b\n",
     "does not narrow"),
    ("entry:\n  %a = const i64 1\n  %b = zext i32 %a\n  ret i64 %b\n",
     "does not widen"),
    ("entry:\n  %a = const i32 1\n  %b = sext i16 %a\n  ret i64 %b\n",
     "does not widen"),
])
def test_type_rules(body, fragment):
    found = violations(wrap(body))
    assert any(fragment in v for v in found), found


@pytest.mark.parametrize("body, fragment", [
    ("entry:\n  %buf = alloca i64 x 0\n  ret void\n", "element count"),
    (f"entry:\n  %buf = alloca i64 x {MAX_ALLOCA_COUNT + 1}\n  ret void\n",
     "element count"),
    ("entry:\n  %one = const i64 1\n  br %next\nnext:\n"
     "  %buf = alloca i64 x 4\n  ret void\n", "outside the entry block"),
    ("entry:\n  %buf = alloca i64 x 4\n  %i = const i64 0\n"
     "  %v = load i32 %buf, %i\n  ret void\n", "does not match"),
    ("entry:\n  %i = const i64 0\n  %v = load i64 %i, %i\n  ret void\n",
     "is not an alloca result"),
    ("entry:\n  %buf = alloca i64 x 4\n  %c = icmp eq i64 %buf, %buf\n"
     "  ret void\n", "allocation handle"),
    ("entry:\n  %buf = alloca i64 x 4\n  %i = const i64 0\n"
     "  %c = icmp eq i64 %i, %i\n  %v = load i64 %buf, %c\n  ret void\n",
     "wider than i1"),
])
def test_memory_rules(body, fragment):
    found = violations(wrap(body, sig="() -> void"))
    assert any(fragment in v for v in found), found


def test_returning_an_allocation_handle_rejected():
    found = violations(wrap("entry:\n  %buf = alloca i64 x 4\n"
                            "  ret i64 %buf\n"))
    assert any("allocation handle" in v for v in found), found


def test_alloca_count_boundary_is_accepted():
    text = wrap(f"entry:\n  %buf = alloca i8 x {MAX_ALLOCA_COUNT}\n  ret void\n",
                sig="() -> void")
    assert violations(text) == []


@pytest.mark.parametrize("text, fragment", [
    (wrap("entry:\n  %r = call i64 @gone()\n  ret i64 %r\n"),
     "call to unknown function"),
    (wrap("entry:\n  %r = call i64 @g(%r)\n  ret i64 %r\n") +
     wrap("entry:\n  %a = const i64 1\n  ret i64 %a\n", name="g"),
     "passes 1 arguments, expected 0"),
    (wrap("entry:\n  call void @g()\n  ret i64 %r\n") +
     wrap("entry:\n  %a = const i64 1\n  ret i64 %a\n", name="g"),
     "use of undefined value %r"),
    (wrap("entry:\n  %r = call i32 @g()\n  ret i64 %r\n") +
     wrap("entry:\n  %a = const i64 1\n  ret i64 %a\n", name="g"),
     "binds i32, function returns i64"),
    (wrap("entry:\n  %r = call i64 @print_i64(%r)\n  ret i64 %r\n"),
     "call to void @print_i64 binds a result"),
    (wrap("entry:\n  ret void\n", sig="() -> void", name="read_i64"),
     "shadows an intrinsic"),
])
def test_call_rules(text, fragment):
    found = violations(text)
    assert any(fragment in v for v in found), found


@pytest.mark.parametrize("body, fragment", [
    ("entry:\n  ret void\n", "ret void in function returning i64"),
    ("entry:\n  %a = const i32 1\n  ret i32 %a\n",
     "has type i32, expected i64"),
])
def test_return_rules(body, fragment):
    found = violations(wrap(body))
    assert any(fragment in v for v in found), found


def test_phi_must_sit_at_block_head():
    text = wrap(
        "entry:\n  %zero = const i64 0\n  br %next\n"
        "next:\n  %a = const i64 1\n  %p = phi i64 [%zero, %entry]\n"
        "  ret i64 %p\n")
    assert any("not at head" in v for v in violations(text))


def test_phi_arms_must_match_predecessors():
    text = wrap(
        "entry:\n  %zero = const i64 0\n  br %next\n"
        "next:\n  %p = phi i64 [%zero, %entry], [%zero, %ghost]\n"
        "  ret i64 %p\nghost:\n  ret i64 %zero\n")
    assert any("do not match predecessors" in v for v in violations(text))


def test_phi_arm_value_must_be_defined_in_predecessor():
    text = wrap(
        "entry:\n  %zero = const i64 0\n  %c = icmp eq i64 %zero, %zero\n"
        "  brcond %c, %a, %b\n"
        "a:\n  %x = const i64 1\n  br %join\n"
        "b:\n  br %join\n"
        "join:\n  %p = phi i64 [%x, %a], [%x, %b]\n  ret i64 %p\n")
    assert any("arm %x not defined at end of block %b" in v
               for v in violations(text))


def test_value_from_non_dominating_block_rejected():
    text = wrap(
        "entry:\n  %zero = const i64 0\n  %c = icmp eq i64 %zero, %zero\n"
        "  brcond %c, %a, %b\n"
        "a:\n  %x = const i64 1\n  br %join\n"
        "b:\n  br %join\n"
        "join:\n  ret i64 %x\n")
    assert any("used in block %join" in v and "before definition" in v
               for v in violations(text))


def test_value_flowing_through_all_paths_is_accepted():
    text = wrap(
        "entry:\n  %zero = const i64 0\n  %x = const i64 9\n"
        "  %c = icmp eq i64 %zero, %zero\n"
        "  brcond %c, %a, %b\n"
        "a:\n  br %join\n"
        "b:\n  br %join\n"
        "join:\n  ret i64 %x\n")
    assert violations(text) == []


def test_use_before_definition_in_same_block_rejected():
    text = wrap("entry:\n  %b = add i64 %a, %a\n  %a = const i64 1\n"
                "  ret i64 %b\n")
    assert any("%a used in block %entry before definition" in v
               for v in violations(text))


def test_duplicate_function_names_rejected():
    # the parser refuses duplicates already, so build the module by hand
    from vmguard.ir import parse_function
    fn = parse_function(wrap("entry:\n  %a = const i64 1\n  ret i64 %a\n"))
    module = IrModule((fn, fn))
    found = pinned(repr(module), module)
    assert any("duplicate function name" in v for v in found)


def test_corpus_validates_clean(corpus_raw, corpus_flat):
    for module in corpus_raw.values():
        assert validate_module(module) == []
    for module in corpus_flat.values():
        assert validate_module(module) == []
