import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import corpus_text
from vmguard.ir import (BINARY_KINDS, CAST_KINDS, ICMP_PREDICATES, Block,
                        Instruction, IrFunction, IrModule, ParseError,
                        TypeTag, format_function, format_module,
                        parse_function, parse_module)
from vmguard.ir.core import RESULT_FORMS, STATEMENT_FORMS

TRIVIAL = """\
func @main() -> i64 {
entry:
  %a = const i64 5
  %b = const i64 7
  %c = add i64 %a, %b
  ret i64 %c
}
"""


def test_trivial_module_shape():
    module = parse_module(TRIVIAL)
    assert [f.name for f in module.functions] == ["main"]
    fn = module.functions[0]
    assert fn.params == ()
    assert fn.ret is TypeTag.I64
    assert [b.label for b in fn.blocks] == ["entry"]
    kinds = [i.kind for i in fn.blocks[0].instructions]
    assert kinds == ["const", "const", "add", "ret"]


def test_print_parse_print_is_identity_on_trivial():
    module = parse_module(TRIVIAL)
    printed = format_module(module)
    assert format_module(parse_module(printed)) == printed


@pytest.mark.parametrize("name", ["fib", "loop_sum", "qsort", "crc32",
                                  "sieve", "strsearch"])
def test_print_parse_print_is_identity_on_corpus(name):
    printed = format_module(parse_module(corpus_text(name)))
    assert format_module(parse_module(printed)) == printed


def test_negative_const_wraps_to_unsigned():
    fn = parse_function("""\
func @f() -> i64 {
entry:
  %a = const i64 -1
  ret i64 %a
}
""")
    assert fn.blocks[0].instructions[0].value == (1 << 64) - 1


def test_negative_const_roundtrips_through_printer():
    text = """\
func @f() -> i8 {
entry:
  %a = const i8 -128
  ret i8 %a
}
"""
    module = parse_module(text)
    assert format_module(module) == text


def test_all_icmp_predicates_parse():
    preds = ["eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt",
             "uge"]
    body = "\n".join(
        f"  %c{i} = icmp {p} i64 %x, %x" for i, p in enumerate(preds))
    fn = parse_function(
        "func @f(i64 %x) -> i64 {\nentry:\n" + body + "\n  ret i64 %x\n}\n")
    got = [i.predicate for i in fn.blocks[0].instructions[:-1]]
    assert got == preds


def test_alloca_and_memory_ops_parse():
    fn = parse_function("""\
func @f(i64 %i) -> i64 {
entry:
  %buf = alloca i8 x 10
  %v = const i8 3
  store i8 %v, %buf, %i
  %r = load i8 %buf, %i
  %w = zext i64 %r
  ret i64 %w
}
""")
    alloca = fn.blocks[0].instructions[0]
    assert alloca.kind == "alloca"
    assert alloca.type is TypeTag.I8
    assert alloca.count == 10
    store = fn.blocks[0].instructions[2]
    assert store.operands == ("v", "buf", "i")


def test_phi_parses_with_multiple_arms():
    fn = parse_function("""\
func @f(i64 %n) -> i64 {
entry:
  %zero = const i64 0
  %one = const i64 1
  br %loop
loop:
  %i = phi i64 [%zero, %entry], [%next, %loop2]
  %c = icmp slt i64 %i, %n
  brcond %c, %loop2, %out
loop2:
  %next = add i64 %i, %one
  br %loop
out:
  ret i64 %i
}
""")
    phi = fn.block("loop").instructions[0]
    assert phi.kind == "phi"
    assert phi.phi_args == (("zero", "entry"), ("next", "loop2"))


def test_void_call_and_extern_parse():
    fn = parse_function("""\
func @main() -> i64 {
entry:
  %n = call i64 @read_i64()
  call void @print_i64(%n)
  ret i64 %n
}
""")
    call = fn.blocks[0].instructions[1]
    assert call.kind == "call"
    assert call.result is None
    assert call.callee == "print_i64"


def test_comments_and_blank_lines_ignored():
    module = parse_module("""\

; leading comment
func @f() -> void {  ; trailing comment
entry:
  ; a full-line comment
  ret void
}
""")
    assert module.functions[0].ret is None


@pytest.mark.parametrize("bad, fragment", [
    ("func @f() -> i64 {\nentry:\n  %a = bogus i64 %a\n  ret i64 %a\n}\n",
     "unknown instruction"),
    ("func @f() -> i64 {\nentry:\n  %c = icmp zz i64 %c, %c\n  ret i64 %c\n}\n",
     "unknown predicate"),
    ("func @f() -> i64 {\nentry:\n  %a = const i77 1\n  ret i64 %a\n}\n",
     "expected type"),
    ("func @f() -> i64 {\nentry:\n  ret i64 %a\n", "unexpected end"),
    ("func @f() -> i64 {\nentry:\n  br %gone\n}\n", "undefined label %gone"),
    ("func @f() -> void {\nentry:\n  ret void\n}\n"
     "func @f() -> void {\nentry:\n  ret void\n}\n", "duplicate function @f"),
    ("func @f() -> void {\nentry:\n  ret void\nentry:\n  ret void\n}\n",
     "duplicate block label"),
    ("func @f() -> i64 $\n", "unexpected character"),
])
def test_parse_errors_carry_context(bad, fragment):
    with pytest.raises(ParseError) as err:
        parse_module(bad)
    assert fragment in str(err.value)


def test_parse_error_reports_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_module("func @f() -> i64 {\nentry:\n  %a = wat\n}\n")
    assert err.value.line == 3


def test_parse_function_rejects_multiple():
    with pytest.raises(ParseError):
        parse_function(TRIVIAL + "\n" + TRIVIAL.replace("@main", "@other"))


@given(st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1))
def test_const_i64_literals_roundtrip(value):
    fn = parse_function(
        f"func @f() -> i64 {{\nentry:\n  %a = const i64 {value}\n"
        f"  ret i64 %a\n}}\n")
    stored = fn.blocks[0].instructions[0].value
    assert stored == value % (1 << 64)
    printed = format_module(IrModule((fn,)))
    assert f"const i64 {value}" in printed


HEAD = "func @f() -> i64 {\nentry:\n"


# (text, message, line, column) of every error site; positions of tokens
# are worked out only when an error names them, so each site is pinned
@pytest.mark.parametrize("text, message, line, column", [
    (HEAD + "  %r = call void @f()\n  ret i64 %r\n}\n",
     "expected type, found 'void'", 3, 13),
    (HEAD + "  call i64 @f()\n  ret void\n}\n",
     "expected 'void', found 'i64'", 3, 8),
    (HEAD + "  %r = store i64 %a, %b, %c\n  ret void\n}\n",
     "unknown instruction kind 'store'", 3, 8),
    (HEAD + "\t%a = bogus\n}\n", "unknown instruction kind 'bogus'", 3, 7),
    (HEAD + "  load i64 %a, %b\n}\n", "expected instruction, found 'load'",
     3, 3),
    (HEAD + "  %a = const i64 -x\n}\n", "stray '-'", 3, 18),
    (HEAD + "  ret void\f\n}\n", "unexpected character '\\x0c'", 3, 11),
    (HEAD + "  %c = alloca i8 * 4\n}\n", "unexpected character '*'", 3, 18),
    (HEAD + "  ret void ; no closing brace\n; last words",
     "unexpected end of input", 3, 7),
    (HEAD + "  %p = phi i64 [%a, %entry],", "unexpected end of input", 3, 28),
    (HEAD + "  %c = icmp lt i64 %a, %b\n}\n", "unknown predicate 'lt'", 3, 8),
    (HEAD + "  %c = icmp 3 i64 %a, %b\n}\n",
     "expected comparison predicate, found '3'", 3, 13),
    (HEAD + "  %c = add i64 %1, %b\n}\n", "expected value id, found '1'",
     3, 17),
    (HEAD + "  %c = add i64 %a %b\n}\n", "expected ',', found '%'", 3, 19),
    (HEAD + "  %c = const i64 %a\n}\n", "expected integer, found '%'", 3, 18),
    (HEAD + "  %c = alloca i8 y 4\n}\n", "expected 'x', found 'y'", 3, 18),
    (HEAD + "  br %5\n}\n", "expected label, found '5'", 3, 7),
    (HEAD + "  %p = phi i64 [%a, 7]\n}\n", "expected '%', found '7'", 3, 21),
    (HEAD + "  call void @(%a)\n}\n", "expected function name, found '('",
     3, 14),
    ("func @f() -> void {\r\nentry:\r\n  ret vid\r\n}\r\n",
     "expected type, found 'vid'", 3, 7),
    ("func @f() -> void {\n5:\n  ret void\n}\n",
     "expected block label, found '5'", 2, 1),
    ("func @f(i64 %, i8 %b) -> void {\nentry:\n  ret void\n}\n",
     "expected parameter name, found ','", 1, 14),
    ("func @f() i64 {\nentry:\n  ret void\n}\n",
     "expected '->', found 'i64'", 1, 11),
    ("func @f() -> void {\nentry:\n  br %b\nb:\n  ret void\nb:\n"
     "  ret void\n}\n", "duplicate block label in @f", 6, 1),
    ("func @f() -> void {\nentry:\n  br %b\nc:\n  ret void\n}\n",
     "undefined label %b in @f", 4, 1),
    ("func @f() -> void {\nentry:\n  ret void\n}\n\n"
     "func @g() -> void {\nentry:\n  ret void\n}\n"
     "func @f() -> void {\nentry:\n  ret void\n}\n",
     "duplicate function @f", 10, 1),
])
def test_parse_error_sites_are_pinned(text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse_module(text)
    assert str(err.value) == f"line {line}, column {column}: {message}"
    assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize("digit", ["\u00b2", "\u00b3", "\u0663"])
def test_non_ascii_digits_are_unexpected_characters(digit):
    text = f"{HEAD}  %a = const i64 {digit}\n  ret i64 %a\n}}\n"
    with pytest.raises(ParseError) as err:
        parse_function(text)
    assert str(err.value) == (
        f"line 3, column 18: unexpected character {digit!r}")


# ---- round trip over every form ------------------------------------------

NAMES = st.from_regex(r"[A-Za-z_.][A-Za-z0-9_.]{0,4}", fullmatch=True)
TYPES = st.sampled_from(list(TypeTag))
TARGETS = st.sampled_from(["entry", "b1", "b2"])


@st.composite
def consts(draw):
    tag = draw(TYPES)
    top = (1 << tag.bits) - 1
    # stored unsigned: 0, -1, the signed max and the signed min
    edges = [0, top, top >> 1, (top >> 1) + 1]
    value = draw(st.sampled_from(edges) | st.integers(0, top))
    return Instruction("const", result=draw(NAMES), type=tag, value=value)


def _with_result(kind, n_operands, **fields):
    return st.builds(Instruction, st.just(kind), result=NAMES, type=TYPES,
                     operands=st.tuples(*[NAMES] * n_operands), **fields)


# (has a result, kind) -> instructions of that form
FORMS = {
    (True, "const"): consts(),
    **{(True, k): _with_result(k, 2) for k in BINARY_KINDS},
    (True, "icmp"): _with_result(
        "icmp", 2, predicate=st.sampled_from(ICMP_PREDICATES)),
    (True, "select"): _with_result("select", 3),
    **{(True, k): _with_result(k, 1) for k in CAST_KINDS},
    (True, "alloca"): _with_result("alloca", 0, count=st.integers(0, 1 << 16)),
    (True, "load"): _with_result("load", 2),
    (True, "call"): st.builds(
        Instruction, st.just("call"), result=NAMES, type=TYPES,
        callee=NAMES, operands=st.lists(NAMES, max_size=3).map(tuple)),
    (True, "phi"): _with_result(
        "phi", 0, phi_args=st.lists(st.tuples(NAMES, NAMES), min_size=1,
                                    max_size=3).map(tuple)),
    (False, "store"): st.builds(Instruction, st.just("store"), type=TYPES,
                                operands=st.tuples(NAMES, NAMES, NAMES)),
    (False, "call"): st.builds(
        Instruction, st.just("call"), callee=NAMES,
        operands=st.lists(NAMES, max_size=3).map(tuple)),
    (False, "br"): st.builds(Instruction, st.just("br"),
                             labels=st.tuples(TARGETS)),
    (False, "brcond"): st.builds(Instruction, st.just("brcond"),
                                 operands=st.tuples(NAMES),
                                 labels=st.tuples(TARGETS, TARGETS)),
    (False, "ret"): st.just(Instruction("ret")) | st.builds(
        Instruction, st.just("ret"), type=TYPES, operands=st.tuples(NAMES)),
}


def test_round_trip_strategies_cover_every_form():
    assert set(FORMS) == ({(True, k) for k in RESULT_FORMS}
                          | {(False, k) for k in STATEMENT_FORMS})


@given(st.one_of(*FORMS.values()))
def test_every_form_round_trips(ins):
    ret = Instruction("ret")
    body = (ins,) if ins.is_terminator else (ins, ret)
    fn = IrFunction("f", (), None, (Block("entry", body),
                                    Block("b1", (ret,)), Block("b2", (ret,))))
    text = format_function(fn)
    assert parse_function(text) == fn
    assert format_function(parse_function(text)) == text
