from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (M64, PROGRAM_MODELS, binary_model, cast_model,
                     icmp_model, signed64)
from vmguard.arith import DIV_BY_ZERO, TrapError
from vmguard.execstate import ExecContext
from vmguard.ir import (TypeTag, evaluate_function, interp, parse_module,
                        reference_interpret)
from vmguard.ir.core import BINARY_KINDS, CAST_KINDS, ICMP_PREDICATES


def run(text, inputs=(), step_limit=10_000_000):
    return reference_interpret(parse_module(text), "main", inputs,
                               step_limit=step_limit)


@pytest.mark.parametrize("tier", ["tiny", "check", "bench"])
def test_corpus_matches_independent_models(corpus_flat, manifest, tier):
    for entry in manifest["programs"]:
        name = entry["name"]
        inputs = entry["inputs"][tier]
        want_value, want_output = PROGRAM_MODELS[name](inputs)
        res = reference_interpret(corpus_flat[name], "main", inputs)
        assert res.status == "normal", (name, res.trap_reason)
        assert res.value == want_value, name
        assert res.output == want_output, name
        # the manifest carries the same frozen expectations
        assert entry["expect"][tier] == {"value": want_value,
                                         "output": want_output}


def test_entry_parameters_consume_leading_inputs():
    res = run("""\
func @main(i64 %a, i64 %b) -> i64 {
entry:
  %n = call i64 @read_i64()
  %s = add i64 %a, %b
  %t = add i64 %s, %n
  ret i64 %t
}
""", inputs=[10, 20, 3])
    assert res.status == "normal"
    assert res.value == 33


def test_printed_values_are_signed():
    res = run("""\
func @main() -> void {
entry:
  %a = const i64 -5
  call void @print_i64(%a)
  ret void
}
""")
    assert res.status == "normal"
    assert res.value is None
    assert res.output == [-5]


@pytest.mark.parametrize("body, reason", [
    ("  %z = const i64 0\n  %a = const i64 1\n  %r = sdiv i64 %a, %z\n"
     "  ret i64 %r\n", "division by zero"),
    ("  %z = const i64 0\n  %a = const i64 1\n  %r = srem i64 %a, %z\n"
     "  ret i64 %r\n", "division by zero"),
    ("  %buf = alloca i64 x 4\n  %i = const i64 4\n  %r = load i64 %buf, %i\n"
     "  ret i64 %r\n", "load index out of bounds"),
    ("  %buf = alloca i64 x 4\n  %i = const i64 -1\n"
     "  %v = const i64 9\n  store i64 %v, %buf, %i\n  ret i64 %v\n",
     "store index out of bounds"),
    ("  %r = call i64 @read_i64()\n  ret i64 %r\n", "input exhausted"),
])
def test_trap_reasons(body, reason):
    res = run("func @main() -> i64 {\nentry:\n" + body + "}\n")
    assert res.status == "trap"
    assert res.trap_reason == reason


def test_step_limit_trap():
    res = run("""\
func @main() -> i64 {
entry:
  %zero = const i64 0
  br %spin
spin:
  br %spin
}
""", step_limit=1000)
    assert res.status == "trap"
    assert res.trap_reason == "step limit exceeded"
    assert res.steps == 1001


def test_call_depth_trap():
    res = run("""\
func @main() -> i64 {
entry:
  %r = call i64 @main()
  ret i64 %r
}
""")
    assert res.status == "trap"
    assert res.trap_reason == "call depth exceeded"


def test_output_kept_across_trap():
    res = run("""\
func @main() -> i64 {
entry:
  %a = const i64 7
  call void @print_i64(%a)
  %z = const i64 0
  %r = sdiv i64 %a, %z
  ret i64 %r
}
""")
    assert res.status == "trap"
    assert res.output == [7]


# ---- pinned edge-case vectors ----------------------------------------------

def eval_expr(lines, ret="r", n=0):
    body = "\n".join("  " + ln for ln in lines)
    res = run("func @main() -> i64 {\nentry:\n" + body +
              f"\n  ret i64 %{ret}\n}}\n", inputs=[0] * n)
    assert res.status == "normal", res.trap_reason
    return res.value


def test_sdiv_truncates_toward_zero():
    assert eval_expr(["%a = const i64 -7", "%b = const i64 2",
                      "%r = sdiv i64 %a, %b"]) == -3
    assert eval_expr(["%a = const i64 7", "%b = const i64 -2",
                      "%r = sdiv i64 %a, %b"]) == -3


def test_srem_sign_follows_dividend():
    assert eval_expr(["%a = const i64 -7", "%b = const i64 2",
                      "%r = srem i64 %a, %b"]) == -1
    assert eval_expr(["%a = const i64 7", "%b = const i64 -2",
                      "%r = srem i64 %a, %b"]) == 1


def test_int_min_divided_by_minus_one_wraps():
    v = -(1 << 63)
    assert eval_expr([f"%a = const i64 {v}", "%b = const i64 -1",
                      "%r = sdiv i64 %a, %b"]) == v


def test_shift_amounts_at_or_over_width_give_zero():
    assert eval_expr(["%a = const i64 1", "%b = const i64 64",
                      "%r = shl i64 %a, %b"]) == 0
    assert eval_expr(["%a = const i64 -1", "%b = const i64 64",
                      "%r = lshr i64 %a, %b"]) == 0


def test_ashr_saturates_to_sign_bit():
    assert eval_expr(["%a = const i64 -1", "%b = const i64 200",
                      "%r = ashr i64 %a, %b"]) == -1
    assert eval_expr(["%a = const i64 5", "%b = const i64 64",
                      "%r = ashr i64 %a, %b"]) == 0


def test_narrow_width_wraparound():
    res = run("""\
func @main() -> i64 {
entry:
  %a = const i8 -128
  %b = const i8 -1
  %m = mul i8 %a, %b
  %w = zext i64 %m
  ret i64 %w
}
""")
    # (-128 * -1) wraps to -128 in i8, zext of 0x80 is 128
    assert res.value == 128


def test_sext_fills_sign_bits():
    res = run("""\
func @main() -> i64 {
entry:
  %a = const i8 -2
  %w = sext i64 %a
  ret i64 %w
}
""")
    assert res.value == -2


def test_trunc_keeps_low_bits():
    res = run("""\
func @main() -> i64 {
entry:
  %a = const i64 511
  %t = trunc i8 %a
  %w = zext i64 %t
  ret i64 %w
}
""")
    assert res.value == 255


def test_unsigned_compare_of_negative_values():
    # -1 compares above 1 when unsigned
    assert eval_expr(["%a = const i64 -1", "%b = const i64 1",
                      "%c = icmp ugt i64 %a, %b",
                      "%r = zext i64 %c"]) == 1
    assert eval_expr(["%a = const i64 -1", "%b = const i64 1",
                      "%c = icmp sgt i64 %a, %b",
                      "%r = zext i64 %c"]) == 0


# ---- randomized differential against direct Python evaluation --------------

_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: (a << (b & M64)) if (b & M64) < 64 else 0,
    "lshr": lambda a, b: (a & M64) >> (b & M64) if (b & M64) < 64 else 0,
}

op_step = st.tuples(st.sampled_from(sorted(_OPS)),
                    st.integers(0, 63), st.integers(0, 63))


@given(st.lists(st.integers(min_value=0, max_value=M64),
                min_size=8, max_size=8),
       st.lists(op_step, min_size=1, max_size=24))
def test_straightline_programs_match_python(consts, steps):
    lines = [f"%v{i} = const i64 {signed64(c)}" for i, c in enumerate(consts)]
    vals = [c & M64 for c in consts]
    idx = 8
    for op, ai, bi in steps:
        a, b = ai % idx, bi % idx
        lines.append(f"%v{idx} = {op} i64 %v{a}, %v{b}")
        vals.append(_OPS[op](vals[a], vals[b]) & M64)
        idx += 1
    got = eval_expr(lines, ret=f"v{idx - 1}")
    assert got == signed64(vals[-1])


# ---- the compiled interpreter ----------------------------------------------

TAGS = list(TypeTag)
CAST_PAIRS = [(kind, src, dst) for kind in CAST_KINDS for src in TAGS
              for dst in TAGS
              if (src.bits > dst.bits) == (kind == "trunc")
              and src.bits != dst.bits]


@lru_cache(maxsize=None)
def one_instruction(body: str, params: TypeTag, ret: TypeTag):
    """`@main(iN %a, iN %b)` computing `%r` in one instruction."""
    return parse_module(
        f"func @main({params.text} %a, {params.text} %b) -> {ret.text} {{\n"
        f"entry:\n  %r = {body}\n  ret {ret.text} %r\n}}\n").function("main")


def evaluate(fn, args, hook=None, ctx=None):
    """The raw (unsigned) value of one activation."""
    return evaluate_function(fn, args, hook, ctx or ExecContext())


def operands(tag):
    return st.integers(0, (1 << tag.bits) - 1)


@pytest.mark.parametrize("tag", TAGS, ids=lambda t: t.text)
@pytest.mark.parametrize("kind", BINARY_KINDS)
@given(data=st.data())
def test_binary_instruction_matches_model(kind, tag, data):
    a, b = data.draw(operands(tag)), data.draw(operands(tag))
    fn = one_instruction(f"{kind} {tag.text} %a, %b", tag, tag)
    want = binary_model(kind, a, b, tag.bits)
    if want is None:
        with pytest.raises(TrapError) as exc:
            evaluate(fn, [a, b])
        assert exc.value.reason == DIV_BY_ZERO
    else:
        assert evaluate(fn, [a, b]) == want


@pytest.mark.parametrize("tag", TAGS, ids=lambda t: t.text)
@pytest.mark.parametrize("pred", ICMP_PREDICATES)
@given(data=st.data())
def test_icmp_instruction_matches_model(pred, tag, data):
    a, b = data.draw(operands(tag)), data.draw(operands(tag))
    fn = one_instruction(f"icmp {pred} {tag.text} %a, %b", tag, TypeTag.I1)
    assert evaluate(fn, [a, b]) == icmp_model(pred, a, b, tag.bits)


@pytest.mark.parametrize(
    "kind,src,dst", CAST_PAIRS,
    ids=lambda v: v if isinstance(v, str) else v.text)
@given(data=st.data())
def test_cast_instruction_matches_model(kind, src, dst, data):
    a, b = data.draw(operands(src)), data.draw(operands(src))
    fn = one_instruction(f"{kind} {dst.text} %a", src, dst)
    assert evaluate(fn, [a, b]) == cast_model(kind, a, src.bits, dst.bits)


def test_step_limit_in_mid_block_keeps_output_and_counts_the_step():
    res = run("""\
func @main() -> i64 {
entry:
  %a = const i64 7
  call void @print_i64(%a)
  %b = const i64 8
  %c = add i64 %a, %b
  ret i64 %c
}
""", step_limit=3)
    assert res.status == "trap"
    assert res.trap_reason == "step limit exceeded"
    assert res.output == [7]
    assert res.steps == 4


def test_step_limit_inside_a_callee():
    text = """\
func @f() -> i64 {
entry:
  %a = const i64 1
  %b = const i64 2
  %c = add i64 %a, %b
  ret i64 %c
}

func @main() -> i64 {
entry:
  %x = call i64 @f()
  ret i64 %x
}
"""
    assert run(text).steps == 6
    res = run(text, step_limit=3)
    assert res.status == "trap"
    assert res.trap_reason == "step limit exceeded"
    assert res.steps == 4


@pytest.mark.parametrize("ty, body, reason", [
    ("i64", "%a = const i64 7\n  %z = const i64 0\n  %r = sdiv i64 %a, %z",
     "division by zero"),
    ("i8", "%buf = alloca i8 x 4\n  %i = const i8 -1\n  %r = load i8 %buf, %i",
     "load index out of bounds"),
    # 200 unsigned would be in bounds; read as an i8 it is -56
    ("i8", "%buf = alloca i8 x 300\n  %i = const i8 -56\n"
     "  %r = load i8 %buf, %i", "load index out of bounds"),
], ids=["sdiv-by-zero", "load-minus-one", "load-negative-i8"])
def test_mid_block_trap_reports_the_trapping_step(ty, body, reason):
    res = run(f"func @main() -> {ty} {{\nentry:\n  {body}\n"
              f"  %s = add {ty} %r, %r\n  ret {ty} %s\n}}\n")
    assert res.status == "trap"
    assert res.trap_reason == reason
    assert res.steps == 3


def test_last_in_bounds_index_of_a_narrow_type_loads():
    res = run("""\
func @main() -> i8 {
entry:
  %buf = alloca i8 x 300
  %i = const i8 127
  %v = const i8 5
  store i8 %v, %buf, %i
  %r = load i8 %buf, %i
  ret i8 %r
}
""")
    assert res.status == "normal" and res.value == 5


def test_trace_leaves_out_the_arm_never_taken():
    module = parse_module("""\
func @main(i64 %n) -> i64 {
entry:
  %z = const i64 0
  %c = icmp slt i64 %n, %z
  brcond %c, %neg, %done
neg:
  %m = sub i64 %z, %n
  ret i64 %m
done:
  ret i64 %n
}
""")
    trace = set()
    res = reference_interpret(module, "main", [5], trace_blocks=trace)
    assert res.value == 5
    assert trace == {("main", "entry"), ("main", "done")}


def test_call_results_stay_unmasked_and_signed_compares_mask_them():
    fn = parse_module("""\
func @g() -> i1 {
entry:
  %t = const i1 1
  ret i1 %t
}

func @main(i64 %unused, i64 %n) -> i1 {
entry:
  %c = call i1 @g()
  %zero = const i1 0
  %lt = icmp slt i1 %c, %zero
  %r = select i1 %lt, %c, %lt
  ret i1 %r
}
""").function("main")
    # an engine may hand back an i1 cell as a whole byte: 0xFE reads as 0
    assert evaluate(fn, [0, 0], lambda name, args: 0xFE) == 0
    # 0xFF reads as -1 < 0, and the select passes the raw value on
    assert evaluate(fn, [0, 0], lambda name, args: 0xFF) == 0xFF


def test_nested_calls_go_through_each_activations_hook():
    fn = parse_module("""\
func @main() -> i64 {
entry:
  %x = call i64 @read_i64()
  ret i64 %x
}
""").function("main")
    ctx = ExecContext()
    assert evaluate(fn, [], lambda name, args: 11, ctx) == 11
    assert evaluate(fn, [], lambda name, args: 22, ctx) == 22
    assert len(ctx.decoded) == 1


def test_a_function_compiles_once_per_run(monkeypatch):
    compiled = []
    compile_ = interp._compile

    def counting(fn, ctx):
        compiled.append(fn.name)
        return compile_(fn, ctx)

    monkeypatch.setattr(interp, "_compile", counting)
    module = parse_module("""\
func @f(i64 %a) -> i64 {
entry:
  %b = add i64 %a, %a
  ret i64 %b
}

func @main() -> i64 {
entry:
  %one = const i64 1
  %x = call i64 @f(%one)
  %y = call i64 @f(%x)
  ret i64 %y
}
""")
    assert reference_interpret(module, "main").value == 4
    assert sorted(compiled) == ["f", "main"]
    # nothing outlives a run's context: a second run compiles afresh
    assert reference_interpret(module, "main").value == 4
    assert sorted(compiled) == ["f", "f", "main", "main"]
