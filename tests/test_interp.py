from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import corpus_text
from oracles import (M64, PROGRAM_MODELS, binary_model, cast_model,
                     icmp_model, signed64)
from vmguard import arith
from vmguard.arith import DIV_BY_ZERO, TrapError
from vmguard.bundle import PlainFunction
from vmguard.execstate import CALL_DEPTH_REASON, MAX_CALL_DEPTH, ExecContext
from vmguard.ir import (TypeTag, eliminate_phis, evaluate_function, interp,
                        parse_module, reference_interpret)
from vmguard.ir.core import (BINARY_KINDS, CAST_KINDS, ICMP_PREDICATES, Block,
                             Instruction, IrFunction, IrModule)
from vmguard.protect import ProtectionConfig, virtualize_module
from vmguard.runtime import execute_secure
from vmguard.threaded import execute_optimized


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


# ---- one generated function per basic block --------------------------------

# steps of the tiny-input reference runs, as counted one instruction at a
# time before each one runs
TINY_STEPS = {"fib": 570, "loop_sum": 689, "sieve": 4176}


def print_steps(module, inputs, monkeypatch):
    """The step count at each print of one run."""
    steps = []
    print_value = ExecContext.print_value

    def recording(ctx, value):
        steps.append(ctx.steps)
        print_value(ctx, value)
    with monkeypatch.context() as m:
        m.setattr(ExecContext, "print_value", recording)
        reference_interpret(module, "main", inputs)
    return steps


@pytest.mark.parametrize("name", sorted(TINY_STEPS))
def test_every_step_limit_traps_on_the_step_after_it(corpus_flat, manifest,
                                                     name, monkeypatch):
    # every limit falls in some segment of some block, at every position
    module = corpus_flat[name]
    inputs = next(e for e in manifest["programs"]
                  if e["name"] == name)["inputs"]["tiny"]
    full = reference_interpret(module, "main", inputs)
    assert full.status == "normal" and full.steps == TINY_STEPS[name]
    printed = print_steps(module, inputs, monkeypatch)
    assert len(printed) == len(full.output)
    for limit in range(full.steps):
        res = reference_interpret(module, "main", inputs, step_limit=limit)
        assert res.status == "trap", limit
        assert res.trap_reason == "step limit exceeded", limit
        assert res.steps == limit + 1, limit
        assert res.output == full.output[:sum(s <= limit for s in printed)]
    assert reference_interpret(module, "main", inputs,
                               step_limit=full.steps) == full


LOOP_INTO_BOUNDS = """\
func @main() -> i64 {
entry:
  %buf = alloca i64 x 4
  %ctr = alloca i64 x 1
  %zero = const i64 0
  %one = const i64 1
  store i64 %zero, %ctr, %zero
  br %loop
loop:
  %i = load i64 %ctr, %zero
  call void @print_i64(%i)
  store i64 %i, %buf, %i
  %n = add i64 %i, %one
  store i64 %n, %ctr, %zero
  br %loop
}
"""


@pytest.mark.parametrize("text, reason, steps", [
    ("func @main() -> i64 {\nentry:\n  %a = const i64 7\n"
     "  %z = const i64 0\n  %r = srem i64 %a, %z\n  %s = add i64 %r, %r\n"
     "  ret i64 %s\n}\n", "division by zero", 3),
    ("func @main() -> i64 {\nentry:\n  %buf = alloca i64 x 4\n"
     "  %r = const i64 4\n  store i64 %r, %buf, %r\n  %s = add i64 %r, %r\n"
     "  ret i64 %s\n}\n", "store index out of bounds", 3),
    ("func @main() -> i64 {\nentry:\n  %buf = alloca i64 x 4\n"
     "  %i = const i64 4\n  %r = load i64 %buf, %i\n  %s = add i64 %r, %r\n"
     "  ret i64 %s\n}\n", "load index out of bounds", 3),
    ("func @main() -> i64 {\nentry:\n  %a = const i64 1\n  br %next\n"
     "next:\n  %b = const i64 2\n  %r = phi i64 [%a, %entry]\n"
     "  %s = add i64 %r, %b\n  ret i64 %s\n}\n",
     "phi reached at run time", 4),
    # the second segment of a block, after a call
    ("func @main() -> i64 {\nentry:\n  %a = const i64 7\n"
     "  call void @print_i64(%a)\n  %z = const i64 0\n"
     "  %r = sdiv i64 %a, %z\n  %s = add i64 %r, %r\n  ret i64 %s\n}\n",
     "division by zero", 4),
    # the fifth entry into a block: 6 steps, 4 whole turns of 6, then 3
    (LOOP_INTO_BOUNDS, "store index out of bounds", 33),
], ids=["srem-by-zero", "store-past-the-end", "load-past-the-end", "phi",
        "after-a-call", "in-a-loop"])
def test_trap_inside_a_block_reports_the_trapping_step(text, reason, steps):
    res = run(text)
    assert res.status == "trap"
    assert res.trap_reason == reason
    assert res.steps == steps
    # a step limit in the trapping segment runs up to the trap or the limit
    for limit in range(steps + 2):
        res = run(text, step_limit=limit)
        assert (res.trap_reason, res.steps) == (
            (reason, steps) if limit >= steps
            else ("step limit exceeded", limit + 1)), limit


def test_trace_ends_with_the_block_a_trap_stops_in():
    module = parse_module("""\
func @main() -> i64 {
entry:
  %zero = const i64 0
  %four = const i64 4
  br %fill
fill:
  %buf = alloca i64 x 4
  store i64 %four, %buf, %zero
  store i64 %four, %buf, %four
  br %done
done:
  ret i64 %four
}
""")
    trace = set()
    res = reference_interpret(module, "main", trace_blocks=trace)
    assert (res.trap_reason, res.steps) == ("store index out of bounds", 6)
    assert trace == {("main", "entry"), ("main", "fill")}
    # a block counts as entered once the branch into it has run
    for limit, blocks in [(2, {"entry"}), (3, {"entry", "fill"}),
                          (5, {"entry", "fill"})]:
        trace = set()
        reference_interpret(module, "main", step_limit=limit,
                            trace_blocks=trace)
        assert trace == {("main", label) for label in blocks}, limit


CALLS_A_LOOP = """\
func @count(i64 %n) -> i64 {
entry:
  %zero = const i64 0
  %one = const i64 1
  %ctr = alloca i64 x 1
  store i64 %n, %ctr, %zero
  br %loop
loop:
  %i = load i64 %ctr, %zero
  %j = sub i64 %i, %one
  store i64 %j, %ctr, %zero
  %more = icmp sgt i64 %j, %zero
  brcond %more, %loop, %done
done:
  ret i64 %j
}

func @main() -> i64 {
entry:
  %a = const i64 5
  call void @print_i64(%a)
  %b = call i64 @count(%a)
  call void @print_i64(%b)
  %c = add i64 %a, %b
  %d = call i64 @count(%c)
  %e = add i64 %c, %d
  %f = mul i64 %e, %a
  %g = sub i64 %f, %c
  %h = add i64 %g, %e
  ret i64 %h
}
"""


def test_a_callee_trips_the_step_limit_at_every_step(monkeypatch):
    module = parse_module(CALLS_A_LOOP)
    full = reference_interpret(module, "main")
    assert (full.value, full.output, full.steps) == (25, [5, 0], 73)
    printed = print_steps(module, (), monkeypatch)
    for limit in range(full.steps):
        res = reference_interpret(module, "main", step_limit=limit)
        assert (res.trap_reason, res.steps) == ("step limit exceeded",
                                                limit + 1)
        assert res.output == full.output[:sum(s <= limit for s in printed)]


DOWN = """\
func @down(i64 %n) -> i64 {
entry:
  %zero = const i64 0
  %one = const i64 1
  %last = icmp eq i64 %n, %zero
  brcond %last, %done, %more
more:
  %m = sub i64 %n, %one
  %r = call i64 @down(%m)
  %s = add i64 %r, %one
  ret i64 %s
done:
  ret i64 %zero
}

func @main(i64 %n) -> i64 {
entry:
  %r = call i64 @down(%n)
  ret i64 %r
}
"""


def test_recursion_to_the_depth_limit_is_a_trap_not_a_python_error():
    module = parse_module(DOWN)
    # the deepest activation of @down runs at depth n + 1
    deepest = reference_interpret(module, "main", [MAX_CALL_DEPTH - 1])
    assert (deepest.status, deepest.value) == ("normal", MAX_CALL_DEPTH - 1)
    over = reference_interpret(module, "main", [MAX_CALL_DEPTH])
    assert (over.status, over.trap_reason) == ("trap", CALL_DEPTH_REASON)
    # @down left plain inside a bundle
    bundle = virtualize_module(module, ProtectionConfig(
        seed=1, sensitive=("main",)))
    assert isinstance(bundle.function("down"), PlainFunction)
    for execute in (execute_secure, execute_optimized):
        assert execute(bundle, [MAX_CALL_DEPTH - 1]).value == \
            MAX_CALL_DEPTH - 1
        res = execute(bundle, [MAX_CALL_DEPTH])
        assert (res.status, res.trap_reason) == ("trap", CALL_DEPTH_REASON)


def test_block_factories_stay_bounded(corpus_flat, manifest, monkeypatch):
    monkeypatch.setattr(arith, "MAX_BLOCK_SHAPES", 3)
    cache = arith.Factories(interp._block_source, vars(interp))
    monkeypatch.setattr(interp, "BLOCK_FACTORIES", cache)
    for entry in manifest["programs"]:
        res = reference_interpret(corpus_flat[entry["name"]], "main",
                                  entry["inputs"]["tiny"])
        assert {"value": res.value, "output": res.output} == \
            entry["expect"]["tiny"]
        assert 0 < len(cache) <= 3


def test_a_last_block_without_a_terminator_is_refused_by_name():
    # a hand-built module, not validated: `main` ends in a call
    main = IrFunction("main", (), TypeTag.I64, (Block("entry", (
        Instruction("const", result="k", type=TypeTag.I64, value=3),
        Instruction("call", operands=("k",), callee="print_i64"),
    )),))
    with pytest.raises(ValueError, match=r"@main: block %entry ends "
                       "without a terminator"):
        reference_interpret(IrModule((main,)), "main")


@pytest.mark.parametrize("into_mid", ["br", "fall-through"])
def test_an_empty_block_is_traced_when_it_is_passed(into_mid):
    # a hand-built module, not validated: %mid has no instructions, so it
    # starts where %end does
    first = (Instruction("br", labels=("mid",)) if into_mid == "br" else
             Instruction("const", result="a", type=TypeTag.I64, value=1))
    main = IrFunction("main", (), TypeTag.I64, (
        Block("entry", (first,)),
        Block("mid", ()),
        Block("end", (
            Instruction("const", result="k", type=TypeTag.I64, value=3),
            Instruction("ret", operands=("k",), type=TypeTag.I64))),
    ))
    pairs = {("main", "entry"), ("main", "mid"), ("main", "end")}
    trace = set()
    res = reference_interpret(IrModule((main,)), "main", trace_blocks=trace)
    assert (res.status, res.value, res.steps) == ("normal", 3, 3)
    assert trace == pairs
    trace = set()
    res = reference_interpret(IrModule((main,)), "main", step_limit=1,
                              trace_blocks=trace)
    assert (res.trap_reason, res.steps) == ("step limit exceeded", 2)
    assert trace == pairs


def test_tracing_builds_the_same_block_shapes(corpus_flat, manifest,
                                              monkeypatch):
    cache = arith.Factories(interp._block_source, vars(interp))
    monkeypatch.setattr(interp, "BLOCK_FACTORIES", cache)
    for entry in manifest["programs"]:
        module, inputs = corpus_flat[entry["name"]], entry["inputs"]["tiny"]
        full = reference_interpret(module, "main", inputs)
        for limit in (full.steps, full.steps // 2):
            cache.clear()
            reference_interpret(module, "main", inputs, step_limit=limit)
            untraced = list(cache)
            cache.clear()
            trace = set()
            reference_interpret(module, "main", inputs, step_limit=limit,
                                trace_blocks=trace)
            assert list(cache) == untraced and trace, entry["name"]


def test_a_second_run_works_out_no_instruction_again(manifest, monkeypatch):
    """Each function's instruction shapes and arguments are kept on it, so
    a second reference run of the same module recompiles its blocks from
    them without calling `_instruction`, with the same result and trace."""
    module = eliminate_phis(parse_module(corpus_text("qsort")))
    inputs = next(e["inputs"]["tiny"] for e in manifest["programs"]
                  if e["name"] == "qsort")
    calls = [0]
    instruction = interp._instruction

    def counting(*args):
        calls[0] += 1
        return instruction(*args)

    monkeypatch.setattr(interp, "_instruction", counting)
    runs = []
    for _ in range(2):
        before, trace = calls[0], set()
        result = reference_interpret(module, "main", inputs,
                                     trace_blocks=trace)
        runs.append((calls[0] - before, result, trace))
    (first_calls, *first), (second_calls, *second) = runs
    assert first_calls > 0 and second_calls == 0
    assert second == first and first[0].status == "normal"
