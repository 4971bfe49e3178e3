import builtins
import dis
import gc
import sys

import pytest

from builders import (CHECKED_HELPER, DOWN, MIXED_CALLS, fitting_spec,
                      protect_text)
from oracles import PROGRAM_MODELS
from vmguard import arith, runtime
from vmguard.bundle import (FlipElement, PreserveChecksumPair, copy_bundle,
                            tamper_bundle)
from vmguard.execstate import (CALL_DEPTH_REASON, INPUT_EXHAUSTED_REASON,
                               LOAD_BOUNDS_REASON, MAX_CALL_DEPTH,
                               STEP_LIMIT_REASON, STORE_BOUNDS_REASON)
from vmguard.arith import DIV_BY_ZERO
from vmguard.guards import compute_vpa_hash
from vmguard.ir import (TypeTag, eliminate_phis, parse_module,
                        reference_interpret)
from vmguard.protect import ProtectionConfig, virtualize_module
from vmguard.risa import KIND_NAMES, HandlerSpec, handler_spec, walk_records
from vmguard.rng import SplitMix64
from vmguard.runtime import (HASH_MISMATCH, INVALID_OPCODE,
                             INVALID_REFERENCE, PC_ESCAPE, TamperSignal,
                             execute_secure)
from vmguard.threaded import execute_optimized, verify


def protect_module(module, seed=1, **kw):
    return virtualize_module(module, ProtectionConfig(seed=seed, **kw))


@pytest.mark.parametrize("level", [50, 100])
@pytest.mark.parametrize("name", ["loop_sum", "sieve", "qsort"])
def test_an_honest_run_leaves_no_cyclic_garbage(corpus_flat, manifest, name,
                                                level):
    module = corpus_flat[name]
    inputs = next(e for e in manifest["programs"]
                  if e["name"] == name)["inputs"]["tiny"]
    bundle = protect_module(module, seed=3, level=level)
    runs = [lambda: reference_interpret(module, "main", inputs),
            lambda: execute_secure(bundle, inputs),
            lambda: execute_optimized(bundle, inputs)]
    for run in runs:
        run()               # fills the process-wide factory caches
        gc.collect()
        gc.disable()
        try:
            assert run().status == "normal"
            assert gc.collect() == 0
        finally:
            gc.enable()


@pytest.mark.parametrize("engine", [execute_secure, execute_optimized])
def test_a_tampered_run_leaves_no_cyclic_garbage(engine):
    bundle = protect_text(CHECKED_HELPER, seed=6)
    mutated, _ = tamper_bundle(bundle, FlipElement("g", 0), SplitMix64(0))
    engine(mutated, [3])        # fills the process-wide factory caches
    gc.collect()
    gc.disable()
    try:
        # the result, its tamper signal and the signal's traceback are
        # freed as the result is dropped
        assert engine(mutated, [3]).tamper_cause.kind == HASH_MISMATCH
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("seed", [1, 2])
def test_corpus_equivalence_under_full_protection(corpus_flat, manifest,
                                                  seed):
    for entry in manifest["programs"]:
        name = entry["name"]
        inputs = entry["inputs"]["tiny"]
        ref = reference_interpret(corpus_flat[name], "main", inputs)
        bundle = protect_module(corpus_flat[name], seed=seed)
        got = execute_secure(bundle, inputs)
        assert got.status == "normal", (name, got.trap_reason)
        assert got.same_outcome(ref), name
        assert got.value == entry["expect"]["tiny"]["value"], name


def test_honest_runs_execute_their_guards(corpus_flat, manifest):
    entry = manifest["programs"][0]
    bundle = protect_module(corpus_flat[entry["name"]], seed=3)
    got = execute_secure(bundle, entry["inputs"]["tiny"])
    assert got.guard_execs > 0
    assert sum(got.guard_edges.values()) == got.guard_execs
    names = {f.name for f in bundle.functions}
    for checker, checkee in got.guard_edges:
        assert checker in names and checkee in names


def run_text(text, inputs=(), seed=1, **kw):
    module = eliminate_phis(parse_module(text))
    bundle = protect_module(module, seed=seed, **kw)
    return bundle, execute_secure(bundle, inputs)


def test_division_by_zero_traps():
    _, res = run_text("""\
func @main(i64 %n) -> i64 {
entry:
  %z = const i64 0
  %q = sdiv i64 %n, %z
  ret i64 %q
}
""", inputs=[5])
    assert res.status == "trap"
    assert res.trap_reason == DIV_BY_ZERO


def test_exhausted_step_budget_traps():
    module = eliminate_phis(parse_module("""\
func @main() -> i64 {
entry:
  br %loop
loop:
  br %loop
}
"""))
    bundle = protect_module(module, seed=2, enable_guards=False)
    res = execute_secure(bundle, (), step_limit=50)
    assert res.status == "trap"
    assert res.trap_reason == STEP_LIMIT_REASON
    assert res.steps == 51


def test_missing_input_traps():
    _, res = run_text(CHECKED_HELPER, inputs=[])
    assert res.status == "trap"
    assert res.trap_reason == INPUT_EXHAUSTED_REASON


def test_runaway_recursion_traps_on_call_depth():
    _, res = run_text("""\
func @main(i64 %n) -> i64 {
entry:
  %r = call i64 @main(%n)
  ret i64 %r
}
""", inputs=[1])
    assert res.status == "trap"
    assert res.trap_reason == CALL_DEPTH_REASON


def test_out_of_bounds_memory_traps():
    text = """\
func @main(i64 %i) -> i64 {
entry:
  %buf = alloca i64 x 4
  %v = load i64 %buf, %i
  ret i64 %v
}
"""
    _, res = run_text(text, inputs=[9])
    assert res.status == "trap"
    assert res.trap_reason == LOAD_BOUNDS_REASON
    _, res2 = run_text("""\
func @main(i64 %i) -> i64 {
entry:
  %buf = alloca i64 x 4
  %z = const i64 0
  store i64 %z, %buf, %i
  ret i64 %z
}
""", inputs=[9])
    assert res2.status == "trap"
    assert res2.trap_reason == STORE_BOUNDS_REASON


def test_negative_return_values_come_back_signed():
    _, res = run_text("""\
func @main() -> i64 {
entry:
  %a = const i64 3
  %b = const i64 10
  %d = sub i64 %a, %b
  ret i64 %d
}
""")
    assert res.status == "normal"
    assert res.value == -7


def test_entry_override_runs_a_helper_directly():
    bundle = protect_text(MIXED_CALLS, seed=5)
    res = execute_secure(bundle, [21], entry="double")
    assert res.status == "normal"
    assert res.value == 42
    assert res.output == []


def test_entry_cannot_be_an_intrinsic(corpus_flat):
    bundle = protect_module(corpus_flat["fib"], seed=1)
    with pytest.raises(ValueError):
        execute_secure(bundle, [1], entry="print_i64")


def test_bundle_without_entry_needs_an_explicit_name():
    bundle = protect_text(CHECKED_HELPER, seed=1)
    headless = copy_bundle(bundle)
    headless.entry_index = None
    for engine in (execute_secure, execute_optimized):
        res = engine(headless, [3])
        assert res.status == "tamper" and res.steps == 0
        assert res.tamper_cause.kind == INVALID_REFERENCE
        assert engine(headless, [3], entry="main").value == 21


def test_entry_index_naming_an_intrinsic_is_tamper(corpus_flat):
    bundle = copy_bundle(protect_module(corpus_flat["fib"], seed=1))
    bundle.entry_index = bundle.index_of("print_i64")
    for engine in (execute_secure, execute_optimized):
        res = engine(bundle, [1])
        assert res.status == "tamper" and res.steps == 0
        assert res.tamper_cause.kind == INVALID_REFERENCE
        assert not res.tamper_cause.at_decode
        with pytest.raises(ValueError):
            engine(bundle, [1], entry="print_i64")


# ---- detection paths -------------------------------------------------------


def test_corrupting_the_checkee_is_caught_by_checksum():
    bundle = protect_text(CHECKED_HELPER, seed=6)
    honest = execute_secure(bundle, [3])
    assert honest.status == "normal" and honest.value == 21
    for element in range(len(bundle.function("g").vpa)):
        mutated, _ = tamper_bundle(bundle, FlipElement("g", element),
                                   SplitMix64(element))
        res = execute_secure(mutated, [3])
        assert res.status == "tamper", element
        assert res.tamper_cause.kind == HASH_MISMATCH, element


def test_checksum_preserving_pair_slips_through():
    bundle = protect_text(CHECKED_HELPER, seed=6)
    mutated, changes = tamper_bundle(bundle, PreserveChecksumPair("g"),
                                     SplitMix64(1))
    assert len(changes) == 2
    res = execute_secure(mutated, [3])
    assert res.status == "normal"
    assert res.value == 21


def test_unassigned_opcode_is_flagged():
    bundle = protect_text(CHECKED_HELPER, seed=9)
    main = bundle.function("main")
    free = next(v for v in range(0xFFFF) if v not in main.risa.spec_of)
    mutated = copy_bundle(bundle)
    mutated.function("main").vpa[0] = free
    res = execute_secure(mutated, [3])
    assert res.status == "tamper"
    assert res.tamper_cause.kind == INVALID_OPCODE


BRANCHY = """\
func @main(i64 %n) -> i64 {
entry:
  %zero = const i64 0
  %neg = icmp slt i64 %n, %zero
  brcond %neg, %low, %high
low:
  ret i64 %zero
high:
  %two = const i64 2
  %d = mul i64 %n, %two
  ret i64 %d
}
"""


def _record_of_kind(vfn, kind):
    for off, spec in walk_records(vfn.risa, vfn.vpa):
        if spec.kind == kind:
            return off, spec
    raise AssertionError(f"no {kind} record")


def test_branch_beyond_the_stream_is_flagged():
    bundle = protect_text(BRANCHY, seed=4, enable_guards=False)
    main = bundle.function("main")
    off, _ = _record_of_kind(main, "brcond")
    mutated = copy_bundle(bundle)
    mutated.function("main").vpa[off + 3] = 0xFFF0
    res = execute_secure(mutated, [5])
    assert res.status == "tamper"
    assert res.tamper_cause.kind == PC_ESCAPE


def test_operand_beyond_the_image_is_flagged():
    bundle = protect_text(BRANCHY, seed=4, enable_guards=False)
    main = bundle.function("main")
    off, _ = _record_of_kind(main, "mul")
    mutated = copy_bundle(bundle)
    mutated.function("main").vpa[off + 1] = 0xFFF0
    res = execute_secure(mutated, [5])
    assert res.status == "tamper"
    assert res.tamper_cause.kind == INVALID_REFERENCE


def test_call_to_a_missing_table_slot_is_flagged():
    bundle = protect_text(MIXED_CALLS, seed=2, enable_guards=False)
    main = bundle.function("main")
    off, _ = _record_of_kind(main, "call")
    mutated = copy_bundle(bundle)
    mutated.function("main").vpa[off + 1] = 200
    res = execute_secure(mutated, [4])
    assert res.status == "tamper"
    assert res.tamper_cause.kind == INVALID_REFERENCE


def test_tamper_signal_carries_kind_and_detail():
    sig = TamperSignal(INVALID_OPCODE, "synthetic")
    assert sig.kind == INVALID_OPCODE
    assert sig.detail == "synthetic"


@pytest.mark.parametrize("engine", [execute_secure, execute_optimized])
def test_run_restores_the_callers_recursion_limit(corpus_flat, engine):
    bundle = protect_module(corpus_flat["fib"], seed=1)
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert engine(bundle, [8]).status == "normal"
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(saved)


def _frames_deep(frames, run):
    """`run()`, called from `frames` more Python frames."""
    return run() if frames == 0 else _frames_deep(frames - 1, run)


def _stack_depth():
    """The number of Python frames on the stack of its caller."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


# the caller's recursion limit, and how many frames deeper than the test
# it runs from: 400, or 50 short of a limit above the one a run needs
@pytest.mark.parametrize("limit, frames", [(1000, 400), (3000, None)],
                         ids=["400-deeper", "50-short-of-the-limit"])
@pytest.mark.parametrize("level", [100, 50])
def test_every_executor_ends_a_deep_chain_from_a_deep_stack_alike(
        level, limit, frames):
    module = parse_module(DOWN)
    bundle = protect_text(DOWN, seed=2, level=level)
    executors = (lambda n: reference_interpret(module, "main", [n]),
                 lambda n: execute_secure(bundle, [n]),
                 lambda n: execute_optimized(bundle, [n]))
    if frames is None:
        frames = limit - 50 - _stack_depth()
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        for n, expected in ((MAX_CALL_DEPTH - 1, ("normal", 0, None)),
                            (MAX_CALL_DEPTH,
                             ("trap", None, CALL_DEPTH_REASON))):
            for execute in executors:
                res = _frames_deep(frames, lambda: execute(n))
                assert (res.status, res.value, res.trap_reason) == expected
                assert sys.getrecursionlimit() == limit
    finally:
        sys.setrecursionlimit(saved)


I1_DIVISION = """\
func @main(i64 %n) -> i64 {
entry:
  %a = const i1 1
  %b = const i1 1
  %q = sdiv i1 %a, %b
  %r = zext i64 %q
  ret i64 %r
}
"""


@pytest.mark.parametrize("engine", [execute_secure, execute_optimized])
def test_i1_divisor_cell_with_zero_value_bit_traps(engine):
    # an i1 cell is a byte; 2 holds value bit 0, so the divisor is zero
    bundle, res = run_text(I1_DIVISION, [0], enable_guards=False)
    assert (res.status, res.value) == ("normal", 1)
    main = bundle.function("main")
    start = next(s for s, spec in walk_records(main.risa, main.vpa)
                 if spec.kind == "sdiv")
    mutated = copy_bundle(bundle)
    mutated.function("main").image[main.vpa[start + 2]] = 2
    res = engine(mutated, [0])
    assert (res.status, res.trap_reason) == ("trap", DIV_BY_ZERO)


def test_division_by_zero_into_a_result_cell_past_the_image_is_tamper():
    # the trap would fire, but the record's result cell is forged first
    bundle, res = run_text("""\
func @main(i64 %n) -> i64 {
entry:
  %z = const i64 0
  %q = sdiv i64 %n, %z
  ret i64 %q
}
""", [7], enable_guards=False)
    assert (res.status, res.trap_reason) == ("trap", DIV_BY_ZERO)
    main = bundle.function("main")
    start = next(s for s, spec in walk_records(main.risa, main.vpa)
                 if spec.kind == "sdiv")
    mutated = copy_bundle(bundle)
    mutated.function("main").vpa[start + 3] = len(main.image)
    checked = execute_secure(mutated, [7])
    assert checked.status == "tamper"
    assert checked.tamper_cause.kind == INVALID_REFERENCE
    assert not checked.tamper_cause.at_decode
    optimized = execute_optimized(mutated, [7])
    assert optimized.status == "tamper"
    assert optimized.tamper_cause.at_decode


def test_i1_divisor_with_zero_value_bit_into_a_forged_result_is_tamper():
    bundle, _ = run_text(I1_DIVISION, [0], enable_guards=False)
    main = bundle.function("main")
    start = next(s for s, spec in walk_records(main.risa, main.vpa)
                 if spec.kind == "sdiv")
    mutated = copy_bundle(bundle)
    mutated.function("main").image[main.vpa[start + 2]] = 2
    mutated.function("main").vpa[start + 3] = len(main.image)
    res = execute_secure(mutated, [0])
    assert (res.status, res.tamper_cause.kind) == ("tamper",
                                                   INVALID_REFERENCE)


# ---- mixed plain and transformed call graphs -------------------------------


def test_partial_protection_covers_both_call_directions():
    module = eliminate_phis(parse_module(MIXED_CALLS))
    ref = reference_interpret(module, "main", [4])
    saw = set()
    for seed in range(20):
        bundle = protect_module(module, seed=seed, level=50)
        virt = {f.name for f in bundle.virt_functions()}
        assert len(virt) == 1
        saw.add(next(iter(virt)))
        got = execute_secure(bundle, [4])
        assert got.same_outcome(ref), (seed, virt)
    assert saw == {"main", "double"}, "seeds never exercised one direction"


# ---- references the stream or the header gets wrong, under both engines ---

ENGINES = (execute_secure, execute_optimized)


@pytest.mark.parametrize("engine", ENGINES)
def test_parameter_cell_past_the_image_is_tamper(engine):
    bundle = protect_text(CHECKED_HELPER, seed=3, enable_guards=False)
    broken = copy_bundle(bundle)
    main = broken.function("main")
    off, tag = main.param_slots[0]
    main.param_slots[0] = (len(main.image) + 100, tag)
    res = engine(broken, [3])
    assert res.status == "tamper"
    assert res.tamper_cause.kind == INVALID_REFERENCE


def _misfit_copy(bundle, opcode):
    """Copy of `bundle` whose @main opcode table maps `opcode` to a mul
    handler without a result type, which no IR instruction produces."""
    broken = copy_bundle(bundle)
    broken.function("main").risa.spec_of[opcode] = HandlerSpec(
        "mul", (TypeTag.I64, TypeTag.I64), None)
    return broken


@pytest.mark.parametrize("engine", ENGINES)
def test_misfit_opcode_entry_is_tamper_only_when_dispatched(engine):
    bundle = protect_text(CHECKED_HELPER, seed=3)
    main = bundle.function("main")
    free = next(v for v in range(0xFFFF) if v not in main.risa.spec_of)
    res = engine(_misfit_copy(bundle, free), [3])
    assert res.status == "normal" and res.value == 21
    used, _ = _record_of_kind(main, "mul")
    res = engine(_misfit_copy(bundle, main.vpa[used]), [3])
    assert res.status == "tamper"
    assert res.tamper_cause.kind == INVALID_OPCODE


@pytest.mark.parametrize("engine", ENGINES)
def test_opcode_entry_of_a_kind_without_a_wire_code_is_refused(engine):
    # icmp.lt reads like a compare but names no handler kind, so neither
    # engine may build one for it, least of all a guard
    broken = copy_bundle(protect_text(CHECKED_HELPER, seed=3))
    main = broken.function("main")
    used, _ = _record_of_kind(main, "mul")
    main.risa.spec_of[main.vpa[used]] = HandlerSpec(
        "icmp.lt", (TypeTag.I64, TypeTag.I64), TypeTag.I1)
    res = engine(broken, [3])
    assert res.status == "tamper"
    assert res.tamper_cause.kind == INVALID_OPCODE


def test_verify_reports_misfit_opcode_entries():
    bundle = protect_text(CHECKED_HELPER, seed=3)
    main = bundle.function("main")
    free = next(v for v in range(0xFFFF) if v not in main.risa.spec_of)
    problems = verify(_misfit_copy(bundle, free))
    assert problems == [f"@main: opcode {free:#06x} (mul) has types that "
                        "do not fit its kind"]
    used, _ = _record_of_kind(main, "mul")
    problems = verify(_misfit_copy(bundle, main.vpa[used]))
    assert f"@main: element {used} holds {main.vpa[used]:#06x}, whose mul " \
        "handler has types that do not fit its kind" in problems


def test_record_cut_short_by_the_stream_end_is_tamper():
    bundle = protect_text(CHECKED_HELPER, seed=3, enable_guards=False)
    broken = copy_bundle(bundle)
    main = broken.function("main")
    assert _record_of_kind(main, "ret")[1].record_len == 2
    main.vpa = main.vpa[:-1]            # the final ret loses its operand
    res = execute_secure(broken, [3])
    assert res.status == "tamper"
    assert res.tamper_cause.kind == INVALID_REFERENCE


# every record kind below sits in the entry block, so the records before
# any of them run in stream order up to it; the branch takes its true
# edge, so only reading the false target shows the cut
STRAIGHT_LINE = """\
func @main(i64 %n) -> i64 {
entry:
  %buf = alloca i64 x 4
  %z = const i64 0
  store i64 %n, %buf, %z
  %v = load i64 %buf, %z
  %s = add i64 %v, %n
  %c = icmp slt i64 %z, %s
  %w = select i64 %c, %s, %z
  %t = trunc i8 %w
  %u = zext i64 %t
  brcond %c, %pos, %neg
pos:
  ret i64 %u
neg:
  ret i64 %z
}
"""


# main calls @boom, which prints its argument, then divides by zero; with
# guards on, @boom checks main between the two
TRAPPING_CALLEE = """\
func @main(i64 %n) -> i64 {
entry:
  %k = const i64 7
  %m = mul i64 %n, %k
  %q = call i64 @boom(%n)
  %s = add i64 %q, %m
  ret i64 %s
}

func @boom(i64 %x) -> i64 {
entry:
  call void @print_i64(%x)
  %z = const i64 0
  %q = sdiv i64 %x, %z
  ret i64 %q
}
"""


@pytest.mark.parametrize("kind", ["add", "load", "store", "brcond",
                                  "select", "trunc", "call", "guard"])
def test_each_record_cut_short_by_the_stream_end_is_tamper(kind):
    if kind in ("call", "guard"):
        # the cut must be refused before the callee's trap can fire
        bundle, honest = run_text(TRAPPING_CALLEE, [3],
                                  enable_guards=kind == "guard")
        assert (honest.status, honest.trap_reason, honest.output) == \
            ("trap", DIV_BY_ZERO, [3])
        assert honest.guard_execs == (kind == "guard")
    else:
        bundle, honest = run_text(STRAIGHT_LINE, [3], enable_guards=False)
        assert (honest.status, honest.value) == ("normal", 6)
    broken = copy_bundle(bundle)
    vfn = broken.function("boom" if kind == "guard" else "main")
    off, spec = _record_of_kind(vfn, kind)
    vfn.vpa = vfn.vpa[:off + spec.record_len - 1]     # loses its last operand
    res = execute_secure(broken, [3])
    assert res.status == "tamper"
    assert res.tamper_cause.kind == INVALID_REFERENCE
    assert f"record at {off} " in res.tamper_cause.detail


def test_branch_to_exactly_the_stream_end_is_a_counter_escape():
    bundle = protect_text(BRANCHY, seed=4, enable_guards=False)
    broken = copy_bundle(bundle)
    main = broken.function("main")
    off, _ = _record_of_kind(main, "brcond")
    main.vpa[off + 3] = len(main.vpa)       # the false edge, taken for 5
    res = execute_secure(broken, [5])
    assert res.status == "tamper"
    assert res.tamper_cause.kind == PC_ESCAPE
    assert f"counter {len(main.vpa)} outside" in res.tamper_cause.detail


def test_load_out_of_range_into_a_cell_past_the_image_is_tamper():
    text = """\
func @main(i64 %i) -> i64 {
entry:
  %buf = alloca i64 x 4
  %v = load i64 %buf, %i
  ret i64 %v
}
"""
    bundle, res = run_text(text, [9], enable_guards=False)
    assert (res.status, res.trap_reason) == ("trap", LOAD_BOUNDS_REASON)
    broken = copy_bundle(bundle)
    main = broken.function("main")
    off, _ = _record_of_kind(main, "load")
    main.vpa[off + 4] = len(main.image)
    res = execute_secure(broken, [9])
    assert res.status == "tamper"
    assert res.tamper_cause.kind == INVALID_REFERENCE


@pytest.mark.parametrize("engine", ENGINES)
def test_call_result_cell_past_the_image_is_refused_before_the_call(engine):
    bundle, honest = run_text(TRAPPING_CALLEE, [3], enable_guards=False)
    assert (honest.trap_reason, honest.output) == (DIV_BY_ZERO, [3])
    broken = copy_bundle(bundle)
    main = broken.function("main")
    off, spec = _record_of_kind(main, "call")
    main.vpa[off + spec.record_len - 1] = len(main.image)
    res = engine(broken, [3])
    assert res.status == "tamper"
    assert res.tamper_cause.kind == INVALID_REFERENCE
    assert res.output == []


@pytest.mark.parametrize("element", [2, 3])
def test_guard_cell_past_the_image_is_refused_before_hashing(monkeypatch,
                                                              element):
    bundle = protect_text(CHECKED_HELPER, seed=6)
    broken = copy_bundle(bundle)
    main = broken.function("main")
    off, _ = _record_of_kind(main, "guard")
    main.vpa[off + element] = len(main.image)
    hashes = []

    def counted(vpa):
        hashes.append(len(vpa))
        return compute_vpa_hash(vpa)

    monkeypatch.setattr(runtime, "compute_vpa_hash", counted)
    res = execute_secure(broken, [3])
    assert res.status == "tamper"
    assert res.tamper_cause.kind == INVALID_REFERENCE
    assert res.guard_execs == len(hashes) == 0


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("callee", ["fib", "print_i64"])
def test_call_with_the_wrong_argument_count_is_tamper(corpus_flat, manifest,
                                                      engine, callee):
    bundle = protect_module(corpus_flat["fib"], seed=0, level=50)
    broken = copy_bundle(bundle)
    main = broken.function("main")
    read_idx = broken.index_of("read_i64")
    off = next(off for off, spec in walk_records(main.risa, main.vpa)
               if spec.kind == "call" and main.vpa[off + 1] == read_idx)
    main.vpa[off + 1] = broken.index_of(callee)
    inputs = next(e["inputs"]["tiny"] for e in manifest["programs"]
                  if e["name"] == "fib")
    res = engine(broken, inputs)
    assert res.status == "tamper"
    assert res.tamper_cause.kind == INVALID_REFERENCE


@pytest.mark.parametrize("kind", KIND_NAMES)
def test_every_kind_has_a_checked_statement(kind):
    specs = [fitting_spec(kind)]
    if kind in ("call", "ret"):
        # the forms with a value, besides the void ones
        specs.append(handler_spec(kind, (TypeTag.I64,),
                                  TypeTag.I8 if kind == "call" else None))
    defined = vars(runtime).keys() | vars(builtins).keys()
    for spec in specs:
        factory = arith.Factories(runtime._handler_source,
                                  vars(runtime))[spec.number]
        handler = next(c for c in factory.__code__.co_consts
                       if hasattr(c, "co_code"))
        for code in (factory.__code__, handler):
            assert {i.argval for i in dis.get_instructions(code)
                    if i.opname == "LOAD_GLOBAL"} <= defined, spec
