import builtins
import dis
import re
from collections import Counter

import pytest

from builders import (CHECKED_HELPER, DOWN, MIXED_CALLS, fitting_spec,
                      protect_text)
from vmguard import arith, runtime, threaded
from vmguard.arith import DIV_BY_ZERO
from vmguard.bundle import (FlipRandomElement, SwapOpcodes, TamperError,
                            VirtFunction, ZeroRange, copy_bundle,
                            tamper_bundle)
from vmguard.execstate import (CALL_DEPTH_REASON, LOAD_BOUNDS_REASON,
                               MAX_CALL_DEPTH, STEP_LIMIT_REASON,
                               STORE_BOUNDS_REASON, ExecContext)
from vmguard.guards import compute_vpa_hash
from vmguard.ir import (ExecutionResult, TypeTag, interp, parse_module,
                        reference_interpret)
from vmguard.protect import ProtectionConfig, virtualize_module
from vmguard.risa import (COUNT, KIND_NAMES, HandlerSpec, handler_spec,
                          walk_records)
from vmguard.rng import SplitMix64
from vmguard.runtime import (HASH_MISMATCH, INVALID_OPCODE,
                             INVALID_REFERENCE, PC_ESCAPE, TamperSignal,
                             execute_secure)
from vmguard.threaded import execute_optimized, pre_decode

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


def test_pre_decode_resolves_every_successor_shape():
    bundle = protect_text(BRANCHY, seed=12, enable_guards=False)
    main = bundle.function("main")
    records = pre_decode(main)
    assert all(type(r) is tuple and len(r) == 3 for r in records)
    # (element index, spec) as the stream walks, then the successor
    assert [(start, spec) for start, spec, _ in records] == \
        walk_records(main.risa, main.vpa)
    by_kind = {}
    for i, (start, spec, succ) in enumerate(records):
        by_kind.setdefault(spec.kind, (i, start, succ))
    # straight-line records step to the next ordinal
    i, _, succ = by_kind["const"]
    assert succ == i + 1
    # two-way branches carry an ordinal pair, returns carry nothing
    _, start, (t, f) = by_kind["brcond"]
    assert records[t][0] == main.vpa[start + 2]
    assert records[f][0] == main.vpa[start + 3]
    assert by_kind["ret"][2] is None


def test_pre_decode_flags_unknown_opcodes():
    bundle = protect_text(BRANCHY, seed=12, enable_guards=False)
    broken = copy_bundle(bundle).function("main")
    free = next(v for v in range(0xFFFF) if v not in broken.risa.spec_of)
    broken.vpa[0] = free
    with pytest.raises(TamperSignal) as exc:
        pre_decode(broken)
    assert exc.value.kind == INVALID_OPCODE


def test_pre_decode_flags_truncated_streams():
    bundle = protect_text(BRANCHY, seed=12, enable_guards=False)
    broken = copy_bundle(bundle).function("main")
    broken.vpa = broken.vpa[:-1]
    with pytest.raises(TamperSignal) as exc:
        pre_decode(broken)
    assert exc.value.kind == PC_ESCAPE


def test_pre_decode_flags_branches_into_record_bodies():
    bundle = protect_text(BRANCHY, seed=12, enable_guards=False)
    main = bundle.function("main")
    records = pre_decode(main)
    brc = next(start for start, spec, _ in records if spec.kind == "brcond")
    broken = copy_bundle(bundle).function("main")
    broken.vpa[brc + 2] = brc + 1           # inside its own record
    with pytest.raises(TamperSignal) as exc:
        pre_decode(broken)
    assert exc.value.kind == PC_ESCAPE


def test_pre_decode_flags_streams_without_a_final_terminator():
    bundle = protect_text(CHECKED_HELPER, seed=12, enable_guards=False)
    g = bundle.function("g")               # single ret record
    records = pre_decode(g)
    assert [spec.kind for _, spec, _ in records] == ["ret"]
    broken = copy_bundle(bundle).function("main")
    # keep only the first record of main: a non-terminator at stream end
    first_len = pre_decode(broken)[0][1].record_len
    broken.vpa = broken.vpa[:first_len]
    with pytest.raises(TamperSignal) as exc:
        pre_decode(broken)
    assert exc.value.kind == PC_ESCAPE


def test_pre_decode_flags_empty_streams():
    bundle = protect_text(CHECKED_HELPER, seed=12, enable_guards=False)
    broken = copy_bundle(bundle).function("g")
    broken.vpa = broken.vpa[:0]
    with pytest.raises(TamperSignal) as exc:
        pre_decode(broken)
    assert exc.value.kind == PC_ESCAPE


def test_structural_refusal_outranks_an_earlier_bad_cell():
    bundle = protect_text(BRANCHY, seed=12, enable_guards=False)
    records = pre_decode(bundle.function("main"))
    icmp = next(start for start, spec, _ in records
                if spec.kind == "icmp.slt")
    brc = next(start for start, spec, _ in records if spec.kind == "brcond")
    assert icmp < brc
    broken = copy_bundle(bundle)
    vpa = broken.function("main").vpa
    vpa[icmp + 1] = 0xFFF0                  # a cell past the image
    vpa[brc + 2] = brc + 1                  # a branch into its own record
    res = execute_optimized(broken, [5])
    assert res.status == "tamper" and res.tamper_cause.at_decode
    assert res.tamper_cause.kind == PC_ESCAPE
    assert f"branch at {brc} targets" in str(res.tamper_cause)


@pytest.mark.parametrize("first", ["callee", "cell"])
def test_reference_refusals_come_in_record_order(first):
    bundle = protect_text(MIXED_CALLS, seed=3, level=100,
                          enable_guards=False)
    records = pre_decode(bundle.function("main"))
    add, call, ret = (next(start for start, spec, _ in records
                           if spec.kind == kind)
                      for kind in ("add", "call", "ret"))
    broken = copy_bundle(bundle)
    vpa = broken.function("main").vpa
    vpa[call + 1] = 0xFFF0                  # a callee index past the table
    # a cell past the image, in the record before the call or after it
    bad_cell = add if first == "cell" else ret
    vpa[bad_cell + 1] = 0xFFF0
    res = execute_optimized(broken, [4])
    assert res.status == "tamper" and res.tamper_cause.at_decode
    assert res.tamper_cause.kind == INVALID_REFERENCE
    assert str(res.tamper_cause).endswith(
        "@main: callee index 65520 names no function" if first == "callee"
        else f"@main: record at {add} references a cell outside the image")


def test_decoding_with_warm_caches_hashes_no_spec(corpus_flat, monkeypatch):
    """Block shapes are keyed by spec numbers, so decoding a function whose
    shapes are compiled hashes no `HandlerSpec`."""
    bundle = virtualize_module(corpus_flat["qsort"],
                               ProtectionConfig(seed=4, level=100))
    vfn = bundle.virt_functions()[0]
    threaded._decode(bundle, vfn, ExecContext())
    hashes = [0]
    spec_hash = HandlerSpec.__hash__

    def counting(spec):
        hashes[0] += 1
        return spec_hash(spec)

    monkeypatch.setattr(HandlerSpec, "__hash__", counting)
    code, _, _, _ = threaded._decode(bundle, vfn, ExecContext())
    assert code[0] is not None and hashes[0] == 0
    hash(vfn.risa.spec_of[vfn.vpa[0]])      # the counter does see a hash
    assert hashes[0] == 1


def test_checked_run_with_warm_caches_hashes_no_spec(corpus_flat, manifest,
                                                     monkeypatch):
    """Checked handlers are keyed by spec numbers too, so a run whose
    handlers are compiled hashes no `HandlerSpec`."""
    bundle = virtualize_module(corpus_flat["qsort"],
                               ProtectionConfig(seed=4, level=100))
    inputs = next(e["inputs"]["tiny"] for e in manifest["programs"]
                  if e["name"] == "qsort")
    want = execute_secure(bundle, inputs)
    hashes = [0]
    spec_hash = HandlerSpec.__hash__

    def counting(spec):
        hashes[0] += 1
        return spec_hash(spec)

    monkeypatch.setattr(HandlerSpec, "__hash__", counting)
    res = execute_secure(bundle, inputs)
    assert res.status == "normal" and res.same_outcome(want)
    assert hashes[0] == 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_both_engines_agree_on_the_corpus(corpus_flat, manifest, seed):
    for entry in manifest["programs"]:
        module = corpus_flat[entry["name"]]
        inputs = entry["inputs"]["tiny"]
        bundle = virtualize_module(module, ProtectionConfig(seed=seed))
        a = execute_secure(bundle, inputs)
        b = execute_optimized(bundle, inputs)
        assert a.status == b.status == "normal", entry["name"]
        assert a.same_outcome(b), entry["name"]
        assert a.steps == b.steps, entry["name"]
        assert a.guard_execs == b.guard_execs, entry["name"]
        assert a.guard_edges == b.guard_edges, entry["name"]


def test_engines_agree_on_traps():
    module_inputs = [("""\
func @main(i64 %n) -> i64 {
entry:
  %z = const i64 0
  %q = sdiv i64 %n, %z
  ret i64 %q
}
""", [7]), (CHECKED_HELPER, [])]
    for text, inputs in module_inputs:
        bundle = protect_text(text, seed=3)
        a = execute_secure(bundle, inputs)
        b = execute_optimized(bundle, inputs)
        assert a.status == b.status == "trap"
        assert a.trap_reason == b.trap_reason
        assert a.steps == b.steps


def test_structural_damage_is_refused_before_running():
    bundle = protect_text(BRANCHY, seed=7, enable_guards=False)
    broken = copy_bundle(bundle)
    broken.function("main").vpa = broken.function("main").vpa[:-1]
    res = execute_optimized(broken, [5])
    assert res.status == "tamper"
    assert res.tamper_cause.kind == PC_ESCAPE
    assert res.tamper_cause.at_decode
    assert res.steps == 0                    # nothing executed


def test_out_of_image_operand_is_refused_at_decode_time():
    bundle = protect_text(BRANCHY, seed=7, enable_guards=False)
    main = bundle.function("main")
    mul_off = next(off for off, spec in walk_records(main.risa, main.vpa)
                   if spec.kind == "mul")
    broken = copy_bundle(bundle)
    broken.function("main").vpa[mul_off + 1] = 0xFFF0
    res = execute_optimized(broken, [5])
    assert res.status == "tamper"
    assert res.tamper_cause.kind == INVALID_REFERENCE
    # the secure engine only trips once the record is reached, but agrees
    assert execute_secure(broken, [5]).tamper_cause.kind == \
        INVALID_REFERENCE


def test_guards_hash_the_live_stream_not_a_snapshot():
    bundle = protect_text(CHECKED_HELPER, seed=15)
    assert execute_optimized(bundle, [3]).status == "normal"
    # in-place corruption after a clean run: the next run must re-hash
    bundle.function("g").vpa[0] ^= 0x0004
    res = execute_optimized(bundle, [3])
    assert res.status == "tamper"
    assert res.tamper_cause.kind == HASH_MISMATCH
    assert not res.tamper_cause.at_decode    # caught while running


def test_detection_parity_between_engines(corpus_flat):
    bundle = virtualize_module(corpus_flat["fib"], ProtectionConfig(seed=5))
    honest = execute_secure(bundle, [6])
    limit = honest.steps * 20
    agree = 0
    for seed in range(40):
        mutated, _ = tamper_bundle(bundle, FlipRandomElement(),
                                   SplitMix64(seed))
        a = execute_secure(mutated, [6], step_limit=limit)
        b = execute_optimized(mutated, [6], step_limit=limit)
        # both engines must agree on the verdict class; the optimized one
        # may refuse at decode what the checked one finds at dispatch
        assert a.status == b.status, seed
        if a.status == "tamper":
            agree += a.tamper_cause.kind == b.tamper_cause.kind
    assert agree >= 25


def test_entry_override_matches_secure_engine():
    bundle = protect_text(MIXED_CALLS, seed=5)
    a = execute_secure(bundle, [21], entry="double")
    b = execute_optimized(bundle, [21], entry="double")
    assert a.same_outcome(b)
    assert b.value == 42


# ---- register file ---------------------------------------------------------

TWO_REGIONS = """\
func @main(i64 %i) -> i64 {
entry:
  %wide = alloca i64 x 2
  %narrow = alloca i16 x 4
  %v = const i64 5
  %zero = const i64 0
  store i64 %v, %wide, %i
  %x = load i64 %wide, %i
  %y = load i16 %narrow, %zero
  ret i64 %x
}
"""

# the only region is the last thing in the image: no guards, no neighbour
LAST_REGION = """\
func @main(i64 %i, i64 %j) -> i64 {
entry:
  %arr = alloca i64 x 2
  %v = const i64 5
  store i64 %v, %arr, %i
  %x = load i64 %arr, %j
  ret i64 %x
}
"""

# element of a load/store record holding the region count
COUNT_ELEMENT = {"load": 2, "store": 3}


def _record(vfn, kind):
    return next(off for off, spec in walk_records(vfn.risa, vfn.vpa)
                if spec.kind == kind)


def test_operand_inside_a_wider_cell_is_refused_at_decode_time():
    bundle = protect_text(BRANCHY, seed=7, enable_guards=False)
    main = bundle.function("main")
    n_off, n_tag = main.param_slots[0]
    assert n_tag.width == 8
    broken = copy_bundle(bundle)
    # the first mul operand now names the upper half of the i64 parameter
    broken.function("main").vpa[_record(main, "mul") + 1] = n_off + 4
    res = execute_optimized(broken, [5])
    assert res.status == "tamper"
    assert res.tamper_cause.kind == INVALID_REFERENCE
    assert res.steps == 0
    # the same reference, aligned on the cell, is an honest read
    broken.function("main").vpa[_record(main, "mul") + 1] = n_off
    assert execute_optimized(broken, [5]).status == "normal"


@pytest.mark.parametrize("kind", ["load", "store"])
def test_region_count_stretched_over_a_neighbour_is_refused(kind):
    bundle = protect_text(TWO_REGIONS, seed=4, enable_guards=False)
    assert execute_optimized(bundle, [1]).value == 5
    main = bundle.function("main")
    broken = copy_bundle(bundle)
    # first record of the kind touches %wide; one more i64 element covers
    # the i16 cells of %narrow
    count_at = _record(main, kind) + COUNT_ELEMENT[kind]
    assert main.vpa[count_at] == 2
    broken.function("main").vpa[count_at] = 3
    res = execute_optimized(broken, [1])
    assert res.status == "tamper"
    assert res.tamper_cause.kind == INVALID_REFERENCE
    assert res.steps == 0


@pytest.mark.parametrize("kind, inputs, reason", [
    ("store", [2, 0], STORE_BOUNDS_REASON),
    ("load", [0, 2], LOAD_BOUNDS_REASON),
])
def test_region_count_past_the_image_end_traps_like_the_secure_engine(
        kind, inputs, reason):
    bundle = protect_text(LAST_REGION, seed=4, enable_guards=False)
    main = bundle.function("main")
    broken = copy_bundle(bundle)
    broken.function("main").vpa[_record(main, kind) +
                                COUNT_ELEMENT[kind]] = 0xFFFF
    a = execute_secure(broken, inputs)
    b = execute_optimized(broken, inputs)
    assert a.status == b.status == "trap"
    assert a.trap_reason == b.trap_reason == reason
    assert a.steps == b.steps > 0
    # in-range indices still work under the stretched count
    assert execute_optimized(broken, [1, 1]).value == 5


@pytest.mark.parametrize("level", [50, 100])
def test_both_engines_trap_at_the_same_step_under_a_tight_limit(
        corpus_flat, manifest, level):
    for entry in manifest["programs"]:
        inputs = entry["inputs"]["tiny"]
        bundle = virtualize_module(corpus_flat[entry["name"]],
                                   ProtectionConfig(seed=9, level=level))
        honest = execute_secure(bundle, inputs).steps
        for limit in (1, honest // 3, honest - 1):
            a = execute_secure(bundle, inputs, step_limit=limit)
            b = execute_optimized(bundle, inputs, step_limit=limit)
            assert a.status == b.status == "trap", entry["name"]
            assert a.trap_reason == b.trap_reason == STEP_LIMIT_REASON
            assert a.steps == b.steps == limit + 1, (entry["name"], limit)
            assert a.output == b.output, entry["name"]


I1_COMPARE = """\
func @main(i64 %n) -> i64 {
entry:
  %three = const i8 3
  %zero = const i8 0
  %b = const i1 0
  %lo = const i1 0
  %s = add i8 %three, %zero
  %c = icmp slt i1 %b, %lo
  %r = zext i64 %c
  ret i64 %r
}
"""


def test_i1_cell_holding_a_whole_byte_compares_on_its_low_bit():
    bundle = protect_text(I1_COMPARE, seed=2, enable_guards=False)
    main = bundle.function("main")
    assert execute_optimized(bundle, [0]).value == 0
    broken = copy_bundle(bundle)
    # the i8 add now writes 3 into %b's byte; as an i1 that reads as -1
    b_cell = main.vpa[_record(main, "icmp.slt") + 1]
    broken.function("main").vpa[_record(main, "add") + 3] = b_cell
    a = execute_secure(broken, [0])
    b = execute_optimized(broken, [0])
    assert a.value == b.value == 1


def test_i1_index_in_a_forged_opcode_table_is_refused():
    bundle = protect_text(LAST_REGION, seed=4, enable_guards=False)
    broken = copy_bundle(bundle)
    main = broken.function("main")
    opcode = main.vpa[_record(main, "load")]
    spec = main.risa.spec_of[opcode]
    main.risa.spec_of[opcode] = HandlerSpec("load", (TypeTag.I1,),
                                            spec.result_type)
    res = execute_optimized(broken, [0, 0])
    assert res.status == "tamper"
    assert res.tamper_cause.kind == INVALID_OPCODE
    assert res.steps == 0


# ---- totality and agreement on tampered bundles ---------------------------

SWEEP_STRATEGIES = (FlipRandomElement(), SwapOpcodes(), ZeroRange())
SWEEP_DRAWS = 8
SWEEP_STEP_LIMIT = 100_000


def _tampered_corpus_bundles(corpus_flat, manifest, level):
    """(label, tampered bundle, inputs) for every corpus program, guards on
    and off, every draw and every sweep strategy that applies."""
    for entry in manifest["programs"]:
        inputs = entry["inputs"]["tiny"]
        for guards in (True, False):
            for draw in range(SWEEP_DRAWS):
                bundle = virtualize_module(
                    corpus_flat[entry["name"]],
                    ProtectionConfig(seed=draw, level=level,
                                     enable_guards=guards))
                for strategy in SWEEP_STRATEGIES:
                    try:
                        tampered, _ = tamper_bundle(bundle, strategy,
                                                    SplitMix64(draw))
                    except TamperError:
                        continue
                    yield ((entry["name"], guards, draw,
                            type(strategy).__name__), tampered, inputs)


@pytest.mark.parametrize("level", [100, 50])
def test_engines_never_raise_on_tampered_corpus_bundles(corpus_flat, manifest,
                                                        level):
    """A corrupted stream ends in a result under both engines, never in an
    exception; every escape is collected so a failure lists them all."""
    escaped = []
    for label, tampered, inputs in _tampered_corpus_bundles(
            corpus_flat, manifest, level):
        for engine in (execute_secure, execute_optimized):
            try:
                res = engine(tampered, inputs, step_limit=SWEEP_STEP_LIMIT)
            except Exception as exc:
                escaped.append(label + (engine.__name__, repr(exc)))
            else:
                assert isinstance(res, ExecutionResult)
    assert escaped == []


def _fingerprint(res):
    """Every field of a result, the tamper cause by its message."""
    cause = res.tamper_cause
    return (res.status, res.value, res.output, res.trap_reason,
            None if cause is None else str(cause), res.steps,
            res.guard_execs, res.guard_edges)


@pytest.mark.parametrize("level", [100, 50])
def test_engines_agree_on_tampered_corpus_bundles_unless_refused_at_decode(
        corpus_flat, manifest, level):
    """Damage the optimized engine does not refuse while decoding leads
    both engines to the same result, field for field."""
    differ = []
    agreed = 0
    for label, tampered, inputs in _tampered_corpus_bundles(
            corpus_flat, manifest, level):
        optimized = execute_optimized(tampered, inputs,
                                      step_limit=SWEEP_STEP_LIMIT)
        if optimized.status == "tamper" and optimized.tamper_cause.at_decode:
            continue
        secure = execute_secure(tampered, inputs,
                                step_limit=SWEEP_STEP_LIMIT)
        if _fingerprint(secure) == _fingerprint(optimized):
            agreed += 1
        else:
            differ.append((label, _fingerprint(secure),
                           _fingerprint(optimized)))
    assert differ == []
    assert agreed > 0       # some damage must get past decoding


# ---- blocks ----------------------------------------------------------------

# `n` turns of a loop whose body divides by `stop - i`, stores at index
# `i + soff` and loads at `i + loff` of a 64-element region, so each trap
# fires in the middle of the body's block
TRAPPING_LOOP = """\
func @main(i64 %n, i64 %stop, i64 %soff, i64 %loff) -> i64 {
entry:
  %zero = const i64 0
  %one = const i64 1
  %arr = alloca i64 x 64
  br %loop
loop:
  %i = phi i64 [%zero, %entry], [%inext, %body]
  %acc = phi i64 [%zero, %entry], [%accnext, %body]
  %more = icmp slt i64 %i, %n
  brcond %more, %body, %exit
body:
  %d = sub i64 %stop, %i
  %q = sdiv i64 %n, %d
  %si = add i64 %i, %soff
  store i64 %q, %arr, %si
  %li = add i64 %i, %loff
  %x = load i64 %arr, %li
  %accnext = add i64 %acc, %x
  %inext = add i64 %i, %one
  br %loop
exit:
  ret i64 %acc
}
"""

# a loop that calls a helper with a loop of its own on every turn
CALLING_LOOP = """\
func @main(i64 %n) -> i64 {
entry:
  %zero = const i64 0
  %one = const i64 1
  br %loop
loop:
  %i = phi i64 [%zero, %entry], [%inext, %body]
  %acc = phi i64 [%zero, %entry], [%accnext, %body]
  %more = icmp slt i64 %i, %n
  brcond %more, %body, %exit
body:
  %t = call i64 @tri(%i)
  call void @print_i64(%t)
  %accnext = add i64 %acc, %t
  %inext = add i64 %i, %one
  br %loop
exit:
  ret i64 %acc
}

func @tri(i64 %k) -> i64 {
entry:
  %zero = const i64 0
  %one = const i64 1
  br %loop
loop:
  %j = phi i64 [%zero, %entry], [%jnext, %body]
  %s = phi i64 [%zero, %entry], [%snext, %body]
  %more = icmp sle i64 %j, %k
  brcond %more, %body, %exit
body:
  %snext = add i64 %s, %j
  %jnext = add i64 %j, %one
  br %loop
exit:
  ret i64 %s
}
"""


def _same_run(a, b):
    assert _fingerprint(a) == _fingerprint(b)


def test_step_limit_sweep_across_the_hot_transition(corpus_flat, manifest):
    """Limits that fall in every segment of the first blocks and the
    first turns of the loop."""
    entry = next(p for p in manifest["programs"] if p["name"] == "loop_sum")
    inputs = entry["inputs"]["check"]
    bundle = virtualize_module(corpus_flat["loop_sum"],
                               ProtectionConfig(seed=3, level=100))
    honest = execute_optimized(bundle, inputs)
    assert honest.status == "normal" and honest.steps > 440
    for limit in range(440):
        a = execute_secure(bundle, inputs, step_limit=limit)
        b = execute_optimized(bundle, inputs, step_limit=limit)
        assert a.status == b.status == "trap", limit
        assert a.trap_reason == b.trap_reason == STEP_LIMIT_REASON
        assert a.steps == b.steps == limit + 1, limit
        _same_run(a, b)


@pytest.mark.parametrize("inputs, reason", [
    ([100, 50, 0, 0], DIV_BY_ZERO),
    ([100, 1000, 14, 0], STORE_BOUNDS_REASON),
    ([100, 1000, 0, 14], LOAD_BOUNDS_REASON),
])
def test_trap_inside_a_hot_block_reports_its_own_step(inputs, reason):
    bundle = protect_text(TRAPPING_LOOP, seed=6, enable_guards=False)
    a = execute_secure(bundle, inputs)
    b = execute_optimized(bundle, inputs)
    assert a.status == b.status == "trap"
    assert a.trap_reason == b.trap_reason == reason
    _same_run(a, b)
    # step limits that fall in the trapping record's segment
    for limit in range(b.steps - 12, b.steps + 2):
        _same_run(execute_secure(bundle, inputs, step_limit=limit),
                  execute_optimized(bundle, inputs, step_limit=limit))


def test_guard_mismatch_inside_a_hot_block(corpus_flat, manifest,
                                           monkeypatch):
    entry = next(p for p in manifest["programs"] if p["name"] == "loop_sum")
    inputs = entry["inputs"]["check"]
    # a draw that puts a guard in the loop
    bundle = next(b for b in (virtualize_module(
        corpus_flat["loop_sum"], ProtectionConfig(seed=s, level=100))
        for s in range(40)) if execute_optimized(b, inputs).guard_execs > 200)

    def forged_after(n):
        """compute_vpa_hash, with every result after the n-th flipped."""
        calls = [0]

        def forged(vpa):
            calls[0] += 1
            return compute_vpa_hash(vpa) ^ (calls[0] > n)
        return forged

    monkeypatch.setattr(runtime, "compute_vpa_hash", forged_after(150))
    a = execute_secure(bundle, inputs)
    monkeypatch.setattr(threaded, "compute_vpa_hash", forged_after(150))
    b = execute_optimized(bundle, inputs)
    assert a.status == b.status == "tamper"
    assert a.tamper_cause.kind == b.tamper_cause.kind == HASH_MISMATCH
    assert a.guard_execs == b.guard_execs == 151
    _same_run(a, b)


def test_callee_trips_the_limit_when_called_from_a_hot_block():
    bundle = protect_text(CALLING_LOOP, seed=8, level=100)
    honest = execute_optimized(bundle, [60])
    assert honest.status == "normal"
    # sweep the limit through the caller's first turns
    assert 1200 < honest.steps
    for limit in range(0, 1200, 3):
        a = execute_secure(bundle, [60], step_limit=limit)
        b = execute_optimized(bundle, [60], step_limit=limit)
        assert b.status == "trap" and b.steps == limit + 1, limit
        _same_run(a, b)


# main calls @one only for a negative argument; @two and read_i64 are
# there to be retargeted to
RETARGETABLE = """\
func @main(i64 %n) -> i64 {
entry:
  %zero = const i64 0
  %neg = icmp slt i64 %n, %zero
  brcond %neg, %call, %skip
call:
  %r = call i64 @one(%n)
  ret i64 %r
skip:
  ret i64 %n
}

func @one(i64 %x) -> i64 {
entry:
  ret i64 %x
}

func @two(i64 %x, i64 %y) -> i64 {
entry:
  %k = call i64 @read_i64()
  %s = add i64 %x, %k
  ret i64 %s
}
"""


@pytest.mark.parametrize("target, sensitive", [
    ("two", None), ("two", ("main",)), ("read_i64", None)],
    ids=["transformed", "plain", "intrinsic"])
def test_a_call_retargeted_to_another_arity_is_refused_when_it_runs(
        target, sensitive):
    """A call record naming a callee of another arity is not linked: it
    raises the bridge's signal when it runs, not at decode, and a run
    that never reaches it ends normally."""
    bundle = virtualize_module(parse_module(RETARGETABLE), ProtectionConfig(
        seed=1, sensitive=sensitive, enable_guards=False))
    names = [fn.name for fn in bundle.functions]
    main = bundle.function("main")
    call = _record(main, "call")
    assert names[main.vpa[call + 1]] == "one"
    main.vpa[call + 1] = names.index(target)
    for execute in (execute_secure, execute_optimized):
        res = execute(bundle, [-3])
        assert res.status == "tamper"
        assert res.tamper_cause.kind == INVALID_REFERENCE
        assert res.tamper_cause.detail == f"@{target} does not take 1 " \
            "arguments"
        assert not res.tamper_cause.at_decode
        assert execute(bundle, [5]).value == 5


# every engine function a tracer wraps, as (module, attribute)
_TRACED = ((runtime, "run_virt"), (runtime, "call_function"),
           (runtime, "compute_vpa_hash"), (runtime, "evaluate_function"),
           (threaded, "run_threaded"), (threaded, "call_function"),
           (threaded, "pre_decode"), (threaded, "compute_vpa_hash"),
           (interp, "evaluate_function"))


@pytest.mark.parametrize("level", [100, 50])
def test_the_call_depth_trap_lands_on_the_same_step_under_wrappers(
        monkeypatch, level):
    bundle = protect_text(DOWN, seed=2, level=level)

    def runs():
        return [_fingerprint(execute(bundle, [n]))
                for execute in (execute_secure, execute_optimized)
                for n in (MAX_CALL_DEPTH - 1, MAX_CALL_DEPTH)]

    bare = runs()
    with monkeypatch.context() as m:
        for module, name in _TRACED:
            fn = getattr(module, name)
            m.setattr(module, name, lambda *a, fn=fn: fn(*a))
        wrapped = runs()
    assert wrapped == bare
    assert [r[0] for r in bare] == ["normal", "trap"] * 2
    assert bare[1][3] == CALL_DEPTH_REASON and bare[1] == bare[3]


@pytest.mark.parametrize("level", [100, 50])
def test_guard_counts_agree_between_engines_on_every_corpus_program(
        corpus_flat, manifest, level):
    for entry in manifest["programs"]:
        bundle = virtualize_module(corpus_flat[entry["name"]],
                                   ProtectionConfig(seed=4, level=level,
                                                    guards_per_checkee=3))
        a = execute_secure(bundle, entry["inputs"]["tiny"])
        b = execute_optimized(bundle, entry["inputs"]["tiny"])
        assert a.status == b.status == "normal", entry["name"]
        assert a.guard_execs == b.guard_execs, entry["name"]
        assert a.guard_edges == b.guard_edges, entry["name"]
        assert sum(b.guard_edges.values()) == b.guard_execs
        assert all(b.guard_edges.values()), entry["name"]
        # retarget a guarded checkee's const result element elsewhere in
        # its image: no engine reads it, so both run as before until the
        # first guard over that checkee fails, and both count that guard
        copy = copy_bundle(bundle)
        vfn, start = next(
            (fn, start) for _, checkee in b.guard_edges
            for fn in [copy.function(checkee)]
            for start, spec in walk_records(fn.risa, fn.vpa)
            if spec.kind == "const")
        vfn.vpa[start + 1] = (vfn.vpa[start + 1] + 1) % len(vfn.image)
        a = execute_secure(copy, entry["inputs"]["tiny"])
        b = execute_optimized(copy, entry["inputs"]["tiny"])
        for res in a, b:
            assert res.status == "tamper", entry["name"]
            assert res.tamper_cause.kind == HASH_MISMATCH, entry["name"]
            assert not res.tamper_cause.at_decode
        assert a.guard_execs == b.guard_execs, entry["name"]
        assert a.guard_edges == b.guard_edges, entry["name"]
        assert sum(b.guard_edges.values()) == b.guard_execs
        assert sum(n for (_, ce), n in b.guard_edges.items()
                   if ce == vfn.name) == 1, entry["name"]


def test_block_factories_stay_bounded(corpus_flat, manifest, monkeypatch):
    monkeypatch.setattr(arith, "MAX_BLOCK_SHAPES", 3)
    cache = arith.Factories(threaded.BLOCK_FACTORIES.source, vars(threaded))
    monkeypatch.setattr(threaded, "BLOCK_FACTORIES", cache)
    for entry in manifest["programs"]:
        inputs = entry["inputs"]["check"]
        bundle = virtualize_module(corpus_flat[entry["name"]],
                                   ProtectionConfig(seed=2, level=100))
        _same_run(execute_secure(bundle, inputs),
                  execute_optimized(bundle, inputs))
        # and a limit that hands a segment over to the one-record blocks
        limit = execute_secure(bundle, inputs).steps // 2
        _same_run(execute_secure(bundle, inputs, step_limit=limit),
                  execute_optimized(bundle, inputs, step_limit=limit))
        assert 0 < len(cache) <= 3


class _Shapes(dict):
    """A stand-in for `BLOCK_FACTORIES` that keeps the shapes decoding
    asks for and builds nothing."""

    def __missing__(self, shape):
        self[shape] = factory = (lambda *args: shape)
        return factory


def _decoded(bundle, vfn, monkeypatch):
    """`vfn`'s dispatch list, each block replaced by its shape."""
    with monkeypatch.context() as m:
        m.setattr(threaded, "BLOCK_FACTORIES", _Shapes())
        return threaded._decode(bundle, vfn, ExecContext())[0]


@pytest.mark.parametrize("program", ["sieve", "qsort"])
def test_blocks_start_at_record_zero_and_every_branch_target(
        corpus_flat, program, monkeypatch):
    bundle = virtualize_module(corpus_flat[program],
                               ProtectionConfig(seed=5, level=100))
    for vfn in bundle.virt_functions():
        records = pre_decode(vfn)
        targets = {0}
        for _, spec, succ in records:
            if spec.targets:
                targets.update(succ if spec.kind == "brcond" else [succ])
        code = _decoded(bundle, vfn, monkeypatch)
        assert [o for o, block in enumerate(code) if block] == \
            sorted(targets)
        for o in targets:
            # each block runs to the first terminator from its leader
            end = next(e for e in range(o, len(records))
                       if records[e][1].kind in ("br", "brcond", "ret"))
            assert code[o] == tuple(spec.number
                                    for _, spec, _ in records[o:end + 1])


def test_branch_retargeted_inside_a_block_gets_an_overlapping_block(
        monkeypatch):
    bundle = protect_text(TRAPPING_LOOP, seed=6, enable_guards=False)
    main = bundle.function("main")
    records = pre_decode(main)
    into_loop = next(o for o, (_, spec, _) in enumerate(records)
                     if spec.kind == "br")
    body = next(succ[0] for _, spec, succ in records
                if spec.kind == "brcond")
    inside = body + 3
    assert _decoded(bundle, main, monkeypatch)[inside] is None
    broken = copy_bundle(bundle)
    # the entry now jumps into the loop body, past its first records
    broken.function("main").vpa[records[into_loop][0] + 1] = \
        records[inside][0]
    code = _decoded(broken, broken.function("main"), monkeypatch)
    assert code[inside] and code[body][3:] == code[inside]
    for inputs in ([100, 50, 0, 0], [3, 1000, 0, 0], [100, 1000, 14, 0]):
        for limit in (40, 5000):
            _same_run(execute_secure(broken, inputs, step_limit=limit),
                      execute_optimized(broken, inputs, step_limit=limit))


def test_block_shapes_stay_well_inside_the_cache(corpus_flat, monkeypatch):
    """The call-guard programs at full coverage and three guards per
    checkee, under 64 seeds in both arms, decode into fewer than half the
    shapes the factory cache keeps, so a run never thrashes it."""
    shapes = _Shapes()
    monkeypatch.setattr(threaded, "BLOCK_FACTORIES", shapes)
    for name in ("fib", "qsort", "crc32", "strsearch"):
        for seed in range(64):
            for guards in (True, False):
                bundle = virtualize_module(corpus_flat[name], ProtectionConfig(
                    seed=seed, level=100, guards_per_checkee=3,
                    enable_guards=guards))
                for vfn in bundle.virt_functions():
                    threaded._decode(bundle, vfn, ExecContext())
    assert len(shapes) < arith.MAX_BLOCK_SHAPES // 2


def _wrapped_counts(execute, bundle, inputs, monkeypatch):
    """Calls through the call bridges and the hash during one run, each
    module attribute wrapped in a counter as a tracer wraps them, by
    attribute name over both engine modules."""
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    with monkeypatch.context() as m:
        for module in (runtime, threaded):
            for name in ("call_function", "compute_vpa_hash"):
                m.setattr(module, name,
                          counting(name, getattr(module, name)))
        assert execute(bundle, inputs).status == "normal"
    return counts


def _callee_kinds(bundle) -> set[str]:
    """The kinds of table entry the transformed functions' calls name."""
    return {type(bundle.functions[vfn.vpa[start + 1]]).__name__
            for vfn in bundle.virt_functions()
            for start, spec in walk_records(vfn.risa, vfn.vpa)
            if spec.kind == "call"}


@pytest.mark.parametrize("program, level, seed", [
    ("fib", 100, 1), ("loop_sum", 100, 1), ("fib", 50, 3),
    ("loop_sum", 50, 3)], ids=["fib", "loop_sum", "fib-50", "loop_sum-50"])
def test_wrappers_on_the_bridge_and_the_hash_see_every_call(
        corpus_flat, manifest, monkeypatch, program, level, seed):
    """A tracer counts calls by wrapping the module attributes; factories
    cached before the wrappers went in still call through them, and a
    call the optimized engine does not link, to a plain function or an
    intrinsic, counts once, as under the checked engine."""
    entry = next(p for p in manifest["programs"] if p["name"] == program)
    inputs = entry["inputs"]["check"]
    bundle = virtualize_module(corpus_flat[program],
                               ProtectionConfig(seed=seed, level=level))
    if level < 100:
        assert _callee_kinds(bundle) == {"VirtFunction", "PlainFunction",
                                         "ExternFunction"}
    execute_optimized(bundle, inputs)
    optimized = _wrapped_counts(execute_optimized, bundle, inputs,
                                monkeypatch)
    secure = _wrapped_counts(execute_secure, bundle, inputs, monkeypatch)
    assert optimized == secure
    assert secure["call_function"] > 0 and secure["compute_vpa_hash"] > 0


def _globals_read(code) -> set[str]:
    """The global names `code` reads."""
    return {i.argval for i in dis.get_instructions(code)
            if i.opname == "LOAD_GLOBAL"}


def _block_code(factory):
    """The code of the block a factory returns."""
    return next(c for c in factory.__code__.co_consts
                if hasattr(c, "co_code"))


INDEX_TAGS = (TypeTag.I8, TypeTag.I16, TypeTag.I32, TypeTag.I64)


def _fitting_specs(kind) -> list[HandlerSpec]:
    """`fitting_spec(kind)`, and a load and a store under every index
    type, a call with and without a result and a ret with and without a
    value."""
    return [fitting_spec(kind), *{
        "load": [handler_spec("load", (ix,), TypeTag.I32)
                 for ix in INDEX_TAGS],
        "store": [handler_spec("store", (TypeTag.I16, ix))
                  for ix in INDEX_TAGS],
        "call": [handler_spec("call", (TypeTag.I64,)),
                 handler_spec("call", (TypeTag.I64, TypeTag.I8),
                              TypeTag.I16)],
        "ret": [handler_spec("ret"), handler_spec("ret", (TypeTag.I64,))],
    }.get(kind, [])]


def _read(spec, elements, size=1 << 18) -> list:
    """The arguments `spec`'s reader appends for one record whose operand
    elements are `elements`, all cells inside an image of `size` bytes
    and table index 0 naming a transformed function."""
    bundle = protect_text(CHECKED_HELPER, seed=1, level=100)
    vfn = bundle.functions[0]
    assert isinstance(vfn, VirtFunction)
    succ = 1 if len(spec.targets) == 1 else (1, 2)
    flat = []
    threaded.RECORD_READERS[spec.number](
        [0, *elements], 0, succ, size, set(), flat, set(), bundle, vfn, {})
    return flat


@pytest.mark.parametrize("kind", KIND_NAMES)
def test_every_kind_has_a_block_statement(kind):
    """Every fitting spec has a block statement and a reader, which read
    only names this module defines, and its reader appends as many
    arguments as its statement names."""
    factories = arith.Factories(threaded._block_source, vars(threaded))
    readers = arith.Factories(threaded._reader_source, vars(threaded))
    defined = vars(threaded).keys() | vars(builtins).keys()
    ret = handler_spec("ret").number
    for spec in _fitting_specs(kind):
        # inside a block, ended by a ret unless it ends it, and alone
        shapes = [(spec.number,) if spec.kind == "ret"
                  else (spec.number, ret), (spec.number,)]
        for shape in shapes:
            assert _globals_read(_block_code(factories[shape])) <= defined
        assert _globals_read(readers[spec.number].__code__) <= defined
        named = set(re.findall(r"\{a\d+\}", threaded._statement(spec)))
        assert len(_read(spec, [0] * len(spec.layout))) == len(named)
    if kind in ("load", "store"):
        # a count's limit, on both sides of the i8 and i16 index caps
        for spec in _fitting_specs(kind)[1:]:
            at = [role for role, _ in spec.layout].index(COUNT)
            index = spec.layout[at + 1][1]
            for n in (127, 128, 129, 32767, 32768, 32769):
                elements = [0] * len(spec.layout)
                elements[at] = n
                assert _read(spec, elements)[at] == arith.index_limit(n,
                                                                      index)
