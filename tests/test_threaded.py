import builtins
import dis
from collections import Counter

import pytest

from builders import CHECKED_HELPER, MIXED_CALLS, fitting_spec, protect_text
from vmguard import arith, runtime, threaded
from vmguard.arith import DIV_BY_ZERO
from vmguard.bundle import (FlipRandomElement, SwapOpcodes, TamperError,
                            ZeroRange, copy_bundle, tamper_bundle)
from vmguard.execstate import (LOAD_BOUNDS_REASON, STEP_LIMIT_REASON,
                               STORE_BOUNDS_REASON)
from vmguard.guards import compute_vpa_hash
from vmguard.ir import ExecutionResult, TypeTag, reference_interpret
from vmguard.protect import ProtectionConfig, virtualize_module
from vmguard.risa import KIND_NAMES, HandlerSpec, handler_spec, walk_records
from vmguard.rng import SplitMix64
from vmguard.runtime import (HASH_MISMATCH, INVALID_OPCODE,
                             INVALID_REFERENCE, PC_ESCAPE, TamperSignal,
                             execute_secure)
from vmguard.threaded import ThreadedRecord, execute_optimized, pre_decode

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
    assert all(isinstance(r, ThreadedRecord) for r in records)
    walked = walk_records(main.risa, main.vpa)
    assert [r.offset for r in records] == [off for off, _ in walked]
    by_kind = {}
    for i, rec in enumerate(records):
        by_kind.setdefault(rec.kind, (i, rec))
    # straight-line records step to the next ordinal
    i, const = by_kind["const"]
    assert const.successor == i + 1
    # two-way branches carry an ordinal pair, returns carry nothing
    _, brc = by_kind["brcond"]
    t, f = brc.successor
    assert records[t].offset == brc.operands[1]
    assert records[f].offset == brc.operands[2]
    _, ret = by_kind["ret"]
    assert ret.successor is None
    # operands are the record body without the opcode
    assert len(const.operands) == const.spec.record_len - 1


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
    brc = next(r for r in records if r.kind == "brcond")
    broken = copy_bundle(bundle).function("main")
    broken.vpa[brc.offset + 2] = brc.offset + 1   # inside its own record
    with pytest.raises(TamperSignal) as exc:
        pre_decode(broken)
    assert exc.value.kind == PC_ESCAPE


def test_pre_decode_flags_streams_without_a_final_terminator():
    bundle = protect_text(CHECKED_HELPER, seed=12, enable_guards=False)
    g = bundle.function("g")               # single ret record
    records = pre_decode(g)
    assert [r.kind for r in records] == ["ret"]
    broken = copy_bundle(bundle).function("main")
    # keep only the first record of main: a non-terminator at stream end
    first_len = pre_decode(broken)[0].spec.record_len
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


# ---- hot blocks -------------------------------------------------------------

# `n` turns of a loop whose body divides by `stop - i`, stores at index
# `i + soff` and loads at `i + loff` of a 64-element region, so each trap
# fires in the middle of the body once it runs as a hot block
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


@pytest.fixture()
def heated(monkeypatch):
    """The ctx.steps of every block patched in, in order."""
    steps = []
    heat = threaded._Blocks.heat

    def spy(self, leader):
        before = self.code[leader]
        heat(self, leader)
        if self.code[leader] is not before:
            steps.append(self.ctx.steps)
    monkeypatch.setattr(threaded._Blocks, "heat", spy)
    return steps


def _same_run(a, b):
    assert _fingerprint(a) == _fingerprint(b)


def test_step_limit_sweep_across_the_hot_transition(corpus_flat, manifest,
                                                    heated):
    entry = next(p for p in manifest["programs"] if p["name"] == "loop_sum")
    inputs = entry["inputs"]["check"]
    bundle = virtualize_module(corpus_flat["loop_sum"],
                               ProtectionConfig(seed=3, level=100))
    honest = execute_optimized(bundle, inputs)
    assert honest.status == "normal" and heated
    first = heated[0]
    for limit in range(first - 40, first + 400):
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
def test_trap_inside_a_hot_block_reports_its_own_step(inputs, reason, heated):
    bundle = protect_text(TRAPPING_LOOP, seed=6, enable_guards=False)
    a = execute_secure(bundle, inputs)
    b = execute_optimized(bundle, inputs)
    assert heated and heated[0] < b.steps
    assert a.status == b.status == "trap"
    assert a.trap_reason == b.trap_reason == reason
    _same_run(a, b)
    # step limits that fall in the trapping record's segment
    for limit in range(b.steps - 12, b.steps + 2):
        _same_run(execute_secure(bundle, inputs, step_limit=limit),
                  execute_optimized(bundle, inputs, step_limit=limit))


def test_guard_mismatch_inside_a_hot_block(corpus_flat, manifest,
                                           monkeypatch, heated):
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

    heated.clear()
    monkeypatch.setattr(runtime, "compute_vpa_hash", forged_after(150))
    a = execute_secure(bundle, inputs)
    monkeypatch.setattr(threaded, "compute_vpa_hash", forged_after(150))
    b = execute_optimized(bundle, inputs)
    assert heated and heated[0] < b.steps
    assert a.status == b.status == "tamper"
    assert a.tamper_cause.kind == b.tamper_cause.kind == HASH_MISMATCH
    assert a.guard_execs == b.guard_execs == 151
    _same_run(a, b)


def test_callee_trips_the_limit_when_called_from_a_hot_block(heated):
    bundle = protect_text(CALLING_LOOP, seed=8, level=100)
    honest = execute_optimized(bundle, [60])
    assert honest.status == "normal"
    # from the last block to get hot, the caller's, sweep the limit
    # through a few of its turns
    last = heated[-1]
    assert last + 1200 < honest.steps
    for limit in range(last, last + 1200, 3):
        a = execute_secure(bundle, [60], step_limit=limit)
        b = execute_optimized(bundle, [60], step_limit=limit)
        assert b.status == "trap" and b.steps == limit + 1, limit
        _same_run(a, b)


def test_block_factories_stay_bounded(corpus_flat, manifest, monkeypatch):
    monkeypatch.setattr(arith, "MAX_BLOCK_SHAPES", 3)
    caches = []
    for name in ("BLOCK_FACTORIES", "RECORD_FACTORIES"):
        cache = arith.Factories(getattr(threaded, name).source,
                                vars(threaded))
        monkeypatch.setattr(threaded, name, cache)
        caches.append(cache)
    for entry in manifest["programs"]:
        inputs = entry["inputs"]["check"]
        bundle = virtualize_module(corpus_flat[entry["name"]],
                                   ProtectionConfig(seed=2, level=100))
        _same_run(execute_secure(bundle, inputs),
                  execute_optimized(bundle, inputs))
        assert all(0 < len(cache) <= 3 for cache in caches)


def _wrapped_counts(module, execute, bundle, inputs, monkeypatch):
    """Calls through `module`'s call bridge and hash, each wrapped in a
    counter, during one run."""
    counts = Counter()

    def counting(name):
        fn = getattr(module, name)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    with monkeypatch.context() as m:
        for name in ("call_function", "compute_vpa_hash"):
            m.setattr(module, name, counting(name))
        assert execute(bundle, inputs).status == "normal"
    return counts


@pytest.mark.parametrize("program", ["fib", "loop_sum"])
def test_wrappers_on_the_bridge_and_the_hash_see_every_call(
        corpus_flat, manifest, monkeypatch, heated, program):
    """A tracer counts calls by wrapping the module attributes; factories
    cached before the wrappers went in still call through them."""
    entry = next(p for p in manifest["programs"] if p["name"] == program)
    inputs = entry["inputs"]["check"]
    bundle = virtualize_module(corpus_flat[program],
                               ProtectionConfig(seed=1, level=100))
    execute_optimized(bundle, inputs)
    heated.clear()
    optimized = _wrapped_counts(threaded, execute_optimized, bundle, inputs,
                                monkeypatch)
    assert heated
    secure = _wrapped_counts(runtime, execute_secure, bundle, inputs,
                             monkeypatch)
    assert optimized == secure
    assert secure["call_function"] > 0 and secure["compute_vpa_hash"] > 0


def _globals_read(factory) -> set[str]:
    """The global names a factory's block reads."""
    block = next(c for c in factory.__code__.co_consts
                 if hasattr(c, "co_code"))
    return {i.argval for i in dis.get_instructions(block)
            if i.opname == "LOAD_GLOBAL"}


@pytest.mark.parametrize("kind", KIND_NAMES)
def test_every_kind_has_a_block_statement(kind):
    spec = fitting_spec(kind)
    shape = (spec,) if spec.kind == "ret" else (spec, handler_spec("ret"))
    factories = [arith.Factories(threaded._block_source,
                                 vars(threaded))[shape]]
    # alone, as a cold record, a branch both counted and forward
    records = arith.Factories(threaded.RECORD_FACTORIES.source,
                              vars(threaded))
    factories += [records[spec, forward]
                  for forward in ((False, True) if spec.targets else (False,))]
    defined = vars(threaded).keys() | vars(builtins).keys()
    for factory in factories:
        assert _globals_read(factory) <= defined
