import random

import pytest

from builders import CHECKED_HELPER, MIXED_CALLS, protect_text, random_bundle
from conftest import corpus_text
from vmguard.bundle import (MAGIC, BadMagic, BundleError, ExternFunction,
                            FlipElement, FlipRandomElement,
                            IndexOutOfRange, PlainFunction,
                            PreserveChecksumPair,
                            SwapOpcodes, TamperError, TrailingData,
                            TruncatedStream, UnsupportedVersion, ZeroRange,
                            copy_bundle, deserialize, serialize,
                            tamper_bundle, STRATEGY_NAMES)
from vmguard.detect import run_detection
from vmguard.guards import compute_vpa_hash
from vmguard.ir import parse_module
from vmguard.ir.core import TypeTag
from vmguard.protect import ProtectionConfig, virtualize_module
from vmguard.risa import GUARD_SPEC, HandlerSpec, walk_records
from vmguard.rng import SplitMix64
from vmguard.runtime import execute_secure
from vmguard.threaded import execute_optimized, verify

CORPUS = ("fib", "loop_sum", "qsort", "crc32", "sieve", "strsearch")


@pytest.fixture(scope="module")
def fib_bundle():
    return protect_text(corpus_text("fib"), seed=8)


@pytest.fixture(scope="module")
def fib_bytes(fib_bundle):
    return serialize(fib_bundle)


def test_wire_format_opens_with_magic_and_version(fib_bytes):
    assert fib_bytes[:4] == MAGIC == b"VSC1"
    assert int.from_bytes(fib_bytes[4:6], "little") == 1


def test_round_trip_is_a_fixed_point(fib_bundle, fib_bytes):
    again = deserialize(fib_bytes)
    assert serialize(again) == fib_bytes
    assert [f.name for f in again.functions] == \
        [f.name for f in fib_bundle.functions]
    assert again.edges == fib_bundle.edges
    assert again.seed == fib_bundle.seed
    assert again.entry_index == fib_bundle.entry_index
    for a, b in zip(again.virt_functions(), fib_bundle.virt_functions()):
        assert a.vpa == b.vpa
        assert a.image == b.image
        assert a.risa.spec_of == b.risa.spec_of
        assert a.param_slots == b.param_slots
        assert a.ret_slot == b.ret_slot


def test_random_structural_bundles_round_trip():
    rng = SplitMix64(2718)
    for _ in range(100):
        blob = serialize(random_bundle(rng))
        assert serialize(deserialize(blob)) == blob


def test_truncation_is_always_flagged(fib_bytes):
    # cutting at any prefix inside the header and at coarse strides later
    points = list(range(4, 64)) + list(range(64, len(fib_bytes), 97))
    for cut in points:
        with pytest.raises(TruncatedStream):
            deserialize(fib_bytes[:cut])


def test_bad_magic_is_rejected(fib_bytes):
    with pytest.raises(BadMagic):
        deserialize(b"WRONG" + fib_bytes[5:])
    with pytest.raises(TruncatedStream):
        deserialize(b"VS")


def test_unknown_version_is_rejected(fib_bytes):
    bumped = bytearray(fib_bytes)
    bumped[4] = 99
    with pytest.raises(UnsupportedVersion):
        deserialize(bytes(bumped))


def test_trailing_bytes_are_rejected(fib_bytes):
    with pytest.raises(TrailingData):
        deserialize(fib_bytes + b"\x00")


def test_out_of_range_entry_index_is_rejected(fib_bundle):
    broken = copy_bundle(fib_bundle)
    broken.entry_index = len(broken.functions)
    with pytest.raises(IndexOutOfRange):
        deserialize(serialize(broken))


def test_out_of_range_edge_is_rejected(fib_bundle):
    broken = copy_bundle(fib_bundle)
    broken.edges.append((0, len(broken.functions)))
    with pytest.raises(IndexOutOfRange):
        deserialize(serialize(broken))


def test_absent_entry_and_seed_survive_the_trip(fib_bundle):
    b = copy_bundle(fib_bundle)
    b.entry_index = None
    b.seed = None
    again = deserialize(serialize(b))
    assert again.entry_index is None
    assert again.seed is None


def test_unparsable_plain_source_is_a_bundle_error():
    data = serialize(protect_text(corpus_text("fib"), seed=8, level=50))
    assert data.count(b"func @") >= 1        # some function stays plain
    with pytest.raises(BundleError, match="does not parse"):
        deserialize(data.replace(b"func @", b"func #", 1))


def _fib_with_undefined_operand() -> bytes:
    """fib at level 50, seed 0, with plain @fib's call argument renamed to
    a value the function never defines: the source still parses."""
    data = serialize(protect_text(corpus_text("fib"), seed=0, level=50))
    assert data.count(b"@fib(%n1)") == 1
    return data.replace(b"@fib(%n1)", b"@fib(%n9)")


@pytest.mark.parametrize("engine", [execute_secure, execute_optimized])
def test_plain_source_that_does_not_validate_is_a_bundle_error(engine):
    with pytest.raises(BundleError, match="undefined value %n9"):
        engine(deserialize(_fib_with_undefined_operand()), [8])


def test_plain_source_must_define_the_function_it_is_filed_under():
    data = serialize(protect_text(corpus_text("fib"), seed=0, level=50))
    with pytest.raises(BundleError, match="defines @fob"):
        deserialize(data.replace(b"func @fib(", b"func @fob(", 1))


def test_plain_calls_are_checked_against_the_table():
    bundle = virtualize_module(parse_module(MIXED_CALLS), ProtectionConfig(
        seed=1, sensitive=("double",)))
    assert isinstance(bundle.function("main"), PlainFunction)
    honest = bundle.functions[0]
    # a virtualized callee's parameter types come from its slots
    wrong_type = parse_module(MIXED_CALLS.replace(
        "add i64 %n, %one", "icmp eq i64 %n, %one")).function("main")
    bundle.functions[0] = PlainFunction("main", wrong_type)
    with pytest.raises(BundleError, match="argument to @double"):
        deserialize(serialize(bundle))
    bundle.functions[0] = honest
    # an intrinsic the plain code calls must have a table entry
    bundle.functions = [f for f in bundle.functions
                        if not isinstance(f, ExternFunction)]
    with pytest.raises(BundleError, match="table does not hold"):
        deserialize(serialize(bundle))


def test_copy_is_deep(fib_bundle):
    clone = copy_bundle(fib_bundle)
    clone.virt_functions()[0].vpa[0] ^= 1
    clone.virt_functions()[0].image[0] ^= 1
    orig = fib_bundle.virt_functions()[0]
    fresh = copy_bundle(fib_bundle).virt_functions()[0]
    assert orig.vpa == fresh.vpa
    assert orig.image == fresh.image


@pytest.mark.parametrize("level", [50, 100])
def test_copy_serializes_like_the_original(level):
    for name in CORPUS:
        bundle = protect_text(corpus_text(name), seed=21, level=level)
        assert serialize(copy_bundle(bundle)) == serialize(bundle), name


def test_copy_shares_only_frozen_parts():
    bundle = protect_text(corpus_text("fib"), seed=8, level=50)
    clone = copy_bundle(bundle)
    for a, b in zip(bundle.functions, clone.functions):
        assert a is not b and a.name == b.name
        if isinstance(a, PlainFunction):
            assert b.fn is a.fn
    for a, b in zip(bundle.virt_functions(), clone.virt_functions()):
        assert all(x is y for x, y in zip(a.risa.spec_of.values(),
                                          b.risa.spec_of.values()))


def test_protecting_and_loading_hash_no_spec(corpus_raw, monkeypatch):
    """Opcode tables are keyed by spec numbers, so neither protecting a
    module nor loading its bundle hashes a `HandlerSpec`."""
    config = ProtectionConfig(seed=4, level=50)
    blob = serialize(virtualize_module(corpus_raw["qsort"], config))
    hashes = [0]
    spec_hash = HandlerSpec.__hash__

    def counting(spec):
        hashes[0] += 1
        return spec_hash(spec)

    monkeypatch.setattr(HandlerSpec, "__hash__", counting)
    built = virtualize_module(corpus_raw["qsort"], config)
    loaded = deserialize(blob)
    assert hashes[0] == 0
    for vfn in built.virt_functions() + loaded.virt_functions():
        assert vfn.risa.opcode_of == {
            spec.number: opcode for opcode, spec in vfn.risa.spec_of.items()}
    hash(GUARD_SPEC)                        # the counter does see a hash
    assert hashes[0] == 1


def test_mutating_a_copy_leaves_the_original_untouched():
    bundle = protect_text(corpus_text("fib"), seed=8, level=50)
    before = serialize(bundle)
    opcode_of = [dict(v.risa.opcode_of) for v in bundle.virt_functions()]
    clone = copy_bundle(bundle)
    for vfn in clone.virt_functions():
        vfn.vpa[0] ^= 1
        vfn.vpa.append(7)
        vfn.image[0] ^= 1
        vfn.image.append(3)
        vfn.param_slots.append((0, TypeTag.I8))
        opcode, spec = next(iter(vfn.risa.spec_of.items()))
        del vfn.risa.spec_of[opcode]
        vfn.risa.spec_of[opcode ^ 1] = spec
        vfn.risa.opcode_of.clear()
    for fn in clone.functions:
        fn.name += "_x"
    clone.edges[:] = [(1, 0)]
    clone.functions.reverse()
    clone.functions.append(ExternFunction("read_i64"))
    clone.entry_index = None
    assert serialize(bundle) == before
    assert [v.risa.opcode_of for v in bundle.virt_functions()] == opcode_of


def test_verify_accepts_all_protected_corpus_bundles():
    for name in ("fib", "loop_sum", "qsort", "crc32", "sieve", "strsearch"):
        bundle = protect_text(corpus_text(name), seed=13)
        assert verify(bundle) == [], name


def test_verify_reports_corrupted_streams(fib_bundle):
    broken = copy_bundle(fib_bundle)
    vfn = broken.virt_functions()[0]
    vfn.vpa[0] = 0xFFFF                   # never a valid opcode
    assert any("opcode" in p or "record" in p for p in verify(broken))


def test_verify_reports_missing_guard_edges(fib_bundle):
    broken = copy_bundle(fib_bundle)
    assert broken.edges
    broken.edges.pop()
    assert verify(broken) != []


def test_verify_reports_duplicate_names(fib_bundle):
    broken = copy_bundle(fib_bundle)
    broken.functions[1].name = broken.functions[0].name
    assert any("name" in p for p in verify(broken))


@pytest.fixture(scope="module")
def qsort_bundle():
    # qsort at 75% keeps @lcg_next plain and still guards every kind the
    # damaged copies below need: const, load, store, call, br and guard
    bundle = protect_text(corpus_text("qsort"), seed=3, level=75)
    assert isinstance(bundle.function("lcg_next"), PlainFunction)
    return bundle


def _record(bundle, kind):
    """(function, record start, spec) of the first `kind` record of the
    first transformed function that has one."""
    for vfn in bundle.virt_functions():
        for start, spec in walk_records(vfn.risa, vfn.vpa):
            if spec.kind == kind:
                return vfn, start, spec
    raise AssertionError(f"no {kind} record")


def _set(bundle, kind, position, value):
    """Set operand `position` of the first `kind` record to
    `value(bundle, vfn)`; returns the function, the record start and the
    value set."""
    vfn, start, _ = _record(bundle, kind)
    v = value(bundle, vfn)
    vfn.vpa[start + 1 + position] = v
    return vfn, start, v


def _const_past_image(b):
    vfn, start, v = _set(b, "const", 0, lambda b, f: len(f.image))
    return [f"@{vfn.name}: record at {start} (const): cell {v} leaves the "
            "image"]


def _empty_region(b):
    vfn, start, _ = _set(b, "load", 1, lambda b, f: 0)
    return [f"@{vfn.name}: record at {start} (load): region leaves the image"]


def _region_past_image(b):
    vfn, start, _ = _set(b, "store", 1, lambda b, f: len(f.image))
    return [f"@{vfn.name}: record at {start} (store): region leaves the "
            "image"]


def _arity_mismatch(b):
    vfn, start, spec = _record(b, "call")
    callee = "print_i64" if not spec.operand_types else "read_i64"
    vfn.vpa[start + 1] = b.index_of(callee)
    return [f"@{vfn.name}: record at {start} (call): passes",
            f"@{callee} takes"]


def _callee_past_table(b):
    vfn, _, v = _set(b, "call", 0, lambda b, f: len(b.functions))
    return [f"@{vfn.name}: ", f"callee index {v}"]


def _plain_checkee(b):
    vfn, _, _ = _set(b, "guard", 0, lambda b, f: b.index_of("lcg_next"))
    return [f"@{vfn.name}: ", "checkee", "transformed function"]


def _branch_into_a_record(b):
    # the element after a record's opcode starts no record
    vfn, start, _ = _set(b, "br", 0, lambda b, f: 1)
    return [f"@{vfn.name}: ", f" at {start} ", "target"]


def _parameter_past_image(b):
    vfn = next(f for f in b.virt_functions() if f.param_slots)
    off, tag = vfn.param_slots[0]
    vfn.param_slots[0] = (len(vfn.image), tag)
    return [f"@{vfn.name}: ", "parameter", "image"]


def _undeclared_guard(b):
    checker, checkee = b.edges.pop()
    return [f"guard record @{b.functions[checker].name} -> "
            f"@{b.functions[checkee].name} not declared as an edge"]


def _cycle(b):
    checker, checkee = b.edges[0]
    b.edges.append((checkee, checker))
    return ["checking relation contains a cycle"]


def _unknown_intrinsic(b):
    b.functions.append(ExternFunction("read_f64"))
    return ["unknown intrinsic @read_f64"]


def _entry_at_an_intrinsic(b):
    b.entry_index = b.index_of("print_i64")
    return ["entry points at an intrinsic"]


@pytest.mark.parametrize("damage", [
    _const_past_image, _empty_region, _region_past_image, _arity_mismatch,
    _callee_past_table, _plain_checkee, _branch_into_a_record,
    _parameter_past_image, _undeclared_guard, _cycle, _unknown_intrinsic,
    _entry_at_an_intrinsic], ids=lambda damage: damage.__name__[1:])
def test_verify_reports_each_rule(qsort_bundle, damage):
    assert verify(qsort_bundle) == []
    broken = copy_bundle(qsort_bundle)
    parts = damage(broken)
    problems = verify(broken)
    assert any(all(part in p for part in parts) for p in problems), problems


def test_verify_reports_every_damage_the_optimized_engine_refuses(manifest):
    # each damaged copy the engine refuses while decoding, before it runs
    # a step, is one verify must not pass
    strategies = (FlipRandomElement(), SwapOpcodes(), ZeroRange())
    refused = 0
    for program in manifest["programs"]:
        bundle = protect_text(corpus_text(program["name"]), seed=3)
        rng = random.Random(3)
        for strategy in strategies:
            for _ in range(50):
                try:
                    broken, _ = tamper_bundle(bundle, strategy, rng)
                except TamperError:
                    continue
                res = execute_optimized(broken, program["inputs"]["tiny"])
                if res.status == "tamper" and res.tamper_cause.at_decode:
                    refused += 1
                    assert verify(broken), res.tamper_cause
    assert refused > 500


# ---- corruption strategies -------------------------------------------------


def test_flip_element_changes_exactly_one_element(fib_bundle):
    strat = FlipElement("main", 2, mask=0x0001)
    mutated, changes = tamper_bundle(fib_bundle, strat, SplitMix64(1))
    assert len(changes) == 1
    ch = changes[0]
    assert ch["function"] == "main" and ch["element"] == 2
    assert ch["after"] == ch["before"] ^ 0x0001
    orig = fib_bundle.function("main").vpa
    new = mutated.function("main").vpa
    diffs = [i for i in range(len(orig)) if orig[i] != new[i]]
    assert diffs == [2]


def test_flip_random_element_stays_inside_one_stream(fib_bundle):
    seen = set()
    for seed in range(30):
        mutated, changes = tamper_bundle(fib_bundle, FlipRandomElement(),
                                         SplitMix64(seed))
        assert len(changes) == 1
        ch = changes[0]
        seen.add(ch["function"])
        vfn = mutated.function(ch["function"])
        assert vfn.vpa[ch["element"]] == ch["after"] != ch["before"]
    assert len(seen) > 1                     # targets spread over the table


def test_flip_random_element_can_be_pinned_to_a_function(fib_bundle):
    for seed in range(10):
        _, changes = tamper_bundle(fib_bundle,
                                   FlipRandomElement(function="diff"),
                                   SplitMix64(seed))
        assert changes[0]["function"] == "diff"


def test_swap_opcodes_exchanges_two_record_leads(fib_bundle):
    mutated, changes = tamper_bundle(fib_bundle, SwapOpcodes("main"),
                                     SplitMix64(6))
    assert len(changes) == 2
    a, b = changes
    assert a["before"] == b["after"] and a["after"] == b["before"]
    assert a["before"] != a["after"]
    vfn = mutated.function("main")
    assert vfn.vpa[a["element"]] == a["after"]
    assert vfn.vpa[b["element"]] == b["after"]


def test_zero_range_clears_a_window(fib_bundle):
    mutated, changes = tamper_bundle(fib_bundle,
                                     ZeroRange("main", 1, length=4),
                                     SplitMix64(2))
    assert changes                          # at least one nonzero was hit
    for ch in changes:
        assert ch["after"] == 0 and ch["before"] != 0
        assert 1 <= ch["element"] < 5
    vfn = mutated.function("main")
    assert all(vfn.vpa[i] == 0 for i in range(1, 5))


def test_zero_range_refuses_a_length_below_one(fib_bundle):
    for length in (0, -2):
        with pytest.raises(TamperError, match="not positive"):
            tamper_bundle(fib_bundle, ZeroRange(length=length),
                          SplitMix64(1))


def test_zero_range_refuses_a_given_span_of_zeros(fib_bundle):
    zeroed, _ = tamper_bundle(fib_bundle, ZeroRange("main", 1, length=4),
                              SplitMix64(2))
    with pytest.raises(TamperError, match=r"\[1, 5\) of @main's stream "
                       "holds only zeros"):
        tamper_bundle(zeroed, ZeroRange("main", 1, length=4), SplitMix64(2))
    with pytest.raises(TamperError, match="outside"):
        tamper_bundle(zeroed, ZeroRange("main", -1, length=4), SplitMix64(2))


def test_zero_range_draws_only_spans_that_hold_a_nonzero(fib_bundle):
    sparse = copy_bundle(fib_bundle)
    vpa = sparse.function("diff").vpa
    kept = len(vpa) // 2
    for i in range(len(vpa)):
        if i != kept:
            vpa[i] = 0
    for seed in range(40):
        _, changes = tamper_bundle(sparse, ZeroRange("diff", length=3),
                                   SplitMix64(seed))
        assert [ch["element"] for ch in changes] == [kept]
    vpa[kept] = 0
    with pytest.raises(TamperError, match="holds only zeros"):
        tamper_bundle(sparse, ZeroRange("diff"), SplitMix64(1))


def test_detection_trials_run_when_a_random_span_could_be_all_zeros(
        fib_bundle):
    # one-element spans land on a zero element within twenty draws
    summary = run_detection(fib_bundle, [6], 20, 3,
                            strategy_factory=lambda: ZeroRange(length=1),
                            executor=execute_optimized)
    assert len(summary.rows) == 20
    assert all(len(row.changes) == 1 for row in summary.rows)


def test_preserve_pair_keeps_the_checksum(fib_bundle):
    for seed in range(20):
        mutated, changes = tamper_bundle(fib_bundle,
                                         PreserveChecksumPair("fib_iter"),
                                         SplitMix64(seed))
        assert len(changes) == 2
        assert changes[0]["element"] != changes[1]["element"]
        orig = fib_bundle.function("fib_iter").vpa
        new = mutated.function("fib_iter").vpa
        assert new != orig
        assert compute_vpa_hash(new) == compute_vpa_hash(orig)


def test_tamper_leaves_the_original_untouched(fib_bundle, fib_bytes):
    tamper_bundle(fib_bundle, FlipRandomElement(), SplitMix64(3))
    assert serialize(fib_bundle) == fib_bytes


def test_tampering_an_unknown_function_fails(fib_bundle):
    with pytest.raises(TamperError):
        tamper_bundle(fib_bundle, FlipElement("nope", 0), SplitMix64(1))


def test_tampering_a_plain_function_fails():
    bundle = protect_text(corpus_text("fib"), seed=8, level=25)
    virt = {f.name for f in bundle.virt_functions()}
    plain = next(n for n in ("main", "fib", "fib_iter", "diff")
                 if n not in virt)
    with pytest.raises(TamperError):
        tamper_bundle(bundle, FlipElement(plain, 0), SplitMix64(1))


def test_strategy_registry_is_complete():
    assert set(STRATEGY_NAMES) == {"flip", "flip-random", "swap-opcodes",
                                   "zero-range", "preserve-pair"}


def test_tampered_bundles_still_serialize(fib_bundle):
    mutated, _ = tamper_bundle(fib_bundle, ZeroRange("main", 0, length=8),
                               SplitMix64(4))
    blob = serialize(mutated)
    assert serialize(deserialize(blob)) == blob
