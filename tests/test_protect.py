import math

import pytest

from builders import CHECKED_HELPER, MIXED_CALLS, protect_text
from conftest import corpus_text
from vmguard.bundle import (ExternFunction, PlainFunction, VirtFunction,
                            serialize, verify)
from vmguard.ir import IrModule, parse_module
from vmguard.protect import (ProtectError, ProtectionConfig,
                             virtualize_module)


def test_same_seed_reproduces_the_bundle_byte_for_byte():
    text = corpus_text("fib")
    a = serialize(protect_text(text, seed=77))
    b = serialize(protect_text(text, seed=77))
    assert a == b


def test_different_seeds_differ():
    text = corpus_text("fib")
    assert serialize(protect_text(text, seed=1)) != \
        serialize(protect_text(text, seed=2))


def test_protected_bundles_pass_structural_verification():
    for name in ("fib", "loop_sum", "qsort"):
        bundle = protect_text(corpus_text(name), seed=5)
        assert verify(bundle) == [], name


@pytest.mark.parametrize("level, want", [(1, 1), (10, 1), (25, 1),
                                         (26, 2), (50, 2), (75, 3),
                                         (99, 4), (100, 4)])
def test_level_picks_ceil_of_the_function_fraction(level, want):
    text = corpus_text("fib")            # 4 functions
    bundle = protect_text(text, seed=9, level=level)
    virt = bundle.virt_functions()
    assert len(virt) == want
    assert want == math.ceil(level * 4 / 100)


def test_selection_is_reported_in_table_order():
    text = corpus_text("fib")
    names = [f.name for f in parse_module(text).functions]
    for seed in range(6):
        bundle = protect_text(text, seed=seed, level=50)
        virt_names = [f.name for f in bundle.functions
                      if isinstance(f, VirtFunction)]
        positions = [names.index(n) for n in virt_names]
        assert positions == sorted(positions)


def test_sensitive_list_overrides_the_percentage():
    text = corpus_text("fib")
    module = parse_module(text)
    cfg = ProtectionConfig(seed=3, level=25, sensitive=("diff", "fib"))
    bundle = virtualize_module(module, cfg)
    virt = [f.name for f in bundle.virt_functions()]
    assert virt == ["fib", "diff"]       # table order, not request order


def test_sensitive_selection_ignores_the_seed():
    text = corpus_text("fib")
    module = parse_module(text)
    for seed in (1, 2, 3):
        bundle = virtualize_module(module, ProtectionConfig(
            seed=seed, sensitive=("main",)))
        assert [f.name for f in bundle.virt_functions()] == ["main"]


def test_unknown_sensitive_name_lists_the_alternatives():
    module = parse_module(corpus_text("fib"))
    with pytest.raises(ProtectError) as exc:
        virtualize_module(module, ProtectionConfig(
            seed=1, sensitive=("nonexistent",)))
    message = str(exc.value)
    assert "@nonexistent" in message
    for name in ("@main", "@fib", "@fib_iter", "@diff"):
        assert name in message


def test_empty_sensitive_selection_is_rejected():
    module = parse_module(corpus_text("fib"))
    with pytest.raises(ProtectError):
        virtualize_module(module, ProtectionConfig(seed=1, sensitive=()))


def test_unselected_functions_stay_plain():
    bundle = protect_text(corpus_text("fib"), seed=4, level=50)
    plain = [f for f in bundle.functions if isinstance(f, PlainFunction)]
    virt = bundle.virt_functions()
    assert len(plain) == 2 and len(virt) == 2
    # plain bodies survive as parseable source
    for p in plain:
        assert p.text.startswith(f"func @{p.name}")


def test_used_externs_are_appended_after_the_source_functions():
    bundle = protect_text(corpus_text("fib"), seed=3)
    names = [f.name for f in bundle.functions]
    externs = [f.name for f in bundle.functions
               if isinstance(f, ExternFunction)]
    assert names[:4] == ["main", "fib", "fib_iter", "diff"]
    assert set(externs) == {"read_i64", "print_i64"}
    assert names[4:] == sorted(externs)


def test_module_without_extern_calls_gets_no_intrinsic_entries():
    bundle = protect_text(CHECKED_HELPER, seed=1)
    assert not any(isinstance(f, ExternFunction) for f in bundle.functions)


def test_entry_is_main_when_present_else_first_function():
    bundle = protect_text(corpus_text("fib"), seed=1)
    assert bundle.functions[bundle.entry_index].name == "main"
    no_main = CHECKED_HELPER.replace("@main", "@start")
    bundle = protect_text(no_main, seed=1)
    assert bundle.entry_index == 0
    assert bundle.functions[bundle.entry_index].name == "start"


def test_opcode_tables_differ_across_seeds_and_functions():
    a = protect_text(MIXED_CALLS, seed=100)
    b = protect_text(MIXED_CALLS, seed=101)
    a_main, b_main = a.function("main"), b.function("main")
    assert a_main.risa.opcode_of != b_main.risa.opcode_of
    # within one bundle, each function draws its own table
    a_double = a.function("double")
    shared = set(a_main.risa.spec_of) & set(a_double.risa.spec_of)
    overlap = [o for o in shared
               if a_main.risa.spec_of[o] == a_double.risa.spec_of[o]]
    assert len(overlap) < len(a_main.risa.spec_of)


def test_guard_edges_respect_the_quota():
    bundle = protect_text(corpus_text("sieve"), seed=21,
                          guards_per_checkee=2)
    indeg = {}
    for _, checkee in bundle.edges:
        indeg[checkee] = indeg.get(checkee, 0) + 1
    assert indeg and max(indeg.values()) <= 2


def test_disabling_guards_leaves_no_edges():
    bundle = protect_text(corpus_text("fib"), seed=2, enable_guards=False)
    assert bundle.edges == []
    zero = protect_text(corpus_text("fib"), seed=2, guards_per_checkee=0)
    assert zero.edges == []


def test_optimized_hint_round_trips_through_config():
    assert protect_text(CHECKED_HELPER, seed=1,
                        optimized_hint=True).optimized_hint
    assert not protect_text(CHECKED_HELPER, seed=1).optimized_hint


@pytest.mark.parametrize("level", [0, -5, 101, 1000])
def test_out_of_range_levels_are_rejected(level):
    with pytest.raises(ProtectError):
        protect_text(CHECKED_HELPER, seed=1, level=level)


def test_negative_guard_quota_is_rejected():
    with pytest.raises(ProtectError):
        protect_text(CHECKED_HELPER, seed=1, guards_per_checkee=-1)


def test_empty_module_is_rejected():
    with pytest.raises(ProtectError):
        virtualize_module(IrModule(()), ProtectionConfig(seed=1))


def test_invalid_module_is_rejected():
    bad = parse_module("""\
func @f() -> i64 {
entry:
  ret i64 %missing
}
""")
    with pytest.raises(ProtectError):
        virtualize_module(bad, ProtectionConfig(seed=1))


def test_seed_is_recorded_in_the_bundle():
    assert protect_text(CHECKED_HELPER, seed=12345).seed == 12345
