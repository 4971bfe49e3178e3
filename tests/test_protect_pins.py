"""Protection's seed-to-bytes contract, pinned, and the lowering it reuses.

`protect_pins.json` holds, for each corpus program, the sha256 of
`serialize(virtualize_module(parse_module(text), config))` over seeds 0-5,
levels 25/50/100, connectivity 0/2/3 and guards on and off (648 bundles),
keyed `seed/level/connectivity/guards`, as the pipeline wrote them before
a module's lowering was kept on it.  Protecting one parsed module many
times must give those bytes in any order, and every error a fresh module
raises.
"""

import hashlib
import json
import pathlib

import pytest

from builders import MIXED_CALLS
from conftest import corpus_text
from vmguard import bundle, protect
from vmguard.bundle import PlainFunction, serialize
from vmguard.ir import parse_module
from vmguard.protect import ProtectError, ProtectionConfig, virtualize_module

PROGRAMS = ("fib", "loop_sum", "qsort", "crc32", "sieve", "strsearch")
PINS = json.loads((pathlib.Path(__file__).resolve().parent
                   / "protect_pins.json").read_text())


def _config(key: str) -> ProtectionConfig:
    seed, level, k, guards = map(int, key.split("/"))
    return ProtectionConfig(seed=seed, level=level, guards_per_checkee=k,
                            enable_guards=bool(guards))


def _digest(module, config) -> str:
    return hashlib.sha256(serialize(virtualize_module(module,
                                                      config))).hexdigest()


def test_the_pins_cover_the_whole_matrix():
    assert sorted(PINS) == sorted(PROGRAMS)
    assert sum(len(rows) for rows in PINS.values()) == 648


@pytest.mark.parametrize("name", PROGRAMS)
def test_every_fresh_parse_gives_its_pinned_bytes(name):
    text = corpus_text(name)
    for key, digest in PINS[name].items():
        assert _digest(parse_module(text), _config(key)) == digest, key


@pytest.mark.parametrize("name", PROGRAMS)
def test_one_module_protected_over_the_matrix_gives_the_pinned_bytes(name):
    # backwards, so the first draws lower the functions that level 100
    # selects, and the 25% draws meet partly lowered modules
    module = parse_module(corpus_text(name))
    for key, digest in reversed(PINS[name].items()):
        assert _digest(module, _config(key)) == digest, key


@pytest.mark.parametrize("name", PROGRAMS)
def test_a_reused_module_matches_fresh_parses_on_sensitive_lists(name):
    text = corpus_text(name)
    module = parse_module(text)
    names = [fn.name for fn in module.functions]
    for seed in range(3):
        for wanted in (names[-1:], names[:2], names[::-1]):
            config = ProtectionConfig(seed=seed, sensitive=tuple(wanted))
            assert serialize(virtualize_module(module, config)) == \
                serialize(virtualize_module(parse_module(text), config))


def _message(module, config) -> str:
    with pytest.raises(ProtectError) as err:
        virtualize_module(module, config)
    return str(err.value)


@pytest.mark.parametrize("change", [{"level": 0}, {"level": 101},
                                    {"guards_per_checkee": -1}])
def test_a_lowered_module_still_refuses_a_bad_configuration(change):
    module = parse_module(corpus_text("qsort"))
    virtualize_module(module, ProtectionConfig(seed=1))
    bad = ProtectionConfig(seed=1, **change)
    fresh = _message(parse_module(corpus_text("qsort")), bad)
    assert _message(module, bad) == fresh
    assert _message(module, bad) == fresh
    virtualize_module(module, ProtectionConfig(seed=2))


def test_an_invalid_module_raises_the_same_message_on_every_call():
    module = parse_module(MIXED_CALLS.replace("%x, %two", "%x, %nothing"))
    first = _message(module, ProtectionConfig(seed=1))
    assert first.startswith("module does not validate: ")
    for seed in (1, 2, 3):
        assert _message(module, ProtectionConfig(seed=seed)) == first
    assert _message(module, ProtectionConfig(seed=1, level=0)) == first


# @big's buffer fits the validator's element bound but not a memory image
OVERSIZED = MIXED_CALLS + """
func @big() -> i64 {
entry:
  %z = const i64 0
  %buf = alloca i64 x 9000
  store i64 %z, %buf, %z
  %v = load i64 %buf, %z
  ret i64 %v
}
"""


def test_a_layout_failure_counts_only_where_its_function_is_selected():
    module = parse_module(OVERSIZED)
    spared = ProtectionConfig(seed=1, sensitive=("main", "double"))
    fresh = serialize(virtualize_module(parse_module(OVERSIZED), spared))
    hit = ProtectionConfig(seed=1, sensitive=("double", "big"))
    want = _message(parse_module(OVERSIZED), hit)
    assert want.startswith("lowering @big failed: @big: allocation %buf")
    for _ in range(2):
        assert serialize(virtualize_module(module, spared)) == fresh
        assert _message(module, hit) == want


def test_each_module_is_lowered_once(monkeypatch):
    calls = []
    for name in ("validate_module", "eliminate_phis", "build_layout",
                 "lift_function"):
        def counted(*args, _real=getattr(protect, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(protect, name, counted)
    module = parse_module(corpus_text("qsort"))
    for seed in range(4):
        for enable_guards in (True, False):
            virtualize_module(module, ProtectionConfig(
                seed=seed, enable_guards=enable_guards))
    functions = len(module.functions)
    assert calls.count("validate_module") == 1
    assert calls.count("eliminate_phis") == 1
    assert calls.count("build_layout") == functions
    assert calls.count("lift_function") == functions


def test_a_plain_function_is_formatted_once(monkeypatch):
    module = parse_module(corpus_text("fib"))
    config = ProtectionConfig(seed=4, level=50)
    first = serialize(virtualize_module(module, config))
    formatted = []
    real = bundle.format_function
    monkeypatch.setattr(bundle, "format_function",
                        lambda fn: formatted.append(fn) or real(fn))
    built = virtualize_module(module, config)
    assert serialize(built) == first
    plain = [f for f in built.functions if isinstance(f, PlainFunction)]
    assert plain and formatted == []
    assert [p.text for p in plain] == [real(p.fn) for p in plain]
