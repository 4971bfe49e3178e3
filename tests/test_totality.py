"""Totality of loading and running: any bit-flipped or truncated bundle of
a corpus program ends in a `BundleError` from `deserialize` or in an
`ExecutionResult` under both engines, and `vmguard run` maps every such
input to one of its documented exit codes."""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from builders import protect_text
from conftest import corpus_text
from vmguard.bundle import BundleError, deserialize, serialize
from vmguard.cli import EXIT_FAILURE, EXIT_OK, EXIT_TAMPER, EXIT_TRAP, main
from vmguard.ir.core import ExecutionResult
from vmguard.protect import ProtectionConfig, virtualize_module
from vmguard.runtime import execute_secure
from vmguard.threaded import execute_optimized

CORPUS = ("fib", "loop_sum", "qsort", "crc32", "sieve", "strsearch")
LEVELS = (50, 100)
EXAMPLES = 120

# (program, level, damage): damage is ("flip", bit positions) or
# ("cut", position); positions wrap around the bundle's length
DAMAGE = st.tuples(
    st.sampled_from(CORPUS), st.sampled_from(LEVELS),
    st.one_of(
        st.tuples(st.just("flip"),
                  st.lists(st.integers(0, 1 << 20), min_size=1,
                           max_size=4)),
        st.tuples(st.just("cut"), st.integers(0, 1 << 20))))


@pytest.fixture(scope="module")
def honest(corpus_flat, manifest):
    """(program, level) -> serialized bundle, tiny inputs and a step limit
    of twenty honest runs, at least 10,000."""
    inputs = {p["name"]: p["inputs"]["tiny"] for p in manifest["programs"]}

    @lru_cache(maxsize=None)
    def build(name, level):
        bundle = virtualize_module(corpus_flat[name],
                                   ProtectionConfig(seed=29, level=level))
        steps = execute_secure(bundle, inputs[name]).steps
        return serialize(bundle), inputs[name], max(steps * 20, 10_000)

    return build


def _damaged(data: bytes, damage) -> bytes:
    kind, where = damage
    if kind == "cut":
        return data[:where % len(data)]
    out = bytearray(data)
    for bit in where:
        bit %= 8 * len(out)
        out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@settings(max_examples=EXAMPLES)
@given(DAMAGE)
def test_damaged_bundles_load_or_run_to_a_result(honest, case):
    name, level, damage = case
    data, inputs, limit = honest(name, level)
    try:
        bundle = deserialize(_damaged(data, damage))
    except BundleError:
        return
    for engine in (execute_secure, execute_optimized):
        assert isinstance(engine(bundle, inputs, step_limit=limit),
                          ExecutionResult)


@settings(max_examples=EXAMPLES // 2)
@given(DAMAGE, st.sampled_from(("secure", "optimized")))
def test_run_maps_damaged_bundles_to_documented_exits(honest,
                                                      tmp_path_factory,
                                                      case, mode):
    name, level, damage = case
    data, inputs, limit = honest(name, level)
    path = tmp_path_factory.mktemp("run") / "damaged.vsc"
    path.write_bytes(_damaged(data, damage))
    rc = main(["run", str(path), *map(str, inputs), "--mode", mode,
               "--step-limit", str(limit)])
    assert rc in (EXIT_OK, EXIT_TRAP, EXIT_TAMPER, EXIT_FAILURE)


@pytest.fixture()
def superscript_source():
    """fib at level 50, seed 0, with `²` as the integer of a const in the
    source of plain @fib; the byte count stays the same."""
    data = serialize(protect_text(corpus_text("fib"), seed=0, level=50))
    honest = b"%two = const i64 2\n"
    assert data.count(honest) == 1
    return data.replace(honest, "%two = const i64 \u00b2".encode())


def test_non_ascii_digit_in_plain_source_is_a_bundle_error(
        superscript_source):
    with pytest.raises(BundleError, match="unexpected character"):
        deserialize(superscript_source)


def test_run_refuses_non_ascii_digit_in_plain_source(superscript_source,
                                                     tmp_path, capsys):
    path = tmp_path / "fib.vsc"
    path.write_bytes(superscript_source)
    assert main(["run", str(path), "8"]) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert "does not parse" in err and "Traceback" not in err


def test_run_maps_an_intrinsic_entry_to_the_tamper_exit(tmp_path, capsys):
    """One flipped bit of the entry index can name an intrinsic; the bundle
    still loads, and running it ends as tamper before the first step."""
    bundle = protect_text(corpus_text("fib"), seed=0, level=50)
    bundle.entry_index = bundle.index_of("print_i64")
    path = tmp_path / "fib.vsc"
    path.write_bytes(serialize(bundle))
    assert main(["run", str(path), "8"]) == EXIT_TAMPER
    assert "tamper detected: invalid reference" in capsys.readouterr().err
