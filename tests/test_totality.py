"""Totality of loading and running: any bit-flipped or truncated bundle of
a corpus program ends in a `BundleError` from `deserialize` or in an
`ExecutionResult` under both engines, and `vmguard run` maps every such
input to one of its documented exit codes."""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from vmguard.bundle import BundleError, ExternFunction, deserialize, serialize
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


def _runnable(bundle) -> bool:
    """False for a bundle the engines refuse up front with ValueError: no
    entry, or an entry that is an intrinsic."""
    return (bundle.entry_index is not None and not isinstance(
        bundle.functions[bundle.entry_index], ExternFunction))


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
        if not _runnable(bundle):
            with pytest.raises(ValueError):
                engine(bundle, inputs, step_limit=limit)
            continue
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
