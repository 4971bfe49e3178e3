"""Both engines' runs, and the optimized engine's load check and decode,
pinned on damaged bundles.

`load_pins.json` holds, for each corpus program, protection seed 0-2 and
level 50/100, one sha256 over 120 damaged copies of the bundle, each
with one or two stream elements overwritten: a random 16-bit value, a
small one that may name a cell, or a copy of another element of the same
stream.  Each copy contributes one JSON line: its `execute_optimized`
result on the program's tiny inputs (status, value, output, steps, trap
reason, tamper kind, detail and `at_decode`, and the sorted guard edges)
and its `verify` list.  The file also holds the tally of outcomes over
all 4,320 copies.  Both were written by the loader that gathered each
record's statement arguments in one `if`/`elif` chain over record kinds,
before per-spec readers replaced it.

For seed 0 the file also holds, under `checked`, one sha256 per
`seed/level` over the same copies run by `execute_secure`: status,
value, output, steps, trap reason, tamper kind and detail, guard
executions and the sorted guard edges.  These were written while the
checked engine still counted its guards through `check_guard`, before
both engines counted them in the same per-edge counter cells.
"""

import hashlib
import json
import pathlib
from collections import Counter

import pytest

from conftest import corpus_text
from vmguard.bundle import VirtFunction, copy_bundle
from vmguard.ir import parse_module
from vmguard.protect import ProtectionConfig, virtualize_module
from vmguard.rng import SplitMix64
from vmguard.runtime import execute_secure
from vmguard.threaded import execute_optimized, verify

PROGRAMS = ("fib", "loop_sum", "qsort", "crc32", "sieve", "strsearch")
SEEDS = (0, 1, 2)
CHECKED_SEEDS = (0,)
LEVELS = (50, 100)
COPIES = 120
PINS = json.loads((pathlib.Path(__file__).resolve().parent
                   / "load_pins.json").read_text())


def _damaged(bundle, rng):
    """A copy of `bundle` with one or two stream elements overwritten."""
    copy = copy_bundle(bundle)
    streams = [fn for fn in copy.functions if isinstance(fn, VirtFunction)]
    for _ in range(1 + rng.randrange(2)):
        fn = rng.choice(streams)
        at, how = rng.randrange(len(fn.vpa)), rng.randrange(3)
        fn.vpa[at] = (rng.randrange(0x10000) if how == 0 else
                      rng.randrange(len(fn.image) + 8) if how == 1 else
                      rng.choice(fn.vpa))
    return copy


def _case(copy, inputs, step_limit) -> tuple[str, str]:
    """One damaged copy's JSON line and its outcome."""
    problems = verify(copy)
    result = execute_optimized(copy, inputs, step_limit)
    cause = result.tamper_cause
    tamper = (None, None, None) if cause is None else (
        cause.kind, cause.detail, cause.at_decode)
    line = json.dumps([result.status, result.value, result.output,
                       result.steps, result.trap_reason, *tamper,
                       sorted(map(list, result.guard_edges.items())),
                       problems])
    outcome = result.status + (" at decode" if tamper[2] else "")
    return line, outcome


def _checked_line(copy, inputs, step_limit) -> str:
    """One damaged copy's JSON line under the checked engine."""
    result = execute_secure(copy, inputs, step_limit)
    cause = result.tamper_cause
    return json.dumps([result.status, result.value, result.output,
                       result.steps, result.trap_reason,
                       *((None, None) if cause is None
                         else (cause.kind, cause.detail)),
                       result.guard_execs,
                       sorted(map(list, result.guard_edges.items()))])


def pinned_cases(name: str, inputs) -> tuple[dict[str, str], dict[str, str],
                                             Counter]:
    """sha256 of the cases' lines by `seed/level`, of their checked-engine
    lines by `seed/level` for the checked seeds, and their outcomes."""
    module = parse_module(corpus_text(name))
    digests, checked, tally = {}, {}, Counter()
    for seed in SEEDS:
        for level in LEVELS:
            bundle = virtualize_module(module, ProtectionConfig(seed=seed,
                                                                level=level))
            honest = execute_optimized(bundle, inputs)
            assert honest.status == "normal"
            step_limit = max(honest.steps * 20, 10_000)
            rng = SplitMix64(1000 * seed + level)
            h, hc = hashlib.sha256(), hashlib.sha256()
            for _ in range(COPIES):
                copy = _damaged(bundle, rng)
                line, outcome = _case(copy, inputs, step_limit)
                h.update(line.encode() + b"\n")
                tally[outcome] += 1
                if seed in CHECKED_SEEDS:
                    hc.update(_checked_line(copy, inputs, step_limit).encode()
                              + b"\n")
            digests[f"{seed}/{level}"] = h.hexdigest()
            if seed in CHECKED_SEEDS:
                checked[f"{seed}/{level}"] = hc.hexdigest()
    return digests, checked, tally


@pytest.fixture(scope="module")
def cases(manifest):
    inputs = {p["name"]: p["inputs"]["tiny"] for p in manifest["programs"]}
    return {name: pinned_cases(name, inputs[name]) for name in PROGRAMS}


@pytest.mark.parametrize("name", PROGRAMS)
def test_damaged_copies_load_and_run_as_pinned(cases, name):
    digests, _, _ = cases[name]
    assert digests == PINS["digests"][name]


@pytest.mark.parametrize("name", PROGRAMS)
def test_damaged_copies_run_as_pinned_under_the_checked_engine(cases, name):
    _, checked, _ = cases[name]
    assert checked == PINS["checked"][name]


def test_the_outcome_tally_is_pinned(cases):
    tally = sum((t for _, _, t in cases.values()), Counter())
    assert sum(tally.values()) == (len(PROGRAMS) * len(SEEDS) * len(LEVELS)
                                   * COPIES)
    assert dict(tally) == PINS["tally"]
