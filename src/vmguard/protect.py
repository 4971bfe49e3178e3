"""Top-level protection pipeline: IR module in, executable bundle out.

Randomized decisions all flow from one master generator in a frozen
order (function selection, then checking topology, then one child
generator per transformed function in table order), so a seed pins the
output byte for byte regardless of how the pieces evolve internally.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bundle import (ExternFunction, PlainFunction, ProtectedBundle,
                     VirtFunction)
from .guards import finalize_expected_hashes, inject_guards
from .ir.core import EXTERN_SIGS, IrModule
from .ir.phi import eliminate_phis
from .ir.validate import validate_function, validate_module
from .layout import build_layout, materialize_image
from .lift import encode, lift_function, resolve_branches
from .network import build_checker_network, is_eligible_checker
from .risa import Risa
from .rng import SplitMix64


class ProtectError(Exception):
    pass


@dataclass
class ProtectionConfig:
    seed: int
    level: int = 100              # percent of functions transformed
    guards_per_checkee: int = 2
    enable_guards: bool = True
    optimized_hint: bool = False
    sensitive: tuple[str, ...] | None = None   # explicit list beats level


def _select_functions(names: list[str], level: int, rng) -> list[str]:
    """ceil(level% of the table), drawn uniformly, reported in table
    order."""
    want = -(-level * len(names) // 100)
    chosen = set(rng.sample(names, want))
    return [n for n in names if n in chosen]


def _named_functions(names: list[str],
                     wanted: tuple[str, ...]) -> list[str]:
    if not wanted:
        raise ProtectError("sensitive selection is empty")
    unknown = [n for n in wanted if n not in names]
    if unknown:
        raise ProtectError(
            f"no function named @{unknown[0]}; available: "
            + ", ".join("@" + n for n in names))
    chosen = set(wanted)
    return [n for n in names if n in chosen]


def virtualize_module(module: IrModule,
                      config: ProtectionConfig) -> ProtectedBundle:
    problems = validate_module(module)
    if problems:
        raise ProtectError("module does not validate: " + "; ".join(problems))
    if not module.functions:
        raise ProtectError("module has no functions")
    if not 1 <= config.level <= 100:
        raise ProtectError(f"protection level {config.level} outside "
                           "[1, 100]")
    if config.guards_per_checkee < 0:
        raise ProtectError("guards-per-checkee must be non-negative")

    flat = eliminate_phis(module)
    # the functions phi elimination returned unchanged validated above
    leftover = [problem
                for fn, before in zip(flat.functions, module.functions)
                if fn is not before for problem in validate_function(fn, flat)]
    if leftover:
        raise ProtectError("lowered module does not validate: "
                           + "; ".join(leftover))

    names = [fn.name for fn in flat.functions]
    master = SplitMix64(config.seed)
    if config.sensitive is not None:
        virt_names = _named_functions(names, tuple(config.sensitive))
    else:
        virt_names = _select_functions(names, config.level, master)
    virt_set = set(virt_names)

    eligible = {fn.name for fn in flat.functions
                if fn.name in virt_set and is_eligible_checker(fn)}
    edges = []
    if config.enable_guards and config.guards_per_checkee > 0:
        edges = build_checker_network(virt_names, eligible,
                                      config.guards_per_checkee, master)
    checkees_of: dict[str, list[str]] = {}
    for e in edges:
        checkees_of.setdefault(e.checker, []).append(e.checkee)

    used_externs = sorted({ins.callee
                           for fn in flat.functions
                           for ins in fn.instructions()
                           if ins.kind == "call"
                           and ins.callee in EXTERN_SIGS})
    table_index = {n: i for i, n in enumerate(names)}
    for name in used_externs:
        table_index[name] = len(table_index)

    functions: list = []
    for fn in flat.functions:
        if fn.name not in virt_set:
            functions.append(PlainFunction(fn.name, fn))
            continue
        child = master.spawn()
        risa = Risa()
        try:
            lay = build_layout(fn)
            records = lift_function(fn, risa, lay, child, table_index)
            if checkees_of.get(fn.name):
                inject_guards(fn.name, records, checkees_of[fn.name],
                              risa, lay, child, table_index)
            resolve_branches(fn.name, records)
            vpa = encode(fn.name, records)
        except Exception as err:
            raise ProtectError(f"lowering @{fn.name} failed: {err}") from err
        functions.append(VirtFunction(fn.name, risa, vpa,
                                      materialize_image(lay),
                                      list(lay.param_slots), lay.ret_slot))
    for name in used_externs:
        functions.append(ExternFunction(name))

    if "main" in table_index and "main" in set(names):
        entry_index = table_index["main"]
    else:
        entry_index = 0

    bundle = ProtectedBundle(
        functions=functions,
        entry_index=entry_index,
        edges=[(table_index[e.checker], table_index[e.checkee])
               for e in edges],
        seed=config.seed,
        optimized_hint=config.optimized_hint,
    )
    finalize_expected_hashes(bundle)
    return bundle
