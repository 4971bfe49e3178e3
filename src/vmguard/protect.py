"""Top-level protection pipeline: IR module in, executable bundle out.

Protection has two parts.  The lowering depends on the module alone:
validation, phi elimination and the re-validation of what it replaced,
the function table with its intrinsic entries, the functions able to
host a guard, and, for each function the first time a draw selects it,
its base memory layout and lifted records with the opcodes left empty.
It is worked out once per parsed module and kept on it (`lowering`), so
a module protected under many seeds, levels and arms is lowered once.

The seed decides only the rest: which functions are transformed, the
checking topology, each transformed function's opcodes and its guard
points.  Those draws all flow from one master generator in a frozen
order (function selection, then checking topology, then one child
generator per transformed function in table order, which draws the
opcodes in record order and then the guard points), so a seed pins the
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
from .layout import VmLayout, build_layout, materialize_image
from .lift import assign_opcodes, encode, lift_function, resolve_branches
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


class Lowering:
    """The part of protecting one parsed module that no seed changes.  Get
    it through `lowering`, which keeps it on the module.  Each part is
    worked out where the pipeline first needs it, and a part that fails is
    not kept, so a module that cannot be protected raises the same error,
    after the same configuration checks, on every call.  Nothing here
    refers back to the module, so the module and its lowering go together.
    """

    def __init__(self, module: IrModule) -> None:
        problems = validate_module(module)
        self.problem = None             # why the module cannot be protected
        if problems:
            self.problem = "module does not validate: " + "; ".join(problems)
        elif not module.functions:
            self.problem = "module has no functions"
        self.flat: IrModule | None = None       # phi-free, set by `lower`
        self._lifted: dict[int, tuple[VmLayout, list]] = {}

    def lower(self, module: IrModule) -> IrModule:
        """Phi elimination and the function table, once; returns the
        phi-free module.  Raises ProtectError, each time, when a function
        phi elimination replaced does not validate."""
        if self.flat is not None:
            return self.flat
        flat = eliminate_phis(module)
        # the functions phi elimination returned unchanged validated above
        leftover = [problem
                    for fn, before in zip(flat.functions, module.functions)
                    if fn is not before
                    for problem in validate_function(fn, flat)]
        if leftover:
            raise ProtectError("lowered module does not validate: "
                               + "; ".join(leftover))
        self.names = [fn.name for fn in flat.functions]
        self.eligible = {fn.name for fn in flat.functions
                         if is_eligible_checker(fn)}
        self.used_externs = sorted({ins.callee
                                    for fn in flat.functions
                                    for ins in fn.instructions()
                                    if ins.kind == "call"
                                    and ins.callee in EXTERN_SIGS})
        self.table_index = {n: i for i, n in enumerate(self.names)}
        for name in self.used_externs:
            self.table_index[name] = len(self.table_index)
        # a module of its own even when phi elimination changed nothing,
        # so that nothing here refers back to `module`
        self.flat = IrModule(flat.functions, flat.externs)
        return self.flat

    def lifted(self, i: int) -> tuple[VmLayout, list]:
        """Base layout and lift templates of table entry `i`, worked out on
        its first selection.  A layout or lift failure propagates."""
        done = self._lifted.get(i)
        if done is None:
            fn = self.flat.functions[i]
            lay = build_layout(fn)
            done = self._lifted[i] = (lay, lift_function(fn, lay,
                                                         self.table_index))
        return done


def lowering(module: IrModule) -> Lowering:
    """`module`'s lowering, kept on the frozen module object the way the
    evaluator keeps its caches on a function."""
    low = getattr(module, "_lowering", None)
    if low is None:
        low = Lowering(module)
        object.__setattr__(module, "_lowering", low)
    return low


def virtualize_module(module: IrModule,
                      config: ProtectionConfig) -> ProtectedBundle:
    low = lowering(module)
    if low.problem is not None:
        raise ProtectError(low.problem)
    if not 1 <= config.level <= 100:
        raise ProtectError(f"protection level {config.level} outside "
                           "[1, 100]")
    if config.guards_per_checkee < 0:
        raise ProtectError("guards-per-checkee must be non-negative")
    low.lower(module)

    names, table_index = low.names, low.table_index
    master = SplitMix64(config.seed)
    if config.sensitive is not None:
        virt_names = _named_functions(names, tuple(config.sensitive))
    else:
        virt_names = _select_functions(names, config.level, master)
    virt_set = set(virt_names)

    edges = []
    if config.enable_guards and config.guards_per_checkee > 0:
        edges = build_checker_network(virt_names, virt_set & low.eligible,
                                      config.guards_per_checkee, master)
    checkees_of: dict[str, list[str]] = {}
    for e in edges:
        checkees_of.setdefault(e.checker, []).append(e.checkee)

    functions: list = []
    for i, fn in enumerate(low.flat.functions):
        if fn.name not in virt_set:
            functions.append(PlainFunction(fn.name, fn))
            continue
        child = master.spawn()
        risa = Risa()
        try:
            base, templates = low.lifted(i)
            lay = base.copy()
            records = assign_opcodes(templates, risa, child)
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
    for name in low.used_externs:
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
