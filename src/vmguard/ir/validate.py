"""Structural and type checking for IR modules.

`validate_module` returns a list of human-readable violations instead of
raising, so callers can surface all problems at once.  An empty list means
the module is well formed.

Definedness is checked with a forward dataflow pass (intersection over
predecessors), so a use is accepted exactly when its definition occurs on
every path from entry.  Allocation handles are second class: an alloca
result may appear only as the base operand of load/store in the same
function, which is what lets both execution engines bound-check identically.
"""

from __future__ import annotations

from ..arith import TERMINATORS
from .core import (BINARY_KINDS, CAST_KINDS, EXTERN_SIGS, ICMP_PREDICATES,
                   Block, Instruction, IrFunction, IrModule, TypeTag)

MAX_ALLOCA_COUNT = 65534


def _signatures(module: IrModule) -> dict:
    """(parameter types, return type) of each name a call can reach: the
    first of the module's functions so named, else the intrinsic."""
    return {**EXTERN_SIGS, **{fn.name: (tuple(t for _, t in fn.params), fn.ret)
                              for fn in reversed(module.functions)}}


class _FunctionChecker:
    def __init__(self, fn: IrFunction, signatures: dict) -> None:
        self.fn = fn
        self.signatures = signatures
        self.violations: list[str] = []
        self.defs: dict[str, Instruction | None] = {}   # id -> defining instr
        self.types: dict[str, TypeTag] = {}
        self.allocas: set[str] = set()
        self.bit: dict[str, int] = {}          # id -> its bit, in defs order
        self.block_defs: dict[str, int] = {}   # label -> mask of its ids
        self.preds: dict[str, list[str]] = {b.label: [] for b in fn.blocks}

    def bad(self, message: str) -> None:
        self.violations.append(f"@{self.fn.name}: {message}")

    # -------------------------------------------------- shapes and defs

    def scan(self) -> None:
        """One pass over the blocks for their shape, predecessors and
        definitions.  Reports the label and entry-branch rules, then each
        block's shape, then duplicate definitions."""
        fn, defs, types, bit = self.fn, self.defs, self.types, self.bit
        dups, shapes = [], []
        for name, tag in fn.params:
            if name in defs:
                dups.append(f"duplicate definition of %{name}")
            defs[name] = None
            types[name] = tag
            bit.setdefault(name, 1 << len(bit))
        if not fn.blocks:
            self.bad("function has no blocks")
        else:
            labels = {b.label for b in fn.blocks}
            if len(labels) != len(fn.blocks):
                self.bad("duplicate block label")
            entry_label = fn.blocks[0].label
        for block in fn.blocks:
            body, mask, misplaced, seen_non_phi = block.instructions, 0, 0, 0
            if not body:
                shapes.append(f"block %{block.label} missing terminator")
            elif body[-1].kind in TERMINATORS:
                for lbl in body[-1].labels:
                    if lbl == entry_label:
                        self.bad(f"branch from %{block.label} targets the "
                                 "entry block")
                    if lbl in self.preds:
                        self.preds[lbl].append(block.label)
            else:
                shapes.append(f"block %{block.label} missing terminator")
            terminators = 0
            for ins in body:
                kind, result = ins.kind, ins.result
                if kind == "phi":
                    misplaced |= seen_non_phi
                else:
                    seen_non_phi = 1
                    terminators += kind in TERMINATORS
                if result is None:
                    continue
                if result in defs:      # which has the keys of `bit`
                    dups.append(f"duplicate definition of %{result}")
                    mask |= bit[result]
                    continue
                bit[result] = 1 << len(bit)
                mask |= bit[result]
                defs[result] = ins
                if kind == "icmp":
                    types[result] = TypeTag.I1
                elif kind == "alloca":
                    self.allocas.add(result)
                elif ins.type is not None:
                    types[result] = ins.type
            self.block_defs[block.label] = mask
            if not body:
                continue
            for _ in range(terminators - (body[-1].kind in TERMINATORS)):
                shapes.append(f"block %{block.label} has terminator before "
                              "its last instruction")
            for lbl in body[-1].labels:
                if lbl not in labels:
                    shapes.append(f"branch to undefined label %{lbl}")
            seen_non_phi = 0
            for ins in body if misplaced else ():
                if ins.kind != "phi":
                    seen_non_phi = 1
                elif seen_non_phi:
                    shapes.append(f"phi %{ins.result} not at head of block "
                                  f"%{block.label}")
        for message in shapes + dups:
            self.bad(message)

    # -------------------------------------------------- per-instruction

    def require_type(self, ins: Instruction, name: str, tag: TypeTag,
                     role: str) -> None:
        got = self.types.get(name)
        if got is tag and tag is not None:     # no alloca has a type
            return
        if name in self.allocas:
            self.bad(f"%{name} is an allocation handle, "
                     f"not usable as {role} of {ins.kind}")
            return
        if got is None:
            if name not in self.defs:
                self.bad(f"use of undefined value %{name}")
            return
        if got != tag:
            self.bad(f"{role} of {ins.kind} %{ins.result or '?'} has type "
                     f"{got.text}, expected {tag.text}")

    def check_const(self, block: Block, ins: Instruction) -> None:
        if ins.value is None or not 0 <= ins.value < (1 << ins.type.bits):
            self.bad(f"const %{ins.result} value out of range "
                     f"for {ins.type.text}")

    def check_binary(self, block: Block, ins: Instruction) -> None:
        if ins.kind == "icmp" and ins.predicate not in ICMP_PREDICATES:
            self.bad(f"icmp %{ins.result} has unknown predicate")
        a, b = ins.operands
        if self.types.get(a) is self.types.get(b) is ins.type is not None:
            return                      # both typed as the instruction is
        self.require_type(ins, a, ins.type, "left operand")
        self.require_type(ins, b, ins.type, "right operand")

    def check_select(self, block: Block, ins: Instruction) -> None:
        c, a, b = ins.operands
        self.require_type(ins, c, TypeTag.I1, "condition")
        self.require_type(ins, a, ins.type, "true arm")
        self.require_type(ins, b, ins.type, "false arm")

    def check_cast(self, block: Block, ins: Instruction) -> None:
        k = ins.kind
        src = self.types.get(ins.operands[0])
        if ins.operands[0] in self.allocas:
            self.bad(f"%{ins.operands[0]} is an allocation handle, "
                     f"not usable as operand of {k}")
        elif src is None:
            if ins.operands[0] not in self.defs:
                self.bad(f"use of undefined value %{ins.operands[0]}")
        elif k == "trunc":
            if src.bits <= ins.type.bits:
                self.bad(f"trunc %{ins.result} does not narrow "
                         f"({src.text} to {ins.type.text})")
        else:
            if src.bits >= ins.type.bits:
                self.bad(f"{k} %{ins.result} does not widen "
                         f"({src.text} to {ins.type.text})")

    def check_alloca(self, block: Block, ins: Instruction) -> None:
        if ins.count is None or not 1 <= ins.count <= MAX_ALLOCA_COUNT:
            self.bad(f"alloca %{ins.result} element count {ins.count} "
                     f"outside [1, {MAX_ALLOCA_COUNT}]")
        if block.label != self.fn.blocks[0].label:
            # entry executes exactly once per activation, which keeps
            # fresh-storage semantics identical to fixed VM regions
            self.bad(f"alloca %{ins.result} outside the entry block")

    def check_memory(self, block: Block, ins: Instruction) -> None:
        k = ins.kind
        if k == "load":
            base, idx = ins.operands[0], ins.operands[1]
        else:
            val, base, idx = ins.operands
            self.require_type(ins, val, ins.type, "stored value")
        base_def = self.defs.get(base)
        if base not in self.defs:
            self.bad(f"use of undefined value %{base}")
        elif base_def is None or base_def.kind != "alloca":
            self.bad(f"{k} base %{base} is not an alloca result")
        elif base_def.type != ins.type:
            self.bad(f"{k} element type {ins.type.text} does not match "
                     f"alloca %{base} element type {base_def.type.text}")
        idx_tag = self.types.get(idx)
        if idx not in self.defs:
            self.bad(f"use of undefined value %{idx}")
        elif idx in self.allocas:
            self.bad(f"%{idx} is an allocation handle, "
                     f"not usable as index of {k}")
        elif idx_tag is not None and idx_tag == TypeTag.I1:
            self.bad(f"{k} index %{idx} must be an integer wider than i1")

    def check_call(self, block: Block, ins: Instruction) -> None:
        callee = ins.callee
        if callee not in self.signatures:
            self.bad(f"call to unknown function @{callee}")
            return
        param_tags, ret = self.signatures[callee]
        if len(ins.operands) != len(param_tags):
            self.bad(f"call to @{callee} passes {len(ins.operands)} "
                     f"arguments, expected {len(param_tags)}")
            return
        for arg, tag in zip(ins.operands, param_tags):
            if self.types.get(arg) is not tag or tag is None:
                self.require_type(ins, arg, tag, f"argument to @{callee}")
        if ins.result is not None:
            if ret is None:
                self.bad(f"call to void @{callee} binds a result")
            elif ins.type != ret:
                self.bad(f"call to @{callee} binds {ins.type.text}, "
                         f"function returns {ret.text}")
        # a void-bound call to a value-returning function just drops the value

    def check_phi(self, block: Block, ins: Instruction) -> None:
        preds = self.preds.get(block.label, [])
        arm_labels = [lbl for _, lbl in ins.phi_args]
        if arm_labels != preds and sorted(arm_labels) != sorted(preds):
            self.bad(f"phi %{ins.result} arms {sorted(arm_labels)} do not "
                     f"match predecessors {sorted(preds)} "
                     f"of block %{block.label}")
        for value, _ in ins.phi_args:
            self.require_type(ins, value, ins.type, "phi arm")

    def check_brcond(self, block: Block, ins: Instruction) -> None:
        self.require_type(ins, ins.operands[0], TypeTag.I1, "condition")

    def check_ret(self, block: Block, ins: Instruction) -> None:
        if ins.operands:
            if self.fn.ret is None:
                self.bad("ret carries a value in a void function")
            else:
                self.require_type(ins, ins.operands[0], self.fn.ret,
                                  "return value")
        elif self.fn.ret is not None:
            self.bad(f"ret void in function returning {self.fn.ret.text}")

    # the check of each instruction kind
    CHECKS = {**dict.fromkeys((*BINARY_KINDS, "icmp"), check_binary),
              "const": check_const, "select": check_select,
              **dict.fromkeys(CAST_KINDS, check_cast), "alloca": check_alloca,
              "load": check_memory, "store": check_memory, "call": check_call,
              "phi": check_phi, "brcond": check_brcond, "ret": check_ret,
              "br": lambda self, block, ins: None}

    # -------------------------------------------------- definedness

    def dataflow(self):
        """Forward dataflow for definedness: a use is legal when the
        definition is present on every path from entry, and a phi arm when
        it is at the end of its predecessor.  Sets of ids are masks of
        `bit`s.  Returns each label's exit state and the entry state of a
        block."""
        fn, bit, block_defs, preds = self.fn, self.bit, self.block_defs, \
            self.preds
        all_ids = (1 << len(bit)) - 1
        param_ids = 0
        for name, _ in fn.params:
            param_ids |= bit[name]

        out_sets = {b.label: all_ids for b in fn.blocks}
        entry_label = fn.blocks[0].label

        def entry_state(b) -> int:
            if b.label == entry_label:
                return param_ids
            state = all_ids                    # unreachable: vacuous
            for p in preds[b.label]:
                state &= out_sets[p]
            return state

        changed = True
        while changed:
            changed = False
            for b in fn.blocks:
                new_out = entry_state(b) | block_defs[b.label]
                if new_out != out_sets[b.label]:
                    out_sets[b.label] = new_out
                    changed = True
        return out_sets, entry_state

    # -------------------------------------------------- driver

    def run(self) -> list[str]:
        """The shape checks, then each instruction's check by its kind,
        then the uses that some path reaches before their definition."""
        self.scan()
        if any("missing terminator" in v or "no blocks" in v
               for v in self.violations):
            return self.violations
        out_sets, entry_state = self.dataflow()
        checks, bit, late = self.CHECKS, self.bit, []
        for b in self.fn.blocks:
            live = entry_state(b)
            for ins in b.instructions:
                kind = ins.kind
                check = checks.get(kind)
                if check is None:
                    self.bad(f"unknown instruction kind {kind!r}")
                else:
                    check(self, b, ins)
                if kind == "phi":
                    for value, lbl in ins.phi_args:
                        if lbl in out_sets and value in bit \
                                and not out_sets[lbl] & bit[value]:
                            late.append(f"phi %{ins.result} arm %{value} not "
                                        f"defined at end of block %{lbl}")
                else:
                    for use in ins.operands:
                        if (mask := bit.get(use)) and not live & mask:
                            late.append(f"%{use} used in block %{b.label} "
                                        "before definition on some path")
                if ins.result is not None:
                    live |= bit[ins.result]
        for message in late:
            self.bad(message)
        return self.violations


def validate_function(fn: IrFunction, module: IrModule) -> list[str]:
    return _FunctionChecker(fn, _signatures(module)).run()


def validate_module(module: IrModule) -> list[str]:
    violations: list[str] = []
    seen: set[str] = set()
    for fn in module.functions:
        if fn.name in seen:
            violations.append(f"duplicate function name @{fn.name}")
        seen.add(fn.name)
        if fn.name in EXTERN_SIGS:
            violations.append(f"@{fn.name} shadows an intrinsic")
    signatures = _signatures(module)
    for fn in module.functions:
        violations.extend(_FunctionChecker(fn, signatures).run())
    return violations
