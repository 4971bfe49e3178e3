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

from .core import (BINARY_KINDS, CAST_KINDS, EXTERN_SIGS, ICMP_PREDICATES,
                   Block, Instruction, IrFunction, IrModule, TypeTag)

MAX_ALLOCA_COUNT = 65534


def _successors(block: Block) -> tuple[str, ...]:
    if not block.instructions:
        return ()
    last = block.instructions[-1]
    return last.labels if last.is_terminator else ()


def _predecessors(fn: IrFunction) -> dict[str, list[str]]:
    preds: dict[str, list[str]] = {b.label: [] for b in fn.blocks}
    for b in fn.blocks:
        for succ in _successors(b):
            if succ in preds:
                preds[succ].append(b.label)
    return preds


class _FunctionChecker:
    def __init__(self, fn: IrFunction, module: IrModule) -> None:
        self.fn = fn
        self.module = module
        self.violations: list[str] = []
        self.defs: dict[str, Instruction | None] = {}   # id -> defining instr
        self.types: dict[str, TypeTag] = {}
        self.allocas: set[str] = set()

    def bad(self, message: str) -> None:
        self.violations.append(f"@{self.fn.name}: {message}")

    # -------------------------------------------------- def collection

    def collect_defs(self) -> None:
        for name, tag in self.fn.params:
            if name in self.defs:
                self.bad(f"duplicate definition of %{name}")
            self.defs[name] = None
            self.types[name] = tag
        for ins in self.fn.instructions():
            if ins.result is None:
                continue
            if ins.result in self.defs:
                self.bad(f"duplicate definition of %{ins.result}")
                continue
            self.defs[ins.result] = ins
            if ins.kind == "icmp":
                self.types[ins.result] = TypeTag.I1
            elif ins.kind == "alloca":
                self.allocas.add(ins.result)
            elif ins.type is not None:
                self.types[ins.result] = ins.type

    # -------------------------------------------------- shape checks

    def check_blocks(self) -> None:
        fn = self.fn
        if not fn.blocks:
            self.bad("function has no blocks")
            return
        labels = {b.label for b in fn.blocks}
        if len(labels) != len(fn.blocks):
            self.bad("duplicate block label")
        entry_label = fn.blocks[0].label
        for block in fn.blocks:
            for lbl in _successors(block):
                if lbl == entry_label:
                    self.bad(f"branch from %{block.label} targets the "
                             "entry block")
        for block in fn.blocks:
            if not block.instructions:
                self.bad(f"block %{block.label} missing terminator")
                continue
            if not block.terminator.is_terminator:
                self.bad(f"block %{block.label} missing terminator")
            for ins in block.instructions[:-1]:
                if ins.is_terminator:
                    self.bad(f"block %{block.label} has terminator "
                             "before its last instruction")
            for lbl in block.terminator.labels:
                if lbl not in labels:
                    self.bad(f"branch to undefined label %{lbl}")
            seen_non_phi = False
            for ins in block.instructions:
                if ins.kind == "phi":
                    if seen_non_phi:
                        self.bad(f"phi %{ins.result} not at head "
                                 f"of block %{block.label}")
                else:
                    seen_non_phi = True

    # -------------------------------------------------- per-instruction

    def operand_type(self, name: str) -> TypeTag | None:
        return self.types.get(name)

    def require_type(self, ins: Instruction, name: str, tag: TypeTag,
                     role: str) -> None:
        if name in self.allocas:
            self.bad(f"%{name} is an allocation handle, "
                     f"not usable as {role} of {ins.kind}")
            return
        got = self.operand_type(name)
        if got is None:
            if name not in self.defs:
                self.bad(f"use of undefined value %{name}")
            return
        if got != tag:
            self.bad(f"{role} of {ins.kind} %{ins.result or '?'} has type "
                     f"{got.text}, expected {tag.text}")

    def check_instruction(self, block: Block, ins: Instruction) -> None:
        k = ins.kind
        if k == "const":
            if ins.value is None or not 0 <= ins.value < (1 << ins.type.bits):
                self.bad(f"const %{ins.result} value out of range "
                         f"for {ins.type.text}")
        elif k in BINARY_KINDS:
            a, b = ins.operands
            self.require_type(ins, a, ins.type, "left operand")
            self.require_type(ins, b, ins.type, "right operand")
        elif k == "icmp":
            if ins.predicate not in ICMP_PREDICATES:
                self.bad(f"icmp %{ins.result} has unknown predicate")
            a, b = ins.operands
            self.require_type(ins, a, ins.type, "left operand")
            self.require_type(ins, b, ins.type, "right operand")
        elif k == "select":
            c, a, b = ins.operands
            self.require_type(ins, c, TypeTag.I1, "condition")
            self.require_type(ins, a, ins.type, "true arm")
            self.require_type(ins, b, ins.type, "false arm")
        elif k in CAST_KINDS:
            src = self.operand_type(ins.operands[0])
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
        elif k == "alloca":
            if ins.count is None or not 1 <= ins.count <= MAX_ALLOCA_COUNT:
                self.bad(f"alloca %{ins.result} element count {ins.count} "
                         f"outside [1, {MAX_ALLOCA_COUNT}]")
            if block.label != self.fn.blocks[0].label:
                # entry executes exactly once per activation, which keeps
                # fresh-storage semantics identical to fixed VM regions
                self.bad(f"alloca %{ins.result} outside the entry block")
        elif k in ("load", "store"):
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
            idx_tag = self.operand_type(idx)
            if idx not in self.defs:
                self.bad(f"use of undefined value %{idx}")
            elif idx in self.allocas:
                self.bad(f"%{idx} is an allocation handle, "
                         f"not usable as index of {k}")
            elif idx_tag is not None and idx_tag == TypeTag.I1:
                self.bad(f"{k} index %{idx} must be an integer wider than i1")
        elif k == "call":
            self.check_call(ins)
        elif k == "phi":
            self.check_phi(block, ins)
        elif k == "brcond":
            self.require_type(ins, ins.operands[0], TypeTag.I1, "condition")
        elif k == "ret":
            if ins.operands:
                if self.fn.ret is None:
                    self.bad("ret carries a value in a void function")
                else:
                    self.require_type(ins, ins.operands[0], self.fn.ret,
                                      "return value")
            elif self.fn.ret is not None:
                self.bad(f"ret void in function returning {self.fn.ret.text}")
        elif k == "br":
            pass
        else:
            self.bad(f"unknown instruction kind {k!r}")

    def check_call(self, ins: Instruction) -> None:
        callee = ins.callee
        if self.module.has_function(callee):
            target = self.module.function(callee)
            param_tags = tuple(t for _, t in target.params)
            ret = target.ret
        elif callee in EXTERN_SIGS:
            param_tags, ret = EXTERN_SIGS[callee]
        else:
            self.bad(f"call to unknown function @{callee}")
            return
        if len(ins.operands) != len(param_tags):
            self.bad(f"call to @{callee} passes {len(ins.operands)} "
                     f"arguments, expected {len(param_tags)}")
            return
        for arg, tag in zip(ins.operands, param_tags):
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
        if sorted(arm_labels) != sorted(preds):
            self.bad(f"phi %{ins.result} arms {sorted(arm_labels)} do not "
                     f"match predecessors {sorted(preds)} "
                     f"of block %{block.label}")
        for value, _ in ins.phi_args:
            self.require_type(ins, value, ins.type, "phi arm")

    # -------------------------------------------------- definedness

    def check_definedness(self) -> None:
        """Forward dataflow: a use is legal when the definition is present on
        every path from entry.  Phi arms are checked against the exit state
        of their predecessor instead.  Sets of ids are bit masks over the
        order of `defs`."""
        fn = self.fn
        if not fn.blocks:
            return
        bit = {name: 1 << i for i, name in enumerate(self.defs)}
        all_ids = (1 << len(bit)) - 1
        param_ids = 0
        for name, _ in fn.params:
            param_ids |= bit[name]
        block_defs = {}
        for b in fn.blocks:
            mask = 0
            for i in b.instructions:
                if i.result is not None:
                    mask |= bit[i.result]
            block_defs[b.label] = mask

        out_sets = {b.label: all_ids for b in fn.blocks}
        entry_label = fn.blocks[0].label

        def entry_state(b) -> int:
            if b.label == entry_label:
                return param_ids
            state = all_ids                    # unreachable: vacuous
            for p in self.preds[b.label]:
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

        for b in fn.blocks:
            live = entry_state(b)
            for ins in b.instructions:
                if ins.kind == "phi":
                    for value, lbl in ins.phi_args:
                        if lbl in out_sets and value in bit \
                                and not out_sets[lbl] & bit[value]:
                            self.bad(f"phi %{ins.result} arm %{value} not "
                                     f"defined at end of block %{lbl}")
                else:
                    for use in ins.operands:
                        if use in bit and not live & bit[use]:
                            self.bad(f"%{use} used in block %{b.label} "
                                     "before definition on some path")
                if ins.result is not None:
                    live |= bit[ins.result]

    # -------------------------------------------------- driver

    def run(self) -> list[str]:
        self.preds = _predecessors(self.fn)
        self.check_blocks()
        self.collect_defs()
        structurally_ok = not any("missing terminator" in v or
                                  "no blocks" in v for v in self.violations)
        if structurally_ok:
            for block in self.fn.blocks:
                for ins in block.instructions:
                    self.check_instruction(block, ins)
            self.check_definedness()
        return self.violations


def validate_function(fn: IrFunction, module: IrModule) -> list[str]:
    return _FunctionChecker(fn, module).run()


def validate_module(module: IrModule) -> list[str]:
    violations: list[str] = []
    seen: set[str] = set()
    for fn in module.functions:
        if fn.name in seen:
            violations.append(f"duplicate function name @{fn.name}")
        seen.add(fn.name)
        if fn.name in EXTERN_SIGS:
            violations.append(f"@{fn.name} shadows an intrinsic")
    for fn in module.functions:
        violations.extend(validate_function(fn, module))
    return violations
