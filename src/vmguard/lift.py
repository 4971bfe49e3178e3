"""Lowering from block IR to per-function encoded records.

Each instruction becomes one record: an opcode followed by 16-bit
operands; offsets into the function's memory image for values, region
bounds for memory access, table indices for calls.  The operands depend
on the function and its layout alone, so `lift_function` works them out
once per function, as templates whose opcode elements are left empty.
Each protection draw then writes its stream straight from the templates
with `encode`, in one pass: the draw's opcodes go in, its guards go
before the records they were placed at, and every branch target, a
0xFFFF placeholder in the template, is patched to the first element of
its block once the final order is known.
"""

from __future__ import annotations

from dataclasses import dataclass
from array import array

from .ir.core import IrFunction
from .ir.interp import value_tags
from .layout import VmLayout
from .risa import (BASE, BRANCH_PLACEHOLDER, CELL, COUNT, OPCODE_SPACE,
                   RESULT, TARGET, HandlerSpec, spec_for_instruction)

MAX_STREAM_ELEMENTS = 0xFFFE


class LiftError(Exception):
    pass


@dataclass(slots=True)
class LiftRecord:
    """One lift template: the block it lowers from, its handler, its
    elements with the opcode and branch targets left as placeholders, and
    the labels of its branch targets.  Every draw encodes from it and
    leaves it as it is."""
    block: str
    spec: HandlerSpec
    elements: tuple[int, ...]
    targets: tuple[str, ...] = ()


def lift_function(fn: IrFunction, lay: VmLayout,
                  callee_index: dict[str, int]) -> list[LiftRecord]:
    """One template record per instruction, its elements in the order of
    the spec's layout: cells take the IR operands in turn, a region base
    takes the next operand's region, branch targets get placeholders.  The
    opcode element holds `OPCODE_SPACE`, which names no handler; `encode`
    writes each draw's opcode in its place."""
    tag = value_tags(fn).__getitem__
    slots = lay.slots
    records: list[LiftRecord] = []

    for block in fn.blocks:
        label = block.label
        for ins in block.instructions:
            spec = spec_for_instruction(ins, tag)
            elems = [OPCODE_SPACE]
            operands = iter(ins.operands)
            for role, _ in spec.layout:
                if role == CELL:
                    elems.append(slots[next(operands)][0])
                elif role == RESULT:
                    elems.append(slots[ins.result][0])
                elif role == BASE:
                    start, count, _ = lay.regions[next(operands)]
                    elems.append(start)
                elif role == COUNT:
                    elems.append(count)
                elif role == TARGET:
                    elems.append(BRANCH_PLACEHOLDER)
                else:           # CALLEE; guards are woven in later
                    try:
                        elems.append(callee_index[ins.callee])
                    except KeyError:
                        raise LiftError(
                            f"@{fn.name}: call target @{ins.callee} has no "
                            "table index") from None
            records.append(LiftRecord(label, spec, tuple(elems),
                                      ins.labels))
    return records


def encode(fn_name: str, templates: list[LiftRecord],
           opcode_of: dict[int, int],
           guards: dict[int, list[list[int]]]) -> array:
    """One draw's stream, in one pass over the templates: each template's
    elements with its opcode from `opcode_of`, preceded by the guards keyed
    by its index.  A branch target is patched to the first element of its
    block, so a guard placed before a block's first record heads it."""
    flat: list[int] = []
    head_of: dict[str, int] = {}
    branches: list[tuple[int, str]] = []
    for i, rec in enumerate(templates):
        if rec.block not in head_of:
            head_of[rec.block] = len(flat)
        for elems in guards.get(i, ()):
            flat += elems
        start = len(flat)
        flat += rec.elements
        flat[start] = opcode_of[rec.spec.number]
        if rec.targets:
            for pos, label in zip(rec.spec.targets, rec.targets):
                branches.append((start + 1 + pos, label))
    for at, label in branches:
        if label not in head_of:
            raise LiftError(f"@{fn_name}: branch targets block "
                            f"%{label} which lowered to no records")
        flat[at] = head_of[label]
    if len(flat) > MAX_STREAM_ELEMENTS:
        raise LiftError(f"@{fn_name}: encoded stream needs {len(flat)} "
                        f"elements, beyond the {MAX_STREAM_ELEMENTS} cap")
    try:
        return array("H", flat)
    except OverflowError:
        bad = next(e for e in flat if not 0 <= e <= 0xFFFF)
        raise LiftError(f"@{fn_name}: element value {bad} does not fit "
                        "16 bits") from None
