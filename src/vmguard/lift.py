"""Lowering from block IR to per-function encoded records.

Each instruction becomes one record: an opcode followed by 16-bit
operands; offsets into the function's memory image for values, region
bounds for memory access, table indices for calls.  The operands depend
on the function and its layout alone, so `lift_function` works them out
once per function, as a template whose opcode elements are left empty;
each protection draw copies the template and fills in freshly drawn (or
reused) opcodes with `assign_opcodes`.  Branch targets cannot be known
until guard placement settles the final record order, so they are
emitted as 0xFFFF placeholders and patched once the stream is frozen.
"""

from __future__ import annotations

from dataclasses import dataclass
from array import array

from .ir.core import IrFunction
from .ir.interp import value_tags
from .layout import VmLayout
from .risa import (BASE, BRANCH_PLACEHOLDER, CELL, COUNT, OPCODE_SPACE,
                   RESULT, TARGET, HandlerSpec, Risa, spec_for_instruction)

MAX_STREAM_ELEMENTS = 0xFFFE


class LiftError(Exception):
    pass


@dataclass(slots=True)
class LiftRecord:
    """One record: the block it lowers from, its handler, its elements and
    the labels of its branch targets.  A lift template's elements are a
    tuple, kept for every draw; a draw's are a list it may patch."""
    block: str
    spec: HandlerSpec
    elements: list[int] | tuple[int, ...]
    targets: tuple[str, ...] = ()


def lift_function(fn: IrFunction, lay: VmLayout,
                  callee_index: dict[str, int]) -> list[LiftRecord]:
    """One template record per instruction, its elements in the order of
    the spec's layout: cells take the IR operands in turn, a region base
    takes the next operand's region, branch targets get placeholders.  The
    opcode element holds `OPCODE_SPACE`, which names no handler, until
    `assign_opcodes` fills it in."""
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


def assign_opcodes(templates: list[LiftRecord], risa: Risa,
                   rng) -> list[LiftRecord]:
    """One draw's records: a copy of each template with its opcode drawn
    from `rng` into `risa`, in record order.  The templates stay as they
    were, ready for the next draw."""
    opcode_of, opcode_for = risa.opcode_of, risa.opcode_for
    records = []
    for tmpl in templates:
        spec = tmpl.spec
        elems = list(tmpl.elements)
        # most records reuse an opcode; only a new signature draws one
        opc = opcode_of.get(spec.number)
        elems[0] = opcode_for(spec, rng) if opc is None else opc
        records.append(LiftRecord(tmpl.block, spec, elems, tmpl.targets))
    return records


def record_offsets(records: list[LiftRecord]) -> list[int]:
    """Element index where each record starts in the flattened stream."""
    offs = []
    pos = 0
    for rec in records:
        offs.append(pos)
        pos += len(rec.elements)
    return offs


def resolve_branches(fn_name: str, records: list[LiftRecord]) -> None:
    """Patch branch placeholders with the element index of the first record
    of the target block.  Must run after guard placement: a guard placed at
    a block head becomes that block's entry record."""
    offs = record_offsets(records)
    first_of_block: dict[str, int] = {}
    for rec, off in zip(records, offs):
        first_of_block.setdefault(rec.block, off)

    for rec in records:
        if not rec.targets:
            continue
        for pos, label in zip(rec.spec.targets, rec.targets):
            if label not in first_of_block:
                raise LiftError(f"@{fn_name}: branch targets block "
                                f"%{label} which lowered to no records")
            rec.elements[1 + pos] = first_of_block[label]


def encode(fn_name: str, records: list[LiftRecord]) -> array:
    flat: list[int] = []
    for rec in records:
        if len(rec.elements) != rec.spec.record_len:
            raise LiftError(f"@{fn_name}: {rec.spec.kind} record has "
                            f"{len(rec.elements)} elements, expected "
                            f"{rec.spec.record_len}")
        flat.extend(rec.elements)
    if len(flat) > MAX_STREAM_ELEMENTS:
        raise LiftError(f"@{fn_name}: encoded stream needs {len(flat)} "
                        f"elements, beyond the {MAX_STREAM_ELEMENTS} cap")
    try:
        return array("H", flat)
    except OverflowError:
        bad = next(e for e in flat if not 0 <= e <= 0xFFFF)
        raise LiftError(f"@{fn_name}: element value {bad} does not fit "
                        "16 bits") from None
