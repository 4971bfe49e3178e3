"""Pre-decoding execution engine with a register file.

Each function's encoded stream is decoded once per run into positional
records whose operand cells, type masks and successor links are baked
into closures; the dispatch loop then just indexes a list.  Memory is a
register file rather than a byte image: a list indexed by byte offset in
which every cell and region element the records reference holds its
value as one canonical unsigned int, so a handler is a few list
operations (`vm[r] = (vm[a] + vm[b]) & m`) instead of byte slices.  A
value record's closure comes from `arith.value_closure`, the
register-list template the reference interpreter uses too, filled with
the expression `arith.value_expr` states for its kind.  The register
list is built from the image once per run, at decode time, and each
activation starts from a copy of it.

That removes the per-step opcode lookup, operand fetch, byte conversion
and counter bounds check the checked engine pays for, at the cost of
observing corruption lazily:

  - structural damage (unknown opcode or one whose table entry does not
    fit its kind, truncated record, branch into the middle of a record)
    is refused up front when decoding, with the same signal kinds the
    checked engine raises;
  - so is any cell reference, found through the record's layout, that
    leaves the image, and any pair of references that share a byte
    without naming the same cells (an operand retargeted into the middle
    of a wider cell, a load or store count stretched over a neighbouring
    cell).  Honest layouts never overlap, and one int per cell cannot
    alias part of another value, so such a function is refused as an
    invalid reference before it runs;
  - other damage to cell offsets or region bounds is baked in and
    surfaces, if at all, as wrong results or traps rather than signals;
    an index outside a region, or past the image end, traps with the
    checked engine's load or store reason;
  - the encoded streams themselves stay monitored: every checksum record
    re-hashes its target's live stream on every execution, so mutation
    after decode is still caught.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .arith import VALUE_KINDS, TrapError, value_closure
from .bundle import ProtectedBundle, VirtFunction
from .execstate import (DEFAULT_STEP_LIMIT, LOAD_BOUNDS_REASON,
                        STEP_LIMIT_REASON, STORE_BOUNDS_REASON, ExecContext)
from .guards import compute_vpa_hash
from .risa import (CALLEE, CELL_ROLES, CHECKEE, HandlerSpec,
                   MalformedStream, walk_records)
from .runtime import (CELL_CODE, INVALID_OPCODE, INVALID_REFERENCE,
                      PC_ESCAPE, TamperSignal, call_function, check_guard,
                      execute_with_engine, table_entry)


@dataclass
class ThreadedRecord:
    """One decoded record: where it sits, what it does, which cells it
    touches, and where control continues (ordinal, (true, false) pair for
    conditional branches, None for returns)."""

    offset: int
    spec: HandlerSpec
    operands: tuple[int, ...]
    successor: int | tuple[int, int] | None

    @property
    def kind(self) -> str:
        return self.spec.kind


def pre_decode(vfn: VirtFunction) -> list[ThreadedRecord]:
    """Split a stream into records and resolve every control edge to a
    record ordinal.  Raises TamperSignal if the stream does not decode as
    a branch-consistent record sequence."""
    vpa = vfn.vpa
    try:
        walked = walk_records(vfn.risa, vpa)
    except MalformedStream as err:
        raise TamperSignal(PC_ESCAPE if err.truncated else INVALID_OPCODE,
                           f"@{vfn.name}: {err.reason}") from None
    if not walked:
        raise TamperSignal(PC_ESCAPE, f"@{vfn.name}: stream is empty")
    ordinal_at = {start: i for i, (start, _) in enumerate(walked)}

    records = []
    for ordinal, (start, spec) in enumerate(walked):
        ops = tuple(vpa[start + 1:start + spec.record_len])
        succ: int | tuple[int, int] | None
        if spec.kind == "ret":
            succ = None
        elif spec.targets:
            succ = tuple(ordinal_at.get(ops[p]) for p in spec.targets)
            if None in succ:
                raise TamperSignal(
                    PC_ESCAPE, f"@{vfn.name}: branch at {start} targets an "
                    "element that is not a record boundary")
            if len(succ) == 1:
                succ = succ[0]
        else:
            succ = ordinal + 1
            if succ == len(walked):
                raise TamperSignal(
                    PC_ESCAPE, f"@{vfn.name}: stream ends in a "
                    "non-terminating record")
        records.append(ThreadedRecord(start, spec, ops, succ))
    return records


class _Cells:
    """The cells and regions one function references, collected while its
    records compile, and the register-file template they imply."""

    def __init__(self, vfn: VirtFunction) -> None:
        self.vfn = vfn
        self.size = len(vfn.image)
        self.spans: set[tuple[int, int, int]] = set()  # (start, end, width)

    def cell(self, off: int, width: int, where: str) -> int:
        """Validate one baked cell reference; corrupt offsets are refused
        here so the hot loop never bounds-checks them."""
        if off + width > self.size:
            raise TamperSignal(
                INVALID_REFERENCE, f"@{self.vfn.name}: {where} references "
                "a cell outside the image")
        self.spans.add((off, off + width, width))
        return off

    def region(self, base: int, count: int, width: int) -> int:
        """Note the elements of a load/store region that lie inside the
        image; returns how many leading elements an index may reach."""
        n = min(count, max(0, (self.size - base) // width))
        if n:
            self.spans.add((base, base + n * width, width))
        return n

    def template(self) -> list[int]:
        """Each referenced cell's little-endian value at its offset.  Two
        spans sharing a byte must cut it into the same cells: same width,
        element boundaries aligned."""
        image = self.vfn.image
        vm = list(image)            # width-1 cells hold their byte already
        group_start, group_end, group_width = 0, 0, 0
        for start, end, width in sorted(self.spans):
            if start < group_end:
                if width != group_width or (start - group_start) % width:
                    raise TamperSignal(
                        INVALID_REFERENCE, f"@{self.vfn.name}: cells at "
                        f"{group_start} and {start} overlap")
                group_end = max(group_end, end)
            else:
                group_start, group_end, group_width = start, end, width
            if width > 1:
                n = (end - start) // width
                vm[start:end:width] = struct.unpack_from(
                    f"<{n}{CELL_CODE[width]}", image, start)
        return vm


def _compile_record(bundle: ProtectedBundle, vfn: VirtFunction,
                    rec: ThreadedRecord, ctx: ExecContext, engine,
                    cells: _Cells):
    spec = rec.spec
    k = spec.kind
    s = rec.successor
    if k in ("const", "alloca", "br"):
        # no engine reads these operands: constants sit in the template
        return lambda vm: s

    # every cell the record names is validated here, once
    where = f"record at {rec.offset}"
    ops = [cells.cell(v, tag.width, where) if role in CELL_ROLES else v
           for (role, tag), v in zip(spec.layout, rec.operands)]

    if k in VALUE_KINDS:
        return value_closure(k, spec.operand_types, spec.result_type, ops, s)

    if k in ("load", "store"):
        # an index is in bounds when 0 <= signed index < limit; capping the
        # limit below the index type's sign bit lets the unsigned value
        # stand in for the signed one
        if k == "load":
            itag, w = spec.operand_types[0], spec.result_type.width
            base, count, ix, r = ops
        else:
            itag, w = spec.operand_types[1], spec.operand_types[0].width
            v, base, count, ix = ops
        limit = min(cells.region(base, count, w), 1 << (itag.bits - 1))

        if k == "load":
            def run(vm):
                i = vm[ix]
                if i >= limit:
                    raise TrapError(LOAD_BOUNDS_REASON)
                vm[r] = vm[base + i * w]
                return s
        else:
            def run(vm):
                i = vm[ix]
                if i >= limit:
                    raise TrapError(STORE_BOUNDS_REASON)
                vm[base + i * w] = vm[v]
                return s
        return run

    if k == "brcond":
        c = ops[0]
        t, f = s

        def run(vm):
            return t if vm[c] else f
        return run

    if k == "ret":
        if ops and vfn.ret_slot is not None:
            src, roff = ops[0], vfn.ret_slot[0]

            def run(vm):
                vm[roff] = vm[src]
                return -1
            return run
        return lambda vm: -1

    if k == "call":
        target = table_entry(bundle, vfn, CALLEE, ops[0])
        arg_cells = ops[1:1 + len(spec.operand_types)]
        res = rm = None
        if spec.result_type is not None:
            res = ops[-1]
            rm = (1 << spec.result_type.bits) - 1

        def run(vm):
            value = call_function(bundle, target, [vm[o] for o in arg_cells],
                                  ctx, engine)
            if res is not None:
                vm[res] = (value or 0) & rm
            return s
        return run

    if k == "guard":
        idx, exp_off, run_off = ops
        checkee = table_entry(bundle, vfn, CHECKEE, idx)
        edge = (vfn.name, checkee.name)

        def run(vm):
            h = vm[run_off] = compute_vpa_hash(checkee.vpa)
            check_guard(ctx, edge, h, vm[exp_off])
            return s
        return run
    # `risa._layout` gives no other kind a layout
    raise AssertionError(f"no handler for kind {k!r}")


def _decode(bundle: ProtectedBundle, vfn: VirtFunction, ctx: ExecContext):
    """Decoded closures, register-file template, (cell, mask) per
    parameter and the return cell of `vfn`."""
    cells = _Cells(vfn)
    code = [_compile_record(bundle, vfn, rec, ctx, run_threaded, cells)
            for rec in pre_decode(vfn)]
    params = [(cells.cell(off, tag.width, "a parameter"),
               (1 << tag.bits) - 1) for off, tag in vfn.param_slots]
    ret = None
    if vfn.ret_slot is not None:
        off, tag = vfn.ret_slot
        ret = cells.cell(off, tag.width, "the return cell")
    return code, cells.template(), params, ret


def _compiled(bundle: ProtectedBundle, vfn: VirtFunction, ctx: ExecContext):
    """`_decode` of `vfn`, built once per run.  A refusal while decoding
    is marked `at_decode` on its tamper signal."""
    key = ("optimized", id(vfn))
    compiled = ctx.decoded.get(key)
    if compiled is None:
        try:
            compiled = _decode(bundle, vfn, ctx)
        except TamperSignal as signal:
            signal.at_decode = True
            raise
        ctx.decoded[key] = compiled
    return compiled


def run_threaded(bundle: ProtectedBundle, vfn: VirtFunction, args,
                 ctx: ExecContext) -> int | None:
    """One activation of a transformed function under the pre-decoding
    engine."""
    code, template, params, ret = _compiled(bundle, vfn, ctx)
    vm = template.copy()
    for (off, m), raw in zip(params, args):
        vm[off] = raw & m

    ordinal = 0
    limit = ctx.step_limit
    while ordinal != -1:
        ctx.steps += 1
        if ctx.steps > limit:
            raise TrapError(STEP_LIMIT_REASON)
        ordinal = code[ordinal](vm)
    return None if ret is None else vm[ret]


def execute_optimized(bundle: ProtectedBundle, inputs=(),
                      step_limit: int = DEFAULT_STEP_LIMIT,
                      entry: str | None = None):
    return execute_with_engine(bundle, run_threaded, inputs, step_limit,
                               entry)
