"""Checked execution engine and the shared run harness.

This engine keeps nothing cached between steps but handler closures:
every dispatch re-reads the opcode from the live stream and picks its
handler by it, and every handler reads its operands from the stream by
index (`vpa[vpc + i]`) each time it runs.  Cells are read and written
through `struct` accessors, which refuse a cell outside the image
instead of growing it.  That makes it the natural place to observe
corruption immediately, at the cost of per-step overhead the
pre-decoding engine avoids.

A value handler is built from one of two templates here, the plain one
and the trapping one, filled with the expression `arith.value_expr`
states for its kind, so every executor computes each value kind from
one statement of its operator, masks and sign-bit flip.  The dispatch
loop fetches through one `try`: a counter past the stream end or an
opcode without a built handler falls to a cold path, which raises the
tamper signal or builds the handler.

Corruption raises a TamperSignal, which unwinds the whole run; both
engines judge guards through `check_guard`.  Traps (division by zero,
bad memory index, exhausted budgets) use the same reasons as the
reference interpreter so outcomes stay comparable across all executors.
"""

from __future__ import annotations

import struct
import sys

from .arith import (TRAPPING, VALUE_KINDS, Template, TrapError, index_limit,
                    to_signed)
from .bundle import ExternFunction, ProtectedBundle, VirtFunction, arity_of
from .execstate import (DEFAULT_STEP_LIMIT, LOAD_BOUNDS_REASON,
                        MAX_CALL_DEPTH, STEP_LIMIT_REASON,
                        STORE_BOUNDS_REASON, ExecContext)
from .guards import compute_vpa_hash
from .ir.core import ExecutionResult
from .ir.interp import evaluate_function
from .risa import CALLEE, CHECKEE

INVALID_OPCODE = "invalid opcode"
PC_ESCAPE = "program counter escape"
HASH_MISMATCH = "checksum mismatch"
INVALID_REFERENCE = "invalid reference"


class TamperSignal(Exception):
    """Evidence of a corrupted bundle observed on the execution path.
    `at_decode` is set when the optimized engine refused the damage while
    decoding a function, before running it."""

    def __init__(self, kind: str, detail: str) -> None:
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail
        self.at_decode = False


def call_function(bundle: ProtectedBundle, target, args, ctx: ExecContext,
                  engine) -> int | None:
    """Shared call bridge: dispatches to a transformed function (via
    `engine`), an untransformed one (via the IR evaluator), or an
    intrinsic.  Used by both engines and by plain functions calling back
    into protected code.  A call whose argument count differs from the
    callee's arity is a retargeted call record, refused as tamper."""
    if arity_of(target) != len(args):
        raise TamperSignal(INVALID_REFERENCE, f"@{target.name} does not "
                           f"take {len(args)} arguments")
    if isinstance(target, ExternFunction):
        if target.name == "read_i64":
            return ctx.read_input()
        ctx.print_value(args[0])
        return None
    ctx.enter_call()
    try:
        if isinstance(target, VirtFunction):
            return engine(bundle, target, args, ctx)
        return evaluate_function(target.fn, args,
                                 _plain_hook(bundle, ctx, engine), ctx)
    finally:
        ctx.leave_call()


def table_entry(bundle: ProtectedBundle, vfn: VirtFunction, role: str,
                idx: int):
    """The function a callee or checkee index of `vfn` names.  Raises
    TamperSignal for an index outside the table, and for a checkee that
    is not a transformed function."""
    table = bundle.functions
    if idx < len(table) and (role == CALLEE or
                             isinstance(table[idx], VirtFunction)):
        return table[idx]
    what = "function" if role == CALLEE else "transformed function"
    raise TamperSignal(INVALID_REFERENCE,
                       f"@{vfn.name}: {role} index {idx} names no {what}")


def check_guard(ctx: ExecContext, edge: tuple[str, str], h: int,
                expected: int) -> None:
    """Count one execution of a guard on `edge`, its (checker, checkee)
    name pair, then compare the hash it computed with the expected value
    from the checker's image."""
    ctx.guard_execs += 1
    ctx.guard_edges[edge] = ctx.guard_edges.get(edge, 0) + 1
    if h != expected:
        checker, checkee = edge
        raise TamperSignal(HASH_MISMATCH, f"@{checker} checking "
                           f"@{checkee}: computed {h:#06x}, "
                           f"expected {expected:#06x}")


def _plain_hook(bundle: ProtectedBundle, ctx: ExecContext, engine):
    """The call hook of the run's plain functions, built on first use.  It
    resolves names through a map built once, in which the first of
    duplicate names wins, as in `index_of`."""
    key = ("plain_hook", id(bundle))
    hook = ctx.decoded.get(key)
    if hook is None:
        by_name: dict[str, object] = {}
        for fn in bundle.functions:
            by_name.setdefault(fn.name, fn)

        def hook(name: str, args):
            target = by_name.get(name)
            if target is None:
                raise TamperSignal(INVALID_REFERENCE, f"call to @{name}, "
                                   "which the bundle does not define")
            return call_function(bundle, target, args, ctx, engine)
        ctx.decoded[key] = hook
    return hook


# struct format code of an unsigned cell, by byte width
CELL_CODE = {1: "B", 2: "H", 4: "I", 8: "Q"}
# cell accessors by byte width; unpack_from and pack_into raise
# struct.error for a cell that does not lie wholly inside the image
_CELL = {w: struct.Struct("<" + code) for w, code in CELL_CODE.items()}

# value handlers: each operand placeholder is bound to its cell's reader,
# and `get_r`/`put_r` to the result cell's reader and writer
_OPERAND = "{p}(vm, vpa[vpc + {i}])[0]"
_VALUE = Template("""\
def run(vm, vpc):
    put_r(vm, vpa[vpc + {res}], {value})
    return vpc + {end}""", read=_OPERAND, params="vpa, get_r, put_r")
# a trapping operation reads the result cell before its trap propagates,
# so a result cell outside the image is tamper, not a trap
_TRAPPING = Template("""\
def run(vm, vpc):
    r = vpa[vpc + {res}]
    try:
        value = {value}
    except TrapError:
        get_r(vm, r)
        raise
    put_r(vm, r, value)
    return vpc + {end}""", read=_OPERAND, params="vpa, get_r, put_r")


def _build_handler(bundle: ProtectedBundle, vfn: VirtFunction, spec,
                   ctx: ExecContext, engine):
    """Compile one handler closure.  Operands are read from the live stream
    by index on every invocation, and cells are read and written through
    the `_CELL` accessors; only type widths, masks and the operator are
    baked in.  Every operand element is read before a trap can fire, so a
    record cut short by the stream end is an invalid reference, never a
    trap."""
    vpa = vfn.vpa
    k = spec.kind
    layout = spec.layout

    if layout is None:
        def handler(vm, vpc):
            raise TamperSignal(
                INVALID_OPCODE, f"@{vfn.name}: element {vpc} names a {k} "
                "handler whose types do not fit its kind")
        return handler

    ln = spec.record_len
    if k in ("const", "alloca"):
        # constants sit in the image already; regions are static
        def handler(vm, vpc):
            return vpc + ln
        return handler

    size = len(vfn.image)
    # reader and writer of each operand element's cell, in layout order
    get = [None if t is None else _CELL[t.width].unpack_from
           for _, t in layout]
    put = [None if t is None else _CELL[t.width].pack_into
           for _, t in layout]

    if k in VALUE_KINDS:
        # the layout holds the operand cells, then the result cell
        template = _TRAPPING if k in TRAPPING else _VALUE
        return template[k, spec.operand_types, spec.result_type](
            *get[:-1], vpa, get[-1], put[-1])

    if k in ("load", "store"):
        if k == "load":
            itag, w = spec.operand_types[0], spec.result_type.width
        else:
            itag, w = spec.operand_types[1], spec.operand_types[0].width
        # the count is re-read from the stream on every execution; as one
        # 16-bit element, its `index_limit` is the smaller of it and `cap`
        cap = index_limit(1 << 16, itag)

    if k == "load":
        get_i, get_v, put_r = get[2], get[3], put[3]

        def handler(vm, vpc):
            base, count = vpa[vpc + 1], vpa[vpc + 2]
            i = get_i(vm, vpa[vpc + 3])[0]
            r = vpa[vpc + 4]
            addr = base + i * w
            if i >= count or i >= cap or addr + w > size:
                get_v(vm, r)    # a result cell outside the image is tamper
                raise TrapError(LOAD_BOUNDS_REASON)
            put_r(vm, r, get_v(vm, addr)[0])
            return vpc + 5
        return handler

    if k == "store":
        get_v, put_v, get_i = get[0], put[0], get[3]

        def handler(vm, vpc):
            value = get_v(vm, vpa[vpc + 1])[0]
            base, count = vpa[vpc + 2], vpa[vpc + 3]
            i = get_i(vm, vpa[vpc + 4])[0]
            addr = base + i * w
            if i >= count or i >= cap or addr + w > size:
                raise TrapError(STORE_BOUNDS_REASON)
            put_v(vm, addr, value)
            return vpc + 5
        return handler

    if k == "br":
        def handler(vm, vpc):
            return vpa[vpc + 1]
        return handler

    if k == "brcond":
        get_c = get[0]

        def handler(vm, vpc):
            f = vpa[vpc + 3]
            return vpa[vpc + 2] if get_c(vm, vpa[vpc + 1])[0] else f
        return handler

    if k == "ret":
        if not layout:
            def handler(vm, vpc):
                return -1
            return handler
        get_v, put_v = get[0], put[0]
        ret_off = None if vfn.ret_slot is None else vfn.ret_slot[0]

        def handler(vm, vpc):
            value = get_v(vm, vpa[vpc + 1])[0]
            if ret_off is not None:
                put_v(vm, ret_off, value)
            return -1
        return handler

    if k == "call":
        n_args = len(spec.operand_types)
        # (reader, element position) of each argument cell
        arg_at = tuple(zip(get[1:1 + n_args], range(2, 2 + n_args)))
        put_r = put[-1] if spec.result_type is not None else None
        mask = 0 if put_r is None else (1 << spec.result_type.bits) - 1

        def handler(vm, vpc):
            target = table_entry(bundle, vfn, CALLEE, vpa[vpc + 1])
            args = [g(vm, vpa[vpc + p])[0] for g, p in arg_at]
            value = call_function(bundle, target, args, ctx, engine)
            if put_r is not None:
                put_r(vm, vpa[vpc + ln - 1], (value or 0) & mask)
            return vpc + ln
        return handler

    if k == "guard":
        get_h, put_h = get[1], put[2]

        def handler(vm, vpc):
            idx, exp_off, run_off = vpa[vpc + 1], vpa[vpc + 2], vpa[vpc + 3]
            checkee = table_entry(bundle, vfn, CHECKEE, idx)
            # both cells must lie in the image before the hash is taken
            get_h(vm, exp_off)
            get_h(vm, run_off)
            h = compute_vpa_hash(checkee.vpa)
            put_h(vm, run_off, h)
            # the checkee is re-read from the stream, so its edge is too
            check_guard(ctx, (vfn.name, checkee.name), h,
                        get_h(vm, exp_off)[0])
            return vpc + 4
        return handler
    # `risa._layout` gives no other kind a layout
    raise AssertionError(f"no handler for kind {k!r}")


def _fetch_cold(bundle: ProtectedBundle, vfn: VirtFunction,
                ctx: ExecContext, handlers: dict, vpc: int):
    """The handler for element `vpc` after the fast fetch missed: the
    counter left the stream, the element names no handler, or its handler
    is not built yet."""
    vpa = vfn.vpa
    if vpc >= len(vpa):
        raise TamperSignal(
            PC_ESCAPE, f"@{vfn.name}: counter {vpc} outside the "
            f"{len(vpa)}-element stream")
    spec = vfn.risa.spec_of.get(vpa[vpc])
    if spec is None:
        raise TamperSignal(
            INVALID_OPCODE, f"@{vfn.name}: element {vpc} holds "
            f"{vpa[vpc]:#06x}, which names no handler")
    handler = handlers[vpa[vpc]] = _build_handler(bundle, vfn, spec, ctx,
                                                  run_virt)
    return handler


def run_virt(bundle: ProtectedBundle, vfn: VirtFunction, args,
             ctx: ExecContext) -> int | None:
    """One activation of a transformed function under the checked engine.
    Handlers are built on first dispatch and kept for the run.  Handlers
    return an element of the stream (never negative), the next record's
    start, or -1 to return, so a fetch that misses the stream or the
    handler table is the only way out of the fast path."""
    handlers = ctx.decoded.setdefault(("checked", id(vfn)), {})
    vm = bytearray(vfn.image)
    vpa = vfn.vpa
    vpc = 0
    limit = ctx.step_limit
    try:
        for (off, tag), raw in zip(vfn.param_slots, args):
            _CELL[tag.width].pack_into(vm, off, raw & ((1 << tag.bits) - 1))
        while vpc != -1:
            ctx.steps += 1
            if ctx.steps > limit:
                raise TrapError(STEP_LIMIT_REASON)
            try:
                handler = handlers[vpa[vpc]]
            except (IndexError, KeyError):
                handler = _fetch_cold(bundle, vfn, ctx, handlers, vpc)
            vpc = handler(vm, vpc)
        if vfn.ret_slot is None:
            return None
        off, tag = vfn.ret_slot
        return _CELL[tag.width].unpack_from(vm, off)[0]
    except (IndexError, ValueError, struct.error):
        # only reachable with corrupted operands or header cells: honest
        # records stay inside the stream and their cells inside the image
        raise TamperSignal(
            INVALID_REFERENCE, f"@{vfn.name}: record at {vpc} references "
            "a cell outside the image or the stream")


def execute_with_engine(bundle: ProtectedBundle, engine, inputs=(),
                        step_limit: int = DEFAULT_STEP_LIMIT,
                        entry: str | None = None) -> ExecutionResult:
    """Run a bundle to completion under the given transformed-function
    engine and package the outcome.  A bundle whose own entry index is
    absent or names an intrinsic ends as tamper, before the first step;
    an explicit `entry` naming an intrinsic is a caller error."""
    ctx = ExecContext(inputs, step_limit)
    if entry is not None:
        target = bundle.function(entry)
        if isinstance(target, ExternFunction):
            raise ValueError("entry cannot be an intrinsic")
    else:
        index = bundle.entry_index
        target = None if index is None else bundle.functions[index]
        if target is None or isinstance(target, ExternFunction):
            what = ("no entry function" if target is None
                    else f"intrinsic @{target.name} as its entry")
            return ExecutionResult.of(ctx, "tamper", tamper_cause=TamperSignal(
                INVALID_REFERENCE, f"the bundle names {what}"))

    # each activation costs a handful of Python frames; make sure the
    # deepest honest call chain fits before the interpreter's own limit,
    # for this run only
    caller_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(caller_limit, MAX_CALL_DEPTH * 10 + 400))
    try:
        if isinstance(target, VirtFunction):
            args = [ctx.read_input() for _ in target.param_slots]
            raw = engine(bundle, target, args, ctx)
            ret_tag = target.ret_slot[1] if target.ret_slot else None
        else:
            args = [ctx.read_input() for _ in target.fn.params]
            raw = evaluate_function(target.fn, args,
                                    _plain_hook(bundle, ctx, engine), ctx)
            ret_tag = target.fn.ret
    except TrapError as trap:
        return ExecutionResult.of(ctx, "trap", trap_reason=trap.reason)
    except TamperSignal as signal:
        return ExecutionResult.of(ctx, "tamper", tamper_cause=signal)
    finally:
        sys.setrecursionlimit(caller_limit)
        # every cycle of the run's compiled code runs through the context
        ctx.decoded.clear()

    value = None if ret_tag is None else to_signed(raw, ret_tag.bits)
    return ExecutionResult.of(ctx, "normal", value=value)


def execute_secure(bundle: ProtectedBundle, inputs=(),
                   step_limit: int = DEFAULT_STEP_LIMIT,
                   entry: str | None = None) -> ExecutionResult:
    return execute_with_engine(bundle, run_virt, inputs, step_limit, entry)
