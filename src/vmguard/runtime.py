"""Checked execution engine and the shared run harness.

This engine keeps nothing cached between steps but handler functions:
every dispatch re-reads the opcode from the live stream and picks its
handler by it, and every handler reads its operands from the stream by
index (`vpa[vpc + i]`) each time it runs.  Cells are read and written
through `struct` accessors, which refuse a cell outside the image
instead of growing it.  That makes it the natural place to observe
corruption immediately, at the cost of per-step overhead the
pre-decoding engine avoids.

Each record kind's handler is compiled from its entry in `_STATEMENTS`,
the engine's one statement of what each kind does (a value kind's wraps
the expression `arith.value_source` states for it), in the factory
`arith.factory_source` wraps it in, once per signature, through an
`arith.Factories` cache keyed by `HandlerSpec.number`; only a signature
whose types do not fit its kind gets a hand-written handler, which
raises the tamper signal.
The dispatch loop fetches through one `try`: a counter past the stream
end or an opcode without a built handler falls to a cold path, which
raises the tamper signal or builds the handler.

Corruption raises a TamperSignal, which unwinds the whole run; both
engines judge guards through `check_guard`.  Traps (division by zero,
bad memory index, exhausted budgets) use the same reasons as the
reference interpreter so outcomes stay comparable across all executors.
"""

from __future__ import annotations

import struct
import sys

from .arith import (TRAPPING, VALUE_KINDS, Factories, TrapError,
                    factory_source, index_limit, to_signed, value_source)
# the trapping kinds' functions, which generated statements name
from .arith import ashr, lshr, sdiv, shl, srem  # noqa: F401
from .bundle import ExternFunction, ProtectedBundle, VirtFunction, arity_of
from .execstate import (DEFAULT_STEP_LIMIT, LOAD_BOUNDS_REASON,
                        MAX_CALL_DEPTH, STEP_LIMIT_REASON,
                        STORE_BOUNDS_REASON, ExecContext)
from .guards import compute_vpa_hash
from .ir.core import ExecutionResult
from .ir.interp import evaluate_function
from .risa import CALLEE, CHECKEE, numbered_spec

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

# The Python statement(s) each record kind runs as, the body of a handler
# `(vm, vpc) -> next vpc` over the byte image `vm`.  A handler reads the
# N-th element after its opcode from the live stream as `vpa[vpc + N]`,
# and the cell that element names through `getN` and `putN`, the `_CELL`
# reader and writer of layout position N.  `{ln}` is the record length and
# `{r}` its last element, a value kind's or a call's result; `{w}` is a
# load or store's element width, `{cap}` the index limit of its index type,
# `{args}` a call's argument values and `{mask}` its result's mask.  A
# value kind's statement is `_VALUE` or `_TRAPPING` around its
# `arith.value_source` expression.  Every element is read before a trap
# can fire, so a record cut short by the stream end is an invalid
# reference, never a trap.
_VALUE = """\
put{r}(vm, vpa[vpc + {r}], {value})
return vpc + {ln}
"""
# a trapping operation reads the result cell before its trap propagates,
# so a result cell outside the image is tamper, not a trap
_TRAPPING = """\
r = vpa[vpc + {r}]
try:
    value = {value}
except TrapError:
    get{r}(vm, r)
    raise
put{r}(vm, r, value)
return vpc + {ln}
"""
_STATEMENTS = {
    **dict.fromkeys(VALUE_KINDS, _VALUE),
    **dict.fromkeys(TRAPPING, _TRAPPING),
    # constants sit in the image already; regions are static
    "const": "return vpc + {ln}\n",
    "alloca": "return vpc + {ln}\n",
    # the count is re-read from the stream on every execution; as one
    # 16-bit element, its `index_limit` is the smaller of it and `cap`
    "load": """\
base, count = vpa[vpc + 1], vpa[vpc + 2]
i = get3(vm, vpa[vpc + 3])[0]
r = vpa[vpc + 4]
addr = base + i * {w}
if i >= count or i >= {cap} or addr + {w} > size:
    get4(vm, r)     # a result cell outside the image is tamper
    raise TrapError(LOAD_BOUNDS_REASON)
put4(vm, r, get4(vm, addr)[0])
return vpc + 5
""",
    "store": """\
value = get1(vm, vpa[vpc + 1])[0]
base, count = vpa[vpc + 2], vpa[vpc + 3]
i = get4(vm, vpa[vpc + 4])[0]
addr = base + i * {w}
if i >= count or i >= {cap} or addr + {w} > size:
    raise TrapError(STORE_BOUNDS_REASON)
put1(vm, addr, value)
return vpc + 5
""",
    "br": "return vpa[vpc + 1]\n",
    "brcond": """\
f = vpa[vpc + 3]
return vpa[vpc + 2] if get1(vm, vpa[vpc + 1])[0] else f
""",
    "ret": """\
value = get1(vm, vpa[vpc + 1])[0]
if ret_off is not None:
    put1(vm, ret_off, value)
return -1
""",
    # the result element and its cell are read before the call, so a
    # record cut short by the stream end, or a result cell outside the
    # image, is tamper, not a trap of the callee's
    "call": """\
target = table_entry(bundle, vfn, CALLEE, vpa[vpc + 1])
args = [{args}]
r = vpa[vpc + {r}]
get{r}(vm, r)
value = call_function(bundle, target, args, ctx, run_virt)
put{r}(vm, r, (value or 0) & {mask})
return vpc + {ln}
""",
    "guard": """\
idx, exp_off, run_off = vpa[vpc + 1], vpa[vpc + 2], vpa[vpc + 3]
checkee = table_entry(bundle, vfn, CHECKEE, idx)
# both cells must lie in the image before the hash is taken
get2(vm, exp_off)
get3(vm, run_off)
h = compute_vpa_hash(checkee.vpa)
put3(vm, run_off, h)
# the checkee is re-read from the stream, so its edge is too
check_guard(ctx, (vfn.name, checkee.name), h, get2(vm, exp_off)[0])
return vpc + 4
""",
}
# the forms of a call and a ret without a value
_VOID = {
    "call": """\
target = table_entry(bundle, vfn, CALLEE, vpa[vpc + 1])
call_function(bundle, target, [{args}], ctx, run_virt)
return vpc + {ln}
""",
    "ret": "return -1\n",
}
# element N's value, read through the reader of its cell
_READ = "get{0}(vm, vpa[vpc + {0}])[0]"
# what a handler reads besides its cells' accessors, bound once per build
_BOUND = {"vpa": "vfn.vpa", "size": "len(vfn.image)",
          "ret_off": "vfn.ret_slot and vfn.ret_slot[0]",
          "bundle": "bundle", "vfn": "vfn", "ctx": "ctx"}
_ACCESSOR = {"get": "unpack_from", "put": "pack_into"}


def _handler_source(number: int) -> str:
    """The `arith.factory_source` of the handler of the spec numbered
    `number`, whose types fit its kind.  The factory takes the bundle, the
    function and the run's context; the handler binds what it reads of
    them and its cells' accessors as defaults, while the engine's
    functions (`call_function`, `compute_vpa_hash`, `check_guard`,
    `table_entry`, `run_virt`) are looked up in this module at each call.
    Widths, index caps, record lengths and masks are literals."""
    spec = numbered_spec(number)
    k, types, res, layout = (spec.kind, spec.operand_types,
                             spec.result_type, spec.layout)
    n = len(types)
    void = (k == "ret" and not layout) or (k == "call" and res is None)
    template = (_VOID if void else _STATEMENTS)[k]
    fields = {"ln": spec.record_len, "r": spec.record_len - 1}
    if k in VALUE_KINDS:
        template = template.replace("{value}", value_source(
            k, types, res, [_READ.format(i) for i in range(1, n + 1)]))
    elif k in ("load", "store"):
        index, elem = (types[0], res) if k == "load" else types[::-1]
        fields.update(w=elem.width, cap=index_limit(1 << 16, index))
    elif k == "call":
        fields["args"] = ", ".join(_READ.format(i) for i in range(2, n + 2))
        if res is not None:
            fields["mask"] = (1 << res.bits) - 1
    body = template.format(**fields)
    accessors = {f"{use}{i}": f"_CELL[{tag.width}].{method}"
                 for i, (_, tag) in enumerate(layout, 1) if tag is not None
                 for use, method in _ACCESSOR.items()}
    return factory_source(["bundle", "vfn", "ctx"], ["vm", "vpc"],
                          {**_BOUND, **accessors}, body)


# handler factories by spec number
HANDLER_FACTORIES = Factories(_handler_source, globals())


def _fetch_cold(bundle: ProtectedBundle, vfn: VirtFunction,
                ctx: ExecContext, handlers: dict, vpc: int):
    """The handler for element `vpc` after the fast fetch missed: the
    counter left the stream, the element names no handler, or its handler
    is not built yet.  A handler whose types do not fit its kind raises
    the tamper signal when it runs, and is built from no statement."""
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
    if spec.layout is None:
        def handler(vm, vpc):
            raise TamperSignal(
                INVALID_OPCODE, f"@{vfn.name}: element {vpc} names a "
                f"{spec.kind} handler whose types do not fit its kind")
    else:
        handler = HANDLER_FACTORIES[spec.number](bundle, vfn, ctx)
    handlers[vpa[vpc]] = handler
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
