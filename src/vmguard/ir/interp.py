"""Reference interpreter: the semantic oracle every protected run is
compared against.

Execution walks blocks directly over the IR.  Each executed instruction
costs one step from the shared budget.  Calls resolve through a pluggable
hook so the bytecode runtime can reuse this evaluator for functions left
in plain form inside a bundle.
"""

from __future__ import annotations

from ..arith import (TrapError, binary_op, cast, icmp, to_signed)
from ..execstate import (DEFAULT_STEP_LIMIT, LOAD_BOUNDS_REASON,
                         STEP_LIMIT_REASON, STORE_BOUNDS_REASON, ExecContext)
from .core import ExecutionResult, IrFunction, IrModule


class _Allocation:
    __slots__ = ("cells",)

    def __init__(self, count: int) -> None:
        self.cells = [0] * count


def evaluate_function(fn: IrFunction, args, call_hook, ctx: ExecContext):
    """Run one activation of `fn`; returns the raw (unsigned) return value or
    None for void.  `call_hook(name, arg_values)` performs nested calls."""
    env: dict[str, object] = {}
    for (name, tag), raw in zip(fn.params, args):
        env[name] = raw & ((1 << tag.bits) - 1)

    blocks = block_map(fn)
    block = fn.blocks[0]
    index = 0
    trace = ctx.trace_blocks
    if trace is not None:
        trace.add((fn.name, block.label))
    while True:
        ins = block.instructions[index]
        ctx.steps += 1
        if ctx.steps > ctx.step_limit:
            raise TrapError(STEP_LIMIT_REASON)
        k = ins.kind

        if k == "const":
            env[ins.result] = ins.value
        elif k == "icmp":
            a, b = ins.operands
            env[ins.result] = icmp(ins.predicate, env[a], env[b],
                                   ins.type.bits)
        elif k == "br":
            block = blocks[ins.labels[0]]
            index = 0
            if trace is not None:
                trace.add((fn.name, block.label))
            continue
        elif k == "brcond":
            block = blocks[ins.labels[0] if env[ins.operands[0]]
                           else ins.labels[1]]
            index = 0
            if trace is not None:
                trace.add((fn.name, block.label))
            continue
        elif k == "ret":
            if ins.operands:
                return env[ins.operands[0]]
            return None
        elif k == "select":
            c, a, b = ins.operands
            env[ins.result] = env[a] if env[c] else env[b]
        elif k in ("zext", "sext", "trunc"):
            src = ins.operands[0]
            src_tag = _operand_tag(fn, src)
            env[ins.result] = cast(k, env[src], src_tag, ins.type)
        elif k == "alloca":
            env[ins.result] = _Allocation(ins.count)
        elif k == "load":
            base, idx = ins.operands
            alloc: _Allocation = env[base]
            i = to_signed(env[idx], _operand_tag(fn, idx).bits)
            if not 0 <= i < len(alloc.cells):
                raise TrapError(LOAD_BOUNDS_REASON)
            env[ins.result] = alloc.cells[i]
        elif k == "store":
            val, base, idx = ins.operands
            alloc = env[base]
            i = to_signed(env[idx], _operand_tag(fn, idx).bits)
            if not 0 <= i < len(alloc.cells):
                raise TrapError(STORE_BOUNDS_REASON)
            alloc.cells[i] = env[val]
        elif k == "call":
            value = call_hook(ins.callee, [env[a] for a in ins.operands])
            if ins.result is not None:
                env[ins.result] = value
        elif k == "phi":
            raise TrapError("phi reached at run time")
        else:
            a, b = ins.operands
            env[ins.result] = binary_op(k, env[a], env[b], ins.type.bits)

        index += 1


def value_tags(fn: IrFunction) -> dict:
    """Map of value id -> type tag, cached on the function object."""
    tags = getattr(fn, "_tag_cache", None)
    if tags is None:
        from .core import TypeTag
        tags = {name: tag for name, tag in fn.params}
        for ins in fn.instructions():
            if ins.result is not None:
                tags[ins.result] = (TypeTag.I1 if ins.kind == "icmp"
                                    else ins.type)
        object.__setattr__(fn, "_tag_cache", tags)
    return tags


def block_map(fn: IrFunction) -> dict:
    """Map of block label -> block, cached on the function object.  Like
    `IrFunction.block`, the first of duplicate labels wins."""
    blocks = getattr(fn, "_block_cache", None)
    if blocks is None:
        blocks = {b.label: b for b in reversed(fn.blocks)}
        object.__setattr__(fn, "_block_cache", blocks)
    return blocks


def _operand_tag(fn: IrFunction, name: str):
    return value_tags(fn)[name]


def reference_interpret(module: IrModule, entry: str, inputs=(),
                        step_limit: int = DEFAULT_STEP_LIMIT,
                        trace_blocks: set | None = None) -> ExecutionResult:
    """Execute `entry` and package the outcome.  Entry parameters consume the
    leading inputs; read_i64 consumes the remainder in order.  Pass a set as
    `trace_blocks` to collect every (function, block) pair that runs."""
    if not module.has_function(entry):
        raise KeyError(f"entry function @{entry} not found")

    ctx = ExecContext(inputs, step_limit)
    ctx.trace_blocks = trace_blocks

    def call_hook(name: str, args):
        if name == "read_i64":
            return ctx.read_input()
        if name == "print_i64":
            ctx.print_value(args[0])
            return None
        ctx.enter_call()
        try:
            return evaluate_function(module.function(name), args,
                                     call_hook, ctx)
        finally:
            ctx.leave_call()

    entry_fn = module.function(entry)
    try:
        args = [ctx.read_input() for _ in entry_fn.params]
        raw = evaluate_function(entry_fn, args, call_hook, ctx)
    except TrapError as trap:
        return ExecutionResult.of(ctx, "trap", trap_reason=trap.reason)
    value = None
    if entry_fn.ret is not None:
        value = to_signed(raw, entry_fn.ret.bits)
    return ExecutionResult.of(ctx, "normal", value=value)
