"""Reference interpreter: the semantic oracle every protected run is
compared against.

On its first activation in a run, a function is compiled into one
closure per instruction, in block order, over a register list: every
value id gets a slot, and each closure computes its instruction and
returns the index of the next one, or -1 to return.  Operators and their
masks are bound once, through the same `arith.value_closure` the
optimized engine uses.  The compiled form lives in the run's
`ExecContext`, so nothing outlives the run.  Each executed instruction
still costs one step from the shared budget, counted before it runs,
and traps keep their reasons.  Calls resolve through a pluggable hook so
the bytecode runtime can reuse this evaluator for functions left in
plain form inside a bundle.
"""

from __future__ import annotations

from ..arith import TrapError, to_signed, value_closure
from ..execstate import (DEFAULT_STEP_LIMIT, LOAD_BOUNDS_REASON,
                         STEP_LIMIT_REASON, STORE_BOUNDS_REASON, ExecContext)
from .core import ExecutionResult, IrFunction, IrModule, TypeTag

# register slots of the activation's call hook and its return value
_HOOK, _RET = 0, 1


def _compile(fn: IrFunction, ctx: ExecContext):
    """`fn`'s closures, its register-list template and the (slot, mask)
    of each parameter."""
    tags = value_tags(fn)
    slots = {name: n for n, name in enumerate(tags, 2)}
    params = [(slots[name], (1 << tag.bits) - 1) for name, tag in fn.params]
    starts: dict[str, int] = {}         # the first of duplicate labels wins
    n = 0
    for block in fn.blocks:
        starts.setdefault(block.label, n)
        n += len(block.instructions)
    counts = {ins.result: ins.count for ins in fn.instructions()
              if ins.kind == "alloca"}
    code = [_compile_instruction(ins, s, slots, tags, starts, counts)
            for s, ins in enumerate(fn.instructions(), 1)]
    trace = ctx.trace_blocks
    if trace is not None:
        # only a terminator moves to a block start
        label_at = {i: label for label, i in starts.items()}
        code = [_recording(run, fn.name, label_at, trace)
                if ins.is_terminator else run
                for run, ins in zip(code, fn.instructions())]
    return code, [None, None] + [0] * len(slots), params


def _recording(run, fn_name: str, label_at: dict, trace: set):
    """`run`, adding the (function, label) pair of each block it enters to
    `trace`."""
    def recorded(regs):
        i = run(regs)
        if i in label_at:
            trace.add((fn_name, label_at[i]))
        return i
    return recorded


def _compile_instruction(ins, s, slots, tags, starts, counts):
    k = ins.kind
    if k == "const":
        r, v = slots[ins.result], ins.value

        def run(regs):
            regs[r] = v
            return s
        return run

    if k == "br":
        t = starts[ins.labels[0]]
        return lambda regs: t

    if k == "brcond":
        c = slots[ins.operands[0]]
        t, f = starts[ins.labels[0]], starts[ins.labels[1]]
        return lambda regs: t if regs[c] else f

    if k == "ret":
        if not ins.operands:
            return lambda regs: -1
        src = slots[ins.operands[0]]

        def run(regs):
            regs[_RET] = regs[src]
            return -1
        return run

    if k == "alloca":
        r, count = slots[ins.result], ins.count

        def run(regs):
            regs[r] = [0] * count
            return s
        return run

    if k in ("load", "store"):
        # an index is in bounds when 0 <= signed index < count; capping the
        # limit below the index type's sign bit lets the unsigned value
        # stand in for the signed one
        ops = [slots[o] for o in ins.operands]
        base, ix = ops[-2], ops[-1]
        limit = min(counts[ins.operands[-2]],
                    1 << (tags[ins.operands[-1]].bits - 1))
        if k == "load":
            r = slots[ins.result]

            def run(regs):
                i = regs[ix]
                if i >= limit:
                    raise TrapError(LOAD_BOUNDS_REASON)
                regs[r] = regs[base][i]
                return s
            return run
        v = ops[0]

        def run(regs):
            i = regs[ix]
            if i >= limit:
                raise TrapError(STORE_BOUNDS_REASON)
            regs[base][i] = regs[v]
            return s
        return run

    if k == "call":
        callee = ins.callee
        args = [slots[o] for o in ins.operands]
        if ins.result is None:
            def run(regs):
                regs[_HOOK](callee, [regs[a] for a in args])
                return s
            return run
        # stored as returned, unmasked
        r = slots[ins.result]

        def run(regs):
            regs[r] = regs[_HOOK](callee, [regs[a] for a in args])
            return s
        return run

    if k == "phi":
        def run(regs):
            raise TrapError("phi reached at run time")
        return run

    return value_closure("icmp." + ins.predicate if k == "icmp" else k,
                         [tags[o] for o in ins.operands], tags[ins.result],
                         [slots[o] for o in ins.operands]
                         + [slots[ins.result]], s)


def evaluate_function(fn: IrFunction, args, call_hook, ctx: ExecContext):
    """Run one activation of `fn`; returns the raw (unsigned) return value or
    None for void.  `call_hook(name, arg_values)` performs nested calls."""
    key = ("plain", id(fn))
    compiled = ctx.decoded.get(key)
    if compiled is None:
        compiled = ctx.decoded[key] = _compile(fn, ctx)
    code, template, params = compiled
    regs = template.copy()
    regs[_HOOK] = call_hook
    for (r, m), raw in zip(params, args):
        regs[r] = raw & m
    if ctx.trace_blocks is not None:
        ctx.trace_blocks.add((fn.name, fn.blocks[0].label))

    i = 0
    limit = ctx.step_limit
    while i != -1:
        ctx.steps += 1
        if ctx.steps > limit:
            raise TrapError(STEP_LIMIT_REASON)
        i = code[i](regs)
    return regs[_RET]


def value_tags(fn: IrFunction) -> dict:
    """Map of value id -> type tag, cached on the function object."""
    tags = getattr(fn, "_tag_cache", None)
    if tags is None:
        tags = {name: tag for name, tag in fn.params}
        for ins in fn.instructions():
            if ins.result is not None:
                tags[ins.result] = (TypeTag.I1 if ins.kind == "icmp"
                                    else ins.type)
        object.__setattr__(fn, "_tag_cache", tags)
    return tags


def reference_interpret(module: IrModule, entry: str, inputs=(),
                        step_limit: int = DEFAULT_STEP_LIMIT,
                        trace_blocks: set | None = None) -> ExecutionResult:
    """Execute `entry` and package the outcome.  Entry parameters consume the
    leading inputs; read_i64 consumes the remainder in order.  Pass a set as
    `trace_blocks` to collect every (function, block) pair that runs."""
    functions: dict[str, IrFunction] = {}
    for fn in module.functions:         # the first of duplicate names wins
        functions.setdefault(fn.name, fn)
    if entry not in functions:
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
            return evaluate_function(functions[name], args, call_hook, ctx)
        finally:
            ctx.leave_call()

    entry_fn = functions[entry]
    try:
        args = [ctx.read_input() for _ in entry_fn.params]
        raw = evaluate_function(entry_fn, args, call_hook, ctx)
    except TrapError as trap:
        return ExecutionResult.of(ctx, "trap", trap_reason=trap.reason)
    value = None
    if entry_fn.ret is not None:
        value = to_signed(raw, entry_fn.ret.bits)
    return ExecutionResult.of(ctx, "normal", value=value)
