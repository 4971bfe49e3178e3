"""Reference interpreter: the semantic oracle every protected run is
compared against.

On its first activation in a run, a function is compiled over a register
list `vm`, one slot per value id, into one generated function per basic
block, held in the dispatch list at its first instruction's position;
it returns the next block's position, or -1 to return.  The one block
assembler, `arith.block_source`, strings together the statement of each
instruction's kind from `_STATEMENTS` (a value kind's wraps its
`arith.value_source` expression), compiled once per block shape into a
factory kept in a bounded process-wide cache; slots, constants and
successors are factory arguments, worked out once per function and kept
on it, and the built blocks live in the run's `ExecContext`.  A block
counts every step it runs, per segment, ending at each call, as the
optimized engine's blocks do, so steps and traps are those of counting
each instruction before it runs.  Calls resolve through a pluggable hook
so the bytecode runtime can reuse this evaluator for plain functions
inside a bundle.  The statements are the interpreter's own, so its runs
stay an independent check on the engines.
"""

from __future__ import annotations

import sys

from ..arith import (TERMINATORS, TRAPPING, VALUE_KINDS, Factories,
                     TrapError, block_source, hand_over, index_limit,
                     to_signed, value_source)
# the trapping kinds' functions, which generated statements name
from ..arith import ashr, lshr, sdiv, shl, srem  # noqa: F401
from ..execstate import (DEFAULT_STEP_LIMIT, LOAD_BOUNDS_REASON,
                         MAX_CALL_DEPTH, STORE_BOUNDS_REASON, ExecContext,
                         TamperSignal)
from .core import EXTERN_SIGS, ExecutionResult, IrFunction, IrModule, TypeTag

# The Python statement(s) each IR kind runs as, over the register list
# `vm`, whose slot 0 holds the activation's call hook and slot 1 its
# return value.  `{aN}` is the instruction's N-th argument, as
# `_instruction` gives them, and `{back}` is how many instructions of its
# segment follow it, which a trap takes back off `ctx.steps`.  A value
# kind's statement is `_VALUE` or `_TRAPPING` around its expression; a
# call passes its argument slots' values as `{args}` and stores its
# result as returned, unmasked.
_VALUE = "vm[{r}] = {value}"
_TRAPPING = """\
try:
    vm[{r}] = {value}
except TrapError:
    ctx.steps -= {back}
    raise"""
_STATEMENTS = {
    **dict.fromkeys(VALUE_KINDS, _VALUE),
    **dict.fromkeys(TRAPPING, _TRAPPING),
    "const": "vm[{a0}] = {a1}",
    "alloca": "vm[{a0}] = [0] * {a1}",
    "load": """\
i = vm[{a0}]
if i >= {a1}:
    ctx.steps -= {back}
    raise TrapError(LOAD_BOUNDS_REASON)
vm[{a3}] = vm[{a2}][i]""",
    "store": """\
i = vm[{a0}]
if i >= {a1}:
    ctx.steps -= {back}
    raise TrapError(STORE_BOUNDS_REASON)
vm[{a2}][i] = vm[{a3}]""",
    "call": "vm[0]({a0}, [{args}])",
    "phi": """\
ctx.steps -= {back}
raise TrapError("phi reached at run time")""",
    "br": "return {a0}",
    "brcond": "return {a1} if vm[{a0}] else {a2}",
    "ret": "vm[1] = vm[{a0}]\nreturn -1",
}


def _instruction(ins, slots, tags, starts, counts) -> tuple:
    """`ins`'s shape, what its statement depends on besides its arguments,
    and those arguments, numbered as its `_STATEMENTS` entry names them.
    A value kind's shape holds its operand and result types, and its
    arguments are its operands' slots, then its result's; a call's shape
    holds its arity and whether it keeps its result."""
    k = ins.kind
    ops = tuple(map(slots.__getitem__, ins.operands))
    if k in ("const", "alloca"):
        return (k,), (slots[ins.result],
                      ins.value if k == "const" else ins.count)
    if k in ("load", "store"):
        *_, base, ix = ins.operands
        limit = index_limit(counts[base], tags[ix])
        last = slots[ins.result] if k == "load" else ops[0]
        return (k,), (ops[-1], limit, ops[-2], last)
    if k == "call":
        args = (ins.callee, *ops)
        if ins.result is not None:
            args += (slots[ins.result],)
        return (k, len(ops), ins.result is not None), args
    if k in ("br", "brcond"):
        return (k,), (*ops, *(starts[label] for label in ins.labels))
    if k == "phi":
        return (k,), ()
    if k == "ret":
        return (k, bool(ops)), ops[:1]
    if k == "icmp":
        k = f"icmp.{ins.predicate}"
    return ((k, tuple(map(tags.__getitem__, ins.operands)), tags[ins.result]),
            (*ops, slots[ins.result]))


def _statement(shape: tuple) -> str:
    """`shape`'s statement template, with a value kind's expression or a
    call's arguments filled in."""
    k = shape[0]
    if k == "call":
        _, n, kept = shape
        call = _STATEMENTS[k].replace("{args}", ", ".join(
            f"vm[{{a{i}}}]" for i in range(1, n + 1)))
        return f"vm[{{a{n + 1}}}] = {call}" if kept else call
    if k == "ret" and not shape[1]:
        return "return -1"
    if len(shape) < 3:
        return _STATEMENTS[k]
    _, operand_types, result = shape
    n = len(operand_types)
    value = value_source(k, operand_types, result,
                         [f"vm[{{a{i}}}]" for i in range(n)])
    return _STATEMENTS[k].replace("{value}", value).replace(
        "{r}", f"{{a{n}}}")


def _block_source(shapes: tuple) -> str:
    """The `arith.block_source` of one block shape, its instructions'
    shapes."""
    return block_source([(shape[0], _statement(shape)) for shape in shapes])


# block factories by shape, the tuple of the instructions' shapes
BLOCK_FACTORIES = Factories(_block_source, globals())


def _traced(block, trace: set, pair: tuple):
    """`block`, adding `pair` to the run's trace before it runs."""
    def traced(vm):
        trace.add(pair)
        return block(vm)
    return traced


def _compile(fn: IrFunction, ctx: ExecContext):
    """`fn`'s dispatch list, built for this run, its register-list
    template and the (slot, mask) of each parameter.  The dispatch list
    holds each block at its first instruction's position and None at
    every other; a block ends at its first terminator, and a branch to a
    duplicated label goes to the first block that has it.  When the run
    traces, a block adds its (function, label) pair.  Raises ValueError
    for a function with no blocks or a block with no terminator, empty
    or not, which only an unvalidated function can have."""
    # the instructions' shapes and arguments, the parameters' (slot, mask)
    # and the slot count depend on `fn` alone: they are kept on it
    cached = getattr(fn, "_code_cache", None)
    if cached is None:
        tags = value_tags(fn)
        slots = {name: n for n, name in enumerate(tags, 2)}
        starts: dict[str, int] = {}
        o = 0
        for block in fn.blocks:
            starts.setdefault(block.label, o)
            o += len(block.instructions)
        counts = {ins.result: ins.count for ins in fn.instructions()
                  if ins.kind == "alloca"}
        params = [(slots[name], (1 << tag.bits) - 1)
                  for name, tag in fn.params]
        cached = ([_instruction(ins, slots, tags, starts, counts)
                   for ins in fn.instructions()], params, len(slots))
        object.__setattr__(fn, "_code_cache", cached)
    code, params, n_slots = cached
    limit, trace = ctx.step_limit, ctx.trace_blocks
    hand = hand_over(ctx, lambda o, trap: BLOCK_FACTORIES[code[o][0],](
        ctx, limit, trap, o, *code[o][1]))

    if not fn.blocks:
        raise ValueError(f"@{fn.name} has no blocks")
    blocks, o = [None] * len(code), 0
    for block in fn.blocks:
        shapes, args = [], []
        for shape, ins_args in code[o:o + len(block.instructions)]:
            shapes.append(shape)
            args += ins_args
            if shape[0] in TERMINATORS:
                break
        else:
            # it would fall through into the next block, or past the end
            raise ValueError(f"@{fn.name}: block %{block.label} ends "
                             "without a terminator")
        built = BLOCK_FACTORIES[tuple(shapes)](ctx, limit, hand, o, *args)
        blocks[o] = built if trace is None else _traced(
            built, trace, (fn.name, block.label))
        o += len(block.instructions)
    return blocks, [None, None] + [0] * n_slots, params


def evaluate_function(fn: IrFunction, args, call_hook, ctx: ExecContext):
    """Run one activation of `fn`; returns the raw (unsigned) return value or
    None for void.  `call_hook(name, arg_values)` performs nested calls."""
    key = ("plain", id(fn))
    compiled = ctx.decoded.get(key)
    if compiled is None:
        compiled = ctx.decoded[key] = _compile(fn, ctx)
    blocks, template, params = compiled
    vm = template.copy()
    vm[0] = call_hook
    for (r, m), raw in zip(params, args):
        vm[r] = raw & m
    o = 0
    while o != -1:
        o = blocks[o](vm)
    return vm[1]


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


def run_entry(ctx: ExecContext, arity: int, ret: TypeTag | None,
              activate) -> ExecutionResult:
    """Run `activate(args)`, an entry of `arity` parameters read from the
    inputs, returning a raw `ret`, and package the outcome: how the
    reference interpreter and both engines end every run."""
    # each activation costs a handful of Python frames; the caller's
    # stack lies within its limit, so raising the limit by room for the
    # deepest honest call chain makes it fit at any depth, for this run
    caller_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(caller_limit + MAX_CALL_DEPTH * 10)
    try:
        raw = activate([ctx.read_input() for _ in range(arity)])
    except TrapError as trap:
        return ExecutionResult.of(ctx, "trap", trap_reason=trap.reason)
    except TamperSignal as signal:
        # returned from here, so that no local of this frame, which the
        # signal's traceback holds, refers back to the signal
        return ExecutionResult.of(ctx, "tamper", tamper_cause=signal)
    finally:
        sys.setrecursionlimit(caller_limit)
        # every cycle of the run's compiled code runs through the context
        ctx.decoded.clear()
    return ExecutionResult.of(ctx, "normal", value=None if ret is None
                              else to_signed(raw, ret.bits))


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
    key = ("plain_hook", id(module))

    def call_hook(name: str, args):
        if name in EXTERN_SIGS:
            return ctx.intrinsic(name, args)
        ctx.enter_call()
        try:
            return evaluate_function(functions[name], args, ctx.decoded[key],
                                     ctx)
        finally:
            ctx.leave_call()

    ctx.decoded[key] = call_hook
    entry_fn = functions[entry]
    return run_entry(ctx, len(entry_fn.params), entry_fn.ret,
                     lambda args: evaluate_function(entry_fn, args,
                                                    call_hook, ctx))
