"""Fixed-width two's-complement arithmetic shared by every execution engine.

Values are canonical unsigned ints in [0, 2**bits), or any value of an
engine's cell (an i1 cell is a byte).  `value_source` states what each
value kind computes, with which masks and sign-bit flip, as one
expression over its operands' expressions; every executor takes its
value code from it.  Each executor keeps its own table of the statements
its records or instructions run as, around those expressions;
`block_source` assembles the optimized engine's and the reference
interpreter's blocks from them, and `factory_source` wraps every block
and checked handler in its factory, compiled through a `Factories`
cache, the one place in the package where source is compiled.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

if TYPE_CHECKING:       # importing vmguard.ir at run time would be circular
    from .ir.core import TypeTag

DIV_BY_ZERO = "division by zero"
STEP_LIMIT_REASON = "step limit exceeded"


class TrapError(Exception):
    """Well-defined program-level failure (division by zero, out-of-bounds
    access, exhausted step budget)."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def wrap(value: int, bits: int) -> int:
    return value & ((1 << bits) - 1)


def to_signed(value: int, bits: int) -> int:
    value &= (1 << bits) - 1
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


def index_limit(count: int, index: TypeTag) -> int:
    """How many leading elements of a `count`-element region an index of
    type `index` may reach: an index is in bounds when 0 <= signed index
    < count, and capping the limit below the sign bit lets an index
    cell's unsigned value stand in for the signed one."""
    return min(count, 1 << (index.bits - 1))


def _signed_quotient(a: int, b: int, bits: int) -> tuple[int, int, int]:
    """Both operands as signed values and their quotient, rounded toward
    zero; a divisor whose low `bits` are all zero traps."""
    sa, sb = to_signed(a, bits), to_signed(b, bits)
    if not sb:
        raise TrapError(DIV_BY_ZERO)
    q = abs(sa) // abs(sb)
    return sa, sb, -q if (sa < 0) != (sb < 0) else q


def sdiv(a: int, b: int, bits: int) -> int:
    return wrap(_signed_quotient(a, b, bits)[2], bits)


def srem(a: int, b: int, bits: int) -> int:
    sa, sb, q = _signed_quotient(a, b, bits)
    return wrap(sa - sb * q, bits)


def shl(a: int, amount: int, bits: int) -> int:
    if amount >= bits:
        return 0
    return wrap(a << amount, bits)


def lshr(a: int, amount: int, bits: int) -> int:
    if amount >= bits:
        return 0
    return (a & ((1 << bits) - 1)) >> amount


def ashr(a: int, amount: int, bits: int) -> int:
    sa = to_signed(a, bits)
    if amount >= bits:
        return wrap(-1, bits) if sa < 0 else 0
    return wrap(sa >> amount, bits)


# the infix operator of each wrapping and bitwise kind and predicate
WRAPPING = {"add": "+", "sub": "-", "mul": "*"}
BITWISE = {"and": "&", "or": "|", "xor": "^"}
# called as op(a, b, bits)
TRAPPING = {"sdiv": sdiv, "srem": srem, "shl": shl, "lshr": lshr,
            "ashr": ashr}

COMPARE = {
    "eq": "==", "ne": "!=",
    "slt": "<", "sle": "<=", "sgt": ">", "sge": ">=",
    "ult": "<", "ule": "<=", "ugt": ">", "uge": ">=",
}
# these compare the low `bits` as two's complement, the others whole cells
SIGNED = ("slt", "sle", "sgt", "sge")
# the kinds `value_source` states; a compare is spelled icmp.<pred>
VALUE_KINDS = frozenset([*WRAPPING, *BITWISE, *TRAPPING, "select", "zext",
                         "sext", "trunc", *(f"icmp.{p}" for p in COMPARE)])


def value_source(kind: str, operand_types, result: TypeTag,
                 operands) -> str:
    """One expression that computes `kind` over the expressions `operands`,
    in operand order (a select's condition, then its arms).  The operator,
    masks and sign-bit flip of every value kind are worked out here and
    nowhere else, and written as literals; a trapping kind calls its
    function by name, so the code that runs the expression must see it."""
    if kind not in VALUE_KINDS:
        raise ValueError(f"not a value kind: {kind!r}")
    if kind == "select":
        c, x, y = operands
        return f"{x} if {c} else {y}"
    if kind in ("zext", "sext", "trunc"):
        (x,) = operands
        bits = operand_types[0].bits
        sm, dm = (1 << bits) - 1, (1 << result.bits) - 1
        if kind == "sext":
            sb = 1 << (bits - 1)
            return f"((({x} & {sm}) ^ {sb}) - {sb}) & {dm}"
        return f"{x} & {sm if kind == 'zext' else dm}"
    x, y = operands
    if kind in WRAPPING:
        return f"({x} {WRAPPING[kind]} {y}) & {(1 << result.bits) - 1}"
    if kind in BITWISE:
        # bitwise results keep whatever bits the cells hold
        return f"({x} {BITWISE[kind]} {y}) & {(1 << 8 * result.width) - 1}"
    if kind in TRAPPING:
        return f"{TRAPPING[kind].__name__}({x}, {y}, {result.bits})"
    pred = kind[len("icmp."):]
    cmp = COMPARE[pred]
    if pred not in SIGNED:
        return f"1 if {x} {cmp} {y} else 0"
    # flipping the sign bit maps two's complement onto unsigned order
    operand = operand_types[0]
    sb = 1 << (operand.bits - 1)
    if operand.bits == 8 * operand.width:
        return f"1 if {x} ^ {sb} {cmp} {y} ^ {sb} else 0"
    # an i1 cell is a whole byte, of which only the low bit counts
    m = (1 << operand.bits) - 1
    return f"1 if ({x} & {m}) ^ {sb} {cmp} ({y} & {m}) ^ {sb} else 0"


# factories kept, process-wide, in each `Factories` cache
MAX_BLOCK_SHAPES = 1024


class Factories(dict):
    """Factories by key, each the one function `source(key)` defines,
    compiled on first use, the oldest dropped once `MAX_BLOCK_SHAPES` are
    kept.  The code runs in `namespace`, a module's globals, where the
    names it reads are looked up at each call.  The source comes only
    from the package's statement tables and `value_source`, so nothing of
    a run or a stream is cached."""

    def __init__(self, source, namespace: dict) -> None:
        super().__init__()
        self.source, self.namespace = source, namespace

    def __missing__(self, key):
        if len(self) >= MAX_BLOCK_SHAPES:
            del self[next(iter(self))]
        scope: dict = {}
        exec(compile(self.source(key), "<generated>", "exec"),
             self.namespace, scope)
        (factory,) = scope.values()
        self[key] = factory
        return factory


# the kinds that end a block, and those that end a segment of it
TERMINATORS = ("br", "brcond", "ret")
SEGMENT_ENDS = ("call", "guard")


def factory_source(params, args, bound: dict, body: str) -> str:
    """The source of `factory(*params)`, which returns a function of
    `args` that runs `body`.  Each name of `bound` that the body reads
    binds as a default, a fast local, to its expression over `params`."""
    defaults = [f"{name}={expr}" for name, expr in bound.items()
                if re.search(rf"\b{name}\b", body)]
    return (f"def factory({', '.join(params)}):\n"
            f"    def run({', '.join([*args, *defaults])}):\n"
            + "".join(f"        {line}\n" for line in body.splitlines())
            + "    return run\n")


def block_source(statements) -> str:
    """The source of the factory of one block over the register list `vm`:
    `statements` holds a (kind, template) pair per record or instruction,
    in order, only the last of which may be a terminator.  `{aN}` is a
    template's N-th argument and `{back}` how many statements of its
    segment follow it, which a trap takes back off `ctx.steps`.  The
    factory takes the run's context, step limit and hand-over, the
    block's first position `o`, then each statement's arguments in turn.

    A block counts every step it runs, per segment, ending one at each
    call and guard, before the segment runs.  A segment the step limit
    falls inside returns `hand(vm, o + start)` instead, with its start.
    A block that does not end in a terminator returns
    `o + len(statements)`."""
    params, body, start = ["ctx", "limit", "hand", "o"], [], 0
    for j, (kind, template) in enumerate(statements):
        if j == start:
            end = next((e + 1 for e in range(j, len(statements))
                        if statements[e][0] in SEGMENT_ENDS), len(statements))
            body += [f"st = ctx.steps + {end - start}",
                     "if st > limit:",
                     f"    return hand(vm, o + {start})",
                     "ctx.steps = st"]
        names = {f"a{p}": f"a{p}_{j}" for p in
                 range(len(set(re.findall(r"\{a\d+\}", template))))}
        params += names.values()
        body += template.format(back=end - 1 - j, **names).splitlines()
        if kind in SEGMENT_ENDS:
            start = j + 1
    if statements[-1][0] not in TERMINATORS:
        body.append(f"return o + {len(statements)}")
    return factory_source(params, ["vm"], {p: p for p in params},
                          "\n".join(body))


def hand_over(ctx, single):
    """The hand-over of a run's blocks, `hand(vm, o)`: the step limit falls
    inside the segment at `o`, none of whose steps are counted, so it runs
    the segment one statement at a time, as the block `single(o, trap)`,
    until a statement meets the limit and hands over to `trap`, which
    counts that statement's step and traps before it runs."""
    def trap(vm, o):
        ctx.steps += 1
        raise TrapError(STEP_LIMIT_REASON)

    def hand(vm, o):
        while True:
            o = single(o, trap)(vm)
    return hand
