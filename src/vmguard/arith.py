"""Fixed-width two's-complement arithmetic shared by every execution engine.

Values are canonical unsigned ints in [0, 2**bits), or any value of an
engine's cell (an i1 cell is a byte).  `value_expr` states what each
value kind computes, with which masks and sign-bit flip, as one
expression over operand placeholders; every executor takes its value
code from it.  A `Template` is the shape of closure an executor runs,
with a hole for that expression: it compiles one closure factory per
signature, on first use, so building a closure is one lookup and one
call, and the closure runs the same operations a hand-written one
would.  `value_closure` builds the register-list closures of the
optimized engine's cold records; the checked engine keeps its
live-stream templates in `runtime`.  Generated basic blocks write a value
kind as `value_source` and keep their factories in `Factories` caches.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

if TYPE_CHECKING:       # importing vmguard.ir at run time would be circular
    from .ir.core import TypeTag

DIV_BY_ZERO = "division by zero"


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
# the kinds `value_expr` states; a compare is spelled icmp.<pred>
VALUE_KINDS = frozenset([*WRAPPING, *BITWISE, *TRAPPING, "select", "zext",
                         "sext", "trunc", *(f"icmp.{p}" for p in COMPARE)])
# the operand placeholders of a value kind, in operand order, by arity
PLACEHOLDERS = {1: "x", 2: "xy", 3: "cxy"}


def value_expr(kind: str, operand_types, result: TypeTag):
    """One expression that computes `kind`, and the constants it names.
    The expression reads its operands through the placeholders `{x}` and
    `{y}` (a select's condition is `{c}`, its arms `{x}` and `{y}`; a cast
    reads `{x}`).  The operator, masks and sign-bit flip of every value
    kind are worked out here and nowhere else."""
    if kind in WRAPPING:
        return "({x} %s {y}) & m" % WRAPPING[kind], \
            {"m": (1 << result.bits) - 1}
    if kind in BITWISE:
        # bitwise results keep whatever bits the cells hold
        return "({x} %s {y}) & m" % BITWISE[kind], \
            {"m": (1 << 8 * result.width) - 1}
    if kind in TRAPPING:
        return "op({x}, {y}, bits)", {"op": TRAPPING[kind],
                                      "bits": result.bits}
    if kind.startswith("icmp."):
        pred = kind[len("icmp."):]
        cmp = COMPARE.get(pred)
        if cmp is None:
            raise ValueError(f"unknown predicate {pred!r}")
        if pred not in SIGNED:
            return "1 if {x} %s {y} else 0" % cmp, {}
        # flipping the sign bit maps two's complement onto unsigned order
        operand = operand_types[0]
        sb = 1 << (operand.bits - 1)
        if operand.bits == 8 * operand.width:
            return "1 if {x} ^ sb %s {y} ^ sb else 0" % cmp, {"sb": sb}
        # an i1 cell is a whole byte, of which only the low bit counts
        return "1 if ({x} & m) ^ sb %s ({y} & m) ^ sb else 0" % cmp, \
            {"m": (1 << operand.bits) - 1, "sb": sb}
    if kind == "select":
        return "{x} if {c} else {y}", {}
    if kind in ("zext", "sext", "trunc"):
        bits = operand_types[0].bits
        sm, dm = (1 << bits) - 1, (1 << result.bits) - 1
        if kind == "sext":
            return "((({x} & sm) ^ sb) - sb) & m", \
                {"sm": sm, "sb": 1 << (bits - 1), "m": dm}
        return "{x} & m", {"m": sm if kind == "zext" else dm}
    raise ValueError(f"not a value kind: {kind!r}")


def value_source(kind: str, operand_types, result: TypeTag,
                 operands) -> str:
    """`kind`'s `value_expr` over the expressions `operands`, its constants
    written as literals and a trapping operator as its function's name."""
    expr, consts = value_expr(kind, operand_types, result)
    if consts:
        literal = {name: getattr(c, "__name__", repr(c))
                   for name, c in consts.items()}
        expr = re.sub(r"\b(%s)\b" % "|".join(consts),
                      lambda m: literal[m[1]], expr)
    return expr.format(**dict(zip(PLACEHOLDERS[len(operand_types)],
                                  operands)))


class Template(dict):
    """The closure factories of one closure shape, compiled on first use
    and kept by signature: (kind, operand types as a tuple, result type).

    `body` defines `run`, which may name `TrapError`, with `{value}` for
    the expression, and `{res}` and `{end}` for the positions of the
    result and of the element after it, the operands counting from 1.
    `read` reads one operand: `{p}` is its placeholder, `{i}` its
    position.  A factory takes one argument per placeholder, named by it,
    then `params`, and returns a new `run`; the constants are bound once
    per signature, as closure cells.  The source comes only from the
    template and `value_expr`'s fixed table."""

    def __init__(self, body: str, read: str, params: str) -> None:
        super().__init__()
        self.body, self.read, self.params = body, read, params

    def __missing__(self, key):
        kind, operand_types, result = key
        expr, consts = value_expr(kind, operand_types, result)
        names = PLACEHOLDERS[len(operand_types)]
        value = expr.format(**{p: self.read.format(p=p, i=i)
                               for i, p in enumerate(names, 1)})
        run = self.body.format(value=value, res=len(names) + 1,
                               end=len(names) + 2)
        source = (f"def bind({', '.join(consts)}):\n"
                  f"    def factory({', '.join(names)}, {self.params}):\n"
                  + "".join(f"        {line}\n" for line in run.splitlines())
                  + "        return run\n"
                  "    return factory\n")
        scope = {"TrapError": TrapError}
        exec(compile(source, f"<{kind} closure>", "exec"), scope)
        factory = self[key] = scope["bind"](**consts)
        return factory


# a closure over a list of canonical ints, which returns its successor
REGISTERS = Template("""\
def run(regs):
    regs[r] = {value}
    return s""", read="regs[{p}]", params="r, s")


def value_closure(kind: str, operand_types: tuple, result: TypeTag | None,
                  cells, s: int):
    """The closure `run(regs) -> s` that computes one value over a list of
    canonical ints: `kind` is a binary kind, `icmp.<pred>`, `select` or a
    cast, and `cells` holds the operand indices followed by the result's."""
    return REGISTERS[kind, operand_types, result](*cells, s)


# factories kept, process-wide, in each `Factories` cache
MAX_BLOCK_SHAPES = 1024


class Factories(dict):
    """Factories by key, compiled from `source(key)` on first use, the
    oldest dropped once `MAX_BLOCK_SHAPES` are kept.  The code runs in
    `namespace`, a module's globals, where the names it reads are looked
    up at each call.  The source comes only from an executor's statement
    table and `value_expr`, so nothing of a run or a stream is cached."""

    def __init__(self, source, namespace: dict) -> None:
        super().__init__()
        self.source, self.namespace = source, namespace

    def __missing__(self, key):
        if len(self) >= MAX_BLOCK_SHAPES:
            del self[next(iter(self))]
        scope: dict = {}
        exec(compile(self.source(key), "<generated block>", "exec"),
             self.namespace, scope)
        factory = self[key] = scope["factory"]
        return factory
