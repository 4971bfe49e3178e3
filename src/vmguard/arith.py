"""Fixed-width two's-complement arithmetic shared by every execution engine.

Values are canonical unsigned ints in [0, 2**bits), or any value of an
engine's cell (an i1 cell is a byte).  The operator tables define each
binary kind and predicate once, and `value_closure` binds them, with
their masks, into the closures the optimized engine and the reference
interpreter run.
"""

from __future__ import annotations

import operator
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


WRAPPING = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}
# bitwise results keep whatever bits the cells hold
BITWISE = {"and": operator.and_, "or": operator.or_, "xor": operator.xor}
# called as op(a, b, bits)
TRAPPING = {"sdiv": sdiv, "srem": srem, "shl": shl, "lshr": lshr,
            "ashr": ashr}

COMPARE = {
    "eq": operator.eq, "ne": operator.ne,
    "slt": operator.lt, "sle": operator.le,
    "sgt": operator.gt, "sge": operator.ge,
    "ult": operator.lt, "ule": operator.le,
    "ugt": operator.gt, "uge": operator.ge,
}
# these compare the low `bits` as two's complement, the others whole cells
SIGNED = ("slt", "sle", "sgt", "sge")
# the kinds `value_closure` builds; a compare is spelled icmp.<pred>
VALUE_KINDS = frozenset([*WRAPPING, *BITWISE, *TRAPPING, "select", "zext",
                         "sext", "trunc", *(f"icmp.{p}" for p in COMPARE)])


def value_closure(kind: str, operand_types, result: TypeTag | None, cells,
                  s: int):
    """The closure `run(regs) -> s` that computes one value over a list of
    canonical ints: `kind` is a binary kind, `icmp.<pred>`, `select` or a
    cast, and `cells` holds the operand indices followed by the result's.
    The operator, masks and sign-bit flip are worked out here, once."""
    if kind in WRAPPING or kind in BITWISE:
        a, b, r = cells
        if kind in WRAPPING:
            op, m = WRAPPING[kind], (1 << result.bits) - 1
        else:
            # bitwise results keep whatever bits the cells hold
            op, m = BITWISE[kind], (1 << 8 * result.width) - 1

        def run(regs):
            regs[r] = op(regs[a], regs[b]) & m
            return s
        return run

    if kind in TRAPPING:
        op, bits = TRAPPING[kind], result.bits
        a, b, r = cells

        def run(regs):
            regs[r] = op(regs[a], regs[b], bits)
            return s
        return run

    if kind.startswith("icmp."):
        pred = kind[len("icmp."):]
        cmp = COMPARE.get(pred)
        if cmp is None:
            raise ValueError(f"unknown predicate {pred!r}")
        a, b, r = cells
        if pred not in SIGNED:
            def run(regs):
                regs[r] = 1 if cmp(regs[a], regs[b]) else 0
                return s
            return run
        # flipping the sign bit maps two's complement onto unsigned order
        operand = operand_types[0]
        sb = 1 << (operand.bits - 1)
        if operand.bits == 8 * operand.width:
            def run(regs):
                regs[r] = 1 if cmp(regs[a] ^ sb, regs[b] ^ sb) else 0
                return s
            return run
        # an i1 cell is a whole byte, of which only the low bit counts
        m = (1 << operand.bits) - 1

        def run(regs):
            regs[r] = 1 if cmp((regs[a] & m) ^ sb, (regs[b] & m) ^ sb) else 0
            return s
        return run

    if kind == "select":
        c, a, b, r = cells

        def run(regs):
            regs[r] = regs[a] if regs[c] else regs[b]
            return s
        return run

    if kind in ("zext", "sext", "trunc"):
        a, r = cells
        operand, dm = operand_types[0], (1 << result.bits) - 1
        if kind == "sext":
            sm, sb = (1 << operand.bits) - 1, 1 << (operand.bits - 1)

            def run(regs):
                regs[r] = (((regs[a] & sm) ^ sb) - sb) & dm
                return s
            return run
        m = (1 << operand.bits) - 1 if kind == "zext" else dm

        def run(regs):
            regs[r] = regs[a] & m
            return s
        return run
    raise ValueError(f"not a value kind: {kind!r}")
