"""Fixed-width two's-complement arithmetic shared by every execution engine.

Values are canonical unsigned ints in [0, 2**bits), or any value of an
engine's cell (an i1 cell is a byte).  The operator tables define each
binary kind and predicate once: `binary_op`/`icmp` dispatch through them
and the optimized engine binds them into its closures.
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


def binary_op(kind: str, a: int, b: int, bits: int) -> int:
    op = WRAPPING.get(kind)
    if op is not None:
        return op(a, b) & ((1 << bits) - 1)
    op = BITWISE.get(kind)
    if op is not None:
        return op(a, b)
    op = TRAPPING.get(kind)
    if op is not None:
        return op(a, b, bits)
    raise ValueError(f"not a binary kind: {kind!r}")


def icmp(pred: str, a: int, b: int, bits: int) -> int:
    cmp = COMPARE.get(pred)
    if cmp is None:
        raise ValueError(f"unknown predicate {pred!r}")
    if pred in SIGNED:
        # flipping the sign bit maps two's complement onto unsigned order
        m, sb = (1 << bits) - 1, 1 << (bits - 1)
        a, b = (a & m) ^ sb, (b & m) ^ sb
    return 1 if cmp(a, b) else 0


def cast(kind: str, value: int, src: TypeTag, dst: TypeTag) -> int:
    if kind == "zext":
        return wrap(value, src.bits)
    if kind == "sext":
        return wrap(to_signed(value, src.bits), dst.bits)
    if kind == "trunc":
        return wrap(value, dst.bits)
    raise ValueError(f"not a cast kind: {kind!r}")
