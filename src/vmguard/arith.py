"""Fixed-width two's-complement arithmetic shared by every execution engine.

Values are carried as canonical unsigned ints in [0, 2**bits).  Both the
reference interpreter and the bytecode engines call these helpers, so the
semantics have a single home.
"""

from __future__ import annotations

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


def mask(bits: int) -> int:
    return (1 << bits) - 1


def wrap(value: int, bits: int) -> int:
    return value & ((1 << bits) - 1)


def to_signed(value: int, bits: int) -> int:
    value &= (1 << bits) - 1
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


def sdiv(a: int, b: int, bits: int) -> int:
    if b == 0:
        raise TrapError(DIV_BY_ZERO)
    sa, sb = to_signed(a, bits), to_signed(b, bits)
    q = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        q = -q
    return wrap(q, bits)


def srem(a: int, b: int, bits: int) -> int:
    if b == 0:
        raise TrapError(DIV_BY_ZERO)
    sa, sb = to_signed(a, bits), to_signed(b, bits)
    q = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        q = -q
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


def binary_op(kind: str, a: int, b: int, bits: int) -> int:
    if kind == "add":
        return (a + b) & ((1 << bits) - 1)
    if kind == "sub":
        return (a - b) & ((1 << bits) - 1)
    if kind == "mul":
        return (a * b) & ((1 << bits) - 1)
    if kind == "and":
        return a & b
    if kind == "or":
        return a | b
    if kind == "xor":
        return a ^ b
    if kind == "sdiv":
        return sdiv(a, b, bits)
    if kind == "srem":
        return srem(a, b, bits)
    if kind == "shl":
        return shl(a, b, bits)
    if kind == "lshr":
        return lshr(a, b, bits)
    if kind == "ashr":
        return ashr(a, b, bits)
    raise ValueError(f"not a binary kind: {kind!r}")


def icmp(pred: str, a: int, b: int, bits: int) -> int:
    if pred in ("slt", "sle", "sgt", "sge"):
        a, b = to_signed(a, bits), to_signed(b, bits)
    if pred == "eq":
        return int(a == b)
    if pred == "ne":
        return int(a != b)
    if pred in ("slt", "ult"):
        return int(a < b)
    if pred in ("sle", "ule"):
        return int(a <= b)
    if pred in ("sgt", "ugt"):
        return int(a > b)
    if pred in ("sge", "uge"):
        return int(a >= b)
    raise ValueError(f"unknown predicate {pred!r}")


def cast(kind: str, value: int, src: TypeTag, dst: TypeTag) -> int:
    if kind == "zext":
        return value & mask(src.bits)
    if kind == "sext":
        return wrap(to_signed(value, src.bits), dst.bits)
    if kind == "trunc":
        return value & mask(dst.bits)
    raise ValueError(f"not a cast kind: {kind!r}")
