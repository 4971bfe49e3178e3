"""Core IR data model and canonical printer.

A module is a flat list of functions; a function is an ordered list of
labelled basic blocks; every block ends with exactly one terminator.
Values are SSA-style ids (`%x`), types are fixed-width integers, and
immediates enter only through `const` instructions.  Modules are built
immutably: parsing or programmatic construction produces frozen objects.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class TypeTag(enum.IntEnum):
    """Integer type.  Each member carries its bit count, its byte width as
    a stored value (I1 occupies one byte) and its source spelling as plain
    attributes, so hot paths read them without a lookup."""

    bits: int
    width: int
    text: str

    def __new__(cls, code: int, bits: int, width: int, text: str):
        tag = int.__new__(cls, code)
        tag._value_ = code
        tag.bits, tag.width, tag.text = bits, width, text
        return tag

    I1 = (0, 1, 1, "i1")
    I8 = (1, 8, 1, "i8")
    I16 = (2, 16, 2, "i16")
    I32 = (3, 32, 4, "i32")
    I64 = (4, 64, 8, "i64")


TYPE_BY_NAME = {t.text: t for t in TypeTag}

BINARY_KINDS = ("add", "sub", "mul", "sdiv", "srem", "and", "or", "xor",
                "shl", "lshr", "ashr")
ICMP_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge",
                   "ult", "ule", "ugt", "uge")
CAST_KINDS = ("zext", "sext", "trunc")
TERMINATOR_KINDS = ("br", "brcond", "ret")

# Intrinsics available to every module: (param types, return type).
EXTERN_SIGS = {
    "read_i64": ((), TypeTag.I64),
    "print_i64": ((TypeTag.I64,), None),
}


@dataclass(frozen=True)
class Instruction:
    kind: str
    result: str | None = None
    type: TypeTag | None = None
    operands: tuple[str, ...] = ()
    value: int | None = None                       # const immediate
    predicate: str | None = None                   # icmp
    labels: tuple[str, ...] = ()                   # br / brcond targets
    callee: str | None = None                      # call target
    count: int | None = None                       # alloca element count
    phi_args: tuple[tuple[str, str], ...] = ()     # (value id, pred label)

    @property
    def is_terminator(self) -> bool:
        return self.kind in TERMINATOR_KINDS


@dataclass(frozen=True)
class Block:
    label: str
    instructions: tuple[Instruction, ...]

    @property
    def terminator(self) -> Instruction:
        return self.instructions[-1]


@dataclass(frozen=True)
class IrFunction:
    name: str
    params: tuple[tuple[str, TypeTag], ...]
    ret: TypeTag | None
    blocks: tuple[Block, ...]

    def block(self, label: str) -> Block:
        for b in self.blocks:
            if b.label == label:
                return b
        raise KeyError(label)

    @property
    def entry(self) -> Block:
        return self.blocks[0]

    def instructions(self):
        for b in self.blocks:
            yield from b.instructions


@dataclass(frozen=True)
class IrModule:
    functions: tuple[IrFunction, ...]
    externs: tuple[str, ...] = tuple(EXTERN_SIGS)

    def function(self, name: str) -> IrFunction:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(name)

    def has_function(self, name: str) -> bool:
        return any(f.name == name for f in self.functions)


@dataclass
class ExecutionResult:
    """Outcome record shared by the reference interpreter and both protected
    engines, so runs can be compared field by field."""

    status: str                      # "normal" | "trap" | "tamper"
    value: int | None = None         # signed return value when normal
    trap_reason: str | None = None
    tamper_cause: object | None = None  # TamperSignal when status is tamper
    output: list[int] = field(default_factory=list)
    steps: int = 0
    guard_execs: int = 0
    guard_edges: dict = field(default_factory=dict)  # (checker, checkee) -> count

    @classmethod
    def of(cls, ctx, status: str, **fields) -> "ExecutionResult":
        """The outcome of the run whose ExecContext is `ctx`: its output,
        steps and guard counts, plus the given fields."""
        return cls(status, output=ctx.output, steps=ctx.steps,
                   guard_execs=ctx.guard_execs,
                   guard_edges=dict(ctx.guard_edges), **fields)

    def same_outcome(self, other: "ExecutionResult") -> bool:
        """Behavioural equality: exit class, return value, output stream."""
        return (self.status == other.status
                and self.value == other.value
                and self.output == other.output)


# ---------------------------------------------------------------- printing

def _fmt_signed(value: int, tag: TypeTag) -> str:
    bits = tag.bits
    v = value & ((1 << bits) - 1)
    if v >= 1 << (bits - 1):
        v -= 1 << bits
    return str(v)


def format_instruction(ins: Instruction) -> str:
    k = ins.kind
    if k == "const":
        return f"%{ins.result} = const {ins.type.text} {_fmt_signed(ins.value, ins.type)}"
    if k in BINARY_KINDS:
        a, b = ins.operands
        return f"%{ins.result} = {k} {ins.type.text} %{a}, %{b}"
    if k == "icmp":
        a, b = ins.operands
        return f"%{ins.result} = icmp {ins.predicate} {ins.type.text} %{a}, %{b}"
    if k == "select":
        c, a, b = ins.operands
        return f"%{ins.result} = select {ins.type.text} %{c}, %{a}, %{b}"
    if k in CAST_KINDS:
        return f"%{ins.result} = {k} {ins.type.text} %{ins.operands[0]}"
    if k == "alloca":
        return f"%{ins.result} = alloca {ins.type.text} x {ins.count}"
    if k == "load":
        base, idx = ins.operands
        return f"%{ins.result} = load {ins.type.text} %{base}, %{idx}"
    if k == "store":
        val, base, idx = ins.operands
        return f"store {ins.type.text} %{val}, %{base}, %{idx}"
    if k == "call":
        args = ", ".join(f"%{a}" for a in ins.operands)
        if ins.result is None:
            return f"call void @{ins.callee}({args})"
        return f"%{ins.result} = call {ins.type.text} @{ins.callee}({args})"
    if k == "phi":
        arms = ", ".join(f"[%{v}, %{lbl}]" for v, lbl in ins.phi_args)
        return f"%{ins.result} = phi {ins.type.text} {arms}"
    if k == "br":
        return f"br %{ins.labels[0]}"
    if k == "brcond":
        return f"brcond %{ins.operands[0]}, %{ins.labels[0]}, %{ins.labels[1]}"
    if k == "ret":
        if ins.operands:
            return f"ret {ins.type.text} %{ins.operands[0]}"
        return "ret void"
    raise ValueError(f"unknown instruction kind {k!r}")


def format_function(fn: IrFunction) -> str:
    params = ", ".join(f"{t.text} %{n}" for n, t in fn.params)
    ret = fn.ret.text if fn.ret is not None else "void"
    lines = [f"func @{fn.name}({params}) -> {ret} {{"]
    for block in fn.blocks:
        lines.append(f"{block.label}:")
        for ins in block.instructions:
            lines.append(f"  {format_instruction(ins)}")
    lines.append("}")
    return "\n".join(lines)


def format_module(module: IrModule) -> str:
    """Canonical text: parse -> format is idempotent byte for byte."""
    return "\n\n".join(format_function(f) for f in module.functions) + "\n"
