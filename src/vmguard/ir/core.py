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

from ..arith import TERMINATORS, Factories, to_signed


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

# Intrinsics available to every module: (param types, return type).
EXTERN_SIGS = {
    "read_i64": ((), TypeTag.I64),
    "print_i64": ((TypeTag.I64,), None),
}


@dataclass(frozen=True, init=False)
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

    def __init__(self, kind, result=None, type=None, operands=(), value=None,
                 predicate=None, labels=(), callee=None, count=None,
                 phi_args=()):
        # one update, a third of the cost of a frozen __init__'s setattrs
        self.__dict__.update(kind=kind, result=result, type=type,
                             operands=operands, value=value,
                             predicate=predicate, labels=labels,
                             callee=callee, count=count, phi_args=phi_args)

    @property
    def is_terminator(self) -> bool:
        return self.kind in TERMINATORS


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
        guard_execs, guard_edges = ctx.guard_counts()
        return cls(status, output=ctx.output, steps=ctx.steps,
                   guard_execs=guard_execs, guard_edges=guard_edges,
                   **fields)

    def same_outcome(self, other: "ExecutionResult") -> bool:
        """Behavioural equality: exit class, return value, output stream."""
        return (self.status == other.status
                and self.value == other.value
                and self.output == other.output)


# ------------------------------------------------------------ text forms

# Fields of an instruction's text form.  `RESULT_FORMS` and
# `STATEMENT_FORMS` give, for each kind, the fields written after its
# keyword; the printer and the parser both walk them, so the two cannot
# disagree.  Any other string in a form is a literal token: ",", "x" or
# "void".
TYPE = 0        # the instruction's type
OPERAND = 1     # %value: the next operand
LABEL = 2       # %label: the next branch target
IMM = 3         # const immediate, written signed and stored wrapped
COUNT = 4       # alloca element count
PREDICATE = 5   # icmp predicate
CALL = 6        # @callee(%arg, ...): the callee and every remaining operand
ARMS = 7        # phi arms: [%value, %label], ...
RET_VALUE = 8   # `void`, or a type and an operand

_PAIR = (TYPE, OPERAND, ",", OPERAND)

# forms written after `%result = `
RESULT_FORMS = {
    "const": (TYPE, IMM),
    **dict.fromkeys(BINARY_KINDS, _PAIR),
    "icmp": (PREDICATE, *_PAIR),
    "select": (*_PAIR, ",", OPERAND),
    **dict.fromkeys(CAST_KINDS, (TYPE, OPERAND)),
    "alloca": (TYPE, "x", COUNT),
    "load": _PAIR,
    "call": (TYPE, CALL),
    "phi": (TYPE, ARMS),
}

# forms of instructions that define no value
STATEMENT_FORMS = {
    "store": (*_PAIR, ",", OPERAND),
    "call": ("void", CALL),
    "br": (LABEL,),
    "brcond": (OPERAND, ",", LABEL, ",", LABEL),
    "ret": (RET_VALUE,),
}


# the f-string text each field of a form prints; `{n}` is the number of
# operands the fields before it consumed, `{m}` the number of labels
_FIELD_TEXT = {
    OPERAND: " %{{ins.operands[{n}]}}",
    ",": ",",
    TYPE: " {{ins.type.text}}",
    LABEL: " %{{ins.labels[{m}]}}",
    IMM: " {{to_signed(ins.value, ins.type.bits)}}",
    COUNT: " {{ins.count}}",
    PREDICATE: " {{ins.predicate}}",
    CALL: " @{{ins.callee}}({{_names(ins.operands[{n}:])}})",
    ARMS: " {{_arms(ins.phi_args)}}",
    RET_VALUE: " {{_ret_value(ins)}}",
}


def _printer_source(key) -> str:
    """The source of the printer of one form, by (kind, defines a value):
    a single f-string over the instruction's fields.  The printer is its
    cache's factory: it takes the instruction and returns its text."""
    kind, has_result = key
    form = (RESULT_FORMS if has_result else STATEMENT_FORMS).get(kind)
    if form is None:
        raise ValueError(f"unknown instruction kind {kind!r}")
    text = "%{ins.result} = " + kind if has_result else kind
    n = m = 0
    for field in form:
        text += _FIELD_TEXT.get(field, " " + str(field)).format(n=n, m=m)
        n += field == OPERAND
        m += field == LABEL
    return f"def printer(ins):\n    return f{text!r}\n"


def _names(values) -> str:
    return ", ".join(f"%{v}" for v in values)


def _arms(phi_args) -> str:
    return ", ".join(f"[%{v}, %{label}]" for v, label in phi_args)


def _ret_value(ins: Instruction) -> str:
    return f"{ins.type.text} %{ins.operands[0]}" if ins.operands else "void"


# one printer per form, compiled on first use
_PRINTERS = Factories(_printer_source, globals())


def format_instruction(ins: Instruction) -> str:
    return _PRINTERS[ins.kind, ins.result is not None](ins)


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
