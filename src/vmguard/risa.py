"""Per-function randomized instruction encodings.

Every protected function carries its own opcode table: semantic handler
signatures are mapped to opcodes drawn uniformly from [0, 0xFFFE], so the
same source construct encodes differently in every function and under
every seed.  0xFFFF never names an instruction; it doubles as the branch
placeholder during lowering, as the empty opcode of a lift template and
as an always-invalid cell for tests.

Two instructions share a handler (and therefore an opcode) exactly when
their signature matches: operation kind, comparison predicate, operand
types and result type.  Structure-dependent facts (slot offsets, region
bounds, branch targets, callee index) live in the encoded operand stream,
not in the handler, which is what makes reuse safe.

A signature's `layout` states, once for every consumer, what each
element after the opcode is (its role) and which type it has; lifting,
`verify` and both engines read records through it.  A signature whose
types do not fit its kind has no layout and decodes as no handler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .ir.core import BINARY_KINDS, TypeTag

OPCODE_SPACE = 0xFFFF          # valid opcodes are 0 .. OPCODE_SPACE - 1
BRANCH_PLACEHOLDER = 0xFFFF

# wire codes for handler kinds; order is frozen by the serialized format
KIND_NAMES = (
    "const", "add", "sub", "mul", "sdiv", "srem", "and", "or", "xor",
    "shl", "lshr", "ashr",
    "icmp.eq", "icmp.ne", "icmp.slt", "icmp.sle", "icmp.sgt", "icmp.sge",
    "icmp.ult", "icmp.ule", "icmp.ugt", "icmp.uge",
    "select", "zext", "sext", "trunc", "alloca", "load", "store",
    "br", "brcond", "ret", "call", "guard",
)
KIND_CODE = {name: i for i, name in enumerate(KIND_NAMES)}

TAG_CODE = {TypeTag.I1: 0, TypeTag.I8: 1, TypeTag.I16: 2, TypeTag.I32: 3,
            TypeTag.I64: 4}
TAG_FROM_CODE = {v: k for k, v in TAG_CODE.items()}


class RisaError(Exception):
    pass


class RisaFull(RisaError):
    """No unused opcode remains; a function would need > 0xFFFF distinct
    handler signatures to hit this."""


class MalformedStream(Exception):
    """An encoded program fails to decode as a whole number of records.
    `truncated` tells a final record running off the end apart from an
    element that names no usable handler."""

    def __init__(self, reason: str, truncated: bool = False) -> None:
        super().__init__(reason)
        self.reason = reason
        self.truncated = truncated


# roles of the elements that follow a record's opcode
CELL = "cell"           # a value cell the record reads
RESULT = "result"       # the value cell the record writes
BASE = "base"           # first byte of a load/store region
COUNT = "count"         # element count of that region
TARGET = "target"       # element index of a branch target
CALLEE = "callee"       # function table index of a call target
CHECKEE = "checkee"     # function table index of a guarded function


def _layout(kind: str, ops: tuple[TypeTag, ...], res: TypeTag | None):
    """(role, type) per operand element, or None when the types do not fit
    the kind or the kind has no wire code.  Cell roles carry the cell's
    type, region roles the element type; table indices and branch targets
    carry None."""
    if kind not in KIND_CODE:
        return None
    n = len(ops)
    if kind == "call":
        return ((CALLEE, None),) + tuple((CELL, t) for t in ops) + \
            (() if res is None else ((RESULT, res),))
    if kind in BINARY_KINDS or kind.startswith("icmp."):
        if n == 2 and ops[0] is ops[1] and res is (
                TypeTag.I1 if kind.startswith("icmp.") else ops[0]):
            return ((CELL, ops[0]), (CELL, ops[1]), (RESULT, res))
    elif kind == "select":
        if n == 3 and ops[0] is TypeTag.I1 and ops[1] is ops[2] is res:
            return ((CELL, ops[0]), (CELL, ops[1]), (CELL, ops[2]),
                    (RESULT, res))
    elif kind in ("zext", "sext", "trunc"):
        # the IR validator only lets trunc narrow and the extensions widen
        if n == 1 and res is not None and ops[0].bits != res.bits and \
                (ops[0].bits > res.bits) == (kind == "trunc"):
            return ((CELL, ops[0]), (RESULT, res))
    elif kind in ("load", "store"):
        # the IR validator forbids i1 indices
        if kind == "load" and n == 1 and res is not None and \
                ops[0] is not TypeTag.I1:
            return ((BASE, res), (COUNT, res), (CELL, ops[0]), (RESULT, res))
        if kind == "store" and n == 2 and res is None and \
                ops[1] is not TypeTag.I1:
            return ((CELL, ops[0]), (BASE, ops[0]), (COUNT, ops[0]),
                    (CELL, ops[1]))
    elif kind == "const":
        if n == 0 and res is not None:
            return ((RESULT, res),)
    elif res is None:
        if kind == "ret" and n <= 1:
            return tuple((CELL, t) for t in ops)
        if kind == "brcond" and ops == (TypeTag.I1,):
            return ((CELL, TypeTag.I1), (TARGET, None), (TARGET, None))
        if n == 0:
            return {"alloca": (), "br": ((TARGET, None),),
                    "guard": ((CHECKEE, None), (CELL, TypeTag.I16),
                              (RESULT, TypeTag.I16))}.get(kind)
    return None


@dataclass(frozen=True)
class HandlerSpec:
    """Signature of one runtime handler: what it does and on which types.
    Build specs through `handler_spec`, which interns them, so each distinct
    signature works out its layout once."""

    kind: str
    operand_types: tuple[TypeTag, ...] = ()
    result_type: TypeTag | None = None

    @cached_property
    def number(self) -> int:
        """The signature as one int: its wire encoding, behind a leading 1,
        read as a number.  Equal signatures share it and an int hashes in
        C, so a tuple of numbers keys a block shape."""
        res = self.result_type
        ops = (TAG_CODE[t] for t in self.operand_types)
        return int.from_bytes(bytes((1, KIND_CODE[self.kind], *ops, 0xFF if
                                     res is None else TAG_CODE[res])), "big")

    @cached_property
    def layout(self) -> tuple[tuple[str, TypeTag | None], ...] | None:
        """The record's operand elements, in stream order, as (role, type)
        pairs; None when the signature does not fit its kind, which only a
        forged opcode table produces."""
        return _layout(self.kind, self.operand_types, self.result_type)

    @cached_property
    def record_len(self) -> int:
        """Number of 16-bit elements one encoded record occupies; only
        defined when `layout` is not None."""
        return 1 + len(self.layout)

    @cached_property
    def targets(self) -> tuple[int, ...]:
        """Operand positions (0 is the element after the opcode) that hold
        branch targets."""
        return tuple(i for i, (role, _) in enumerate(self.layout)
                     if role == TARGET)


handler_spec = lru_cache(maxsize=4096)(HandlerSpec)


def numbered_spec(number: int) -> HandlerSpec:
    """The signature whose `number` is `number`."""
    code = number.to_bytes((number.bit_length() + 7) // 8, "big")
    return handler_spec(KIND_NAMES[code[1]],
                        tuple(TAG_FROM_CODE[c] for c in code[2:-1]),
                        TAG_FROM_CODE.get(code[-1]))


def spec_for_instruction(ins, value_tag) -> HandlerSpec:
    """Handler signature for an IR instruction: the types of the values it
    reads, in operand order, and of the value it writes.  `value_tag(name)`
    resolves operand types, since cast sources and memory indices keep
    their own widths."""
    kind, names = ins.kind, ins.operands
    if kind in ("load", "store"):
        names = names[:-2] + names[-1:]     # the region base is no cell
    result = None if ins.result is None or kind == "alloca" else ins.type
    if kind == "icmp":
        kind, result = f"icmp.{ins.predicate}", TypeTag.I1
    return handler_spec(kind, tuple(map(value_tag, names)), result)


GUARD_SPEC = handler_spec("guard")


@dataclass
class Risa:
    """One function's opcode table, built up during lowering.  `opcode_of`
    is keyed by `HandlerSpec.number`, an int, which hashes in C."""

    opcode_of: dict[int, int] = field(default_factory=dict)
    spec_of: dict[int, HandlerSpec] = field(default_factory=dict)

    def opcode_for(self, spec: HandlerSpec, rng) -> int:
        """Existing opcode for `spec`, or a fresh uniform draw that collides
        with nothing already assigned."""
        opc = self.opcode_of.get(spec.number)
        if opc is not None:
            return opc
        if len(self.spec_of) >= OPCODE_SPACE:
            raise RisaFull(f"all {OPCODE_SPACE} opcodes are in use")
        while True:
            opc = rng.randrange(OPCODE_SPACE)
            if opc not in self.spec_of:
                break
        self.opcode_of[spec.number] = opc
        self.spec_of[opc] = spec
        return opc

    def __len__(self) -> int:
        return len(self.spec_of)


def walk_records(risa: Risa, vpa) -> list[tuple[int, HandlerSpec]]:
    """Split an encoded stream into records: (element index, handler spec)
    pairs.  Raises MalformedStream when an element at a record boundary
    names no handler, names one whose types do not fit its kind, or the
    final record runs off the end."""
    out = []
    i = 0
    n = len(vpa)
    spec_of = risa.spec_of
    while i < n:
        spec = spec_of.get(vpa[i])
        if spec is None:
            raise MalformedStream(
                f"element {i} holds {vpa[i]:#06x}, which is not an opcode")
        if spec.layout is None:
            raise MalformedStream(
                f"element {i} holds {vpa[i]:#06x}, whose {spec.kind} "
                "handler has types that do not fit its kind")
        end = i + spec.record_len
        if end > n:
            raise MalformedStream(
                f"record at element {i} ({spec.kind}) needs {spec.record_len}"
                f" elements but only {n - i} remain", truncated=True)
        out.append((i, spec))
        i = end
    return out
