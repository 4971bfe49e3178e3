"""Text-format parser for `.vir` modules.

Grammar sketch (blanks separate tokens; comments run from ';' to end of
line):

    module   := func*
    func     := "func" "@" NAME "(" [type "%" id ("," type "%" id)*] ")"
                "->" ("void" | type) "{" block+ "}"
    block    := LABEL ":" instr+
    instr    := "%" id "=" KIND fields | KIND fields

The fields after each instruction kind are listed once, in
`core.RESULT_FORMS` (after "%" id "=") and `core.STATEMENT_FORMS`, and
the printer walks the same table.  Tokens are ASCII: names match
`[A-Za-z_.][A-Za-z0-9_.]*` and integer literals `-?[0-9]+`; any other
character outside a comment is an error.

Branch targets and phi predecessors are written with a '%' sigil but live in
the label namespace, separate from value ids.
"""

from __future__ import annotations

import re
from itertools import islice
from string import ascii_letters

from ..arith import wrap
from .core import (ARMS, CALL, COUNT, ICMP_PREDICATES, IMM, LABEL, OPERAND,
                   PREDICATE, RESULT_FORMS, RET_VALUE, STATEMENT_FORMS, TYPE,
                   TYPE_BY_NAME, Block, Instruction, IrFunction, IrModule,
                   TypeTag)


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


_TOKEN = r"->|[(){},:=@%\[\]]|-?[0-9]+|[A-Za-z_.][A-Za-z0-9_.]*"
_TOKENS = re.compile(_TOKEN)
# the longest prefix that blanks, comments and tokens cover
_COVERED = re.compile(rf"(?:[ \t\r\n]+|;[^\n]*|{_TOKEN})*")
_COMMENT = re.compile(r";[^\n]*")
_INTEGER = re.compile(r"-?[0-9]+")
_NAME_START = frozenset(ascii_letters + "_.")


def _line_col(text: str, offset: int) -> tuple[int, int]:
    return (text.count("\n", 0, offset) + 1,
            offset - text.rfind("\n", 0, offset))


class _Parser:
    """The tokens of one text and the index of the next.  A token's line
    and column are only worked out for the error that names it."""

    def __init__(self, text: str) -> None:
        end = _COVERED.match(text).end()
        if end < len(text):
            ch = text[end]
            raise ParseError("stray '-'" if ch == "-"
                             else f"unexpected character {ch!r}",
                             *_line_col(text, end))
        # a comment ends its line, so removing it moves no token
        self.text = _COMMENT.sub("", text)
        self.tokens = _TOKENS.findall(self.text)
        self.pos = 0

    def error(self, message: str, at: int) -> ParseError:
        """A ParseError at token `at`; past the end, at the last token."""
        at = min(at, len(self.tokens) - 1)
        if at < 0:
            return ParseError(message, 1, 1)
        match = next(islice(_TOKENS.finditer(self.text), at, None))
        return ParseError(message, *_line_col(self.text, match.start()))

    def peek(self) -> str:
        try:
            return self.tokens[self.pos]
        except IndexError:
            raise self.error("unexpected end of input", self.pos) from None

    def next(self) -> str:
        token = self.peek()
        self.pos += 1
        return token

    def expect(self, literal: str) -> None:
        token = self.next()
        if token != literal:
            raise self.error(f"expected {literal!r}, found {token!r}",
                             self.pos - 1)

    def name(self, what: str) -> str:
        token = self.next()
        if token[0] not in _NAME_START:
            raise self.error(f"expected {what}, found {token!r}", self.pos - 1)
        return token

    def integer(self) -> int:
        token = self.next()
        if not _INTEGER.fullmatch(token):
            raise self.error(f"expected integer, found {token!r}",
                             self.pos - 1)
        return int(token)

    def type_tag(self) -> TypeTag:
        token = self.next()
        tag = TYPE_BY_NAME.get(token)
        if tag is None:
            raise self.error(f"expected type, found {token!r}", self.pos - 1)
        return tag

    def ref(self, what: str = "value id") -> str:
        """A name written after a '%' sigil."""
        self.expect("%")
        return self.name(what)

    def instruction(self) -> Instruction:
        """One instruction, read by walking the fields of its form."""
        result, forms = None, STATEMENT_FORMS
        unknown = "expected instruction, found"
        if self.peek() == "%":
            result = self.ref()
            self.expect("=")
            forms, unknown = RESULT_FORMS, "unknown instruction kind"
        at = self.pos
        kind = self.next()
        form = forms.get(kind)
        if form is None:
            raise self.error(f"{unknown} {kind!r}", at)
        tag = value = predicate = callee = count = None
        operands, labels, arms = [], [], []
        for field in form:
            if field == OPERAND:
                operands.append(self.ref())
            elif field == TYPE:
                tag = self.type_tag()
            elif field == LABEL:
                labels.append(self.ref("label"))
            elif field == IMM:
                value = wrap(self.integer(), tag.bits)
            elif field == COUNT:
                count = self.integer()
            elif field == PREDICATE:
                predicate = self.name("comparison predicate")
                if predicate not in ICMP_PREDICATES:
                    raise self.error(f"unknown predicate {predicate!r}", at)
            elif field == CALL:
                self.expect("@")
                callee = self.name("function name")
                self.expect("(")
                if self.peek() != ")":
                    operands.append(self.ref())
                    while self.peek() != ")":
                        self.expect(",")
                        operands.append(self.ref())
                self.pos += 1
            elif field == ARMS:
                while True:
                    self.expect("[")
                    v = self.ref()
                    self.expect(",")
                    arms.append((v, self.ref("predecessor label")))
                    self.expect("]")
                    if self.tokens[self.pos:self.pos + 1] != [","]:
                        break
                    self.pos += 1
            elif field == RET_VALUE:
                if self.peek() == "void":
                    self.pos += 1
                else:
                    tag = self.type_tag()
                    operands.append(self.ref())
            else:
                self.expect(field)
        return Instruction(kind, result, tag, tuple(operands), value,
                           predicate, tuple(labels), callee, count,
                           tuple(arms))

    def function(self) -> IrFunction:
        self.expect("func")
        self.expect("@")
        name = self.name("function name")
        self.expect("(")
        params = []
        if self.peek() != ")":
            while True:
                tag = self.type_tag()
                params.append((self.ref("parameter name"), tag))
                if self.peek() == ")":
                    break
                self.expect(",")
        self.expect(")")
        self.expect("->")
        if self.peek() == "void":
            self.pos += 1
            ret = None
        else:
            ret = self.type_tag()
        self.expect("{")

        blocks: list[Block] = []
        label_at = self.pos
        while True:
            label = self.name("block label")
            self.expect(":")
            instructions: list[Instruction] = []
            while True:
                ins = self.instruction()
                instructions.append(ins)
                if ins.is_terminator:
                    break
            blocks.append(Block(label, tuple(instructions)))
            if self.peek() == "}":
                self.pos += 1
                break
            label_at = self.pos

        defined = {b.label for b in blocks}
        if len(defined) != len(blocks):
            raise self.error(f"duplicate block label in @{name}", label_at)
        for block in blocks:
            for ins in block.instructions:
                for lbl in ins.labels:
                    if lbl not in defined:
                        raise self.error(
                            f"undefined label %{lbl} in @{name}", label_at)
        return IrFunction(name, tuple(params), ret, tuple(blocks))


def parse_module(text: str) -> IrModule:
    parser = _Parser(text)
    functions: list[IrFunction] = []
    seen: set[str] = set()
    while parser.pos < len(parser.tokens):
        at = parser.pos
        fn = parser.function()
        if fn.name in seen:
            raise parser.error(f"duplicate function @{fn.name}", at)
        seen.add(fn.name)
        functions.append(fn)
    return IrModule(tuple(functions))


def parse_function(text: str) -> IrFunction:
    """Parse a single standalone function definition."""
    module = parse_module(text)
    if len(module.functions) != 1:
        raise ParseError("expected exactly one function", 1, 1)
    return module.functions[0]
