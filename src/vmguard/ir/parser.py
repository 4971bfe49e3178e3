"""Text-format parser for `.vir` modules.

Grammar sketch (blanks separate tokens; comments run from ';' to end of
line):

    module   := func*
    func     := "func" "@" NAME "(" [type "%" id ("," type "%" id)*] ")"
                "->" ("void" | type) "{" block+ "}"
    block    := LABEL ":" instr+
    instr    := "%" id "=" KIND fields | KIND fields

The fields after each instruction kind are listed once, in
`core.RESULT_FORMS` (after "%" id "=") and `core.STATEMENT_FORMS`; like
the printer, the parser runs one function generated per form from that
table.  Tokens are ASCII: names match `[A-Za-z_.][A-Za-z0-9_.]*` and
integer literals `-?[0-9]+`; any other character outside a comment is an
error.

Branch targets and phi predecessors are written with a '%' sigil but live in
the label namespace, separate from value ids.
"""

from __future__ import annotations

import re
from itertools import islice
from string import ascii_letters

from ..arith import TERMINATORS, Factories
from .core import (ARMS, CALL, COUNT, ICMP_PREDICATES, IMM, LABEL, OPERAND,
                   PREDICATE, RESULT_FORMS, RET_VALUE, STATEMENT_FORMS, TYPE,
                   TYPE_BY_NAME, Block, Instruction, IrFunction, IrModule)


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
_NAME_START = frozenset(ascii_letters + "_.")


class _Stop(Exception):
    """A parse error at a token index, placed only once it is reported."""


def _line_col(text: str, offset: int) -> tuple[int, int]:
    return (text.count("\n", 0, offset) + 1,
            offset - text.rfind("\n", 0, offset))


def _error(text: str, tokens: list, message: str, at: int) -> ParseError:
    """A ParseError at token `at`; past the end, at the last token."""
    at = min(at, len(tokens) - 1)
    if at < 0:
        return ParseError(message, 1, 1)
    match = next(islice(_TOKENS.finditer(text), at, None))
    return ParseError(message, *_line_col(text, match.start()))


def _check(k: int, test: str, expected: str, var: str = "token") -> list:
    """Reader lines that read token `i + k` as `var` and stop with
    "expected `expected`" unless `test` holds."""
    return [f"{var} = t[i + {k}]", f"if not ({test}):",
            f"    raise _Stop(f\"expected {expected}, found {{{var}!r}}\", "
            f"i + {k})"]


def _ref(var: str, k: int, what: str = "value id") -> list:
    """A name written after a '%' sigil."""
    return _check(k, "token == '%'", "'%'") + _check(
        k + 1, f"{var}[0] in _NAME_START", what, var)


def _type(k: int) -> list:
    return _check(k, "tag in TYPE_BY_NAME", "type", "tag") + [
        "tag = TYPE_BY_NAME[tag]"]


def _reader_source(key) -> str:
    """The source of the reader of one form, by (kind, defines a value):
    `reader(t, i, result)` reads the form's fields from token `i` of the
    token list `t` on, each check written in line, and returns the
    instruction and the index past it.  A field is read at its offset
    from `i`, which moves on past each field of varying length."""
    kind, has_result = key
    form = (RESULT_FORMS if has_result else STATEMENT_FORMS)[kind]
    body, k, operands, labels = [], 0, [], []
    fields = dict(type="None", value="None", predicate="None",
                  callee="None", count="None", phi_args="()")
    for field in form:
        if field in (OPERAND, LABEL):
            names = operands if field == OPERAND else labels
            names.append(f"x{len(operands) + len(labels)}")
            body += _ref(names[-1], k, "value id" if field == OPERAND
                         else "label")
            k += 2
        elif field == TYPE:
            body += _type(k)
            fields["type"], k = "tag", k + 1
        elif field in (IMM, COUNT):
            var = "value" if field == IMM else "count"
            # int() refuses a literal past the interpreter's digit limit
            body += _check(k, f"{var}.lstrip('-').isdigit()", "integer",
                           var) + [
                "try:", f"    {var} = int({var})", "except ValueError:",
                f"    raise _Stop('integer literal too long', i + {k})"] + (
                ["value &= (1 << tag.bits) - 1"] if field == IMM else [])
            fields[var], k = var, k + 1
        elif field == PREDICATE:       # the kind is token i - 1
            body += _check(k, "predicate[0] in _NAME_START",
                           "comparison predicate", "predicate") + [
                "if predicate not in ICMP_PREDICATES:",
                "    raise _Stop(f'unknown predicate {predicate!r}', i - 1)"]
            fields["predicate"], k = "predicate", k + 1
        elif field == CALL:
            body += _check(k, "token == '@'", "'@'") + _check(
                k + 1, "callee[0] in _NAME_START", "function name",
                "callee") + _check(k + 2, "token == '('", "'('") + [
                f"i += {k + 3}", "args = []", "while t[i] != ')':",
                "    if args:", *("        " + line for line in _check(
                    0, "token == ','", "','")), "        i += 1",
                *("    " + line for line in _ref("a", 0)),
                "    args.append(a)", "    i += 2", "i += 1"]
            operands.append("*args")
            fields["callee"], k = "callee", 0
        elif field == ARMS:
            body += [f"i += {k}", "arms = []", "while True:", *(
                "    " + line for line in _check(0, "token == '['", "'['")
                + _ref("v", 1) + _check(3, "token == ','", "','")
                + _ref("p", 4, "predecessor label")
                + _check(6, "token == ']'", "']'")),
                "    arms.append((v, p))", "    i += 7",
                "    if t[i:i + 1] != [',']:", "        break", "    i += 1"]
            fields["phi_args"], k = "tuple(arms)", 0
        elif field == RET_VALUE:
            body += [f"if t[i + {k}] == 'void':", "    tag, ret = None, ()",
                     f"    i += {k + 1}", "else:",
                     *("    " + line for line in _type(k) + _ref("r", k + 1)),
                     "    ret = (r,)", f"    i += {k + 3}"]
            operands.append("*ret")
            fields["type"], k = "tag", 0
        else:
            body += _check(k, f"token == {field!r}", repr(field))
            k += 1
    ops = "(" + "".join(f"{op}, " for op in operands) + ")"
    labels = "(" + "".join(f"{label}, " for label in labels) + ")"
    body.append(
        f"return Instruction({kind!r}, result, {fields['type']}, {ops}, "
        f"{fields['value']}, {fields['predicate']}, {labels}, "
        f"{fields['callee']}, {fields['count']}, {fields['phi_args']}), "
        f"i + {k}")
    return "def reader(t, i, result):\n" + "".join(
        f"    {line}\n" for line in body)


# one reader per form, compiled on first use
_READERS = Factories(_reader_source, globals())


def _take(t: list, at: int, expected: str, accepts) -> str:
    """Token `at`, which `accepts` holds (holds its first character, when
    `accepts` is _NAME_START), or a stop."""
    token = t[at]
    if (token[0] if accepts is _NAME_START else token) not in accepts:
        raise _Stop(f"expected {expected}, found {token!r}", at)
    return token


def _function(t: list, i: int) -> tuple[IrFunction, int]:
    """The function whose `func` is token `i`, and the index past it."""
    _take(t, i, "'func'", ("func",))
    _take(t, i + 1, "'@'", ("@",))
    name = _take(t, i + 2, "function name", _NAME_START)
    _take(t, i + 3, "'('", ("(",))
    i += 4
    params = []
    while t[i] != ")":
        if params:
            _take(t, i, "','", (",",))
            i += 1
        tag = TYPE_BY_NAME[_take(t, i, "type", TYPE_BY_NAME)]
        _take(t, i + 1, "'%'", ("%",))
        params.append((_take(t, i + 2, "parameter name", _NAME_START), tag))
        i += 3
    _take(t, i + 1, "'->'", ("->",))
    ret = (None if t[i + 2] == "void"
           else TYPE_BY_NAME[_take(t, i + 2, "type", TYPE_BY_NAME)])
    _take(t, i + 3, "'{'", ("{",))
    i += 4

    blocks: list[Block] = []
    while not blocks or t[i] != "}":
        label_at = i
        label = _take(t, i, "block label", _NAME_START)
        _take(t, i + 1, "':'", (":",))
        i += 2
        instructions: list[Instruction] = []
        while not instructions or instructions[-1].kind not in TERMINATORS:
            token = t[i]
            if token == "%":
                result = _take(t, i + 1, "value id", _NAME_START)
                _take(t, i + 2, "'='", ("=",))
                if t[i + 3] not in RESULT_FORMS:
                    raise _Stop(f"unknown instruction kind {t[i + 3]!r}",
                                i + 3)
                ins, i = _READERS[t[i + 3], True](t, i + 4, result)
            elif token in STATEMENT_FORMS:
                ins, i = _READERS[token, False](t, i + 1, None)
            else:
                raise _Stop(f"expected instruction, found {token!r}", i)
            instructions.append(ins)
        blocks.append(Block(label, tuple(instructions)))

    defined = {b.label for b in blocks}
    if len(defined) != len(blocks):
        raise _Stop(f"duplicate block label in @{name}", label_at)
    for block in blocks:
        # only a terminator, which ends its block, names labels
        for lbl in block.instructions[-1].labels:
            if lbl not in defined:
                raise _Stop(f"undefined label %{lbl} in @{name}", label_at)
    return IrFunction(name, tuple(params), ret, tuple(blocks)), i + 1


def parse_module(text: str) -> IrModule:
    # a comment ends its line, so removing it moves no token
    plain = _COMMENT.sub("", text) if ";" in text else text
    tokens = _TOKENS.findall(plain)
    if len(plain) - sum(map(len, tokens)) != sum(map(plain.count, " \t\r\n")):
        # the tokens and blanks leave a character out
        end = _COVERED.match(text).end()
        raise ParseError("stray '-'" if text[end] == "-"
                         else f"unexpected character {text[end]!r}",
                         *_line_col(text, end))
    functions: list[IrFunction] = []
    i = 0
    try:
        while i < len(tokens):
            at = i
            fn, i = _function(tokens, i)
            if any(f.name == fn.name for f in functions):
                raise _Stop(f"duplicate function @{fn.name}", at)
            functions.append(fn)
    except _Stop as stop:
        raise _error(plain, tokens, *stop.args) from None
    except IndexError:     # tokens are read in order: the first past the end
        raise _error(plain, tokens, "unexpected end of input",
                     len(tokens)) from None
    return IrModule(tuple(functions))


def parse_function(text: str) -> IrFunction:
    """Parse a single standalone function definition."""
    module = parse_module(text)
    if len(module.functions) != 1:
        raise ParseError("expected exactly one function", 1, 1)
    return module.functions[0]
