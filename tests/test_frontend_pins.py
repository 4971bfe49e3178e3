"""The `.vir` front end's reports, pinned case by case.

`frontend_pins.json` holds, for inputs generated here from the corpus,
what the parser and the validator reported when the pins were taken:
the exact violation list, in order, of every corpus module with one
operand, type or label of one instruction changed (`validate_module`
over `mutants`), and the `ParseError` message, line and column of every
corpus function cut short after each token or left one token short
(`parse_pins`).  A faster front end must report the same, string for
string.
"""

import json
import pathlib
from dataclasses import replace

import pytest

from conftest import corpus_text
from vmguard.ir import (IrModule, ParseError, TypeTag, format_function,
                        parse_function, parse_module, validate_module)
from vmguard.ir.parser import _TOKENS

PROGRAMS = ("fib", "loop_sum", "qsort", "crc32", "sieve", "strsearch")
PINS = json.loads((pathlib.Path(__file__).resolve().parent
                   / "frontend_pins.json").read_text())


def _next(seq, item):
    """The member of `seq` after `item`, wrapping round."""
    return seq[(seq.index(item) + 1) % len(seq)] if item in seq else seq[0]


def _variants(ins, names, labels):
    """(what, instruction) for each one-field change of `ins`: each operand
    and phi arm value to the next value id, the type to the next type,
    and each branch target and phi predecessor to the next label."""
    for j, op in enumerate(ins.operands):
        ops = list(ins.operands)
        ops[j] = _next(names, op)
        yield f"operand {j}", replace(ins, operands=tuple(ops))
    for j, (value, label) in enumerate(ins.phi_args):
        for what, arm in ((f"arm {j} value", (_next(names, value), label)),
                          (f"arm {j} label", (value, _next(labels, label)))):
            arms = list(ins.phi_args)
            arms[j] = arm
            yield what, replace(ins, phi_args=tuple(arms))
    if ins.type is not None:
        yield "type", replace(ins, type=_next(list(TypeTag), ins.type))
    for j, label in enumerate(ins.labels):
        targets = list(ins.labels)
        targets[j] = _next(labels, label)
        yield f"label {j}", replace(ins, labels=tuple(targets))


def mutants(name):
    """(what, module) for every one-field change of every instruction of
    the corpus program `name`, phis intact."""
    module = parse_module(corpus_text(name))
    for f, fn in enumerate(module.functions):
        names = [p for p, _ in fn.params] + [
            ins.result for ins in fn.instructions() if ins.result]
        labels = [b.label for b in fn.blocks]
        for b, block in enumerate(fn.blocks):
            for i, ins in enumerate(block.instructions):
                for what, changed in _variants(ins, names, labels):
                    body = list(block.instructions)
                    body[i] = changed
                    blocks = list(fn.blocks)
                    blocks[b] = replace(block, instructions=tuple(body))
                    functions = list(module.functions)
                    functions[f] = replace(fn, blocks=tuple(blocks))
                    yield (f"@{fn.name} %{block.label} #{i} {what}",
                           IrModule(tuple(functions)))


def damaged(name):
    """The printed text of every function of `name`, cut short after each
    of its tokens but the last, then with each of its tokens left out."""
    for fn in parse_module(corpus_text(name)).functions:
        text = format_function(fn)
        spans = [m.span() for m in _TOKENS.finditer(text)]
        yield from (text[:end] for _, end in spans[:-1])
        yield from (text[:start] + text[end:] for start, end in spans)


def parse_pins(name):
    """The messages the damaged texts of `name` fail with, and (line,
    column, message index) per text, in order; None where one parses."""
    messages, sites = [], []
    for text in damaged(name):
        try:
            parse_function(text)
        except ParseError as err:
            message = str(err).split(": ", 1)[1]
            if message not in messages:
                messages.append(message)
            sites.append([err.line, err.column, messages.index(message)])
        else:
            sites.append(None)
    return {"messages": messages, "sites": sites}


@pytest.mark.parametrize("name", PROGRAMS)
def test_mutated_corpus_violations_are_pinned(name):
    want = PINS["validate"][name]
    got = list(mutants(name))
    assert len(got) == len(want)
    for (what, module), pinned in zip(got, want):
        assert validate_module(module) == pinned, what


@pytest.mark.parametrize("name", PROGRAMS)
def test_damaged_corpus_parse_errors_are_pinned(name):
    assert parse_pins(name) == PINS["parse"][name]


def test_pins_cover_what_they_claim():
    """Most mutants are caught and every cut is pinned: a pin list of
    empty reports would pin nothing."""
    for name in PROGRAMS:
        caught = [found for found in PINS["validate"][name] if found]
        assert len(caught) > len(PINS["validate"][name]) // 2, name
        sites = PINS["parse"][name]["sites"]
        assert len(sites) == sum(1 for _ in damaged(name)), name
        assert sites.count(None) < len(sites) // 10, name
