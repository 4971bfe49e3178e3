"""The shared arithmetic against the big-int models in `oracles`, for
every kind, predicate and width, with operands drawn over the whole cell
an engine may hold (an i1 cell is a byte), not only canonical values.

Each operation runs in every shape an executor builds from
`arith.value_source`: the checked engine's handler, which reads its
record from a stream and its cells from a byte image; the optimized
engine's one-record block from `threaded.BLOCK_FACTORIES`, over a
register list; and the reference interpreter's one-instruction factory,
whose registers only ever hold canonical values."""

from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import binary_model, cast_model, icmp_model
from vmguard import arith, runtime, threaded
from vmguard.arith import DIV_BY_ZERO, VALUE_KINDS, TrapError
from vmguard.execstate import ExecContext
from vmguard.ir import TypeTag, interp
from vmguard.ir.core import BINARY_KINDS, CAST_KINDS, ICMP_PREDICATES
from vmguard.risa import _layout, handler_spec
from vmguard.runtime import INVALID_OPCODE, TamperSignal

TAGS = list(TypeTag)
CAST_PAIRS = [(kind, src, dst) for kind in CAST_KINDS for src in TAGS
              for dst in TAGS
              if (src.bits > dst.bits) == (kind == "trunc")
              and src.bits != dst.bits]


def recorded(kind, operand_types, result, *operands):
    """The result the optimized engine's one-record block for `kind`
    writes over `operands`, each in its own register, the result in the
    next."""
    regs = [*operands, None]
    factory = threaded.BLOCK_FACTORIES[
        handler_spec(kind, tuple(operand_types), result).number,]
    run = factory(ExecContext(), 1, None, 6, *range(len(regs)))
    assert run(regs) == 7
    return regs[-1]


def interpreted(kind, operand_types, result, *operands):
    """The result the reference interpreter's one-instruction factory for
    `kind` writes over `operands`, each in its own register."""
    regs = [*operands, None]
    shape = (kind, tuple(operand_types), result)
    factory = interp.BLOCK_FACTORIES[shape,]
    run = factory(ExecContext(), 1, None, 6, *range(len(regs)))
    assert run(regs) == 7
    return regs[-1]


def checked_handler(kind, operand_types, result, operands):
    """The checked engine's handler for `kind`, as it builds one on first
    dispatch, a byte image holding each operand in its own cell followed
    by the result cell, and the record's stream: the opcode, then each
    cell's offset."""
    spec = handler_spec(kind, tuple(operand_types), result)
    stream, image = [0], bytearray()
    for tag, value in zip([*operand_types, result], [*operands, 0]):
        stream.append(len(image))
        image += value.to_bytes(tag.width, "little")
    vfn = SimpleNamespace(name="f", image=image, vpa=stream,
                          risa=SimpleNamespace(spec_of={0: spec}))
    return runtime._fetch_cold(None, vfn, None, {}, 0), image, stream


def checked(kind, operand_types, result, *operands):
    """The result the checked engine's handler for `kind` writes over
    `operands`."""
    handler, vm, stream = checked_handler(kind, operand_types, result,
                                          operands)
    assert handler(vm, 0) == len(stream)
    return int.from_bytes(vm[stream[-1]:], "little")


def shapes(operand_types, operands):
    """The shapes that can hold `operands`: the interpreter's registers
    only ever hold canonical values."""
    if all(v < 1 << t.bits for t, v in zip(operand_types, operands)):
        return (checked, recorded, interpreted)
    return (checked, recorded)


def cells(tag):
    """Canonical values and whole-cell values of `tag`, both weighted in."""
    return st.one_of(st.integers(0, (1 << tag.bits) - 1),
                     st.integers(0, (1 << 8 * tag.width) - 1))


@pytest.mark.parametrize("tag", TAGS, ids=lambda t: t.text)
@pytest.mark.parametrize("kind", BINARY_KINDS)
@given(data=st.data())
def test_binary_op_matches_model(kind, tag, data):
    a, b = data.draw(cells(tag)), data.draw(cells(tag))
    want = binary_model(kind, a, b, tag.bits)
    for shape in shapes([tag, tag], [a, b]):
        if want is None:
            with pytest.raises(TrapError) as exc:
                shape(kind, [tag, tag], tag, a, b)
            assert exc.value.reason == DIV_BY_ZERO
        else:
            assert shape(kind, [tag, tag], tag, a, b) == want, shape


@pytest.mark.parametrize("tag", TAGS, ids=lambda t: t.text)
@pytest.mark.parametrize("pred", ICMP_PREDICATES)
@given(data=st.data())
def test_icmp_matches_model(pred, tag, data):
    a, b = data.draw(cells(tag)), data.draw(cells(tag))
    want = icmp_model(pred, a, b, tag.bits)
    for shape in shapes([tag, tag], [a, b]):
        assert shape(f"icmp.{pred}", [tag, tag], TypeTag.I1, a, b) == \
            want, shape


@pytest.mark.parametrize(
    "kind,src,dst", CAST_PAIRS,
    ids=lambda v: v if isinstance(v, str) else v.text)
@given(data=st.data())
def test_cast_matches_model(kind, src, dst, data):
    value = data.draw(cells(src))
    want = cast_model(kind, value, src.bits, dst.bits)
    for shape in shapes([src], [value]):
        assert shape(kind, [src], dst, value) == want, shape


@pytest.mark.parametrize("tag", TAGS, ids=lambda t: t.text)
@given(data=st.data())
def test_select_takes_the_arm_its_condition_names(tag, data):
    c = data.draw(cells(TypeTag.I1))
    a, b = data.draw(cells(tag)), data.draw(cells(tag))
    for shape in shapes([TypeTag.I1, tag, tag], [c, a, b]):
        assert shape("select", [TypeTag.I1, tag, tag], tag, c, a, b) == \
            (a if c else b), shape


@pytest.mark.parametrize("tag", TAGS, ids=lambda t: t.text)
@pytest.mark.parametrize("c", [0, 1])
def test_checked_select_reads_only_the_chosen_cell(c, tag):
    handler, vm, stream = checked_handler(
        "select", [TypeTag.I1, tag, tag], tag, (c, 5, 9))
    # the arm not chosen points past the image
    stream[3 if c else 2] = len(vm)
    assert handler(vm, 0) == 5
    assert int.from_bytes(vm[stream[-1]:], "little") == (5 if c else 9)


@pytest.mark.parametrize("kind", ["udiv", "icmp.lt"],
                         ids=["binary_op-udiv", "icmp-lt"])
def test_unknown_kind_or_predicate_is_refused(kind):
    with pytest.raises(ValueError):
        arith.value_source(kind, [TypeTag.I8, TypeTag.I8], TypeTag.I8,
                           ["1", "2"])


def test_misfit_signature_is_refused_before_anything_is_built():
    caches = (runtime.HANDLER_FACTORIES, threaded.BLOCK_FACTORIES,
              interp.BLOCK_FACTORIES)
    compiled = [len(c) for c in caches]
    handler, vm, _ = checked_handler("add", [TypeTag.I8, TypeTag.I16],
                                     TypeTag.I8, (1, 2))
    with pytest.raises(TamperSignal) as exc:
        handler(vm, 0)
    assert exc.value.kind == INVALID_OPCODE
    assert [len(c) for c in caches] == compiled


def test_every_fitting_value_signature_compiles_in_both_shapes():
    fitting = [(kind, ops, res) for kind in sorted(VALUE_KINDS)
               for n in (1, 2, 3) for ops in product(TAGS, repeat=n)
               for res in TAGS if _layout(kind, ops, res) is not None]
    # each binary kind and predicate at every width, a select per width,
    # and every valid cast
    assert len(fitting) == (len(BINARY_KINDS) + len(ICMP_PREDICATES)) * \
        len(TAGS) + len(TAGS) + len(CAST_PAIRS)
    for kind, ops, res in fitting:
        operands = [1] * len(ops)
        want = checked(kind, ops, res, *operands)
        for shape in (recorded, interpreted):
            assert shape(kind, ops, res, *operands) == want, \
                (kind, ops, res, shape)


# placeholder statements for the block assembler: a non-terminator logs
# its argument and `{back}` to the register list, a terminator returns
# its argument
PLACEHOLDER = {kind: "return {a0}" if kind in arith.TERMINATORS
               else "vm.append(({a0}, {back}))"
               for kind in ("x", "call", "guard", "br")}
ASSEMBLED = arith.Factories(arith.block_source, {})


def assembled(kinds, limit, o=10):
    """Run the block of placeholder statements of `kinds`, the N-th
    taking the argument N, from position `o`; its result, the register
    list, the hand-overs it made and the steps it counted."""
    ctx, vm, handed = ExecContext(step_limit=limit), [], []
    statements = tuple((kind, PLACEHOLDER[kind]) for kind in kinds)
    block = ASSEMBLED[statements](
        ctx, limit, lambda *a: handed.append(a) or "handed", o,
        *range(len(kinds)))
    return block(vm), vm, handed, ctx.steps


SEGMENTED = ("x", "call", "x", "guard", "x", "br")


def test_assembled_segments_end_after_each_call_and_guard():
    result, vm, handed, steps = assembled(SEGMENTED, 100)
    assert (result, handed, steps) == (5, [], 6)
    # `{back}` counts the statements of the segment after each one
    assert vm == [(0, 1), (1, 0), (2, 1), (3, 0), (4, 1)]
    # a limit inside a segment hands over at the segment's start, after
    # the segments before it ran and counted
    for limit, ran, start in [(0, 0, 0), (1, 0, 0), (2, 2, 2), (3, 2, 2),
                              (4, 4, 4), (5, 4, 4)]:
        result, vm, handed, steps = assembled(SEGMENTED, limit)
        assert result == "handed" and steps == ran, limit
        assert handed == [(vm, 10 + start)] and len(vm) == ran, limit


def test_a_statement_past_the_limit_in_a_hand_over_traps_at_limit_plus_one():
    statements = tuple((kind, PLACEHOLDER[kind]) for kind in SEGMENTED)
    for limit in range(len(SEGMENTED)):
        ctx, vm = ExecContext(step_limit=limit), []
        # each statement run alone takes its position as its argument
        hand = arith.hand_over(ctx, lambda o, trap: ASSEMBLED[
            statements[o],](ctx, limit, trap, o, o))
        block = ASSEMBLED[statements](ctx, limit, hand, 0,
                                      *range(len(statements)))
        with pytest.raises(TrapError, match=arith.STEP_LIMIT_REASON):
            block(vm)
        # every statement inside the limit ran once, the next one did not
        assert ctx.steps == limit + 1
        assert [arg for arg, _ in vm] == list(range(limit)), limit


def test_assembled_block_without_a_terminator_falls_through():
    for kinds in [("x",), ("x", "x"), ("x", "call", "x"), ("guard",)]:
        result, vm, handed, steps = assembled(kinds, 100, o=7)
        assert (result, handed, steps) == (7 + len(kinds), [], len(kinds))
        assert [arg for arg, _ in vm] == list(range(len(kinds)))


def test_factory_source_binds_only_what_the_body_reads():
    source = arith.factory_source(["a", "b"], ["vm"], {"a": "a", "b": "b",
                                                       "n": "len(a)"},
                                  "return a + n")
    assert "def run(vm, a=a, n=len(a)):" in source
    assert source.count("def factory(a, b):") == 1
