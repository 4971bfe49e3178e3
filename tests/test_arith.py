"""The shared arithmetic against the big-int models in `oracles`, for
every kind, predicate and width, with operands drawn over the whole cell
an engine may hold (an i1 cell is a byte), not only canonical values.

Each operation runs in every shape an executor builds from
`arith.value_source`: the checked engine's handler, which reads its
record from a stream and its cells from a byte image; the optimized
engine's one-record factory from `threaded.RECORD_FACTORIES`, over a
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
    """The result the optimized engine's cold record for `kind` writes
    over `operands`, each in its own register, the result in the next."""
    regs = [*operands, None]
    factory = threaded.RECORD_FACTORIES[
        handler_spec(kind, tuple(operand_types), result), False]
    run = factory(ExecContext(), 0, None, None, 6, *range(len(regs)))
    assert run(regs) == 7
    return regs[-1]


def interpreted(kind, operand_types, result, *operands):
    """The result the reference interpreter's one-instruction factory for
    `kind` writes over `operands`, each in its own register."""
    regs = [*operands, None]
    shape = (kind, tuple(operand_types), result)
    factory = interp.BLOCK_FACTORIES[(shape,), False, True]
    run = factory(ExecContext(), 0, None, 6, 7, *range(len(regs)))
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
    caches = (runtime.HANDLER_FACTORIES, threaded.RECORD_FACTORIES,
              threaded.BLOCK_FACTORIES, interp.BLOCK_FACTORIES)
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
