"""The shared arithmetic against the big-int models in `oracles`, for
every kind, predicate and width, with operands drawn over the whole cell
an engine may hold (an i1 cell is a byte), not only canonical values.

Each operation runs in both shapes an executor builds from
`arith.value_expr`: the register-list closure `arith.value_closure`
builds for the optimized engine's cold records, and the checked
engine's handler, which reads its record from a stream and its cells
from a byte image."""

from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import binary_model, cast_model, icmp_model
from vmguard import arith, runtime
from vmguard.arith import DIV_BY_ZERO, VALUE_KINDS, TrapError, value_closure
from vmguard.ir import TypeTag
from vmguard.ir.core import BINARY_KINDS, CAST_KINDS, ICMP_PREDICATES
from vmguard.risa import _layout, handler_spec
from vmguard.runtime import INVALID_OPCODE, TamperSignal

TAGS = list(TypeTag)
CAST_PAIRS = [(kind, src, dst) for kind in CAST_KINDS for src in TAGS
              for dst in TAGS
              if (src.bits > dst.bits) == (kind == "trunc")
              and src.bits != dst.bits]


def registers(kind, operand_types, result, *operands):
    """The result the register closure for `kind` writes over
    `operands`."""
    regs = [*operands, None]
    run = value_closure(kind, tuple(operand_types), result,
                        list(range(len(regs))), 7)
    assert run(regs) == 7
    return regs[-1]


def checked_handler(kind, operand_types, result, operands):
    """The checked engine's handler for `kind`, a byte image holding each
    operand in its own cell followed by the result cell, and the record's
    stream: the opcode, then each cell's offset."""
    spec = handler_spec(kind, tuple(operand_types), result)
    stream, image = [0], bytearray()
    for tag, value in zip([*operand_types, result], [*operands, 0]):
        stream.append(len(image))
        image += value.to_bytes(tag.width, "little")
    vfn = SimpleNamespace(name="f", image=image, vpa=stream)
    return runtime._build_handler(None, vfn, spec, None, None), image, stream


def checked(kind, operand_types, result, *operands):
    """The result the checked engine's handler for `kind` writes over
    `operands`."""
    handler, vm, stream = checked_handler(kind, operand_types, result,
                                          operands)
    assert handler(vm, 0) == len(stream)
    return int.from_bytes(vm[stream[-1]:], "little")


SHAPES = (registers, checked)


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
    for shape in SHAPES:
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
    for shape in SHAPES:
        assert shape(f"icmp.{pred}", [tag, tag], TypeTag.I1, a, b) == \
            want, shape


@pytest.mark.parametrize(
    "kind,src,dst", CAST_PAIRS,
    ids=lambda v: v if isinstance(v, str) else v.text)
@given(data=st.data())
def test_cast_matches_model(kind, src, dst, data):
    value = data.draw(cells(src))
    want = cast_model(kind, value, src.bits, dst.bits)
    for shape in SHAPES:
        assert shape(kind, [src], dst, value) == want, shape


@pytest.mark.parametrize("tag", TAGS, ids=lambda t: t.text)
@given(data=st.data())
def test_select_takes_the_arm_its_condition_names(tag, data):
    c = data.draw(cells(TypeTag.I1))
    a, b = data.draw(cells(tag)), data.draw(cells(tag))
    for shape in SHAPES:
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
        registers(kind, [TypeTag.I8, TypeTag.I8], TypeTag.I8, 1, 2)


def test_misfit_signature_is_refused_before_anything_is_built():
    templates = (arith.REGISTERS, runtime._VALUE, runtime._TRAPPING)
    compiled = [len(t) for t in templates]
    handler, vm, _ = checked_handler("add", [TypeTag.I8, TypeTag.I16],
                                     TypeTag.I8, (1, 2))
    with pytest.raises(TamperSignal) as exc:
        handler(vm, 0)
    assert exc.value.kind == INVALID_OPCODE
    assert [len(t) for t in templates] == compiled


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
        assert registers(kind, ops, res, *operands) == \
            checked(kind, ops, res, *operands), (kind, ops, res)
