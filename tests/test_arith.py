"""The shared arithmetic against the big-int models in `oracles`, for
every kind, predicate and width, with operands drawn over the whole cell
an engine may hold (an i1 cell is a byte), not only canonical values.
Each operation runs as the closure `arith.value_closure` builds for the
optimized engine and the reference interpreter."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import binary_model, cast_model, icmp_model
from vmguard.arith import DIV_BY_ZERO, TrapError, value_closure
from vmguard.ir import TypeTag
from vmguard.ir.core import BINARY_KINDS, CAST_KINDS, ICMP_PREDICATES

TAGS = list(TypeTag)
CAST_PAIRS = [(kind, src, dst) for kind in CAST_KINDS for src in TAGS
              for dst in TAGS
              if (src.bits > dst.bits) == (kind == "trunc")
              and src.bits != dst.bits]


def value_of(kind, operand_types, result, *operands):
    """The result the closure for `kind` writes over `operands`."""
    regs = [*operands, None]
    run = value_closure(kind, operand_types, result, list(range(len(regs))),
                        7)
    assert run(regs) == 7
    return regs[-1]


def binary_op(kind, a, b, tag):
    return value_of(kind, [tag, tag], tag, a, b)


def icmp(pred, a, b, tag):
    return value_of(f"icmp.{pred}", [tag, tag], TypeTag.I1, a, b)


def cast(kind, value, src, dst):
    return value_of(kind, [src], dst, value)


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
    if want is None:
        with pytest.raises(TrapError) as exc:
            binary_op(kind, a, b, tag)
        assert exc.value.reason == DIV_BY_ZERO
    else:
        assert binary_op(kind, a, b, tag) == want


@pytest.mark.parametrize("tag", TAGS, ids=lambda t: t.text)
@pytest.mark.parametrize("pred", ICMP_PREDICATES)
@given(data=st.data())
def test_icmp_matches_model(pred, tag, data):
    a, b = data.draw(cells(tag)), data.draw(cells(tag))
    assert icmp(pred, a, b, tag) == icmp_model(pred, a, b, tag.bits)


@pytest.mark.parametrize(
    "kind,src,dst", CAST_PAIRS,
    ids=lambda v: v if isinstance(v, str) else v.text)
@given(data=st.data())
def test_cast_matches_model(kind, src, dst, data):
    value = data.draw(cells(src))
    assert cast(kind, value, src, dst) == cast_model(kind, value, src.bits,
                                                     dst.bits)


@pytest.mark.parametrize("fn,name", [(binary_op, "udiv"), (icmp, "lt")])
def test_unknown_kind_or_predicate_is_refused(fn, name):
    with pytest.raises(ValueError):
        fn(name, 1, 2, TypeTag.I8)
