"""Shared constructors for the protection-layer tests: tiny source
modules with known shapes, a one-call protection helper, and a random
bundle assembler for serialization round trips."""

import itertools
from array import array

from vmguard.bundle import (ExternFunction, PlainFunction, ProtectedBundle,
                            VirtFunction)
from vmguard.guards import finalize_expected_hashes
from vmguard.ir import parse_module
from vmguard.protect import ProtectionConfig, virtualize_module
from vmguard.risa import (KIND_NAMES, OPCODE_SPACE, HandlerSpec, Risa,
                          handler_spec)
from vmguard.ir.core import TypeTag

# main multiplies its argument; @g exists only to be checked, it is never
# called.  With @g too small to host a guard, the checker network is forced
# to the single edge main -> g at every seed, which makes checksum tests
# deterministic.
CHECKED_HELPER = """\
func @main(i64 %n) -> i64 {
entry:
  %k = const i64 7
  %m = mul i64 %n, %k
  ret i64 %m
}

func @g(i64 %x) -> i64 {
entry:
  ret i64 %x
}
"""

# two functions where either one works as the lone transformed function,
# so level 50 exercises both calling directions (plain -> virt and
# virt -> plain) depending on the seed's draw
MIXED_CALLS = """\
func @main(i64 %n) -> i64 {
entry:
  %one = const i64 1
  %np = add i64 %n, %one
  %d = call i64 @double(%np)
  call void @print_i64(%d)
  ret i64 %d
}

func @double(i64 %x) -> i64 {
entry:
  %two = const i64 2
  %d = mul i64 %x, %two
  ret i64 %d
}
"""


def protect_text(text, seed=1, level=100, guards_per_checkee=2,
                 enable_guards=True, optimized_hint=False):
    module = parse_module(text)
    cfg = ProtectionConfig(seed=seed, level=level,
                           guards_per_checkee=guards_per_checkee,
                           enable_guards=enable_guards,
                           optimized_hint=optimized_hint)
    return virtualize_module(module, cfg)


PLAIN_SOURCES = [
    "func @p{i}() -> i64 {{\nentry:\n  %a = const i64 {i}\n"
    "  ret i64 %a\n}}\n",
    "func @p{i}(i64 %x) -> i64 {{\nentry:\n  %one = const i64 1\n"
    "  %r = add i64 %x, %one\n  ret i64 %r\n}}\n",
]

_TAGS = (TypeTag.I1, TypeTag.I8, TypeTag.I16, TypeTag.I32, TypeTag.I64)


def _random_spec(rng) -> HandlerSpec:
    kind = KIND_NAMES[rng.randrange(len(KIND_NAMES))]
    n_ops = rng.randrange(4)
    operands = tuple(_TAGS[rng.randrange(5)] for _ in range(n_ops))
    result = None if rng.randrange(3) == 0 else _TAGS[rng.randrange(5)]
    return HandlerSpec(kind, operands, result)


def _random_virt(name, rng) -> VirtFunction:
    risa = Risa()
    for _ in range(rng.randrange(12) + 1):
        opc = rng.randrange(OPCODE_SPACE)
        if opc in risa.spec_of:
            continue
        spec = _random_spec(rng)
        risa.spec_of[opc] = spec
        risa.opcode_of.setdefault(spec, opc)
    vpa = array("H", [rng.randrange(0x10000)
                      for _ in range(rng.randrange(40))])
    size = rng.randrange(64)
    image = bytearray(rng.randrange(256) for _ in range(size))
    params = [(rng.randrange(0x10000), _TAGS[rng.randrange(5)])
              for _ in range(rng.randrange(4))]
    ret_slot = None if rng.randrange(3) == 0 else \
        (rng.randrange(0x10000), _TAGS[rng.randrange(5)])
    return VirtFunction(name, risa, vpa, image, params, ret_slot)


def random_bundle(rng) -> ProtectedBundle:
    """Structurally arbitrary bundle: the container format must carry it
    byte-exactly whether or not it makes semantic sense."""
    functions = []
    n = rng.randrange(6) + 1
    for i in range(n):
        shape = rng.randrange(4)
        if shape == 3:
            functions.append(ExternFunction(
                ("read_i64", "print_i64")[rng.randrange(2)]))
        elif shape == 2:
            text = PLAIN_SOURCES[rng.randrange(2)].format(i=i)
            module = parse_module(text)
            functions.append(PlainFunction(f"p{i}", module.functions[0]))
        else:
            functions.append(_random_virt(f"v{i}", rng))
    edges = []
    for _ in range(rng.randrange(4)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.append((a, b))
    entry = None if rng.randrange(4) == 0 else rng.randrange(n)
    seed = None if rng.randrange(3) == 0 else rng.randrange(1 << 64)
    return ProtectedBundle(functions=functions, entry_index=entry,
                           edges=edges, seed=seed,
                           optimized_hint=bool(rng.randrange(2)))


def fitting_spec(kind):
    """A signature of `kind` that has a layout."""
    for n in range(4):
        for ops in itertools.product(_TAGS, repeat=n):
            for res in (None, *_TAGS):
                spec = handler_spec(kind, ops, res)
                if spec.layout is not None:
                    return spec
    raise AssertionError(f"no signature of {kind!r} has a layout")


def guard_edge_of(bundle):
    """The single (checker, checkee) name pair of a CHECKED_HELPER bundle."""
    edges = bundle.edge_names()
    assert len(edges) == 1
    return edges[0]


def finalize(bundle):
    return finalize_expected_hashes(bundle)
