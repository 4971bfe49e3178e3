"""Protected program container and its byte-level format.

A bundle holds one function table mixing three shapes: transformed
functions (opcode table, encoded stream, memory image template, slot
metadata), untransformed functions kept as canonical source text, and
intrinsic entries for the two I/O externals.  Call records index into
this table, so order is meaningful and frozen at build time.

Serialization is deliberately trust-free: it writes whatever the bundle
holds, including deliberately corrupted streams.  Deserialization checks
container-level structure, and validates plain-function source against
the table's signatures, since the IR evaluator trusts the code it runs.
Soundness of the encoded streams lives in `threaded.verify`, which runs
the optimized engine's load check and which callers invoke when they
want it; the runtime instead detects corruption on the execution path.

`copy_bundle` copies by structure, not through the wire format.  A copy
owns every part a tamper strategy or a test may change: each transformed
function's stream, image, parameter list and opcode-table dicts, and the
function and edge lists.  It shares what nothing changes: the frozen
`IrFunction` of each plain function (with the evaluator's caches on it),
the interned `HandlerSpec`s and the slot tuples.

Layout, little-endian throughout:

    "VSC1"  magic
    u16     format version (1)
    u8      flags: bit0 prefer the pre-decoding engine, bit1 seed present
    u64     build seed                        [iff flag bit1]
    u16     function count
    per function:
      u16 + bytes   name (UTF-8)
      u8            shape: 0 transformed, 1 source text, 2 intrinsic
      shape 0:
        u16         opcode table size
        per entry:  u16 opcode, u8 kind code, u8 operand count,
                    u8 per operand type, u8 result type (0xFF for none)
        u16         stream length, then that many u16 elements
        u32         image size, then that many bytes
        u16         parameter count, then u16 offset + u8 type each
        u8          has return cell, then u16 offset + u8 type if so
      shape 1:
        u32 + bytes canonical source text
    u16     entry function index, 0xFFFF when absent
    u16     edge count, then u16 checker index + u16 checkee index each
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass, field

from .ir.core import (EXTERN_SIGS, IrFunction, IrModule, TypeTag,
                      format_function)
from .ir.parser import ParseError, parse_function
from .ir.validate import validate_function
from .network import GuardEdge
from .risa import (KIND_CODE, KIND_NAMES, TAG_CODE, TAG_FROM_CODE,
                   MalformedStream, Risa, handler_spec, walk_records)

MAGIC = b"VSC1"
VERSION = 1
FLAG_OPTIMIZED = 0x01
FLAG_HAS_SEED = 0x02
NO_ENTRY = 0xFFFF


class BundleError(Exception):
    pass


class BadMagic(BundleError):
    pass


class UnsupportedVersion(BundleError):
    pass


class TruncatedStream(BundleError):
    pass


class IndexOutOfRange(BundleError):
    pass


class TrailingData(BundleError):
    pass


@dataclass
class VirtFunction:
    name: str
    risa: Risa
    vpa: array
    image: bytearray
    param_slots: list[tuple[int, TypeTag]]
    ret_slot: tuple[int, TypeTag] | None


@dataclass
class PlainFunction:
    name: str
    fn: IrFunction

    @property
    def text(self) -> str:
        return format_function(self.fn)


@dataclass
class ExternFunction:
    name: str


@dataclass
class ProtectedBundle:
    functions: list = field(default_factory=list)
    entry_index: int | None = None
    edges: list[tuple[int, int]] = field(default_factory=list)
    seed: int | None = None
    optimized_hint: bool = False

    def index_of(self, name: str) -> int:
        for i, fn in enumerate(self.functions):
            if fn.name == name:
                return i
        raise KeyError(f"no function named {name!r} in bundle")

    def function(self, name: str):
        return self.functions[self.index_of(name)]

    def edge_names(self) -> list[GuardEdge]:
        return [GuardEdge(self.functions[a].name, self.functions[b].name)
                for a, b in self.edges]

    def virt_functions(self) -> list[VirtFunction]:
        return [f for f in self.functions if isinstance(f, VirtFunction)]


# ---- serialization ---------------------------------------------------------

def _pack_risa(out: bytearray, risa: Risa) -> None:
    entries = sorted(risa.spec_of.items())
    out += struct.pack("<H", len(entries))
    for opcode, spec in entries:
        res = 0xFF if spec.result_type is None else TAG_CODE[spec.result_type]
        out += struct.pack("<HBB", opcode, KIND_CODE[spec.kind],
                           len(spec.operand_types))
        out += bytes(TAG_CODE[t] for t in spec.operand_types)
        out.append(res)


def serialize(bundle: ProtectedBundle) -> bytes:
    out = bytearray(MAGIC)
    flags = (FLAG_OPTIMIZED if bundle.optimized_hint else 0) | \
        (FLAG_HAS_SEED if bundle.seed is not None else 0)
    out += struct.pack("<HB", VERSION, flags)
    if bundle.seed is not None:
        out += struct.pack("<Q", bundle.seed)
    out += struct.pack("<H", len(bundle.functions))
    for fn in bundle.functions:
        name = fn.name.encode("utf-8")
        out += struct.pack("<H", len(name))
        out += name
        if isinstance(fn, VirtFunction):
            out.append(0)
            _pack_risa(out, fn.risa)
            out += struct.pack("<H", len(fn.vpa))
            out += struct.pack(f"<{len(fn.vpa)}H", *fn.vpa)
            out += struct.pack("<I", len(fn.image))
            out += bytes(fn.image)
            out += struct.pack("<H", len(fn.param_slots))
            for off, tag in fn.param_slots:
                out += struct.pack("<HB", off, TAG_CODE[tag])
            if fn.ret_slot is None:
                out.append(0)
            else:
                out.append(1)
                out += struct.pack("<HB", fn.ret_slot[0],
                                   TAG_CODE[fn.ret_slot[1]])
        elif isinstance(fn, PlainFunction):
            out.append(1)
            text = fn.text.encode("utf-8")
            out += struct.pack("<I", len(text))
            out += text
        else:
            out.append(2)
    entry = NO_ENTRY if bundle.entry_index is None else bundle.entry_index
    out += struct.pack("<H", entry)
    out += struct.pack("<H", len(bundle.edges))
    for checker, checkee in bundle.edges:
        out += struct.pack("<HH", checker, checkee)
    return bytes(out)


class _Reader:
    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedStream(
                f"needed {n} bytes for {what}, "
                f"{len(self.data) - self.pos} remain")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]

    def utf8(self, n: int, what: str) -> str:
        raw = self.take(n, what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as err:
            raise IndexOutOfRange(f"{what} is not valid UTF-8") from err


def _read_tag(r: _Reader, what: str) -> TypeTag:
    code = r.u8(what)
    if code not in TAG_FROM_CODE:
        raise IndexOutOfRange(f"{what} holds unknown type code {code}")
    return TAG_FROM_CODE[code]


def _read_risa(r: _Reader) -> Risa:
    risa = Risa()
    count = r.u16("opcode table size")
    for _ in range(count):
        opcode = r.u16("opcode")
        kind_code = r.u8("handler kind")
        if kind_code >= len(KIND_NAMES):
            raise IndexOutOfRange(f"unknown handler kind code {kind_code}")
        kind = KIND_NAMES[kind_code]
        n_ops = r.u8("operand count")
        operands = tuple(_read_tag(r, "operand type") for _ in range(n_ops))
        res_code = r.u8("result type")
        if res_code == 0xFF:
            result = None
        elif res_code in TAG_FROM_CODE:
            result = TAG_FROM_CODE[res_code]
        else:
            raise IndexOutOfRange(f"unknown result type code {res_code}")
        if opcode in risa.spec_of:
            raise IndexOutOfRange(f"opcode {opcode:#06x} assigned twice")
        spec = handler_spec(kind, operands, result)
        risa.spec_of[opcode] = spec
        risa.opcode_of.setdefault(spec.number, opcode)
    return risa


def deserialize(data: bytes) -> ProtectedBundle:
    r = _Reader(data)
    if r.take(4, "magic") != MAGIC:
        raise BadMagic("not a protected bundle (bad magic)")
    version = r.u16("format version")
    if version != VERSION:
        raise UnsupportedVersion(f"format version {version} not supported")
    flags = r.u8("flags")
    seed = r.u64("build seed") if flags & FLAG_HAS_SEED else None

    bundle = ProtectedBundle(seed=seed,
                             optimized_hint=bool(flags & FLAG_OPTIMIZED))
    n_fns = r.u16("function count")
    for i in range(n_fns):
        name = r.utf8(r.u16("name length"), f"function {i} name")
        shape = r.u8("function shape")
        if shape == 0:
            risa = _read_risa(r)
            vpa_len = r.u16("stream length")
            vpa = array("H", struct.unpack(
                f"<{vpa_len}H", r.take(2 * vpa_len, "stream elements")))
            image = bytearray(r.take(r.u32("image size"), "memory image"))
            n_params = r.u16("parameter count")
            params = []
            for _ in range(n_params):
                off = r.u16("parameter offset")
                params.append((off, _read_tag(r, "parameter type")))
            ret_slot = None
            if r.u8("return cell flag"):
                off = r.u16("return cell offset")
                ret_slot = (off, _read_tag(r, "return cell type"))
            bundle.functions.append(VirtFunction(
                name, risa, vpa, image, params, ret_slot))
        elif shape == 1:
            text = r.utf8(r.u32("source length"), "source text")
            try:
                fn = parse_function(text)
            except ParseError as err:
                raise BundleError(f"@{name}: source text does not parse: "
                                  f"{err}") from None
            if fn.name != name:
                raise BundleError(f"@{name}: source text defines "
                                  f"@{fn.name}")
            bundle.functions.append(PlainFunction(name, fn))
        elif shape == 2:
            bundle.functions.append(ExternFunction(name))
        else:
            raise IndexOutOfRange(f"unknown function shape {shape}")

    entry = r.u16("entry index")
    if entry == NO_ENTRY:
        bundle.entry_index = None
    elif entry < n_fns:
        bundle.entry_index = entry
    else:
        raise IndexOutOfRange(f"entry index {entry} outside function table")

    n_edges = r.u16("edge count")
    for _ in range(n_edges):
        checker = r.u16("checker index")
        checkee = r.u16("checkee index")
        if checker >= n_fns or checkee >= n_fns:
            raise IndexOutOfRange("edge references a missing function")
        bundle.edges.append((checker, checkee))

    if r.pos != len(data):
        raise TrailingData(f"{len(data) - r.pos} unexpected bytes after "
                           "bundle end")
    _check_plain(bundle)
    return bundle


def _signature(fn) -> IrFunction:
    """A table entry as the validator's call checks see it: a plain
    function itself, a transformed one as a body-less stand-in carrying
    its parameter and return types."""
    if isinstance(fn, PlainFunction):
        return fn.fn
    params = tuple((f"a{i}", tag)
                   for i, (_, tag) in enumerate(fn.param_slots))
    ret = fn.ret_slot[1] if fn.ret_slot else None
    return IrFunction(fn.name, params, ret, ())


def _check_plain(bundle: ProtectedBundle) -> None:
    """Refuse plain source the IR evaluator cannot run: code that does not
    validate against the table's signatures, or that calls a function the
    table does not hold."""
    plain = [f for f in bundle.functions if isinstance(f, PlainFunction)]
    if not plain:
        return
    names = {f.name for f in bundle.functions}
    table = IrModule(tuple(_signature(f) for f in bundle.functions
                           if not isinstance(f, ExternFunction)))
    for pf in plain:
        problems = validate_function(pf.fn, table)
        problems += [f"@{pf.name}: call to @{ins.callee}, which the table "
                     "does not hold" for ins in pf.fn.instructions()
                     if ins.kind == "call" and ins.callee not in names]
        if problems:
            raise BundleError("plain source does not validate: "
                              + "; ".join(problems))


def copy_bundle(bundle: ProtectedBundle) -> ProtectedBundle:
    """A copy that serializes to the same bytes.  It owns every mutable
    part (streams, images, parameter lists, opcode-table dicts, function
    and edge lists) and shares the frozen ones: plain functions'
    `IrFunction`s and the interned `HandlerSpec`s."""
    return ProtectedBundle(
        functions=[_copy_function(fn) for fn in bundle.functions],
        entry_index=bundle.entry_index, edges=list(bundle.edges),
        seed=bundle.seed, optimized_hint=bundle.optimized_hint)


def _copy_function(fn):
    if isinstance(fn, VirtFunction):
        risa = Risa(dict(fn.risa.opcode_of), dict(fn.risa.spec_of))
        return VirtFunction(fn.name, risa, array("H", fn.vpa),
                            bytearray(fn.image), list(fn.param_slots),
                            fn.ret_slot)
    if isinstance(fn, PlainFunction):
        return PlainFunction(fn.name, fn.fn)
    return ExternFunction(fn.name)


def arity_of(fn) -> int | None:
    """Parameter count of a table entry; None for an unknown intrinsic."""
    if isinstance(fn, VirtFunction):
        return len(fn.param_slots)
    if isinstance(fn, PlainFunction):
        return len(fn.fn.params)
    sig = EXTERN_SIGS.get(fn.name)
    return len(sig[0]) if sig else None


# ---- tamper strategies -----------------------------------------------------

class TamperError(Exception):
    pass


def _virt_targets(bundle: ProtectedBundle, name: str | None,
                  min_len: int = 1) -> list[VirtFunction]:
    if name is not None:
        try:
            fn = bundle.function(name)
        except KeyError as err:
            raise TamperError(str(err)) from None
        if not isinstance(fn, VirtFunction):
            raise TamperError(f"@{name} is not a transformed function")
        if len(fn.vpa) < min_len:
            raise TamperError(f"@{name} has only {len(fn.vpa)} elements")
        return [fn]
    out = [f for f in bundle.virt_functions() if len(f.vpa) >= min_len]
    if not out:
        raise TamperError("bundle has no transformed function to corrupt")
    return out


def _change(vfn: VirtFunction, element: int, value: int) -> dict:
    before = vfn.vpa[element]
    vfn.vpa[element] = value
    return {"function": vfn.name, "element": element,
            "before": before, "after": value}


@dataclass(frozen=True)
class FlipElement:
    """XOR one chosen element with a chosen nonzero mask."""

    function: str
    element: int
    mask: int = 0x0001

    def apply(self, bundle: ProtectedBundle, rng) -> list[dict]:
        if not 1 <= self.mask <= 0xFFFF:
            raise TamperError("mask must be a nonzero 16-bit value")
        (vfn,) = _virt_targets(bundle, self.function)
        if not 0 <= self.element < len(vfn.vpa):
            raise TamperError(
                f"element {self.element} outside @{vfn.name}'s stream")
        return [_change(vfn, self.element,
                        vfn.vpa[self.element] ^ self.mask)]


@dataclass(frozen=True)
class FlipRandomElement:
    """XOR one random element of one random (or given) function."""

    function: str | None = None

    def apply(self, bundle: ProtectedBundle, rng) -> list[dict]:
        vfn = rng.choice(_virt_targets(bundle, self.function))
        element = rng.randrange(len(vfn.vpa))
        mask = 1 + rng.randrange(0xFFFF)
        return [_change(vfn, element, vfn.vpa[element] ^ mask)]


@dataclass(frozen=True)
class SwapOpcodes:
    """Exchange the opcodes of two records that decode differently."""

    function: str | None = None

    def apply(self, bundle: ProtectedBundle, rng) -> list[dict]:
        vfn = rng.choice(_virt_targets(bundle, self.function))
        try:
            records = walk_records(vfn.risa, vfn.vpa)
        except MalformedStream as err:
            raise TamperError(f"@{vfn.name} no longer decodes: "
                              f"{err.reason}") from None
        starts = [s for s, _ in records]
        distinct = {vfn.vpa[s] for s in starts}
        if len(distinct) < 2:
            raise TamperError(f"@{vfn.name} uses a single opcode; nothing "
                              "to swap")
        while True:
            a, b = rng.sample(starts, 2)
            if vfn.vpa[a] != vfn.vpa[b]:
                break
        va, vb = vfn.vpa[a], vfn.vpa[b]
        return [_change(vfn, a, vb), _change(vfn, b, va)]


@dataclass(frozen=True)
class ZeroRange:
    """Overwrite a span of elements, at least one of them nonzero, with
    zero.  A random start is drawn among the spans that hold one."""

    function: str | None = None
    start: int | None = None
    length: int = 4

    def apply(self, bundle: ProtectedBundle, rng) -> list[dict]:
        length, start = self.length, self.start
        if length < 1:
            raise TamperError(f"length {length} is not positive")
        vfn = rng.choice(_virt_targets(bundle, self.function, min_len=length))
        vpa = vfn.vpa
        if start is None:
            starts = [s for s in range(len(vpa) - length + 1)
                      if any(vpa[s:s + length])]
            if not starts:
                raise TamperError(f"@{vfn.name}'s stream holds only zeros")
            start = rng.choice(starts)
        elif not 0 <= start <= len(vpa) - length:
            raise TamperError(f"range [{start}, {start + length}) outside "
                              f"@{vfn.name}'s stream")
        elif not any(vpa[start:start + length]):
            raise TamperError(f"range [{start}, {start + length}) of "
                              f"@{vfn.name}'s stream holds only zeros")
        return [_change(vfn, i, 0) for i in range(start, start + length)
                if vpa[i]]


@dataclass(frozen=True)
class PreserveChecksumPair:
    """XOR the same nonzero mask into two distinct elements.  The stream
    checksum is an XOR fold, so this corruption is invisible to guards;
    it exists to demonstrate the scheme's known blind spot."""

    function: str | None = None
    mask: int | None = None

    def apply(self, bundle: ProtectedBundle, rng) -> list[dict]:
        vfn = rng.choice(_virt_targets(bundle, self.function, min_len=2))
        mask = self.mask
        if mask is None:
            mask = 1 + rng.randrange(0xFFFF)
        if not 1 <= mask <= 0xFFFF:
            raise TamperError("mask must be a nonzero 16-bit value")
        a, b = rng.sample(range(len(vfn.vpa)), 2)
        return [_change(vfn, a, vfn.vpa[a] ^ mask),
                _change(vfn, b, vfn.vpa[b] ^ mask)]


STRATEGY_NAMES = {
    "flip": FlipElement,
    "flip-random": FlipRandomElement,
    "swap-opcodes": SwapOpcodes,
    "zero-range": ZeroRange,
    "preserve-pair": PreserveChecksumPair,
}


def tamper_bundle(bundle: ProtectedBundle, strategy,
                  rng) -> tuple[ProtectedBundle, list[dict]]:
    """Apply one corruption strategy to a `copy_bundle` copy; the original
    bundle is left untouched, frozen parts shared with the copy included.
    Returns the corrupted copy and the change manifest."""
    copy = copy_bundle(bundle)
    changes = strategy.apply(copy, rng)
    return copy, changes
