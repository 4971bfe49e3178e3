"""Pre-decoding execution engine with a register file.

Each function's encoded stream is decoded once per run into positional
records whose operand cells, type masks and successor links are baked
into closures; the dispatch loop then just indexes a list.  Memory is a
register file rather than a byte image: a list indexed by byte offset in
which every cell and region element the records reference holds its
value as one canonical unsigned int, so a handler is a few list
operations (`vm[r] = (vm[a] + vm[b]) & m`) instead of byte slices.
Every record's closure runs its kind's statement from `_STATEMENTS` (a
value kind's wraps the expression `arith.value_source` states for it),
compiled once per spec, and for a branch per direction, into a
one-record factory.  The arguments of each record's statement are worked
out once, at decode, by `_record_args`.  The register list is built from
the image once per run, at decode time, and each activation starts from
a copy of it.

A basic block that gets hot runs as one generated function.  The first
record counts activations, a loop's back edge counts the entries over
its edges, and so does every edge out of a hot block; once a count
reaches `HOT`, the block that starts at the edge's target is built and
patched into the dispatch list in place of its first closure.  Its
source strings together the same `_STATEMENTS`, one per record kind, and
is compiled once per block shape, the records' specs.  Both kinds of
factory are kept in bounded process-wide caches; cells, region limits,
callees and successors are factory arguments, so no stream content or
run state is cached.  Calls and guards run inline: the generated code
looks `call_function` and `compute_vpa_hash` up in this module at each
call, and every guard still hashes the live stream.  The block counts
steps per segment, ending one at each call and guard: a trap takes back
the steps of the records after it, and a segment the step limit falls
inside runs record by record.  Steps, traps, outputs and guard counts
stay those of the per-record run.

That removes the per-step opcode lookup, operand fetch, byte conversion
and counter bounds check the checked engine pays for, at the cost of
observing corruption lazily:

  - structural damage (unknown opcode or one whose table entry does not
    fit its kind, truncated record, branch into the middle of a record)
    is refused up front when decoding, with the same signal kinds the
    checked engine raises;
  - so is any cell reference, found through the record's layout, that
    leaves the image, and any pair of references that share a byte
    without naming the same cells (an operand retargeted into the middle
    of a wider cell, a load or store count stretched over a neighbouring
    cell).  Honest layouts never overlap, and one int per cell cannot
    alias part of another value, so such a function is refused as an
    invalid reference before it runs;
  - other damage to cell offsets or region bounds is baked in and
    surfaces, if at all, as wrong results or traps rather than signals;
    an index outside a region, or past the image end, traps with the
    checked engine's load or store reason;
  - the encoded streams themselves stay monitored: every checksum record
    re-hashes its target's live stream on every execution, so mutation
    after decode is still caught.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from functools import partial

from .arith import (TRAPPING, VALUE_KINDS, Factories, TrapError,
                    index_limit, value_source)
# the trapping kinds' functions, which generated statements name
from .arith import ashr, lshr, sdiv, shl, srem  # noqa: F401
from .bundle import ProtectedBundle, VirtFunction
from .execstate import (DEFAULT_STEP_LIMIT, LOAD_BOUNDS_REASON,
                        STEP_LIMIT_REASON, STORE_BOUNDS_REASON, ExecContext)
from .guards import compute_vpa_hash
from .risa import (CALLEE, CELL_ROLES, CHECKEE, HandlerSpec,
                   MalformedStream, walk_records)
from .runtime import (CELL_CODE, INVALID_OPCODE, INVALID_REFERENCE,
                      PC_ESCAPE, TamperSignal, call_function, check_guard,
                      execute_with_engine, table_entry)


@dataclass
class ThreadedRecord:
    """One decoded record: where it sits, what it does, which cells it
    touches, and where control continues (ordinal, (true, false) pair for
    conditional branches, None for returns)."""

    offset: int
    spec: HandlerSpec
    operands: tuple[int, ...]
    successor: int | tuple[int, int] | None

    @property
    def kind(self) -> str:
        return self.spec.kind


def pre_decode(vfn: VirtFunction) -> list[ThreadedRecord]:
    """Split a stream into records and resolve every control edge to a
    record ordinal.  Raises TamperSignal if the stream does not decode as
    a branch-consistent record sequence."""
    vpa = vfn.vpa
    try:
        walked = walk_records(vfn.risa, vpa)
    except MalformedStream as err:
        raise TamperSignal(PC_ESCAPE if err.truncated else INVALID_OPCODE,
                           f"@{vfn.name}: {err.reason}") from None
    if not walked:
        raise TamperSignal(PC_ESCAPE, f"@{vfn.name}: stream is empty")
    ordinal_at = {start: i for i, (start, _) in enumerate(walked)}

    records = []
    for ordinal, (start, spec) in enumerate(walked):
        ops = tuple(vpa[start + 1:start + spec.record_len])
        succ: int | tuple[int, int] | None
        if spec.kind == "ret":
            succ = None
        elif spec.targets:
            succ = tuple(ordinal_at.get(ops[p]) for p in spec.targets)
            if None in succ:
                raise TamperSignal(
                    PC_ESCAPE, f"@{vfn.name}: branch at {start} targets an "
                    "element that is not a record boundary")
            if len(succ) == 1:
                succ = succ[0]
        else:
            succ = ordinal + 1
            if succ == len(walked):
                raise TamperSignal(
                    PC_ESCAPE, f"@{vfn.name}: stream ends in a "
                    "non-terminating record")
        records.append(ThreadedRecord(start, spec, ops, succ))
    return records


class _Cells:
    """The cells and regions one function references, collected while its
    records compile, and the register-file template they imply."""

    def __init__(self, vfn: VirtFunction) -> None:
        self.vfn = vfn
        self.size = len(vfn.image)
        self.spans: set[tuple[int, int, int]] = set()  # (start, end, width)

    def cell(self, off: int, width: int, where: str | int) -> int:
        """Validate one baked cell reference, made by the record at offset
        `where` or by what `where` names; corrupt offsets are refused here
        so the hot loop never bounds-checks them."""
        if off + width > self.size:
            if isinstance(where, int):
                where = f"record at {where}"
            raise TamperSignal(
                INVALID_REFERENCE, f"@{self.vfn.name}: {where} references "
                "a cell outside the image")
        self.spans.add((off, off + width, width))
        return off

    def region(self, base: int, count: int, width: int) -> int:
        """Note the elements of a load/store region that lie inside the
        image; returns how many leading elements an index may reach."""
        n = min(count, max(0, (self.size - base) // width))
        if n:
            self.spans.add((base, base + n * width, width))
        return n

    def template(self) -> list[int]:
        """Each referenced cell's little-endian value at its offset.  Two
        spans sharing a byte must cut it into the same cells: same width,
        element boundaries aligned."""
        image = self.vfn.image
        vm = list(image)            # width-1 cells hold their byte already
        group_start, group_end, group_width = 0, 0, 0
        for start, end, width in sorted(self.spans):
            if start < group_end:
                if width != group_width or (start - group_start) % width:
                    raise TamperSignal(
                        INVALID_REFERENCE, f"@{self.vfn.name}: cells at "
                        f"{group_start} and {start} overlap")
                group_end = max(group_end, end)
            else:
                group_start, group_end, group_width = start, end, width
            if width > 1:
                n = (end - start) // width
                vm[start:end:width] = struct.unpack_from(
                    f"<{n}{CELL_CODE[width]}", image, start)
        return vm


def _record_args(bundle: ProtectedBundle, vfn: VirtFunction,
                 rec: ThreadedRecord, cells: _Cells):
    """The arguments of `rec`'s statement, numbered as its `_STATEMENTS`
    entry names them, worked out once when the record is decoded: every
    cell the record names is validated here, a load or store's index limit
    computed and a call's callee or a guard's checkee resolved.  A value
    record's arguments are its operand cells, then its result cell."""
    spec = rec.spec
    k = spec.kind
    if k in ("const", "alloca"):
        # no engine reads these operands: constants sit in the template
        return ()
    if k == "br":
        return (rec.successor,)
    ops = [cells.cell(v, tag.width, rec.offset) if role in CELL_ROLES else v
           for (role, tag), v in zip(spec.layout, rec.operands)]
    if k in VALUE_KINDS:
        return ops
    if k == "load":
        base, count, ix, r = ops
        n = cells.region(base, count, spec.result_type.width)
        return ix, index_limit(n, spec.operand_types[0]), base, r
    if k == "store":
        v, base, count, ix = ops
        n = cells.region(base, count, spec.operand_types[0].width)
        return ix, index_limit(n, spec.operand_types[1]), base, v
    if k == "brcond":
        return (ops[0], *rec.successor)
    if k == "ret":
        # a value goes to the return cell, or with none onto itself
        return ops and (ops[0] if vfn.ret_slot is None
                        else vfn.ret_slot[0], ops[0])
    if k == "call":
        return (bundle, table_entry(bundle, vfn, CALLEE, ops[0]), *ops[1:])
    if k == "guard":
        checkee = table_entry(bundle, vfn, CHECKEE, ops[0])
        return (checkee, (vfn.name, checkee.name), *ops[1:])
    # `risa._layout` gives no other kind a layout
    raise AssertionError(f"no handler for kind {k!r}")


# ------------------------------------------------------------ statements

# entries into a block, as an activation's first block, over a loop's
# back edge or from a hot block, after which it runs as one generated
# function
HOT = 32

# The Python statement(s) each record kind runs as, alone as a cold record
# or inside a hot block.  `{aN}` is the record's N-th argument, as
# `_record_args` gives them, and `{eN}` counts the entries over the edge
# to `{aN}`; `{w}` is a load or store's element width and `{args}` a
# call's argument cells; `{back}` is how many records of its segment
# follow the record, which a trap takes back off `ctx.steps` so it
# reports the trapping record's step.  A value kind's statement is
# `_VALUE` or `_TRAPPING` around its `arith.value_source` expression, and a
# call with a result stores it masked to its type.
_VALUE = "vm[{r}] = {value}\n"
_TRAPPING = """\
try:
    vm[{r}] = {value}
except TrapError:
    ctx.steps -= {back}
    raise
"""
_STATEMENTS = {
    **dict.fromkeys(VALUE_KINDS, _VALUE),
    **dict.fromkeys(TRAPPING, _TRAPPING),
    "const": "",
    "alloca": "",
    "load": """\
i = vm[{a0}]
if i >= {a1}:
    ctx.steps -= {back}
    raise TrapError(LOAD_BOUNDS_REASON)
vm[{a3}] = vm[{a2} + i * {w}]
""",
    "store": """\
i = vm[{a0}]
if i >= {a1}:
    ctx.steps -= {back}
    raise TrapError(STORE_BOUNDS_REASON)
vm[{a2} + i * {w}] = vm[{a3}]
""",
    "call": "v = call_function({a0}, {a1}, [{args}], ctx, run_threaded)\n",
    "guard": """\
h = vm[{a3}] = compute_vpa_hash({a0}.vpa)
check_guard(ctx, {a1}, h, vm[{a2}])
""",
    "br": """\
{e0} -= 1
if not {e0}:
    heat({a0})
return {a0}
""",
    "brcond": """\
if vm[{a0}]:
    {e1} -= 1
    if not {e1}:
        heat({a1})
    return {a1}
{e2} -= 1
if not {e2}:
    heat({a2})
return {a2}
""",
    # a ret with a value copies it to the return cell
    "ret": "vm[{a0}] = vm[{a1}]\nreturn -1\n",
}
# a cold branch that is not a loop's back edge counts no entries
_FORWARD = {"br": "return {a0}\n",
            "brcond": "return {a1} if vm[{a0}] else {a2}\n"}
# the kinds that end a block, and those that end a segment of it
_TERMINATORS = ("br", "brcond", "ret")
_SEGMENT_ENDS = ("call", "guard")


def _statement(spec: HandlerSpec, forward: bool = False) -> str:
    """`spec`'s statement template, with its value expression, element
    width or argument cells filled in; `forward` picks a branch's
    uncounted form."""
    k = spec.kind
    if k == "ret" and not spec.layout:
        return "return -1\n"
    if forward:
        return _FORWARD[k]
    template = _STATEMENTS[k]
    if k in VALUE_KINDS:
        n = len(spec.operand_types)
        value = value_source(k, spec.operand_types, spec.result_type,
                             [f"vm[{{a{i}}}]" for i in range(n)])
        return template.replace("{value}", value).replace("{r}", f"{{a{n}}}")
    if k in ("load", "store"):
        width = (spec.result_type if k == "load"
                 else spec.operand_types[0]).width
        return template.replace("{w}", str(width))
    if k == "call":
        n = len(spec.operand_types)
        template = template.replace("{args}", ", ".join(
            f"vm[{{a{i}}}]" for i in range(2, 2 + n)))
        if spec.result_type is not None:
            mask = (1 << spec.result_type.bits) - 1
            template += f"vm[{{a{2 + n}}}] = (v or 0) & {mask}\n"
    return template


def _block_source(specs: tuple[HandlerSpec, ...],
                  forward: bool = False) -> str:
    """The source of the factory of one block shape, the specs of its
    records: a hot block, the last a terminator, or one cold record, with
    `forward` for a branch in its uncounted form.  The factory takes the
    run's context, step limit, `heat` and `cold`, the first record's
    ordinal `o`, then each record's arguments."""
    params, counters, body = ["ctx", "limit", "heat", "cold", "o"], [], []
    start = 0
    for j, spec in enumerate(specs):
        if j == start:
            # count the segment ahead; the dispatch loop has counted the
            # leader already
            end = next((e + 1 for e in range(j, len(specs))
                        if specs[e].kind in _SEGMENT_ENDS), len(specs))
            count = end - start - (start == 0)
            if count:
                body += [f"st = ctx.steps + {count}",
                         "if st > limit:",
                         f"    return cold(vm, o + {start}, "
                         f"{int(start == 0)})",
                         "ctx.steps = st"]
        template = _statement(spec, forward)
        fields = set(re.findall(r"\{(\w+)\}", template))
        names = {f: f"{f}_{j}" for f in fields if f[0] in "ae"}
        params += [f"a{p}_{j}" for p in range(
            sum(f[0] == "a" for f in fields))]
        counters += [n for f, n in names.items() if f[0] == "e"]
        body += template.format(back=end - 1 - j, **names).splitlines()
        if spec.kind in _SEGMENT_ENDS:
            start = j + 1
    lines = [f"def factory({', '.join(params)}):"]
    if specs[-1].kind not in _TERMINATORS:
        # a record run alone goes on to the next one
        lines += [f"    nxt = o + {len(specs)}"]
        params += ["nxt"]
        body += ["return nxt"]
    if counters:
        lines += [f"    {' = '.join(counters)} = {HOT}"]
    # what the block reads binds as defaults, fast locals kept in one
    # tuple, and only the entry counters as closure cells
    text = "\n".join(body)
    bound = [f"{p}={p}" for p in params if re.search(rf"\b{p}\b", text)]
    lines += [f"    def block({', '.join(['vm', *bound])}):"]
    if counters:
        lines += [f"        nonlocal {', '.join(counters)}"]
    lines += [f"        {line}" for line in body]
    lines += ["    return block"]
    return "\n".join(lines) + "\n"


# block factories by shape, the tuple of the records' specs, and one-record
# factories, the cold path, by (spec, forward)
BLOCK_FACTORIES = Factories(_block_source, globals())
RECORD_FACTORIES = Factories(lambda key: _block_source(key[:1], key[1]),
                             globals())


class _Blocks:
    """One function's dispatch list in one run, the hot blocks patched
    into it, its register-file template, (cell, mask) per parameter and
    return cell.  The list starts as the per-record closures, the first
    behind a counter of activations; `heat(leader)` replaces the closure
    at `leader` with the block that starts there, run as one generated
    function.  `args` holds each record's arguments, as decoding worked
    them out.  The closures reach `heat` and `cold` through `ctx.decoded`,
    so clearing it when the run ends frees them."""

    __slots__ = ("records", "args", "ctx", "links", "code", "first",
                 "flat", "hot", "template", "params", "ret")

    def __init__(self, records: list[ThreadedRecord], args: list,
                 ctx: ExecContext, key: tuple[str, int]) -> None:
        self.records = records
        self.args = args
        self.ctx = ctx
        # (heat, cold) as the closures call them
        self.links = partial(_heat, ctx, key), partial(_cold, ctx, key)
        self.flat = None            # the closures, from the first heat on

    def dispatch_list(self, code: list) -> None:
        """Keep `code`, the records' closures, as the dispatch list, with
        the first behind a counter of activations."""
        self.code = code
        first = self.first = code[0]
        heat = self.links[0]
        n = HOT

        def enter(vm):
            nonlocal n
            n -= 1
            if not n:
                heat(0)
            return first(vm)
        code[0] = enter

    def heat(self, leader: int) -> None:
        """Patch the block at `leader` into the dispatch list, unless it is
        there already.  A block runs to the next terminator, through any
        branch target on the way, which may start a block of its own."""
        if self.flat is None:
            self.flat = self.code.copy()
            self.flat[0] = self.first
            self.hot = set()
        elif leader in self.hot:
            return
        self.hot.add(leader)
        specs, args = [], []
        for rec, rec_args in zip(self.records[leader:], self.args[leader:]):
            specs.append(rec.spec)
            args += rec_args
            if rec.spec.kind in _TERMINATORS:
                break
        ctx = self.ctx
        self.code[leader] = BLOCK_FACTORIES[tuple(specs)](
            ctx, ctx.step_limit, *self.links, leader, *args)

    def cold(self, vm, ordinal: int, counted: int) -> int:
        """Run the per-record closures from `ordinal` to the activation's
        end, which a hot block hands over when the step limit falls inside
        one of its segments; `counted` of its steps are counted already."""
        ctx, flat = self.ctx, self.flat
        ctx.steps -= counted
        limit = ctx.step_limit
        while ordinal != -1:
            ctx.steps += 1
            if ctx.steps > limit:
                raise TrapError(STEP_LIMIT_REASON)
            ordinal = flat[ordinal](vm)
        return -1


def _heat(ctx: ExecContext, key: tuple[str, int], leader: int) -> None:
    ctx.decoded[key].heat(leader)


def _cold(ctx: ExecContext, key: tuple[str, int], vm, ordinal: int,
          counted: int) -> int:
    return ctx.decoded[key].cold(vm, ordinal, counted)


def _decode(bundle: ProtectedBundle, vfn: VirtFunction, ctx: ExecContext,
            key: tuple[str, int]) -> _Blocks:
    """The dispatch list, register-file template, (cell, mask) per
    parameter and return cell of `vfn`.  Each record's closure comes
    from its one-record factory; a branch back to its own or an earlier
    record, a loop's back edge, counts the entries over its edges."""
    cells = _Cells(vfn)
    records = pre_decode(vfn)
    args = [_record_args(bundle, vfn, rec, cells) for rec in records]
    blocks = _Blocks(records, args, ctx, key)
    limit = ctx.step_limit
    code = []
    for o, (rec, rec_args) in enumerate(zip(records, args)):
        spec = rec.spec
        forward = bool(spec.targets) and min(
            rec.operands[p] for p in spec.targets) > rec.offset
        code.append(RECORD_FACTORIES[spec, forward](
            ctx, limit, *blocks.links, o, *rec_args))
    blocks.params = [(cells.cell(off, tag.width, "a parameter"),
                      (1 << tag.bits) - 1) for off, tag in vfn.param_slots]
    blocks.ret = None
    if vfn.ret_slot is not None:
        off, tag = vfn.ret_slot
        blocks.ret = cells.cell(off, tag.width, "the return cell")
    blocks.dispatch_list(code)
    blocks.template = cells.template()
    return blocks


def _compiled(bundle: ProtectedBundle, vfn: VirtFunction,
              ctx: ExecContext) -> _Blocks:
    """`_decode` of `vfn`, built once per run.  A refusal while decoding
    is marked `at_decode` on its tamper signal."""
    key = ("optimized", id(vfn))
    compiled = ctx.decoded.get(key)
    if compiled is None:
        try:
            compiled = _decode(bundle, vfn, ctx, key)
        except TamperSignal as signal:
            signal.at_decode = True
            raise
        ctx.decoded[key] = compiled
    return compiled


def run_threaded(bundle: ProtectedBundle, vfn: VirtFunction, args,
                 ctx: ExecContext) -> int | None:
    """One activation of a transformed function under the pre-decoding
    engine."""
    blocks = _compiled(bundle, vfn, ctx)
    code, ret = blocks.code, blocks.ret
    vm = blocks.template.copy()
    for (off, m), raw in zip(blocks.params, args):
        vm[off] = raw & m

    ordinal = 0
    limit = ctx.step_limit
    while ordinal != -1:
        ctx.steps += 1
        if ctx.steps > limit:
            raise TrapError(STEP_LIMIT_REASON)
        ordinal = code[ordinal](vm)
    return None if ret is None else vm[ret]


def execute_optimized(bundle: ProtectedBundle, inputs=(),
                      step_limit: int = DEFAULT_STEP_LIMIT,
                      entry: str | None = None):
    return execute_with_engine(bundle, run_threaded, inputs, step_limit,
                               entry)
