"""Pre-decoding execution engine with a register file.

Each function's encoded stream is decoded once per run, in one pass over
its records, into one generated function per basic block, with the
records' operand cells, type masks and successors baked in; the dispatch
loop then just indexes a list.  Memory is a register file rather than a
byte image: a list indexed by byte offset in which every cell and region
element the records reference holds its value as one canonical unsigned
int, so a statement is a few list operations
(`vm[r] = (vm[a] + vm[b]) & m`) instead of byte slices.  The register
list is built from the image once per run, at decode time, and each
activation starts from a copy of it.

A block starts at record 0 or at a branch target, runs through any
branch target on its way and ends at the next terminator; the dispatch
list holds it at its first record.  `arith.block_source` assembles it
from each record's statement in `_STATEMENTS` (a value kind's wraps its
`arith.value_source` expression), compiled once per block shape, the
records' spec numbers (one int per signature, so a shape hashes in C),
into a factory kept in a bounded process-wide cache.  Cells, region
limits, callees and successors are factory arguments, gathered into one
flat list by one pass over the records: each record's reader, compiled
from its signature's layout, checks every cell it names as it goes, so
no stream content or run state is cached across runs.  Calls and guards
run inline, linked by their readers once per run.  A call to a
transformed function of the record's arity is linked: this module's
`call_function` checks the call depth and runs `run_threaded` itself;
any other call takes the shared bridge, `runtime.call_function`.
A guard bumps its (checker, checkee) edge's counter cell, one int in a
list, compares the hashes in line and raises a mismatch through
`runtime.guard_mismatch`, as the checked engine's guard does; the run's
result reads its guard counts from the cells.  The generated code looks `call_function` and
`compute_vpa_hash` up in this module at each call, and every guard
still hashes the live stream.  A block counts every step it runs, per
segment, ending one at each call and guard: a trap takes back the steps
of the records after it, and a segment the step limit falls inside runs
record by record (`arith.hand_over`).  Steps, traps, outputs and guard
counts stay those of the per-record run.

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

`_load` makes the up-front refusals and builds no block.  `verify` runs
it on every transformed function and adds only the rules no engine
refuses at load.
"""

from __future__ import annotations

from bisect import bisect_left

from .arith import (TERMINATORS, TRAPPING, VALUE_KINDS, Factories,
                    TrapError, block_source, hand_over, index_limit,
                    value_source)
# the trapping kinds' functions, which generated statements name
from .arith import ashr, lshr, sdiv, shl, srem  # noqa: F401
from .bundle import ExternFunction, ProtectedBundle, VirtFunction, arity_of
from .execstate import (CALL_DEPTH_REASON, DEFAULT_STEP_LIMIT,
                        LOAD_BOUNDS_REASON, MAX_CALL_DEPTH,
                        STORE_BOUNDS_REASON, ExecContext, TamperSignal)
from .guards import compute_vpa_hash
from .ir.core import EXTERN_SIGS
from .network import verify_acyclic
from .risa import (BASE, CALLEE, CELL, CHECKEE, COUNT, RESULT, TARGET,
                   HandlerSpec, MalformedStream, numbered_spec, walk_records)
from .runtime import (_CELL, INVALID_OPCODE, INVALID_REFERENCE, PC_ESCAPE,
                      execute_with_engine, guard_mismatch, table_entry)
# the shared bridge, bound once, so a tracer's wrapper around
# `runtime.call_function` does not count a call this engine's
# `call_function` already counted
from .runtime import call_function as _bridge


def pre_decode(vfn: VirtFunction) -> list[tuple]:
    """Split a stream into records, (element index, handler spec,
    successor) each, and resolve every control edge to a record ordinal:
    the successor is the next ordinal, the (true, false) pair of a
    conditional branch, or None for a return.  Raises TamperSignal if the
    stream does not decode as a branch-consistent record sequence."""
    vpa = vfn.vpa
    try:
        walked = walk_records(vfn.risa, vpa)
    except MalformedStream as err:
        raise TamperSignal(PC_ESCAPE if err.truncated else INVALID_OPCODE,
                           f"@{vfn.name}: {err.reason}") from None
    if not walked:
        raise TamperSignal(PC_ESCAPE, f"@{vfn.name}: stream is empty")
    ordinal_at = {start: i for i, (start, _) in enumerate(walked)}
    last = len(walked) - 1

    records = []
    for ordinal, (start, spec) in enumerate(walked):
        targets = spec.targets
        if spec.kind == "ret":
            succ = None
        elif targets:
            succ = tuple(ordinal_at.get(vpa[start + 1 + p]) for p in targets)
            if None in succ:
                raise TamperSignal(
                    PC_ESCAPE, f"@{vfn.name}: branch at {start} targets an "
                    "element that is not a record boundary")
            if len(succ) == 1:
                succ = succ[0]
        elif ordinal == last:
            raise TamperSignal(
                PC_ESCAPE, f"@{vfn.name}: stream ends in a "
                "non-terminating record")
        else:
            succ = ordinal + 1
        records.append((start, spec, succ))
    return records


# ------------------------------------------------------------ statements

# The Python statement(s) each record kind runs as, inside a block or
# alone.  `{aN}` is the record's N-th argument, as its reader appends
# them in layout order: a count as its region's index limit, a callee as
# (bundle, callee, linked), a checkee as (checkee, edge counter cell,
# edge), a branch target as its successor, and a ret's value followed by
# its destination.  `{w}` is a load or store's element width and `{args}`
# a call's argument cells; `{back}` is how many records of its segment
# follow the record, which a trap takes back off `ctx.steps` so it
# reports the trapping record's step.  A value kind's statement is
# `_VALUE` or `_TRAPPING` around its `arith.value_source` expression, and
# a call with a result stores it masked to its type.
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
i = vm[{a2}]
if i >= {a1}:
    ctx.steps -= {back}
    raise TrapError(LOAD_BOUNDS_REASON)
vm[{a3}] = vm[{a0} + i * {w}]
""",
    "store": """\
i = vm[{a3}]
if i >= {a2}:
    ctx.steps -= {back}
    raise TrapError(STORE_BOUNDS_REASON)
vm[{a1} + i * {w}] = vm[{a0}]
""",
    "call": "v = call_function({a0}, {a1}, [{args}], ctx, {a2})\n",
    "guard": """\
h = vm[{a4}] = compute_vpa_hash({a0}.vpa)
{a1}[0] += 1
if h != vm[{a3}]:
    guard_mismatch({a2}, h, vm[{a3}])
""",
    "br": "return {a0}\n",
    "brcond": "return {a1} if vm[{a0}] else {a2}\n",
    # a ret with a value copies it to the return cell
    "ret": "vm[{a1}] = vm[{a0}]\nreturn -1\n",
}


def _statement(spec: HandlerSpec) -> str:
    """`spec`'s statement template, with its value expression, element
    width or argument cells filled in."""
    k = spec.kind
    if k == "ret" and not spec.layout:
        return "return -1\n"
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
            f"vm[{{a{i}}}]" for i in range(3, 3 + n)))
        if spec.result_type is not None:
            mask = (1 << spec.result_type.bits) - 1
            template += f"vm[{{a{3 + n}}}] = (v or 0) & {mask}\n"
    return template


def _block_source(numbers: tuple[int, ...]) -> str:
    """The `arith.block_source` of one block shape, the `number`s of its
    records' specs: a block, the last a terminator, or one record run
    alone."""
    return block_source([(spec.kind, _statement(spec))
                         for spec in map(numbered_spec, numbers)])


# block factories by shape, the tuple of the records' spec numbers
BLOCK_FACTORIES = Factories(_block_source, globals())


def _reader_source(number: int) -> str:
    """The source of `read(vpa, start, succ, size, spans, flat, leaders,
    bundle, vfn, counters)`, which checks the record of the spec numbered
    `number` at element `start` and appends its statement arguments to
    `flat`, stated role by role from the layout.  A callee or checkee is
    resolved after the cells, so a bad cell outranks a bad table index."""
    spec = numbered_spec(number)
    # no engine reads a const's cell: the constant sits in the template
    layout = () if spec.kind == "const" else spec.layout
    body, links, args = [], [], []
    for p, (role, tag) in enumerate(layout):
        arg = f"e{p}"       # a region base is its own argument
        if role in (CELL, RESULT):
            body += [f"if {arg} + {tag.width} > size:",
                     "    raise TamperSignal(INVALID_REFERENCE, f'@{vfn.name}: "
                     "record at {start} references a cell outside the image')",
                     f"spans.add(({arg}, {arg} + {tag.width}, {tag.width}))"]
        elif role == COUNT:
            # the region's leading elements inside the image, and their
            # index limit under the next cell's type; a count is one
            # 16-bit element, so no region holds 1 << 16
            w, base, index = tag.width, f"e{p - 1}", layout[p + 1][1]
            body += [f"n = min({arg}, max(0, (size - {base}) // {w}))",
                     "if n:", f"    spans.add(({base}, {base} + n * {w}, {w}))"]
            arg = f"min(n, {index_limit(1 << 16, index)})"
        elif role == TARGET:
            # `pre_decode` resolved one successor, or a pair
            arg = ("succ" if len(spec.targets) == 1
                   else f"succ[{spec.targets.index(p)}]")
            body.append(f"leaders.add({arg})")
        elif role == CALLEE:
            links += [f"callee = table_entry(bundle, vfn, CALLEE, {arg})",
                      "linked = (isinstance(callee, VirtFunction) and len("
                      f"callee.param_slots) == {len(spec.operand_types)})"]
            arg = "bundle, callee, linked"
        elif role == CHECKEE:
            links += [f"checkee = table_entry(bundle, vfn, CHECKEE, {arg})",
                      "edge = (vfn.name, checkee.name)"]
            arg = "checkee, counters.setdefault(edge, [0]), edge"
        args.append(arg)
    if spec.kind == "ret" and layout:
        # a value goes to the return cell, or with none onto itself
        args.append("e0 if vfn.ret_slot is None else vfn.ret_slot[0]")
    elements = ", ".join(f"e{p}" for p in range(len(layout)))
    lines = [f"{elements}, = vpa[start + 1:start + {1 + len(layout)}]",
             *body, *links, f"flat += ({', '.join(args)},)"] if args else []
    return ("def read(vpa, start, succ, size, spans, flat, leaders, bundle, "
            "vfn, counters):\n" + "".join(f"    {line}\n"
                                           for line in lines or ["pass"]))


# record readers by spec number
RECORD_READERS = Factories(_reader_source, globals())


def _load(bundle: ProtectedBundle, vfn: VirtFunction, counters: dict):
    """Check `vfn`'s references as the engine decodes it, building no
    block.  One pass over the records (`pre_decode`) runs each record's
    reader, which appends its statement arguments to `flat`; a guard's
    edge counter cell, a one-int list, is taken from `counters`, by edge.
    The parameter and return cells and the overlap check follow.  Raises
    TamperSignal for the first reference refused; returns the records,
    `flat`, where each record's arguments start in it, the block leaders,
    the template and the (cell, mask) of each parameter and the return
    cell."""
    records = pre_decode(vfn)
    vpa, size, name = vfn.vpa.tolist(), len(vfn.image), vfn.name
    spans = set()               # (start, end, width) of each cell and region
    flat: list = []
    first = []                  # where each record's arguments start in flat
    leaders = {0}               # block starts
    for start, spec, succ in records:
        first.append(len(flat))
        RECORD_READERS[spec.number](vpa, start, succ, size, spans, flat,
                                    leaders, bundle, vfn, counters)
    first.append(len(flat))

    slots = [(*slot, "a parameter") for slot in vfn.param_slots]
    if vfn.ret_slot is not None:
        slots.append((*vfn.ret_slot, "the return cell"))
    for off, tag, where in slots:
        if off + tag.width > size:
            raise TamperSignal(INVALID_REFERENCE, f"@{name}: {where} "
                               "references a cell outside the image")
        spans.add((off, off + tag.width, tag.width))
    params = [(off, (1 << tag.bits) - 1) for off, tag in vfn.param_slots]
    ret = None if vfn.ret_slot is None else vfn.ret_slot[0]
    template = _template(name, vfn.image, spans)
    return records, flat, first, leaders, template, params, ret


def _decode(bundle: ProtectedBundle, vfn: VirtFunction, ctx: ExecContext):
    """The dispatch list, register-file template, (cell, mask) per
    parameter and return cell of `vfn`, once `_load` has checked it, kept
    in `ctx.decoded` under `id(vfn)` for the rest of the run.  The dispatch
    list holds, at record 0 and at every branch target, the block that
    starts there and runs to the next terminator, through any branch
    target on the way; it holds None at every other record.  A refusal
    while loading is marked `at_decode` on its tamper signal."""
    try:
        records, flat, first, leaders, template, params, ret = _load(
            bundle, vfn, ctx.guard_cells)
    except TamperSignal as signal:
        signal.at_decode = True
        raise
    numbers = [spec.number for _, spec, _ in records]
    ends = [o for o, (_, spec, _) in enumerate(records)
            if spec.kind in TERMINATORS]
    limit = ctx.step_limit
    hand = hand_over(ctx, lambda o, trap: BLOCK_FACTORIES[numbers[o],](
        ctx, limit, trap, o, *flat[first[o]:first[o + 1]]))
    code = [None] * len(records)
    for leader in leaders:
        end = ends[bisect_left(ends, leader)]
        code[leader] = BLOCK_FACTORIES[tuple(numbers[leader:end + 1])](
            ctx, limit, hand, leader, *flat[first[leader]:first[end + 1]])
    decoded = ctx.decoded[id(vfn)] = code, template, params, ret
    return decoded


def _template(name: str, image: bytearray, spans) -> list[int]:
    """The register-file template: each referenced cell's little-endian
    value at its offset.  Two spans sharing a byte must cut it into the
    same cells: same width, element boundaries aligned."""
    vm = list(image)            # width-1 cells hold their byte already
    group_start, group_end, group_width = 0, 0, 0
    for start, end, width in sorted(spans):
        if start < group_end:
            if width != group_width or (start - group_start) % width:
                raise TamperSignal(
                    INVALID_REFERENCE, f"@{name}: cells at "
                    f"{group_start} and {start} overlap")
            group_end = max(group_end, end)
        else:
            group_start, group_end, group_width = start, end, width
        if width > 1:
            cell = _CELL[width]
            vm[start:end:width] = (
                cell.unpack_from(image, start) if end - start == width
                else [v for v, in cell.iter_unpack(image[start:end])])
    return vm


def call_function(bundle: ProtectedBundle, target, args, ctx: ExecContext,
                  linked: bool) -> int | None:
    """The call statement's entry: a `linked` call, one `_load` found to
    name a transformed function of the record's arity, checks the call
    depth and runs `run_threaded` itself; any other goes through the
    shared bridge, which also refuses a call of the wrong arity."""
    if not linked:
        return _bridge(bundle, target, args, ctx, run_threaded)
    depth = ctx.call_depth = ctx.call_depth + 1
    if depth > MAX_CALL_DEPTH:
        raise TrapError(CALL_DEPTH_REASON)
    try:
        return run_threaded(bundle, target, args, ctx)
    finally:
        ctx.call_depth -= 1


def run_threaded(bundle: ProtectedBundle, vfn: VirtFunction, args,
                 ctx: ExecContext) -> int | None:
    """One activation of a transformed function under the pre-decoding
    engine."""
    code, template, params, ret = (ctx.decoded.get(id(vfn))
                                   or _decode(bundle, vfn, ctx))
    vm = template.copy()
    for (off, m), raw in zip(params, args):
        vm[off] = raw & m

    o = 0
    while o != -1:
        o = code[o](vm)
    return None if ret is None else vm[ret]


def execute_optimized(bundle: ProtectedBundle, inputs=(),
                      step_limit: int = DEFAULT_STEP_LIMIT,
                      entry: str | None = None):
    return execute_with_engine(bundle, run_threaded, inputs, step_limit,
                               entry)


# ---------------------------------------------------------------- verify

def verify(bundle: ProtectedBundle) -> list[str]:
    """Structural soundness of a bundle.  Empty list means every
    transformed function passes the engine's load check (`_load`), its
    constants and load/store regions stay inside its image, its calls
    pass as many arguments as their callees take, and the checking
    relation is acyclic and matches the guard records.  A function the
    load check refuses reports the refusal as its one record-level
    problem."""
    table = bundle.functions
    problems: list[str] = []
    names = [f.name for f in table]
    if len(set(names)) != len(names):
        problems.append("duplicate function names in table")
    if bundle.entry_index is not None:
        if not 0 <= bundle.entry_index < len(table):
            problems.append("entry index outside function table")
        elif isinstance(table[bundle.entry_index], ExternFunction):
            problems.append("entry points at an intrinsic")

    index_of = {id(fn): i for i, fn in enumerate(table)}
    guard_pairs: set[tuple[int, int]] = set()
    for i, fn in enumerate(table):
        if isinstance(fn, ExternFunction) and fn.name not in EXTERN_SIGS:
            problems.append(f"unknown intrinsic @{fn.name}")
        if not isinstance(fn, VirtFunction):
            continue
        for opcode, spec in sorted(fn.risa.spec_of.items()):
            if spec.layout is None:
                problems.append(f"@{fn.name}: opcode {opcode:#06x} "
                                f"({spec.kind}) has types that do not fit "
                                "its kind")
        try:
            records, flat, first, *_ = _load(bundle, fn, {})
        except TamperSignal as signal:
            problems.append(signal.detail)
            # its guard records go unread, so its edges are not matched
            # against them
            guard_pairs.update(e for e in bundle.edges if e[0] == i)
            continue
        # the rules no engine refuses at load
        size = len(fn.image)
        for (start, spec, _), at in zip(records, first):
            here = f"@{fn.name}: record at {start} ({spec.kind})"
            if spec.kind == "guard":
                guard_pairs.add((i, index_of[id(flat[at])]))
            elif spec.kind == "call":
                arity = arity_of(flat[at + 1])
                if arity is not None and arity != len(spec.operand_types):
                    problems.append(
                        f"{here}: passes {len(spec.operand_types)} "
                        f"arguments, @{flat[at + 1].name} takes {arity}")
            elif spec.kind in ("const", "load", "store"):
                base = 0
                for (role, tag), v in zip(spec.layout, fn.vpa[
                        start + 1:start + spec.record_len]):
                    if role == BASE:
                        base = v
                    elif role == COUNT and (v == 0 or
                                            base + v * tag.width > size):
                        problems.append(f"{here}: region leaves the image")
                    elif spec.kind == "const" and v + tag.width > size:
                        problems.append(f"{here}: cell {v} leaves the image")

    for checker, checkee in bundle.edges:
        if not (isinstance(table[checker], VirtFunction)
                and isinstance(table[checkee], VirtFunction)):
            problems.append("edge endpoints must be transformed functions")
        elif (checker, checkee) not in guard_pairs:
            problems.append(f"edge @{table[checker].name} -> "
                            f"@{table[checkee].name} has no matching record")
    for checker, checkee in guard_pairs - set(bundle.edges):
        problems.append(f"guard record @{table[checker].name} -> "
                        f"@{table[checkee].name} not declared as an edge")
    if not verify_acyclic(bundle.edge_names()):
        problems.append("checking relation contains a cycle")
    return problems
