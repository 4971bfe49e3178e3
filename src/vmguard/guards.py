"""Self-checking machinery: stream checksums, guard placement, baked
expected values, and the coverage report.

A guard record carries four elements: its opcode, the table index of the
function it checks, and the offsets of two 16-bit cells in the checker's
memory image.  The first cell holds the expected checksum, baked in after
every stream is final; the second receives the freshly computed value on
each execution, so the comparison operates on data a debugger can watch
being produced.

The checksum is a 16-bit XOR fold of the checkee's encoded stream.  Any
single-element change flips at least one bit of the fold and is always
caught; compensating changes that preserve the fold (applying one mask to
two elements) slip through by construction, which the tamper strategies
exploit deliberately.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache

from .lift import LiftRecord
from .risa import CELL, CHECKEE, GUARD_SPEC, RESULT, walk_records


class GuardError(Exception):
    pass


# below this many elements a plain loop folds faster than big integers
# (about 24 on CPython 3.11, measured over array("H") streams)
_LOOP_FOLD_MAX = 24


@lru_cache(maxsize=None)
def _fold_schedule(length_bits: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) per halving step that folds up to 2**length_bits
    16-bit words into one: the shifts run from half that many words'
    bits down to 16.  Built on first use of each bit length."""
    return tuple((16 << k, (1 << (16 << k)) - 1)
                 for k in reversed(range(length_bits)))


def compute_vpa_hash(vpa) -> int:
    """XOR fold of 16-bit elements.  Large streams fold via one big-integer
    halving cascade, which is far cheaper than an element loop for the
    hot guard path; its steps depend only on the stream's length."""
    n = len(vpa)
    if n < _LOOP_FOLD_MAX:
        h = 0
        for e in vpa:
            h ^= e
        return h & 0xFFFF
    elems = vpa if isinstance(vpa, array) and vpa.typecode == "H" else \
        array("H", [e & 0xFFFF for e in vpa])
    if sys.byteorder == "big":
        if elems is vpa:
            elems = array("H", vpa)     # never swap the caller's stream
        elems.byteswap()
    x = int.from_bytes(elems.tobytes(), "little")
    for shift, mask in _fold_schedule((n - 1).bit_length()):
        x = (x >> shift) ^ (x & mask)
    return x


def guard_insertion_indices(records: list[LiftRecord]) -> list[int]:
    """Record indices a guard may be inserted before.  Index 0 is the
    function's entry record and stays first; anything else is legal, and
    inserting before an existing record can never land after a
    terminator."""
    return list(range(1, len(records)))


def inject_guards(fn_name: str, records: list[LiftRecord],
                  checkee_names: list[str], risa, lay, rng,
                  table_index: dict[str, int]) -> list[dict]:
    """Insert one guard record per checkee at a random legal point.
    Returns placement notes (checkee, record index before insertion,
    cell offsets) for reporting and tests."""
    points = guard_insertion_indices(records)
    if not points:
        raise GuardError(f"@{fn_name} has no legal guard position")
    placements = []
    for order, checkee in enumerate(checkee_names):
        point = rng.choice(points)
        opc = risa.opcode_for(GUARD_SPEC, rng)
        exp_off, run_off = lay.add_guard_pair()
        placements.append({"checkee": checkee, "point": point,
                           "order": order, "opcode": opc,
                           "expected_cell": exp_off,
                           "observed_cell": run_off})
    # insert from the back so earlier chosen indices stay valid; reverse
    # edge order within one index so guards appear in assignment order
    for p in sorted(placements, key=lambda d: (-d["point"], -d["order"])):
        operand = {CHECKEE: table_index[p["checkee"]],
                   CELL: p["expected_cell"], RESULT: p["observed_cell"]}
        rec = LiftRecord(records[p["point"]].block, GUARD_SPEC,
                         [p["opcode"]] + [operand[role] for role, _
                                          in GUARD_SPEC.layout])
        records.insert(p["point"], rec)
    return placements


def finalize_expected_hashes(bundle) -> int:
    """Bake every guard's expected checksum into its checker's image.
    Expected values live in the image, not the hashed stream, so one pass
    settles the whole network regardless of edge order.  Returns the
    number of cells written; calling it again is a no-op."""
    written = 0
    functions = bundle.functions
    for vfn in functions:
        if not hasattr(vfn, "vpa"):
            continue
        for start, spec in walk_records(vfn.risa, vfn.vpa):
            if spec.kind != "guard":
                continue
            operand = {role: vfn.vpa[start + 1 + i]
                       for i, (role, _) in enumerate(spec.layout)}
            h = compute_vpa_hash(functions[operand[CHECKEE]].vpa)
            exp_off = operand[CELL]
            vfn.image[exp_off:exp_off + 2] = h.to_bytes(2, "little")
            written += 1
    return written


# ---- coverage reporting ----------------------------------------------------

def coverage_report(module, virtualized: set[str], edges) -> dict:
    """Static protection summary over one module: per-function instruction
    counts, who is transformed, who is additionally checked, and the two
    aggregate percentages the experiments track."""
    checked_count: dict[str, int] = {}
    for e in edges:
        checked_count[e.checkee] = checked_count.get(e.checkee, 0) + 1

    rows = []
    total = virt_instr = guarded_instr = 0
    for fn in module.functions:
        n = sum(len(b.instructions) for b in fn.blocks)
        is_virt = fn.name in virtualized
        checkers = checked_count.get(fn.name, 0)
        rows.append({"function": fn.name, "instructions": n,
                     "virtualized": is_virt, "checkers": checkers})
        total += n
        if is_virt:
            virt_instr += n
            if checkers:
                guarded_instr += n

    summary = {
        "total_instructions": total,
        "virtualized_instructions": virt_instr,
        "guarded_instructions": guarded_instr,
        "virtualized_pct": 100.0 * virt_instr / total if total else 0.0,
        "guarded_pct": 100.0 * guarded_instr / total if total else 0.0,
    }
    return {"rows": rows, "summary": summary}


def format_coverage(report: dict) -> str:
    rows = report["rows"]
    s = report["summary"]
    name_w = max([len(r["function"]) for r in rows] + [8])
    lines = [f"{'function':<{name_w}}  instrs  virtualized  checkers"]
    for r in rows:
        lines.append(f"{r['function']:<{name_w}}  {r['instructions']:>6}  "
                     f"{str(r['virtualized']).lower():<11}  "
                     f"{r['checkers']:>8}")
    lines.append(f"total instructions: {s['total_instructions']}")
    lines.append(f"virtualized: {s['virtualized_pct']:.1f}%")
    lines.append(f"virtualized and checked: {s['guarded_pct']:.1f}%")
    return "\n".join(lines)
