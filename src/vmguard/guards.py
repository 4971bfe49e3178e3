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
exploit deliberately.  A fold is memoized under the exact bytes every guard
reads afresh, so a hit is the fold of the stream as it is, never stale.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache

from .risa import CELL, CHECKEE, GUARD_SPEC, RESULT, walk_records


class GuardError(Exception):
    pass


FOLD_MEMO_SIZE = 1024     # distinct streams, far more than a bundle has


@lru_cache(maxsize=None)
def _fold_schedule(length_bits: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) per halving step folding 2**length_bits words."""
    return tuple((16 << k, (1 << (16 << k)) - 1)
                 for k in reversed(range(length_bits)))


@lru_cache(maxsize=FOLD_MEMO_SIZE)
def _fold(data: bytes, byteorder: str = sys.byteorder) -> int:
    """XOR fold of an array("H") image in `byteorder`.  Read as one int in
    that order every word stays whole, and XOR ignores word order."""
    x = int.from_bytes(data, byteorder)
    for shift, mask in _fold_schedule((len(data) // 2 - 1).bit_length()):
        x = (x >> shift) ^ (x & mask)
    return x


def compute_vpa_hash(vpa) -> int:
    """XOR fold of 16-bit elements.  Reads the whole live stream on every
    call; a changed element is a new memo key, so it always folds afresh."""
    elems = vpa if isinstance(vpa, array) and vpa.typecode == "H" else \
        array("H", [e & 0xFFFF for e in vpa])
    return _fold(elems.tobytes())


def inject_guards(fn_name: str, n_records: int, checkee_names: list[str],
                  risa, lay, rng,
                  table_index: dict[str, int]) -> dict[int, list[list[int]]]:
    """One guard per checkee, before a random record of a function of
    `n_records` records, any but record 0, which stays the entry.  Per
    checkee it draws the point, then the guard opcode on first use, then
    the cell pair.  Returns each guard's elements keyed by the index of the
    record it goes before, guards at one record in checkee order."""
    if n_records < 2:
        raise GuardError(f"@{fn_name} has no legal guard position")
    guards: dict[int, list[list[int]]] = {}
    for checkee in checkee_names:
        point = 1 + rng.randrange(n_records - 1)
        opc = risa.opcode_for(GUARD_SPEC, rng)
        exp_off, run_off = lay.add_guard_pair()
        operand = {CHECKEE: table_index[checkee], CELL: exp_off,
                   RESULT: run_off}
        guards.setdefault(point, []).append(
            [opc] + [operand[role] for role, _ in GUARD_SPEC.layout])
    return guards


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
