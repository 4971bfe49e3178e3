"""Per-run execution state shared by the reference interpreter and the
bytecode engines: input cursor, output stream, the intrinsics, step
budget, call depth, guard counts; and the tamper signal, with which an
engine ends a run on evidence of a corrupted bundle.

Keeping one context type means differential tests compare runs that drew
from identical budgets and intrinsic behaviour.
"""

from __future__ import annotations

from .arith import STEP_LIMIT_REASON, TrapError, to_signed  # noqa: F401

DEFAULT_STEP_LIMIT = 100_000_000
MAX_CALL_DEPTH = 200

INPUT_EXHAUSTED_REASON = "input exhausted"
CALL_DEPTH_REASON = "call depth exceeded"
LOAD_BOUNDS_REASON = "load index out of bounds"
STORE_BOUNDS_REASON = "store index out of bounds"

MASK64 = (1 << 64) - 1


class TamperSignal(Exception):
    """Evidence of a corrupted bundle observed on the execution path.
    `at_decode` is set when the optimized engine refused the damage while
    decoding a function, before running it."""

    def __init__(self, kind: str, detail: str) -> None:
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail
        self.at_decode = False


class ExecContext:
    __slots__ = ("inputs", "cursor", "output", "steps", "step_limit",
                 "call_depth", "guard_cells", "decoded", "trace_blocks")

    def __init__(self, inputs=(),
                 step_limit: int = DEFAULT_STEP_LIMIT) -> None:
        self.inputs = [v & MASK64 for v in inputs]
        self.cursor = 0
        self.output: list[int] = []
        self.steps = 0
        self.step_limit = step_limit
        self.call_depth = 0
        # both engines' guard counts: a one-int counter cell per (checker,
        # checkee) edge, which each guard bumps as it runs
        self.guard_cells: dict[tuple[str, str], list[int]] = {}
        # each executor's per-run compile of a function, by (executor,
        # id(function)) or, the optimized engine's, by id(function) alone,
        # and the plain functions' call hook
        self.decoded: dict = {}
        # optional set collecting (function, block) pairs as they run
        self.trace_blocks: set | None = None

    def read_input(self) -> int:
        if self.cursor >= len(self.inputs):
            raise TrapError(INPUT_EXHAUSTED_REASON)
        v = self.inputs[self.cursor]
        self.cursor += 1
        return v

    def print_value(self, value: int) -> None:
        self.output.append(to_signed(value, 64))

    def intrinsic(self, name: str, args) -> int | None:
        """Call intrinsic `name`: `read_i64` returns the next input, and
        any other, `print_i64`, prints its argument."""
        if name == "read_i64":
            return self.read_input()
        self.print_value(args[0])
        return None

    def guard_counts(self) -> tuple[int, dict[tuple[str, str], int]]:
        """The run's guard executions, in all and by edge, leaving out
        edges whose guards never ran."""
        edges = {edge: n for edge, (n,) in self.guard_cells.items() if n}
        return sum(edges.values()), edges

    def enter_call(self) -> None:
        self.call_depth += 1
        if self.call_depth > MAX_CALL_DEPTH:
            raise TrapError(CALL_DEPTH_REASON)

    def leave_call(self) -> None:
        self.call_depth -= 1
