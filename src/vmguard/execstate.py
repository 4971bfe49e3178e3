"""Per-run execution state shared by the reference interpreter and the
bytecode engines: input cursor, output stream, step budget, call depth.

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


class ExecContext:
    __slots__ = ("inputs", "cursor", "output", "steps", "step_limit",
                 "call_depth", "guard_execs", "guard_edges", "decoded",
                 "trace_blocks")

    def __init__(self, inputs=(),
                 step_limit: int = DEFAULT_STEP_LIMIT) -> None:
        self.inputs = [v & MASK64 for v in inputs]
        self.cursor = 0
        self.output: list[int] = []
        self.steps = 0
        self.step_limit = step_limit
        self.call_depth = 0
        self.guard_execs = 0
        self.guard_edges: dict[tuple[str, str], int] = {}
        # each executor's per-run compile of a function, by (executor,
        # id(function)), and the plain functions' call hook
        self.decoded: dict[tuple[str, int], object] = {}
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

    def enter_call(self) -> None:
        self.call_depth += 1
        if self.call_depth > MAX_CALL_DEPTH:
            raise TrapError(CALL_DEPTH_REASON)

    def leave_call(self) -> None:
        self.call_depth -= 1
