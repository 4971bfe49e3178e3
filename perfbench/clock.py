"""Host-speed-normalised timing.

The benchmark's host gives it a share of a machine whose speed moves in
steps that last from seconds to whole runs: the same work takes up to
twice as long in a slow step.  Every timing is therefore converted to
nominal seconds, the time the work would take on a host where each
calibration kernel below runs in the time `KERNELS` gives it.  The kernels
are pure Python that shares no code with vmguard, so no change to the
program moves them.  They run between timed operations whenever the last
run is `PERIOD_S` old, and an operation's wall time is scaled by the
host speed measured just before and just after it.

There are three kernels of different shape, and a mark's speed is their
median.  In one run the fixed-data kernel alone ran 40% slower than usual
for the whole run while vmguard ran at its usual speed; the median of
three lets the other two outvote such a quirk of one kernel.
"""

from __future__ import annotations

import bisect
import statistics
import time

PERIOD_S = 0.02      # longest time between kernel runs at op boundaries

_MASK = 0xFFFFFFFF
# a fixed register-machine program: (opcode, a, b), as an interpreter runs
_CODE = [((i * 7) % 3, (i * 5) % 16, (i * 11 + 3) % 16) for i in range(64)]


def _run_tuples(code, reps: int) -> int:
    regs = list(range(16))
    acc = 0
    for _ in range(reps):
        for op, a, b in code:
            if op == 0:
                regs[a] = (regs[a] + regs[b]) & _MASK
            elif op == 1:
                regs[a] = regs[b] ^ (a << 3)
            else:
                acc = (acc + regs[a]) & _MASK
    return acc


def fixed_kernel() -> int:
    """Tuple dispatch over one program built at import."""
    return _run_tuples(_CODE, 32)


def fresh_kernel() -> int:
    """The same dispatch over a program built afresh on every call, so its
    objects land at new addresses each time."""
    code = [((i * 7) % 3, (i * 5) % 16, (i * 11 + 3) % 16)
            for i in range(64)]
    return _run_tuples(code, 32)


class _Frame:
    __slots__ = ("regs", "acc")

    def __init__(self) -> None:
        self.regs = [0] * 16
        self.acc = 0


def _add(f, a, b):
    f.regs[a] = (f.regs[a] + f.regs[b]) & _MASK


def _xor(f, a, b):
    f.regs[a] = f.regs[b] ^ (a << 3)


def _acc(f, a, b):
    f.acc = (f.acc + f.regs[a]) & _MASK


def _mov(f, a, b):
    f.regs[a] = b


_HANDLERS = {"add": _add, "xor": _xor, "acc": _acc, "mov": _mov}


def handler_kernel() -> int:
    """Dict-encoded instructions run through handler calls on a frame
    object: attribute access, calls and string-keyed lookups."""
    names = list(_HANDLERS)
    code = [{"op": names[(i * 7) % 4], "a": (i * 5) % 16,
             "b": (i * 11 + 3) % 16} for i in range(128)]
    handlers = _HANDLERS
    acc = 0
    for _ in range(6):
        f = _Frame()
        for ins in code:
            handlers[ins["op"]](f, ins["a"], ins["b"])
        acc ^= f.acc
    return acc


# each kernel and its time at nominal speed, which defines one nominal
# second: about its median on the host the benchmark was tuned on
KERNELS = ((fixed_kernel, 0.000330), (fresh_kernel, 0.000348),
           (handler_kernel, 0.000303))


class SpeedClock:
    """A timeline of kernel runs ("marks") and the conversion of
    wall-clock spans into nominal seconds against it."""

    def __init__(self, period: float = PERIOD_S) -> None:
        self.period = period
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.speeds: list[float] = []    # nominal seconds per wall second

    def mark(self) -> None:
        """Run every kernel once; record when, and the median speed."""
        t0 = time.perf_counter()
        speeds = []
        for kernel, nominal in KERNELS:
            k0 = time.perf_counter()
            kernel()
            speeds.append(nominal / (time.perf_counter() - k0))
        self.starts.append(t0)
        self.ends.append(time.perf_counter())
        self.speeds.append(statistics.median(speeds))

    def poll(self) -> None:
        """Mark if the last mark is a period old or more.  Called before
        every timed operation, so each one has a mark just before it."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= self.period:
            self.mark()

    def _speed(self, before: int, after: int) -> float:
        """Mean speed of two marks; either may be missing (-1 or past the
        end) at the ends of the timeline."""
        return statistics.fmean(self.speeds[i] for i in (before, after)
                                if 0 <= i < len(self.speeds))

    def seconds(self, t0: float, t1: float) -> float:
        """Nominal seconds of the wall span [t0, t1].  Marks inside the
        span are left out; each stretch between marks is scaled by the
        mean speed of the marks on either side of it.  Needs a mark after
        t1 (`mark()` once when the timed work is over)."""
        k = bisect.bisect_right(self.starts, t0)   # first mark after t0
        total = 0.0
        cur = t0
        while k < len(self.starts) and self.starts[k] < t1:
            total += (self.starts[k] - cur) * self._speed(k - 1, k)
            cur = self.ends[k]
            k += 1
        if k == len(self.starts):
            raise RuntimeError("no calibration mark after the span")
        return total + (t1 - cur) * self._speed(k - 1, k)
