"""Per-layer tracing from outside the program.

The tracer replaces a layer's public functions, under the module attribute
their callers look them up by, with wrappers that record a span per call
plus work counts.  Spans nest on one stack (the benchmark is a single
thread), so a layer's self time is its span time minus the time of the
spans it caused.  Step counts are attributed the same way: a dispatch
loop's span reads `ctx.steps` on entry and exit, and its self steps are
what its child spans did not count.  Nothing here changes what the
wrapped functions compute; `run.py` checks that traced and untraced runs
return identical results.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import vmguard.ir  # noqa: F401  (must precede the engines; see README)
from vmguard import bundle, protect, runtime, threaded
from vmguard.ir import interp, parser


def _length_of_first_arg(args, result):
    return len(args[0])


def _length_of_result(args, result):
    return len(result)


def _lifted_elements(args, result):
    return sum(len(rec.elements) for rec in result)


# (module, attribute, layer, position of the ExecContext argument or None,
#  work-size function (args, result) -> int or None)
SPAN_POINTS = (
    (parser, "parse_module", "parser", None, _length_of_first_arg),
    (bundle, "parse_function", "parser", None, _length_of_first_arg),
    (protect, "virtualize_module", "protect", None, None),
    (protect, "validate_module", "validate", None, None),
    (protect, "eliminate_phis", "phi", None, None),
    (protect, "build_layout", "layout", None, None),
    (protect, "lift_function", "lift", None, _lifted_elements),
    (protect, "inject_guards", "guards.inject", None, None),
    (protect, "finalize_expected_hashes", "guards.finalize", None, None),
    (protect, "build_checker_network", "network", None, None),
    (bundle, "serialize", "bundle.serialize", None, _length_of_result),
    (bundle, "deserialize", "bundle.deserialize", None, None),
    (bundle, "copy_bundle", "bundle.copy", None, None),
    (bundle, "tamper_bundle", "bundle.tamper", None, None),
    (runtime, "run_virt", "runtime", 3, None),
    (threaded, "run_threaded", "threaded", 3, None),
    (threaded, "pre_decode", "threaded.pre_decode", None, _length_of_result),
    (runtime, "compute_vpa_hash", "guards.hash", None, _length_of_first_arg),
    (threaded, "compute_vpa_hash", "guards.hash", None, _length_of_first_arg),
    (runtime, "evaluate_function", "interp", 3, None),
    (interp, "evaluate_function", "interp", 3, None),
)

# Counted without a span, so the bridge's own cost stays in the caller's
# dispatch self time.
COUNT_POINTS = (
    (runtime, "call_function", "call_bridge"),
    (threaded, "call_function", "call_bridge"),
)

DISPATCH_LAYERS = ("runtime", "threaded", "interp")


class Tracer:
    """Accumulates span time, self time, calls, work sizes and self steps
    per layer while installed."""

    def __init__(self) -> None:
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        self.self_steps: Counter = Counter()
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    def steps_counted(self) -> int:
        return sum(self.self_steps[k] for k in DISPATCH_LAYERS)

    def _span(self, fn, layer: str, ctx_pos, size):
        stack = self._stack
        clock = time.perf_counter
        total_s, self_s = self.total_s, self.self_s
        calls, work, self_steps = self.calls, self.work, self.self_steps

        def wrapper(*args, **kwargs):
            ctx = args[ctx_pos] if ctx_pos is not None else None
            steps0 = ctx.steps if ctx is not None else 0
            frame = [0.0, 0]            # child span time, child steps
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                steps = ctx.steps - steps0 if ctx is not None else 0
                if stack:
                    stack[-1][0] += dt
                    stack[-1][1] += steps
                total_s[layer] += dt
                self_s[layer] += dt - frame[0]
                calls[layer] += 1
                self_steps[layer] += steps - frame[1]
                if size is not None and result is not None:
                    work[layer] += size(args, result)

        return wrapper

    def _count(self, fn, layer: str):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, layer, ctx_pos, size in SPAN_POINTS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._span(fn, layer, ctx_pos, size))
        for module, attr, layer in COUNT_POINTS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._count(fn, layer))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def layer_metrics(self, per: float) -> dict[str, tuple[float, str]]:
        """Per-layer figures divided by `per` (the number of traced
        cycles), as name -> (value, unit)."""
        t, s, c, w, st = (self.total_s, self.self_s, self.calls, self.work,
                          self.self_steps)
        raw = {
            "parser.parse_s": (t["parser"], "s"),
            "parser.calls": (c["parser"], "count"),
            "parser.bytes": (w["parser"], "bytes"),
            "validate.self_s": (s["validate"], "s"),
            "phi.self_s": (s["phi"], "s"),
            "protect.self_s": (s["protect"], "s"),
            "layout.build_s": (t["layout"], "s"),
            "lift.self_s": (s["lift"], "s"),
            "lift.vpa_elems": (w["lift"], "count"),
            "guards.inject_s": (t["guards.inject"], "s"),
            "guards.finalize_s": (t["guards.finalize"], "s"),
            "network.build_s": (t["network"], "s"),
            "bundle.serialize_s": (t["bundle.serialize"], "s"),
            "bundle.deserialize_s": (t["bundle.deserialize"], "s"),
            "bundle.tamper_s": (t["bundle.tamper"], "s"),
            "bundle.bytes": (w["bundle.serialize"], "bytes"),
            "threaded.pre_decode_s": (t["threaded.pre_decode"], "s"),
            "threaded.records_decoded": (w["threaded.pre_decode"], "count"),
            "threaded.dispatch_self_s": (s["threaded"], "s"),
            "threaded.activations": (c["threaded"], "count"),
            "threaded.steps": (st["threaded"], "count"),
            "runtime.dispatch_self_s": (s["runtime"], "s"),
            "runtime.activations": (c["runtime"], "count"),
            "runtime.steps": (st["runtime"], "count"),
            "runtime.call_bridge_calls": (c["call_bridge"], "count"),
            "guards.hash_s": (t["guards.hash"], "s"),
            "guards.hash_calls": (c["guards.hash"], "count"),
            "guards.hash_elems": (w["guards.hash"], "count"),
            "interp.self_s": (s["interp"], "s"),
            "interp.calls": (c["interp"], "count"),
            "interp.steps": (st["interp"], "count"),
        }
        return {name: (value / per, unit)
                for name, (value, unit) in raw.items()}
