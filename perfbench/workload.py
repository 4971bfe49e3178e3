"""Workloads and the closed loop that drives vmguard through them.

One client, one process, one thread: each operation starts only after the
previous one returned.  A round runs, for one protection draw, every
program of the workload through the plain reference and both engines in
both arms, and rebuilds its bundles; then it runs tamper trials, each on
a fresh draw of its own.  Rounds rotate through the draws; a cycle visits
each draw once.

Every honest run is checked against the manifest's hand-written `expect`,
never against the reference interpreter, which shares `arith` and
`ir.interp` with the engines.  An exception that escapes an operation, or
a wrong result, counts as one failed operation and the round goes on.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import vmguard.ir  # noqa: F401  (must precede the engines; see README)
from vmguard import bench, bundle, detect, protect, runtime, threaded
from vmguard.ir import interp, parser
from vmguard.ir.core import ExecutionResult
from vmguard.network import in_degrees
from vmguard.rng import SplitMix64

from clock import SpeedClock

ARMS = ("vo+sc", "vo")
ENGINES = ("secure", "optimized")
TRIAL_TIER = "tiny"   # tamper trials run short inputs so misses end fast
SETUPS = 3            # set-ups per run; setup_s is their median
TRIM = 0.1            # share cut from each end before a timing is averaged

# (metric, engine, arm); engine None is the plain reference interpreter
RUN_CELLS = (
    ("plain_s", None, None),
    ("secure_s", "secure", "vo+sc"),
    ("optimized_s", "optimized", "vo+sc"),
    ("secure_vo_s", "secure", "vo"),
    ("optimized_vo_s", "optimized", "vo"),
)
# metrics whose value is a round: the sum of per-program times
ROUND_METRICS = tuple(m for m, _, _ in RUN_CELLS) + ("protect_s",)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    programs: tuple[str, ...]
    tier: str             # manifest input tier of the timed runs
    coverage: int         # percent of functions virtualized
    connectivity: int     # guards per checkee
    draws: int            # protection seeds per program
    trials: int           # tamper trials per program, engine and round


WORKLOADS = {w.name: w for w in (
    Workload(
        "loop-dispatch",
        "long loops in few activations: the dispatch loops and ir.interp "
        "do almost all the work; decode and deserialize are a few percent",
        ("loop_sum", "sieve"), "check", 100, 2,
        draws=16, trials=12),
    Workload(
        "call-guard",
        "thousands of short activations and dense guards: per-activation "
        "setup, the call bridge and stream hashing carry the weight",
        ("fib", "qsort", "crc32", "strsearch"), "check", 100, 3,
        draws=16, trials=4),
    Workload(
        "tamper-campaign",
        "protect under fresh seeds and flip-random trials at 50% coverage: "
        "loader, decoder, protect pipeline and plain functions in bundles",
        ("fib", "loop_sum", "qsort", "crc32", "sieve", "strsearch"),
        "tiny", 50, 2, draws=16, trials=5),
)}


def trimmed_mean(values, cut: float = TRIM) -> float:
    """Mean of the values left after cutting `cut` of them from each end."""
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return statistics.fmean(ordered[k:len(ordered) - k])


def derive_seed(*parts) -> int:
    """A 64-bit seed from the workload seed and a path of labels."""
    text = "/".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "little")


def same_as_expected(result, expect) -> bool:
    return (result.status == "normal" and result.value == expect["value"]
            and result.output == expect["output"])


def fingerprint(result) -> tuple:
    """Everything an ExecutionResult says, in comparable form."""
    cause = result.tamper_cause
    return (result.status, result.value, tuple(result.output),
            result.trap_reason, None if cause is None else str(cause),
            result.steps, result.guard_execs,
            tuple(sorted(result.guard_edges.items())))


def executor(engine: str):
    return (runtime.execute_secure if engine == "secure"
            else threaded.execute_optimized)


@dataclass
class Program:
    name: str
    text: str
    module: object                # parsed module, phis intact
    flat: object                  # phi-free module for the reference
    inputs: list
    expect: dict
    trial_inputs: list
    trial_expect: dict
    trial_step_limit: int


@dataclass
class Draw:
    """One protection draw of one program."""
    seed: int
    blobs: dict                   # arm -> serialized bundle


class Session:
    """State of one benchmark run: the built inputs, the samples, the
    failure count and the facts that must repeat for a given seed."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.w = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.check_failures: list[str] = []
        self.tracer = None
        self.clock = SpeedClock()
        # wall-clock spans of the untraced timed operations, turned into
        # nominal seconds by finish(): (metric, program, round, t0, t1)
        self.spans: list[tuple] = []
        # (engine, t0, t1) of every untraced tamper trial
        self.trial_spans: list[tuple] = []
        self.setup_spans: list[tuple[float, float]] = []
        # filled by finish(), all in nominal seconds
        self.samples: dict = defaultdict(list)   # metric -> round totals
        # (metric, program) -> per-operation times
        self.program_samples: dict = defaultdict(list)
        self.trial_times: dict = defaultdict(list)   # engine -> seconds
        # round -> refined tamper outcomes, for the first cycle of rounds
        self.outcomes: dict[int, Counter] = {}
        self.facts: dict = {}
        self.setup_times: list[float] = []
        self.programs: list[Program] = []
        self.draws: dict = {}         # (draw, program) -> Draw

    # ---- set-up ----------------------------------------------------------

    def config(self, draw_seed: int, arm: str) -> protect.ProtectionConfig:
        return protect.ProtectionConfig(
            seed=draw_seed, level=self.w.coverage,
            guards_per_checkee=self.w.connectivity,
            enable_guards=(arm == "vo+sc"))

    def setup(self) -> None:
        """Parse, protect and serialize every draw, and check the reference
        and draw 0 in both arms under both engines against the manifest on
        the trial inputs.  That check is the untimed warm-up: it runs every
        engine once and absorbs the one-time recursion-limit raise in
        `execute_with_engine`.  The rounds check every other draw."""
        self.clock.mark()
        t0 = time.perf_counter()
        by_name = {p["name"]: p for p in bench.load_manifest()["programs"]}
        programs = []
        draws = {}
        for name in self.w.programs:
            entry = by_name[name]
            text = bench.load_program_text(entry["file"])
            module = parser.parse_module(text)
            flat = vmguard.ir.eliminate_phis(module)
            trial_inputs = entry["inputs"][TRIAL_TIER]
            trial_expect = entry["expect"][TRIAL_TIER]
            reference = interp.reference_interpret(flat, "main", trial_inputs)
            self._setup_check(reference, trial_expect, f"{name} reference")
            # run_detection's budget: twenty honest runs, at least 10,000
            prog = Program(name, text, module, flat,
                           entry["inputs"][self.w.tier],
                           entry["expect"][self.w.tier], trial_inputs,
                           trial_expect, max(reference.steps * 20, 10_000))
            programs.append(prog)
            for d in range(self.w.draws):
                self.clock.poll()
                draw_seed = derive_seed(self.seed, self.w.name, d, name)
                blobs = {}
                for arm in ARMS:
                    built = protect.virtualize_module(
                        module, self.config(draw_seed, arm))
                    blobs[arm] = bundle.serialize(built)
                    self.facts[("sha256", d, name, arm)] = \
                        hashlib.sha256(blobs[arm]).hexdigest()
                    for engine in ENGINES if d == 0 else ():
                        self._setup_check(
                            executor(engine)(bundle.deserialize(blobs[arm]),
                                             trial_inputs),
                            trial_expect, f"{name} draw 0 {arm} {engine}")
                draws[(d, name)] = Draw(draw_seed, blobs)
        self.programs, self.draws = programs, draws
        self.setup_spans.append((t0, time.perf_counter()))

    def _setup_check(self, result, expect, what: str) -> None:
        if not same_as_expected(result, expect):
            raise RuntimeError(f"set-up check failed: {what} gave "
                               f"{result.status} {result.value} "
                               f"{result.output}, manifest says {expect}")

    def bundle_bytes(self) -> int:
        return sum(len(blob) for draw in self.draws.values()
                   for blob in draw.blobs.values())

    # ---- timed operations ------------------------------------------------

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def _op(self, what: str, thunk):
        """Run one operation; returns ((t0, t1), value or None), the wall
        span it took and its value.  An escaping exception is a failed
        operation, not a crash."""
        self.attempted += 1
        self.clock.poll()
        t0 = time.perf_counter()
        try:
            value = thunk()
        except Exception as err:   # counted and reported; the round goes on
            self._fail(f"{what}: {type(err).__name__}: {err}")
            return (t0, time.perf_counter()), None
        return (t0, time.perf_counter()), value

    def _cross_check(self, what: str, before, result) -> None:
        """With the tracer on, the dispatch layers' self steps and the hash
        calls seen by the wrappers must match the run's own counters."""
        if self.tracer is None or result is None:
            return
        steps0, hashes0 = before
        steps = self.tracer.steps_counted() - steps0
        hashes = self.tracer.calls["guards.hash"] - hashes0
        if steps != result.steps or hashes != result.guard_execs:
            self.check_failures.append(
                f"{what}: traced {steps} steps / {hashes} hashes, run "
                f"counted {result.steps} / {result.guard_execs}")

    def _fact(self, key, value) -> None:
        """Record a count that must repeat on every visit of a draw."""
        first = self.facts.setdefault(key, value)
        if first != value:
            self.check_failures.append(
                f"{key}: {value} differs from the first visit's {first}")

    def _counters(self):
        if self.tracer is None:
            return None
        return self.tracer.steps_counted(), self.tracer.calls["guards.hash"]

    def round(self, r: int) -> list:
        """One round on draw r mod draws.  Returns the fingerprints of every
        result, in order, so two executions of a round can be compared."""
        d = r % self.w.draws
        flip = r % 2 == 1
        progs = self.programs[::-1] if flip else self.programs
        prints = []
        timed = self.tracer is None   # traced rounds give no timings

        cells = RUN_CELLS[::-1] if flip else RUN_CELLS
        for prog in progs:
            draw = self.draws[(d, prog.name)]
            for metric, engine, arm in cells:
                what = f"{prog.name} draw {d} {metric}"
                before = self._counters()
                if engine is None:
                    def thunk():
                        return interp.reference_interpret(
                            prog.flat, "main", prog.inputs)
                else:
                    def thunk(run=executor(engine), blob=draw.blobs[arm]):
                        return run(bundle.deserialize(blob), prog.inputs)
                span, res = self._op(what, thunk)
                if res is not None and not same_as_expected(res,
                                                            prog.expect):
                    self._fail(f"{what}: got {res.status} {res.value} "
                               f"{res.output}, manifest says {prog.expect}")
                self._cross_check(what, before, res)
                if res is not None:
                    self._fact(("run", d, prog.name, metric),
                               (res.steps, res.guard_execs))
                    prints.append(fingerprint(res))
                if timed:
                    self.spans.append((metric, prog.name, r, *span))

        for prog in progs:
            draw = self.draws[(d, prog.name)]
            what = f"{prog.name} draw {d} protect"

            def build():
                module = parser.parse_module(prog.text)
                return {arm: bundle.serialize(protect.virtualize_module(
                    module, self.config(draw.seed, arm))) for arm in ARMS}

            span, blobs = self._op(what, build)
            if timed:
                self.spans.append(("protect_s", prog.name, r, *span))
            if blobs is not None and blobs != draw.blobs:
                self._fail(f"{what}: rebuilt bundle differs from the set-up "
                           "build")

        # Each trial gets a fresh protection draw of its own, built here
        # untimed: detection time depends on where the draw put the guards,
        # so one placement per trial keeps the rate from hinging on a few.
        targets = []
        for i in range(self.w.trials):
            t = r * self.w.trials + i
            for prog in progs:
                _, target = self._op(f"{prog.name} trial draw {t} protect",
                                     lambda: self._trial_target(t, prog))
                if target is not None:
                    targets.append((t, prog, *target))
        counts: Counter = Counter()
        for engine in (ENGINES[::-1] if flip else ENGINES):
            for target in targets:
                span = self._trial(engine, *target, counts, prints)
                if timed and span is not None:
                    self.trial_spans.append((engine, *span))
        if r < self.w.draws:
            previous = self.outcomes.setdefault(r, counts)
            if previous != counts:
                self.check_failures.append(
                    f"round {r}: tamper outcomes changed between executions "
                    f"({dict(previous)} then {dict(counts)})")
        return prints

    def _trial_target(self, t: int, prog: Program):
        """Trial draw t of one program: its vo+sc bundle and the number of
        checkers of each function."""
        built = protect.virtualize_module(prog.module, self.config(
            derive_seed(self.seed, self.w.name, "trial", t, prog.name),
            "vo+sc"))
        return built, in_degrees([f.name for f in built.functions],
                                 built.edge_names())

    def _trial(self, engine: str, t: int, prog: Program, source,
               in_degree: dict, counts: Counter, prints: list):
        """One flip-random trial: tamper_bundle, execute, classify.
        Returns its wall span, or None if it failed."""
        rng = SplitMix64(derive_seed(self.seed, self.w.name, "trial", t,
                                     prog.name, engine))
        run = executor(engine)
        honest = ExecutionResult("normal", value=prog.trial_expect["value"],
                                 output=list(prog.trial_expect["output"]))
        what = f"{prog.name} trial draw {t} {engine}"
        before = self._counters()

        def trial():
            mutated, changes = bundle.tamper_bundle(
                source, bundle.FlipRandomElement(), rng)
            result = run(mutated, prog.trial_inputs,
                         step_limit=prog.trial_step_limit)
            return changes, result, detect.classify_run(result, honest)

        span, value = self._op(what, trial)
        if value is None:
            return None
        changes, result, outcome = value
        self._cross_check(what, before, result)
        target = changes[0]["function"]
        row = detect.TamperTrial(
            function=target, changes=changes, outcome=outcome,
            covered=in_degree.get(target, 0) >= 1,
            signal_kind=(result.tamper_cause.kind
                         if result.status == "tamper" else None),
            trap_reason=result.trap_reason,
            guards_over_target=sum(
                n for (_, checkee), n in result.guard_edges.items()
                if checkee == target))
        counts[detect.refined_outcome(row)] += 1
        prints.append(fingerprint(result))
        return span

    # ---- results ---------------------------------------------------------

    def finish(self) -> None:
        """Close the timeline with a last mark and turn every recorded span
        into nominal seconds (see clock.py)."""
        self.clock.mark()
        seconds = self.clock.seconds
        self.setup_times = [seconds(*s) for s in self.setup_spans]
        self.samples = defaultdict(list)
        self.program_samples = defaultdict(list)
        self.trial_times = defaultdict(list)
        per_round: dict = defaultdict(Counter)
        for metric, prog, r, t0, t1 in self.spans:
            dt = seconds(t0, t1)
            self.program_samples[(metric, prog)].append(dt)
            per_round[r][metric] += dt
        for engine, t0, t1 in self.trial_spans:
            self.trial_times[engine].append(seconds(t0, t1))
        for r in sorted(per_round):
            totals = per_round[r]
            for metric in ROUND_METRICS:
                if metric in totals:
                    self.samples[metric].append(totals[metric])

    def program_value(self, metric: str, prog: str) -> float:
        """One program's operation time: the trimmed mean over every
        operation of the run.  The trim drops the few that a burst of
        host noise stretched; the mean, unlike a median, moves smoothly
        with the share of draws that virtualize or guard a hot function."""
        return trimmed_mean(self.program_samples[(metric, prog)])

    def value(self, metric: str) -> float:
        """A round's time: the sum over the workload's programs."""
        return sum(self.program_value(metric, p.name) for p in self.programs)

    def trials_per_s(self, engine: str) -> float:
        """One over the median trial's time.  Trial times are bimodal: a
        flip in `crc32`'s table is caught at once or only after the table
        is built, 30x later, and which one happens depends on the draw.
        A run holds a few hundred trials, so the pooled rate moves with
        how many late catches a seed drew; the median trial does not."""
        return 1.0 / statistics.median(self.trial_times[engine])

    def pooled_trials_per_s(self, engine: str) -> float:
        """Every trial of the run over the time they all took."""
        times = self.trial_times[engine]
        return len(times) / sum(times)

    def detected_pct(self) -> float:
        total = sum(sum(c.values()) for c in self.outcomes.values())
        hit = sum(c[detect.DETECTED] for c in self.outcomes.values())
        return 100.0 * hit / total

    def outcome_totals(self) -> Counter:
        out: Counter = Counter({k: 0 for k in detect.REFINED})
        for c in self.outcomes.values():
            out.update(c)
        return out
