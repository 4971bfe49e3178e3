"""Tamper-detection experiment: corrupt a protected bundle, run it, and
classify what happened.

Each trial copies the bundle, applies one mutation strategy, executes the
copy on fixed inputs, and compares against the honest run.  Outcomes are
classified along two axes: whether the mutated function is covered by at
least one checker, and how the run ended.  Every trial falls in exactly
one outcome class, so the class counts always sum to the trial count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bundle import FlipRandomElement, ProtectedBundle, tamper_bundle
from .execstate import DEFAULT_STEP_LIMIT
from .network import in_degrees
from .rng import SplitMix64
from .runtime import execute_secure

DETECTED = "detected"          # run aborted on a tamper signal
TRAPPED = "trapped"            # run trapped (bad arithmetic, budget, bounds)
CHANGED = "changed_output"     # ran to completion with a different outcome
SILENT = "silent"              # ran to completion, outcome identical

OUTCOMES = (DETECTED, TRAPPED, CHANGED, SILENT)

# Finer split of the undetected cases, by why the hashes stayed quiet.
ROOT_MISS = "undetected_unchecked_root"
UNRUN_MISS = "undetected_guard_not_executed"
COLLISION_MISS = "undetected_checksum_collision"

REFINED = (DETECTED, TRAPPED, ROOT_MISS, UNRUN_MISS, COLLISION_MISS)


@dataclass
class TamperTrial:
    """One mutation and its observed consequence."""

    function: str              # function whose stream was changed
    changes: list              # element-level change manifest
    outcome: str               # one of OUTCOMES
    covered: bool              # some checker guards the mutated function
    signal_kind: str | None    # tamper signal kind when detected
    trap_reason: str | None
    guards_over_target: int    # times any guard hashed the mutated function


@dataclass
class DetectionSummary:
    program: str
    trials: int
    honest_guard_execs: int
    edges: list
    rows: list = field(default_factory=list)

    def count(self, outcome: str, covered: bool | None = None) -> int:
        return sum(1 for r in self.rows
                   if r.outcome == outcome
                   and (covered is None or r.covered == covered))

    @property
    def covered_trials(self) -> int:
        return sum(1 for r in self.rows if r.covered)

    @property
    def covered_missed(self) -> int:
        """Covered-function mutations that neither signalled nor trapped."""
        return sum(1 for r in self.rows
                   if r.covered and r.outcome in (CHANGED, SILENT))

    @property
    def root_trials(self) -> int:
        return self.trials - self.covered_trials

    def table(self) -> str:
        lines = [f"{self.program}: {self.trials} trials, "
                 f"{self.covered_trials} in covered functions, "
                 f"{self.root_trials} in unchecked roots"]
        for covered, label in ((True, "covered"), (False, "root")):
            total = self.covered_trials if covered else self.root_trials
            if total == 0:
                continue
            parts = [f"{o}={self.count(o, covered)}" for o in OUTCOMES]
            lines.append(f"  {label:8s} " + "  ".join(parts))
        return "\n".join(lines)


def classify_run(result, honest) -> str:
    if result.status == "tamper":
        return DETECTED
    if result.status == "trap":
        return TRAPPED
    return SILENT if result.same_outcome(honest) else CHANGED


def refined_outcome(row: TamperTrial) -> str:
    """Five-way verdict for one trial.  Undetected runs split into: the
    target was an unchecked root; a guard covers it but never ran on these
    inputs; or a guard did run and the altered stream still hashed to the
    expected value (checksum collision)."""
    if row.outcome == DETECTED:
        return DETECTED
    if row.outcome == TRAPPED:
        return TRAPPED
    if not row.covered:
        return ROOT_MISS
    if row.guards_over_target == 0:
        return UNRUN_MISS
    return COLLISION_MISS


def refined_counts(summary: DetectionSummary) -> dict[str, int]:
    """Exhaustive tally over REFINED; values always sum to the trial
    count."""
    counts = {k: 0 for k in REFINED}
    for row in summary.rows:
        counts[refined_outcome(row)] += 1
    return counts


def run_detection(bundle: ProtectedBundle, inputs, trials: int, seed: int,
                  strategy_factory=FlipRandomElement,
                  step_limit: int | None = None,
                  program: str = "?", executor=execute_secure,
                  ) -> DetectionSummary:
    """Run `trials` independent single-mutation experiments against copies
    of `bundle`.  `strategy_factory()` builds a fresh mutation strategy per
    trial; the default is a uniformly random single-element bit flip.
    `step_limit` bounds the honest run and every trial; by default the
    honest run gets `DEFAULT_STEP_LIMIT` and each trial twenty times the
    honest run's steps, at least 10,000."""
    if trials < 0:
        raise ValueError(f"trial count {trials} is negative")
    honest = executor(bundle, inputs, step_limit=DEFAULT_STEP_LIMIT
                      if step_limit is None else step_limit)
    if honest.status != "normal":
        raise ValueError(f"honest run must succeed, got {honest.status}")
    if step_limit is None:
        # generous multiple of the honest cost so runaway loops still end
        step_limit = max(honest.steps * 20, 10_000)

    edges = bundle.edge_names()
    degree = in_degrees([f.name for f in bundle.functions], edges)
    rng = SplitMix64(seed)
    summary = DetectionSummary(program=program, trials=trials,
                               honest_guard_execs=honest.guard_execs,
                               edges=edges)
    for _ in range(trials):
        mutated, changes = tamper_bundle(bundle, strategy_factory(), rng)
        result = executor(mutated, inputs, step_limit=step_limit)
        target = changes[0]["function"]
        over_target = sum(n for (_, checkee), n in result.guard_edges.items()
                          if checkee == target)
        summary.rows.append(TamperTrial(
            function=target,
            changes=changes,
            outcome=classify_run(result, honest),
            covered=degree.get(target, 0) >= 1,
            signal_kind=(result.tamper_cause.kind
                         if result.status == "tamper" else None),
            trap_reason=result.trap_reason,
            guards_over_target=over_target))
    return summary
