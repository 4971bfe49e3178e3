"""Wall-clock measurement harness.

Each cell draws `seeds` independent protection networks and runs `reps`
timed executions per network, after one untimed execution that pays the
first-call costs.  That execution is gated on correctness: it must match
the reference interpreter's outcome exactly, otherwise the cell is
recorded as failed and skipped.  Timing wraps only the execution call;
parsing and protection happen outside the clock.  The timed reps of the
plain reference and of a program's arms and modes are interleaved, one
run per network in turn, so that slow stretches of a shared host fall on
every cell, the reference too, rather than on whichever ran then.  Rows
report the median, so one noisy rep cannot skew a row, and the mean over
the draws, the minimum and the interquartile range beside it.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
import time
from dataclasses import dataclass, field
from functools import partial
from importlib import resources

from .guards import coverage_report
from .ir import parse_module
from .ir.interp import reference_interpret
from .ir.phi import eliminate_phis
from .protect import ProtectionConfig, virtualize_module
from .runtime import execute_secure
from .threaded import execute_optimized

MODES = ("secure", "optimized")
ARMS = ("vo", "vo+sc")   # virtualization only, or with checksum guards
TIERS = ("tiny", "check", "bench")


class BenchError(Exception):
    pass


def corpus_root():
    return resources.files("vmguard") / "corpus"


def load_manifest() -> dict:
    return json.loads((corpus_root() / "manifest.json").read_text())


def load_program_text(filename: str) -> str:
    return (corpus_root() / filename).read_text()


@dataclass
class BenchmarkConfig:
    programs: tuple[str, ...] = ()       # empty = every program listed
    levels: tuple[int, ...] = (100,)
    modes: tuple[str, ...] = MODES
    arms: tuple[str, ...] = ARMS
    reps: int = 10                       # executions per protection draw
    seeds: int = 5                       # protection draws per cell
    tier: str = "bench"
    seed: int = 1                        # base seed; draw i uses seed + i
    guards_per_checkee: int = 2
    step_limit: int | None = None


@dataclass
class BenchmarkRow:
    program: str
    level: int
    arm: str
    mode: str
    median_seconds: float
    mean_seconds: float          # shows a slow draw the median can hide
    min_seconds: float
    iqr_seconds: float           # interquartile range of the timed runs
    reference_seconds: float
    steps: float                 # median over the protection draws
    guard_execs: float

    @property
    def overhead_pct(self) -> float:
        """Slowdown relative to the plain-IR reference interpreter."""
        return (self.median_seconds / self.reference_seconds - 1.0) * 100.0


@dataclass
class CellFailure:
    program: str
    level: int
    arm: str
    mode: str
    message: str


@dataclass
class BenchmarkReport:
    config: BenchmarkConfig
    rows: list[BenchmarkRow] = field(default_factory=list)
    failures: list[CellFailure] = field(default_factory=list)

    def row(self, program: str, arm: str, mode: str,
            level: int | None = None) -> BenchmarkRow:
        if level is None:
            if len(self.config.levels) != 1:
                raise KeyError("plan has several levels; pass level=")
            level = self.config.levels[0]
        for r in self.rows:
            if (r.program, r.level, r.arm, r.mode) == (program, level,
                                                       arm, mode):
                return r
        raise KeyError((program, level, arm, mode))

    def to_csv(self) -> str:
        out = io.StringIO()
        w = csv.writer(out)
        w.writerow(["program", "level", "arm", "mode", "median_seconds",
                    "mean_seconds", "min_seconds", "iqr_seconds",
                    "reference_seconds", "overhead_pct", "steps",
                    "guard_execs"])
        for r in self.rows:
            w.writerow([r.program, r.level, r.arm, r.mode,
                        f"{r.median_seconds:.6f}", f"{r.mean_seconds:.6f}",
                        f"{r.min_seconds:.6f}", f"{r.iqr_seconds:.6f}",
                        f"{r.reference_seconds:.6f}",
                        f"{r.overhead_pct:.2f}", r.steps, r.guard_execs])
        return out.getvalue()

    def format_table(self) -> str:
        header = (f"{'program':<11}{'level':>6}{'arm':>7}  {'mode':<11}"
                  f"{'median s':>10}{'mean s':>10}{'min s':>10}"
                  f"{'IQR s':>10}{'ref s':>10}{'overhead':>10}"
                  f"{'steps':>11}{'guards':>9}")
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.program:<11}{r.level:>6}{r.arm:>7}  {r.mode:<11}"
                f"{r.median_seconds:>10.4f}{r.mean_seconds:>10.4f}"
                f"{r.min_seconds:>10.4f}"
                f"{r.iqr_seconds:>10.4f}{r.reference_seconds:>10.4f}"
                f"{r.overhead_pct:>9.1f}%{r.steps:>11}{r.guard_execs:>9}")
        for f in self.failures:
            where = "/".join(p for p in (f.arm, f.mode) if p)
            lines.append(f"failed: {f.program} level {f.level} {where}: "
                         f"{f.message}")
        return "\n".join(lines)


def _iqr(times: list[float]) -> float:
    if len(times) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return q3 - q1


def _validate_plan(cfg: BenchmarkConfig) -> None:
    for mode in cfg.modes:
        if mode not in MODES:
            raise BenchError(f"unknown mode {mode!r}")
    for arm in cfg.arms:
        if arm not in ARMS:
            raise BenchError(f"unknown protection arm {arm!r}")
    for level in cfg.levels:
        if not 1 <= level <= 100:
            raise BenchError(f"protection level {level} outside [1, 100]")
    if cfg.tier not in TIERS:
        raise BenchError(f"unknown input tier {cfg.tier!r}")
    if cfg.reps < 1 or cfg.seeds < 1:
        raise BenchError("reps and seeds must be at least 1")
    if cfg.guards_per_checkee < 0:
        raise BenchError(f"connectivity {cfg.guards_per_checkee} is negative")


def _time_level(report: BenchmarkReport, cfg: BenchmarkConfig, name: str,
                level: int, module, inputs, ref, reference,
                limit: dict) -> None:
    """Rows of one program at one level.  Every arm's draws are built
    first, and each draw of each (arm, mode) cell runs once, untimed,
    where its outcome is checked against `ref`, the outcome of the plain
    `reference` run.  The timed reps then rotate through that reference
    and the draws of the cells that passed, one run each, in reverse
    order on odd reps, so a drift in host speed falls on every cell and
    on the reference alike."""
    cells = []
    for arm in cfg.arms:
        bundles = [virtualize_module(module, ProtectionConfig(
            seed=cfg.seed + i, level=level,
            guards_per_checkee=cfg.guards_per_checkee,
            enable_guards=(arm == "vo+sc")))
            for i in range(cfg.seeds)]
        for mode in cfg.modes:
            executor = (execute_secure if mode == "secure"
                        else execute_optimized)
            runs = [partial(executor, b, inputs, **limit) for b in bundles]
            results = [run() for run in runs]
            bad = next((r for r in results if not r.same_outcome(ref)), None)
            if bad is not None:
                report.failures.append(CellFailure(
                    name, level, arm, mode, "protected run diverged from "
                    f"reference ({bad.status} vs {ref.status})"))
                continue
            cells.append((arm, mode, results, runs, []))

    ref_times: list[float] = []
    order = [(reference, ref_times)] + [
        (run, times) for _, _, _, runs, times in cells for run in runs]
    for rep in range(cfg.reps):
        for run, times in (reversed(order) if rep % 2 else order):
            t0 = time.perf_counter()
            run()
            times.append(time.perf_counter() - t0)

    t_ref = statistics.median(ref_times)
    for arm, mode, results, _, times in cells:
        report.rows.append(BenchmarkRow(
            program=name, level=level, arm=arm, mode=mode,
            median_seconds=statistics.median(times),
            mean_seconds=statistics.fmean(times), min_seconds=min(times),
            iqr_seconds=_iqr(times), reference_seconds=t_ref,
            steps=statistics.median(r.steps for r in results),
            guard_execs=statistics.median(r.guard_execs for r in results)))


def run_benchmarks(cfg: BenchmarkConfig) -> BenchmarkReport:
    manifest = load_manifest()
    by_name = {p["name"]: p for p in manifest["programs"]}
    names = cfg.programs or tuple(p["name"] for p in manifest["programs"])
    _validate_plan(cfg)
    limit = {} if cfg.step_limit is None else \
        {"step_limit": cfg.step_limit}

    report = BenchmarkReport(config=cfg)
    for name in names:
        prog = by_name.get(name)
        if prog is None:
            raise BenchError(f"no corpus program named {name!r}")
        module = parse_module(load_program_text(prog["file"]))
        flat = eliminate_phis(module)
        inputs = prog["inputs"][cfg.tier]
        reference = partial(reference_interpret, flat, "main", inputs,
                            **limit)
        ref = reference()           # untimed: the rows' outcome check
        if ref.status != "normal":
            report.failures.append(CellFailure(
                name, 0, "", "", f"reference run ended in {ref.status}"))
            continue
        expect = prog["expect"][cfg.tier]
        if ref.value != expect["value"] or ref.output != expect["output"]:
            report.failures.append(CellFailure(
                name, 0, "", "", "reference disagrees with manifest"))
            continue

        for level in cfg.levels:
            _time_level(report, cfg, name, level, module, inputs, ref,
                        reference, limit)
    return report


# ---- static coverage across the corpus -------------------------------------

def coverage_table(level: int = 100, guards_per_checkee: int = 2,
                   seed: int = 1, programs: tuple[str, ...] = ()) -> list:
    """Per-program coverage at one protection setting: instruction record
    count, function count, how many records live in checked functions,
    and that as a percentage."""
    manifest = load_manifest()
    selected = programs or tuple(p["name"] for p in manifest["programs"])
    by_name = {p["name"]: p for p in manifest["programs"]}
    rows = []
    for name in selected:
        prog = by_name.get(name)
        if prog is None:
            raise BenchError(f"no corpus program named {name!r}")
        module = parse_module(load_program_text(prog["file"]))
        bundle = virtualize_module(module, ProtectionConfig(
            seed=seed, level=level,
            guards_per_checkee=guards_per_checkee))
        virtualized = {f.name for f in bundle.virt_functions()}
        summary = coverage_report(module, virtualized,
                                  bundle.edge_names())["summary"]
        rows.append({
            "name": name,
            "records": summary["total_instructions"],
            "functions": len(module.functions),
            "protected": summary["guarded_instructions"],
            "protected_pct": round(summary["guarded_pct"], 1),
        })
    return rows


def format_coverage_table(rows) -> str:
    header = (f"{'name':<12}{'records':>9}{'functions':>11}"
              f"{'protected':>11}{'protected %':>13}")
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(f"{r['name']:<12}{r['records']:>9}"
                     f"{r['functions']:>11}{r['protected']:>11}"
                     f"{r['protected_pct']:>12.1f}%")
    return "\n".join(lines)
