"""vmguard benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/` next to this directory, never from an installed copy.  With
`--trace 0` the run measures the end-to-end metrics untraced.  With
`--trace 1` it runs every round twice, untraced and traced in alternating
order, reports the per-layer metrics per cycle of draws, checks the
wrappers' counts against the runs' own counters, and requires identical
results from both executions.  End-to-end timings are in nominal seconds,
wall time scaled to a fixed host speed (see clock.py).  The last line
of standard output is one JSON object; the lines before it are the
human-readable report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# name -> unit of every end-to-end metric, in report order
END_TO_END = {
    "setup_s": "s",
    "plain_s": "s",
    "secure_s": "s",
    "optimized_s": "s",
    "secure_vo_s": "s",
    "optimized_vo_s": "s",
    "protect_s": "s",
    "secure_trials_per_s": "1/s",
    "optimized_trials_per_s": "1/s",
    "detected_pct": "%",
    "bundle_bytes": "bytes",
    "peak_rss_mib": "MiB",
}


def prepare_imports() -> None:
    """Put the checkout's `src/` first on the path.  Refuses to run
    without it rather than measure some other installed copy."""
    if not os.path.isfile(os.path.join(SRC, "vmguard", "__init__.py")):
        raise SystemExit(f"perfbench: no vmguard sources under {SRC}")
    sys.path.insert(0, SRC)
    import vmguard
    if not os.path.abspath(vmguard.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported vmguard from "
                         f"{vmguard.__file__}, not from {SRC}")


def source_digest() -> str:
    """SHA-256 over the package's files, which names the code measured
    also where the checkout is not a git repository."""
    digest = hashlib.sha256()
    package = pathlib.Path(SRC, "vmguard")
    for path in sorted(p for p in package.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(package)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> str:
    commit = ""
    # only a checkout's own .git; never search the directories above it
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return (f"python {platform.python_version()} "
            f"({platform.python_implementation()}), nproc "
            f"{os.cpu_count()}, commit {commit or 'unknown (no git)'}, "
            f"sources sha256 {source_digest()}")


def tail_percentile(values: list[float]) -> str:
    """The highest of p99/p95/p90/p75/p50 of a list of seconds with at
    least ten samples beyond it, by nearest rank."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return f"p{p} {ordered[math.ceil(p / 100 * n) - 1]:.6g} s"
    return "no percentile has 10 samples beyond it"


def run_untraced(session, seconds: float) -> None:
    start = time.perf_counter()
    r = 0
    while r < session.w.draws or time.perf_counter() - start < seconds:
        session.round(r)
        r += 1
    session.finish()


def run_traced(session, seconds: float):
    """Whole cycles of draws; each round untraced and traced, order
    alternating.  Returns (cycles, untraced seconds, traced seconds), the
    times in nominal seconds."""
    from tracing import Tracer
    tracer = Tracer()
    start = time.perf_counter()
    cycles = 0
    spans = []   # (traced, t0, t1) of every round
    while cycles == 0 or time.perf_counter() - start < seconds:
        for d in range(session.w.draws):
            r = cycles * session.w.draws + d
            prints = {}
            for traced in ((False, True) if r % 2 == 0 else (True, False)):
                t0 = time.perf_counter()
                if traced:
                    session.tracer = tracer
                    with tracer:
                        prints[traced] = session.round(r)
                    session.tracer = None
                else:
                    prints[traced] = session.round(r)
                spans.append((traced, t0, time.perf_counter()))
            if prints[False] != prints[True]:
                session.check_failures.append(
                    f"round {r}: traced results differ from untraced ones")
        cycles += 1
    session.finish()
    spent = {False: 0.0, True: 0.0}
    for traced, t0, t1 in spans:
        spent[traced] += session.clock.seconds(t0, t1)
    return tracer, cycles, spent[False], spent[True]


def end_to_end_metrics(session) -> dict:
    from workload import ROUND_METRICS
    values = {
        "setup_s": statistics.median(session.setup_times),
        **{name: session.value(name) for name in ROUND_METRICS},
        "secure_trials_per_s": session.trials_per_s("secure"),
        "optimized_trials_per_s": session.trials_per_s("optimized"),
        "detected_pct": session.detected_pct(),
        "bundle_bytes": session.bundle_bytes(),
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def per_layer_metrics(session, tracer, cycles: int, untraced_s: float,
                      traced_s: float) -> dict:
    metrics = tracer.layer_metrics(cycles)
    for outcome, n in session.outcome_totals().items():
        metrics[f"detect.{outcome}"] = (n, "count")
    metrics["trace.overhead_pct"] = (
        100.0 * (traced_s - untraced_s) / untraced_s, "%")
    return metrics


def report_lines(session, metrics: dict) -> list[str]:
    w = session.w
    speeds = session.clock.speeds
    q1, q2, q3 = statistics.quantiles(speeds, n=4)
    lines = [f"environment: {environment()}",
             f"host speed: median {q2:.4f} nominal seconds per wall second,"
             f" quartiles {q1:.4f}-{q3:.4f}, over {len(speeds)} "
             "calibration marks; every timing below is in nominal seconds",
             f"workload {w.name}: {w.why}",
             f"  programs {', '.join(w.programs)}; tier {w.tier}; coverage "
             f"{w.coverage}%; connectivity {w.connectivity}; draws {w.draws}"
             f"; trials {w.trials} per program, engine and round; seed "
             f"{session.seed}"]
    for name, (value, unit) in metrics.items():
        engine = name.removesuffix("_trials_per_s")
        if name in session.samples:
            rounds = session.samples[name]
            extra = (f"  (n={len(rounds)} rounds, median round "
                     f"{statistics.median(rounds):.6g} s, "
                     f"{tail_percentile(rounds)})")
        elif session.trial_times.get(engine):
            trials = session.trial_times[engine]
            extra = (f"  (n={len(trials)} trials, median trial "
                     f"{statistics.median(trials):.6g} s, "
                     f"{tail_percentile(trials)})")
        else:
            extra = ""
        lines.append(f"{name:<26}{value:>14.6g} {unit}{extra}")

    med = session.program_value
    lines.append("per program, trimmed mean seconds (ungated):")
    for prog in w.programs:
        lines.append(f"  {prog:<10} " + " ".join(
            f"{m}={med(m, prog):.4f}" for m in (
                "plain_s", "secure_s", "optimized_s", "secure_vo_s",
                "optimized_vo_s", "protect_s")))
    lines.append("derived (ungated):")
    if "loop_sum" in w.programs:
        c6 = med("optimized_s", "loop_sum") / med("secure_s", "loop_sum")
        lines.append(f"  C6 optimized/secure on loop_sum vo+sc: {c6:.3f} "
                     "(acceptance bound 0.75)")
    for prog in w.programs:
        inc = ", ".join(
            f"{e} {med(e + '_s', prog) / med(e + '_vo_s', prog) - 1:+.1%}"
            for e in ("secure", "optimized"))
        lines.append(f"  C7 guard increment (vo+sc - vo)/vo on {prog}: {inc}"
                     " (acceptance bound 100%)")
    lines.append("pooled trial rates, all trials over their total time "
                 "(ungated): " + ", ".join(
                     f"{e} {session.pooled_trials_per_s(e):.4g} 1/s"
                     for e in ("secure", "optimized")
                     if session.trial_times[e]))
    counts = session.outcome_totals()
    lines.append("tamper outcomes per cycle: "
                 + ", ".join(f"{k}={v}" for k, v in counts.items()))
    lines.append(f"operations: {session.attempted} attempted, "
                 f"{session.failed} failed")
    for message in session.failures:
        lines.append(f"  failed: {message}")
    for message in session.check_failures:
        lines.append(f"  check failed: {message}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    prepare_imports()
    from workload import SETUPS, WORKLOADS, Session
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 + ", ".join(WORKLOADS))
    session = Session(WORKLOADS[args.workload], args.seed)
    for _ in range(SETUPS):
        session.setup()

    if args.trace:
        tracer, cycles, untraced_s, traced_s = run_traced(session,
                                                          args.seconds)
        metrics = per_layer_metrics(session, tracer, cycles, untraced_s,
                                    traced_s)
        print(f"traced {cycles} cycles: untraced {untraced_s:.3f} s, traced "
              f"{traced_s:.3f} s, tracing overhead "
              f"{traced_s - untraced_s:.3f} s")
    else:
        run_untraced(session, args.seconds)
        metrics = end_to_end_metrics(session)

    for line in report_lines(session, metrics):
        print(line)
    print(json.dumps({
        "correct": session.failed == 0 and not session.check_failures,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
