"""Command-line front end.

Subcommands cover the full workflow: `protect` turns IR source into a
sealed bundle, `run` executes a bundle, `tamper` produces corrupted
copies for experiments, `coverage` reports how much of a module the
protection touches, and `bench` measures overhead.

Exit codes from `run` mirror the execution outcome so scripts can branch
on them: 0 for a normal finish, 42 for a program-level trap, 134 for a
detected-integrity abort.  Other subcommands exit 0 on success and 1 on
operational failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bench import (ARMS, BenchError, BenchmarkConfig, MODES, TIERS,
                    coverage_table, format_coverage_table, run_benchmarks)
from .bundle import (BundleError, FlipElement, FlipRandomElement,
                     PreserveChecksumPair, STRATEGY_NAMES, SwapOpcodes,
                     TamperError, ZeroRange, deserialize, serialize,
                     tamper_bundle)
from .detect import REFINED, refined_counts, run_detection
from .guards import coverage_report, format_coverage
from .ir import ParseError, parse_module
from .protect import ProtectError, ProtectionConfig, virtualize_module
from .rng import MASK64, SplitMix64, fresh_seed
from .runtime import execute_secure
from .threaded import execute_optimized, verify

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_TRAP = 42
EXIT_TAMPER = 134

SEED_ENV = "VMGUARD_SEED"


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_FAILURE


def parse_seed(text: str) -> int:
    """A seed as `--seed` or `$VMGUARD_SEED` gives it: an integer literal
    (decimal, or with a 0x, 0o or 0b prefix) in [0, 2**64)."""
    try:
        seed = int(text, 0)
    except ValueError:
        seed = -1
    if not 0 <= seed <= MASK64:
        raise argparse.ArgumentTypeError(
            f"seed {text!r} is not an integer in [0, 2**64)")
    return seed


def _protection_config(args) -> ProtectionConfig:
    sensitive = None
    if args.sensitive is not None:
        sensitive = tuple(n.strip() for n in args.sensitive.split(",")
                          if n.strip())
    return ProtectionConfig(
        seed=args.seed,
        level=args.coverage_pct if args.coverage_pct is not None else 100,
        guards_per_checkee=args.connectivity,
        enable_guards=not args.no_guards,
        optimized_hint=getattr(args, "mode", "secure") == "optimized",
        sensitive=sensitive)


def _add_protection_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=parse_seed, default=None,
                   help=f"protection seed (default: ${SEED_ENV} or fresh "
                        "OS entropy)")
    sel = p.add_mutually_exclusive_group()
    sel.add_argument("--coverage-pct", type=int, default=None,
                     help="percentage of functions to protect "
                          "(1-100, default 100)")
    sel.add_argument("--sensitive", default=None,
                     help="comma-separated function names to protect "
                          "instead of a percentage")
    p.add_argument("--connectivity", type=int, default=2,
                   help="checkers per protected function")
    p.add_argument("--no-guards", action="store_true",
                   help="virtualize only, skip integrity guards")


def cmd_protect(args) -> int:
    try:
        text = open(args.source, "r", encoding="utf-8").read()
    except OSError as err:
        return _fail(str(err))
    cfg = _protection_config(args)
    try:
        module = parse_module(text)
        bundle = virtualize_module(module, cfg)
    except (ParseError, ProtectError) as err:
        return _fail(str(err))
    if not args.debug_seed:
        # release bundles do not embed the creation seed; the line printed
        # below is the only record of it
        bundle.seed = None
    blob = serialize(bundle)
    try:
        with open(args.output, "wb") as fh:
            fh.write(blob)
    except OSError as err:
        return _fail(str(err))
    print(f"seed: {cfg.seed}")
    print(f"wrote {args.output}: {len(blob)} bytes, "
          f"{len(bundle.virt_functions())} protected functions, "
          f"{len(bundle.edges)} guard edges")
    return EXIT_OK


def _load_bundle(path: str):
    with open(path, "rb") as fh:
        return deserialize(fh.read())


def cmd_run(args) -> int:
    try:
        bundle = _load_bundle(args.bundle)
    except (OSError, BundleError) as err:
        return _fail(str(err))
    if args.verify:
        problems = verify(bundle)
        if problems:
            for p in problems:
                print(f"verify: {p}", file=sys.stderr)
            return _fail("bundle failed verification")
    mode = args.mode
    if mode == "auto":
        mode = "optimized" if bundle.optimized_hint else "secure"
    executor = execute_optimized if mode == "optimized" else execute_secure
    inputs = list(args.inputs) + list(args.input or [])
    try:
        result = executor(bundle, inputs, step_limit=args.step_limit)
    except ValueError as err:
        return _fail(str(err))
    for value in result.output:
        print(value)
    if result.status == "trap":
        print(f"trap: {result.trap_reason}", file=sys.stderr)
        return EXIT_TRAP
    if result.status == "tamper":
        cause = result.tamper_cause
        if args.explain_tamper:
            print(f"tamper detected: {cause.kind}: {cause.detail}",
                  file=sys.stderr)
        else:
            print(f"tamper detected: {cause.kind}", file=sys.stderr)
        return EXIT_TAMPER
    if result.value is not None:
        print(f"ret={result.value}")
    return EXIT_OK


def _build_strategy(args):
    name = args.strategy
    if name == "flip":
        if args.function is None or args.element is None:
            raise TamperError("flip needs --function and --element")
        return FlipElement(args.function, args.element, args.mask)
    if name == "zero-range":
        return ZeroRange(args.function, args.start, args.length)
    if name == "preserve-pair":
        return PreserveChecksumPair(args.function, args.mask)
    if name == "swap-opcodes":
        return SwapOpcodes(args.function)
    return FlipRandomElement(args.function)


def _trial_report(args, bundle) -> int:
    inputs = list(args.input or [])
    executor = (execute_optimized if args.mode == "optimized"
                else execute_secure)
    try:
        summary = run_detection(
            bundle, inputs, trials=args.trials,
            seed=args.seed,
            strategy_factory=lambda: _build_strategy(args),
            program=os.path.basename(args.bundle), executor=executor)
    except (TamperError, ValueError) as err:
        return _fail(str(err))
    print(summary.table())
    counts = refined_counts(summary)
    for kind in REFINED:
        print(f"{kind.replace('_', ' ')}: {counts[kind]}")
    print(f"total: {sum(counts.values())} of {summary.trials} trials")
    return EXIT_OK


def cmd_tamper(args) -> int:
    try:
        bundle = _load_bundle(args.bundle)
    except (OSError, BundleError) as err:
        return _fail(str(err))
    if args.trials is not None:
        return _trial_report(args, bundle)
    if args.output is None:
        return _fail("need -o/--output (or --trials N for a detection "
                     "report)")
    rng = SplitMix64(args.seed)
    try:
        strategy = _build_strategy(args)
        mutated, changes = tamper_bundle(bundle, strategy, rng)
    except TamperError as err:
        return _fail(str(err))
    try:
        with open(args.output, "wb") as fh:
            fh.write(serialize(mutated))
    except OSError as err:
        return _fail(str(err))
    for change in changes:
        print(json.dumps(change))
    return EXIT_OK


def cmd_coverage(args) -> int:
    try:
        text = open(args.source, "r", encoding="utf-8").read()
    except OSError as err:
        return _fail(str(err))
    cfg = _protection_config(args)
    try:
        module = parse_module(text)
        bundle = virtualize_module(module, cfg)
    except (ParseError, ProtectError) as err:
        return _fail(str(err))
    virtualized = {f.name for f in bundle.virt_functions()}
    report = coverage_report(module, virtualized, bundle.edge_names())
    print(f"seed: {cfg.seed}")
    print(format_coverage(report))
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = BenchmarkConfig(
        programs=tuple(args.programs.split(",")) if args.programs else (),
        levels=args.levels,
        modes=tuple(args.modes.split(",")),
        arms=tuple(args.arms.split(",")),
        reps=args.reps, seeds=args.seeds, tier=args.tier,
        seed=args.seed,
        guards_per_checkee=args.connectivity)
    try:
        report = run_benchmarks(cfg)
    except BenchError as err:
        return _fail(str(err))
    print(report.format_table())
    if not args.no_coverage:
        for level in cfg.levels:
            print(f"\ncoverage at level {level}, connectivity "
                  f"{cfg.guards_per_checkee}, seed {cfg.seed}:")
            print(format_coverage_table(coverage_table(
                level=level, guards_per_checkee=cfg.guards_per_checkee,
                seed=cfg.seed, programs=cfg.programs)))
    if args.csv:
        try:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(report.to_csv())
        except OSError as err:
            return _fail(str(err))
        print(f"csv written to {args.csv}")
    return EXIT_OK


def int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vmguard",
        description="Bytecode virtualization with self-checking integrity "
                    "guards")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("protect", help="compile IR source into a protected "
                                       "bundle")
    p.add_argument("source", help="IR source file (.vir)")
    p.add_argument("-o", "--output", required=True,
                   help="bundle file to write (.vsc)")
    _add_protection_options(p)
    p.add_argument("--mode", choices=("secure", "optimized"),
                   default="secure",
                   help="default engine hint stored in the bundle")
    p.add_argument("--debug-seed", action="store_true",
                   help="embed the creation seed in the bundle (omitted "
                        "by default)")
    p.set_defaults(fn=cmd_protect)

    p = sub.add_parser("run", help="execute a protected bundle")
    p.add_argument("bundle", help="bundle file (.vsc)")
    p.add_argument("inputs", nargs="*", type=lambda s: int(s, 0),
                   help="integers consumed by entry parameters and "
                        "read_i64")
    p.add_argument("--input", action="append", type=lambda s: int(s, 0),
                   help="additional input value (repeatable)")
    p.add_argument("--mode", choices=("auto", "secure", "optimized"),
                   default="auto")
    p.add_argument("--step-limit", type=int, default=100_000_000)
    p.add_argument("--explain-tamper", action="store_true",
                   help="print the full detail of a tamper signal")
    p.add_argument("--verify", action="store_true",
                   help="check bundle structure before running; detection "
                        "normally happens during execution")
    p.set_defaults(fn=cmd_run, run_parser=p)

    p = sub.add_parser("tamper", help="write a corrupted copy of a bundle, "
                                      "or run repeated-tamper detection "
                                      "trials")
    p.add_argument("bundle")
    p.add_argument("-o", "--output", default=None,
                   help="corrupted bundle to write (single-tamper mode)")
    p.add_argument("--strategy", choices=sorted(STRATEGY_NAMES),
                   default="flip-random")
    p.add_argument("--function", default=None)
    p.add_argument("--element", type=int, default=None)
    p.add_argument("--mask", type=lambda s: int(s, 0), default=1)
    p.add_argument("--start", type=int, default=None)
    p.add_argument("--length", type=int, default=4)
    p.add_argument("--seed", type=parse_seed, default=None)
    p.add_argument("--trials", type=int, default=None,
                   help="apply this many independent tampers to fresh "
                        "copies and report detection counts")
    p.add_argument("--input", action="append", type=lambda s: int(s, 0),
                   help="input value for detection trials (repeatable)")
    p.add_argument("--mode", choices=("secure", "optimized"),
                   default="secure",
                   help="engine used for detection trials")
    p.set_defaults(fn=cmd_tamper)

    p = sub.add_parser("coverage", help="report protection coverage for an "
                                        "IR source file")
    p.add_argument("source")
    _add_protection_options(p)
    p.set_defaults(fn=cmd_coverage)

    p = sub.add_parser("bench", help="measure protection overhead")
    p.add_argument("--programs", default=None,
                   help="comma-separated corpus program names (default all)")
    p.add_argument("--levels", default="100", type=int_list,
                   help="comma-separated protection levels")
    p.add_argument("--modes", default=",".join(MODES))
    p.add_argument("--arms", default=",".join(ARMS))
    p.add_argument("--reps", type=int, default=10,
                   help="executions per protection draw")
    p.add_argument("--seeds", type=int, default=5,
                   help="protection draws per cell")
    p.add_argument("--tier", choices=TIERS, default="bench")
    p.add_argument("--seed", type=parse_seed, default=None)
    p.add_argument("--connectivity", type=int, default=2)
    p.add_argument("--no-coverage", action="store_true",
                   help="skip the per-program coverage table")
    p.add_argument("--csv", default=None, help="also write rows to this "
                                               "CSV file")
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if rest and args.command == "run":
        # a subparser takes its positionals in one go, leaving inputs given
        # after an option over; the run arguments parse again, intermixed
        args = args.run_parser.parse_intermixed_args(argv[1:])
    elif rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    if getattr(args, "seed", 0) is None:
        env = os.environ.get(SEED_ENV)
        try:
            args.seed = fresh_seed() if env is None else parse_seed(env)
        except argparse.ArgumentTypeError as err:
            return _fail(f"${SEED_ENV}: {err}")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
