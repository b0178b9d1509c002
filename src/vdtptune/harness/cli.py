"""Command line front end.

Subcommands: tune, compare, simulate, sweep, bench. Exit status is 0 on
success, 1 for usage or validation problems, 2 for runtime failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .. import optimizers
from ..fitness import evaluate
from ..optimizers import ALGORITHMS, OptimizerParams
from ..sim.scenario import preset_names
from ..sim.transfer import effective_throughput
from ..space import DEFAULT_BOUNDS, VdtpConfig, bound_violations
from . import reports
from .benchfuncs import BENCH_FUNCTIONS, bench_bounds, get_function, random_search
from .campaign import (
    ExperimentConfig,
    load_experiment_config,
    parse_algorithms,
    qos_seed,
    resolve_scenario,
    run_campaign,
    run_cells,
    run_seed,
)
from .sweep import SWEEP_HEADER, parse_grid, render_sweep, run_sweep, sweep_rows
from ..stats import mean, summarize

__all__ = ["main", "build_parser"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # default argparse exits with status 2
        raise UsageError(message)


# Flags that set an ExperimentConfig field: flag -> (field, help). Each flag
# takes its type and default from the field's default.
_FLAGS = {
    "scenario": ("scenario", f"preset ({', '.join(preset_names())}) or a scenario .cfg path"),
    "seed": ("master_seed", "master seed"),
    "budget": ("max_evaluations", "objective evaluations per run"),
    "runs": ("runs", "independent runs"),
    "workers": ("workers", "parallel worker processes"),
    "out": ("output_dir", "output directory"),
    "replications": ("replications", "simulation replications per evaluation"),
}


def _add_flags(p: _Parser, flags, defer=False, **defaults):
    # `defaults` replace the field defaults by flag name; defer=True leaves every
    # default None so a config file's values are only overridden by flags typed
    for flag in flags:
        name, text = _FLAGS[flag]
        default = defaults.get(flag, getattr(ExperimentConfig, name))
        p.add_argument(f"--{flag}", type=type(default), default=None if defer else default,
                       help=f"{text} (default {default})")


def build_parser() -> _Parser:
    parser = _Parser(prog="vdtptune", description="Tune chunked-transfer protocol parameters against a simulated vehicular channel.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("tune", help="one optimizer run; writes trace and best-config files")
    p.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    _add_flags(p, ("scenario", "seed", "budget", "replications", "out"))
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("compare", help="multi-run campaign over several algorithms with statistics")
    p.add_argument("--algorithms", default=None, help="comma-separated algorithm list (default all)")
    p.add_argument("--config", default=None, help="experiment .cfg file; explicit flags override its values")
    _add_flags(p, _FLAGS, defer=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("simulate", help="score one explicit configuration")
    p.add_argument("--chunk", type=float, required=True, help="chunk size in bytes")
    p.add_argument("--attempts", type=float, required=True, help="transmission attempts per request")
    p.add_argument("--timeout", type=float, required=True, help="retransmission timeout in seconds")
    _add_flags(p, ("scenario", "seed", "replications"))
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="one-at-a-time parameter sweep from a grid file")
    p.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    p.add_argument("--grid", required=True, help="grid file: 'param = v1 v2 ...' per line")
    _add_flags(p, ("scenario", "seed", "budget", "runs", "out", "replications"), runs=5)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench", help="optimizer check on an analytic function")
    p.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    p.add_argument("--function", default="sphere", help=f"one of {', '.join(sorted(BENCH_FUNCTIONS))}")
    p.add_argument("--dims", type=int, default=3)
    _add_flags(p, ("seed", "budget", "runs"), runs=20)
    p.set_defaults(func=cmd_bench)

    return parser


def cmd_tune(args) -> int:
    params = OptimizerParams(args.algorithm)
    config = _config(args, algorithms=(params,))
    (rec,) = run_cells(config, [(f"{args.algorithm}_0", params, args.seed)])
    scenario = resolve_scenario(config.scenario)

    out = Path(config.output_dir)  # run_cells made it
    trace_path = out / reports.trace_filename(args.algorithm, 0)
    reports.write_trace_csv(trace_path, rec.trace)

    row = reports.qos_row(args.algorithm, rec.best_config, scenario, args.replications, qos_seed(args.seed))
    _, chunk, attempts, timeout, rescored = row[:5]
    payload = {
        "algorithm": args.algorithm,
        "scenario": scenario.name,
        "seed": args.seed,
        "budget": args.budget,
        "evaluations": rec.evaluations,
        "best_eval_index": rec.best_eval_index,
        "best_fitness_search": rec.best_fitness,
        "best_position": [float(v) for v in rec.best_position],
        "best_config": {
            "chunk_bytes": chunk,
            "total_attempts": attempts,
            "retransmission_time_s": timeout,
        },
        "rescored_fitness": rescored,
        "rescore_replications": args.replications,
    }
    best_path = out / f"best_{args.algorithm}.json"
    with open(best_path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")

    print(f"{args.algorithm} on {scenario.name}: best fitness {rec.best_fitness:.6f} "
          f"at evaluation {rec.best_eval_index}/{rec.evaluations}")
    print(f"best config: chunk={chunk} B, attempts={attempts}, timeout={timeout} s")
    print(f"wrote {trace_path} and {best_path}")
    return 0


def _config(args, **fixed) -> ExperimentConfig:
    """ExperimentConfig from the flags a subcommand registered; `fixed` wins."""
    overrides = {name: getattr(args, flag, None) for flag, (name, _) in _FLAGS.items()}
    overrides = {name: value for name, value in overrides.items() if value is not None}
    overrides.update(fixed)
    names = None if getattr(args, "algorithms", None) is None else parse_algorithms(args.algorithms)
    if getattr(args, "config", None):
        return load_experiment_config(args.config, names, **overrides)
    if names is not None:
        overrides["algorithms"] = tuple(OptimizerParams(n) for n in names)
    return ExperimentConfig(**overrides)


def cmd_compare(args) -> int:
    config = _config(args)
    if len(config.algorithms) < 2:
        raise UsageError("compare needs at least 2 algorithms")

    def progress(name, rec):
        print(f"  [{name}] best {rec.best_fitness:.6f} after {rec.evaluations} evaluations")

    result = run_campaign(config, progress=progress)
    written = reports.write_campaign_outputs(result, config.output_dir)

    print()
    print(reports.render_summary(result))
    print()
    print(reports.render_tests(result))
    print()
    print(reports.render_ranks(result))
    print()
    _, qos = reports.read_csv(Path(config.output_dir) / "qos.csv")
    print(reports.render_qos([(label, chunk, attempts, *map(float, rest)) for label, chunk, attempts, *rest in qos]))
    print(f"\nwrote {len(written)} files under {config.output_dir}")
    return 0


def _check_seed(args) -> None:
    # tune, compare and sweep refuse a negative seed in ExperimentConfig
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")


def cmd_simulate(args) -> int:
    _check_seed(args)
    config = VdtpConfig(args.chunk, args.attempts, args.timeout)
    violations = bound_violations(config, DEFAULT_BOUNDS)
    if violations:
        raise UsageError("; ".join(violations))
    scenario = resolve_scenario(args.scenario)
    report = evaluate(config, scenario, n=args.replications, seed=args.seed)

    print(f"scenario {scenario.name}, config chunk={args.chunk:g} B attempts={args.attempts:g} timeout={args.timeout:g} s")
    rows = [
        (i, f"{o.transmission_time_s:.3f}", f"{o.lost_packets:.2f}", f"{o.data_transferred_kbytes:.1f}",
         f"{effective_throughput(o):.2f}", o.refused_sessions)
        for i, o in enumerate(report.replications)
    ]
    print(reports.render_table(["rep", "time_s", "lost", "data_kB", "kB_per_s", "refused"], rows))
    mean_tp = mean(effective_throughput(o) for o in report.replications)
    print(f"fitness over {report.n} replications: {report.fitness:.6f}")
    print(f"mean effective throughput: {mean_tp:.2f} kB/s")
    return 0


def cmd_sweep(args) -> int:
    grid_path = Path(args.grid)
    if not grid_path.is_file():
        raise UsageError(f"grid file not found: {args.grid}")
    grid = parse_grid(grid_path.read_text())
    result = run_sweep(_config(args, algorithms=(OptimizerParams(args.algorithm),)), grid)
    csv_path = Path(args.out) / "sweep.csv"
    reports.write_csv(csv_path, SWEEP_HEADER, sweep_rows(result))
    print(render_sweep(result))
    print(f"\nwrote {csv_path}")
    return 0


def cmd_bench(args) -> int:
    _check_seed(args)
    if args.runs < 1:
        raise UsageError("runs must be >= 1")
    fn = get_function(args.function)
    bounds = bench_bounds(args.dims)
    params = OptimizerParams(args.algorithm)
    bests = []
    baseline = []
    for r in range(args.runs):
        seed = run_seed(args.seed, r)
        rec = optimizers.run(params, fn, bounds, seed=seed, max_evaluations=args.budget)
        bests.append(rec.best_fitness)
        baseline.append(random_search(fn, bounds, seed=seed, max_evaluations=args.budget).best_fitness)

    s = summarize(bests)
    b = summarize(baseline)
    print(f"{args.algorithm} on {args.function} ({args.dims}-D, budget {args.budget}, {args.runs} runs)")
    print(f"  best fitness: mean {s.mean:.4g}  std {s.std_dev:.4g}  min {s.minimum:.4g}  "
          f"median {s.median:.4g}  max {s.maximum:.4g}")
    print(f"  random search baseline median: {b.median:.4g}")
    wins = sum(1 for x, y in zip(bests, baseline) if x < y)
    print(f"  beats random search in {wins}/{args.runs} paired runs")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        raise
    except Exception as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
