"""Replay the lane-kernel calls of one round under variants of the kernel's constants.

Run from the repository root:

    python3 tools/replay_kernel.py score_highway _CLEAN_RUN_YIELD=2.5 _CLEAN_RUN_YIELD=1e9
    python3 tools/replay_kernel.py campaign_urban _TAIL_LANES=0 --reps 15
    python3 tools/replay_kernel.py score_highway --against ../parent/src/vdtptune/sim/kernels.py
    python3 tools/replay_kernel.py campaign_urban _CLEAN_RUN_YIELD=1e9 --top 3

The tool runs one round of SHAPE once, recording every `run_lanes` call that
`transfer.simulate_batch` makes. The shapes:

- campaign_urban: a round of the benchmark's campaign_urban workload, the
  campaign of `vdtpbench/workloads.py::CAMPAIGN` and its reports (QoS
  re-scoring included);
- score_highway: the benchmark's score_highway evaluations, its 24
  configurations at 10 replications on highway (`ScoreHighway.inputs`);
- desk_urban, desk_highway: the acceptance tests' desk campaign (5
  algorithms x 5 runs x 200 evaluations x 3 replications, master seed 1) and
  its reports.

It then replays the recorded calls through `vdtptune.sim.kernels.run_lanes`
under each variant, the committed constants ("base") first. A variant is a
comma-separated list of NAME=VALUE overrides of the module constants of
`vdtptune.sim.kernels`, such as `_CLEAN_RUN_YIELD=2.5,_TAIL_LANES=0`; VALUE is
a Python literal, and `_GAMMAS` follows `_CLEAN_RUN_CELLS`. `run_lanes` works
out its block gate from the constants at each call, so every override takes
effect: `_CLEAN_RUN_YIELD=0` opens blocks at every width, `_CLEAN_RUN_YIELD=1e9`
shuts them, and `_CLEAN_RUN_YIELD=2.5` gives highway urban's gate of 256
lanes. `--against PATH` adds a variant that replays the calls through the
`run_lanes` of another copy of kernels.py, loaded from PATH as a module of its
own with its own constants, so that a change to a function, not only to a
constant, can be timed against base; it may be given more than once. Each
repetition replays every variant once, in turn, the order
reversed on odd repetitions, and times the sum of the calls. Every replay's
outputs must equal those of an untimed base replay made first, bit for bit
and dtype for dtype; the tool exits 1 at the first that does not. It prints
each variant's median and fastest round of calls, in ms and as a ratio to
base's.

`--top N` then lists the N calls that took base longest (median over the
repetitions): each call's lanes, distinct chunk sizes and base's median ms,
and for each variant the call's single-attempt steps, clean-run blocks and
`_cross` calls (the scalar tail's included), counted by spies on `_attempt`,
`_clean_run_times` and `_cross` in an untimed replay. Counts do not depend on
the machine, so they show where a change of the kernel saves its time.

The pure backend runs `run_lanes`; with numba installed, set
VDTPTUNE_DISABLE_NUMBA=1. The tool changes no file under src/.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import copy
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "vdtpbench")]

import numpy as np  # noqa: E402

from vdtptune import fitness, optimizers  # noqa: E402
from vdtptune.harness import campaign, reports  # noqa: E402
from vdtptune.sim import kernels, transfer  # noqa: E402
from vdtptune.sim.scenario import preset  # noqa: E402

import workloads  # noqa: E402

SEED = 1  # the benchmark's default --seed


def _campaign_round(config_kwargs: dict) -> None:
    with tempfile.TemporaryDirectory() as out:
        config = campaign.ExperimentConfig(**config_kwargs, output_dir=out)
        reports.write_campaign_outputs(campaign.run_campaign(config), out)


def _desk(scenario: str) -> dict:
    algorithms = tuple(optimizers.OptimizerParams(a) for a in optimizers.ALGORITHMS)
    return dict(scenario=scenario, algorithms=algorithms, runs=5, max_evaluations=200, replications=3, master_seed=1)


def _score_highway() -> None:
    with tempfile.TemporaryDirectory() as out:
        configs, seeds, _, _ = workloads.ScoreHighway(SEED, Path(out)).inputs()
    scenario = preset("highway")
    for config, seed in zip(configs, seeds):
        fitness.evaluate(config, scenario, n=workloads.HIGHWAY_REPLICATIONS, seed=seed)


SHAPES = {
    "campaign_urban": lambda: _campaign_round(workloads.CAMPAIGN),
    "score_highway": _score_highway,
    "desk_urban": lambda: _campaign_round(_desk("urban")),
    "desk_highway": lambda: _campaign_round(_desk("highway")),
}


def record(shape: str) -> list:
    """Argument tuples of the run_lanes calls one round of `shape` makes."""
    calls = []
    real = transfer.run_lanes

    def recorded(*args):
        calls.append(copy.deepcopy(args))
        return real(*args)

    transfer.run_lanes = recorded
    try:
        SHAPES[shape]()
    finally:
        transfer.run_lanes = real
    return calls


def parse_variant(text: str) -> dict:
    """NAME=VALUE[,NAME=VALUE...] -> {NAME: value}, each NAME a constant of kernels."""
    overrides = {}
    for item in text.split(","):
        name, sep, value = item.partition("=")
        name = name.strip()
        if not sep or not name.lstrip("_").isupper() or not hasattr(kernels, name):
            raise argparse.ArgumentTypeError(f"{item!r} is not NAME=VALUE for a constant of vdtptune.sim.kernels")
        try:
            overrides[name] = ast.literal_eval(value.strip())
        except (ValueError, SyntaxError) as exc:
            raise argparse.ArgumentTypeError(f"{item!r}: VALUE is not a Python literal") from exc
    return overrides


def load_kernels(path: str):
    """The kernels module at `path`, loaded apart from vdtptune.sim.kernels."""
    file = Path(path)
    if not file.is_file():
        raise argparse.ArgumentTypeError(f"{path}: no such file")
    spec = importlib.util.spec_from_file_location("replayed_kernels", file)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not callable(getattr(module, "run_lanes", None)):
        raise argparse.ArgumentTypeError(f"{path}: defines no run_lanes")
    return module


@contextlib.contextmanager
def patched(module, overrides: dict):
    """`module` with the attributes in `overrides` set; `_GAMMAS` follows an
    override of `_CLEAN_RUN_CELLS`."""
    if "_CLEAN_RUN_CELLS" in overrides:
        cells = overrides["_CLEAN_RUN_CELLS"]
        overrides = dict(overrides, _GAMMAS=np.arange(2 * cells + 1, dtype=np.uint64) * module._GOLDEN_A)
    saved = {name: getattr(module, name) for name in overrides}
    for name, value in overrides.items():
        setattr(module, name, value)
    try:
        yield module
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


def replay(calls: list, overrides: dict, module=kernels) -> tuple:
    """(seconds in run_lanes per call, outputs) of the recorded calls through
    `module` with `overrides` set."""
    seconds, outputs = [], []
    with patched(module, overrides):
        for args in calls:
            start = time.perf_counter()
            out = module.run_lanes(*args)
            seconds.append(time.perf_counter() - start)
            outputs.append(out)
    return seconds, outputs


COUNTED = ("_attempt", "_clean_run_times", "_cross")  # single steps, blocks, _cross calls


def count(calls: list, overrides: dict, module=kernels) -> list:
    """Per recorded call, its (single steps, blocks, _cross calls) through
    `module` with `overrides` set."""
    tally = dict.fromkeys(COUNTED, 0)

    def spy(name, real):
        def counted(*args):
            tally[name] += 1
            return real(*args)
        return counted

    spies = {name: spy(name, getattr(module, name)) for name in COUNTED}
    counts = []
    with patched(module, {**overrides, **spies}):
        for args in calls:
            tally.update(dict.fromkeys(COUNTED, 0))
            module.run_lanes(*args)
            counts.append(tuple(tally[name] for name in COUNTED))
    return counts


def first_difference(outputs: list, reference: list) -> str | None:
    """Where `outputs` first differs from `reference` in bits, dtype or shape."""
    names = ("times", "lost", "delivered", "refused")
    for k, (got, want) in enumerate(zip(outputs, reference)):
        for name, a, b in zip(names, got, want):
            if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
                return f"call {k}, {name}: {a.dtype}{a.shape} against {b.dtype}{b.shape}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("shape", choices=sorted(SHAPES))
    parser.add_argument("variants", nargs="*", type=parse_variant, metavar="NAME=VALUE[,NAME=VALUE...]")
    parser.add_argument("--reps", type=int, default=7, help="timed replays of each variant (default 7)")
    parser.add_argument("--against", action="append", default=[], type=load_kernels, metavar="PATH",
                        help="also replay through the run_lanes of the kernels.py at PATH")
    parser.add_argument("--top", type=int, default=0, metavar="N",
                        help="list the N costliest calls with each variant's steps, blocks and _cross calls")
    args = parser.parse_intermixed_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    if args.top < 0:
        parser.error("--top must be >= 0")
    if kernels.NUMBA_ENABLED:
        parser.error("simulate_batch runs the compiled kernel, not run_lanes; set VDTPTUNE_DISABLE_NUMBA=1")

    calls = record(args.shape)
    lanes = sum(call[-1].size * call[0] for call in calls)
    variants = [(kernels, {})] + [(kernels, v) for v in args.variants] + [(m, {}) for m in args.against]
    labels = ["base"] + [",".join(f"{name}={value!r}" for name, value in v.items()) for v in args.variants]
    labels += [f"against {m.__file__}" for m in args.against]
    print(f"{args.shape}: {len(calls)} run_lanes calls, {lanes} lanes; {args.reps} interleaved reps")

    _, reference = replay(calls, {})
    times = [[] for _ in variants]
    for rep in range(args.reps):
        order = range(len(variants)) if rep % 2 == 0 else reversed(range(len(variants)))
        for i in order:
            module, overrides = variants[i]
            seconds, outputs = replay(calls, overrides, module)
            where = first_difference(outputs, reference)
            if where is not None:
                print(f"{labels[i]}: outputs differ from base's at {where}", file=sys.stderr)
                return 1
            times[i].append(seconds)

    totals = [[sum(seconds) for seconds in ts] for ts in times]
    base_median, base_min = statistics.median(totals[0]), min(totals[0])
    width = max(len(label) for label in labels)
    print(f"{'variant':<{width}}  {'median ms':>9}  {'min ms':>9}  median x  min x")
    for label, ts in zip(labels, totals):
        median, fastest = statistics.median(ts), min(ts)
        print(f"{label:<{width}}  {median * 1e3:9.2f}  {fastest * 1e3:9.2f}  "
              f"{median / base_median:8.3f}  {fastest / base_min:5.3f}")
    if args.top:
        per_call = [statistics.median(call) for call in zip(*times[0])]
        top = sorted(range(len(calls)), key=lambda k: -per_call[k])[: args.top]
        counts = [count([calls[k] for k in top], overrides, module) for module, overrides in variants]
        print(f"costliest {len(top)} calls by base's median; single steps, blocks and _cross calls per variant")
        for rank, k in enumerate(top):
            chunks = len(set(np.atleast_1d(calls[k][1]).tolist()))
            print(f"call {k}: lanes {calls[k][-1].size * calls[k][0]}, chunk sizes {chunks}, "
                  f"base {per_call[k] * 1e3:.2f} ms")
            for label, variant_counts in zip(labels, counts):
                steps, blocks, crosses = variant_counts[rank]
                print(f"  {label:<{width}}  steps {steps:6d}  blocks {blocks:6d}  _cross {crosses:6d}")
    print("every variant's outputs equal base's, bit for bit and dtype for dtype")
    return 0


if __name__ == "__main__":
    sys.exit(main())
