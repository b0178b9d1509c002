#!/usr/bin/env python3
"""Benchmark of vdtptune: end-to-end metrics untraced, per-layer metrics traced.

Run from the repository root:

    python3 vdtpbench/run.py --workload campaign_urban --seed 1 --seconds 30 --trace 0

Workloads: campaign_urban, score_highway, optimizers_sphere (see README.md).
The last line of standard output is the result as one JSON object with the
keys correct, attempted, failed and metrics; the line before it describes the
run (backend, machine, source, checks). Exit status 2 means the program's
source was not found next to this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7


def use_source() -> None:
    """Put the checkout's src/ and this directory on sys.path, or exit 2."""
    src = ROOT / "src"
    if not (src / "vdtptune" / "__init__.py").is_file():
        print(f"vdtptune source not found under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(src), str(BENCH_DIR)]


def setup_probe(workload: str, seed: int, out_dir: Path) -> dict:
    """Import, scenario load and one warm-up call into each layer used; the
    import of numpy comes first and is timed on its own."""
    start = time.perf_counter()
    import numpy  # noqa: F401

    numpy_s = time.perf_counter() - start
    use_source()
    import workloads

    workloads.WORKLOADS[workload](seed, out_dir).warm_up()
    return {"setup_s": time.perf_counter() - start, "numpy_s": numpy_s}


def measure_setup(args, out_dir: Path) -> dict:
    """Set-up time in a fresh process, so imports are paid each time."""

    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
         "--seed", str(args.seed), "--out", str(out_dir)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(child.stdout.strip().splitlines()[-1])


def source_identity() -> dict:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".cfg"):
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        sha = git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown (git unavailable)"
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


def environment() -> dict:
    import numpy
    from vdtptune.sim import kernels

    return {
        "backend": "numba" if kernels.NUMBA_ENABLED else "pure",
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **source_identity(),
    }


class Tally:
    """Rounds run, operations attempted and failed, problems found."""

    def __init__(self):
        self.rounds = []
        self.attempted = 0
        self.failed = 0
        self.check_failures = 0
        self.problems = []

    def run(self, workload, index, tracer=None):
        try:
            rnd = workload.run_round(index, tracer)
        except Exception:
            self.attempted += workload.ops_per_round
            self.failed += workload.ops_per_round
            self.problems.append(f"{workload.name} round {index} raised:\n{traceback.format_exc()}")
            return None
        try:
            failed, problems = workload.check(rnd)
        except Exception:  # an output too broken to check counts as failed
            failed, problems = rnd.ops, [f"check raised:\n{traceback.format_exc()}"]
        self.attempted += rnd.ops
        self.failed += failed
        self.check_failures += failed
        self.problems += [f"{workload.name} round {index}: {p}" for p in problems]
        # keep only what the metrics need, so peak memory is the program's
        rnd.data = {k: v for k, v in rnd.data.items() if k in ("fingerprint", "checkpoints", "per_alg")}
        self.rounds.append(rnd)
        return rnd

    def probe(self, label, result):
        metrics, problems = result
        self.attempted += 1
        if problems:
            self.failed += 1
            self.check_failures += 1
            self.problems += [f"{label}: {p}" for p in problems]
        return metrics


def fastest(rounds) -> float:
    """A round's time as the sum of each of its calls' fastest time over the
    rounds, which all make the same calls."""
    return sum(min(times) for times in zip(*(r.units for r in rounds)))


def untraced(workload, args, tally, out_dir) -> tuple:
    from calibration import Calibrator, task

    workload.warm_up()
    task()  # warm-up
    calibrator = Calibrator()
    workload.pace = calibrator.after
    # set-up probes are spread over the run, so one burst of load on the
    # machine does not move them all
    setups, start, index = [], time.perf_counter(), 0
    while index == 0 or time.perf_counter() - start < args.seconds:
        while len(setups) < min(SETUP_PROBES, SETUP_PROBES * (time.perf_counter() - start) / args.seconds):
            setups.append(measure_setup(args, out_dir))
        tally.run(workload, index)
        index += 1
    while len(setups) < SETUP_PROBES:
        setups.append(measure_setup(args, out_dir))
    rounds = tally.rounds
    # times at the reference machine speed; set-up without numpy's import,
    # whose time moves on its own (see calibration.py)
    scale = calibrator.scale()
    setup_s = statistics.median(p["setup_s"] - p["numpy_s"] for p in setups) * scale
    raw = statistics.fmean(r.seconds for r in rounds)
    wall = raw * scale
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "evals_per_s": (rounds[0].evals / wall, "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    info = {"rounds": len(rounds), "round_s": [round(r.seconds, 5) for r in rounds],
            "mean_round_s": raw, "setup_probes": setups, "calibration_mean_s": calibrator.mean(),
            "calibration_samples": len(calibrator.samples)}
    if rounds[0].sessions:
        info["sessions_per_s"] = rounds[0].sessions / wall
    fingerprints = sorted({r.data["fingerprint"] for r in rounds if "fingerprint" in r.data})
    if fingerprints:
        info["artifact_sha256"] = fingerprints
    return metrics, info


def traced(workload, args, tally, out_dir) -> tuple:
    import layers
    import workloads
    from tracing import Tracer

    segments = {}  # label -> Tracer

    def traced_round(w, index):
        with Tracer() as tracer:
            rnd = tally.run(w, index, tracer)
        segments[f"{w.name}-{index}"] = tracer
        return rnd, tracer

    # same inputs untraced then traced: the difference is the tracing overhead
    workload.warm_up()
    plain, own, start, index = [], [], time.perf_counter(), 0
    while index == 0 or time.perf_counter() - start < args.seconds / 2:
        plain.append(tally.run(workload, index))
        own.append(traced_round(workload, index))
        index += 1
    plain = [r for r in plain if r is not None]

    # campaign and optimizer layers come from those workloads' traced rounds
    def rounds_of(cls):
        if workload.name == cls.name:
            return own
        w = cls(args.seed, out_dir)
        w.warm_up()
        return [traced_round(w, 0)]

    camp, camp_tracer = rounds_of(workloads.CampaignUrban)[-1]
    sphere_rounds = [r for r, _ in rounds_of(workloads.OptimizersSphere) if r is not None]

    metrics = {}
    metrics.update(tally.probe("kernel lanes", layers.kernel_lanes(args.seed)))
    metrics.update(tally.probe("event replay", layers.event_replay(args.seed, out_dir)))
    if camp is not None:
        metrics.update(campaign_layers(camp, camp_tracer))
    for alg in sphere_rounds[0].data["per_alg"]:
        seconds = sum(r.data["per_alg"][alg] for r in sphere_rounds)
        metrics[f"optimizers.us_per_eval.{alg}"] = (seconds / (workloads.SPHERE_BUDGET * len(sphere_rounds)) * 1e6, "us")
    traced_rounds = [r for r, _ in own if r is not None]
    if plain and traced_rounds:
        overhead = fastest(traced_rounds) - fastest(plain)
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_pct"] = (100.0 * overhead / fastest(plain), "%")

    spans_path = out_dir / "spans.json"
    with open(spans_path, "w") as fh:
        json.dump({label: t.records() for label, t in segments.items()}, fh)
    self_s = {}
    for t in segments.values():
        for name, s in t.self_times().items():
            self_s[name] = self_s.get(name, 0.0) + s
    info = {
        "rounds": len(tally.rounds),
        "self_s": {k: round(v, 6) for k, v in sorted(self_s.items(), key=lambda kv: -kv[1])},
        "spans_file": str(spans_path.relative_to(ROOT)),
        "jit_vs_pure": layers.jit_vs_pure(args.seed, str(Path(__file__).resolve())),
        "dropped": {"fitness.eval_ms_p99": "needs >= 1000 evaluations; a traced campaign round has 400"},
    }
    return metrics, info


def campaign_layers(rnd, tracer) -> dict:
    evals = tracer.durations("objective")
    evaluate_s = tracer.total("evaluate")
    inside = tracer.child_total("evaluate", "simulate_replication")
    qos_s = tracer.total("qos_rows")
    return {
        "fitness.eval_ms_p50": (statistics.median(evals) * 1e3, "ms"),
        "fitness.eval_ms_p90": (statistics.quantiles(evals, n=10)[8] * 1e3, "ms"),
        "fitness.eval_count": (len(evals), "count"),
        "fitness.overhead_us_per_eval": ((evaluate_s - inside) / len(tracer.durations("evaluate")) * 1e6, "us"),
        "fitness.refused_share": (tracer.counts["refused_sessions"] / tracer.counts["sessions"], "ratio"),
        "campaign.outside_objective_s": (tracer.total("run_campaign") - tracer.total("objective"), "s"),
        "campaign.checkpoints_written": (rnd.data["checkpoints"], "count"),
        "reports.qos_s": (qos_s, "s"),
        "reports.write_s": (tracer.total("write_campaign_outputs") - qos_s, "s"),
        "stats.ms": ((tracer.total("wilcoxon_signed_rank") + tracer.total("friedman_ranks")) * 1e3, "ms"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("campaign_urban", "score_highway", "optimizers_sphere"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=1, help="campaign worker processes (informational runs)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--kernel-fingerprint", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.kernel_fingerprint:
        use_source()
        import layers

        print(json.dumps(layers.kernel_fingerprint(args.seed)))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed, Path(args.out))))
        return 0

    use_source()
    import workloads

    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir, args.workers)
    tally = Tally()
    measure = traced if args.trace else untraced
    metrics, info = measure(workload, args, tally, out_dir)

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "workers": args.workers,
            **environment(), **info, "problems": tally.problems[:20]}
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": tally.check_failures == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
