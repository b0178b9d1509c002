"""Alternating parent/change pairs of the benchmark, summarised as BENCH_<n>.json.

Run from the repository root:

    python3 tools/bench_pairs.py --parent HEAD --pairs 10 --out BENCH_7.json \\
        --title "what the change does" --claim score_highway:wall_s

Each side runs from a fresh checkout in a scratch directory: the parent is
`git archive` of its revision, the change a copy of the working tree's files
(tracked, and untracked ones that .gitignore does not exclude). Neither
touches the repository. For every workload, pair i runs `python3
vdtpbench/run.py --workload W --seed S --seconds T --trace 0` on the parent
first when i is even and on the change first when i is odd; the workloads and
the run length T are BENCHMARK.json's. After the pairs, each side makes
TRACED_RUNS traced runs (`--trace 1`) per workload for the per-layer metrics,
the parent first on even runs and the change first on odd ones; each metric's
`value` is the median of its runs, which are kept next to it.

The output holds, per workload and end-to-end metric of BENCHMARK.json, each
side's runs, median and quartiles (linear-interpolation 25th/75th
percentiles), how many pairs the change won (ties count for neither), and
worse_by: the change's median shortfall against the parent's, as a share of
the parent's median (negative = better), and a verdict against the metric's
bound: `worse` when worse_by exceeds the bound; `unresolved` when the
parent's interquartile range, as a share of its median, exceeds the bound
(the runs spread too widely to tell), unless every change run beats every
parent run; `ok` otherwise. The top-level `worse` lists the worse metrics as
workload:metric. A claim (--claim workload:metric) is met when the change
wins at least nine tenths of the pairs and its median is better than the
parent's by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TRACED_RUNS = 3  # one traced run is too noisy for a per-layer figure


def git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export_revision(rev: str, dest: Path) -> str:
    """Extract the tree of `rev` into dest; returns its full sha."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", sha)), mode="r:") as tar:
        tar.extractall(dest, filter="data")
    return sha


def export_working_tree(dest: Path) -> None:
    """Copy the working tree's files that git tracks or would track into dest."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0")
    for name in filter(None, names):
        src = ROOT / name.decode()
        if src.is_file():
            target = dest / name.decode()
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, target)


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "vdtpbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2].removeprefix("info "))
    return {**json.loads(lines[-1]), "info": info}


def traced_runs(checkouts: dict, workload: str, seed: int, seconds: float) -> dict:
    """Per side: TRACED_RUNS traced runs of one workload, alternating which
    side goes first, summed counts and each metric's median and runs."""
    runs = {"parent": [], "change": []}
    for j in range(TRACED_RUNS):
        for side in ("parent", "change") if j % 2 == 0 else ("change", "parent"):
            runs[side].append(run_benchmark(checkouts[side], workload, seed, seconds, 1))
    out = {}
    for side, rs in runs.items():
        metrics = {}
        for name, first in rs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in rs]
            metrics[name] = {"value": float(np.median(values)), "unit": first["unit"], "runs": values}
        out[side] = {"correct": all(r["correct"] for r in rs), "attempted": sum(r["attempted"] for r in rs),
                     "failed": sum(r["failed"] for r in rs), "metrics": metrics}
    return out


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 4), "q1": round(float(q1), 4), "q3": round(float(q3), 4),
            "runs": [round(v, 4) for v in values]}


def compare(spec: dict, parent_runs: list, change_runs: list) -> dict:
    sign = 1.0 if spec["better"] == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent_runs, change_runs) if sign * (c - p) < 0)
    parent, change = quartiles(parent_runs), quartiles(change_runs)
    worse_by = round(sign * (change["median"] - parent["median"]) / parent["median"], 4)
    spread = (parent["q3"] - parent["q1"]) / parent["median"]
    separated = all(sign * (c - p) < 0 for p in parent_runs for c in change_runs)
    if worse_by > spec["bound"]:
        verdict = "worse"
    elif spread > spec["bound"] and not separated:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": parent,
        "change": change,
        "change_wins": f"{wins}/{len(parent_runs)}",
        "ratio_change_over_parent": round(change["median"] / parent["median"], 4),
        "worse_by": worse_by,
        "verdict": verdict,
    }


def summarise(spec_by_name: dict, runs: dict) -> dict:
    """runs[side] is the list of one workload's results on that side, in pair order."""
    out = {
        "pairs": len(runs["parent"]),
        "all_correct": all(r["correct"] for side in runs.values() for r in side),
        "failed_ops": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
        "attempted_ops": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
        "artifact_sha256": sorted({h for rs in runs.values() for r in rs for h in r["info"].get("artifact_sha256", [])}),
        "metrics": {},
    }
    for name, spec in spec_by_name.items():
        values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
        out["metrics"][name] = compare(spec, values["parent"], values["change"])
    return out


def claim(summary: dict, workload: str, metric: str) -> dict:
    m = summary[workload]["metrics"][metric]
    wins, pairs = (int(x) for x in m["change_wins"].split("/"))
    iqr = m["parent"]["q3"] - m["parent"]["q1"]
    gain = -m["worse_by"] * m["parent"]["median"]
    return {"workload": workload, "metric": metric, "parent_median": m["parent"]["median"],
            "change_median": m["change"]["median"], "change_wins": m["change_wins"],
            "parent_iqr": round(iqr, 4), "met": wins >= 0.9 * pairs and gain > iqr}


def machine(info: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "cpu_count": info["cpu_count"], "os": f"{platform.system()} {platform.machine()}",
            "python": info["python"], "numpy": info["numpy"],
            "numba": "installed" if importlib.util.find_spec("numba") else "not installed"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--title", default="", help="one line saying what the change does")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--claim", help="workload:metric the change claims to improve")
    parser.add_argument("--out", required=True, type=Path)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    parser.add_argument("--workloads", nargs="+", choices=workloads, default=workloads)
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]

    specs = {m["name"]: m for m in bench["end_to_end"]}
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        checkouts = {"parent": scratch / "parent", "change": scratch / "change"}
        parent_sha = export_revision(args.parent, checkouts["parent"])
        export_working_tree(checkouts["change"])
        summary, traced, infos = {}, {}, {}
        for workload in args.workloads:
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    result = run_benchmark(checkouts[side], workload, args.seed, seconds, 0)
                    runs[side].append(result)
                    infos.setdefault(side, set()).add(result["info"]["src_sha256"])
                    print(f"{workload} pair {i} {side}: wall_s {result['metrics']['wall_s']['value']:.4f}",
                          file=sys.stderr, flush=True)
            summary[workload] = summarise(specs, runs)
            traced[workload] = traced_runs(checkouts, workload, args.seed, seconds)
        last = runs["change"][-1]["info"]
        report = {
            "change": args.title,
            "parent": parent_sha[:7],
            "command": f"python3 vdtpbench/run.py --workload <workload> --seed {args.seed} "
                       f"--seconds {seconds:g} --trace 0",
            "backend": last["backend"],
            "machine": machine(last),
            "src_sha256": {side: sorted(hashes) if len(hashes) > 1 else next(iter(hashes))
                           for side, hashes in infos.items()},
            "method": (f"{args.pairs} pairs per workload, each side a fresh checkout (parent {parent_sha[:7]}, "
                       "change the working tree); pair i runs the parent "
                       "first when i is even and the change first when i is odd. Quartiles are linear-interpolation "
                       "25th/75th percentiles of each side's runs. worse_by is the change's median shortfall against "
                       "the parent's, as a share of the parent's median (negative = better). After the pairs each "
                       f"side made {TRACED_RUNS} traced runs (--trace 1) per workload, the parent first on even "
                       "runs and the change first on odd ones; a traced metric's value is the median of its runs."),
            "claim": claim(summary, *args.claim.split(":")) if args.claim else None,
            "worse": [f"{workload}:{name}" for workload, s in summary.items()
                      for name, m in s["metrics"].items() if m["verdict"] == "worse"],
            "workloads": summary,
            "traced": traced,
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
