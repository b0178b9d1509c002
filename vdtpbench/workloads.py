"""The three workloads, one round at a time, and the checks of each round.

A round is a fixed make-up of operations whose inputs come from the run's
seed; a run repeats the same round until its time is up. A round is timed as
a sequence of units (an objective call, a scored configuration, an optimizer
run) that is the same in every round; each unit's time is handed to `pace`,
which may time the benchmark's calibration task outside the units. Only the
program's calls are timed; the checks run after the clock has stopped and
sample different outputs in different rounds.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from vdtptune import fitness, optimizers
from vdtptune.harness import benchfuncs, campaign, reports
from vdtptune.sim import kernels, transfer
from vdtptune.sim.scenario import human_expert_config, preset
from vdtptune.space import DEFAULT_BOUNDS, VdtpConfig

import checks
import refmodel


@dataclass
class Round:
    ops: int  # evaluations, scored configurations and event traces
    evals: int
    sessions: int
    units: list  # times of the round's program calls, the same calls in every round
    data: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(self.units)


def round_rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream, index]))


def quantize(config: VdtpConfig):
    """Chunk and attempts rounded half up (floors 128 and 1), timeout as is."""
    return (max(128, math.floor(config.chunk_size + 0.5)),
            max(1, math.floor(config.total_attempts + 0.5)),
            float(config.retransmission_time))


def kernel_seed(seed_sequence) -> int:
    """The uint64 a replication hands to run_sessions."""
    return int(seed_sequence.generate_state(1, np.uint64)[0])


def replication_seeds(seed, n: int) -> list:
    """Kernel seeds of evaluate()'s n replications for an int or a fresh
    (not yet spawned from) SeedSequence seed."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(int(seed))
    return [kernel_seed(child) for child in ss.spawn(n)]


def check_replication(outcome, lane, seed) -> list:
    """One replication re-run through run_sessions and the reference model."""
    arrays = kernels.run_sessions(outcome.sessions, *lane, np.uint64(seed))
    return checks.check_sessions(arrays, lane, seed) + checks.check_outcome(outcome, arrays)


class Workload:
    name = ""
    ops_per_round = 0

    def __init__(self, seed: int, out_dir: Path, workers: int = 1):
        self.seed = seed
        self.out_dir = out_dir
        self.workers = workers
        self.pace = lambda seconds: None  # called after each unit, outside it

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_round(self, index: int, tracer=None) -> Round:
        raise NotImplementedError

    def check(self, rnd: Round) -> tuple:
        """Returns (failed operations, problems)."""
        raise NotImplementedError


# --- campaign_urban ----------------------------------------------------------

# The search inputs are fixed, not drawn from --seed: a campaign's cost is set
# by how many evaluations PSO's and DE's boundary clamping sends to 128-byte
# chunks (about 7 s each at 3 replications, against 8 ms for a typical one),
# and that count ran from 1 to 10 across master seeds 1-4 (10 s to 78 s a
# campaign). Master seed 1 is the acceptance gate's. One replication keeps a
# round near 3-4 s, so a run holds several rounds to average.
CAMPAIGN = {"scenario": "urban", "runs": 2, "max_evaluations": 40, "replications": 1, "master_seed": 1}


class CampaignUrban(Workload):
    name = "campaign_urban"
    ops_per_round = CAMPAIGN["runs"] * len(optimizers.ALGORITHMS) * CAMPAIGN["max_evaluations"]

    def __init__(self, seed, out_dir, workers=1):
        super().__init__(seed, out_dir, workers)
        self.scenario = preset(CAMPAIGN["scenario"])
        self.fingerprint = None

    def warm_up(self):
        expert = human_expert_config(self.scenario)
        fitness.evaluate(expert, self.scenario, n=1, seed=0)
        optimizers.run(optimizers.OptimizerParams("pso"), benchfuncs.get_function("sphere"),
                       benchfuncs.bench_bounds(3), seed=0, max_evaluations=20)
        campaign.wilcoxon_signed_rank([1.0, 2.0], [2.0, 1.0])
        campaign.friedman_ranks([[1.0, 2.0], [2.0, 1.0]])

    def run_round(self, index, tracer=None):
        out = self.out_dir / f"campaign-{index}{'-traced' if tracer else ''}"
        shutil.rmtree(out, ignore_errors=True)
        config = campaign.ExperimentConfig(**CAMPAIGN, output_dir=str(out), workers=self.workers)
        calls, paced = [], []

        def factory(scenario, n, seed):
            objective = fitness.make_objective(scenario, n, seed)
            if tracer is not None:
                objective = tracer.span("objective", objective)

            def timed(x):
                start = time.perf_counter()
                value = objective(x)
                end = time.perf_counter()
                calls.append(end - start)
                self.pace(calls[-1])
                paced.append(time.perf_counter() - end)
                return value

            return timed

        # worker processes cannot take a closure; there the round is one unit
        start = time.perf_counter()
        result = campaign.run_campaign(config, objective_factory=factory if self.workers == 1 else None)
        paths = reports.write_campaign_outputs(result, out)
        rest = time.perf_counter() - start - sum(paced) - sum(calls)
        self.pace(rest)
        evals = sum(rec.evaluations for recs in result.records.values() for rec in recs)
        per_eval = config.replications * self.scenario.sessions
        qos_sessions = (1 + len(config.algorithms)) * per_eval
        return Round(evals, evals, evals * per_eval + qos_sessions, calls + [rest],
                     {"index": index, "result": result, "paths": paths, "out": out})

    def check(self, rnd):
        result, out = rnd.data["result"], rnd.data["out"]
        cfg, sc = result.config, self.scenario
        names = cfg.algorithm_names
        samples = {a: [rec.best_fitness for rec in result.records[a]] for a in names}
        problems, failed = [], 0
        for a in names:
            for i, rec in enumerate(result.records[a]):
                found = checks.check_trace(rec, cfg.max_evaluations)
                found += checks.check_trace_csv(out / reports.trace_filename(a, i), rec.trace)
                report = fitness.evaluate(rec.best_config, sc, n=cfg.replications, seed=best_seed(rec))
                if report.fitness != rec.best_fitness:
                    found.append(f"{a} run {i}: best {rec.best_fitness!r} != re-scored {report.fitness!r}")
                found += checks.check_fitness(report, sc.sessions)
                if found:
                    failed += rec.evaluations
                    problems += found
        found = checks.check_tests_csv(out / "tests.csv", samples)
        found += checks.check_ranks_csv(out / "ranks.csv", samples)
        found += checks.check_summary_csv(out / "summary.csv", samples)
        found += self._check_qos(result, out)
        found += self._check_sampled_replication(result, rnd.data["index"])
        written = len(list((out / "checkpoints").glob("run_*.json")))
        if written != cfg.runs * len(names):
            found.append(f"{written} checkpoints for {cfg.runs * len(names)} runs")
        # identical inputs every round, so identical artifacts every round
        digest = artifact_fingerprint(rnd.data["paths"])
        rnd.data["fingerprint"], rnd.data["checkpoints"] = digest, written
        if self.fingerprint is None:
            self.fingerprint = digest
        elif digest != self.fingerprint:
            found.append(f"artifact fingerprint {digest} differs from the first round's {self.fingerprint}")
        if found:
            failed = rnd.ops
            problems += found
        if not problems:
            shutil.rmtree(out, ignore_errors=True)
        return failed, problems

    def _check_qos(self, result, out):
        cfg, sc = result.config, self.scenario
        seed = campaign.qos_seed(cfg.master_seed)
        entries = [("experts", human_expert_config(sc))]
        entries += [(a, result.best_record(a).best_config) for a in cfg.algorithm_names]
        expected = []
        for label, config in entries:
            report = fitness.evaluate(config, sc, n=cfg.replications, seed=seed)
            expected.append((label, *quantize(config), report))
        return checks.check_qos_csv(out / "qos.csv", expected)

    def _check_sampled_replication(self, result, index):
        """Every session of one best configuration's replications, bit for bit."""
        cfg, sc = result.config, self.scenario
        rng = round_rng(self.seed, 1, index)
        rec = result.records[cfg.algorithm_names[rng.integers(len(cfg.algorithm_names))]][rng.integers(cfg.runs)]
        report = fitness.evaluate(rec.best_config, sc, n=cfg.replications, seed=best_seed(rec))
        lane = refmodel.lane_for(*quantize(rec.best_config), sc)
        problems = []
        for outcome, ks in zip(report.replications, replication_seeds(best_seed(rec), cfg.replications)):
            problems += check_replication(outcome, lane, ks)
        return problems


def best_seed(rec) -> np.random.SeedSequence:
    """Seed of a run's best evaluation: the objective's k-th call (from 0)
    scores with SeedSequence(run seed, spawn_key=(1, k))."""
    return np.random.SeedSequence(rec.seed, spawn_key=(1, rec.best_eval_index - 1))


def artifact_fingerprint(paths) -> str:
    """sha256 over the campaign CSVs (timing.txt holds wall clock and is left out)."""
    h = hashlib.sha256()
    for path in sorted(p for p in paths if p.suffix == ".csv"):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# --- score_highway -----------------------------------------------------------

HIGHWAY_CONFIGS = 24  # per round, one Latin-hypercube stratum each per axis
HIGHWAY_REPLICATIONS = 10
# The 128-byte corner is left to campaign_urban: below this chunk one
# configuration would outweigh the rest of a round.
HIGHWAY_MIN_CHUNK = 8192.0


class ScoreHighway(Workload):
    name = "score_highway"
    ops_per_round = HIGHWAY_CONFIGS + 1

    def __init__(self, seed, out_dir, workers=1):
        super().__init__(seed, out_dir, workers)
        self.scenario = preset("highway")

    def warm_up(self):
        expert = human_expert_config(self.scenario)
        fitness.evaluate(expert, self.scenario, n=1, seed=0)
        events, _ = transfer.simulate_session_events(expert, self.scenario, 0)
        transfer.write_event_trace(self.out_dir / "warm-up-events.csv", events)

    def inputs(self):
        rng = round_rng(self.seed, 2)
        k = HIGHWAY_CONFIGS
        strata = np.stack([rng.permutation(k) for _ in range(3)], axis=1)
        u = (strata + rng.random((k, 3))) / k
        lo, hi = DEFAULT_BOUNDS.lower_array(), DEFAULT_BOUNDS.upper_array()
        # chunk on a log axis: a session's cost goes as 1 / chunk, and log
        # strata keep the round's total cost within about 1% across seeds
        lo[0], hi[0] = math.log(HIGHWAY_MIN_CHUNK), math.log(hi[0])
        x = lo + u * (hi - lo)
        x[:, 0] = np.exp(x[:, 0])
        configs = [VdtpConfig.from_array(row) for row in x]
        seeds = [int(s) for s in rng.integers(0, 2**63, size=k)]
        event_seed = int(rng.integers(0, 2**63))
        return configs, seeds, configs[0], event_seed

    def run_round(self, index, tracer=None):
        configs, seeds, event_config, event_seed = self.inputs()
        path = self.out_dir / f"events-{index}.csv"
        scored, units = [], []
        for config, seed in zip(configs, seeds):
            start = time.perf_counter()
            scored.append(fitness.evaluate(config, self.scenario, n=HIGHWAY_REPLICATIONS, seed=seed))
            units.append(time.perf_counter() - start)
            self.pace(units[-1])
        start = time.perf_counter()
        events, outcome = transfer.simulate_session_events(event_config, self.scenario, event_seed, session_id=index)
        transfer.write_event_trace(path, events)
        units.append(time.perf_counter() - start)
        self.pace(units[-1])
        n = len(configs)
        return Round(n + 1, n, n * HIGHWAY_REPLICATIONS * self.scenario.sessions + 1, units,
                     {"index": index, "reports": scored, "events": events, "outcome": outcome, "path": path})

    def check(self, rnd):
        configs, seeds, event_config, event_seed = self.inputs()
        sc = self.scenario
        failed, problems = 0, []
        rng = round_rng(self.seed, 3, rnd.data["index"])
        sampled = int(rng.integers(len(configs)))
        for i, (config, seed, report) in enumerate(zip(configs, seeds, rnd.data["reports"])):
            lane = refmodel.lane_for(*quantize(config), sc)
            found = checks.check_fitness(report, sc.sessions)
            if report.config != config:
                found.append(f"report for {report.config} scored in place of {config}")
            for outcome in report.replications:
                found += checks.check_outcome_bounds(outcome, lane)
            if i == sampled:
                j = int(rng.integers(HIGHWAY_REPLICATIONS))
                found += check_replication(report.replications[j], lane, replication_seeds(seed, HIGHWAY_REPLICATIONS)[j])
            if found:
                failed += 1
                problems += found
        lane = refmodel.lane_for(*quantize(event_config), sc)
        found = checks.check_events(rnd.data["events"], rnd.data["outcome"], lane, event_seed, rnd.data["index"])
        found += checks.check_event_csv(rnd.data["path"], rnd.data["events"])
        if found:
            failed += 1
            problems += found
        else:
            rnd.data["path"].unlink()
        return failed, problems


# --- optimizers_sphere -------------------------------------------------------

SPHERE_BUDGET = 1000
SPHERE_DIMS = 3


class OptimizersSphere(Workload):
    name = "optimizers_sphere"
    ops_per_round = (len(optimizers.ALGORITHMS) + 1) * SPHERE_BUDGET

    def __init__(self, seed, out_dir, workers=1):
        super().__init__(seed, out_dir, workers)
        self.bounds = benchfuncs.bench_bounds(SPHERE_DIMS)
        self.sphere = benchfuncs.get_function("sphere")

    def warm_up(self):
        for alg in optimizers.ALGORITHMS:
            optimizers.run(optimizers.OptimizerParams(alg), self.sphere, self.bounds, seed=0, max_evaluations=40)
        benchfuncs.random_search(self.sphere, self.bounds, seed=0, max_evaluations=40)

    def run_round(self, index, tracer=None):
        rng = round_rng(self.seed, 4)
        seeds = [int(s) for s in rng.integers(0, 2**63, size=len(optimizers.ALGORITHMS) + 1)]
        records, per_alg = [], {}
        for alg, seed in zip(optimizers.ALGORITHMS + ("random",), seeds):
            start = time.perf_counter()
            if alg == "random":
                rec = benchfuncs.random_search(self.sphere, self.bounds, seed=seed, max_evaluations=SPHERE_BUDGET)
            else:
                rec = optimizers.run(optimizers.OptimizerParams(alg), self.sphere, self.bounds,
                                     seed=seed, max_evaluations=SPHERE_BUDGET)
            per_alg[alg] = time.perf_counter() - start
            self.pace(per_alg[alg])
            records.append(rec)
        evals = len(records) * SPHERE_BUDGET
        return Round(evals, evals, 0, list(per_alg.values()), {"records": records, "per_alg": per_alg})

    def check(self, rnd):
        failed, problems = 0, []
        lo, hi = self.bounds.lower[0], self.bounds.upper[0]
        for rec in rnd.data["records"]:
            found = checks.check_sphere(rec, SPHERE_BUDGET, lo, hi)
            if found:
                failed += SPHERE_BUDGET
                problems += found
        return failed, problems


WORKLOADS = {w.name: w for w in (CampaignUrban, ScoreHighway, OptimizersSphere)}
