"""Multi-seed experiment orchestration with per-run checkpointing.

Every optimizer run on the simulation objective, in a campaign, a sweep or a
single tune, is a named cell executed by `run_cells`. Run i of every
algorithm shares one derived seed, which is what makes the paired
signed-rank comparison by run index legitimate. Each run is written as a
JSON checkpoint as soon as it finishes, in whichever process ran it, so
re-running the same command after a failure or an interrupt picks up where
it stopped.
Each checkpoint carries a fingerprint of the run's inputs, and a checkpoint
written under different inputs is refused, not resumed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .. import optimizers
from ..cfgfile import field_values, read_cfg
from ..fitness import _SeedPool, make_objective
from ..optimizers import ALGORITHMS, OptimizerParams, RunRecord
from ..sim.scenario import Scenario, load_scenario, preset
from ..space import DEFAULT_BOUNDS
from ..stats import FriedmanTable, PairedTestResult, SampleSummary, friedman_ranks, summarize, wilcoxon_signed_rank

__all__ = [
    "CampaignResult",
    "ExperimentConfig",
    "load_experiment_config",
    "parse_algorithms",
    "resolve_scenario",
    "run_campaign",
    "run_cells",
    "run_seed",
    "qos_seed",
]


def run_seed(master_seed: int, run_index: int) -> int:
    """Seed for run i, shared across algorithms (pairing by run index): the
    first uint64 word of SeedSequence(master_seed, spawn_key=(i,))."""
    return int(_SeedPool(master_seed, (int(run_index),)).word())


def qos_seed(master_seed: int) -> int:
    """Seed for post-campaign scoring runs, the first uint64 word of
    SeedSequence(master_seed, spawn_key=(1, 0)); the two-element spawn key
    keeps it disjoint from every run stream."""
    return int(_SeedPool(master_seed, (1, 0)).word())


def resolve_scenario(name_or_path) -> Scenario:
    """A path to a scenario .cfg file, or else a preset name; a directory
    named like a preset, such as an output directory, does not shadow it.
    A name that ends in .cfg or holds a path separator names a file."""
    if isinstance(name_or_path, Scenario):
        return name_or_path
    text = str(name_or_path)
    if os.path.isfile(text):
        return load_scenario(text)
    if text.endswith(".cfg") or Path(text).name != text:
        raise ValueError(f"scenario file {text!r} not found")
    return preset(text)


def _default_algorithms() -> tuple:
    return tuple(OptimizerParams(name) for name in ALGORITHMS)


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str = "urban"
    algorithms: tuple = field(default_factory=_default_algorithms)
    runs: int = 30
    max_evaluations: int = 1000
    replications: int = 10
    master_seed: int = 1
    output_dir: str = "results"
    workers: int = 1

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.max_evaluations < 1:
            raise ValueError("max_evaluations must be >= 1")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not self.algorithms:
            raise ValueError("need at least one algorithm")
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        names = [p.algorithm for p in self.algorithms]
        if len(set(names)) != len(names):
            raise ValueError("algorithm list contains duplicates")

    @property
    def algorithm_names(self) -> tuple:
        return tuple(p.algorithm for p in self.algorithms)


def parse_algorithms(text: str) -> tuple:
    """Algorithm names from a comma-separated list."""
    return tuple(t.strip().lower() for t in text.split(",") if t.strip())


def load_experiment_config(path, algorithms=None, **overrides) -> ExperimentConfig:
    """Experiment description from a .cfg file.

    [campaign] holds ExperimentConfig fields, `algorithms` as a comma list; a
    section per algorithm holds the OptimizerParams knobs it reads; other
    sections, keys and knobs are refused, listed algorithms or not.
    `algorithms` names replace the file's list but keep its knob sections.
    Keyword overrides win over file values.
    """
    cp = read_cfg(path)
    if not cp.has_section("campaign"):
        raise ValueError(f"{path}: missing [campaign] section")
    tuned = {}
    for section in cp.sections():
        if section in ALGORITHMS:
            source = f"{path} [{section}]"
            knobs = field_values(OptimizerParams, cp[section], source, exclude=("algorithm",))
            try:
                tuned[section] = OptimizerParams(section, **knobs)
            except ValueError as exc:
                raise ValueError(f"{source}: {exc}") from exc
        elif section != "campaign":
            raise ValueError(f"{path}: unknown section [{section}]; known: campaign, {', '.join(ALGORITHMS)}")
    campaign = dict(cp["campaign"])
    listed = parse_algorithms(campaign.pop("algorithms", ",".join(ALGORITHMS)))
    kwargs = field_values(ExperimentConfig, campaign, f"{path} [campaign]")
    names = listed if algorithms is None else algorithms
    kwargs["algorithms"] = tuple(tuned[name] if name in tuned else OptimizerParams(name) for name in names)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


# --- checkpoint serialization ------------------------------------------------


def record_to_dict(rec: RunRecord) -> dict:
    return {
        "algorithm": rec.algorithm,
        "seed": rec.seed,
        "best_position": [float(v) for v in rec.best_position],
        "trace": [[int(i), float(f)] for i, f in rec.trace],
    }


def record_from_dict(data: dict) -> RunRecord:
    """The record of a checkpoint's dict; other keys, such as the derived
    figures and clocks older checkpoints hold, are ignored."""
    return RunRecord(
        algorithm=data["algorithm"],
        seed=int(data["seed"]),
        best_position=np.array(data["best_position"], dtype=float),
        trace=tuple((int(i), float(f)) for i, f in data["trace"]),
    )


def _run_fingerprint(scenario: Scenario, params: OptimizerParams, config: ExperimentConfig, seed: int) -> str:
    """sha256 over the inputs a run's record depends on."""
    inputs = {
        "scenario": dataclasses.asdict(scenario),
        # the removed `generations` cap stays in the hash, so checkpoints on disk still resume
        "params": {**dataclasses.asdict(params), "generations": None},
        "max_evaluations": config.max_evaluations,
        "replications": config.replications,
        "seed": seed,
    }
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()


def _save_checkpoint(path: Path, rec: RunRecord, fingerprint: str) -> None:
    tmp = path.with_suffix(".tmp")
    # json.dumps runs the C encoder; json.dump streams through the pure-Python one
    text = json.dumps(dict(record_to_dict(rec), fingerprint=fingerprint), sort_keys=True)
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _load_checkpoint(path: Path, fingerprint: str) -> RunRecord:
    try:
        with open(path) as fh:
            data = json.load(fh)
        rec = record_from_dict(data)
        if not rec.trace:
            raise ValueError("empty trace")
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(
            f"checkpoint {path} is damaged ({type(exc).__name__}: {exc}); "
            "delete it to run its cell again, or use another output directory"
        ) from exc
    if data.get("fingerprint") != fingerprint:
        raise ValueError(
            f"checkpoint {path} was not written under this scenario, optimizer "
            "settings, budget, replications and seed; use another output directory"
        )
    return rec


# --- execution ---------------------------------------------------------------


def _cell_run(params, scenario, replications, seed, max_evaluations, objective_factory=None):
    """One cell's optimizer run, as a generator for optimizers.lockstep."""
    score = (objective_factory or make_objective)(scenario, replications, seed)
    return optimizers.run_steps(params, score, DEFAULT_BOUNDS, seed=seed, max_evaluations=max_evaluations)


def run_cells(config: ExperimentConfig, cells, objective_factory=None, progress=None) -> list:
    """Records of `cells`, (name, params, seed) triples, in cell order.

    Cell `name` lands in `checkpoints/run_<name>.json` under the output
    directory; an existing checkpoint is resumed if its fingerprint matches
    and refused if not. Cells with equal fingerprints (twins, such as a value
    listed twice in a sweep grid) give one record: it runs once, or is read
    from any twin's checkpoint, and lands in every twin's checkpoint.
    The rest run in lockstep (optimizers.lockstep): one tick advances every
    live run to its next batch and scores the batches of all of them in one
    simulate_batch call. A run lands as it finishes, and runs that finish in
    the same tick land in cell order. With `config.workers` > 1 the pending
    runs are dealt round-robin into one share per worker process, which
    runs `run_cells` on it with workers=1: its runs go in lockstep and each
    writes its checkpoint as it finishes. The share lands here, in cell
    order, when all of it is done. Landing writes every twin's checkpoint
    that does not exist yet. Either way a run that raises, or an interrupt,
    loses only the runs that had not finished, and re-running resumes the
    rest.
    `objective_factory(scenario, replications, seed)` returns a batch
    objective, a function of a (k, 3) array of physical points that returns
    their k fitnesses or a fitness.PendingFitness request for them, which
    the tick scores; it defaults to the simulation-backed `make_objective`,
    and tests inject cheap stand-ins, whose fitnesses their runs read inside
    the tick that asks for them.
    `progress(name, record)` is called as each cell lands.
    """
    scenario = resolve_scenario(config.scenario)
    ckpt_dir = Path(config.output_dir) / "checkpoints"
    ckpt_dir.mkdir(parents=True, exist_ok=True)

    twins = {}  # fingerprint -> indices of its cells
    for k, (_, params, seed) in enumerate(cells):
        twins.setdefault(_run_fingerprint(scenario, params, config, seed), []).append(k)
    records = [None] * len(cells)

    def path(k):
        return ckpt_dir / f"run_{cells[k][0]}.json"

    def land(fingerprint, rec):
        for k in twins[fingerprint]:
            if records[k] is None:
                records[k] = rec
                if not path(k).exists():  # a share's worker wrote its own cells'
                    _save_checkpoint(path(k), rec, fingerprint)
                if progress is not None:
                    progress(cells[k][0], rec)

    pending = []  # fingerprints no twin has a checkpoint for
    for fingerprint, ks in twins.items():
        for k in ks:
            if path(k).exists():
                records[k] = _load_checkpoint(path(k), fingerprint)
        saved = [records[k] for k in ks if records[k] is not None]
        if saved:
            land(fingerprint, saved[0])
        else:
            pending.append(fingerprint)

    firsts = [cells[twins[fingerprint][0]] for fingerprint in pending]
    if config.workers == 1 or len(pending) <= 1:
        runs = [
            _cell_run(params, scenario, config.replications, seed, config.max_evaluations, objective_factory)
            for _, params, seed in firsts
        ]
        for k, rec in optimizers.lockstep(runs):
            land(pending[k], rec)
    else:
        # imported here: loading the pool machinery costs every process that never uses it
        from concurrent.futures import ProcessPoolExecutor, as_completed

        shares = [range(w, len(pending), config.workers) for w in range(min(config.workers, len(pending)))]
        alone = dataclasses.replace(config, workers=1)
        with ProcessPoolExecutor(max_workers=len(shares)) as pool:
            futures = {
                pool.submit(run_cells, alone, [firsts[k] for k in share], objective_factory): share
                for share in shares
            }
            for fut in as_completed(futures):
                for k, rec in zip(futures[fut], fut.result()):
                    land(pending[k], rec)
    return records


@dataclass(frozen=True)
class CampaignResult:
    config: ExperimentConfig
    scenario: Scenario
    records: dict  # algorithm -> tuple of RunRecord ordered by run index
    summaries: dict  # algorithm -> SampleSummary of best fitnesses
    tests: dict  # (alg_a, alg_b) -> PairedTestResult, a before b in config order
    friedman: FriedmanTable | None

    def fitness_samples(self, algorithm: str):
        return [rec.best_fitness for rec in self.records[algorithm]]

    def best_record(self, algorithm: str) -> RunRecord:
        return min(self.records[algorithm], key=lambda r: r.best_fitness)


def _assemble(config: ExperimentConfig, scenario: Scenario, records: dict) -> CampaignResult:
    names = config.algorithm_names
    samples = {a: [r.best_fitness for r in records[a]] for a in names}
    summaries = {a: summarize(samples[a]) for a in names}

    tests = {}
    friedman = None
    if config.runs >= 2:
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                tests[(a, b)] = wilcoxon_signed_rank(samples[a], samples[b])
        if len(names) >= 2:
            blocks = [[samples[a][i] for a in names] for i in range(config.runs)]
            friedman = friedman_ranks(blocks)

    return CampaignResult(
        config=config,
        scenario=scenario,
        records={a: tuple(records[a]) for a in names},
        summaries=summaries,
        tests=tests,
        friedman=friedman,
    )


def run_campaign(config: ExperimentConfig, objective_factory=None, progress=None) -> CampaignResult:
    """Runs the full runs x algorithms grid through `run_cells`, cell
    `<algorithm>_<run index>` on seed `run_seed(master_seed, run index)`."""
    cells = [
        (f"{params.algorithm}_{i}", params, run_seed(config.master_seed, i))
        for params in config.algorithms
        for i in range(config.runs)
    ]
    recs = iter(run_cells(config, cells, objective_factory, progress))
    records = {a: [next(recs) for _ in range(config.runs)] for a in config.algorithm_names}
    return _assemble(config, resolve_scenario(config.scenario), records)
