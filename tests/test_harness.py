import ast
import concurrent.futures
import dataclasses
import hashlib
import importlib
import importlib.util
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import brute_force_signed_rank_p

import vdtptune
from vdtptune import fitness
from vdtptune.fitness import make_objective
from vdtptune.harness import campaign, cli, reports
from vdtptune.harness.benchfuncs import (
    bench_bounds,
    get_function,
    random_search,
    rastrigin,
    rosenbrock,
    sphere,
)
from vdtptune.harness.campaign import (
    ExperimentConfig,
    _cell_run,
    _load_checkpoint,
    _run_fingerprint,
    _save_checkpoint,
    load_experiment_config,
    qos_seed,
    record_from_dict,
    record_to_dict,
    resolve_scenario,
    run_campaign,
    run_cells,
    run_seed,
)
from vdtptune.harness.reports import (
    QOS_HEADER,
    TESTS_HEADER,
    qos_rows,
    read_csv,
    render_qos,
    render_ranks,
    render_summary,
    render_tests,
    trace_filename,
    write_campaign_outputs,
    write_csv,
    write_trace_csv,
)
from vdtptune.harness.sweep import parse_grid, render_sweep, run_sweep, sweep_rows
from vdtptune.optimizers import ALGORITHMS, OptimizerParams, RunRecord, lockstep, run_steps
from vdtptune.sim import scenario as scenario_module
from vdtptune.sim import transfer
from vdtptune.sim.scenario import Scenario, load_scenario, preset
from vdtptune.space import DEFAULT_BOUNDS


def per_point(factory):
    """A stub factory of one-point objectives as the factory of batch
    objectives campaigns take: each scores a batch row by row."""

    def batch_factory(scenario, replications, seed):
        objective = factory(scenario, replications, seed)
        return lambda points: [objective(x) for x in points]

    return batch_factory


@per_point
def cheap_factory(scenario, replications, seed):
    """Deterministic stand-in for the simulation objective."""
    rng = np.random.default_rng(seed)

    def objective(x):
        x = np.asarray(x, dtype=float)
        return float(np.sum((x / 1000.0) ** 2)) + float(rng.random())

    return objective


@per_point
def constant_factory(scenario, replications, seed):
    return lambda x: 1.0


def sweep_config(tmp_path, algorithm, **kw):
    defaults = dict(runs=2, max_evaluations=30, replications=1, master_seed=1, output_dir=str(tmp_path / "sweep"))
    defaults.update(kw)
    return ExperimentConfig(scenario="urban", algorithms=(OptimizerParams(algorithm),), **defaults)


def checkpoint_bytes(out_dir):
    """Name -> bytes of every file in a campaign's checkpoints directory."""
    return {p.name: p.read_bytes() for p in sorted((Path(out_dir) / "checkpoints").iterdir())}


def tiny_config(tmp_path, **kw):
    defaults = dict(
        scenario="urban",
        algorithms=(OptimizerParams("pso"), OptimizerParams("ga")),
        runs=4,
        max_evaluations=30,
        replications=1,
        master_seed=5,
        output_dir=str(tmp_path / "out"),
        workers=1,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


# --- benchmark functions ------------------------------------------------------


def test_benchmark_identities():
    assert sphere(np.zeros(4)) == 0.0
    assert sphere([1.0, 2.0]) == 5.0
    assert rosenbrock(np.ones(5)) == 0.0
    assert rosenbrock([0.0, 0.0]) == 1.0
    assert rastrigin(np.zeros(3)) == 0.0
    assert rastrigin([1.0]) == pytest.approx(1.0)


def test_get_function_lookup():
    assert get_function("Sphere") is sphere
    with pytest.raises(ValueError):
        get_function("ackley")


def test_bench_bounds_box():
    b = bench_bounds(4)
    assert b.dim == 4
    assert b.lower == (-5.0,) * 4
    with pytest.raises(ValueError):
        bench_bounds(0)


def test_random_search_budget_and_determinism():
    rec = random_search(sphere, bench_bounds(3), seed=3, max_evaluations=120)
    again = random_search(sphere, bench_bounds(3), seed=3, max_evaluations=120)
    assert rec.algorithm == "random"
    assert rec.evaluations == 120
    assert len(rec.trace) == 120
    assert rec.trace == again.trace


# --- seed derivation ----------------------------------------------------------


def test_run_seed_matches_seed_sequence():
    expect = int(np.random.SeedSequence(1, spawn_key=(4,)).generate_state(1, np.uint64)[0])
    assert run_seed(1, 4) == expect
    assert run_seed(1, 4) != run_seed(1, 5)
    assert run_seed(1, 4) != run_seed(2, 4)


def test_qos_seed_matches_seed_sequence():
    assert qos_seed(3) == int(np.random.SeedSequence(3, spawn_key=(1, 0)).generate_state(1, np.uint64)[0])


def test_qos_seed_disjoint_from_run_seeds():
    assert qos_seed(1) not in {run_seed(1, i) for i in range(100)}


# --- experiment config --------------------------------------------------------


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(runs=0)
    with pytest.raises(ValueError):
        ExperimentConfig(replications=0)
    with pytest.raises(ValueError):
        ExperimentConfig(workers=0)
    with pytest.raises(ValueError):
        ExperimentConfig(algorithms=())
    with pytest.raises(ValueError):
        ExperimentConfig(algorithms=(OptimizerParams("pso"), OptimizerParams("pso")))
    with pytest.raises(ValueError, match="max_evaluations must be >= 1"):
        ExperimentConfig(max_evaluations=0)
    with pytest.raises(ValueError, match="master_seed must be >= 0"):
        ExperimentConfig(master_seed=-1)


def test_experiment_config_names_in_order():
    cfg = ExperimentConfig(algorithms=(OptimizerParams("sa"), OptimizerParams("de")))
    assert cfg.algorithm_names == ("sa", "de")


def test_load_experiment_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "[campaign]\n"
        "scenario = highway\n"
        "algorithms = pso, de\n"
        "runs = 7\n"
        "max_evaluations = 40\n"
        "replications = 2\n"
        "master_seed = 9\n"
        "[de]\n"
        "population_size = 8\n"
        "cr = 0.5\n"
    )
    cfg = load_experiment_config(path)
    assert cfg.scenario == "highway"
    assert cfg.runs == 7
    assert cfg.max_evaluations == 40
    assert cfg.algorithm_names == ("pso", "de")
    de = cfg.algorithms[1]
    assert de.population_size == 8
    assert de.cr == 0.5
    assert cfg.algorithms[0].population_size == 20  # untouched defaults

    over = load_experiment_config(path, runs=3, scenario="urban")
    assert over.runs == 3
    assert over.scenario == "urban"


def test_load_experiment_config_errors(tmp_path):
    missing = tmp_path / "nope.cfg"
    with pytest.raises(ValueError):
        load_experiment_config(missing)
    bad = tmp_path / "bad.cfg"
    bad.write_text("[other]\nx = 1\n")
    with pytest.raises(ValueError):
        load_experiment_config(bad)
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("[campaign]\nalgorithms = pso\n[pso]\nwarp = 3\n")
    with pytest.raises(ValueError):
        load_experiment_config(unknown)


@pytest.mark.parametrize(
    "text,named",
    [
        ("[campaign]\nmax_evaluation = 50\n", "[campaign]: unknown key 'max_evaluation'"),
        ("[campaign]\nalgorithms = pso\n[psoo]\nw = 0.3\n", "unknown section [psoo]"),
        ("[campaign]\nalgorithms = pso\n[pso]\nalgorithm = de\n", "[pso]: unknown key 'algorithm'"),
        ("[campaign]\nruns = many\n", "[campaign]: runs = 'many' is not a valid int"),
        ("[campaign]\nalgorithms = ga\n[ga]\ngenerations = 3\n", "[ga]: unknown key 'generations'"),
    ],
    ids=["campaign_key", "section", "knob_key", "value", "generations"],
)
def test_load_experiment_config_refuses_misspelt_input(tmp_path, text, named):
    path = tmp_path / "typo.cfg"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        load_experiment_config(path)
    assert str(err.value).startswith(str(path))
    assert named in str(err.value)


def test_load_experiment_config_algorithm_names_keep_file_knobs(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("[campaign]\nalgorithms = ga, sa\n[pso]\npopulation_size = 8\nw = 0.3\n[es]\nmu_es = 2\n")
    cfg = load_experiment_config(path, ("pso", "de"))
    assert cfg.algorithms == (OptimizerParams("pso", population_size=8, w=0.3), OptimizerParams("de"))


def test_resolve_scenario_paths_and_presets(tmp_path, monkeypatch):
    assert resolve_scenario("urban").name == "urban"
    sc = preset("highway")
    assert resolve_scenario(sc) is sc
    path = tmp_path / "s.cfg"
    path.write_text("[scenario]\nname = filebased\n")
    assert resolve_scenario(str(path)).name == "filebased"
    with pytest.raises(ValueError, match="unknown scenario preset 'atlantis'"):
        resolve_scenario("atlantis")
    # a name that reads as a file is not taken for a preset
    for name in ("nofile.cfg", str(tmp_path / "urban"), "urban/"):
        with pytest.raises(ValueError, match=re.escape(f"scenario file {name!r} not found")):
            resolve_scenario(name)
    # a directory named like a preset, such as an output directory, does not shadow it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "urban").mkdir()
    assert resolve_scenario("urban") == preset("urban")
    assert resolve_scenario("s.cfg").name == "filebased"


# --- campaign execution -------------------------------------------------------


def test_campaign_shapes_and_pairing(tmp_path):
    cfg = tiny_config(tmp_path)
    result = run_campaign(cfg, objective_factory=cheap_factory)

    assert set(result.records) == {"pso", "ga"}
    for a in ("pso", "ga"):
        assert len(result.records[a]) == 4
        for i, rec in enumerate(result.records[a]):
            assert rec.evaluations == 30
            assert rec.seed == run_seed(5, i)
    # run i shares one seed across algorithms: that is what pairs the test
    for i in range(4):
        assert result.records["pso"][i].seed == result.records["ga"][i].seed

    assert set(result.summaries) == {"pso", "ga"}
    assert list(result.tests) == [("pso", "ga")]
    assert result.friedman is not None
    assert result.friedman.blocks == 4
    assert result.fitness_samples("pso") == [r.best_fitness for r in result.records["pso"]]
    best = result.best_record("ga")
    assert best.best_fitness == min(r.best_fitness for r in result.records["ga"])


def test_campaign_is_deterministic_across_fresh_dirs(tmp_path):
    r1 = run_campaign(tiny_config(tmp_path / "a"), objective_factory=cheap_factory)
    r2 = run_campaign(tiny_config(tmp_path / "b"), objective_factory=cheap_factory)
    for a in ("pso", "ga"):
        for x, y in zip(r1.records[a], r2.records[a]):
            assert x.trace == y.trace
            assert x.best_fitness == y.best_fitness
            assert np.array_equal(x.best_position, y.best_position)
    ckpt = checkpoint_bytes(r1.config.output_dir)
    assert len(ckpt) == 8 and ckpt == checkpoint_bytes(r2.config.output_dir)


def test_campaign_resumes_from_checkpoints(tmp_path):
    calls = []

    def counting_factory(scenario, replications, seed):
        calls.append(seed)
        return cheap_factory(scenario, replications, seed)

    cfg = tiny_config(tmp_path)
    first = run_campaign(cfg, objective_factory=counting_factory)
    assert len(calls) == 8  # 2 algorithms x 4 runs

    ckpt = Path(cfg.output_dir) / "checkpoints" / "run_ga_2.json"
    assert ckpt.exists()
    ckpt.unlink()
    calls.clear()
    second = run_campaign(cfg, objective_factory=counting_factory)
    assert len(calls) == 1  # only the deleted run re-executes
    for a in ("pso", "ga"):
        for x, y in zip(first.records[a], second.records[a]):
            assert x.trace == y.trace


def test_campaign_parses_its_preset_once(tmp_path, monkeypatch):
    parsed = []

    def counting_load(path):
        parsed.append(Path(path).name)
        return load_scenario(path)

    scenario_module._load_preset.cache_clear()
    monkeypatch.setattr(scenario_module, "load_scenario", counting_load)
    run_campaign(tiny_config(tmp_path), objective_factory=cheap_factory)
    run_sweep(sweep_config(tmp_path, "pso", runs=1), parse_grid("w = 0.3\n"), objective_factory=cheap_factory)
    assert parsed == ["urban.cfg"]
    assert preset("urban") is preset("Urban_A1")


def test_campaign_refuses_checkpoints_of_another_config(tmp_path):
    urban = tiny_config(tmp_path, runs=2, max_evaluations=50)
    run_campaign(urban, objective_factory=cheap_factory)
    highway = tiny_config(tmp_path, scenario="highway", runs=2, max_evaluations=400)
    with pytest.raises(ValueError, match="run_pso_0.json"):
        run_campaign(highway, objective_factory=cheap_factory)


def test_cli_refuses_checkpoint_without_fingerprint(tmp_path, capsys):
    ckpt_dir = tmp_path / "out" / "checkpoints"
    ckpt_dir.mkdir(parents=True)
    ((_, rec),) = lockstep([_cell_run(OptimizerParams("pso"), preset("urban"), 1, 7, 5, cheap_factory)])
    (ckpt_dir / "run_pso_0.json").write_text(json.dumps(record_to_dict(rec)))
    rc = cli.main([
        "compare", "--algorithms", "pso,ga", "--runs", "1", "--budget", "5",
        "--replications", "1", "--out", str(tmp_path / "out"),
    ])
    assert rc == 1
    assert "run_pso_0.json" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["truncated", "no trace", "empty trace"])
def test_cli_refuses_damaged_checkpoint(tmp_path, capsys, damage):
    """A checkpoint that does not parse back to a record is refused like one
    of other inputs: exit 1, naming the file, not a runtime failure."""
    args = ["tune", "--algorithm", "pso", "--seed", "3", "--budget", "5", "--replications", "1",
            "--out", str(tmp_path)]
    assert run_cli(args) == 0
    ckpt = tmp_path / "checkpoints" / "run_pso_0.json"
    data = json.loads(ckpt.read_text())
    if damage == "truncated":
        ckpt.write_text(ckpt.read_text()[:24])
    elif damage == "no trace":
        del data["trace"]
        ckpt.write_text(json.dumps(data))
    else:
        ckpt.write_text(json.dumps(dict(data, trace=[])))
    capsys.readouterr()
    assert run_cli(args) == 1
    err = capsys.readouterr().err
    assert str(ckpt) in err and "damaged" in err


# written by the code that still stored the figures a trace gives and two clocks
OLD_FORMAT_CHECKPOINT = (
    '{"algorithm": "sa", "best_eval_index": 4, "best_fitness": 0.5120792831012138, "best_position": '
    '[366533.9483844918, 44.40954482190086, 8.59920595509369], "evaluations": 6, "fingerprint": '
    '"1bcf085c1888618f8ac446c689f773daea8d39d10ebf27e604134d9bd9109168", "seed": 1, "time_to_best_s": '
    '0.003518549994623754, "trace": [[1, 0.9009377075406845], [2, 0.9009377075406845], [3, '
    '0.9009377075406845], [4, 0.5120792831012138], [5, 0.5120792831012138], [6, 0.5120792831012138]], '
    '"wall_time_s": 0.0034235079947393388}'
)


def test_old_format_checkpoint_resumes_without_rerun(tmp_path, monkeypatch):
    """An old-format checkpoint resumes to the record a fresh run gives and
    is not run again; it is read, not rewritten."""
    cell = ("sa_0", OptimizerParams("sa"), 1)
    fresh_config = ExperimentConfig(max_evaluations=6, replications=1, output_dir=str(tmp_path / "fresh"))
    (fresh,) = run_cells(fresh_config, [cell])
    config = ExperimentConfig(max_evaluations=6, replications=1, output_dir=str(tmp_path / "old"))
    ckpt_dir = tmp_path / "old" / "checkpoints"
    ckpt_dir.mkdir(parents=True)
    (ckpt_dir / "run_sa_0.json").write_text(OLD_FORMAT_CHECKPOINT)
    ran = []
    monkeypatch.setattr(campaign, "_cell_run", lambda *args: ran.append(args))
    (rec,) = run_cells(config, [cell])
    assert ran == []
    assert_same_run(rec, fresh, "old format")
    old = json.loads(OLD_FORMAT_CHECKPOINT)
    assert (rec.best_fitness, rec.evaluations, rec.best_eval_index) == (
        old["best_fitness"], old["evaluations"], old["best_eval_index"])
    assert (ckpt_dir / "run_sa_0.json").read_text() == OLD_FORMAT_CHECKPOINT


def test_run_fingerprint_pinned():
    # checkpoints already on disk resume only while this digest holds
    fp = _run_fingerprint(
        preset("urban"), OptimizerParams("pso"), ExperimentConfig(max_evaluations=20, replications=1), run_seed(2, 0)
    )
    assert fp == "22875d6538f6319a545d94981874f87951d5a3f3c2693510a047eac6972c160e"


def test_checkpoint_bytes_pinned(tmp_path):
    # a checkpoint on disk is read back by resume; its text must not drift
    rec = RunRecord(
        algorithm="de",
        seed=2**63 + 11,
        best_position=np.array([1536.0, 3.0, 0.1 + 0.2]),
        trace=((0, 12.5), (7, 2 / 3), (19, 1e-17)),
    )
    path = tmp_path / "run_de_0.json"
    _save_checkpoint(path, rec, "f" * 64)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == "e335d456434f6afb22218b2b222b8db3f63f083b1c1205c9ffb77e508b87e3dd"
    assert record_to_dict(_load_checkpoint(path, "f" * 64)) == record_to_dict(rec)


def test_campaign_parallel_matches_sequential(tmp_path):
    seq = tiny_config(tmp_path / "seq", runs=2, max_evaluations=20)
    par = tiny_config(tmp_path / "par", runs=2, max_evaluations=20, workers=2)
    r_seq = run_campaign(seq)  # real simulation objective, tiny budget
    r_par = run_campaign(par)
    for a in ("pso", "ga"):
        for x, y in zip(r_seq.records[a], r_par.records[a]):
            assert x.trace == y.trace
            assert np.array_equal(x.best_position, y.best_position)
    # checkpoints are byte for byte the same, also when half of them are resumed
    half = tiny_config(tmp_path / "half", runs=2, max_evaluations=20)
    ckpt = checkpoint_bytes(seq.output_dir)
    (Path(half.output_dir) / "checkpoints").mkdir(parents=True)
    for name in list(ckpt)[::2]:
        (Path(half.output_dir) / "checkpoints" / name).write_bytes(ckpt[name])
    run_campaign(half)
    assert len(ckpt) == 4
    assert checkpoint_bytes(par.output_dir) == ckpt
    assert checkpoint_bytes(half.output_dir) == ckpt


def count_calls(monkeypatch, module, calls):
    """Appends the row count of each simulate_batch call made through `module` to `calls`."""
    real = module.simulate_batch

    def counted(configs, *rest):
        calls.append(len(configs))
        return real(configs, *rest)

    monkeypatch.setattr(module, "simulate_batch", counted)


def assert_same_run(got, alone, what):
    """Field for field."""
    for f in dataclasses.fields(RunRecord):
        if f.name == "best_position":
            assert np.array_equal(got.best_position, alone.best_position), what
        else:
            assert getattr(got, f.name) == getattr(alone, f.name), (what, f.name)


def test_cells_in_lockstep_match_each_cell_alone(tmp_path, monkeypatch):
    """run_cells drives its cells together; each record is the one
    _cell_run gives on the cell alone. The cells hold the five algorithms
    at stock settings, steady-state GA and plus-selection ES on make_objective,
    a twin of the first, and a cell resumed from its checkpoint."""
    config = ExperimentConfig(max_evaluations=40, replications=1, output_dir=str(tmp_path))
    variants = [OptimizerParams(a) for a in ALGORITHMS]
    variants += [OptimizerParams("ga", ga_variant="steady"), OptimizerParams("es", es_selection="plus")]
    cells = [(f"cell_{k}", params, run_seed(3, k)) for k, params in enumerate(variants)]
    cells.append(("twin", cells[0][1], cells[0][2]))
    run_cells(config, [cells[1]])
    ran, real = [], campaign._cell_run

    def spy(params, scenario, replications, seed, *rest):
        ran.append(seed)
        return real(params, scenario, replications, seed, *rest)

    monkeypatch.setattr(campaign, "_cell_run", spy)
    records = run_cells(config, cells)
    # the resumed cell is read and the twin shares its first cell's run
    assert ran == [seed for k, (_, _, seed) in enumerate(cells[:-1]) if k != 1]
    assert records[-1] is records[0]
    for (name, params, seed), rec in zip(cells, records):
        ((_, alone),) = lockstep([_cell_run(params, preset("urban"), 1, seed, 40)])
        assert_same_run(rec, alone, name)


def test_campaign_scores_each_tick_in_one_call(tmp_path, monkeypatch):
    """The benchmark's campaign_urban shape: its 10 cells hand over 60
    batches in 21 ticks (SA's 21 batches), so the search makes 21
    simulate_batch calls, and QoS re-scoring one per row; the CSVs keep the
    benchmark's artifact fingerprint."""
    search, qos = [], []
    count_calls(monkeypatch, fitness, search)
    count_calls(monkeypatch, transfer, qos)
    config = ExperimentConfig(runs=2, max_evaluations=40, replications=1, master_seed=1, output_dir=str(tmp_path))
    write_campaign_outputs(run_campaign(config), tmp_path)
    assert len(search) == 21 and sum(search) == 400
    assert search[:3] == [2 * (20 + 20 + 20 + 4 + 1), 2 * (20 + 20 + 20 + 20 + 20), 2 * (16 + 1)]
    assert qos == [1] * 6
    assert csv_digest(tmp_path) == "ab7d563e66fac490f92832a95ffb3d59222c0dcdaca9d7f6796fa1b79fd780d4"


def test_stand_in_objectives_run_inside_ticks(monkeypatch):
    """A per_point stand-in returns a list, which its run reads inline within
    the tick that asks for it, next to make_objective's requests; every
    run gets the record it gets alone, and only the pending ones are sent to
    simulate_batch."""
    calls = []
    count_calls(monkeypatch, fitness, calls)
    jobs = [(OptimizerParams("pso"), cheap_factory, 4), (OptimizerParams("sa"), make_objective, 5),
            (OptimizerParams("ga"), cheap_factory, 6), (OptimizerParams("de"), make_objective, 7)]
    runs = [run_steps(p, factory(preset("urban"), 1, seed), DEFAULT_BOUNDS, seed, 40) for p, factory, seed in jobs]
    together = dict(lockstep(runs))
    assert len(calls) == 21 and calls[0] == 1 + 20
    for k, (params, factory, seed) in enumerate(jobs):
        ((_, alone),) = lockstep([_cell_run(params, preset("urban"), 1, seed, 40, factory)])
        assert_same_run(together[k], alone, params.algorithm)


def test_miscounting_scorer_fails_run_cells_after_earlier_cells_land(tmp_path):
    """SA's fifth batch comes back one fitness short: run_cells raises
    ValueError, and PSO, listed after SA but finished in tick 3, has landed
    with its checkpoint."""

    def factory(scenario, replications, seed):
        objective = make_objective(scenario, replications, seed)
        batches = []

        def score(points):
            batches.append(points)
            request = objective(points)
            return fitness.resolve([request])[0][1:] if seed == 2 and len(batches) == 5 else request

        return score

    config = tiny_config(tmp_path, max_evaluations=40)
    with pytest.raises(ValueError):
        run_cells(config, [("sa_0", OptimizerParams("sa"), 2), ("pso_0", OptimizerParams("pso"), 1)], factory)
    ckpt_dir = Path(config.output_dir) / "checkpoints"
    assert [p.name for p in ckpt_dir.glob("run_*.json")] == ["run_pso_0.json"]


@pytest.fixture
def inline_pool(monkeypatch):
    """Swaps the process pool for a stand-in that runs each share in this
    process as it is submitted, one after the other, and keeps the share's
    outcome, its records or its exception, in the future, as a worker's
    would. Records the `max_workers` each pool asks for in `sizes`, and the
    (algorithm, seed) cells of each share, in the order they were
    submitted, in `shares`."""
    seen = SimpleNamespace(sizes=[], shares=[])

    class InlinePool:
        def __init__(self, max_workers):
            seen.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, config, cells, *rest):
            seen.shares.append([(params.algorithm, seed) for _, params, seed in cells])
            future = concurrent.futures.Future()
            try:
                future.set_result(fn(config, cells, *rest))
            except Exception as exc:
                future.set_exception(exc)
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return seen


def test_worker_shares_run_in_lockstep(tmp_path, monkeypatch, inline_pool):
    """With workers=2 the pending cells are dealt round-robin into two
    shares, and each share runs in lockstep: one simulate_batch call per
    tick of its own. The records are those of workers=1."""
    algorithms = (OptimizerParams("pso"), OptimizerParams("sa"))
    seq = run_campaign(tiny_config(tmp_path / "seq", algorithms=algorithms, runs=2, max_evaluations=40))
    calls = []
    count_calls(monkeypatch, fitness, calls)
    par = run_campaign(tiny_config(tmp_path / "par", algorithms=algorithms, runs=2, max_evaluations=40, workers=2))
    seeds = [run_seed(5, i) for i in range(2)]
    assert inline_pool.shares == [[("pso", seeds[0]), ("sa", seeds[0])], [("pso", seeds[1]), ("sa", seeds[1])]]
    assert inline_pool.sizes == [2]
    assert len(calls) == 2 * 21 and calls[0] == calls[21] == 20 + 1
    for a in ("pso", "sa"):
        for x, y in zip(seq.records[a], par.records[a]):
            assert_same_run(y, x, a)


def test_parallel_cells_keep_the_runs_that_finished(tmp_path, inline_pool):
    """With workers=2, SA's run on seed 1 raises at its third batch. PSO's
    run on seed 1, in the same share, has finished by then, and so has the
    whole other share: each keeps its checkpoint, byte for byte the one a
    sequential run writes. Running again resumes the three and runs only
    the lost cell, and the directory is then the sequential one."""

    def factory(scenario, replications, seed):
        objective = cheap_factory(scenario, replications, seed)
        calls = []

        def score(points):
            calls.append(len(points))
            if seed == 1 and len(calls) == 3:
                raise RuntimeError("scorer failed")
            return objective(points)

        return score

    cells = [(f"{a}_{seed}", OptimizerParams(a), seed) for a in ("pso", "sa") for seed in (0, 1)]
    seq = tiny_config(tmp_path / "seq", max_evaluations=40)
    run_cells(seq, cells, cheap_factory)
    want = checkpoint_bytes(seq.output_dir)
    config = tiny_config(tmp_path / "par", max_evaluations=40, workers=2)
    with pytest.raises(RuntimeError, match="scorer failed"):
        run_cells(config, cells, factory)
    assert inline_pool.shares == [[("pso", 0), ("sa", 0)], [("pso", 1), ("sa", 1)]]
    kept = checkpoint_bytes(config.output_dir)
    assert sorted(kept) == ["run_pso_0.json", "run_pso_1.json", "run_sa_0.json"]
    assert kept == {name: want[name] for name in kept}
    made = []
    run_cells(config, cells, lambda *args: made.append(args[2]) or cheap_factory(*args))
    assert made == [1] and len(inline_pool.shares) == 2
    assert checkpoint_bytes(config.output_dir) == want


def test_pool_has_one_process_per_share(tmp_path, inline_pool):
    """With workers=4 and two pending runs, one of them a twin pair, the
    pool asks for two processes, one per share. The twin's checkpoint is
    written when its share lands, and the directory is the sequential one."""
    cells = [(name, OptimizerParams(a), 0) for name, a in (("pso_0", "pso"), ("sa_0", "sa"), ("twin", "pso"))]
    seq = tiny_config(tmp_path / "seq", max_evaluations=20)
    run_cells(seq, cells, cheap_factory)
    config = tiny_config(tmp_path / "par", max_evaluations=20, workers=4)
    run_cells(config, cells, cheap_factory)
    assert inline_pool.sizes == [2]
    assert inline_pool.shares == [[("pso", 0)], [("sa", 0)]]
    assert checkpoint_bytes(config.output_dir) == checkpoint_bytes(seq.output_dir)


def test_importing_the_harness_loads_no_process_pool():
    """run_cells imports the pool machinery only when it starts a pool: the
    CLI, which imports every harness module, loads none of it."""
    src = os.path.dirname(os.path.dirname(vdtptune.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, vdtptune.harness.cli\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_campaign_past_twelve_runs_writes_exact_p_values(tmp_path):
    # paper-shape campaigns (30 runs) take the same exact count as small ones
    algorithms = tuple(OptimizerParams(a) for a in ("pso", "ga", "sa"))
    cfg = tiny_config(tmp_path, algorithms=algorithms, runs=13)
    result = run_campaign(cfg, objective_factory=cheap_factory)
    path = tmp_path / "tests.csv"
    write_csv(path, TESTS_HEADER, reports.tests_rows(result))
    header, rows = read_csv(path)
    assert header == TESTS_HEADER and len(rows) == 3
    for a, b, _, p, n_effective, significant, exact, _ in rows:
        want = brute_force_signed_rank_p(result.fitness_samples(a), result.fitness_samples(b))
        assert (float(p), n_effective, significant, exact) == (want, "13", str(want < 0.05).lower(), "true")


def test_tiny_campaign_leaves_numpy_ma_unimported(tmp_path):
    # np.median's nan check imports numpy.ma (about 1.4 MiB); summaries sort instead
    src = os.path.dirname(os.path.dirname(vdtptune.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys\n"
        "from vdtptune.harness.campaign import ExperimentConfig, run_campaign\n"
        "from vdtptune.harness.reports import write_campaign_outputs\n"
        "from vdtptune.optimizers import OptimizerParams\n"
        "cfg = ExperimentConfig(scenario='urban', algorithms=(OptimizerParams('pso'), OptimizerParams('sa')),\n"
        f"    runs=3, max_evaluations=10, replications=1, master_seed=5, output_dir={str(tmp_path)!r})\n"
        "write_campaign_outputs(run_campaign(cfg), cfg.output_dir)\n"
        "print('numpy.ma' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    assert (tmp_path / "summary.csv").is_file()


def test_campaign_constant_objective_degenerates_cleanly(tmp_path):
    cfg = tiny_config(tmp_path)
    result = run_campaign(cfg, objective_factory=constant_factory)
    for a in ("pso", "ga"):
        assert result.fitness_samples(a) == [1.0] * 4
    t = result.tests[("pso", "ga")]
    assert t.p_value == 1.0
    assert t.n_effective == 0
    assert result.friedman.mean_ranks == (1.5, 1.5)
    assert result.friedman.statistic == pytest.approx(0.0)


def test_record_dict_round_trip():
    ((_, rec),) = lockstep([_cell_run(OptimizerParams("sa"), preset("urban"), 1, 7, 25, cheap_factory)])
    back = record_from_dict(json.loads(json.dumps(record_to_dict(rec))))
    assert back.algorithm == rec.algorithm
    assert back.seed == rec.seed
    assert back.trace == rec.trace
    assert back.best_fitness == rec.best_fitness
    assert np.array_equal(back.best_position, rec.best_position)


# --- reports ------------------------------------------------------------------


def test_csv_cells_round_trip_exactly(tmp_path):
    path = tmp_path / "t.csv"
    value = 0.1 + 0.2  # repr keeps every bit
    write_csv(path, ["a", "b", "c", "d"], [(value, True, 5, "x")])
    header, rows = read_csv(path)
    assert header == ["a", "b", "c", "d"]
    assert rows == [[repr(value), "true", "5", "x"]]
    assert float(rows[0][0]) == value


def test_trace_csv_round_trip(tmp_path):
    path = tmp_path / trace_filename("pso", 0)
    trace = ((1, 5.0), (2, 5.0), (3, 1.0 / 3.0))
    write_trace_csv(path, trace)
    header, rows = read_csv(path)
    assert header == ["evaluation_index", "best_fitness"]
    assert [(int(i), float(f)) for i, f in rows] == list(trace)


@pytest.fixture(scope="module")
def small_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("campaign")
    cfg = ExperimentConfig(
        scenario="urban",
        algorithms=(OptimizerParams("pso"), OptimizerParams("de")),
        runs=2,
        max_evaluations=20,
        replications=1,
        master_seed=3,
        output_dir=str(out / "runs"),
    )
    return run_campaign(cfg)  # real objective so the QoS table is meaningful


def test_qos_rows_lead_with_reference_config(small_result):
    rows = qos_rows(small_result)
    assert len(rows) == 3
    assert rows[0][0] == "experts"
    assert [r[0] for r in rows[1:]] == ["pso", "de"]
    for row in rows:
        assert len(row) == len(QOS_HEADER)
        assert isinstance(row[1], int)  # quantized chunk bytes
        assert row[4] > 0.0  # fitness
    assert rows[0][1] == 25600


def test_write_campaign_outputs_files(small_result, tmp_path):
    out = tmp_path / "artifacts"
    written = write_campaign_outputs(small_result, out)
    names = {p.name for p in written}
    assert {"summary.csv", "tests.csv", "ranks.csv", "qos.csv"} <= names
    assert all(p.suffix == ".csv" for p in written)
    assert {"trace_pso_0.csv", "trace_pso_1.csv", "trace_de_0.csv", "trace_de_1.csv"} <= names
    header, rows = read_csv(out / "summary.csv")
    assert header[0] == "algorithm"
    assert [r[0] for r in rows] == ["pso", "de"]
    _, trows = read_csv(out / "tests.csv")
    assert trows[0][:2] == ["pso", "de"]


def test_render_tables_smoke(small_result):
    assert "pso" in render_summary(small_result)
    assert "p=" in render_tests(small_result)
    assert "mean_rank" in render_ranks(small_result)
    assert "experts" in render_qos(qos_rows(small_result))


# --- sweeps -------------------------------------------------------------------


def test_parse_grid_happy_path():
    grid = parse_grid("# comment\nw = 0.1 0.5\n\npopulation_size = 10 20  # inline\n")
    assert [(g.param, g.values) for g in grid] == [
        ("w", (0.1, 0.5)),
        ("population_size", (10, 20)),
    ]
    assert [g.line_number for g in grid] == [2, 4]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("just words\n", "grid line 1"),
        ("w =\n", "grid line 1"),
        ("\n\nwarp = 1\n", "grid line 3"),
        ("generations = 3\n", "grid line 1: unknown key 'generations'"),
        ("# only comments\n", "no parameter"),
    ],
)
def test_parse_grid_errors_name_lines(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_grid(text)


def test_run_sweep_validates_knob_values(tmp_path):
    grid = parse_grid("p_cross = 0.5 1.5\n")
    with pytest.raises(ValueError, match="grid line 1: p_cross=1.5"):
        run_sweep(sweep_config(tmp_path, "ga", runs=1), grid, objective_factory=cheap_factory)
    unread = parse_grid("w = 0.5\nmu_es = 2 3\n")
    with pytest.raises(ValueError, match="grid line 2: mu_es=2: pso does not read mu_es"):
        run_sweep(sweep_config(tmp_path, "pso", runs=1), unread, objective_factory=cheap_factory)


def test_run_sweep_rows_and_rendering(tmp_path):
    calls = []

    def counting_factory(scenario, replications, seed):
        calls.append(seed)
        return cheap_factory(scenario, replications, seed)

    grid = parse_grid("w = 0.3 0.6\n# repeats\npopulation_size = 5 5\nw = 0.3\n")
    cfg = sweep_config(tmp_path, "pso")
    result = run_sweep(cfg, grid, objective_factory=counting_factory)
    assert len(calls) == 6  # 3 distinct settings x 2 runs; twins run once
    assert result.algorithm == "pso"
    assert result.runs == 2
    assert [(p, v) for p, v, _ in result.rows] == [
        ("w", 0.3), ("w", 0.6), ("population_size", 5), ("population_size", 5), ("w", 0.3)
    ]
    assert result.rows[4] == result.rows[0]
    for _, _, mean_fit in result.rows:
        assert math.isfinite(mean_fit)
    listed = list(sweep_rows(result))
    assert listed[0][3:] == (2, "urban")
    text = render_sweep(result)
    assert "population_size" in text
    assert "0.3:" in text

    # a repeated value or parameter keeps its own checkpoint, and a re-run
    # resumes: a deleted checkpoint whose twin survives is copied from the
    # twin, and one whose twins are all gone runs once for all of them
    ckpt_dir = Path(cfg.output_dir) / "checkpoints"
    assert len(list(ckpt_dir.glob("run_*.json"))) == 10
    twin, deleted = ckpt_dir / "run_pso_grid1_0_0.json", ckpt_dir / "run_pso_grid1_1_0.json"
    assert twin.read_bytes() == deleted.read_bytes()
    deleted.unlink()
    calls.clear()
    again = run_sweep(cfg, grid, objective_factory=counting_factory)
    assert len(calls) == 0
    assert deleted.read_bytes() == twin.read_bytes()
    assert again == result
    # both pop 5 run 0 twins go and run once; w = 0.3 run 1 comes from line 3
    for path in (twin, deleted, ckpt_dir / "run_pso_grid0_0_1.json"):
        path.unlink()
    assert run_sweep(cfg, grid, objective_factory=counting_factory) == result
    assert len(calls) == 1
    assert len(list(ckpt_dir.glob("run_*.json"))) == 10


def test_run_sweep_parallel_matches_sequential(tmp_path):
    grid = parse_grid("w = 0.3 0.6\nw = 0.3\n")
    seq = run_sweep(sweep_config(tmp_path / "seq", "pso", max_evaluations=20), grid)  # real objective
    par = run_sweep(sweep_config(tmp_path / "par", "pso", max_evaluations=20, workers=2), grid)
    assert par.rows == seq.rows
    assert par.rows[2] == par.rows[0]
    # twins' checkpoints included, which the calling process writes as a share lands
    ckpt = checkpoint_bytes(tmp_path / "seq" / "sweep")
    assert checkpoint_bytes(tmp_path / "par" / "sweep") == ckpt
    assert ckpt["run_pso_grid1_0_1.json"] == ckpt["run_pso_grid0_0_1.json"]


# --- command line -------------------------------------------------------------


def run_cli(args):
    return cli.main(args)


def csv_digest(out):
    """sha256 over a campaign's CSVs in name order."""
    h = hashlib.sha256()
    for path in sorted(out.glob("*.csv")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_cli_help_and_usage_errors(capsys):
    assert run_cli(["--help"]) == 0
    capsys.readouterr()
    assert run_cli([]) == 1
    assert run_cli(["tune"]) == 1  # missing --algorithm
    assert run_cli(["tune", "--algorithm", "hillclimb"]) == 1
    assert run_cli(["compare", "--algorithms", "pso"]) == 1
    err = capsys.readouterr().err
    assert "at least 2 algorithms" in err
    assert run_cli(["bench", "--algorithm", "pso", "--runs", "0"]) == 1
    assert "runs must be >= 1" in capsys.readouterr().err
    # each subcommand registers only the flags it reads
    simulate = ["simulate", "--chunk", "25600", "--attempts", "8", "--timeout", "8"]
    assert run_cli(simulate + ["--workers", "3"]) == 1
    assert run_cli(simulate + ["--out", "x"]) == 1
    assert run_cli(["tune", "--algorithm", "pso", "--runs", "3"]) == 1
    assert run_cli(["bench", "--algorithm", "pso", "--scenario", "urban"]) == 1
    assert run_cli(["sweep", "--algorithm", "pso", "--grid", "g.txt", "--workers", "2"]) == 1
    assert capsys.readouterr().err.count("unrecognized arguments") == 5


def test_cli_tune_writes_trace_and_best(tmp_path, capsys):
    out = tmp_path / "t"
    rc = run_cli([
        "tune", "--algorithm", "pso", "--scenario", "urban", "--seed", "3",
        "--budget", "25", "--replications", "1", "--out", str(out),
    ])
    assert rc == 0
    assert (out / "trace_pso_0.csv").exists()
    payload = json.loads((out / "best_pso.json").read_text())
    assert payload["algorithm"] == "pso"
    assert payload["evaluations"] == 25
    assert payload["budget"] == 25
    assert set(payload["best_config"]) == {"chunk_bytes", "total_attempts", "retransmission_time_s"}
    assert "best fitness" in capsys.readouterr().out


def test_cli_tune_byte_identical_reruns(tmp_path, capsys):
    args = ["tune", "--algorithm", "de", "--seed", "11", "--budget", "20", "--replications", "1"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out", str(out_a)]) == 0
    assert run_cli(args + ["--out", str(out_b)]) == 0
    assert run_cli(args + ["--out", str(out_b)]) == 0  # resumed from its checkpoint
    for name in ("trace_de_0.csv", "best_de.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    assert checkpoint_bytes(out_a) == checkpoint_bytes(out_b)
    assert file_digest(out_a / "trace_de_0.csv") == "0543b9507aaca3c1ddc837cd071bc555c840551d2af5ea7f35f217b3e5dedf11"
    assert file_digest(out_a / "best_de.json") == "73b59b2cadd918ea33ac6426bf0887800010edd2e33df06df37b7647fcee7c44"
    capsys.readouterr()
    refit = ["tune", "--algorithm", "de", "--seed", "11", "--budget", "21", "--replications", "1"]
    assert run_cli(refit + ["--out", str(out_a)]) == 1
    assert "run_de_0.json" in capsys.readouterr().err


def test_cli_tune_refuses_negative_seed_before_making_out(tmp_path, capsys):
    out = tmp_path / "t"
    assert run_cli(["tune", "--algorithm", "pso", "--seed", "-1", "--out", str(out)]) == 1
    assert "master_seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["simulate", "--chunk", "25600", "--attempts", "8", "--timeout", "8"],
    ["bench", "--algorithm", "pso"],
])
def test_cli_refuses_negative_seed_by_flag(command, capsys):
    assert run_cli(command + ["--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert "error: --seed must be >= 0, got -1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command, flag", [
    (["tune", "--algorithm", "pso"], "budget"),
    (["compare"], "budget"),
    (["sweep", "--algorithm", "pso", "--grid", "g.txt"], "budget"),
    (["bench", "--algorithm", "pso"], "budget"),
    (["simulate", "--chunk", "25600", "--attempts", "8", "--timeout", "8"], "replications"),
    (["tune", "--algorithm", "pso"], "replications"),
    (["compare"], "runs"),
    (["compare"], "workers"),
    (["bench", "--algorithm", "pso"], "dims"),
])
def test_cli_refuses_counts_below_one_by_flag(command, flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli(command + [f"--{flag}", "0"]) == 1
    captured = capsys.readouterr()
    assert f"error: --{flag} must be >= 1, got 0" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, message", [
    (["--chunk", "0", "--attempts", "8", "--timeout", "8"], "--chunk=0 outside [128, 524288]"),
    (["--chunk", "25600", "--attempts", "0", "--timeout", "8"], "--attempts=0 outside [1, 250]"),
    (["--chunk", "25600", "--attempts", "8", "--timeout", "0"], "--timeout=0 outside [1, 10]"),
])
def test_cli_simulate_names_the_flag_out_of_bounds(flags, message, monkeypatch, capsys):
    def no_simulation(*args, **kw):
        raise AssertionError("simulated an out-of-bounds configuration")

    monkeypatch.setattr(cli, "evaluate", no_simulation)
    assert run_cli(["simulate"] + flags) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_cli_simulate_reports_fitness(capsys):
    rc = run_cli([
        "simulate", "--chunk", "25600", "--attempts", "8", "--timeout", "8",
        "--replications", "2", "--seed", "1",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fitness over 2 replications" in out
    assert "mean effective throughput" in out


def test_cli_simulate_rejects_out_of_bounds(capsys):
    rc = run_cli(["simulate", "--chunk", "64", "--attempts", "8", "--timeout", "8"])
    assert rc == 1
    assert "--chunk=64 outside [128, 524288]" in capsys.readouterr().err


def test_cli_unknown_scenario_is_usage_error(capsys):
    rc = run_cli([
        "simulate", "--chunk", "25600", "--attempts", "8", "--timeout", "8",
        "--scenario", "mars",
    ])
    assert rc == 1
    assert "unknown scenario" in capsys.readouterr().err


# at 10 replications the order in which each mean adds its terms reaches the CSVs
COMPARE_DIGESTS = {
    1: "28b435c2eabdac5b3360b49e24c5749fca40e530ba8260e40e10a8137941e1d7",
    10: "68365b90b667623b24a2cd9e8ba110d36fd38f4caf98af5b1d3d17cfef0f5556",
}


@pytest.mark.parametrize("replications", sorted(COMPARE_DIGESTS))
def test_cli_compare_small_campaign(tmp_path, capsys, replications):
    out = tmp_path / "cmp"
    rc = run_cli([
        "compare", "--algorithms", "pso,de", "--runs", "2", "--budget", "20",
        "--replications", str(replications), "--seed", "2", "--out", str(out),
    ])
    assert rc == 0
    for name in ("summary.csv", "tests.csv", "ranks.csv", "qos.csv"):
        assert (out / name).exists()
    stdout = capsys.readouterr().out
    assert "algorithm" in stdout
    assert "experts" in stdout
    assert csv_digest(out) == COMPARE_DIGESTS[replications]


def test_cli_compare_one_run(tmp_path, capsys):
    """One run gives no signed-rank test and no Friedman ranking: tests.csv
    and ranks.csv hold only their headers, and compare says why for each
    instead of failing on the missing tests."""
    out = tmp_path / "one"
    rc = run_cli([
        "compare", "--algorithms", "pso,de", "--runs", "1", "--budget", "20",
        "--replications", "1", "--seed", "2", "--out", str(out),
    ])
    assert rc == 0
    for name in ("tests.csv", "ranks.csv"):
        header, rows = read_csv(out / name)
        assert header and rows == [], name
    stdout = capsys.readouterr().out
    assert "(signed-rank tests need at least 2 runs)" in stdout
    assert "(friedman ranking needs at least 2 runs)" in stdout


@pytest.mark.parametrize(
    "argv,outputs",
    [
        (["tune", "--algorithm", "pso", "--budget", "5", "--replications", "1", "--out", "urban"],
         ["trace_pso_0.csv", "best_pso.json"]),
        (["compare", "--algorithms", "pso,de", "--runs", "2", "--budget", "5", "--replications", "1",
          "--out", "urban"], ["summary.csv", "tests.csv", "ranks.csv", "qos.csv"]),
        (["sweep", "--algorithm", "pso", "--grid", "grid.txt", "--runs", "1", "--budget", "5",
          "--replications", "1", "--scenario", "highway", "--out", "highway"], ["sweep.csv"]),
    ],
    ids=["tune", "compare", "sweep"],
)
def test_cli_out_named_like_the_scenario(tmp_path, monkeypatch, capsys, argv, outputs):
    """An output directory named like the scenario preset is not read as a
    scenario file once the search has made it: the command writes its CSVs,
    and a second run resumes from its checkpoints to the same bytes."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "grid.txt").write_text("w = 0.4\n")
    out = tmp_path / argv[argv.index("--out") + 1]
    assert run_cli(argv) == 0, capsys.readouterr().err
    first = {name: (out / name).read_bytes() for name in outputs}
    saved = checkpoint_bytes(out)
    assert run_cli(argv) == 0, capsys.readouterr().err
    assert {name: (out / name).read_bytes() for name in outputs} == first
    assert checkpoint_bytes(out) == saved


def test_cli_compare_reads_config_file(tmp_path, capsys):
    out = tmp_path / "filecmp"
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "[campaign]\n"
        "algorithms = pso, ga\n"
        "runs = 2\n"
        "max_evaluations = 20\n"
        "replications = 1\n"
        f"output_dir = {out}\n"
        "[pso]\n"
        "population_size = 8\n"
    )
    rc = run_cli(["compare", "--config", str(cfgfile)])
    assert rc == 0
    assert (out / "summary.csv").exists()
    header, rows = read_csv(out / "summary.csv")
    assert [r[0] for r in rows] == ["pso", "ga"]
    capsys.readouterr()
    assert csv_digest(out) == "ac007181b66b282eb3ead65268c1137069ace8dafefeac69311748cbcafffff0"


def test_cli_compare_algorithms_flag_keeps_file_knobs(tmp_path, monkeypatch, capsys):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "[campaign]\nalgorithms = pso, ga\nruns = 2\nmax_evaluations = 20\nreplications = 1\n"
        f"output_dir = {tmp_path / 'out'}\n"
        "[pso]\npopulation_size = 8\nw = 0.3\n"
    )
    seen = []

    def cheap_campaign(config, progress=None):
        seen.append(config)
        return run_campaign(config, objective_factory=cheap_factory, progress=progress)

    monkeypatch.setattr(cli, "run_campaign", cheap_campaign)
    assert run_cli(["compare", "--config", str(cfgfile), "--algorithms", "pso,de"]) == 0
    capsys.readouterr()
    assert seen[0].algorithms == (OptimizerParams("pso", population_size=8, w=0.3), OptimizerParams("de"))


def test_cli_refuses_misspelt_config_files(tmp_path, capsys):
    scenario = tmp_path / "typo_scenario.cfg"
    scenario.write_text("[scenario]\nbase_loss_probability = 0.3\n")
    rc = run_cli(["simulate", "--chunk", "25600", "--attempts", "8", "--timeout", "8", "--scenario", str(scenario)])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(scenario) in err and "'base_loss_probability'" in err
    small = ["--algorithms", "pso,de", "--runs", "2", "--budget", "5", "--replications", "1", "--out", str(tmp_path / "o")]
    for text, named in (
        ("[campaign]\nmax_evaluation = 50\n", "'max_evaluation'"),
        ("[campaign]\n[psoo]\nw = 0.3\n", "[psoo]"),
        ("runs = 3\n[campaign]\n", "no section headers"),
        ("[campaign]\nruns = 3\nruns = 4\n", "'runs'"),
        ("[campaign]\n[pso]\nmu_es = 3\n", "[pso]: pso does not read mu_es"),
    ):
        experiment = tmp_path / "typo.cfg"
        experiment.write_text(text)
        assert run_cli(["compare", "--config", str(experiment)] + small) == 1
        err = capsys.readouterr().err
        assert str(experiment) in err and named in err


def test_cli_sweep(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("w = 0.4 0.6\n")
    out = tmp_path / "sw"
    rc = run_cli([
        "sweep", "--algorithm", "pso", "--grid", str(grid), "--runs", "1",
        "--budget", "20", "--replications", "1", "--out", str(out),
    ])
    assert rc == 0
    assert (out / "sweep.csv").exists()
    assert "0.4:" in capsys.readouterr().out
    assert run_cli(["sweep", "--algorithm", "pso", "--grid", str(tmp_path / "missing.txt")]) == 1
    assert run_cli(["sweep", "--algorithm", "pso", "--grid", str(tmp_path)]) == 1
    grid.write_text("mu_es = 2 3\n")
    assert run_cli(["sweep", "--algorithm", "pso", "--grid", str(grid), "--out", str(out)]) == 1
    assert "grid line 1: mu_es=2: pso does not read mu_es" in capsys.readouterr().err


def test_cli_sweep_csv_pinned(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("w = 0.3 0.6\npopulation_size = 5 5\n")
    out = tmp_path / "sw"
    rc = run_cli([
        "sweep", "--algorithm", "pso", "--grid", str(grid), "--runs", "2", "--budget", "20",
        "--replications", "1", "--seed", "3", "--out", str(out),
    ])
    assert rc == 0
    capsys.readouterr()
    assert file_digest(out / "sweep.csv") == "3559b098b99369b7c290bd9c9fd6777999da1ac2e6303207db7987b96ab98693"


def test_cli_bench(capsys):
    rc = run_cli([
        "bench", "--algorithm", "pso", "--function", "sphere", "--dims", "2",
        "--budget", "60", "--runs", "2",
    ])
    assert rc == 0
    assert "beats random search in" in capsys.readouterr().out
    assert run_cli(["bench", "--algorithm", "pso", "--function", "ackley"]) == 1


def test_cli_runtime_failure_is_exit_2(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("i am a file")
    rc = run_cli([
        "tune", "--algorithm", "pso", "--budget", "20", "--replications", "1",
        "--out", str(blocker),
    ])
    assert rc == 2
    assert "runtime failure" in capsys.readouterr().err


# --- the benchmark's reach into the package -------------------------------------

BENCH_DIR = Path(__file__).resolve().parent.parent / "vdtpbench"


def test_benchmark_names_resolve():
    """vdtpbench/ patches the functions its tracing.TRACED lists and reads
    RunRecord attributes in checks.py and workloads.py; each must exist, or
    the benchmark's traced run or its checks break with nothing here failing."""
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH_DIR / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # standard library only
    for module, attr in tracing.TRACED:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)

    read = set()  # rec.<name> and record.<name>: those files' names for a RunRecord
    for name in ("checks.py", "workloads.py", "test_bench.py"):
        for node in ast.walk(ast.parse((BENCH_DIR / name).read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in ("rec", "record"):
                read.add(node.attr)
    assert {"evaluations", "best_fitness", "best_eval_index", "best_config", "trace"} <= read
    ((_, rec),) = lockstep([_cell_run(OptimizerParams("pso"), preset("urban"), 1, 7, 5, cheap_factory)])
    assert [attr for attr in sorted(read) if not hasattr(rec, attr)] == []


def test_benchmark_own_unparametrized_tests_pass(monkeypatch):
    """The benchmark's own tests that take no argument, run here: they build
    records and reports with dataclasses.replace, whose keywords the scan
    above does not see, so a change that breaks them fails here too."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # test_bench.py puts src/ and vdtpbench/ first
    spec = importlib.util.spec_from_file_location("bench_test_bench", BENCH_DIR / "test_bench.py")
    test_bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(test_bench)
    ran = []
    for name, fn in vars(test_bench).items():
        if name.startswith("test_") and callable(fn) and not inspect.signature(fn).parameters:
            fn()
            ran.append(name)
    assert "test_trace_and_sphere_checks_reject_perturbed_records" in ran
