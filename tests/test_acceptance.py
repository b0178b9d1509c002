"""Acceptance gate: nine criteria, one printed pass/fail line each.

Every test computes its verdict first, prints a single CRITERION line, then
asserts, so the pass/fail table survives in the captured output either way.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import conftest

from vdtptune.fitness import evaluate, fitness_term
from vdtptune.harness.benchfuncs import bench_bounds, random_search, sphere
from vdtptune.harness.campaign import (
    ExperimentConfig,
    qos_seed,
    run_campaign,
    run_seed,
)
from vdtptune.harness.reports import write_campaign_outputs
from vdtptune.optimizers import ALGORITHMS, OptimizerParams, run
from vdtptune.optimizers.de import accept_trials, binomial_mask, mutant_vector
from vdtptune.optimizers.pso import velocity_update
from vdtptune.optimizers.sa import acceptance_probability
from vdtptune.sim.scenario import Scenario, human_expert_config, preset
from vdtptune.sim.transfer import n_chunks, simulate_session_events
from vdtptune.stats import friedman_ranks, mean, wilcoxon_signed_rank

DESK_PRESETS = ("urban", "urban_a2", "urban_a3", "highway")


def verdict(number: int, ok: bool, detail: str) -> bool:
    line = f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print("\n" + line)
    conftest.ACCEPTANCE_VERDICTS.append(line)
    return ok


def rel_err(got: float, want: float) -> float:
    if want == 0.0:
        return abs(got - want)
    return abs(got - want) / abs(want)


# --- criterion 1: equation fidelity ------------------------------------------


def test_criterion_1_equation_fidelity():
    rng = np.random.default_rng(101)
    worst = 0.0
    checks = 0

    # velocity and position updates
    for _ in range(100):
        v, x, p, b = rng.uniform(-2, 2, size=4)
        w = rng.uniform(0, 1)
        phi1, phi2 = 2.0 * rng.random(2)
        oracle_v = w * v + phi1 * (p - x) + phi2 * (b - x)
        got_v = float(velocity_update(v, x, p, b, w, phi1, phi2))
        worst = max(worst, rel_err(got_v, oracle_v), rel_err(x + got_v, x + oracle_v))
        checks += 2

    # donor combination and binomial crossover
    mask_ok = True
    accept_ok = True
    for _ in range(100):
        r1, r2, r3 = rng.uniform(-1, 2, size=(3, 4))
        mu = rng.uniform(0.01, 1.0)
        got = mutant_vector(r1, r2, r3, mu)
        for j in range(4):
            worst = max(worst, rel_err(float(got[j]), r1[j] + mu * (r2[j] - r3[j])))
            checks += 1
        draws = rng.random(6)
        forced = int(rng.integers(6))
        cr = float(rng.choice([0.0, 0.5, 0.9, draws[0]]))
        got_mask = binomial_mask(draws, forced, cr)
        oracle_mask = [(d <= cr) or (j == forced) for j, d in enumerate(draws)]
        mask_ok &= got_mask.tolist() == oracle_mask
        fa, fb = rng.normal(size=2)
        accept_ok &= accept_trials([fa, fa], [fb, fa]).tolist() == [bool(fa <= fb), True]
        checks += 2

    # worsening-move acceptance probability
    for _ in range(100):
        delta = rng.uniform(1e-6, 50.0)
        temp = rng.uniform(1e-3, 50.0)
        z = delta / temp
        oracle_p = 0.0 if z >= 709.0 else 2.0 / (1.0 + math.exp(z))
        worst = max(worst, rel_err(acceptance_probability(delta, temp), oracle_p))
        checks += 1

    # replication cost and its mean
    for _ in range(100):
        t = rng.uniform(0, 500)
        lost = rng.uniform(0, 300)
        data = rng.uniform(0, 5000)
        worst = max(worst, rel_err(fitness_term(t, lost, data), (t + lost) / math.log10(data + 2.0)))
        checks += 1
    terms = rng.uniform(0.1, 5.0, size=10)
    worst = max(worst, rel_err(mean(terms), float(np.mean(terms))))
    checks += 1

    ok = worst <= 1e-12 and mask_ok and accept_ok
    assert verdict(
        1, ok,
        f"update equations vs scalar oracles: max rel err {worst:.3e} over {checks} checks, "
        f"crossover mask {'exact' if mask_ok else 'WRONG'}, selection rule {'exact' if accept_ok else 'WRONG'}",
    )


# --- criterion 2: protocol closed form ---------------------------------------


def test_criterion_2_lossless_closed_form():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        chunk = int(rng.integers(128, 524289))
        file = int(rng.integers(1, 4 * 2**20))
        bw = float(rng.uniform(1e5, 5e7))
        prop = float(rng.uniform(1e-4, 2e-2))
        sc = Scenario(
            name="lossless", bandwidth_bps=bw, propagation_delay_s=prop,
            base_loss_prob=0.0, link_up_mean_s=math.inf, sessions=1,
            file_size_bytes=file,
        )
        res = simulate_session_events((chunk, 1, 1e9), sc, seed=int(rng.integers(2**60)))[1]
        n = n_chunks(file, chunk)
        expect = (n + 1) * (2.0 * 64 * 8.0 / bw + 2.0 * prop) + file * 8.0 / bw
        worst = max(worst, abs(res.time_s - expect))

    ceil_ok = all(
        n_chunks(f, c) == math.ceil(f / c)
        for f, c in zip(
            rng.integers(1, 10_000_000, size=1000), rng.integers(1, 600_000, size=1000)
        )
    )
    ok = worst <= 1e-9 and ceil_ok
    assert verdict(
        2, ok,
        f"lossless session time vs stop-and-wait formula: max abs err {worst:.3e} s "
        f"(50 tuples), chunk count == ceil(file/chunk) {'for all 1000 pairs' if ceil_ok else 'VIOLATED'}",
    )


# --- criterion 3: refusal semantics ------------------------------------------


def test_criterion_3_refusal_semantics():
    rng = np.random.default_rng(303)
    sc = Scenario(
        name="blackout", base_loss_prob=1.0, link_up_mean_s=math.inf, sessions=1
    )
    bad = []
    for k in range(100):
        attempts = int(rng.integers(1, 251))
        timeout = float(rng.uniform(1.0, 10.0))
        seed = int(rng.integers(2**32))
        res = simulate_session_events((25600, attempts, timeout), sc, seed=seed)[1]
        events, replay = simulate_session_events((25600, attempts, timeout), sc, seed=seed)
        firq_sends = sum(1 for e in events if e[2] == "send" and e[3] == "FIRQ")
        good = (
            res.refused
            and res.lost_packets == attempts
            and abs(res.time_s - attempts * timeout) <= 1e-9
            and res.delivered_bytes == 0
            and firq_sends == attempts
            and replay == res
            and events[-1][2] == "refused"
        )
        if not good:
            bad.append((attempts, timeout, seed))
    ok = not bad
    assert verdict(
        3, ok,
        "total loss refuses after exactly total_attempts FIRQ sends at attempts x timeout "
        + ("(100 random configs)" if ok else f"violations: {bad[:3]}"),
    )


# --- criterion 4: fitness guard and monotonicity -----------------------------


def test_criterion_4_fitness_guard():
    guard = fitness_term(10.0, 5.0, 0.0)
    guard_ok = math.isfinite(guard) and guard == pytest.approx(15.0 / math.log10(2.0))

    rng = np.random.default_rng(404)
    t = rng.uniform(0.001, 1000.0, size=10_000)
    lost = rng.uniform(0.001, 1000.0, size=10_000)
    data = rng.uniform(0.0, 100_000.0, size=10_000)
    mono_ok = True
    for i in range(10_000):
        base = fitness_term(t[i], lost[i], data[i])
        mono_ok &= fitness_term(t[i] + 1.0, lost[i], data[i]) > base
        mono_ok &= fitness_term(t[i], lost[i] + 1.0, data[i]) > base
        mono_ok &= fitness_term(t[i], lost[i], data[i] + 1.0) < base
        if not mono_ok:
            break
    ok = guard_ok and mono_ok
    assert verdict(
        4, ok,
        f"zero-data fitness finite ({guard:.4f}) and monotone in time/losses/data "
        f"on 10^4 random triples: {'yes' if mono_ok else 'NO'}",
    )


# --- criterion 5: optimizer competence ---------------------------------------


def de_critical_step(params: OptimizerParams, dim: int) -> float:
    """Zaharie's (2002) critical mu_de for rand/1/bin.

    Below sqrt((1 - p/2) / NP), with p = 1 - (1 - cr)(1 - 1/dim) the chance
    that a coordinate comes from the mutant, mutation and crossover shrink the
    expected population variance even before selection acts.
    """
    p = 1.0 - (1.0 - params.cr) * (1.0 - 1.0 / dim)
    return math.sqrt((1.0 - p / 2.0) / params.population_size)


def de_variance_ratio(params: OptimizerParams, bounds, seeds) -> float:
    """Mean Var(generation g+1) / Var(generation g) of DE without selection.

    On a constant objective every trial ties its target and ties go to the
    trial, so each generation of evaluated points is exactly the population
    bred from the one before. Pooled over seeds, generations and coordinates.
    """
    ratios = []
    for s in seeds:
        points = []

        def flat(x):
            points.append(np.array(x, dtype=float))
            return 0.0

        run(params, flat, bounds, seed=s, max_evaluations=1000)
        var = np.reshape(points, (-1, params.population_size, bounds.dim)).var(axis=1)
        ratios.append(var[1:] / var[:-1])
    return float(np.mean(ratios))


def test_criterion_5_optimizers_beat_random_search():
    bounds = bench_bounds(3)
    seeds = [run_seed(1, i) for i in range(20)]
    baseline = {
        s: random_search(sphere, bounds, seed=s, max_evaluations=1000).best_fitness
        for s in seeds
    }

    def wins_over_random(params):
        return sum(
            1
            for s in seeds
            if run(params, sphere, bounds, seed=s, max_evaluations=1000).best_fitness
            < baseline[s]
        )

    # DE is judged at the Storn & Price (1997) starting step scale: the stock
    # mu_de lies below the critical value, where DE promises no progress, and
    # that stall is asserted below instead.
    tuned_de = OptimizerParams("de", mu_de=0.5)
    wins = {
        alg: wins_over_random(tuned_de if alg == "de" else OptimizerParams(alg))
        for alg in ALGORITHMS
    }
    stock_de = OptimizerParams("de")
    f_crit = de_critical_step(stock_de, bounds.dim)
    stock_wins = wins_over_random(stock_de)
    stock_ratio = de_variance_ratio(stock_de, bounds, seeds)
    tuned_ratio = de_variance_ratio(tuned_de, bounds, seeds)

    problems = [f"{a} beat random search in only {wins[a]}/20 runs" for a in ALGORITHMS if wins[a] < 18]
    if not stock_de.mu_de < f_crit:
        problems.append(f"stock mu_de={stock_de.mu_de} is not below F_crit={f_crit:.3f}")
    if not stock_ratio < 1.0:
        problems.append(f"stock DE does not contract without selection (ratio {stock_ratio:.3f})")
    if not tuned_ratio > 1.0:
        problems.append(f"DE at mu_de=0.5 does not expand without selection (ratio {tuned_ratio:.3f})")

    counts = ", ".join(f"{a}={wins[a]}/20" for a in ALGORITHMS)
    assert verdict(
        5, not problems,
        f"wins vs paired same-budget random search on 3-D sphere (need >= 18/20, "
        f"DE at mu_de=0.5): {counts}; stock DE mu_de={stock_de.mu_de} vs "
        f"F_crit={f_crit:.3f} wins {stock_wins}/20, variance ratio without selection "
        f"{stock_ratio:.3f} (mu_de=0.5: {tuned_ratio:.3f})",
    ), "; ".join(problems)


# --- criterion 6: statistics oracles -----------------------------------------


def test_criterion_6_statistics_oracles():
    rng = np.random.default_rng(606)
    wilcoxon_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 9))
        a = np.round(rng.normal(size=n), 1)
        b = np.round(rng.normal(size=n), 1)
        if np.all(a == b):
            continue
        res = wilcoxon_signed_rank(a, b)
        wilcoxon_ok &= res.p_value == conftest.brute_force_signed_rank_p(a, b)

    fixed = [
        ([[1.0, 2.0, 3.0]] * 4, (1.0, 2.0, 3.0), 8.0),
        ([[1.0, 2.0], [2.0, 1.0]], (1.5, 1.5), 0.0),
        ([[1.0, 1.0, 2.0], [1.0, 2.0, 3.0]], (1.25, 1.75, 3.0), 3.25),
    ]
    friedman_ok = True
    for matrix, want_ranks, want_chi2 in fixed:
        table = friedman_ranks(matrix)
        friedman_ok &= table.mean_ranks == want_ranks
        friedman_ok &= abs(table.statistic - want_chi2) < 1e-12
    for _ in range(50):
        bk = rng.normal(size=(int(rng.integers(2, 9)), int(rng.integers(2, 6))))
        k = bk.shape[1]
        friedman_ok &= abs(sum(friedman_ranks(bk).mean_ranks) - k * (k + 1) / 2) < 1e-9

    ok = wilcoxon_ok and friedman_ok
    assert verdict(
        6, ok,
        f"signed-rank exact p == 2^n enumeration on 200 samples: {'yes' if wilcoxon_ok else 'NO'}; "
        f"rank tables and sum identity: {'yes' if friedman_ok else 'NO'}",
    )


# --- criterion 7: desk-scale campaign ----------------------------------------


def desk_config(scenario: str, out_dir) -> ExperimentConfig:
    return ExperimentConfig(
        scenario=scenario,
        algorithms=tuple(OptimizerParams(a) for a in ALGORITHMS),
        runs=5,
        max_evaluations=200,
        replications=3,
        master_seed=1,
        output_dir=str(out_dir),
    )


@pytest.fixture(scope="session")
def desk_campaigns(tmp_path_factory):
    """One desk-scale campaign per preset; urban also keeps its wall time."""
    out = {}
    for name in DESK_PRESETS:
        t0 = time.perf_counter()
        result = run_campaign(desk_config(name, tmp_path_factory.mktemp(f"desk_{name}")))
        out[name] = (result, time.perf_counter() - t0)
    return out


def _artifact_bytes(result, out_dir) -> dict:
    """The campaign's CSVs written to `out_dir`, plus its checkpoints."""
    files = {p.name: p.read_bytes() for p in write_campaign_outputs(result, out_dir)}
    for p in (Path(result.config.output_dir) / "checkpoints").iterdir():
        files[f"checkpoints/{p.name}"] = p.read_bytes()
    return files


def test_criterion_7_desk_campaign_reproducible(desk_campaigns, tmp_path):
    result, elapsed = desk_campaigns["urban"]
    first = _artifact_bytes(result, tmp_path / "a")

    names = set(first)
    kinds_ok = {"summary.csv", "tests.csv", "ranks.csv", "qos.csv"} <= names
    kinds_ok &= sum(1 for n in names if n.startswith("trace_")) == 25
    kinds_ok &= sum(1 for n in first if n.startswith("checkpoints/")) == 25

    rerun = run_campaign(desk_config("urban", tmp_path / "fresh"))
    second = _artifact_bytes(rerun, tmp_path / "b")
    identical = first == second

    ok = kinds_ok and identical and elapsed < 600.0
    assert verdict(
        7, ok,
        f"5 algorithms x 5 runs x budget 200 on urban in {elapsed:.1f} s (< 600), "
        f"all artifact kinds present: {kinds_ok}, fresh rerun bit-identical (CSVs and checkpoints): {identical}",
    )


# --- criterion 8: calibration bands ------------------------------------------


def test_criterion_8_expert_config_calibration():
    means = {}
    throughput = {}
    for name in ("urban", "highway"):
        sc = preset(name)
        cfg = human_expert_config(sc)
        results = [simulate_session_events(cfg, sc, seed=s)[1] for s in range(1000)]
        means[name] = float(np.mean([r.time_s for r in results]))
        done = [r for r in results if not r.refused]
        kb = float(np.mean([r.delivered_bytes for r in done])) / 1024.0
        throughput[name] = kb / float(np.mean([r.time_s for r in done]))

    urban_ok = 2.0 <= means["urban"] <= 9.0
    highway_ok = 15.0 <= means["highway"] <= 70.0
    order_ok = means["urban"] * 2.0 < means["highway"]
    # factor-2 band around the 300 kB/s reference point for the urban QoS headline
    tp_ok = 150.0 <= throughput["urban"] <= 600.0
    ok = urban_ok and highway_ok and order_ok and tp_ok
    assert verdict(
        8, ok,
        f"mean session time over 1000 seeds: urban {means['urban']:.2f} s in [2, 9] ({urban_ok}), "
        f"highway {means['highway']:.2f} s in [15, 70] ({highway_ok}), ordering ({order_ok}), "
        f"urban throughput {throughput['urban']:.1f} kB/s in [150, 600] ({tp_ok})",
    )


# --- criterion 9: tuned configs beat the reference ---------------------------


def test_criterion_9_tuned_beats_experts(desk_campaigns):
    lines = []
    ok = True
    for name in DESK_PRESETS:
        result, _ = desk_campaigns[name]
        sc = result.scenario
        seed = qos_seed(result.config.master_seed)
        best = min(
            (result.best_record(a) for a in result.config.algorithm_names),
            key=lambda r: r.best_fitness,
        )
        tuned = evaluate(best.best_config, sc, n=10, seed=seed).fitness
        experts = evaluate(human_expert_config(sc), sc, n=10, seed=seed).fitness
        ok &= tuned <= experts
        lines.append(f"{name}: tuned {tuned:.3f} vs experts {experts:.3f}")
    assert verdict(9, ok, "best campaign config re-scored with n=10 shared seeds; " + "; ".join(lines))
