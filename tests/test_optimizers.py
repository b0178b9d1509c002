import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vdtptune import optimizers
from vdtptune.harness.benchfuncs import bench_bounds, random_search, sphere
from vdtptune.optimizers import ALGORITHMS, OptimizerParams, lockstep, run, run_steps
from vdtptune.optimizers.common import (
    BudgetExhausted,
    ObjectiveHandle,
    blend_crossover,
    reset_one_gene,
    tournament_pick,
)
from vdtptune.optimizers.de import binomial_mask, mutant_vector, run_de
from vdtptune.optimizers.es import run_es, select_survivors
from vdtptune.optimizers.ga import make_offspring, run_ga
from vdtptune.optimizers.pso import velocity_update
from vdtptune.optimizers.sa import acceptance_probability, initial_temperature
from vdtptune.space import Bounds


BOUNDS3 = bench_bounds(3)


# --- parameter validation ----------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(algorithm="hillclimb"),
        dict(algorithm="pso", population_size=0),
        dict(algorithm="de", population_size=3),
        dict(algorithm="de", cr=1.5),
        dict(algorithm="ga", p_cross=-0.1),
        dict(algorithm="ga", p_mut=1.01),
        dict(algorithm="pso", w=-1.0),
        dict(algorithm="de", mu_de=0.0),
        dict(algorithm="sa", alpha_temp=0.0),
        dict(algorithm="sa", alpha_temp=1.0),
        dict(algorithm="sa", markov_chain_length=0),
        dict(algorithm="sa", temp_probes=0),
        dict(algorithm="sa", target_accept=1.0),
        dict(algorithm="es", mu_es=0),
        dict(algorithm="es", mu_es=8, lambda_es=4),
        dict(algorithm="es", mu_es=4, lambda_es=4, es_selection="comma"),
        dict(algorithm="es", es_selection="elitist"),
        dict(algorithm="ga", ga_variant="island"),
        dict(algorithm="pso", mu_es=3),
        dict(algorithm="pso", p_cross=0.8),
        dict(algorithm="de", w=0.7),
        dict(algorithm="ga", es_selection="plus"),
        dict(algorithm="es", population_size=30),
        dict(algorithm="sa", p_mut=0.1),
    ],
)
def test_params_rejected(kwargs):
    with pytest.raises(ValueError):
        OptimizerParams(**kwargs)


def test_params_algorithm_normalized():
    assert OptimizerParams(" PSO ").algorithm == "pso"


def test_params_per_algorithm_probability_defaults():
    es = OptimizerParams("es")
    ga = OptimizerParams("ga")
    assert (es.p_cross, es.p_mut) == (0.9, 0.1)
    assert (ga.p_cross, ga.p_mut) == (0.8, 0.2)
    assert OptimizerParams("es", p_cross=0.5).p_cross == 0.5
    assert OptimizerParams("es", mu_es=4, lambda_es=4, es_selection="plus").lambda_es == 4


# --- budget accounting -------------------------------------------------------


def per_row(f):
    """A batch scorer that applies the one-point function f to each row."""
    return lambda points: [f(x) for x in points]


def scored(handle, points):
    """What handle.evaluate_batch(points) returns, driven as runs are."""
    ((_, fits),) = lockstep([handle.evaluate_batch(points)])
    return fits


def test_handle_maps_unit_cube_to_physical():
    seen = []
    bounds = Bounds(lower=(10.0, -2.0), upper=(20.0, 2.0))
    h = ObjectiveHandle(per_row(lambda x: seen.append(np.array(x)) or 0.0), bounds, 10)
    scored(h, np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.25]]))
    assert np.allclose(seen[0], [10.0, -2.0])
    assert np.allclose(seen[1], [20.0, 2.0])
    assert np.allclose(seen[2], [15.0, -1.0])


def test_handle_budget_and_trace():
    h = ObjectiveHandle(per_row(lambda x: float(x[0])), Bounds(lower=(0.0,), upper=(1.0,)), 3)
    assert scored(h, np.array([[0.5], [0.9]])).tolist() == [0.5, 0.9]
    assert scored(h, np.array([[0.1]]))[0] == pytest.approx(0.1)
    with pytest.raises(BudgetExhausted):
        scored(h, np.array([[0.2]]))
    assert len(h.trace) == 3
    assert [i for i, _ in h.trace] == [1, 2, 3]
    assert [b for _, b in h.trace] == [0.5, 0.5, pytest.approx(0.1)]
    assert next(i for i, b in h.trace if b == h.best_fitness) == 3  # where the best was found


def test_handle_batch_straddling_budget_scores_the_rows_that_fit():
    batches = []

    def score(points):
        batches.append(points[:, 0].tolist())
        return points[:, 0]

    h = ObjectiveHandle(score, Bounds(lower=(0.0,), upper=(1.0,)), 3)
    scored(h, np.array([[0.5]]))
    with pytest.raises(BudgetExhausted):
        scored(h, np.array([[0.9], [0.1], [0.05], [0.0]]))
    # one call per batch, cut to the budget; none once the budget is spent
    with pytest.raises(BudgetExhausted):
        scored(h, np.array([[0.3]]))
    assert batches == [[0.5], [0.9, pytest.approx(0.1)]]
    assert len(h.trace) == 3
    assert [b for _, b in h.trace] == [0.5, 0.5, pytest.approx(0.1)]
    assert next(i for i, b in h.trace if b == h.best_fitness) == 3  # where the best was found


def test_handle_refuses_a_scorer_that_miscounts():
    h = ObjectiveHandle(lambda points: [0.0], BOUNDS3, 10)
    with pytest.raises(ValueError):
        scored(h, np.zeros((2, 3)))


def test_pso_never_hands_the_scorer_an_empty_batch():
    """PSO at a budget of two generations asks for a third; the handle
    raises BudgetExhausted before calling the scorer with no rows."""
    sizes = []

    def score(points):
        sizes.append(len(points))
        return [sphere(x) for x in points]

    ((_, rec),) = lockstep([run_steps(OptimizerParams("pso"), score, BOUNDS3, seed=1, max_evaluations=40)])
    assert sizes == [20, 20]
    assert rec.evaluations == 40


@pytest.mark.parametrize("alg", ["sa", "pso"])
def test_inline_scorers_take_one_tick(monkeypatch, alg):
    """run() maps a one-point function over each batch; the handle reads
    such a scorer inline, without yielding, so lockstep drives the whole
    run in one tick: one resolve() call, holding no request."""
    calls = []
    real = optimizers.resolve

    def counted(requests):
        calls.append(len(requests))
        return real(requests)

    monkeypatch.setattr(optimizers, "resolve", counted)
    rec = run(OptimizerParams(alg), sphere, BOUNDS3, seed=3, max_evaluations=1000)
    assert rec.evaluations == 1000
    assert calls == [0]


@pytest.mark.parametrize("shape", [(3,), (2, 2), (1, 1, 3)])
def test_handle_refuses_points_not_shaped_k_by_dim(shape):
    seen = []
    h = ObjectiveHandle(lambda points: seen.append(points) or [0.0] * len(points), BOUNDS3, 10)
    with pytest.raises(ValueError, match="evaluate_batch needs a"):
        scored(h, np.zeros(shape))
    assert seen == [] and len(h.trace) == 0


def test_handle_rejects_empty_budget():
    with pytest.raises(ValueError):
        ObjectiveHandle(lambda points: [0.0] * len(points), BOUNDS3, 0)


# --- operator oracles --------------------------------------------------------


def test_velocity_update_hand_values():
    assert velocity_update(1.0, 0.0, 2.0, 4.0, 0.5, 1.0, 1.0) == 6.5
    assert velocity_update(3.0, 1.0, 9.0, 9.0, 1.0, 0.0, 0.0) == 3.0
    got = velocity_update(
        np.array([1.0, -1.0]),
        np.array([0.5, 0.5]),
        np.array([1.0, 0.0]),
        np.array([0.0, 1.0]),
        0.5,
        np.array([2.0, 0.0]),
        np.array([0.0, 2.0]),
    )
    assert np.allclose(got, [1.5, 0.5])


def test_mutant_vector_hand_value():
    got = mutant_vector(np.ones(3), np.full(3, 3.0), np.ones(3), 0.1)
    assert np.allclose(got, 1.2)
    assert np.allclose(mutant_vector(np.zeros(2), np.zeros(2), np.ones(2), 0.5), -0.5)


def test_binomial_mask_semantics():
    draws = np.array([0.5, 0.9, 0.90001])
    assert binomial_mask(draws, 0, 0.9).tolist() == [True, True, False]
    # inclusive threshold, and the forced coordinate always crosses
    assert binomial_mask(np.array([1.0, 0.9]), 0, 0.9).tolist() == [True, True]
    assert binomial_mask(np.array([0.3, 0.7, 0.5]), 1, 0.0).tolist() == [False, True, False]
    # a generation at once: one forced index per row
    got = binomial_mask(np.array([[0.5, 0.95], [0.95, 0.95]]), np.array([1, 0]), 0.9)
    assert got.tolist() == [[True, True], [True, False]]


def test_blend_crossover_convex():
    rng = np.random.default_rng(0)
    a = np.array([0.0, 1.0, 0.5])
    b = np.array([1.0, 0.0, 0.5])
    for _ in range(20):
        child = blend_crossover(a, b, rng.random(3))
        assert np.all(child >= np.minimum(a, b) - 1e-15)
        assert np.all(child <= np.maximum(a, b) + 1e-15)
    same = blend_crossover(a, a, rng.random(3))
    assert np.allclose(same, a)


def test_reset_one_gene_touches_single_coordinate():
    rng = np.random.default_rng(5)
    x = np.full(6, 0.5)
    for _ in range(20):
        y = reset_one_gene(x, rng)
        assert np.count_nonzero(y != x) == 1
        assert np.all((y >= 0.0) & (y <= 1.0))
    assert np.all(x == 0.5)  # input untouched


def test_tournament_prefers_lower_fitness():
    rng = np.random.default_rng(11)
    fitness = np.array([0.0, 1.0])
    wins = sum(tournament_pick(fitness, rng) == 0 for _ in range(20000))
    # two uniform draws, index 0 wins 3 of the 4 outcomes
    assert wins / 20000 == pytest.approx(0.75, abs=0.01)


def test_make_offspring_without_variation_is_a_clone():
    rng = np.random.default_rng(3)
    pos = np.random.default_rng(1).random((6, 3))
    fit = np.arange(6.0)
    for child in make_offspring(pos, fit, 10, 0.0, 0.0, rng):
        assert any(np.array_equal(child, row) for row in pos)


def test_make_offspring_stays_in_unit_cube():
    rng = np.random.default_rng(4)
    pos = np.random.default_rng(2).random((8, 3))
    fit = np.random.default_rng(3).random(8)
    children = make_offspring(pos, fit, 50, 1.0, 1.0, rng)
    assert children.shape == (50, 3)
    assert np.all((children >= 0.0) & (children <= 1.0))


def test_select_survivors_plus_keeps_parent_on_tie():
    parents = np.array([[0.1, 0.1]])
    offspring = np.array([[0.9, 0.9]])
    pos, fit = select_survivors(parents, [1.0], offspring, [1.0], 1, "plus")
    assert np.array_equal(pos[0], parents[0])
    assert fit[0] == 1.0


def test_select_survivors_plus_keeps_parent_when_child_worse():
    pos, fit = select_survivors(
        np.array([[0.2, 0.2]]), [1.0], np.array([[0.8, 0.8]]), [2.0], 1, "plus"
    )
    assert np.array_equal(pos[0], [0.2, 0.2])


def test_select_survivors_comma_ignores_parents():
    pos, fit = select_survivors(
        np.array([[0.2, 0.2]]), [0.0], np.array([[0.8, 0.8], [0.6, 0.6]]), [5.0, 4.0], 1, "comma"
    )
    assert np.array_equal(pos[0], [0.6, 0.6])
    assert fit[0] == 4.0


def test_select_survivors_sorted_ascending():
    parents = np.random.default_rng(0).random((4, 2))
    offspring = np.random.default_rng(1).random((8, 2))
    pf = [3.0, 1.0, 4.0, 1.5]
    of = [2.0, 0.5, 6.0, 7.0, 0.9, 5.0, 8.0, 9.0]
    _, fit = select_survivors(parents, pf, offspring, of, 4, "plus")
    assert fit.tolist() == [0.5, 0.9, 1.0, 1.5]


def test_sa_acceptance_probability():
    assert acceptance_probability(0.0, 1.0) == 1.0
    assert acceptance_probability(1.0, 1.0) == pytest.approx(2.0 / (1.0 + math.e))
    assert acceptance_probability(1e9, 1e-9) == 0.0  # exp overflow guard
    p_small = acceptance_probability(1e-12, 1.0)
    assert 0.99 < p_small <= 1.0


def test_sa_initial_temperature_inverts_target():
    d = 3.7
    t0 = initial_temperature([d, d, d], target_accept=0.8)
    assert t0 == pytest.approx(d / math.log(1.5))
    assert acceptance_probability(d, t0) == pytest.approx(0.8)
    assert initial_temperature([d], target_accept=0.5) == pytest.approx(d / math.log(3.0))
    # only worsening probes inform the estimate; improving ones are ignored
    assert initial_temperature([d, -100.0], target_accept=0.8) == pytest.approx(d / math.log(1.5))
    assert initial_temperature([], target_accept=0.8) == 1.0
    assert initial_temperature([-1.0, -2.0], target_accept=0.8) == 1.0
    # the mean adds left to right, so both 1.0s round away against 1e16
    assert initial_temperature([1e16, 1.0, 1.0], target_accept=0.8) == (1e16 / 3) / math.log(1.5)


# --- whole generations against per-child references --------------------------
#
# DE, GA and ES draw child by child but build, clip and select a generation at
# once. The references below build each child as it is drawn, with the same
# draws in the same order; both must hand the scorer the same batches, bit for
# bit, and leave the generator in the same state.


def _ref_blend(a, b, rng):
    beta = rng.random(len(a))
    return beta * a + (1.0 - beta) * b


def _ref_reset(x, rng):
    y = np.array(x, dtype=float)
    j = int(rng.integers(len(y)))
    y[j] = rng.random()
    return y


def _ref_tournament(fitness, rng):
    i = int(rng.integers(len(fitness)))
    j = int(rng.integers(len(fitness)))
    return i if fitness[i] <= fitness[j] else j


def _ref_ga_child(pos, fit, p_cross, p_mut, rng):
    a = _ref_tournament(fit, rng)
    b = _ref_tournament(fit, rng)
    if rng.random() < p_cross:
        child = _ref_blend(pos[a], pos[b], rng)
    else:
        child = np.array(pos[a], dtype=float)
    if rng.random() < p_mut:
        child = _ref_reset(child, rng)
    return np.clip(child, 0.0, 1.0)


def _ref_de(handle, params, rng, dim):
    pop = params.population_size
    pos = rng.random((pop, dim))
    fit = yield from handle.evaluate_batch(pos)
    while True:
        trials = np.empty((pop, dim))
        for i in range(pop):
            picks = rng.choice(pop - 1, size=3, replace=False)
            r1, r2, r3 = (int(p) + 1 if p >= i else int(p) for p in picks)
            mutant = pos[r1] + params.mu_de * (pos[r2] - pos[r3])
            forced = int(rng.integers(dim))
            mask = rng.random(dim) <= params.cr
            mask[forced] = True
            trials[i] = np.where(mask, mutant, pos[i])
        np.clip(trials, 0.0, 1.0, out=trials)
        trial_fit = yield from handle.evaluate_batch(trials)
        for i in range(pop):
            if trial_fit[i] <= fit[i]:
                pos[i], fit[i] = trials[i], trial_fit[i]


def _ref_ga(handle, params, rng, dim):
    pop = params.population_size
    pos = rng.random((pop, dim))
    fit = yield from handle.evaluate_batch(pos)
    if params.ga_variant == "steady":
        while True:
            child = _ref_ga_child(pos, fit, params.p_cross, params.p_mut, rng)
            (f,) = yield from handle.evaluate_batch(child[None])
            worst = int(np.argmax(fit))
            if f < fit[worst]:
                pos[worst], fit[worst] = child, f
    while True:
        off = np.array([_ref_ga_child(pos, fit, params.p_cross, params.p_mut, rng) for _ in range(pop)])
        off_fit = yield from handle.evaluate_batch(off)
        elite = int(np.argmin(fit))
        if fit[elite] < off_fit.min():
            worst_child = int(np.argmax(off_fit))
            off[worst_child], off_fit[worst_child] = pos[elite], fit[elite]
        pos, fit = off, off_fit


def _ref_es(handle, params, rng, dim):
    mu, lam = params.mu_es, params.lambda_es
    parents = rng.random((mu, dim))
    parent_fit = yield from handle.evaluate_batch(parents)
    while True:
        off = np.empty((lam, dim))
        for k in range(lam):
            do_cross = rng.random() < params.p_cross
            if do_cross and mu >= 2:
                a, b = (int(v) for v in rng.choice(mu, size=2, replace=False))
                child = _ref_blend(parents[a], parents[b], rng)
            else:
                child = np.array(parents[int(rng.integers(mu))], dtype=float)
            if rng.random() < params.p_mut:
                child = _ref_reset(child, rng)
            off[k] = child
        np.clip(off, 0.0, 1.0, out=off)
        off_fit = yield from handle.evaluate_batch(off)
        parents, parent_fit = select_survivors(parents, parent_fit, off, off_fit, mu, params.es_selection)


def _scored_batches(search, params, dim, seed, budget, levels):
    """The unit-cube batches a run hands its scorer, and the generator's
    state at the end. levels > 0 rounds the fitness down to multiples of
    1 / levels, so that ties, and the rules that break them, come up often."""
    batches = []

    def score(points):
        batches.append(points.copy())
        d = ((points - 0.3) ** 2).sum(axis=1)
        return np.floor(d * levels) if levels else d

    handle = ObjectiveHandle(score, Bounds((0.0,) * dim, (1.0,) * dim), budget)
    rng = np.random.default_rng(seed)
    with pytest.raises(BudgetExhausted):
        list(lockstep([search(handle, params, rng, dim)]))
    return [(b.shape, b.tobytes()) for b in batches], rng.bit_generator.state


_PROBABILITIES = st.sampled_from([0.0, 0.5, 1.0])


@st.composite
def _generation_params(draw):
    kind = draw(st.sampled_from(["de", "ga", "ga-steady", "es-comma", "es-plus"]))
    if kind == "de":
        return OptimizerParams(
            "de", population_size=draw(st.integers(4, 30)), cr=draw(_PROBABILITIES), mu_de=draw(st.floats(0.01, 2.0))
        )
    variation = dict(p_cross=draw(_PROBABILITIES), p_mut=draw(_PROBABILITIES))
    if kind.startswith("ga"):
        variant = "steady" if kind == "ga-steady" else "generational"
        return OptimizerParams("ga", population_size=draw(st.integers(4, 30)), ga_variant=variant, **variation)
    selection = kind[3:]
    mu = draw(st.integers(1, 6))
    lam = draw(st.integers(mu + (selection == "comma"), 30))
    return OptimizerParams("es", mu_es=mu, lambda_es=lam, es_selection=selection, **variation)


@settings(max_examples=150, deadline=None)
@given(
    params=_generation_params(),
    dim=st.integers(1, 5),
    seed=st.integers(0, 2**32),
    levels=st.sampled_from([0, 2, 16]),
    data=st.data(),
)
def test_generations_match_per_child_references(params, dim, seed, levels, data):
    first = params.mu_es if params.algorithm == "es" else params.population_size
    generation = params.lambda_es if params.algorithm == "es" else params.population_size
    budget = data.draw(st.integers(first + 1, first + 4 * generation), label="budget")
    search, reference = {"de": (run_de, _ref_de), "ga": (run_ga, _ref_ga), "es": (run_es, _ref_es)}[params.algorithm]
    got = _scored_batches(search, params, dim, seed, budget, levels)
    want = _scored_batches(reference, params, dim, seed, budget, levels)
    assert got[0] == want[0]
    assert got[1] == want[1]


# --- end-to-end runs ---------------------------------------------------------


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_run_spends_exact_budget(alg):
    rec = run(OptimizerParams(alg), sphere, BOUNDS3, seed=1, max_evaluations=200)
    assert rec.evaluations == 200
    assert len(rec.trace) == 200
    assert [i for i, _ in rec.trace] == list(range(1, 201))
    best = [b for _, b in rec.trace]
    assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))
    assert rec.best_fitness == best[-1]
    assert rec.trace[rec.best_eval_index - 1][1] == rec.best_fitness
    assert rec.algorithm == alg
    assert len(rec.best_position) == 3


def test_record_takes_best_fitness_only_as_its_trace_end():
    """A RunRecord's best fitness is its trace's last entry; a passed
    best_fitness is checked against it and not stored."""
    rec = run(OptimizerParams("de"), sphere, BOUNDS3, seed=3, max_evaluations=30)
    assert [f.name for f in dataclasses.fields(rec)] == ["algorithm", "seed", "best_position", "trace"]
    bent = rec.trace[:-1] + ((30, rec.best_fitness * 1.5),)
    assert dataclasses.replace(rec, best_fitness=rec.best_fitness * 1.5, trace=bent).best_fitness == rec.best_fitness * 1.5
    with pytest.raises(ValueError, match="trace's last best"):
        dataclasses.replace(rec, best_fitness=rec.best_fitness * 1.5)


@pytest.mark.parametrize("alg", ALGORITHMS + ("random",))
@pytest.mark.parametrize("budget", [1, 20, 30, 37])
def test_run_handles_partial_generations(alg, budget):
    """Every run spends exactly its budget, whole generations or not."""
    if alg == "random":
        rec = random_search(sphere, BOUNDS3, seed=2, max_evaluations=budget)
    else:
        rec = run(OptimizerParams(alg), sphere, BOUNDS3, seed=2, max_evaluations=budget)
    assert rec.evaluations == budget
    assert [i for i, _ in rec.trace] == list(range(1, budget + 1))


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_run_deterministic_per_seed(alg):
    a = run(OptimizerParams(alg), sphere, BOUNDS3, seed=9, max_evaluations=150)
    b = run(OptimizerParams(alg), sphere, BOUNDS3, seed=9, max_evaluations=150)
    c = run(OptimizerParams(alg), sphere, BOUNDS3, seed=10, max_evaluations=150)
    assert a.trace == b.trace
    assert np.array_equal(a.best_position, b.best_position)
    assert a.best_fitness == b.best_fitness
    assert a.best_eval_index == b.best_eval_index
    assert a.trace != c.trace


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_run_improves_on_initial_sample(alg):
    rec = run(OptimizerParams(alg), sphere, BOUNDS3, seed=3, max_evaluations=1000)
    first = rec.trace[0][1]
    assert rec.best_fitness < first
    assert rec.best_fitness < 1.0  # 3-d sphere over [-5, 5]^3 with 1000 evals


def test_run_positions_respect_bounds():
    for alg in ALGORITHMS:
        rec = run(OptimizerParams(alg), sphere, BOUNDS3, seed=4, max_evaluations=100)
        assert np.all(rec.best_position >= -5.0)
        assert np.all(rec.best_position <= 5.0)


def test_best_config_requires_three_dimensions():
    rec = run(OptimizerParams("pso"), sphere, bench_bounds(2), seed=0, max_evaluations=50)
    assert rec.best_config is None
    rec3 = run(OptimizerParams("pso"), sphere, BOUNDS3, seed=0, max_evaluations=50)
    assert rec3.best_config is not None


# Digest of (trace, best position, best index) over the stock algorithms, steady
# GA, plus-selection ES and random search; budgets 37 and 200 stop mid-generation.
GOLDEN_TRACES_SHA256 = "e08bd3921084c171ad74f6ff52a6d9097b69535e140d0f39b469eeed2aa6caae"


def test_golden_run_traces():
    cases = [OptimizerParams(alg) for alg in ALGORITHMS] + [
        OptimizerParams("ga", ga_variant="steady"),
        OptimizerParams("es", mu_es=4, lambda_es=20, es_selection="plus"),
    ]
    digest = hashlib.sha256()
    for budget in (37, 200):
        records = [run(p, sphere, BOUNDS3, seed=7, max_evaluations=budget) for p in cases]
        records.append(random_search(sphere, BOUNDS3, seed=7, max_evaluations=budget))
        for rec in records:
            digest.update(repr((rec.trace, rec.best_position.tolist(), rec.best_eval_index)).encode())
    assert digest.hexdigest() == GOLDEN_TRACES_SHA256
