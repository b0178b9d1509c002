"""Genetic algorithm: generational with elitism, plus a steady-state variant."""

from __future__ import annotations

import numpy as np

from .common import (
    ObjectiveHandle,
    OptimizerParams,
    make_children,
    tournament_pick,
)

__all__ = ["make_offspring", "run_ga"]


def make_offspring(pos, fit, count, p_cross, p_mut, rng) -> np.ndarray:
    """`count` children, a row each. Per child: two tournament parents, a
    blend with prob p_cross (else a clone of the first parent), then a
    single-gene reset with prob p_mut. The draws run child by child in that
    order; the children are then made at once (make_children)."""
    dim = pos.shape[1]
    fitness = fit.tolist()
    parents = np.empty((2, count), dtype=np.intp)
    cross = np.zeros(count, dtype=bool)
    beta = np.zeros((count, dim))
    gene = np.full(count, -1, dtype=np.intp)
    value = np.zeros(count)
    for k in range(count):
        parents[0, k] = tournament_pick(fitness, rng)
        parents[1, k] = tournament_pick(fitness, rng)
        if rng.random() < p_cross:
            cross[k] = True
            beta[k] = rng.random(dim)
        if rng.random() < p_mut:
            gene[k] = rng.integers(dim)
            value[k] = rng.random()
    return make_children(pos[parents[0]], pos[parents[1]], cross, beta, gene, value)


def run_ga(handle: ObjectiveHandle, params: OptimizerParams, rng, dim: int):
    """Generator; runs until the handle raises BudgetExhausted.

    Generational: each generation is population_size children from
    make_offspring, scored in one batch; the best parent replaces the worst
    child when it beats every child. Steady: one child per batch, which
    replaces the worst member when strictly better.
    """
    pop = params.population_size
    pos = rng.random((pop, dim))
    fit = yield from handle.evaluate_batch(pos)

    if params.ga_variant == "steady":
        # one child per call: each proposal reads the population the last one updated
        while True:
            child = make_offspring(pos, fit, 1, params.p_cross, params.p_mut, rng)
            (f,) = yield from handle.evaluate_batch(child)
            worst = int(np.argmax(fit))
            if f < fit[worst]:
                pos[worst] = child[0]
                fit[worst] = f

    # generational with one elite carried over
    while True:
        off = make_offspring(pos, fit, pop, params.p_cross, params.p_mut, rng)
        off_fit = yield from handle.evaluate_batch(off)
        elite = int(np.argmin(fit))
        if fit[elite] < off_fit.min():
            worst_child = int(np.argmax(off_fit))
            off[worst_child] = pos[elite]
            off_fit[worst_child] = fit[elite]
        pos = off
        fit = off_fit
