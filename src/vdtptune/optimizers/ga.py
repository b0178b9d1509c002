"""Genetic algorithm: generational with elitism, plus a steady-state variant."""

from __future__ import annotations

import numpy as np

from .common import (
    ObjectiveHandle,
    OptimizerParams,
    blend_crossover,
    reset_one_gene,
    tournament_pick,
)

__all__ = ["make_offspring", "run_ga"]


def make_offspring(pos, fit, p_cross, p_mut, rng):
    """One child: two tournament parents, blend with prob p_cross (else clone
    the first parent), then single-gene reset with prob p_mut."""
    a = tournament_pick(fit, rng)
    b = tournament_pick(fit, rng)
    if rng.random() < p_cross:
        child = blend_crossover(pos[a], pos[b], rng)
    else:
        child = np.array(pos[a], dtype=float)
    if rng.random() < p_mut:
        child = reset_one_gene(child, rng)
    np.clip(child, 0.0, 1.0, out=child)
    return child


def run_ga(handle: ObjectiveHandle, params: OptimizerParams, rng, dim: int) -> None:
    """Runs until the handle raises BudgetExhausted."""
    pop = params.population_size
    pos = rng.random((pop, dim))
    fit = handle.evaluate_batch(pos)

    if params.ga_variant == "steady":
        # one child per call: each proposal reads the population the last one updated
        while True:
            child = make_offspring(pos, fit, params.p_cross, params.p_mut, rng)
            (f,) = handle.evaluate_batch(child[None])
            worst = int(np.argmax(fit))
            if f < fit[worst]:
                pos[worst] = child
                fit[worst] = f

    # generational with one elite carried over
    while True:
        off = np.array([make_offspring(pos, fit, params.p_cross, params.p_mut, rng) for _ in range(pop)])
        off_fit = handle.evaluate_batch(off)
        elite = int(np.argmin(fit))
        if fit[elite] < off_fit.min():
            worst_child = int(np.argmax(off_fit))
            off[worst_child] = pos[elite]
            off_fit[worst_child] = fit[elite]
        pos = off
        fit = off_fit
