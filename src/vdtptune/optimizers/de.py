"""Differential evolution, rand/1/bin, synchronous generations."""

from __future__ import annotations

import numpy as np

from .common import ObjectiveHandle, OptimizerParams

__all__ = ["accept_trials", "binomial_mask", "mutant_vector", "run_de"]


def mutant_vector(base, top, bottom, mu):
    """base + mu * (top - bottom): one mutant per row of the arrays."""
    return np.asarray(base, dtype=float) + mu * (
        np.asarray(top, dtype=float) - np.asarray(bottom, dtype=float)
    )


def binomial_mask(draws, forced_index, cr):
    """Coordinates taken from the mutant: draw <= cr, plus one forced index
    per row (`draws` is one row or a (k, dim) array, `forced_index` one
    index or k of them)."""
    draws = np.asarray(draws, dtype=float)
    return (draws <= cr) | (np.arange(draws.shape[-1]) == np.asarray(forced_index)[..., None])


def accept_trials(trial_fitness, target_fitness) -> np.ndarray:
    """Greedy one-to-one selection of a generation; ties go to the trial."""
    return np.asarray(trial_fitness, dtype=float) <= np.asarray(target_fitness, dtype=float)


def run_de(handle: ObjectiveHandle, params: OptimizerParams, rng, dim: int):
    """Generator; runs until the handle raises BudgetExhausted.

    Donors come from the current generation; replacements take effect only
    when the whole generation has been evaluated. A trial replaces its target
    when its fitness is less than or equal to the target's. A mu_de below
    sqrt((1 - p/2) / population_size), where p = 1 - (1 - cr)(1 - 1/dim) is
    the chance that a coordinate comes from the mutant, contracts the
    population even without selection (Zaharie 2002), so such settings stall
    early on small budgets.

    Each target draws its three donor picks, its forced coordinate and its
    crossover draws in that order; the mutants, masks and trials of a
    generation are then made at once.
    """
    pop = params.population_size
    pos = rng.random((pop, dim))
    fit = yield from handle.evaluate_batch(pos)
    targets = np.arange(pop)[:, None]

    while True:
        donors = np.empty((pop, 3), dtype=np.intp)
        forced = np.empty(pop, dtype=np.intp)
        draws = np.empty((pop, dim))
        for i in range(pop):
            donors[i] = rng.choice(pop - 1, size=3, replace=False)
            forced[i] = rng.integers(dim)
            draws[i] = rng.random(dim)
        # skip-index trick keeps the three donors distinct from their target
        donors += donors >= targets
        mutants = mutant_vector(pos[donors[:, 0]], pos[donors[:, 1]], pos[donors[:, 2]], params.mu_de)
        trials = np.where(binomial_mask(draws, forced, params.cr), mutants, pos)
        np.clip(trials, 0.0, 1.0, out=trials)
        trial_fit = yield from handle.evaluate_batch(trials)
        accepted = accept_trials(trial_fit, fit)
        pos[accepted] = trials[accepted]
        fit[accepted] = trial_fit[accepted]
