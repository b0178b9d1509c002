"""Differential evolution, rand/1/bin, synchronous generations."""

from __future__ import annotations

import numpy as np

from .common import ObjectiveHandle, OptimizerParams

__all__ = ["accept_trial", "binomial_mask", "mutant_vector", "run_de"]


def mutant_vector(base, top, bottom, mu):
    """base + mu * (top - bottom), all arrays."""
    return np.asarray(base, dtype=float) + mu * (
        np.asarray(top, dtype=float) - np.asarray(bottom, dtype=float)
    )


def binomial_mask(draws, forced_index, cr):
    """Coordinates taken from the mutant: draw <= cr, plus one forced index."""
    mask = np.asarray(draws, dtype=float) <= cr
    mask[forced_index] = True
    return mask


def accept_trial(trial_fitness: float, target_fitness: float) -> bool:
    """Greedy one-to-one selection; ties go to the trial."""
    return bool(trial_fitness <= target_fitness)


def run_de(handle: ObjectiveHandle, params: OptimizerParams, rng, dim: int) -> None:
    """Runs until the handle raises BudgetExhausted.

    Donors come from the current generation; replacements take effect only
    when the whole generation has been evaluated. A trial replaces its target
    when its fitness is less than or equal to the target's. A mu_de below
    sqrt((1 - p/2) / population_size), where p = 1 - (1 - cr)(1 - 1/dim) is
    the chance that a coordinate comes from the mutant, contracts the
    population even without selection (Zaharie 2002), so such settings stall
    early on small budgets.
    """
    pop = params.population_size
    pos = rng.random((pop, dim))
    fit = handle.evaluate_batch(pos)

    while True:
        trials = np.empty((pop, dim))
        for i in range(pop):
            picks = rng.choice(pop - 1, size=3, replace=False)
            # skip-index trick keeps the three donors distinct from target i
            r1, r2, r3 = (int(p) + 1 if p >= i else int(p) for p in picks)
            trial_src = mutant_vector(pos[r1], pos[r2], pos[r3], params.mu_de)
            forced = int(rng.integers(dim))
            mask = binomial_mask(rng.random(dim), forced, params.cr)
            trials[i] = np.where(mask, trial_src, pos[i])
        np.clip(trials, 0.0, 1.0, out=trials)
        trial_fit = handle.evaluate_batch(trials)
        accepted = np.array([accept_trial(t, f) for t, f in zip(trial_fit, fit)])
        pos[accepted] = trials[accepted]
        fit[accepted] = trial_fit[accepted]
