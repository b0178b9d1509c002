"""(mu + lambda) / (mu, lambda) evolution strategy.

Shares the GA variation operators. Survivor selection is rank based with a
stable sort over a parents-first pool, so on fitness ties the parent is kept
under plus selection.
"""

from __future__ import annotations

import numpy as np

from .common import (
    ObjectiveHandle,
    OptimizerParams,
    blend_crossover,
    reset_one_gene,
)

__all__ = ["run_es", "select_survivors"]


def select_survivors(parents, parent_fit, offspring, offspring_fit, mu: int, selection: str):
    """Best mu of the pool: parents + offspring under plus, offspring only
    under comma. Stable rank order, parents listed first, so equal fitness
    favors the parent."""
    if selection == "plus":
        pool = np.vstack([parents, offspring])
        pool_fit = np.concatenate([parent_fit, offspring_fit])
    else:
        pool = np.asarray(offspring, dtype=float)
        pool_fit = np.asarray(offspring_fit, dtype=float)
    order = np.argsort(pool_fit, kind="stable")[:mu]
    return pool[order].copy(), pool_fit[order].copy()


def run_es(handle: ObjectiveHandle, params: OptimizerParams, rng, dim: int) -> None:
    """Runs until the handle raises BudgetExhausted."""
    mu = params.mu_es
    lam = params.lambda_es
    parents = rng.random((mu, dim))
    parent_fit = handle.evaluate_batch(parents)

    while True:
        off = np.empty((lam, dim))
        for k in range(lam):
            do_cross = rng.random() < params.p_cross
            if do_cross and mu >= 2:
                a, b = (int(v) for v in rng.choice(mu, size=2, replace=False))
                child = blend_crossover(parents[a], parents[b], rng)
            else:
                child = np.array(parents[int(rng.integers(mu))], dtype=float)
            if rng.random() < params.p_mut:
                child = reset_one_gene(child, rng)
            off[k] = child
        np.clip(off, 0.0, 1.0, out=off)
        off_fit = handle.evaluate_batch(off)

        parents, parent_fit = select_survivors(
            parents, parent_fit, off, off_fit, mu, params.es_selection
        )
