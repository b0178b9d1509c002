"""(mu + lambda) / (mu, lambda) evolution strategy.

Shares the GA variation operators. Survivor selection is rank based with a
stable sort over a parents-first pool, so on fitness ties the parent is kept
under plus selection.
"""

from __future__ import annotations

import numpy as np

from .common import ObjectiveHandle, OptimizerParams, make_children

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


def run_es(handle: ObjectiveHandle, params: OptimizerParams, rng, dim: int):
    """Generator; runs until the handle raises BudgetExhausted.

    Per child: with prob p_cross (and mu >= 2) a blend of two distinct
    parents, else a clone of one, then a single-gene reset with prob p_mut.
    The draws run child by child in that order; the generation's children
    are then made at once (make_children).
    """
    mu = params.mu_es
    lam = params.lambda_es
    parents = rng.random((mu, dim))
    parent_fit = yield from handle.evaluate_batch(parents)

    while True:
        picks = np.zeros((2, lam), dtype=np.intp)
        cross = np.zeros(lam, dtype=bool)
        beta = np.zeros((lam, dim))
        gene = np.full(lam, -1, dtype=np.intp)
        value = np.zeros(lam)
        for k in range(lam):
            if rng.random() < params.p_cross and mu >= 2:
                picks[:, k] = rng.choice(mu, size=2, replace=False)
                cross[k] = True
                beta[k] = rng.random(dim)
            else:
                picks[0, k] = rng.integers(mu)
            if rng.random() < params.p_mut:
                gene[k] = rng.integers(dim)
                value[k] = rng.random()
        off = make_children(parents[picks[0]], parents[picks[1]], cross, beta, gene, value)
        off_fit = yield from handle.evaluate_batch(off)

        parents, parent_fit = select_survivors(
            parents, parent_fit, off, off_fit, mu, params.es_selection
        )
