"""Global-best particle swarm over the unit cube."""

from __future__ import annotations

import numpy as np

from .common import ObjectiveHandle, OptimizerParams

__all__ = ["velocity_update", "run_pso"]


def velocity_update(velocity, position, personal_best, leader, w, phi1, phi2):
    """New velocity: inertia plus cognitive and social pulls.

    phi1 and phi2 are per-coordinate coefficient arrays (or scalars); the
    caller draws them fresh for every particle update.
    """
    velocity = np.asarray(velocity, dtype=float)
    position = np.asarray(position, dtype=float)
    return (
        w * velocity
        + phi1 * (np.asarray(personal_best, dtype=float) - position)
        + phi2 * (np.asarray(leader, dtype=float) - position)
    )


def run_pso(handle: ObjectiveHandle, params: OptimizerParams, rng, dim: int) -> None:
    """Runs until the handle raises BudgetExhausted.

    Coefficients are 2 * U(0,1) drawn per particle per dimension. Velocities
    are clamped to [-1, 1]; positions are clamped to the cube and the
    velocity coordinate is zeroed on boundary contact.
    """
    pop = params.population_size
    pos = rng.random((pop, dim))
    vel = rng.uniform(-1.0, 1.0, (pop, dim))

    fit = np.empty(pop)
    for i in range(pop):
        fit[i] = handle.evaluate(pos[i])

    pbest = pos.copy()
    pbest_fit = fit.copy()
    leader_idx = int(np.argmin(pbest_fit))
    leader = pbest[leader_idx].copy()
    leader_fit = float(pbest_fit[leader_idx])

    while True:
        for i in range(pop):
            phi1 = 2.0 * rng.random(dim)
            phi2 = 2.0 * rng.random(dim)
            v = velocity_update(vel[i], pos[i], pbest[i], leader, params.w, phi1, phi2)
            np.clip(v, -1.0, 1.0, out=v)
            x = pos[i] + v
            hit = (x < 0.0) | (x > 1.0)
            np.clip(x, 0.0, 1.0, out=x)
            v[hit] = 0.0
            pos[i] = x
            vel[i] = v
            f = handle.evaluate(x)
            if f < pbest_fit[i]:
                pbest_fit[i] = f
                pbest[i] = x.copy()
        best = int(np.argmin(pbest_fit))
        if pbest_fit[best] < leader_fit:
            leader_fit = float(pbest_fit[best])
            leader = pbest[best].copy()
