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


def run_pso(handle: ObjectiveHandle, params: OptimizerParams, rng, dim: int):
    """Generator; runs until the handle raises BudgetExhausted.

    Coefficients are 2 * U(0,1) drawn per particle per dimension. Velocities
    are clamped to [-1, 1]; positions are clamped to the cube and the
    velocity coordinate is zeroed on boundary contact. The leader moves once
    per generation, after the whole swarm has been scored. A generation is
    one draw of all its coefficients and whole-swarm array arithmetic.
    """
    pop = params.population_size
    pos = rng.random((pop, dim))
    vel = rng.uniform(-1.0, 1.0, (pop, dim))
    pbest = pos.copy()
    pbest_fit = yield from handle.evaluate_batch(pos)
    leader_idx = int(np.argmin(pbest_fit))
    leader = pbest[leader_idx].copy()
    leader_fit = float(pbest_fit[leader_idx])

    while True:
        # per particle: dim phi1 draws, then dim phi2 draws
        phi = 2.0 * rng.random((pop, 2, dim))
        vel = velocity_update(vel, pos, pbest, leader, params.w, phi[:, 0], phi[:, 1])
        np.clip(vel, -1.0, 1.0, out=vel)
        pos = pos + vel
        hit = (pos < 0.0) | (pos > 1.0)
        np.clip(pos, 0.0, 1.0, out=pos)
        vel[hit] = 0.0
        fit = yield from handle.evaluate_batch(pos)
        improved = fit < pbest_fit
        pbest_fit[improved] = fit[improved]
        pbest[improved] = pos[improved]
        best = int(np.argmin(pbest_fit))
        if pbest_fit[best] < leader_fit:
            leader_fit = float(pbest_fit[best])
            leader = pbest[best].copy()
