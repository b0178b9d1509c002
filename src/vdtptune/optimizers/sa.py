"""Simulated annealing with a sigmoid acceptance rule and geometric cooling.

The worsening-move acceptance probability is 2 / (1 + exp(delta / T)) with
delta = f(new) - f(current) > 0, which is 1 at delta = 0 and falls toward 0
as delta grows. The initial temperature is chosen so that the mean worsening
delta observed in a short probe phase is accepted with a target probability.
"""

from __future__ import annotations

import math

import numpy as np

from ..stats import mean
from .common import ObjectiveHandle, OptimizerParams, reset_one_gene

__all__ = ["acceptance_probability", "initial_temperature", "run_sa"]

# exp overflows past ~709; the acceptance probability is 0 for all purposes
_EXP_MAX = 709.0


def acceptance_probability(delta: float, temperature: float) -> float:
    """Probability of accepting a worsening move (delta > 0) at temperature T."""
    z = delta / temperature
    if z >= _EXP_MAX:
        return 0.0
    return 2.0 / (1.0 + math.exp(z))


def initial_temperature(deltas, target_accept: float = 0.8) -> float:
    """Temperature at which the mean positive delta is accepted with
    probability target_accept: T0 = d / ln(2 / target - 1).

    Falls back to 1.0 when no probe produced a worsening move.
    """
    positive = [float(d) for d in deltas if d > 0.0]
    if not positive:
        return 1.0
    d = mean(positive)
    return d / math.log(2.0 / target_accept - 1.0)


def run_sa(handle: ObjectiveHandle, params: OptimizerParams, rng, dim: int):
    """Generator; runs until the handle raises BudgetExhausted.

    The temperature probe evaluations consume budget. Each temperature level
    holds for markov_chain_length proposals, then cools by alpha_temp. Every
    proposal starts from the state the last one left, so each is a batch of
    one row: SA pays the handle's cost on every evaluation, and in a
    campaign each proposal takes a tick of optimizers.lockstep, where it is
    scored together with the other runs' batches of that tick.
    """
    current = rng.random(dim)
    current_fit = float((yield from handle.evaluate_batch(current[None]))[0])

    probes = np.array([reset_one_gene(current, rng) for _ in range(params.temp_probes)])
    temperature = initial_temperature((yield from handle.evaluate_batch(probes)) - current_fit, params.target_accept)

    # one candidate per call: each proposal starts from the state the last one left
    while True:
        for _ in range(params.markov_chain_length):
            candidate = reset_one_gene(current, rng)
            f = float((yield from handle.evaluate_batch(candidate[None]))[0])
            delta = f - current_fit
            if delta <= 0.0:
                current, current_fit = candidate, f
            elif rng.random() < acceptance_probability(delta, temperature):
                current, current_fit = candidate, f
        temperature *= params.alpha_temp
