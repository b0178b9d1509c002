"""Objective value of a candidate configuration.

One evaluation runs N replicated transfer simulations and averages
(time + losses) / log10(data + 2) over them, where data is the per-session
mean delivered kBytes. The +2 keeps the denominator finite when nothing is
transferred. Lower is better.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sim.scenario import Scenario
from .sim.transfer import TransferOutcome, several_seeds, simulate_batch, simulate_replication
from .space import VdtpConfig
from .stats import mean

__all__ = ["FitnessReport", "fitness_term", "aggregate_fitness", "evaluate", "make_objective"]

C_CONSTANT = 2.0
DEFAULT_REPLICATIONS = 10


def fitness_term(time_s: float, lost_packets: float, data_kbytes: float, c: float = C_CONSTANT) -> float:
    """Cost of a single replication: (time + losses) / log10(data + c)."""
    return (time_s + lost_packets) / math.log10(data_kbytes + c)


aggregate_fitness = mean  # the fitness of a candidate is its replications' mean term


@dataclass(frozen=True)
class FitnessReport:
    fitness: float
    replications: tuple
    config: VdtpConfig
    n: int = DEFAULT_REPLICATIONS


def _outcome_term(outcome: TransferOutcome) -> float:
    return fitness_term(
        outcome.transmission_time_s,
        outcome.lost_packets,
        outcome.per_session_kbytes(),
    )


def _fitness(outcomes) -> float:
    return aggregate_fitness(_outcome_term(o) for o in outcomes)


def _replication_seeds(seed, n: int, key: tuple = ()) -> list:
    """The n children spawn(n) gives on a fresh SeedSequence with the
    entropy, pool size and spawn key (plus `key`) of `seed`, an int or a
    SeedSequence; built from their spawn keys, as spawn would advance `seed`."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(int(seed))
    base = ss.spawn_key + key
    return [np.random.SeedSequence(ss.entropy, spawn_key=base + (j,), pool_size=ss.pool_size) for j in range(n)]


def evaluate(config: VdtpConfig, scenario: Scenario, n: int = DEFAULT_REPLICATIONS, seed=0) -> FitnessReport:
    """Score one configuration with n independent replications.

    `seed` may be an int or a numpy SeedSequence, whose first n children
    seed the replications (the sequence itself is left as it was), or a
    list, tuple or 1-D array of n seeds, one per replication. Counts as a
    single unit of optimizer budget no matter what n is.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if several_seeds(seed):
        if len(seed) != n:
            raise ValueError(f"need one seed per replication: {len(seed)} seeds for n = {n}")
        seeds = seed
    else:
        seeds = _replication_seeds(seed, n)
    outcomes = tuple(simulate_replication(config, scenario, seeds))
    return FitnessReport(fitness=_fitness(outcomes), replications=outcomes, config=config, n=n)


def make_objective(scenario: Scenario, n: int, seed):
    """Batch objective for the optimizers: (k, 3) physical array -> list of
    k fitnesses, scored in one simulate_batch call.

    Successive rows, within a batch and across batches, use successive
    evaluation indices to derive replication seeds, so the whole run is
    reproducible from `seed` while each evaluation still sees fresh channel
    randomness (the objective is stochastic, as a network simulator would
    be), and a fitness does not depend on how the rows were cut into
    batches. Evaluation k scores with the n children of
    SeedSequence(entropy, spawn_key=base + (1, k)), base being the seed's
    own spawn key, and with the seed's pool size.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(int(seed))
    counter = [0]

    def objective(points) -> list:
        configs = [VdtpConfig.from_array(x) for x in points]
        first = counter[0]
        counter[0] += len(configs)
        seeds = [_replication_seeds(ss, n, (1, first + i)) for i in range(len(configs))]
        return [_fitness(outcomes) for outcomes in simulate_batch(configs, scenario, seeds)]

    return objective
