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
from .sim.transfer import TransferOutcome, simulate_batch, simulate_replication
from .space import VdtpConfig
from .stats import mean

__all__ = ["FitnessReport", "fitness_term", "evaluate", "make_objective"]

C_CONSTANT = 2.0
DEFAULT_REPLICATIONS = 10


def fitness_term(time_s: float, lost_packets: float, data_kbytes: float) -> float:
    """Cost of a single replication: (time + losses) / log10(data + C_CONSTANT)."""
    return (time_s + lost_packets) / math.log10(data_kbytes + C_CONSTANT)


@dataclass(frozen=True)
class FitnessReport:
    fitness: float
    replications: tuple
    config: VdtpConfig

    @property
    def n(self) -> int:
        """Number of replications scored."""
        return len(self.replications)


def _outcome_term(outcome: TransferOutcome) -> float:
    return fitness_term(
        outcome.transmission_time_s,
        outcome.lost_packets,
        outcome.per_session_kbytes(),
    )


def _fitness(outcomes) -> float:
    """A candidate's fitness: the mean term of its replications."""
    return mean(_outcome_term(o) for o in outcomes)


def _replication_seeds(seed, n: int, key: tuple = ()) -> list:
    """Kernel seeds of the n children spawn(n) gives on a fresh SeedSequence
    with the entropy, pool size and spawn key (plus `key`) of `seed`, an int
    or a SeedSequence: each child's first uint64 word. The children are built
    from their spawn keys, as spawn would advance `seed`. This is the one
    place where a SeedSequence becomes a seed of the simulator."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(int(seed))
    base = ss.spawn_key + key
    return [
        np.random.SeedSequence(ss.entropy, spawn_key=base + (j,), pool_size=ss.pool_size).generate_state(1, np.uint64)[0]
        for j in range(n)
    ]


def evaluate(config: VdtpConfig, scenario: Scenario, n: int = DEFAULT_REPLICATIONS, seed=0) -> FitnessReport:
    """Score one configuration with n independent replications.

    `seed` is an int or a numpy SeedSequence, whose first n children seed
    the replications (the sequence itself is left as it was). Counts as a
    single unit of optimizer budget no matter what n is.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    outcomes = tuple(simulate_replication(config, scenario, _replication_seeds(seed, n)))
    return FitnessReport(fitness=_fitness(outcomes), replications=outcomes, config=config)


def make_objective(scenario: Scenario, n: int, seed):
    """Batch objective for the optimizers: (k, 3) physical array -> list of
    k fitnesses, scored in one simulate_batch call.

    Successive rows, within a batch and across batches, use successive
    evaluation indices to derive replication seeds, so the whole run is
    reproducible from `seed` while each evaluation still sees fresh channel
    randomness (the objective is stochastic, as a network simulator would
    be), and a fitness does not depend on how the rows were cut into
    batches. Evaluation k scores with the kernel seeds of the n children of
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
