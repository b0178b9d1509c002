"""Objective value of a candidate configuration.

One evaluation runs N replicated transfer simulations and averages
(time + losses) / log10(data + 2) over them, where data is the per-session
mean delivered kBytes. The +2 keeps the denominator finite when nothing is
transferred. Lower is better.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .sim.scenario import Scenario
from .sim.transfer import TransferOutcome, simulate_batch, simulate_replication
from .space import VdtpConfig
from .stats import mean

__all__ = ["FitnessReport", "PendingFitness", "fitness_term", "evaluate", "make_objective", "resolve"]

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


# numpy's SeedSequence (O'Neill's seed_seq, numpy/random/bit_generator.pyx)
# in Python ints on 32-bit words. hashmix call i xors _HASH_A[i] and then
# multiplies by _HASH_A[i + 1]: its constant depends only on how many words
# were hashed before, so the constants are a table. mix(x, y) is
# (_MIX_L * x - _MIX_R * y) with its high half folded in.
_M32 = 0xFFFF_FFFF
_MULT_A = 0x931E8875
_HASH_A = (0x43B0D7E5,)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# generate_state hashes pool word 0 (the low half of a uint64) and pool word 1
_OUT_X0 = 0x8B51F9DD
_OUT_M0 = _OUT_X1 = _OUT_X0 * 0x58F38DED & _M32
_OUT_M1 = _OUT_M0 * 0x58F38DED & _M32


def _hash_a(end: int) -> tuple:
    """_HASH_A, extended to hold index `end`. The table is rebound, never
    grown in place, so a caller in another thread always reads a whole one."""
    global _HASH_A
    h = _HASH_A
    if len(h) <= end:
        grown = list(h)
        while len(grown) <= end:
            grown.append(grown[-1] * _MULT_A & _M32)
        _HASH_A = h = tuple(grown)
    return h


def _hashmix(value: int, i: int) -> int:
    h = _hash_a(i + 1)
    value = (value ^ h[i]) * h[i + 1] & _M32
    return value ^ value >> 16


@functools.cache
def _all_pairs(size: int) -> tuple:
    """(src, dst, xor, multiply) of each step pool[dst] = mix(pool[dst],
    hashmix(pool[src])) that mixes a filled pool, in order."""
    h = _hash_a(size * size)
    pairs = [(src, dst) for src in range(size) for dst in range(size) if src != dst]
    return tuple((src, dst, h[i], h[i + 1]) for i, (src, dst) in enumerate(pairs, size))


def _words(x) -> list:
    """The uint32 words SeedSequence reads from an int (low word first) or a
    sequence of ints and sequences."""
    words = []
    for v in [x] if isinstance(x, (int, np.integer)) else x:
        if not isinstance(v, (int, np.integer)):
            words += _words(v)
            continue
        v = int(v)
        if v < 0:
            raise ValueError(f"seed words must be non-negative, got {v}")
        words.append(v & _M32)
        while v := v >> 32:
            words.append(v & _M32)
    return words


class _SeedPool:
    """Pool words 0 and 1 of SeedSequence(entropy, spawn_key=base + key,
    pool_size=size), where `seed` is an int or a SeedSequence with that
    entropy, spawn key `base` and pool size. This is the one place where a
    seed becomes uint64 words: the simulator's kernel seeds and a
    campaign's run seeds. numpy's SeedSequence is its oracle in the tests.

    The run entropy is zero-padded to the pool size, as SeedSequence does
    for a non-empty spawn key (padding changes no pool word of an empty
    one), so every spawn-key word lands past the pool and changes pool word
    d through pool word d alone. generate_state(1, np.uint64) reads words 0
    and 1 only, so they are all a later key word needs.
    """

    def __init__(self, seed, key: tuple = ()):
        if isinstance(seed, np.random.SeedSequence):
            entropy, base, self._size = seed.entropy, seed.spawn_key, seed.pool_size
        else:
            entropy, base, self._size = int(seed), (), 4
        size = self._size
        words = _words(entropy)
        words += [0] * (size - len(words))
        pool = [_hashmix(w, i) for i, w in enumerate(words[:size])]
        for src, dst, x, m in _all_pairs(size):
            v = (pool[src] ^ x) * m & _M32
            v = (_MIX_L * pool[dst] - _MIX_R * (v ^ v >> 16)) & _M32
            pool[dst] = v ^ v >> 16
        words = words[size:] + _words(base) + _words(key)
        self._p0, self._p1, self._calls = self._absorb(words, pool[0], pool[1], size * size)
        self._terms = {}

    def _absorb(self, words, p0: int, p1: int, calls: int) -> tuple:
        """Pool words 0 and 1 and the hashmix count after `words`."""
        h = _hash_a(calls + len(words) * self._size + 1)
        for w in words:
            a = (w ^ h[calls]) * h[calls + 1] & _M32
            b = (w ^ h[calls + 1]) * h[calls + 2] & _M32
            p0 = (_MIX_L * p0 - _MIX_R * (a ^ a >> 16)) & _M32
            p1 = (_MIX_L * p1 - _MIX_R * (b ^ b >> 16)) & _M32
            p0 ^= p0 >> 16
            p1 ^= p1 >> 16
            calls += self._size
        return p0, p1, calls

    def word(self) -> int:
        """generate_state(1, np.uint64)[0] of the sequence, as a Python int."""
        lo = (self._p0 ^ _OUT_X0) * _OUT_M0 & _M32
        hi = (self._p1 ^ _OUT_X1) * _OUT_M1 & _M32
        return lo ^ lo >> 16 | (hi ^ hi >> 16) << 32

    def children(self, n: int, key: tuple = ()) -> list:
        """The words (Python ints) of the n children spawn(n) gives on the
        sequence with `key` appended to its spawn key: spawn keys
        base + key + (j,), j < n.
        hashmix(j) at a given call count does not depend on `key`'s values,
        so those terms are a table per call count."""
        p0, p1, calls = self._absorb(_words(key), self._p0, self._p1, self._calls)
        terms = self._terms.get(calls)
        if terms is None or len(terms) < n:
            terms = self._terms[calls] = [
                (_MIX_R * _hashmix(j, calls), _MIX_R * _hashmix(j, calls + 1)) for j in range(n)
            ]
        l0, l1 = _MIX_L * p0, _MIX_L * p1
        out = []
        for r0, r1 in terms[:n]:
            q0 = (l0 - r0) & _M32
            q1 = (l1 - r1) & _M32
            lo = (q0 ^ q0 >> 16 ^ _OUT_X0) * _OUT_M0 & _M32
            hi = (q1 ^ q1 >> 16 ^ _OUT_X1) * _OUT_M1 & _M32
            out.append(lo ^ lo >> 16 | (hi ^ hi >> 16) << 32)
        return out


def evaluate(config: VdtpConfig, scenario: Scenario, n: int = DEFAULT_REPLICATIONS, seed=0) -> FitnessReport:
    """Score one configuration with n independent replications.

    `seed` is an int or a numpy SeedSequence, whose first n children seed
    the replications (the sequence itself is left as it was). Counts as a
    single unit of optimizer budget no matter what n is.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    outcomes = tuple(simulate_replication(config, scenario, _SeedPool(seed).children(n)))
    return FitnessReport(fitness=_fitness(outcomes), replications=outcomes, config=config)


class PendingFitness:
    """A request for the fitnesses of one batch an objective from
    make_objective was handed: its rows' configurations and replication
    seeds. resolve() scores it."""

    __slots__ = ("scenario", "configs", "seeds")

    def __init__(self, scenario: Scenario, configs: list, seeds: list):
        self.scenario = scenario
        self.configs = configs
        self.seeds = seeds


def resolve(requests) -> list:
    """The fitness list of each PendingFitness of `requests`, in order, all
    scored in one simulate_batch call. The requests of a tick share one
    scenario, and one with another scenario is refused; a request's
    fitnesses do not depend on the other requests it is scored with."""
    if not requests:
        return []
    scenario = requests[0].scenario
    if any(request.scenario != scenario for request in requests):
        raise ValueError("the requests scored together must share one scenario")
    configs = [c for request in requests for c in request.configs]
    seeds = [s for request in requests for s in request.seeds]
    outcomes = iter(simulate_batch(configs, scenario, seeds))
    return [[_fitness(next(outcomes)) for _ in request.configs] for request in requests]


def make_objective(scenario: Scenario, n: int, seed):
    """Batch objective for the optimizers: (k, 3) physical array -> the
    PendingFitness of its k rows, a request that optimizers.lockstep scores
    with resolve(), in one simulate_batch call with the other runs'
    requests of its tick.

    Successive rows, within a batch and across batches, use successive
    evaluation indices to derive replication seeds, so the whole run is
    reproducible from `seed` while each evaluation still sees fresh channel
    randomness (the objective is stochastic, as a network simulator would
    be), and a fitness does not depend on how the rows were cut into
    batches or which batches were scored together. Evaluation k scores
    with the kernel seeds of the n children of SeedSequence(entropy,
    spawn_key=base + (1, k)), base being the seed's own spawn key, and with
    the seed's pool size; the pool after base + (1,) is hashed once per
    objective, and a batch's seeds are derived when the objective is
    called.
    """
    pool = _SeedPool(seed, (1,))
    counter = [0]

    def objective(points) -> PendingFitness:
        configs = [VdtpConfig.from_array(x) for x in points]
        first = counter[0]
        counter[0] += len(configs)
        seeds = [pool.children(n, (first + i,)) for i in range(len(configs))]
        return PendingFitness(scenario, configs, seeds)

    return objective
