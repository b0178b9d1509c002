"""Shared machinery for the optimizers.

All algorithms search the unit cube [0, 1]^d and hand whole generations, as
(k, d) arrays, to the ObjectiveHandle, which maps them to physical coordinates,
scores each within the evaluation budget in one call of a batch objective and
records the best-so-far trace. Each algorithm is a generator that passes the
handle's pending requests on to optimizers.lockstep, which runs it. Variation
operators shared between GA, ES and SA live here, and Draws, through which
every run draws its random numbers.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from ..fitness import PendingFitness
from ..space import Bounds, VdtpConfig

__all__ = [
    "ALGORITHMS",
    "BudgetExhausted",
    "Draws",
    "ObjectiveHandle",
    "OptimizerParams",
    "RunRecord",
    "blend_crossover",
    "make_children",
    "reset_one_gene",
    "tournament_pick",
]

ALGORITHMS = ("pso", "de", "ga", "es", "sa")


class BudgetExhausted(Exception):
    """Raised by ObjectiveHandle when the evaluation budget is spent."""


_M32 = 0xFFFF_FFFF


class Draws:
    """A run's random draws: numpy Generator `gen`'s stream, bit for bit,
    with its scalar draws made in Python from the PCG64 words of
    `gen.bit_generator.random_raw()`, past numpy's wrappers.

    random() is a word's top 53 bits times 2**-53. A bounded draw on
    0..span - 1 is Lemire's method on a 32-bit half, as numpy's
    random_bounded_uint64 makes it: the low half of a fresh word, or else
    the high half kept from the last one (PCG64's has_uint32 and
    uinteger), times span; the product is drawn again while its low 32
    bits fall below (2**32 - span) % span, and its high 32 bits are the
    draw. integers(n) is one such draw, none at n = 1.
    choice(n, size, replace=False) is numpy's Floyd sample and
    Fisher-Yates shuffle of it; numpy shuffles the tail of range(n)
    instead when n > 10000 and size > n // 50, which is refused here.
    random(shape) and uniform are the
    Generator's own calls; they take whole words and leave the kept half
    alone. These are the only methods, so any other Generator call fails
    at once instead of drawing past the kept half. numpy's Generator is
    the oracle of the tests.
    """

    __slots__ = ("_gen", "_raw", "_half")

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self._raw = gen.bit_generator.random_raw
        self._half = None  # the high half of the last word split, until taken

    def _below(self, span: int) -> int:
        """A bounded draw on 0..span - 1, for 2 <= span < 2**32."""
        while True:
            half = self._half
            if half is None:
                word = self._raw()
                self._half = word >> 32
                m = (word & _M32) * span
            else:
                self._half = None
                m = half * span
            # the threshold is below span, so most draws skip its modulo
            low = m & _M32
            if low >= span or low >= (_M32 + 1 - span) % span:
                return m >> 32

    def random(self, size=None):
        """Uniform [0, 1) floats: one as a float, or an array of `size`."""
        if size is None:
            return (self._raw() >> 11) * 2.0**-53
        return self._gen.random(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def integers(self, n) -> int:
        """A uniform int in 0..n - 1, for 1 <= n < 2**32."""
        n = operator.index(n)
        if not 1 <= n <= _M32:
            raise ValueError(f"Draws.integers needs 1 <= n < 2**32, got {n}")
        return self._below(n) if n > 1 else 0

    def choice(self, n, size, replace=True) -> list:
        """`size` distinct ints of 0..n - 1, for 1 <= n < 2**32, as a list
        (numpy returns them as an int64 array); replace=False is required."""
        if replace:
            raise ValueError("Draws.choice draws without replacement only; pass replace=False")
        n, size = operator.index(n), operator.index(size)
        if not 1 <= n <= _M32:
            raise ValueError(f"Draws.choice needs 1 <= n < 2**32, got {n}")
        if not 0 <= size <= n:
            raise ValueError(f"Draws.choice needs 0 <= size <= n, got size {size} of {n}")
        if n > 10000 and size > n // 50:
            raise ValueError(f"Draws.choice does not make numpy's tail shuffle, which takes size {size} of {n}")
        below = self._below
        picks = []
        for j in range(n - size, n):
            t = below(j + 1) if j else 0
            picks.append(j if t in picks else t)
        for i in range(size - 1, 0, -1):
            j = below(i + 1)
            picks[i], picks[j] = picks[j], picks[i]
        return picks


class ObjectiveHandle:
    """Budget-accounted batch objective over the unit cube.

    `fn` takes a (k, dim) array of physical points and returns their k
    fitnesses in row order: as any iterable, or as a fitness.PendingFitness,
    a request still to be scored. evaluate_batch() is a generator, driven by
    optimizers.lockstep and called as `fits = yield from
    handle.evaluate_batch(points)`. It maps the rows of a unit-cube batch
    into the physical bounds with one multiply-add (Bounds.from_unit),
    calls fn once on the rows the budget still holds, yields the result to
    lockstep if it is a request (lockstep scores it with the other runs'
    requests of the tick and sends back its fitness list) and reads any
    other result at once, without yielding. It appends (evaluation_index,
    best_so_far) to the trace per row as its fitness is read and returns
    the fitnesses; a scorer that returns more or fewer fitnesses than rows
    is refused with ValueError. A batch that overruns max_evaluations is
    scored up to the budget, then BudgetExhausted is raised, which the run
    treats as clean termination; fn never sees an empty batch. So the trace
    does not depend on how a run cuts its candidates into batches. The
    trace is the handle's count and its best fitness (best_fitness is its
    last best-so-far); besides it the handle keeps only the best position.
    """

    def __init__(self, fn, bounds: Bounds, max_evaluations: int = 1000):
        if max_evaluations < 1:
            raise ValueError("max_evaluations must be >= 1")
        self.fn = fn
        self.bounds = bounds
        self.max_evaluations = max_evaluations
        self.trace = []
        self.best_position = None
        self._dim = bounds.dim

    @property
    def best_fitness(self) -> float:
        return self.trace[-1][1] if self.trace else math.inf

    def evaluate_batch(self, points):
        """Generator returning the fitness of each row of `points`, a
        (k, dim) unit-cube array, as one array."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self._dim:
            raise ValueError(f"evaluate_batch needs a (k, {self._dim}) array, got shape {points.shape}")
        trace = self.trace
        used = len(trace)
        room = self.max_evaluations - used
        physical = self.bounds.from_unit(points[:room])
        fits = []
        if len(physical):
            scores = self.fn(physical)
            if type(scores) is PendingFitness:
                scores = yield scores
            best = self.best_fitness
            for index, f in zip(range(used + 1, used + len(physical) + 1), scores, strict=True):
                f = float(f)
                if f < best:
                    best = f
                    self.best_position = physical[index - used - 1].copy()
                trace.append((index, best))
                fits.append(f)
        if len(points) > room:
            raise BudgetExhausted
        return np.array(fits)


#: Knobs each algorithm reads; every other knob must keep its default, so a
#: setting the run would ignore is refused.
KNOBS = {
    "pso": ("population_size", "w"),
    "de": ("population_size", "cr", "mu_de"),
    "ga": ("population_size", "p_cross", "p_mut", "ga_variant"),
    "es": ("p_cross", "p_mut", "mu_es", "lambda_es", "es_selection"),
    "sa": ("alpha_temp", "markov_chain_length", "temp_probes", "target_accept"),
}


@dataclass(frozen=True)
class OptimizerParams:
    """Algorithm tag plus the tuning knobs that algorithm reads (see KNOBS).

    p_cross / p_mut default differently for GA (0.8 / 0.2) and ES (0.9 / 0.1);
    leave them None to get the per-algorithm default.
    """

    algorithm: str
    population_size: int = 20
    w: float = 0.5
    cr: float = 0.9
    mu_de: float = 0.1
    p_cross: float | None = None
    p_mut: float | None = None
    alpha_temp: float = 0.8
    markov_chain_length: int = 20
    temp_probes: int = 20
    target_accept: float = 0.8
    mu_es: int = 4
    lambda_es: int = 20
    ga_variant: str = "generational"
    es_selection: str = "comma"

    def __post_init__(self):
        alg = self.algorithm.strip().lower()
        if alg not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; known: {ALGORITHMS}")
        object.__setattr__(self, "algorithm", alg)
        for f in fields(self):
            if f.name not in ("algorithm", *KNOBS[alg]) and getattr(self, f.name) != f.default:
                raise ValueError(f"{alg} does not read {f.name}; its knobs are {', '.join(KNOBS[alg])}")
        if self.p_cross is None:
            object.__setattr__(self, "p_cross", 0.9 if alg == "es" else 0.8)
        if self.p_mut is None:
            object.__setattr__(self, "p_mut", 0.1 if alg == "es" else 0.2)

        if self.population_size < 1:
            raise ValueError("population_size must be >= 1")
        if alg == "de" and self.population_size < 4:
            raise ValueError("DE needs population_size >= 4 (three donors distinct from the target)")
        for name in ("cr", "p_cross", "p_mut"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.w < 0.0:
            raise ValueError("w must be >= 0")
        if not self.mu_de > 0.0:
            raise ValueError("mu_de must be > 0")
        if not 0.0 < self.alpha_temp < 1.0:
            raise ValueError("alpha_temp must be in (0, 1)")
        if self.markov_chain_length < 1 or self.temp_probes < 1:
            raise ValueError("markov_chain_length and temp_probes must be >= 1")
        if not 0.0 < self.target_accept < 1.0:
            raise ValueError("target_accept must be in (0, 1)")
        if self.mu_es < 1 or self.lambda_es < self.mu_es:
            raise ValueError("ES needs lambda_es >= mu_es >= 1")
        if self.es_selection not in ("plus", "comma"):
            raise ValueError("es_selection must be 'plus' or 'comma'")
        if self.es_selection == "comma" and self.lambda_es <= self.mu_es:
            raise ValueError("comma selection needs lambda_es > mu_es")
        if self.ga_variant not in ("generational", "steady"):
            raise ValueError("ga_variant must be 'generational' or 'steady'")


@dataclass(frozen=True, init=False)
class RunRecord:
    """Result of one optimizer run: its best position and its best-so-far
    trace, ((evaluation_index, best_fitness), ...) from index 1, one entry
    per evaluation. Everything else about the run is read from the trace."""

    algorithm: str
    seed: int
    best_position: np.ndarray
    trace: tuple

    def __init__(self, algorithm: str, seed: int, best_position: np.ndarray, trace: tuple, best_fitness=None):
        """best_fitness is not stored; a caller that still passes it, as
        dataclasses.replace(rec, best_fitness=...) does, must pass the
        trace's last best."""
        if best_fitness is not None and best_fitness != trace[-1][1]:
            raise ValueError(f"best_fitness {best_fitness!r} is not the trace's last best {trace[-1][1]!r}")
        object.__setattr__(self, "algorithm", algorithm)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "best_position", best_position)
        object.__setattr__(self, "trace", trace)

    @property
    def evaluations(self) -> int:
        return len(self.trace)

    @property
    def best_fitness(self) -> float:
        return self.trace[-1][1]

    @property
    def best_eval_index(self) -> int:
        """Index of the evaluation that found the best fitness: the first
        trace entry that reaches it."""
        best = self.best_fitness
        return next(i for i, f in self.trace if f == best)

    @property
    def best_config(self):
        """Best point as a VdtpConfig (3-dimensional runs only)."""
        if len(self.best_position) != 3:
            return None
        return VdtpConfig.from_array(self.best_position)


# --- shared variation operators (unit-cube coordinates) ----------------------


def blend_crossover(a, b, beta) -> np.ndarray:
    """Per-coordinate convex blend beta * a + (1 - beta) * b: a weight per
    coordinate, and a row of weights per child when a and b hold a row per
    child."""
    return beta * a + (1.0 - beta) * b


def make_children(first, second, cross, beta, gene, value) -> np.ndarray:
    """A generation of children at once, from the draws GA and ES record
    child by child. Child k is blend_crossover(first[k], second[k],
    beta[k]) where cross[k], else a clone of first[k]; where gene[k] >= 0
    its coordinate gene[k] is then reset to value[k] (as reset_one_gene
    does); last, every child is clipped to the unit cube."""
    children = np.where(cross[:, None], blend_crossover(first, second, beta), first)
    reset = np.flatnonzero(gene >= 0)
    children[reset, gene[reset]] = value[reset]
    return np.clip(children, 0.0, 1.0, out=children)


def reset_one_gene(x, rng) -> np.ndarray:
    """Pick one coordinate uniformly, reset it uniformly within its range."""
    y = np.array(x, dtype=float)
    j = int(rng.integers(len(y)))
    y[j] = rng.random()
    return y


def tournament_pick(fitness, rng) -> int:
    """Binary tournament: two uniform draws, lower fitness wins."""
    i = int(rng.integers(len(fitness)))
    j = int(rng.integers(len(fitness)))
    return i if fitness[i] <= fitness[j] else j
