"""Analytic benchmark functions and a uniform random-search baseline.

Used to validate the optimizers independently of the transfer simulator.
All functions have their global minimum value 0 at the origin (rosenbrock
at the all-ones point).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..optimizers import RunRecord, _recorded_run, lockstep
from ..space import Bounds

__all__ = ["BENCH_FUNCTIONS", "bench_bounds", "get_function", "random_search"]


def sphere(x) -> float:
    x = np.asarray(x, dtype=float)
    return float(np.dot(x, x))


def rosenbrock(x) -> float:
    x = np.asarray(x, dtype=float)
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def rastrigin(x) -> float:
    x = np.asarray(x, dtype=float)
    return float(10.0 * len(x) + np.sum(x * x - 10.0 * np.cos(2.0 * math.pi * x)))


BENCH_FUNCTIONS = {
    "sphere": sphere,
    "rosenbrock": rosenbrock,
    "rastrigin": rastrigin,
}


def get_function(name: str):
    key = name.strip().lower()
    if key not in BENCH_FUNCTIONS:
        known = ", ".join(sorted(BENCH_FUNCTIONS))
        raise ValueError(f"unknown benchmark function {name!r}; known: {known}")
    return BENCH_FUNCTIONS[key]


def bench_bounds(dims: int) -> Bounds:
    """The [-5, 5]^dims benchmark box."""
    if dims < 1:
        raise ValueError("dims must be >= 1")
    return Bounds((-5.0,) * dims, (5.0,) * dims)


def random_search(objective, bounds: Bounds, seed: int = 0, max_evaluations: int = 1000) -> RunRecord:
    """Uniform sampling over the box, same budget accounting as the optimizers."""

    def search(handle, rng):
        yield from handle.evaluate_batch(rng.random((max_evaluations, bounds.dim)))

    run = _recorded_run("random", search, functools.partial(map, objective), bounds, seed, max_evaluations)
    ((_, record),) = lockstep([run])
    return record
