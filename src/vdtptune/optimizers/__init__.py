"""Population and trajectory optimizers behind one budget-accounted runner."""

from __future__ import annotations

import functools

import numpy as np

from ..fitness import resolve
from ..space import Bounds
from .common import ALGORITHMS, BudgetExhausted, ObjectiveHandle, OptimizerParams, RunRecord
from .de import run_de
from .es import run_es
from .ga import run_ga
from .pso import run_pso
from .sa import run_sa

__all__ = ["ALGORITHMS", "OptimizerParams", "RunRecord", "lockstep", "run", "run_steps"]

_RUNNERS = {
    "pso": run_pso,
    "de": run_de,
    "ga": run_ga,
    "es": run_es,
    "sa": run_sa,
}


def run(
    params: OptimizerParams,
    objective,
    bounds: Bounds,
    seed: int = 0,
    max_evaluations: int = 1000,
) -> RunRecord:
    """One optimizer run against a physical-coordinate objective, a function
    of one point: run_steps, driven by lockstep, with that objective mapped
    lazily over each batch, so it is still called row by row. The handle
    reads a map inline, so the whole run takes one tick."""
    ((_, record),) = lockstep([run_steps(params, functools.partial(map, objective), bounds, seed, max_evaluations)])
    return record


def run_steps(params: OptimizerParams, score, bounds: Bounds, seed: int = 0, max_evaluations: int = 1000):
    """One optimizer run against a batch objective, as a generator for
    lockstep(): it yields the pending requests of its batches and returns
    its RunRecord. `score` takes a (k, dim) array of physical points and
    returns their k fitnesses, or a fitness.PendingFitness request for them.

    The search happens in the unit cube; `bounds` maps each batch to
    physical coordinates right before it is scored. The run spends exactly
    max_evaluations, which its ObjectiveHandle enforces (and refuses below
    1), and returns the per-evaluation best-so-far trace.
    """

    def search(handle, rng):
        return _RUNNERS[params.algorithm](handle, params, rng, bounds.dim)

    return _recorded_run(params.algorithm, search, score, bounds, seed, max_evaluations)


def lockstep(runs):
    """Drives the generators `runs` together, one tick at a time, and yields
    (index in `runs`, return value) for each run as it returns; runs that
    return in the same tick come in list order. A tick sends every live run
    the fitness list of its last request (None at its start), which
    advances it to its next request, a fitness.PendingFitness, then scores
    all of the tick's requests in one fitness.resolve call. Runs are
    independent, so each gets the values it would get alone. An exception
    out of a run ends the drive.
    """
    live = [(k, run, None) for k, run in enumerate(runs)]
    while live:
        requests, waiting = [], []
        for k, run, fits in live:
            try:
                requests.append(run.send(fits))
            except StopIteration as done:
                yield k, done.value
            else:
                waiting.append((k, run))
        live = [(k, run, fits) for (k, run), fits in zip(waiting, resolve(requests))]


def _recorded_run(algorithm: str, search, score, bounds: Bounds, seed, budget: int):
    """Generator running search(handle, rng), itself a generator, until the
    budget is spent; it passes on the handle's requests and returns the
    RunRecord, the one place one is built."""
    handle = ObjectiveHandle(score, bounds, budget)
    rng = np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(0,)))

    try:
        yield from search(handle, rng)
    except BudgetExhausted:
        pass
    return RunRecord(algorithm, int(seed), handle.best_position, tuple(handle.trace))
