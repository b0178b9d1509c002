"""Machine speed, sampled between the program's calls.

The benchmark runs on shared machines whose speed drifts: on the 2-core host
the reference figures come from, the same 2.5 s evaluation took from 2.2 s
to 3.6 s, in phases lasting tens of seconds, and a 30 s run could sit in a
slow phase from end to end. A fixed task that belongs to the benchmark, not
to the program, is therefore timed between the program's calls, about once
per `EVERY_S` of program time, and `wall_s` is the program's mean round time
scaled by `REFERENCE_S` over the task's mean time in the same run: the round
time at a fixed machine speed. A change to the program does not touch the
task, so it moves `wall_s` in full.

The task does the two kinds of interpreter work the program does, in about
equal time: splitmix64 on masked Python ints, and on numpy uint64 scalars
under `np.errstate`, as the pure-Python kernel does. Across 20-30 s windows of
150-240 s traces of each workload, the mean round times spread 11-24 %
(interquartile range over median) and their ratios to the task's mean
2-6 %; the Python-int half alone gave 3-7 %, the numpy half alone 2-5 %.
Short samples taken often follow the machine more closely than long ones
taken rarely at the same cost: on the campaign's trace, sampling once per
5 ms of program time spread 3 % where once per 20 ms spread 5 %.

Set-up time is scaled by the same factor, after taking out each fresh
process's `import numpy` (its first step, timed on its own). That import moved
with the machine in phases of its own: its median fell from 0.15 s to 0.07 s
between two sets of runs while the rest of set-up and the task's mean stayed
within 10 %, and the unscaled set-up median fell 29 %. Set-up without it,
scaled, moved 1-3 % between the sets.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

EVERY_S = 0.005
# the task's mean time on the reference machine (see README.md), so that
# wall_s reads as seconds there
REFERENCE_S = 0.00035
INT_ROUNDS = 240
NUMPY_ROUNDS = 50
MASK = (1 << 64) - 1
_G, _M1, _M2 = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)


def task() -> tuple:
    z = state = 1
    for _ in range(INT_ROUNDS):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        z ^= z >> 31
    w = s = np.uint64(1)
    for _ in range(NUMPY_ROUNDS):
        with np.errstate(over="ignore"):
            s = np.uint64(s + _G)
            w = np.uint64((s ^ (s >> _S30)) * _M1)
            w = np.uint64((w ^ (w >> _S27)) * _M2)
            w = w ^ (w >> _S31)
    return z, w


class Calibrator:
    """Times `task` once per EVERY_S of program time reported to `after`."""

    def __init__(self):
        self.owed = 0.0
        self.samples = []

    def after(self, program_s: float) -> None:
        self.owed += program_s
        if self.owed >= EVERY_S:
            self.sample()

    def sample(self) -> None:
        self.owed = 0.0
        start = time.perf_counter()
        task()
        self.samples.append(time.perf_counter() - start)

    def mean(self) -> float:
        if not self.samples:  # a run too short to have been sampled
            self.sample()
        return statistics.fmean(self.samples)

    def scale(self) -> float:
        """Factor from this run's machine speed to the reference speed."""
        return REFERENCE_S / self.mean()
