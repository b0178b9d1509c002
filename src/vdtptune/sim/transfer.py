"""Chunked stop-and-wait file transfer over the stochastic channel.

The transfer opens with a size handshake (FIRQ/FIRP), then fetches the file
chunk by chunk (DRQ/DRP). Unanswered requests are retransmitted after the
timeout; exhausting the attempt budget on any one request refuses the session.

`simulate_batch` is the one entry point for replicated runs: several
configurations, each with its own integer replication seeds. Without numba
it hands all sessions of all replications of all configurations to the lane
kernel, in calls of at most _LANE_CAP lanes; with numba it runs the compiled
`run_sessions` once per replication. Both give the same bits, and this is
the one place that branches on the backend. `simulate_replication` is its
one-configuration form.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..space import VdtpConfig, quantize_for_protocol
from .kernels import EVENT_KINDS, NUMBA_ENABLED, PACKET_TYPES, run_lanes, run_sessions, session_kernel
from .scenario import Scenario

__all__ = [
    "Replications",
    "TransferOutcome",
    "SessionResult",
    "n_chunks",
    "simulate_session_events",
    "simulate_batch",
    "simulate_replication",
    "effective_throughput",
    "write_event_trace",
]


def n_chunks(file_size_bytes: int, chunk_bytes: int) -> int:
    """Number of data requests needed: ceil(file / chunk)."""
    if file_size_bytes < 1 or chunk_bytes < 1:
        raise ValueError("file size and chunk size must be >= 1")
    return -(-file_size_bytes // chunk_bytes)


class SessionResult(NamedTuple):
    time_s: float
    lost_packets: int
    delivered_bytes: int
    refused: bool


@dataclass(frozen=True)
class TransferOutcome:
    """Aggregate of one replication (a batch of independent sessions)."""

    transmission_time_s: float
    lost_packets: float
    data_transferred_kbytes: float
    completed_sessions: int
    refused_sessions: int

    @property
    def sessions(self) -> int:
        return self.completed_sessions + self.refused_sessions

    def per_session_kbytes(self) -> float:
        return self.data_transferred_kbytes / self.sessions


class Replications(tuple):
    """The TransferOutcomes of several replications, in seed order, with
    session totals over all of them."""

    @property
    def sessions(self) -> int:
        return sum(o.sessions for o in self)

    @property
    def refused_sessions(self) -> int:
        return sum(o.refused_sessions for o in self)


def _protocol_args(config) -> tuple:
    """(chunk_bytes, attempts, timeout_s) of a VdtpConfig (quantized here) or
    of an already-quantized triple."""
    if isinstance(config, VdtpConfig):
        return quantize_for_protocol(config)
    chunk_bytes, attempts, timeout_s = config
    return int(chunk_bytes), int(attempts), float(timeout_s)


def _scenario_args(scenario: Scenario) -> tuple:
    return (
        scenario.file_size_bytes,
        scenario.header_bytes,
        scenario.bandwidth_bps,
        scenario.propagation_delay_s,
        scenario.effective_loss(),
        scenario.link_up_mean_s,
        scenario.link_down_mean_s,
    )


def _kernel_args(config, scenario: Scenario):
    return _protocol_args(config) + _scenario_args(scenario)


_SEED_MASK = 0xFFFF_FFFF_FFFF_FFFF
# Lanes of one run_lanes call at most: simulate_batch hands the kernel
# consecutive slices of whole rows. Lanes are independent, so the bits do not
# depend on the slicing, and the lane arrays of a wide tick no longer sit in
# memory at once. The paper shape's widest tick, 600,000 lanes (3000 rows x
# 10 replications x 20 sessions, chunks of 4-512 KiB), peaked at 92.6 MiB in
# tracemalloc as one call and at 37.1 MiB at this cap, on urban and on
# highway alike. No workload of the benchmark reaches the cap.
_LANE_CAP = 40_000


def _as_kernel_seed(seed) -> np.uint64:
    return np.uint64(int(seed) & _SEED_MASK)


def simulate_batch(configs, scenario: Scenario, seeds) -> list:
    """One Replications per configuration: `configs[i]`, a VdtpConfig or a
    quantized (chunk_bytes, attempts, timeout_s) triple, run over
    `scenario.sessions` sessions for each integer seed of the non-empty list
    `seeds[i]`. Every session of every configuration goes to the lane kernel,
    in calls of at most _LANE_CAP lanes; row for row the outcomes are those
    of separate runs.
    """
    if not configs or len(seeds) != len(configs):
        raise ValueError(f"need one seed list per configuration: {len(seeds)} for {len(configs)}")
    counts = [len(row) for row in seeds]
    if not all(counts):
        raise ValueError("simulate_batch needs at least one seed per configuration")
    protocol = [_protocol_args(c) for c in configs]
    kernel_seeds = np.array([int(s) & _SEED_MASK for row in seeds for s in row], np.uint64)
    scene = _scenario_args(scenario)
    if NUMBA_ENABLED:
        per_seed = [args for args, count in zip(protocol, counts) for _ in range(count)]
        rows = [run_sessions(scenario.sessions, *args, *scene, s) for args, s in zip(per_seed, kernel_seeds)]
        arrays = (np.stack(column) for column in zip(*rows))
    else:
        per_row = [np.repeat(column, counts) for column in zip(*protocol)]
        step = max(1, _LANE_CAP // scenario.sessions)
        parts = [
            run_lanes(scenario.sessions, *(c[i : i + step] for c in per_row), *scene, kernel_seeds[i : i + step])
            for i in range(0, len(kernel_seeds), step)
        ]
        arrays = (np.concatenate(column) for column in zip(*parts))
    outcomes = iter(_outcomes(*arrays))
    return [Replications(itertools.islice(outcomes, count)) for count in counts]


def simulate_replication(config, scenario: Scenario, seed):
    """Run `scenario.sessions` independent sessions and aggregate.

    `seed` is one integer seed, which gives one TransferOutcome, or a
    non-empty list of integer seeds, one per replication, which gives their
    Replications. Refused sessions contribute their time-until-refusal to the
    mean time; data is the total payload delivered across all sessions, in
    kBytes.
    """
    several = isinstance(seed, list)
    (outcomes,) = simulate_batch([config], scenario, [seed if several else [seed]])
    return outcomes if several else outcomes[0]


def _outcomes(times, lost, delivered, refused) -> Replications:
    """One TransferOutcome per row of the (rows, sessions) arrays, a row per
    replication of each configuration in turn.

    Each row reduction gives the bits np.mean, np.sum and np.count_nonzero
    give on that row alone: a float row sums pairwise along the contiguous
    axis either way, and np.mean is that sum divided by the row length.
    The methods with an axis skip np.mean's and np.count_nonzero's Python
    wrappers, which cost more than the reductions at these sizes.
    """
    sessions = times.shape[1]
    return Replications(
        TransferOutcome(
            transmission_time_s=t,
            lost_packets=lost_mean,
            data_transferred_kbytes=d / 1024.0,
            completed_sessions=sessions - r,
            refused_sessions=r,
        )
        for t, lost_mean, d, r in zip(
            (times.sum(axis=1) / sessions).tolist(),
            (lost.sum(axis=1) / sessions).tolist(),
            delivered.sum(axis=1).tolist(),
            refused.sum(axis=1).tolist(),
        )
    )


def effective_throughput(outcome: TransferOutcome) -> float:
    """Delivered kBytes per second of mean session time (0 if nothing completed)."""
    if outcome.completed_sessions == 0 or outcome.transmission_time_s <= 0.0:
        return 0.0
    per_session_kb = outcome.data_transferred_kbytes / outcome.completed_sessions
    return per_session_kb / outcome.transmission_time_s


def simulate_session_events(config, scenario: Scenario, seed, session_id=0):
    """Replay one session through session_kernel, recording its event log.

    Returns (events, SessionResult) where each event is a tuple
    (virtual_time, session_id, event_kind, packet_type, attempt_no).
    """
    args = _kernel_args(config, scenario)
    kernel_seed = _as_kernel_seed(seed)
    # about 4-5 events per request when lossy; the stream is deterministic, so
    # a log that overflows the guess is recorded again at its exact length
    buf = np.empty((8 * (n_chunks(scenario.file_size_bytes, args[0]) + 1) + 1, 4))
    t, lost, delivered, refused, k = session_kernel(*args, kernel_seed, buf)
    if k > len(buf):
        buf = np.empty((k, 4))
        session_kernel(*args, kernel_seed, buf)
    events = [
        (t_ev, session_id, EVENT_KINDS[int(kind)], PACKET_TYPES[int(packet)], int(attempt))
        for t_ev, kind, packet, attempt in buf[:k].tolist()
    ]
    return events, SessionResult(float(t), int(lost), int(delivered), bool(refused))


def write_event_trace(path, events) -> None:
    """Dump an event log as CSV (virtual_time, session_id, event_kind, packet_type, attempt_no)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["virtual_time", "session_id", "event_kind", "packet_type", "attempt_no"])
        for ev in events:
            w.writerow([repr(float(ev[0])), ev[1], ev[2], ev[3], ev[4]])
