"""Reference model of the VDTP session protocol, written from its description.

It follows the protocol as the simulator's docstrings state it, not the
kernel's code:

- randomness is splitmix64, here on Python ints masked to 64 bits; a
  uniform is the top 53 bits of an output word times 2**-53;
- the channel alternates exponential up/down dwells and starts from its
  stationary distribution (one draw for the initial state, one for the
  first dwell), unless the mean up time is infinite (always up, no draws);
- a transfer is a size handshake plus ceil(file / chunk) data requests, each
  answered by a reply that carries header plus payload;
- every transmitted packet consumes one loss draw and arrives iff the link is
  up at its arrival instant and the draw passes; dwell draws are taken as the
  channel is advanced to an arrival instant;
- a request whose reply has not arrived within the timeout is sent again at
  send time + timeout; `attempts` unanswered transmissions refuse the session;
- a replication derives one session seed per session from one splitmix64
  stream seeded with the replication's kernel seed.

Besides outcomes the model counts draws (the work unit behind ns per draw)
and can log every transmitted packet, which the event-trace check compares
against the program's event replay.
"""

from __future__ import annotations

import math
from typing import NamedTuple

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB
INV53 = 1.0 / 9007199254740992.0


def splitmix64(state: int):
    """One splitmix64 step: (next_state, output_word)."""
    state = (state + GOLDEN) & MASK
    z = state
    z = ((z ^ (z >> 30)) * MIX1) & MASK
    z = ((z ^ (z >> 27)) * MIX2) & MASK
    return state, z ^ (z >> 31)


class Lane(NamedTuple):
    """Quantized protocol parameters plus the scenario's channel constants."""

    chunk_bytes: int
    attempts: int
    timeout_s: float
    file_size: int
    header_bytes: int
    bandwidth: float
    prop_delay: float
    loss: float
    up_mean: float
    down_mean: float


def lane_for(chunk_bytes, attempts, timeout_s, scenario) -> Lane:
    return Lane(
        int(chunk_bytes), int(attempts), float(timeout_s),
        scenario.file_size_bytes, scenario.header_bytes, scenario.bandwidth_bps,
        scenario.propagation_delay_s, scenario.effective_loss(),
        scenario.link_up_mean_s, scenario.link_down_mean_s,
    )


class Packet(NamedTuple):
    sent: float
    arrived: float
    kind: str  # FIRQ / FIRP handshake, DRQ / DRP data
    attempt: int
    ok: bool


class Session(NamedTuple):
    time_s: float
    lost: int
    delivered: int
    refused: bool
    draws: int


class _Stream:
    def __init__(self, seed: int):
        self.state = seed & MASK
        self.draws = 0

    def uniform(self) -> float:
        self.state, z = splitmix64(self.state)
        self.draws += 1
        return (z >> 11) * INV53


def session(lane: Lane, seed: int, packets: list | None = None) -> Session:
    """One session; appends every transmitted packet to `packets` if given."""
    rng = _Stream(seed)
    if math.isinf(lane.up_mean):
        up, next_switch = True, math.inf
    else:
        up = rng.uniform() < lane.up_mean / (lane.up_mean + lane.down_mean)
        next_switch = -(lane.up_mean if up else lane.down_mean) * math.log(1.0 - rng.uniform())

    def arrives(at: float) -> bool:
        nonlocal up, next_switch
        while next_switch <= at:
            up = not up
            next_switch += -(lane.up_mean if up else lane.down_mean) * math.log(1.0 - rng.uniform())
        return (rng.uniform() < 1.0 - lane.loss) and up

    n = -(-lane.file_size // lane.chunk_bytes)
    req_tx = lane.header_bytes * 8.0 / lane.bandwidth
    now, lost, delivered = 0.0, 0, 0
    for index in range(n + 1):
        if index == 0:
            payload, kinds = 0, ("FIRQ", "FIRP")
        else:
            payload = lane.chunk_bytes if index < n else lane.file_size - (n - 1) * lane.chunk_bytes
            kinds = ("DRQ", "DRP")
        rep_tx = (lane.header_bytes + payload) * 8.0 / lane.bandwidth
        answered = False
        for attempt in range(1, lane.attempts + 1):
            sent = now
            req_at = sent + req_tx + lane.prop_delay
            req_ok = arrives(req_at)
            if packets is not None:
                packets.append(Packet(sent, req_at, kinds[0], attempt, req_ok))
            if req_ok:
                rep_at = req_at + rep_tx + lane.prop_delay
                rep_ok = arrives(rep_at)
                if packets is not None:
                    packets.append(Packet(req_at, rep_at, kinds[1], attempt, rep_ok))
                if not rep_ok:
                    lost += 1
                elif rep_at - sent <= lane.timeout_s:
                    now, answered = rep_at, True
                    break
            else:
                lost += 1
            now = sent + lane.timeout_s
        if not answered:
            return Session(now, lost, delivered, True, rng.draws)
        if index > 0:
            delivered += payload
    return Session(now, lost, delivered, False, rng.draws)


def session_seeds(kernel_seed: int, count: int) -> list:
    state, seeds = kernel_seed & MASK, []
    for _ in range(count):
        state, z = splitmix64(state)
        seeds.append(z)
    return seeds


def replication(lane: Lane, kernel_seed: int, sessions: int) -> list:
    """Per-session outcomes of one replication (`sessions` sessions)."""
    return [session(lane, s) for s in session_seeds(kernel_seed, sessions)]


def lossless_time(lane: Lane) -> float:
    """Stop-and-wait time of a transfer in which no packet is lost."""
    exchanges = -(-lane.file_size // lane.chunk_bytes) + 1
    per_exchange = 2 * lane.header_bytes * 8.0 / lane.bandwidth + 2 * lane.prop_delay
    return exchanges * per_exchange + lane.file_size * 8.0 / lane.bandwidth
