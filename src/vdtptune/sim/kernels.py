"""Hot inner loops of the transfer simulator.

The session kernel is a plain event loop over request/reply exchanges with a
two-state (up/down) channel process, and the only implementation of the
session protocol: it can also record the session's event log. It is compiled
with numba when available; set VDTPTUNE_DISABLE_NUMBA=1 to force the
pure-Python path (same source, same random stream, bit-identical results;
`python3 vdtpbench/run.py` compares the two paths when numba is installed).

Randomness is a splitmix64 stream driven by explicit 64-bit state, so compiled
and interpreted execution consume identical draws. Besides `_njit`, `U64` is
the one binding that differs between the paths: the compiled path works in
np.uint64, which numba turns into machine words; the pure path works in Python
ints masked to 64 bits, which wrap the same way without numpy scalar overhead.
"""

from __future__ import annotations

import math
import os

import numpy as np

__all__ = ["EVENT_KINDS", "NUMBA_ENABLED", "PACKET_TYPES", "run_sessions", "session_kernel"]

_DISABLED = os.environ.get("VDTPTUNE_DISABLE_NUMBA", "").strip().lower() in (
    "1",
    "true",
    "yes",
)

if not _DISABLED:
    try:
        from numba import njit as _njit

        NUMBA_ENABLED = True
    except ImportError:  # numba is the optional `jit` extra
        NUMBA_ENABLED = False
else:
    NUMBA_ENABLED = False


def _masked_int(x):
    """Python-int stand-in for np.uint64: reduce modulo 2^64."""
    return int(x) & 0xFFFF_FFFF_FFFF_FFFF


if NUMBA_ENABLED:
    U64 = np.uint64
else:

    def _njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]
        return lambda fn: fn

    U64 = _masked_int


_GOLDEN = U64(0x9E3779B97F4A7C15)
_MIX1 = U64(0xBF58476D1CE4E5B9)
_MIX2 = U64(0x94D049BB133111EB)
_INV53 = 1.0 / 9007199254740992.0  # 2^-53

# Event log encoding: a recorded row is (time, kind code, packet code, attempt),
# the codes indexing these tables. A reply's packet code is its request's + 1.
EVENT_KINDS = ("send", "deliver", "drop", "timeout", "refused", "complete")
PACKET_TYPES = ("FIRQ", "FIRP", "DRQ", "DRP", "")
_SEND, _DELIVER, _DROP, _TIMEOUT, _REFUSED, _COMPLETE = range(len(EVENT_KINDS))
_FIRQ, _DRQ, _NO_PACKET = 0, 2, 4


@_njit(cache=True)
def _mix64(state):
    """splitmix64: returns (next_state, output_word)."""
    state = U64(state + _GOLDEN)
    z = state
    z = U64((z ^ (z >> U64(30))) * _MIX1)
    z = U64((z ^ (z >> U64(27))) * _MIX2)
    z = z ^ (z >> U64(31))
    return state, z


@_njit(cache=True)
def _u01(z):
    # 53-bit mantissa -> [0, 1)
    return (z >> U64(11)) * _INV53


@_njit(cache=True)
def _emit(events, k, t, kind, packet, attempt):
    """Write event row k if the buffer holds it; returns the next row index."""
    if k < events.shape[0]:
        events[k, 0] = t
        events[k, 1] = kind
        events[k, 2] = packet
        events[k, 3] = attempt
    return k + 1


@_njit(cache=True)
def session_kernel(
    chunk_bytes,
    attempts,
    timeout_s,
    file_size,
    header_bytes,
    bandwidth,
    prop_delay,
    eff_loss,
    up_mean,
    down_mean,
    seed,
    events,
):
    """Simulate one transfer session.

    Returns (time_s, lost, delivered_bytes, refused, n_events).

    One request/reply exchange per chunk plus the initial size handshake.
    Each transmitted packet consumes one uniform; it is delivered iff the link
    is up at its arrival instant and the loss draw passes. A request whose
    reply has not arrived within timeout_s is retransmitted; `attempts`
    transmissions of the same request without a reply refuse the session.

    `events` is a float64 (cap, 4) buffer for the event log (rows encoded as
    in EVENT_KINDS/PACKET_TYPES). The first cap events are written and all of
    them are counted in n_events; a 0-row buffer records nothing and returns
    n_events 0. Recording consumes no draws.
    """
    record = events.shape[0] > 0
    k = 0
    state = U64(seed)

    # channel: alternating exponential up/down dwells, stationary start
    if math.isinf(up_mean):
        link_up = True
        t_switch = math.inf
    else:
        state, z = _mix64(state)
        link_up = _u01(z) < up_mean / (up_mean + down_mean)
        state, z = _mix64(state)
        mean0 = up_mean if link_up else down_mean
        t_switch = -mean0 * math.log(1.0 - _u01(z))

    n = (file_size + chunk_bytes - 1) // chunk_bytes
    tx_req = header_bytes * 8.0 / bandwidth
    succ_p = 1.0 - eff_loss

    t = 0.0
    lost = 0
    delivered = 0
    refused = False

    for req in range(n + 1):
        packet = _FIRQ if req == 0 else _DRQ
        if req == 0:
            payload = 0  # size handshake
        elif req < n:
            payload = chunk_bytes
        else:
            payload = file_size - (n - 1) * chunk_bytes
        tx_rep = (header_bytes + payload) * 8.0 / bandwidth

        ok = False
        for attempt in range(1, attempts + 1):
            t0 = t
            if record:
                k = _emit(events, k, t0, _SEND, packet, attempt)
            req_arr = t0 + tx_req + prop_delay
            while t_switch <= req_arr:
                link_up = not link_up
                state, z = _mix64(state)
                mean_d = up_mean if link_up else down_mean
                t_switch += -mean_d * math.log(1.0 - _u01(z))
            state, z = _mix64(state)
            req_ok = link_up and (_u01(z) < succ_p)
            if record:
                k = _emit(events, k, req_arr, _DELIVER if req_ok else _DROP, packet, attempt)
            if req_ok:
                rep_arr = req_arr + tx_rep + prop_delay
                if record:
                    k = _emit(events, k, req_arr, _SEND, packet + 1, attempt)
                while t_switch <= rep_arr:
                    link_up = not link_up
                    state, z = _mix64(state)
                    mean_d = up_mean if link_up else down_mean
                    t_switch += -mean_d * math.log(1.0 - _u01(z))
                state, z = _mix64(state)
                rep_ok = link_up and (_u01(z) < succ_p)
                if record:
                    k = _emit(events, k, rep_arr, _DELIVER if rep_ok else _DROP, packet + 1, attempt)
                if rep_ok and (rep_arr - t0) <= timeout_s:
                    t = rep_arr
                    ok = True
                    break
                if not rep_ok:
                    lost += 1
            else:
                lost += 1
            t = t0 + timeout_s
            if record:
                k = _emit(events, k, t, _TIMEOUT, packet, attempt)
        if not ok:
            refused = True
            if record:
                k = _emit(events, k, t, _REFUSED, packet, attempts)
            break
        if req > 0:
            delivered += payload

    if record and not refused:
        k = _emit(events, k, t, _COMPLETE, _NO_PACKET, 0)
    return t, lost, delivered, refused, k


@_njit(cache=True)
def run_sessions(
    n_sessions,
    chunk_bytes,
    attempts,
    timeout_s,
    file_size,
    header_bytes,
    bandwidth,
    prop_delay,
    eff_loss,
    up_mean,
    down_mean,
    seed,
):
    """Run independent sessions; per-session seeds derive from one stream."""
    times = np.empty(n_sessions)
    lost = np.empty(n_sessions)
    delivered = np.empty(n_sessions, np.int64)
    refused = np.zeros(n_sessions, np.bool_)
    no_events = np.empty((0, 4))
    state = U64(seed)
    for s in range(n_sessions):
        state, z = _mix64(state)
        t, l, d, r, _ = session_kernel(
            chunk_bytes,
            attempts,
            timeout_s,
            file_size,
            header_bytes,
            bandwidth,
            prop_delay,
            eff_loss,
            up_mean,
            down_mean,
            z,
            no_events,
        )
        times[s] = t
        lost[s] = l
        delivered[s] = d
        refused[s] = r
    return times, lost, delivered, refused
