"""Hot inner loops of the transfer simulator.

The session protocol is a plain event loop over request/reply exchanges with a
two-state (up/down) channel process, `_resume_session`, which runs a session
from any point of it and can also record its event log. `session_kernel` is
the channel's stationary start followed by that loop from the first request.
Both are compiled with numba when available; set VDTPTUNE_DISABLE_NUMBA=1 to
force the pure-Python path (same source, same random stream, bit-identical
results; the traced run of `python3 vdtpbench/run.py --trace 1` compares
the two paths when numba is installed).

The lane kernel, `run_lanes`, is the protocol's one other implementation: the
sessions of many replications, each row of seeds with its own configuration
if need be, as lanes of numpy arrays, bit-identical to `run_sessions` seed by
seed. Each loop iteration makes one attempt per lane; while few lanes are
left, how few worked out once per call from the channel's loss and dwell
means (_clean_run_min), it first moves every lane over its run of clean
attempts in one block; neither makes a test that cannot fail, such as an
in-time test in a call whose exchanges all fit in the shortest timeout
(_never_late). A step costs a fixed number of numpy calls plus a few
microseconds for each lane that crosses a link switch: both protocols cross
switches in one scalar loop, `_cross`, the lane kernel one lane at a time,
and `_cross` draws each switch's dwell inline, without a helper call. A loss
draw is a test on the mixed word itself (_pass_threshold), with no shift to
a 53-bit mantissa.
Once at most _TAIL_LANES lanes with at most _TAIL_TODO requests to go
between them are left, it stops iterating and finishes each of them in
`_resume_session`, resumed from the lane's state.
Without numba it runs every replicated simulation; numba never compiles it.

Randomness is a splitmix64 stream driven by explicit 64-bit state, so compiled
and interpreted execution consume identical draws. Besides `_njit`, `U64` is
the one binding that differs between the paths: the compiled path works in
np.uint64, which numba turns into machine words; the pure path works in plain
Python ints, which the draws reduce modulo 2^64 with `& _MASK`, so they wrap
the same way without numpy scalar overhead.
"""

from __future__ import annotations

import math
import os

import numpy as np

__all__ = [
    "EVENT_KINDS",
    "NUMBA_ENABLED",
    "PACKET_TYPES",
    "run_lanes",
    "run_sessions",
    "session_kernel",
]

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


if NUMBA_ENABLED:
    U64 = np.uint64
else:

    def _njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]
        return lambda fn: fn

    U64 = int  # unmasked: _mix64 reduces every state modulo 2^64 first


# The draws reduce modulo 2^64 by `& _MASK` and shift by these constants, so
# a pure-Python draw calls no function: uint64 & uint64 when compiled, int &
# int when not.
_MASK = U64(0xFFFF_FFFF_FFFF_FFFF)
_GOLDEN = U64(0x9E3779B97F4A7C15)
_MIX1 = U64(0xBF58476D1CE4E5B9)
_MIX2 = U64(0x94D049BB133111EB)
_S11, _S27, _S30, _S31 = U64(11), U64(27), U64(30), U64(31)
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
    state = (state + _GOLDEN) & _MASK
    z = ((state ^ (state >> _S30)) * _MIX1) & _MASK
    z = ((z ^ (z >> _S27)) * _MIX2) & _MASK
    z = z ^ (z >> _S31)
    return state, z


@_njit(cache=True)
def _u01(z):
    # 53-bit mantissa -> [0, 1)
    return (z >> _S11) * _INV53


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
def _cross(state, link_up, t_switch, arrival, up_mean, down_mean):
    """The channel up to a packet's arrival: flip the link at every switch
    time at or before `arrival`, drawing each new dwell from the stream.
    Returns (state, link_up, t_switch); the one switch loop of both
    protocols."""
    while t_switch <= arrival:
        link_up = not link_up
        # _mix64 and _u01 written out, which spares the pure path two calls
        state = (state + _GOLDEN) & _MASK
        z = ((state ^ (state >> _S30)) * _MIX1) & _MASK
        z = ((z ^ (z >> _S27)) * _MIX2) & _MASK
        z = z ^ (z >> _S31)
        mean_d = up_mean if link_up else down_mean
        t_switch += -mean_d * math.log(1.0 - (z >> _S11) * _INV53)
    return state, link_up, t_switch


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

    return _resume_session(
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
        state,
        link_up,
        t_switch,
        0.0,  # t
        0,  # lost
        0,  # first request: the handshake
        1,  # first attempt
        events,
    )


@_njit(cache=True)
def _resume_session(
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
    state,
    link_up,
    t_switch,
    t,
    lost,
    first_request,
    first_attempt,
    events,
):
    """session_kernel's request/attempt loop, from a session's state after
    `t` seconds: splitmix64 state word, link state and next switch time,
    packets lost so far, the request in flight (0 is the handshake, chunk i
    is request i) and the number of its next attempt. Requests before it
    were answered. Returns what session_kernel returns; `events` records
    from this point on.
    """
    record = events.shape[0] > 0
    k = 0
    n = (file_size + chunk_bytes - 1) // chunk_bytes
    tx_req = header_bytes * 8.0 / bandwidth
    succ_p = 1.0 - eff_loss

    delivered = max(first_request - 1, 0) * chunk_bytes
    refused = False

    for req in range(first_request, n + 1):
        packet = _FIRQ if req == 0 else _DRQ
        if req == 0:
            payload = 0  # size handshake
        elif req < n:
            payload = chunk_bytes
        else:
            payload = file_size - (n - 1) * chunk_bytes
        tx_rep = (header_bytes + payload) * 8.0 / bandwidth

        ok = False
        for attempt in range(first_attempt, attempts + 1):
            t0 = t
            if record:
                k = _emit(events, k, t0, _SEND, packet, attempt)
            req_arr = t0 + tx_req + prop_delay
            # testing before each _cross call spares the pure path a call per
            # packet: without the tests run_sessions took 1.07-1.11x as long
            if t_switch <= req_arr:
                state, link_up, t_switch = _cross(state, link_up, t_switch, req_arr, up_mean, down_mean)
            state, z = _mix64(state)
            req_ok = link_up and (_u01(z) < succ_p)
            if record:
                k = _emit(events, k, req_arr, _DELIVER if req_ok else _DROP, packet, attempt)
            if req_ok:
                rep_arr = req_arr + tx_rep + prop_delay
                if record:
                    k = _emit(events, k, req_arr, _SEND, packet + 1, attempt)
                if t_switch <= rep_arr:
                    state, link_up, t_switch = _cross(state, link_up, t_switch, rep_arr, up_mean, down_mean)
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
        first_attempt = 1

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


# --- lane kernel -------------------------------------------------------------
#
# The session protocol once more, vectorised over lanes: every lane is one
# session, and each loop iteration makes one attempt (request, and the reply
# if the request got through) on every lane still running, after a block of
# clean attempts while few lanes are left. It reproduces session_kernel bit
# for bit, which fixes four rules: float additions keep the scalar order,
# dwell times use math.log (np.log differs from it in the last bit on about
# 0.3 % of inputs), 64-bit integer arithmetic is done on arrays only, which
# wrap silently where numpy scalars warn, and a block's times accumulate
# along each row, left to right, as the scalar kernel adds them one attempt
# after the other (np.add.accumulate, never a pairwise sum such as np.sum).
# A step costs a fixed number of numpy calls whatever the width, so the
# operands are 0-d arrays, which numpy combines with arrays faster than it
# does scalars, and no pass is spent that the bits do not need:
# - a loss draw passes when _u01(z) = (z >> 11) / 2^53 < succ_p, that is
#   (z >> 11) < k with k = ceil(succ_p * 2^53), that is z < k * 2^11, so the
#   test reads the mixed word with no shift (_pass_threshold; at k = 2^53,
#   where k * 2^11 overflows, every word passes);
# - a reply passes only if its request did, without a mask for it: a lane
#   whose request failed takes no reply gamma and crosses no switch before
#   the reply, so it tests the request's failed word under the same link;
# - a reply lands in time unless an exchange can outlast the call's shortest
#   timeout (_never_late, worked out once per call), so a call where none
#   can makes no in-time test: every campaign configuration, whose timeouts
#   are at least 1 s and whose exchanges take at most 0.77 s.
# Link switches are the exception to the fixed cost: few lanes cross one in
# a step (2.7 a scan on average in a campaign_urban round, which finds none
# in more than half its scans), too few to repay a dozen numpy calls per
# round of switches, so each lane that crosses goes through _cross, the
# scalar switch loop, for a few microseconds. _cross writes _mix64 and _u01
# out inline: on the pure path the two calls took a sixth of a switch's
# time (1.04 against 0.87 us a switch, timeit, two shared Xeon cores);
# numba inlines them anyway, and the U64-typed draw constants keep the
# compiled types. The fixed cost is also what a few
# stragglers cannot repay, so the last of them finish in the scalar
# protocol: a lane's state words are exactly the scalar loop's variables, so
# _resume_session takes them over as they stand. The protocol thus lives in
# _resume_session, which session_kernel wraps and numba compiles, and in
# run_lanes; its switch loop only in _cross.

_GOLDEN_A, _MIX1_A, _MIX2_A = (np.array(int(c), np.uint64) for c in (_GOLDEN, _MIX1, _MIX2))
_R11, _R27, _R30, _R31 = (np.array(k, np.uint64) for k in (11, 27, 30, 31))
_ONE = np.array(1, np.int64)

# Clean-run blocks: an iteration first moves every lane over its run of clean
# attempts (both packets through, in time, no link switch) in one step over a
# (lanes, b) block, b = min(_CLEAN_RUN_CELLS // lanes, requests still to go).
# A block pays for three per-cell tests, each only where it can fail
# (timeit at 20 lanes x 51 attempts, best of 7, two shared Xeon cores):
# - both packets passed, always: one compare of each pair of pass bools read
#   as a uint16 against 0x0101 (_both_passed), 2.2 us against 3.0 us for a
#   logical_and of the two strided halves;
# - the reply lands before the lane's next switch, only when some lane's last
#   reply reaches its switch, since a row's times never fall: the gate costs
#   1.8 us, the test 4.5 us;
# - the reply lands in time, only in a call where a reply may be late
#   (_never_late): the test costs 7.2 us.
# The tx_req and prop columns come from the call's template row
# (_block_template) in one broadcast copy: _clean_run_times took 24.1 us
# against 25.9 us with two strided writes.
# Measured on two shared Xeon cores, pure backend: a block of 1024 cells costs
# 80-95 us at any shape, about three single-attempt steps (28 us). On 20
# urban 128-byte lanes, blocks of 512 cells took 1.35x as long and of 256
# cells 2.2x; 2048 cells gained nothing on campaign_urban.
# How narrow a block still pays depends on the channel: a block moves a lane
# only as far as its clean run goes, and highway lanes break theirs every few
# exchanges, so there a block of a few attempts per lane moves the lanes
# less far than the single-attempt steps it costs would. So run_lanes
# works out once per call, from the loss and the dwell means, the narrowest
# block that pays (_clean_run_min): the smallest b at which a lane's expected
# clean advance, up_share * p * (1 - p^b) / (1 - p) attempts with
# p = (1 - loss)^2 the chance that both packets pass and up_share the link's
# up fraction, reaches _CLEAN_RUN_YIELD, about what a block costs in
# single-attempt steps. The advance is at most b, so b_min >= 4. An iteration
# runs a block only while at most _CLEAN_RUN_CELLS // b_min lanes are left, a
# test on the lane count alone, so iterations too wide for a block make no
# numpy call for it, and skips one whose b falls below b_min.
# The urban presets give b_min = 4 (256 lanes), the width-only gate they had
# before: at 200-240 lanes (b = 4-5) blocks cut the time of urban lanes by up
# to 20 %, a gate at b >= 16 took 1.16x on a desk urban campaign's calls, and
# no blocks 5.3x on campaign_urban's, whose 128-byte lanes live on them.
# Highway gives b_min = 6 (170 lanes). Replayed with tools/replay_kernel.py
# (interleaved, bit-checked, medians), the b >= 4 gate took 1.16x this one's
# time on score_highway's 24 calls of 200 lanes (21 reps), and 0.95x and
# 1.11x on a desk highway campaign's calls (7 and 11 reps: noise). On
# score_highway a yield of 3.0 (highway b_min = 5, 204 lanes) took 1.155x;
# 4.0, 5.0 and no blocks at all came within 1 % of 3.5 (15 reps). The urban
# presets keep b_min = 4 up to a yield of 3.62 (urban_a3), so 3.5 serves both.
# A gate on the expected length of a clean run alone,
# up_share * p / (1 - p) >= 24, would shut highway's blocks altogether, which
# gains as much on score_highway, but 3 highway lanes of 128-byte chunks then
# took 0.20-0.34 s against 0.07-0.11 s (best of 3, interleaved).
_CLEAN_RUN_CELLS = 1024
_CLEAN_RUN_YIELD = 3.5
# Scalar tail: once at most _TAIL_LANES lanes are left and they have at most
# _TAIL_TODO requests to go between them, run_lanes hands them to the scalar
# loop. The lane count is tested first, in Python, so wide iterations make no
# numpy call for the gate; the request total keeps 128-byte lanes, with
# thousands of requests to go, in the lane kernel and its blocks. Measured on
# the 406 kernel calls of one campaign_urban round and the 24 of one
# score_highway round (two shared Xeon cores, pure backend, each call the
# best of 7): without a tail they took 159 ms and 98 ms; with this gate
# 110 ms (0.69x) and 94 ms. Gates of 4/48, 8/24 and 8/48 came within 2 % of
# it; 2/24 gave 0.77x and 4/12 0.73x on urban. Since the draws call no
# helper, the scalar loop takes about 4 us per request it finishes (the
# 733 handoffs of one campaign_urban round, 2981 requests, took 9-15 ms
# against 22-27 ms before; best of 7 each, five runs), against about 28 us
# for one single-attempt step of all lanes. At that cost gates of 4/48,
# 8/96 and 16/96 still came within 3 % of 4/24 on the urban calls.
_TAIL_LANES = 4
_TAIL_TODO = 24
# j gammas on from a state, j = 0 .. 2 * _CLEAN_RUN_CELLS: where the draws of a
# run of clean attempts sit
_GAMMAS = np.arange(2 * _CLEAN_RUN_CELLS + 1, dtype=np.uint64) * _GOLDEN_A


def _mix_lanes(state):
    """splitmix64's output word for every state of a uint64 array: the z that
    _mix64 returns once it has added the gamma that reaches that state."""
    z = state >> _R30
    z ^= state
    z *= _MIX1_A
    z ^= z >> _R27
    z *= _MIX2_A
    z ^= z >> _R31
    return z


def _u01_lanes(z):
    return (z >> _R11) * _INV53


def _pass_threshold(succ_p):
    """The test, on an array of mixed words z, of _u01(z) < succ_p. _u01(z) is
    (z >> 11) / 2^53 without rounding, so the test is (z >> 11) < k with
    k = ceil(succ_p * 2^53), that is z < k * 2^11, with no shift. At k = 2^53
    (succ_p 1.0, a lossless channel) k * 2^11 does not fit in 64 bits and
    every word passes: the test is then z <= 2^64 - 1."""
    k = math.ceil(succ_p * 2.0**53)
    if k < 2**53:
        return np.array(k << 11, np.uint64).__gt__
    return np.array(2**64 - 1, np.uint64).__ge__


def _clean_run_min(eff_loss, up_mean, down_mean):
    """The narrowest block that pays on this channel: the smallest b >= 1 at
    which up_share * p * (1 - p^b) / (1 - p), a lane's expected clean advance
    over a block of width b, reaches _CLEAN_RUN_YIELD; math.inf if no block
    of at most _CLEAN_RUN_CELLS cells does. Read at call time, so that an
    override of the constant takes effect."""
    target = _CLEAN_RUN_YIELD
    if target <= 0.0:
        return 1
    up_share = 1.0 if math.isinf(up_mean) else up_mean / (up_mean + down_mean)
    p = (1.0 - eff_loss) ** 2
    if p == 1.0:
        b = target / up_share
    else:
        reach = up_share * p / (1.0 - p)  # the advance of an endless block
        if reach <= target:
            return math.inf
        # reach * (1 - p^b) >= target  <=>  b >= log(1 - target / reach) / log(p)
        b = math.log1p(-target / reach) / math.log(p)
    return max(1, math.ceil(b)) if b <= _CLEAN_RUN_CELLS else math.inf


def _session_seeds(seeds, n_sessions):
    """The seed run_sessions hands session s of replication r: draw s + 1 of
    r's stream, mix(seeds[r] + (s + 1) * gamma), since splitmix64 is a Weyl
    sequence fed through a mixer. Shape (len(seeds), n_sessions)."""
    steps = _GOLDEN_A * np.arange(1, n_sessions + 1, dtype=np.uint64)
    return _mix_lanes(np.asarray(seeds, np.uint64).reshape(-1, 1) + steps)


def _dwells(up, u, up_mean, down_mean):
    """Exponential dwell times of the link states `up` from uniforms `u`:
    every lane's first dwell, at the stationary start. math.log per element,
    as the scalar kernel takes it, then one multiplication by the means."""
    logs = np.fromiter(map(math.log, (1.0 - u).tolist()), np.float64, u.size)
    return np.where(up, -up_mean, -down_mean) * logs


def _cross_switches(mask, arrival, state, up, t_switch, up_mean, down_mean):
    """_cross for each lane in `mask`, one lane after the other, with the
    argument types the scalar tail hands _resume_session. Every lane draws
    its switches from its own stream, so the order of the lanes is free."""
    for i in mask.nonzero()[0].tolist():
        state[i], up[i], t_switch[i] = _cross(
            U64(state.item(i)), up.item(i), t_switch.item(i), arrival.item(i), up_mean, down_mean
        )


def _attempt(state, up, t_switch, req_arr, rep_arr, passes, up_mean, down_mean):
    """One attempt of every lane in the scalar kernel's order: switches,
    request draw, switches, reply draw. Updates the arrays in place and
    returns which replies got through."""
    _cross_switches(t_switch <= req_arr, req_arr, state, up, t_switch, up_mean, down_mean)
    state += _GOLDEN_A
    req_ok = passes(_mix_lanes(state))
    req_ok &= up
    _cross_switches(req_ok & (t_switch <= rep_arr), rep_arr, state, up, t_switch, up_mean, down_mean)
    np.add(state, _GOLDEN_A, out=state, where=req_ok)
    # a lane whose request failed neither moved its state nor crossed a
    # switch, so it reads the request's word under the same link and fails
    # again: rep_ok needs no `& req_ok`
    rep_ok = passes(_mix_lanes(state))
    rep_ok &= up
    return rep_ok


def _both_passed(passed, out):
    """Write into `out` (lanes, b) whether both packets of each attempt
    passed, from the (lanes, 2b) pass tests of a block's request and reply
    words, in one compare: each pair of adjacent bools reads as one uint16,
    0x0101 when both are True whatever the byte order."""
    np.equal(passed.view(np.uint16), 0x0101, out=out)


def _never_late(tx_req, prop_delay, flat, n, budget, timeout_s):
    """Whether no reply of a run_lanes call can land after its attempt's
    timeout, from the rows' requests `n`, budgets and timeouts. No exchange
    takes longer than tx_req + 2 prop + the longest reply transmission, and
    no lane's clock passes (n + 1) * budget * timeout, a timeout per attempt
    (doubled here for slack). The rounding of rep_arr - t0, four additions
    and a subtraction at clocks that large, stays below 2^-50 of their sum,
    so an exchange this short passes every in-time test of the call."""
    longest = float(tx_req) + 2.0 * float(prop_delay) + float(flat.max())
    clock = 2.0 * (int(n.max()) + 1) * int(budget.max()) * float(timeout_s.max())
    return longest + 2.0**-50 * (clock + longest) < float(timeout_s.min())


def _block_template(tx_req, prop_delay, b_max):
    """The columns a block's times share on every row: tx_req at 4j + 1 and
    prop at 4j + 2 and 4j + 4, for blocks of up to b_max attempts."""
    template = np.empty(4 * b_max + 1)
    template[1::4] = tx_req
    template[2::2] = prop_delay
    return template


def _clean_run_times(t, pos, template, flat, b):
    """Times of b back-to-back clean attempts of every lane. Row i is the
    running sum of [t, tx_req, prop, flat[pos - j], prop, ...], so column
    4j is attempt j's start, 4j + 2 its request's arrival and 4j + 4 its
    reply's; pos is the lane's offset plus its requests to go, the entry of
    the reply in flight in run_lanes' reply-time table, and the tx_req and
    prop columns come from the call's template row (_block_template) in one
    broadcast copy. np.add.accumulate adds left to right, which is the
    scalar kernel's order, (((t0 + tx_req) + prop) + tx_rep) + prop. Columns
    past a lane's last request read another configuration's entries, or the
    table's first, and mean nothing."""
    rows = np.empty((t.size, 4 * b + 1))
    rows[:] = template[: 4 * b + 1]
    rows[:, 0] = t
    rows[:, 3::4] = flat.take(pos[:, None] - np.arange(b), mode="clip")
    return np.add.accumulate(rows, axis=1, out=rows)


def _clean_run(state, up, t_switch, t, todo, left, budget, template, flat, off, timeout_s, passes, b_min):
    """Advance every lane over its run of clean attempts, in place.

    While every attempt so far got both packets through without a switch,
    attempt j's request word sits 2j + 1 gammas past `state` and its reply
    word 2j + 2. Attempt j is clean when the link is up, both words pass,
    its reply lands before the next switch and within the lane's timeout,
    and j < todo; each lane moves past its clean prefix of m attempts, so
    the columns past its last request are never read. Lanes already refused
    (no attempts left) do not move. The attempt that broke a run is left to
    the single-attempt step. No lane moves when the block would be narrower
    than b_min. `budget`, `off` and `timeout_s` are per lane; `timeout_s` is
    None when no reply of the call can be late (_never_late), and the
    timeout test is then skipped. A row's reply times never fall, so the
    switch test runs only when some lane's last reply reaches its switch.
    """
    width = t.size
    b = min(_CLEAN_RUN_CELLS // width, int(todo.max()))
    if b < b_min:
        return
    passed = passes(_mix_lanes(state[:, None] + _GAMMAS[1 : 2 * b + 1]))
    times = _clean_run_times(t, off + todo, template, flat, b)
    rep_arr = times[:, 4::4]
    # a last column that is never clean, so argmin finds every row's first
    # unclean attempt; the link, the requests to go and the attempts left
    # cap the prefix afterwards
    clean = np.zeros((width, b + 1), np.bool_)
    run = clean[:, :b]
    _both_passed(passed, run)
    if (rep_arr[:, -1] >= t_switch).any():
        run &= rep_arr < t_switch[:, None]
    if timeout_s is not None:
        run &= rep_arr - times[:, :-1:4] <= timeout_s[:, None]
    m = np.minimum(clean.argmin(axis=1), todo * (up & (left > 0)))
    t[:] = times[np.arange(width), 4 * m]
    state += _GAMMAS[2 * m]
    todo -= m
    np.copyto(left, budget, where=m > 0)


def run_lanes(
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
    seeds,
):
    """run_sessions for every seed in `seeds` at once, each session a lane.

    `chunk_bytes`, `attempts` and `timeout_s` are each one value for every
    row of seeds, or a sequence with one value per row, so that the rows of
    one call may run different configurations over the same scenario.
    Returns (times, lost, delivered, refused), each of shape
    (len(seeds), n_sessions); row r equals run_sessions(n_sessions, row r's
    configuration, ..., seeds[r]) bit for bit and dtype for dtype. A lane's
    splitmix64 state lives in a uint64 array and its seed comes by counter
    (_session_seeds). An iteration runs one attempt of every lane in the
    scalar order (_attempt). While at most _CLEAN_RUN_CELLS // b_min lanes
    are left, b_min the narrowest block that pays on this channel
    (_clean_run_min), an iteration first moves every lane past its run of
    clean attempts (_clean_run), and the single attempt then
    plays the one that broke the run. Lanes that finish are compacted out,
    so a long lane does not pay for the width it started with, and the last
    few stragglers finish in the scalar protocol, each resumed from its
    lane's state with its own configuration (_resume_session).

    Each lane carries its row's configuration through compaction. Reply
    transmission times come from one table: per distinct chunk size, n + 2
    entries at an offset, indexed by the lane's offset plus its requests to
    go.
    """
    scene_args = (file_size, header_bytes, bandwidth, prop_delay, eff_loss, up_mean, down_mean)
    state = _session_seeds(seeds, n_sessions).ravel()
    width = state.size
    if math.isinf(up_mean):
        up = np.ones(width, np.bool_)
        t_switch = np.full(width, math.inf)
    else:
        state += _GOLDEN_A
        up = _u01_lanes(_mix_lanes(state)) < up_mean / (up_mean + down_mean)
        state += _GOLDEN_A
        t_switch = _dwells(up, _u01_lanes(_mix_lanes(state)), up_mean, down_mean)

    rows = len(seeds)
    chunk, budget, timeout_s = (
        np.broadcast_to(np.asarray(values, dtype), rows)
        for values, dtype in ((chunk_bytes, np.int64), (attempts, np.int64), (timeout_s, np.float64))
    )
    # reply transmission time by the number of requests still to answer:
    # the handshake's (n + 1), full chunks' (n to 2), the last chunk's (1);
    # a slice of n + 2 entries per distinct chunk size, in Python ints
    # because numpy scalar arithmetic costs more than these few values
    sizes = sorted(set(chunk.tolist()))
    counts = [(file_size + c - 1) // c for c in sizes]
    starts = [0]
    for n_c in counts:
        starts.append(starts[-1] + n_c + 2)
    flat = np.empty(starts.pop())
    for c, n_c, start in zip(sizes, counts, starts):
        tx_rep = flat[start : start + n_c + 2]
        tx_rep[:] = (header_bytes + c) * 8.0 / bandwidth
        tx_rep[n_c + 1] = (header_bytes + 0) * 8.0 / bandwidth
        tx_rep[1] = (header_bytes + file_size - (n_c - 1) * c) * 8.0 / bandwidth
    pick = np.searchsorted(sizes, chunk)
    off, n = np.array(starts)[pick], np.array(counts)[pick]
    tx_req = np.array(header_bytes * 8.0 / bandwidth)
    prop = np.array(float(prop_delay))
    on_time = _never_late(tx_req, prop, flat, n, budget, timeout_s)
    chunk, budget, timeout_s, off, n = (a.repeat(n_sessions) for a in (chunk, budget, timeout_s, off, n))
    passes = _pass_threshold(1.0 - eff_loss)
    b_min = _clean_run_min(eff_loss, up_mean, down_mean)
    block_lanes = _CLEAN_RUN_CELLS // b_min
    template = _block_template(tx_req, prop, min(_CLEAN_RUN_CELLS, max(counts) + 1))

    times = np.empty(width)
    lost_out = np.empty(width)
    delivered = np.empty(width, np.int64)
    refused = np.empty(width, np.bool_)
    lane = np.arange(width)
    t = np.zeros(width)
    todo = n + 1  # requests still to answer
    left = budget.copy()  # attempts left for the one in flight
    lost = np.zeros(width, np.int64)
    while lane.size:
        if lane.size <= block_lanes:
            _clean_run(state, up, t_switch, t, todo, left, budget, template, flat, off,
                       None if on_time else timeout_s, passes, b_min)
        if np.count_nonzero(np.minimum(todo, left)) < lane.size:
            done = (todo == 0) | (left == 0)
            out, to_go = lane[done], todo[done]
            times[out] = t[done]
            lost_out[out] = lost[done]
            refused[out] = to_go > 0
            delivered[out] = np.where(to_go > 0, np.maximum(n[done] - to_go, 0) * chunk[done], file_size)
            # one array at a time, so each old array is freed before the next copy is made
            keep = ~done
            lane = lane[keep]
            state = state[keep]
            up = up[keep]
            t_switch = t_switch[keep]
            t = t[keep]
            todo = todo[keep]
            left = left[keep]
            lost = lost[keep]
            chunk = chunk[keep]
            budget = budget[keep]
            timeout_s = timeout_s[keep]
            off = off[keep]
            n = n[keep]
            if not lane.size:
                break
        if lane.size <= _TAIL_LANES and todo.sum() <= _TAIL_TODO:
            for i, s, lu, ts, t0, to_go, left_i, lost_i, c, att, to, n_i in zip(
                *(a.tolist() for a in (lane, state, up, t_switch, t, todo, left, lost, chunk, budget, timeout_s, n))
            ):
                times[i], lost_out[i], delivered[i], refused[i], _ = _resume_session(
                    c, att, to, *scene_args, U64(s), lu, ts, t0, lost_i, n_i + 1 - to_go, att - left_i + 1,
                    np.empty((0, 4)),
                )
            break

        req_arr = t + tx_req
        req_arr += prop
        rep_arr = req_arr + flat[off + todo]
        rep_arr += prop
        rep_ok = _attempt(state, up, t_switch, req_arr, rep_arr, passes, up_mean, down_mean)
        lost += ~rep_ok
        win = rep_ok if on_time else rep_ok & (rep_arr - t <= timeout_s)
        t += timeout_s
        np.copyto(t, rep_arr, where=win)
        todo -= win
        left -= _ONE
        np.copyto(left, budget, where=win)

    shape = (-1, n_sessions)
    return (
        times.reshape(shape),
        lost_out.reshape(shape),
        delivered.reshape(shape),
        refused.reshape(shape),
    )
