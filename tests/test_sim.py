import dataclasses
import hashlib
import importlib.util
import inspect
import itertools
import json
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vdtptune
from vdtptune.sim import kernels, transfer
from vdtptune.sim.kernels import run_sessions
from vdtptune.sim.scenario import (
    Scenario,
    human_expert_config,
    load_scenario,
    preset,
    preset_names,
)
from vdtptune.sim.transfer import (
    TransferOutcome,
    _kernel_args,
    _outcomes,
    effective_throughput,
    n_chunks,
    simulate_batch,
    simulate_replication,
    simulate_session_events,
    write_event_trace,
)
from vdtptune.space import DEFAULT_BOUNDS, VdtpConfig


def lossless(file_size=1_048_576, bandwidth=5.5e6, prop=0.002, header=64):
    return Scenario(
        name="lossless",
        bandwidth_bps=bandwidth,
        header_bytes=header,
        propagation_delay_s=prop,
        base_loss_prob=0.0,
        link_up_mean_s=math.inf,
        link_down_mean_s=1.0,
        sessions=4,
        file_size_bytes=file_size,
        density_scale=0.0,
    )


def total_loss(**kw):
    return Scenario(
        name="blackout",
        base_loss_prob=1.0,
        link_up_mean_s=math.inf,
        sessions=2,
        **kw,
    )


def stop_and_wait_time(n, file_size, bandwidth, prop, header):
    """Handshake plus n request/reply exchanges, no losses, no retries."""
    return (n + 1) * (2.0 * header * 8.0 / bandwidth + 2.0 * prop) + file_size * 8.0 / bandwidth


# --- chunk arithmetic --------------------------------------------------------


def test_n_chunks_examples():
    assert n_chunks(1000, 256) == 4
    assert n_chunks(1024, 1024) == 1
    assert n_chunks(1025, 1024) == 2
    assert n_chunks(1, 524288) == 1


def test_n_chunks_matches_ceil():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        file = int(rng.integers(1, 10_000_000))
        chunk = int(rng.integers(1, 600_000))
        assert n_chunks(file, chunk) == math.ceil(file / chunk)


def test_n_chunks_rejects_nonpositive():
    with pytest.raises(ValueError):
        n_chunks(0, 128)
    with pytest.raises(ValueError):
        n_chunks(100, 0)


# --- lossless closed form ----------------------------------------------------


def test_lossless_session_matches_closed_form():
    rng = np.random.default_rng(99)
    for _ in range(50):
        chunk = int(rng.integers(128, 524289))
        file = int(rng.integers(1, 5 * 2**20))
        bw = float(rng.uniform(1e5, 1e8))
        prop = float(rng.uniform(1e-4, 1e-2))
        sc = lossless(file, bw, prop)
        res = simulate_session_events((chunk, 1, 1e9), sc, seed=int(rng.integers(2**60)))[1]
        expect = stop_and_wait_time(n_chunks(file, chunk), file, bw, prop, 64)
        assert res.time_s == pytest.approx(expect, abs=1e-9)
        assert res.lost_packets == 0
        assert res.delivered_bytes == file
        assert not res.refused


def test_lossless_time_independent_of_seed():
    sc = lossless()
    a = simulate_session_events((25600, 8, 8.0), sc, seed=1)[1]
    b = simulate_session_events((25600, 8, 8.0), sc, seed=982451653)[1]
    assert a == b


def test_larger_chunks_fewer_round_trips_lossless():
    sc = lossless()
    small = simulate_session_events((4096, 1, 1e9), sc, seed=0)[1]
    big = simulate_session_events((262144, 1, 1e9), sc, seed=0)[1]
    assert big.time_s < small.time_s


# --- refusal semantics -------------------------------------------------------


def test_total_loss_refuses_at_attempts_times_timeout():
    sc = total_loss()
    for attempts, timeout in [(1, 1.0), (3, 2.5), (7, 3.5), (250, 10.0)]:
        res = simulate_session_events((25600, attempts, timeout), sc, seed=11)[1]
        assert res.refused
        assert res.delivered_bytes == 0
        assert res.lost_packets == attempts
        assert res.time_s == pytest.approx(attempts * timeout, abs=1e-9)


def test_total_loss_event_log_counts_handshake_sends():
    sc = total_loss()
    attempts, timeout = 5, 2.0
    events, res = simulate_session_events((25600, attempts, timeout), sc, seed=3)
    sends = [e for e in events if e[2] == "send" and e[3] == "FIRQ"]
    drops = [e for e in events if e[2] == "drop"]
    refusals = [e for e in events if e[2] == "refused"]
    assert len(sends) == attempts
    assert len(drops) == attempts
    assert len(refusals) == 1
    assert refusals[0][0] == pytest.approx(attempts * timeout, abs=1e-9)
    assert res.refused
    # nothing ever got past the first request type
    assert all(e[3] in ("FIRQ", "") for e in events)


# --- conservation and aggregation --------------------------------------------


def test_completed_session_delivers_whole_file():
    sc = lossless(file_size=123_457)
    res = simulate_session_events((1000, 3, 5.0), sc, seed=4)[1]
    assert res.delivered_bytes == 123_457


def test_replication_aggregates_sessions():
    sc = lossless(file_size=65536)
    out = simulate_replication((8192, 3, 5.0), sc, seed=10)
    assert out.sessions == sc.sessions
    assert out.refused_sessions == 0
    assert out.completed_sessions == sc.sessions
    # every session delivered the file: total kB = sessions * file/1024
    assert out.data_transferred_kbytes == pytest.approx(sc.sessions * 65536 / 1024.0)
    assert out.per_session_kbytes() == pytest.approx(64.0)


def test_replication_deterministic_and_seed_sensitive():
    sc = preset("urban")
    cfg = VdtpConfig(25600, 8, 8.0)
    a = simulate_replication(cfg, sc, seed=5)
    b = simulate_replication(cfg, sc, seed=5)
    c = simulate_replication(cfg, sc, seed=6)
    assert a == b
    assert a != c


def test_effective_throughput_zero_when_nothing_completes():
    sc = total_loss()
    out = simulate_replication((25600, 2, 1.0), sc, seed=1)
    assert out.completed_sessions == 0
    assert effective_throughput(out) == 0.0


def test_effective_throughput_lossless_value():
    sc = lossless(file_size=1_048_576)
    out = simulate_replication((1_048_576, 1, 1e9), sc, seed=0)
    tp = effective_throughput(out)
    # one chunk: ~8.39 Mbit at 5.5 Mbit/s plus overheads, just above 1.5 s
    assert tp == pytest.approx(1024.0 / out.transmission_time_s)


# --- stochastic ordering -----------------------------------------------------


def test_more_loss_is_stochastically_worse():
    base = preset("urban")
    cfg = VdtpConfig(25600, 8, 8.0)
    seeds = range(40)

    def mean_time(loss):
        sc = Scenario(
            name="x",
            propagation_delay_s=base.propagation_delay_s,
            base_loss_prob=loss,
            link_up_mean_s=math.inf,
            sessions=1,
            file_size_bytes=base.file_size_bytes,
        )
        return np.mean([simulate_session_events(cfg, sc, seed=s)[1].time_s for s in seeds])

    assert mean_time(0.0) < mean_time(0.05) < mean_time(0.3)


def test_density_scaling_increases_losses():
    sc = preset("urban")
    cfg = VdtpConfig(25600, 8, 8.0)
    plain = np.mean([simulate_session_events(cfg, sc, seed=s)[1].lost_packets for s in range(60)])
    dense_sc = dataclasses.replace(sc, density_scale=3.0)
    dense = np.mean([simulate_session_events(cfg, dense_sc, seed=s)[1].lost_packets for s in range(60)])
    assert dense > plain


# --- instrumented replay matches the kernel ----------------------------------


def test_event_replay_outcome_equals_kernel():
    for name in ("urban", "highway"):
        sc = preset(name)
        cfg = human_expert_config(sc)
        for seed in (1, 2, 3, 50, 51):
            events, replay = simulate_session_events(cfg, sc, seed=seed)
            # the same session with no event buffer: recording consumes no draws
            t, lost, delivered, refused, _ = kernels.session_kernel(
                *_kernel_args(cfg, sc), np.uint64(seed), np.empty((0, 4))
            )
            assert replay == (float(t), int(lost), int(delivered), bool(refused))
            kinds = {e[2] for e in events}
            assert kinds <= {"send", "deliver", "drop", "timeout", "refused", "complete"}
            times = [e[0] for e in events]
            assert times == sorted(times)


def test_event_trace_file_round_trips(tmp_path):
    sc = preset("urban")
    events, _ = simulate_session_events(human_expert_config(sc), sc, seed=9)
    path = tmp_path / "events.csv"
    write_event_trace(path, events)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "virtual_time,session_id,event_kind,packet_type,attempt_no"
    assert len(lines) == len(events) + 1
    assert float(lines[1].split(",")[0]) == events[0][0]


# --- golden stream pins ------------------------------------------------------
#
# sha256 digests of exact renderings of the random stream's products. Any
# change in how draws are consumed, on either kernel path, moves a digest.

GOLDEN_SESSIONS = {
    "urban_expert": (("urban", None), "a75570c32f684aad17250da08a3e32060a7b2a3fb7f198807d9398f437f833b0"),
    "highway_expert": (("highway", None), "df1cf74ac2fab92f111bc7b3f1c780dac25916ab40f17115dd0d8c1be412f07d"),
    "urban_2048_250": (("urban", (2048, 250, 10.0)), "7c4940c771c9f12aca0afe69470aa4ceeacf503dd524c9549c9e1316c1fd39ca"),
}


@pytest.mark.parametrize("lane", sorted(GOLDEN_SESSIONS))
def test_golden_run_sessions_digest(lane):
    (name, config), digest = GOLDEN_SESSIONS[lane]
    sc = preset(name)
    times, lost, delivered, refused = run_sessions(
        40, *_kernel_args(config or human_expert_config(sc), sc), np.uint64(777)
    )
    rows = [
        f"{float(t)!r} {int(l)} {int(d)} {int(r)}"
        for t, l, d, r in zip(times, lost, delivered, refused)
    ]
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == digest


def test_golden_event_trace_digest(tmp_path):
    urban, highway = preset("urban"), preset("highway")
    sessions = [
        (human_expert_config(urban), urban, 0),  # completes, nothing lost
        (human_expert_config(highway), highway, 1),  # completes after losses
        ((65536, 2, 2.0), highway, 5),  # refused part-way
    ]
    events, results = [], []
    for sid, (cfg, sc, seed) in enumerate(sessions):
        ev, res = simulate_session_events(cfg, sc, seed=seed, session_id=sid)
        events += ev
        results.append(res)
    assert [(r.lost_packets > 0, r.refused) for r in results] == [
        (False, False),
        (True, False),
        (True, True),
    ]
    path = tmp_path / "events.csv"
    write_event_trace(path, events)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == "45cc747a7c5700443ee40f5612394e1298c010b473048c5daa2f9981df33d194"


# Reference outputs of Vigna's splitmix64.c for seeds 0 and 1234567.
SPLITMIX64_KNOWN_ANSWERS = {
    0: (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F),
    1234567: (0x599ED017FB08FC85,),
}


def test_splitmix64_known_answers():
    for seed, words in SPLITMIX64_KNOWN_ANSWERS.items():
        state = kernels.U64(seed)
        for word in words:
            state, z = kernels._mix64(state)
            assert int(z) == word
            assert kernels._u01(z) == (word >> 11) * 2**-53


# the module constants _mix64 and _u01 compute with
_DRAW_CONSTANTS = ("_MASK", "_GOLDEN", "_MIX1", "_MIX2", "_S11", "_S27", "_S30", "_S31")


def _helpers_over(u64):
    """The kernel's own _mix64/_u01/_cross code, with U64 and its constants
    rebound to `u64`."""
    g = dict(vars(kernels), U64=u64)
    for name in _DRAW_CONSTANTS:
        g[name] = u64(int(getattr(kernels, name)))
    code = [getattr(f, "py_func", f).__code__ for f in (kernels._mix64, kernels._u01, kernels._cross)]
    # the helpers, _cross's inline draw included, reach 64-bit words through
    # the constants alone, so rebinding them is what makes the np.uint64 form
    # run on uint64 operands
    for c in code:
        assert "U64" not in c.co_names
        assert set(c.co_names) & set(vars(kernels)) <= {*_DRAW_CONSTANTS, "_INV53", "math"}
    return tuple(types.FunctionType(c, g) for c in code)


def test_uint64_and_python_int_helpers_agree():
    """The numpy-uint64 arithmetic numba compiles and the plain Python-int
    arithmetic of the pure path give the same words and the same doubles."""
    mix_np, u01_np, _ = _helpers_over(np.uint64)
    mix_int, u01_int, _ = _helpers_over(int)
    assert kernels.U64 is (np.uint64 if kernels.NUMBA_ENABLED else int)
    for name in _DRAW_CONSTANTS:
        assert type(getattr(kernels, name)) is type(kernels.U64(0)), name
    rng = np.random.default_rng(20240601)
    states = [0, 2**64 - 1, *(int(s) for s in rng.integers(0, 2**64, 10_000, dtype=np.uint64))]
    with np.errstate(over="ignore"):
        for seed, words in SPLITMIX64_KNOWN_ANSWERS.items():
            s_np, s_int = np.uint64(seed), seed
            for word in words:
                (s_np, z_np), (s_int, z_int) = mix_np(s_np), mix_int(s_int)
                assert int(z_np) == z_int == word
                assert u01_np(z_np) == u01_int(z_int) == (word >> 11) * 2**-53
        for s in states:
            (s_np, z_np), (s_int, z_int) = mix_np(np.uint64(s)), mix_int(s)
            assert type(s_np) is type(z_np) is np.uint64
            assert (int(s_np), int(z_np)) == (s_int, z_int)
            assert 0 <= z_int < 2**64
            u_np, u_int = u01_np(z_np), u01_int(z_int)
            assert u_np == u_int and 0.0 <= u_int < 1.0


@pytest.mark.skipif(kernels.NUMBA_ENABLED, reason="the pure path's U64 is int")
def test_pure_draw_reduces_unmasked_states():
    """U64 leaves Python ints unmasked on the pure path; _mix64 reduces a
    state modulo 2^64 before it uses it, so states 2^64 apart draw alike."""
    for s in (0, 1, 12345, 2**63, 2**64 - 1, 2**64 - int(kernels._GOLDEN)):
        want = kernels._mix64(kernels.U64(s))
        assert 0 <= want[0] < 2**64 and 0 <= want[1] < 2**64
        assert kernels._mix64(kernels.U64(s + 2**64)) == want
        assert kernels._mix64(kernels.U64(s - 2**64)) == want


# --- lane kernel -------------------------------------------------------------
#
# run_lanes must give, for every replication seed, the rows run_sessions gives
# for that seed: the same floats (compared by repr), the same counts, the same
# dtypes. The cases cover each branch of the protocol: an always-up channel,
# total loss, no loss, one session, a single attempt, replies that arrive after
# the timeout, lanes refused early at different requests, and lanes whose link
# switches thousands of times.

# the handshake's round trip in the default radio: its reply lands exactly at
# a timeout this long, and the scalar kernel counts that as in time
_HANDSHAKE_RTT = ((64 * 8.0 / 5.5e6 + 0.002) + 64 * 8.0 / 5.5e6) + 0.002


def _gate_lanes(preset_name):
    """The widest call that starts with a clean-run block on a preset's channel."""
    sc = preset(preset_name)
    b_min = kernels._clean_run_min(sc.effective_loss(), sc.link_up_mean_s, sc.link_down_mean_s)
    return kernels._CLEAN_RUN_CELLS // b_min


# each channel's block gate (256 lanes on urban, 170 on highway) and one lane above it
_GATE_WIDTHS = [(channel, _gate_lanes(channel) + k) for channel in ("urban", "highway") for k in (0, 1)]

LANE_CASES = {
    "urban_expert": ("urban", None, 20),
    "highway_expert": ("highway", None, 20),
    "urban_a3_expert": ("urban_a3", None, 20),
    "always_up": ("urban", None, dict(link_up_mean_s=math.inf, base_loss_prob=0.05)),
    "total_loss": ("urban", (25600, 3, 2.0), dict(base_loss_prob=1.0)),
    "lossless": ("urban", (25600, 8, 8.0), dict(base_loss_prob=0.0, link_up_mean_s=math.inf)),
    "one_session": ("highway", None, 1),
    "one_attempt": ("highway", (8192, 1, 5.0), 20),
    "late_replies": ("urban", (524288, 3, 0.5), 20),
    # a link that switches several times while a packet is in flight (dwell
    # means of 6 ms and 3 ms against a 41 ms round trip), in attempts that
    # get through and in those that time out
    "switch_storm": ("urban", (25600, 6, 0.05), dict(link_up_mean_s=0.006, link_down_mean_s=0.003, sessions=5)),
    "reply_at_timeout": ("urban", (2048, 1, _HANDSHAKE_RTT), dict(base_loss_prob=0.0, link_up_mean_s=math.inf)),
    "tail_300_2_1": ("urban", (300, 2, 1.0), 5),
    "highway_tail_300_2_1": ("highway", (300, 2, 1.0), 20),
    "highway_128_44_3.4": ("highway", (128, 44, 3.4), 1),
    # clean-run blocks: a whole lossless transfer (43 requests, the last chunk
    # 23576 bytes) in one block capped by the requests to go; one 128-byte
    # session, whose blocks run back to back at their widest; and, on each
    # channel, widths that start exactly at the block gate (at one
    # replication) and one lane above it, where blocks start once lanes leave
    "one_block": ("urban", (25000, 8, 8.0), dict(base_loss_prob=0.0, link_up_mean_s=math.inf, sessions=1)),
    "urban_128_one_session": ("urban", (128, 250, 10.0), 1),
    **{
        f"gate_{lanes}_lanes": (channel, (1024, 3, 2.0), dict(sessions=lanes, file_size_bytes=32768))
        for channel, lanes in _GATE_WIDTHS
    },
    # the scalar tail (TAIL_HANDOFFS says what each case hands over): a
    # straggler whose link is down, lanes refused inside the tail, one with
    # its attempts partly spent, a one-chunk file handed off before its
    # handshake reply, and, under total loss so that no lane moves, widths and
    # request totals at the gate and one over it
    "tail_link_down": ("urban", (1024, 2, 1.0), dict(sessions=20, file_size_bytes=8192)),
    "tail_refused": ("highway", (300, 1, 1.0), dict(sessions=4, file_size_bytes=1500)),
    "tail_partly_spent": ("highway", (512, 2, 1.0), dict(sessions=20, file_size_bytes=4096)),
    "tail_handshake": ("urban", (25600, 3, 2.0), dict(sessions=1, file_size_bytes=100)),
    "tail_gate_lanes": ("urban", (1024, 3, 2.0), dict(
        base_loss_prob=1.0, sessions=kernels._TAIL_LANES,
        file_size_bytes=1024 * (kernels._TAIL_TODO // kernels._TAIL_LANES - 1))),
    "tail_over_lanes": ("urban", (1024, 3, 2.0), dict(
        base_loss_prob=1.0, sessions=kernels._TAIL_LANES + 1,
        file_size_bytes=1024 * (kernels._TAIL_TODO // (kernels._TAIL_LANES + 1) - 1))),
    "tail_gate_todo": ("urban", (1024, 3, 2.0), dict(
        base_loss_prob=1.0, sessions=1, file_size_bytes=1024 * (kernels._TAIL_TODO - 1))),
    "tail_over_todo": ("urban", (1024, 3, 2.0), dict(
        base_loss_prob=1.0, sessions=1, file_size_bytes=1024 * kernels._TAIL_TODO)),
}


def _lane_case(name):
    preset_name, config, change = LANE_CASES[name]
    change = change if isinstance(change, dict) else dict(sessions=change)
    sc = dataclasses.replace(preset(preset_name), **change)
    return sc, _kernel_args(config or human_expert_config(sc), sc)


def _replication_seeds(reps):
    return np.random.default_rng(reps).integers(0, 2**64, reps, dtype=np.uint64)


def _rows(arrays):
    return [(repr(a.tolist()), a.dtype) for a in arrays]


@pytest.mark.parametrize("reps", [1, 3, 10])
@pytest.mark.parametrize("case", sorted(LANE_CASES))
def test_lanes_match_run_sessions(case, reps):
    sc, args = _lane_case(case)
    seeds = _replication_seeds(reps)
    lanes = kernels.run_lanes(sc.sessions, *args, seeds)
    assert all(a.shape == (reps, sc.sessions) for a in lanes)
    for r, seed in enumerate(seeds):
        scalar = run_sessions(sc.sessions, *args, seed)
        assert _rows(a[r] for a in lanes) == _rows(scalar)


# Mixed batches: each row of seeds runs its own configuration over one
# scenario, as a generation of candidates does. Each case is (preset, the
# candidates' configurations, scenario changes); every candidate gets `reps`
# rows. The cases put a 128-byte lane next to expert lanes, rows that share a
# chunk size but not budget or timeout, rows whose configurations coincide,
# refused lanes that reach the scalar tail, and, on each channel, widths at
# the block gate (one-session rows) and one over it.
_GATE_PAIR = [(1024, 3, 2.0), (2048, 2, 1.0)]
MIXED_LANE_CASES = {
    "chunk128_next_to_experts": ("urban", [None, (128, 250, 10.0), None, (4096, 4, 3.0)], dict(sessions=2)),
    "budgets_and_timeouts": ("highway", [(8192, 1, 5.0), (8192, 3, 0.5), (8192, 12, 2.0), (8192, 2, 0.05)], {}),
    "chunks_budgets_timeouts": ("urban", [(300, 2, 1.0), (25600, 8, 8.0), (524288, 3, 0.5), (2048, 1, 4.0)], {}),
    "identical_rows": ("urban", [None, None, None], {}),
    "refused_in_tail": ("highway", [(300, 1, 1.0), (500, 2, 1.0), (1500, 3, 2.0)], dict(sessions=2, file_size_bytes=1500)),
    **{
        f"gate_{rows}_rows": (channel, (_GATE_PAIR * rows)[:rows], dict(sessions=1, file_size_bytes=32768))
        for channel, rows in _GATE_WIDTHS
    },
}


def _mixed_case(name, reps):
    """Scenario, per-row (chunk, attempts, timeout), the scenario's kernel
    arguments and the row seeds of a MIXED_LANE_CASES entry."""
    preset_name, configs, change = MIXED_LANE_CASES[name]
    sc = dataclasses.replace(preset(preset_name), **change)
    protocol = [_kernel_args(c or human_expert_config(sc), sc)[:3] for c in configs]
    rows = [c for c in protocol for _ in range(reps)]
    seeds = np.random.default_rng(len(rows)).integers(0, 2**64, len(rows), dtype=np.uint64)
    return sc, rows, _kernel_args(protocol[0], sc)[3:], seeds


def _run_mixed(sc, rows, scene, seeds):
    chunk, attempts, timeout = (list(column) for column in zip(*rows))
    return kernels.run_lanes(sc.sessions, chunk, attempts, timeout, *scene, seeds)


@pytest.mark.parametrize("reps", [1, 3])
@pytest.mark.parametrize("case", sorted(MIXED_LANE_CASES))
def test_mixed_lanes_match_run_sessions_row_by_row(case, reps):
    sc, rows, scene, seeds = _mixed_case(case, reps)
    lanes = _run_mixed(sc, rows, scene, seeds)
    assert all(a.shape == (len(rows), sc.sessions) for a in lanes)
    for r, (config, seed) in enumerate(zip(rows, seeds)):
        assert _rows(a[r] for a in lanes) == _rows(run_sessions(sc.sessions, *config, *scene, seed))


def _block_widths(monkeypatch, run):
    """Run `run()` with a spy on the clean-run blocks; returns the width of
    each block it made. _clean_run builds a block's times only once the gate
    has let the block through."""
    times = kernels._clean_run_times
    widths = []

    def spy(t, *rest):
        widths.append(t.size)
        return times(t, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(kernels, "_clean_run_times", spy)
        run()
    return widths


@pytest.mark.parametrize(
    "kind, case", [("lanes", c) for c in sorted(LANE_CASES)] + [("mixed", c) for c in sorted(MIXED_LANE_CASES)]
)
def test_lanes_match_run_sessions_with_blocks_forced_open_or_shut(kind, case, monkeypatch):
    """A block's outcome depends on the lanes alone, so the gate only decides
    which iterations run one: blocks at every width (a yield of 0), no blocks
    (an infinite yield) and the committed gate give run_sessions' bits, on
    every case. This keeps highway's blocks covered where its gate lets
    fewer iterations take them. Where no reply can be late, blocks and
    single steps skip the in-time test; with the late-reply fact forced to
    "may be late" they take it on every call, and the bits are the same."""
    if kind == "lanes":
        sc, args = _lane_case(case)
        rows, scene, seeds = [args[:3]] * 3, args[3:], _replication_seeds(3)
    else:
        sc, rows, scene, seeds = _mixed_case(case, 3)
    want = [_rows(run_sessions(sc.sessions, *config, *scene, seed)) for config, seed in zip(rows, seeds)]
    for target, late in itertools.product((0.0, math.inf, kernels._CLEAN_RUN_YIELD), (False, True)):
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "_CLEAN_RUN_YIELD", target)
            if late:
                patch.setattr(kernels, "_never_late", lambda *args: False)
            out = []
            widths = _block_widths(monkeypatch, lambda: out.extend(_run_mixed(sc, rows, scene, seeds)))
        assert [_rows(a[r] for a in out) for r in range(len(rows))] == want, (target, late)
        assert not (widths and math.isinf(target))


def test_mixed_tail_resumes_each_lane_with_its_own_configuration(monkeypatch):
    """Lanes of different configurations reach the scalar tail together,
    refused ones among them, and each resumes with its own row's chunk,
    budget and timeout."""
    sc, rows, scene, seeds = _mixed_case("refused_in_tail", 1)
    resume = kernels._resume_session
    handed = []

    def spy(*resume_args):
        out = resume(*resume_args)
        handed.append((tuple(resume_args[:3]), out[3]))
        return out

    monkeypatch.setattr(kernels, "_resume_session", spy)
    _run_mixed(sc, rows, scene, seeds)
    assert {config for config, _ in handed} <= set(rows)
    assert len({config for config, _ in handed}) > 1
    assert any(refused for _, refused in handed)


@settings(max_examples=40, deadline=None)
@given(
    configs=st.lists(
        st.tuples(
            st.integers(min_value=128, max_value=32768),
            st.integers(min_value=1, max_value=12),
            st.floats(min_value=0.005, max_value=5.0),
        ),
        min_size=1,
        max_size=6,
    ),
    reps=st.integers(min_value=1, max_value=3),
    loss=st.floats(min_value=0.0, max_value=0.2),
    sessions=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_mixed_lanes_match_run_sessions_on_drawn_batches(configs, reps, loss, sessions, seed):
    sc = Scenario(
        name="prop",
        base_loss_prob=loss,
        link_up_mean_s=12.0,
        link_down_mean_s=3.0,
        sessions=sessions,
        file_size_bytes=65536,
    )
    rows = [c for c in configs for _ in range(reps)]
    scene = _kernel_args(configs[0], sc)[3:]
    seeds = np.random.default_rng(seed).integers(0, 2**64, len(rows), dtype=np.uint64)
    lanes = _run_mixed(sc, rows, scene, seeds)
    for r, (config, row_seed) in enumerate(zip(rows, seeds)):
        assert _rows(a[r] for a in lanes) == _rows(run_sessions(sessions, *config, *scene, row_seed))


@pytest.mark.skipif(importlib.util.find_spec("numba") is None, reason="numba is not installed")
def test_compiled_replications_match_lanes():
    """With numba, simulate_replication loops the compiled run_sessions;
    its outcomes must be those the lane kernel gives."""
    if not kernels.NUMBA_ENABLED:
        pytest.skip("numba is disabled by VDTPTUNE_DISABLE_NUMBA")
    for case in sorted(LANE_CASES):
        sc, args = _lane_case(case)
        for reps in (1, 3, 10):
            seeds = [int(s) for s in _replication_seeds(reps)]
            lanes = kernels.run_lanes(sc.sessions, *args, seeds)
            compiled = simulate_replication(args[:3], sc, seeds)
            assert compiled == _outcomes(*lanes)


def _handoffs(monkeypatch, sc, args, seeds):
    """run_lanes on `seeds` with a spy on the scalar tail: one dict per lane
    handed off, its resume arguments by name plus what the tail returned."""
    resume = kernels._resume_session
    names = list(inspect.signature(resume).parameters)
    handed = []

    def spy(*resume_args):
        out = resume(*resume_args)
        handed.append(dict(zip(names, resume_args), delivered=out[2], refused=out[3]))
        return out

    monkeypatch.setattr(kernels, "_resume_session", spy)
    kernels.run_lanes(sc.sessions, *args, seeds)
    monkeypatch.undo()
    return handed


def _requests_to_go(sc, args, lane):
    return n_chunks(sc.file_size_bytes, args[0]) + 1 - lane["first_request"]


# what the tail cases of LANE_CASES hand over at one replication
TAIL_HANDOFFS = {
    "tail_link_down": lambda sc, args, h: any(not lane["link_up"] for lane in h),
    "tail_refused": lambda sc, args, h: any(
        lane["refused"] and lane["delivered"] == (lane["first_request"] - 1) * args[0] > 0 for lane in h
    ),
    "tail_partly_spent": lambda sc, args, h: any(
        lane["refused"] and lane["delivered"] > 0 and lane["first_attempt"] > 1 for lane in h
    ),
    "tail_handshake": lambda sc, args, h: [(lane["first_request"], lane["first_attempt"]) for lane in h] == [(0, 1)],
    "tail_gate_lanes": lambda sc, args, h: (len(h), sum(_requests_to_go(sc, args, lane) for lane in h))
    == (kernels._TAIL_LANES, kernels._TAIL_TODO),
    "tail_over_lanes": lambda sc, args, h: h == [],
    "tail_gate_todo": lambda sc, args, h: [_requests_to_go(sc, args, lane) for lane in h] == [kernels._TAIL_TODO],
    "tail_over_todo": lambda sc, args, h: h == [],
}


@pytest.mark.parametrize("case", sorted(TAIL_HANDOFFS))
def test_tail_cases_reach_their_handoff(case, monkeypatch):
    """Each tail case of LANE_CASES hands the scalar tail what its name says,
    so test_lanes_match_run_sessions checks the tail on that state."""
    sc, args = _lane_case(case)
    handed = _handoffs(monkeypatch, sc, args, _replication_seeds(1))
    assert TAIL_HANDOFFS[case](sc, args, handed), handed


def test_typical_urban_evaluations_reach_the_tail(monkeypatch):
    """At least half of these one-replication urban evaluations (20 lanes,
    16 of 30 today) end in the scalar tail, so its gate is not dead code."""
    sc = preset("urban")
    configs = [human_expert_config(sc), VdtpConfig(4096, 4, 3.0), VdtpConfig(65536, 8, 6.0)]
    reached = 0
    for config in configs:
        args = _kernel_args(config, sc)
        for seed in range(10):
            reached += bool(_handoffs(monkeypatch, sc, args, [seed]))
    assert reached >= len(configs) * 10 // 2


def _clean_yield(b, loss, up_mean, down_mean):
    """A lane's expected clean advance over a block of width b, summed term by term."""
    up_share = 1.0 if math.isinf(up_mean) else up_mean / (up_mean + down_mean)
    p = (1.0 - loss) ** 2
    return up_share * sum(p**j for j in range(1, b + 1))


@pytest.mark.parametrize("target", [0.0, 1.0, 3.5, 20.0, 1e9, math.inf])
def test_clean_run_min_is_the_narrowest_block_that_pays(target, monkeypatch):
    """The closed form gives the narrowest width a search over every width
    finds, on lossless, lossy and hopeless channels, up or switching; a
    target no block of at most _CLEAN_RUN_CELLS cells reaches shuts blocks,
    and a target of 0 opens them at every width."""
    monkeypatch.setattr(kernels, "_CLEAN_RUN_YIELD", target)
    widths = range(1, kernels._CLEAN_RUN_CELLS + 1)
    for loss in (0.0, 0.004, 0.01, 0.03, 0.2, 0.95, 1.0):
        for up_mean, down_mean in ((40.0, 2.0), (12.0, 3.0), (math.inf, 2.0), (0.006, 0.003)):
            want = next((b for b in widths if _clean_yield(b, loss, up_mean, down_mean) >= target), math.inf)
            assert kernels._clean_run_min(loss, up_mean, down_mean) == want, (loss, up_mean)


def test_gate_decisions(monkeypatch):
    """The urban presets start blocks at 256 lanes, where campaign_urban's
    128-byte lanes live on them (5x slower without). Highway's lanes break
    their clean runs sooner, so its gate is narrower; yet a few long highway
    lanes still take blocks, which a gate on the expected length of a clean
    run alone would refuse them."""
    assert [_gate_lanes(name) for name in ("urban", "urban_a2", "urban_a3")] == [256] * 3
    assert _gate_lanes("highway") < 256
    for sessions in (1, 2, 3):
        sc = dataclasses.replace(preset("highway"), sessions=sessions)
        args = _kernel_args((128, 44, 3.4), sc)
        assert _block_widths(monkeypatch, lambda: kernels.run_lanes(sessions, *args, _replication_seeds(1)))


@pytest.mark.parametrize("channel", ["urban", "highway"])
def test_blocks_start_at_the_gate_width(channel, monkeypatch):
    """At one replication the gate cases of LANE_CASES and MIXED_LANE_CASES
    run a block at the gate's width, and one lane above it none at that
    width: blocks start there only once lanes leave."""
    lanes = _gate_lanes(channel)
    seeds = _replication_seeds(1)
    for over in (0, 1):
        sc, args = _lane_case(f"gate_{lanes + over}_lanes")
        assert sc.sessions == lanes + over and sc.name == channel
        single = _block_widths(monkeypatch, lambda: kernels.run_lanes(sc.sessions, *args, seeds))
        sc, rows, scene, row_seeds = _mixed_case(f"gate_{lanes + over}_rows", 1)
        assert len(rows) == lanes + over and sc.name == channel
        mixed = _block_widths(monkeypatch, lambda: _run_mixed(sc, rows, scene, row_seeds))
        for widths in (single, mixed):
            assert widths and max(widths) <= lanes
            assert over or widths[0] == lanes


def test_counter_draws_match_mix64_steps():
    """Draw j of the splitmix64 stream from `seed` is mix(seed + j * gamma mod
    2^64), including seeds near 2^64 - 1, where the sum wraps."""
    gamma = int(kernels._GOLDEN)
    top = 2**64 - 1
    rng = np.random.default_rng(7)
    seeds = [0, 1, top, top - 1, top - gamma + 1, top - gamma, top - gamma - 1]
    seeds += [int(s) for s in rng.integers(0, 2**64, 50, dtype=np.uint64)]
    draws = 12
    for seed, row in zip(seeds, kernels._session_seeds(seeds, draws).tolist()):
        state = kernels.U64(seed)
        for j in range(draws):
            state, z = kernels._mix64(state)
            assert row[j] == int(z)


def test_pass_threshold_splits_words_like_u01():
    """The lane kernel's pass test on a mixed word is the scalar kernel's
    _u01(z) < succ_p, on the words either side of every boundary: the last
    and first word of each 2^11-word run around ceil(succ_p * 2^53) * 2^11."""
    rng = np.random.default_rng(3)
    # rng.random() gives multiples of 2^-53, on which ceil and floor agree;
    # thirds of them and small probabilities are not
    probs = [0.0, 1.0, 0.5, 0.996, 0.97, 1.0 - 0.95, 0.1, 1 / 3, 2.0**-60, 1.0 - 2.0**-53]
    for succ_p in probs + list(rng.random(200) / 3):
        k = math.ceil(succ_p * 2**53)
        words = sorted({(w << 11) | low for w in (k - 1, k, k + 1) if 0 <= w < 2**53 for low in (0, 2**11 - 1)})
        passed = kernels._pass_threshold(succ_p)(np.array(words, np.uint64))
        assert passed.tolist() == [kernels._u01(kernels.U64(z)) < succ_p for z in words]
    # the edges: nothing passes at 0, everything at 1 (where k * 2^11 = 2^64),
    # only the top word run fails at 1 - 2^-53, only the first run passes at 2^-60
    top = 2**64 - 1
    edges = {
        0.0: ([0, top], [False, False]),
        1.0: ([0, top - 2**11, top], [True, True, True]),
        1.0 - 2.0**-53: ([top - 2**11, top - 2**11 + 1, top], [True, False, False]),
        2.0**-60: ([0, 2**11 - 1, 2**11, top], [True, True, False, False]),
    }
    for succ_p, (words, want) in edges.items():
        assert kernels._pass_threshold(succ_p)(np.array(words, np.uint64)).tolist() == want
        assert [kernels._u01(kernels.U64(z)) < succ_p for z in words] == want


def test_dwells_round_like_the_scalar_kernel():
    """Dwell times are session_kernel's -mean * math.log(1 - u), to the bit.
    A vectorised np.log rounds differently on about 0.35 % of inputs; a switch
    time one ulp off almost never changes an outcome, so only this shows it."""
    rng = np.random.default_rng(11)
    u = rng.random(20_000)
    up = rng.random(20_000) < 0.8
    want = [-(12.0 if lu else 3.0) * math.log(1.0 - x) for lu, x in zip(up.tolist(), u.tolist())]
    assert kernels._dwells(up, u, 12.0, 3.0).tolist() == want


def test_clean_run_times_add_in_scalar_order():
    """A block's times are the scalar kernel's sums to the bit: each row adds
    left to right, (((t0 + tx_req) + prop) + tx_rep[todo - j]) + prop, one
    attempt after the other, reading its reply times from its own slice of
    the shared table. Other groupings round differently on these inputs, so
    a change in how np.add.accumulate adds shows here."""
    rng = np.random.default_rng(18)
    width, b = 9, 40
    t = rng.random(width) * 10.0 ** rng.integers(-2, 4, width)
    todo = rng.integers(1, 70, width)
    tx_req, prop = np.array(rng.random() * 1e-4), np.array(rng.random() * 3e-3)
    # two configurations' slices of 70 entries each
    flat = np.concatenate([rng.random(70) * 10.0 ** rng.integers(-4, 0, 70) for _ in range(2)])
    off = rng.choice([0, 70], width)
    template = kernels._block_template(tx_req, prop, b)
    times = kernels._clean_run_times(t, off + todo, template, flat, b).tolist()
    regrouped = 0
    for row, t0, to_go, start in zip(times, t.tolist(), todo.tolist(), off.tolist()):
        for j in range(min(b, to_go)):
            assert row[4 * j] == t0
            req_arr = t0 + float(tx_req) + float(prop)
            rep_arr = req_arr + float(flat[start + to_go - j]) + float(prop)
            assert (row[4 * j + 2], row[4 * j + 4]) == (req_arr, rep_arr)
            regrouped += t0 + (float(tx_req) + float(prop)) != req_arr
            t0 = rep_arr
    assert regrouped > 0
    assert 0 in off and 70 in off


def test_clean_run_stops_before_a_reply_on_a_switch():
    """The scalar kernel flips the link before any packet arriving at or after
    the switch time, so an attempt whose reply lands exactly on the switch is
    not clean; one landing an ulp earlier is. A lane that is down or has no
    attempts left does not move; one that moves gets its own budget back.
    Each lane reads its own slice of the reply table and keeps its own
    timeout: the last lane's attempts take 2 * 2.1 ms + 5 ms = 9.2 ms on its
    slice, over its 9 ms timeout, so it does not move, where the first
    slice's 6.2 ms would have been in time.

    The switch test runs only when some lane's last reply reaches its switch.
    Two more blocks skip the timeout test, as calls that no reply can miss do:
    in the first, only lane 3's last reply reaches its switch, landing on it,
    and the switch test opens and stops that lane one attempt short; in the
    second its switch is an ulp later, so no last reply reaches one, and every
    lane moves the whole block."""
    tx_req, prop = np.array(1e-4), np.array(2e-3)
    flat = np.concatenate([np.full(60, 2e-3), np.full(60, 5e-3)])
    off = np.array([0, 0, 60, 0, 60])
    timeout = np.array([1.0, 1.0, 1.0, 1.0, 0.009])
    seeds = [7, 2**64 - 1, 12345, 99, 5]
    gamma = int(kernels._GOLDEN)
    lanes = dict(
        state=np.array(seeds, np.uint64),
        up=np.array([True, True, False, True, True]),
        t_switch=np.full(5, math.inf),
        t=np.linspace(0.5, 40.0, 5),
        todo=np.full(5, 50),
        left=np.array([2, 2, 2, 0, 2]),
    )
    template = kernels._block_template(tx_req, prop, 50)
    times = kernels._clean_run_times(lanes["t"], off + lanes["todo"], template, flat, 50)
    lanes["t_switch"][0] = times[0, 4 * 6]  # attempt 5's reply
    lanes["t_switch"][1] = np.nextafter(times[1, 4 * 6], math.inf)
    budget = np.array([8, 9, 8, 8, 4])
    kernels._clean_run(**lanes, budget=budget, template=template, flat=flat, off=off,
                       timeout_s=timeout, passes=kernels._pass_threshold(1.0), b_min=4)
    m = [5, 6, 0, 0, 0]
    assert lanes["todo"].tolist() == [50 - k for k in m]
    assert lanes["t"].tolist() == [times[i, 4 * k] for i, k in enumerate(m)]
    assert lanes["state"].tolist() == [(s + 2 * k * gamma) % 2**64 for s, k in zip(seeds, m)]
    assert lanes["left"].tolist() == [8, 9, 2, 0, 2]
    # the 9 ms lane may get a late reply, so its call keeps the timeout test
    assert not kernels._never_late(1e-4, 2e-3, flat, np.full(5, 58), budget, timeout)

    b = 20
    t0 = np.linspace(0.5, 40.0, 5)
    times = kernels._clean_run_times(t0, off + b, template, flat, b)
    for switch, moved in ((times[3, 4 * b], b - 1), (np.nextafter(times[3, 4 * b], math.inf), b)):
        lanes = dict(state=np.array(seeds, np.uint64), up=np.ones(5, np.bool_), t_switch=np.full(5, math.inf),
                     t=t0.copy(), todo=np.full(5, b), left=np.full(5, 2))
        lanes["t_switch"][3] = switch
        assert (times[:, 4 * b] >= lanes["t_switch"]).tolist() == [False, False, False, moved < b, False]
        kernels._clean_run(**lanes, budget=budget, template=template, flat=flat, off=off,
                           timeout_s=None, passes=kernels._pass_threshold(1.0), b_min=4)
        m = [b, b, b, moved, b]
        assert lanes["todo"].tolist() == [b - k for k in m]
        assert lanes["t"].tolist() == [times[i, 4 * k] for i, k in enumerate(m)]
        assert lanes["state"].tolist() == [(s + 2 * k * gamma) % 2**64 for s, k in zip(seeds, m)]


def test_both_passed_reads_pairs_like_an_and():
    """A block reads "both packets passed" from adjacent bools as one uint16
    compare; it must be passed[:, 0::2] & passed[:, 1::2], for each of the four
    pair values, on random arrays, at one lane and one attempt, and when
    written into a block's strided clean-prefix view, whose last column it
    leaves alone."""
    for first, second in itertools.product((False, True), repeat=2):
        out = np.empty((1, 1), np.bool_)
        kernels._both_passed(np.array([[first, second]]), out)
        assert out.tolist() == [[first and second]]
    rng = np.random.default_rng(27)
    for width, b in ((1, 1), (1, 7), (3, 1), (20, 51), (9, 113)):
        passed = rng.random((width, 2 * b)) < 0.7
        clean = np.zeros((width, b + 1), np.bool_)
        kernels._both_passed(passed, clean[:, :b])
        assert clean[:, :b].tolist() == (passed[:, 0::2] & passed[:, 1::2]).tolist()
        assert not clean[:, b].any()


class _FactTaken(Exception):
    """Raised by a spy once run_lanes has worked out its late-reply fact."""


def _never_late_on(monkeypatch, sessions, args, seeds):
    """What run_lanes' _never_late says on a call; the spy stops the call
    there, before any lane moves."""
    fact, said = kernels._never_late, []

    def spy(*fact_args):
        said.append(fact(*fact_args))
        raise _FactTaken

    with monkeypatch.context() as patch:
        patch.setattr(kernels, "_never_late", spy)
        with pytest.raises(_FactTaken):
            kernels.run_lanes(sessions, *args, seeds)
    return said.pop()


def test_never_late_says_which_calls_may_get_a_late_reply(monkeypatch):
    """A call may get a late reply when an exchange can outlast its shortest
    timeout: a 512 KiB reply against 0.5 s (late_replies, and its row in
    chunks_budgets_timeouts), and 2048-byte replies against a timeout of one
    handshake (reply_at_timeout). An exchange exactly as long as the timeout
    still counts as late, since the rounding slack leaves no room for it. The
    switch storm's 41.4 ms exchanges and budgets_and_timeouts' 18.1 ms ones
    fit in their 50 ms timeouts. Every preset's expert configuration and
    every corner of DEFAULT_BOUNDS is never late, since no exchange takes
    more than 0.77 s and no timeout is shorter than 1 s."""
    one = _replication_seeds(1)

    def lane_case(case):
        sc, args = _lane_case(case)
        return _never_late_on(monkeypatch, sc.sessions, args, one)

    def mixed_case(case):
        sc, rows, scene, seeds = _mixed_case(case, 1)
        return _never_late_on(monkeypatch, sc.sessions, (*(list(c) for c in zip(*rows)), *scene), seeds)

    assert not lane_case("late_replies") and not lane_case("reply_at_timeout")
    assert not mixed_case("chunks_budgets_timeouts")
    assert lane_case("switch_storm") and mixed_case("budgets_and_timeouts")
    flat, n, budget = np.array([0.004, 0.01]), np.array([3]), np.array([2])
    assert not kernels._never_late(0.001, 0.002, flat, n, budget, np.array([0.015]))
    assert kernels._never_late(0.001, 0.002, flat, n, budget, np.array([0.015 + 2.0**-40]))
    corners = list(itertools.product(*zip(DEFAULT_BOUNDS.lower, DEFAULT_BOUNDS.upper)))
    for name in preset_names():
        sc = preset(name)
        for config in [human_expert_config(sc)] + [VdtpConfig(*corner) for corner in corners]:
            assert _never_late_on(monkeypatch, sc.sessions, _kernel_args(config, sc), one), (name, config)


def test_a_packet_arriving_on_a_switch_crosses_it():
    """The link switches before any packet arriving at or after the switch
    time, so a lane whose request (lane 0) or reply (lane 2) arrives exactly
    on its switch crosses it, and one arriving an ulp earlier (lanes 1 and
    3) does not. Each lane ends where the scalar order puts it: switches
    up to the request, the request word, switches up to the reply, the
    reply word, each switch loop in _cross."""
    up_mean, down_mean = 0.5, 0.25
    before = float(np.nextafter(1.0, -math.inf))
    req_arr = np.array([1.0, before, 0.5, 0.5])
    rep_arr = np.array([1.5, before, 1.0, before])
    seeds = [7, 2**64 - 1, 12345, 2**63]
    state, up, t_switch = np.array(seeds, np.uint64), np.ones(4, np.bool_), np.ones(4)
    rep_ok = kernels._attempt(state, up, t_switch, req_arr, rep_arr, kernels._pass_threshold(1.0), up_mean, down_mean)
    want = []
    for seed, req, rep in zip(seeds, req_arr.tolist(), rep_arr.tolist()):
        s, lu, ts = kernels.U64(seed), True, 1.0
        if ts <= req:
            s, lu, ts = kernels._cross(s, lu, ts, req, up_mean, down_mean)
        s, _ = kernels._mix64(s)
        ok = lu
        if ok:
            if ts <= rep:
                s, lu, ts = kernels._cross(s, lu, ts, rep, up_mean, down_mean)
            s, _ = kernels._mix64(s)
            ok = lu
        want.append((int(s), lu, ts, ok))
    assert list(zip(state.tolist(), up.tolist(), t_switch.tolist(), rep_ok.tolist())) == want
    assert (t_switch > 1.0).tolist() == [True, False, True, False]
    assert kernels._cross(kernels.U64(7), True, 1.0, before, up_mean, down_mean) == (kernels.U64(7), True, 1.0)
    assert kernels._cross(kernels.U64(7), True, 1.0, 1.0, up_mean, down_mean)[2] > 1.0


def test_cross_keeps_state_words_above_2_63():
    """Half of all state words are at or above 2^63, past the int64 range.
    Each lane here crosses exactly one switch (due at its arrival, the next
    one after it), so its word must come back as w + gamma mod 2^64 to the
    bit, from _cross and in the uint64 array _cross_switches writes."""
    gamma = int(kernels._GOLDEN)
    words = [2**63, 2**63 + 1, 2**64 - 1, 2**64 - gamma - 1, 2**64 - 2**11]
    width = len(words)
    state, up, t_switch = np.array(words, np.uint64), np.ones(width, np.bool_), np.ones(width)
    kernels._cross_switches(np.ones(width, np.bool_), np.ones(width), state, up, t_switch, 0.5, 0.25)
    want = [(w + gamma) % 2**64 for w in words]
    assert state.dtype == np.uint64 and state.tolist() == want
    assert [int(kernels._cross(kernels.U64(w), True, 1.0, 1.0, 0.5, 0.25)[0]) for w in words] == want
    assert not up.any() and (t_switch > 1.0).all()
    assert min(want) < 2**63 <= max(want)


def test_cross_draws_each_switch_like_mix64_and_u01():
    """_cross writes its draw out inline; crossing k switches must be k steps
    of _mix64 and _u01, in Python ints as the pure path runs it and in
    np.uint64 as numba compiles it, from states at and above 2^63 and next to
    2^64 - 1, where a missing reduction modulo 2^64 would show."""
    gamma, top = int(kernels._GOLDEN), 2**64 - 1
    words = [2**63, 2**63 + 1, top, top - 1, top - gamma, top - gamma + 1, 2**64 - 2**11, 0, 12345]
    up_mean, down_mean = 0.5, 0.25
    crossed = set()
    with np.errstate(over="ignore"):
        for u64 in (np.uint64, int):
            mix, u01, cross = _helpers_over(u64)
            for w, link_up, arrival in itertools.product(words, (True, False), (0.5, 1.0, 1.6, 3.0, 8.0)):
                s, lu, ts, k = u64(w), link_up, 1.0, 0
                while ts <= arrival:
                    lu = not lu
                    s, z = mix(s)
                    ts += -(up_mean if lu else down_mean) * math.log(1.0 - u01(z))
                    k += 1
                crossed.add(k)
                got = cross(u64(w), link_up, 1.0, arrival, up_mean, down_mean)
                assert type(got[0]) is type(s)
                assert (int(got[0]), got[1], got[2]) == (int(s), lu, ts) and int(s) == (w + k * gamma) % 2**64
                if u64 is kernels.U64:
                    assert kernels._cross(u64(w), link_up, 1.0, arrival, up_mean, down_mean) == got
    assert {0, 1, 2} <= crossed and max(crossed) >= 10


def test_failed_requests_get_no_reply():
    """A lane whose request fails, by its draw or by a down link, draws no
    reply word and crosses no switch before its reply would land, so it
    reads the request's word again under the same link: _attempt's replies
    are the scalar kernel's without masking them by the requests. Lane 0's
    request word sits exactly at the pass threshold; lanes 1 and 2 are down,
    lane 2 and lane 3 (failed by its draw) with a switch due before their
    reply. 300 more lanes mix both failures with passes."""
    gamma = int(kernels._GOLDEN)
    at_threshold = 2**63 + 5
    word = int(kernels._mix64(kernels.U64(at_threshold))[1])
    succ_p = (word >> 11) * 2.0**-53
    assert not kernels._u01(kernels.U64(word)) < succ_p
    rng = np.random.default_rng(26)
    width = 304
    seeds = [at_threshold, 2**64 - 1, 2**63, 0] + [int(s) for s in rng.integers(0, 2**64, width - 4, dtype=np.uint64)]
    up = np.array([True, False, False, True] + (rng.random(width - 4) < 0.7).tolist())
    req_arr = np.full(width, 1.0)
    rep_arr = np.full(width, 2.0)
    t_switch = np.array([math.inf, math.inf, 1.5, 1.5] + rng.uniform(0.5, 3.0, width - 4).tolist())
    args = (req_arr, rep_arr, kernels._pass_threshold(succ_p), 0.5, 0.25)

    state = np.array(seeds, np.uint64)
    start_up, start_switch = up.copy(), t_switch.copy()
    rep_ok = kernels._attempt(state, up, t_switch, *args)
    req_ok, want = [], []
    for seed, lu, ts, req, rep in zip(seeds, start_up.tolist(), start_switch.tolist(), req_arr.tolist(), rep_arr.tolist()):
        s = kernels.U64(seed)
        if ts <= req:
            s, lu, ts = kernels._cross(s, lu, ts, req, 0.5, 0.25)
        s, z = kernels._mix64(s)
        ok = lu and kernels._u01(z) < succ_p
        req_ok.append(ok)
        if ok:
            if ts <= rep:
                s, lu, ts = kernels._cross(s, lu, ts, rep, 0.5, 0.25)
            s, z = kernels._mix64(s)
            ok = lu and kernels._u01(z) < succ_p
        want.append((int(s), lu, ts, ok))
    assert list(zip(state.tolist(), up.tolist(), t_switch.tolist(), rep_ok.tolist())) == want
    assert (rep_ok & np.array(req_ok)).tolist() == rep_ok.tolist()
    assert req_ok[:4] == [False] * 4
    assert state[:4].tolist() == [(s + gamma) % 2**64 for s in seeds[:4]]
    assert (up[:4].tolist(), t_switch[:4].tolist()) == ([True, False, False, True], [math.inf, math.inf, 1.5, 1.5])
    failed = ~np.array(req_ok[4:])
    assert (failed & start_up[4:]).any() and (failed & ~start_up[4:]).any() and rep_ok[4:].any()


def _switch_calls(monkeypatch, run):
    """Run `run()` with a spy on kernels._cross; returns the number of
    switches each _cross call crossed, from how far it moved the state (each
    switch is one gamma)."""
    cross = kernels._cross
    inverse = pow(int(kernels._GOLDEN), -1, 2**64)
    crossed = []

    def cross_spy(state, *rest):
        out = cross(state, *rest)
        crossed.append((int(out[0]) - int(state)) * inverse % 2**64)
        return out

    monkeypatch.setattr(kernels, "_cross", cross_spy)
    run()
    monkeypatch.undo()
    return crossed


@pytest.mark.skipif(kernels.NUMBA_ENABLED, reason="the compiled protocol calls the compiled _cross")
@pytest.mark.parametrize("case", ["highway_expert", "switch_storm", "always_up", "lossless"])
def test_both_protocols_switch_the_link_in_cross(case, monkeypatch):
    """session_kernel and run_lanes both cross every switch in _cross; on a
    link that is always up neither reaches it. The storm crosses several
    switches in one call."""
    sc, args = _lane_case(case)
    seeds = _replication_seeds(1)
    words = kernels._session_seeds(seeds, sc.sessions).ravel().tolist()
    no_events = np.empty((0, 4))
    scalar = _switch_calls(
        monkeypatch, lambda: [kernels.session_kernel(*args, kernels.U64(z), no_events) for z in words]
    )
    lanes = _switch_calls(monkeypatch, lambda: kernels.run_lanes(sc.sessions, *args, seeds))
    switching = not math.isinf(sc.link_up_mean_s)
    assert (bool(scalar), bool(lanes)) == (switching,) * 2
    assert sum(scalar) == sum(lanes)
    if case == "switch_storm":
        assert max(lanes) >= 5


def test_session_seeds_are_what_run_sessions_hands_the_kernel(monkeypatch):
    seen = []

    def record(*args):
        seen.append(int(args[10]))
        return 0.0, 0, 0, False, 0

    sc = preset("urban")
    args = _kernel_args(human_expert_config(sc), sc)
    seeds = [0, 2**64 - 1, 2**64 - int(kernels._GOLDEN), 12345]
    monkeypatch.setattr(kernels, "session_kernel", record)
    scalar = getattr(kernels.run_sessions, "py_func", kernels.run_sessions)
    for seed in seeds:
        scalar(7, *args, kernels.U64(seed))
    monkeypatch.undo()
    assert kernels._session_seeds(seeds, 7).ravel().tolist() == seen


@pytest.mark.skipif(kernels.NUMBA_ENABLED, reason="the compiled branch runs one replication per call")
@pytest.mark.parametrize("case", sorted(MIXED_LANE_CASES))
def test_batches_sliced_at_the_lane_cap_match_one_call(case, monkeypatch):
    """simulate_batch hands the lane kernel slices of at most _LANE_CAP
    lanes; with the cap at one replication's sessions every replication is
    its own call, and the outcomes are the one call's, bit for bit."""
    sc, rows, _, seeds = _mixed_case(case, 3)
    configs, seed_lists = rows[::3], [seeds[i : i + 3].tolist() for i in range(0, len(seeds), 3)]
    calls = []
    run_lanes = transfer.run_lanes

    def spy(n_sessions, *args):
        calls.append(args[-1].size * n_sessions)
        return run_lanes(n_sessions, *args)

    monkeypatch.setattr(transfer, "run_lanes", spy)
    whole = simulate_batch(configs, sc, seed_lists)
    assert calls == [len(seeds) * sc.sessions]
    calls.clear()
    monkeypatch.setattr(transfer, "_LANE_CAP", sc.sessions)
    assert simulate_batch(configs, sc, seed_lists) == whole
    assert calls == [sc.sessions] * len(seeds)


def test_replication_of_several_seeds():
    sc = preset("urban")
    cfg = human_expert_config(sc)
    seeds = [5, 6, np.uint64(2**64 - 1)]
    many = simulate_replication(cfg, sc, seeds)
    assert isinstance(many, tuple) and len(many) == 3
    assert list(many) == [simulate_replication(cfg, sc, s) for s in seeds]
    assert many.sessions == 3 * sc.sessions
    assert many.refused_sessions == sum(o.refused_sessions for o in many)
    with pytest.raises(ValueError, match="at least one seed"):
        simulate_replication(cfg, sc, [])
    with pytest.raises(ValueError, match="one seed list per configuration: 1 for 2"):
        simulate_batch([cfg, cfg], sc, [seeds])
    refusing = simulate_replication((25600, 2, 1.0), total_loss(), [1, 2])
    assert (refusing.sessions, refusing.refused_sessions) == (4, 4)


@pytest.mark.parametrize("width", [20, 200])
def test_outcomes_match_row_by_row_reductions(width):
    """_outcomes reduces whole (replications, sessions) arrays; each outcome
    must carry the bits the 1-D reductions of its own row give."""
    rng = np.random.default_rng(width)
    rows = 2000
    times = rng.exponential(1.0, (rows, width)) * 10.0 ** rng.integers(-3, 4, (rows, width))
    lost = rng.integers(0, 40, (rows, width)).astype(float)
    # row sums up to 2^62, past 2^53, where the int-to-float conversion rounds
    delivered = rng.integers(0, 2**62 // width, (rows, width)) >> rng.integers(0, 60, (rows, 1))
    refused = rng.random((rows, width)) < rng.random((rows, 1)) ** 3
    refused[:2] = [[True], [False]]
    got = _outcomes(times, lost, delivered, refused)
    assert len(got) == rows
    for r, outcome in enumerate(got):
        n_refused = int(np.count_nonzero(refused[r]))
        want = TransferOutcome(
            transmission_time_s=float(np.mean(times[r])),
            lost_packets=float(np.mean(lost[r])),
            data_transferred_kbytes=float(np.sum(delivered[r])) / 1024.0,
            completed_sessions=width - n_refused,
            refused_sessions=n_refused,
        )
        assert repr(outcome) == repr(want)


# --- scenario plumbing -------------------------------------------------------


def test_preset_names_and_aliases():
    assert set(preset_names()) == {"urban", "urban_a1", "urban_a2", "urban_a3", "highway"}
    assert preset("Urban") == preset("urban")
    assert preset("urban_a1").name == preset("urban").name
    assert preset("UrbanA2") == preset("urban-a2")
    with pytest.raises(ValueError):
        preset("rural")


def test_scaled_presets_only_differ_in_density():
    a2 = preset("urban_a2")
    assert a2.density_scale > 0
    assert a2.effective_loss() > preset("urban").effective_loss()


def test_effective_loss_cap():
    sc = Scenario(name="x", base_loss_prob=0.5, density_scale=10.0)
    assert sc.effective_loss() == 0.95
    assert Scenario(name="x", base_loss_prob=1.0).effective_loss() == 1.0
    assert Scenario(name="x", base_loss_prob=0.004, density_scale=0.5).effective_loss() == pytest.approx(0.006)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(name="x", base_loss_prob=1.5)
    with pytest.raises(ValueError):
        Scenario(name="x", bandwidth_bps=0)
    with pytest.raises(ValueError):
        Scenario(name="x", link_up_mean_s=0.0)
    with pytest.raises(ValueError):
        Scenario(name="x", sessions=0)
    for field, value in [("header_bytes", -1), ("propagation_delay_s", -0.001), ("file_size_bytes", 0),
                         ("density_scale", -0.5)]:
        with pytest.raises(ValueError, match=field):
            Scenario(name="x", **{field: value})


def test_load_scenario_round_trip(tmp_path):
    path = tmp_path / "custom.cfg"
    path.write_text(
        "[scenario]\n"
        "name = custom\n"
        "bandwidth_bps = 1e6\n"
        "propagation_delay_s = 0.01\n"
        "base_loss_prob = 0.1\n"
        "link_up_mean_s = inf\n"
        "sessions = 5\n"
        "file_size_bytes = 2048\n"
    )
    sc = load_scenario(path)
    assert sc.name == "custom"
    assert sc.bandwidth_bps == 1e6
    assert math.isinf(sc.link_up_mean_s)
    assert sc.sessions == 5
    with pytest.raises(ValueError):
        load_scenario(tmp_path / "missing.cfg")
    sectionless = tmp_path / "sectionless.cfg"
    sectionless.write_text("[channel]\nsessions = 5\n")
    with pytest.raises(ValueError, match=r"sectionless\.cfg: missing \[scenario\] section"):
        load_scenario(sectionless)


def test_load_scenario_refuses_unknown_key(tmp_path):
    path = tmp_path / "typo.cfg"
    path.write_text("[scenario]\nbase_loss_probability = 0.3\nlink_up_mean = 5\n")
    with pytest.raises(ValueError, match=r"typo\.cfg \[scenario\]: unknown key 'base_loss_probability'"):
        load_scenario(path)


def test_human_expert_configs():
    assert human_expert_config("urban") == VdtpConfig(25600.0, 8.0, 8.0)
    assert human_expert_config("urban_a3") == VdtpConfig(25600.0, 8.0, 8.0)
    assert human_expert_config(preset("highway")) == VdtpConfig(25600.0, 10.0, 10.0)


# --- hypothesis properties ---------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    chunk=st.integers(min_value=128, max_value=524288),
    attempts=st.integers(min_value=1, max_value=50),
    timeout=st.floats(min_value=1.0, max_value=10.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_session_invariants_under_loss(chunk, attempts, timeout, seed):
    sc = Scenario(
        name="prop",
        base_loss_prob=0.2,
        link_up_mean_s=30.0,
        link_down_mean_s=3.0,
        sessions=1,
        file_size_bytes=65536,
    )
    res = simulate_session_events((chunk, attempts, timeout), sc, seed=seed)[1]
    assert res.time_s >= 0.0
    assert res.lost_packets >= 0
    assert 0 <= res.delivered_bytes <= 65536
    if res.refused:
        assert res.delivered_bytes < 65536
    else:
        assert res.delivered_bytes == 65536


@settings(max_examples=60, deadline=None)
@given(
    chunk=st.integers(min_value=128, max_value=32768),
    attempts=st.integers(min_value=1, max_value=12),
    timeout=st.floats(min_value=0.005, max_value=5.0),
    loss=st.floats(min_value=0.0, max_value=0.2),
    sessions=st.integers(min_value=1, max_value=8),
    seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=3),
)
def test_lanes_match_run_sessions_on_drawn_configs(chunk, attempts, timeout, loss, sessions, seeds):
    sc = Scenario(
        name="prop",
        base_loss_prob=loss,
        link_up_mean_s=12.0,
        link_down_mean_s=3.0,
        sessions=sessions,
        file_size_bytes=65536,
    )
    args = _kernel_args((chunk, attempts, timeout), sc)
    lanes = kernels.run_lanes(sessions, *args, seeds)
    for r, seed in enumerate(seeds):
        assert _rows(a[r] for a in lanes) == _rows(run_sessions(sessions, *args, seed))


# --- jit/pure parity ---------------------------------------------------------


_PARITY_SNIPPET = """
import numpy as np
from vdtptune.sim import kernels
from vdtptune.sim.scenario import preset, human_expert_config
from vdtptune.sim.transfer import _kernel_args
print("numba", kernels.NUMBA_ENABLED)
for name in ("urban", "highway"):
    sc = preset(name)
    args = _kernel_args(human_expert_config(sc), sc)
    t, lost, dv, rf = kernels.run_sessions(40, *args, 777)
    for row in zip(t, lost, dv, rf):
        print(repr(float(row[0])), int(row[1]), int(row[2]), bool(row[3]))
"""


def _run_parity(disable: str) -> str:
    env = dict(os.environ, VDTPTUNE_DISABLE_NUMBA=disable)
    proc = subprocess.run(
        [sys.executable, "-c", _PARITY_SNIPPET], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# sha256 of the snippet's session rows (its output after the "numba" line).
PARITY_DIGEST = "e7e35651760b5787a220b09506d093ad01d3decb8af7da52c2a5e142a40e3c70"


def _parity_digest(disable: str) -> tuple:
    header, *rows = _run_parity(disable).splitlines()
    return header, hashlib.sha256("\n".join(rows).encode()).hexdigest()


def test_jit_and_pure_paths_bit_identical():
    """Both kernel paths must reproduce the pinned rows; this is the pure half,
    which runs everywhere (the compiled half is test_jit_path_matches_parity_pin)."""
    assert _parity_digest("1") == ("numba False", PARITY_DIGEST)


@pytest.mark.skipif(importlib.util.find_spec("numba") is None, reason="numba is not installed")
def test_jit_path_matches_parity_pin():
    assert _parity_digest("0") == ("numba True", PARITY_DIGEST)


# The compiled path's source run as Python: tests/jitstandin holds a numba
# whose njit compiles nothing, so this runs everywhere, but it shows neither
# that numba compiles the kernels nor how fast they run. The snippet prints,
# as one JSON object, the rows of the golden lanes (argv[1]), the outcomes of
# a few MIXED_LANE_CASES (argv[2]) through simulate_batch, the fitnesses of a
# mixed batch through make_objective, one evaluate, and the sha256 of a small
# urban campaign's CSVs; all but the first reach simulate_batch's compiled
# branch, the last three with the kernel seeds fitness derives.
_STANDIN_SNIPPET = """
import dataclasses, hashlib, json, sys, tempfile
from pathlib import Path
import numpy as np
from vdtptune import fitness
from vdtptune.harness import campaign, reports
from vdtptune.sim import kernels
from vdtptune.sim.scenario import preset, human_expert_config
from vdtptune.sim.transfer import _kernel_args, simulate_batch
from vdtptune.space import VdtpConfig
out = {"numba": kernels.NUMBA_ENABLED, "u64": kernels.U64.__name__, "lanes": {}, "mixed": {}}
for lane, (name, config) in json.loads(sys.argv[1]).items():
    sc = preset(name)
    arrays = kernels.run_sessions(40, *_kernel_args(config or human_expert_config(sc), sc), np.uint64(777))
    out["lanes"][lane] = [[repr(float(t)), int(l), int(d), bool(r)] for t, l, d, r in zip(*arrays)]
for case, (name, rows, change) in json.loads(sys.argv[2]).items():
    sc = dataclasses.replace(preset(name), **change)
    configs = [VdtpConfig(*row) if row else human_expert_config(sc) for row in rows]
    seeds = [[np.uint64(2**63 + 7 * r + j) for j in range(2)] for r in range(len(rows))]
    out["mixed"][case] = [repr(o) for outcomes in simulate_batch(configs, sc, seeds) for o in outcomes]
sc = preset("urban")
batch = [human_expert_config(sc).as_array(), [4096.0, 4.0, 3.0], [2048.0, 1.0, 4.0], [65536.0, 3.0, 0.5]]
objective = fitness.make_objective(sc, 2, np.random.SeedSequence(2**127 + 5, pool_size=8))
(fits,) = fitness.resolve([objective(np.array(batch))])
out["batch"] = [repr(f) for f in fits]
out["evaluate"] = repr(fitness.evaluate(VdtpConfig(65536.0, 8.0, 6.0), preset("highway"), n=2, seed=9))
with tempfile.TemporaryDirectory() as tmp:
    config = campaign.ExperimentConfig(runs=1, max_evaluations=10, replications=1, output_dir=tmp)
    paths = reports.write_campaign_outputs(campaign.run_campaign(config), Path(tmp) / "out")
    csvs = sorted(p for p in paths if p.suffix == ".csv")
    digest = hashlib.sha256(b"".join(p.name.encode() + p.read_bytes() for p in csvs)).hexdigest()
    out["campaign"] = [[p.name for p in csvs], digest]
print(json.dumps(out))
"""
_STANDIN_MIXED = ("chunk128_next_to_experts", "budgets_and_timeouts", "refused_in_tail")


def _run_standin_snippet(standin: bool) -> dict:
    paths = [os.path.dirname(os.path.dirname(vdtptune.__file__)), os.environ.get("PYTHONPATH", "")]
    if standin:
        paths.insert(0, os.path.join(os.path.dirname(__file__), "jitstandin"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), VDTPTUNE_DISABLE_NUMBA="0" if standin else "1")
    lanes = json.dumps({lane: spec for lane, (spec, _) in GOLDEN_SESSIONS.items()})
    mixed = json.dumps({case: MIXED_LANE_CASES[case] for case in _STANDIN_MIXED})
    proc = subprocess.run(
        [sys.executable, "-c", _STANDIN_SNIPPET, lanes, mixed], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_compiled_source_matches_pure_path_under_a_standin():
    compiled, pure = _run_standin_snippet(True), _run_standin_snippet(False)
    assert (compiled.pop("numba"), compiled.pop("u64")) == (True, "uint64")
    assert (pure.pop("numba"), pure.pop("u64")) == (False, "int")
    assert compiled == pure
    assert sorted(compiled["mixed"]) == sorted(_STANDIN_MIXED)
    assert len(compiled["batch"]) == 4 and all(float(f) > 0.0 for f in compiled["batch"])
    assert len(compiled["campaign"][0]) == 9  # summary, tests, ranks, qos and 5 traces
    lanes = compiled["lanes"]
    for lane, (_, digest) in GOLDEN_SESSIONS.items():
        rows = "\n".join(f"{t} {l} {d} {int(r)}" for t, l, d, r in lanes[lane])
        assert hashlib.sha256(rows.encode()).hexdigest() == digest, lane
    parity = "\n".join(f"{t} {l} {d} {r}" for lane in ("urban_expert", "highway_expert") for t, l, d, r in lanes[lane])
    assert hashlib.sha256(parity.encode()).hexdigest() == PARITY_DIGEST


# --- calibration bands -------------------------------------------------------


def test_urban_expert_band_quick():
    sc = preset("urban")
    times = [simulate_session_events(human_expert_config(sc), sc, seed=s)[1].time_s for s in range(200)]
    assert 2.0 <= np.mean(times) <= 9.0


def test_highway_expert_band_quick():
    sc = preset("highway")
    times = [simulate_session_events(human_expert_config(sc), sc, seed=s)[1].time_s for s in range(200)]
    assert 15.0 <= np.mean(times) <= 70.0
