"""Layer probes of the traced run: fixed kernel lanes, event replay, and the
compiled-versus-pure fingerprint check."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import time

import numpy as np

from vdtptune.sim import kernels, transfer
from vdtptune.sim.scenario import human_expert_config, preset

import checks
import refmodel
from workloads import quantize, round_rng

# name -> (scenario, (chunk B, attempts, timeout s) or None for the expert
# config, sessions per probe)
LANES = {
    "urban_expert": ("urban", None, 400),
    "highway_expert": ("highway", None, 400),
    "urban_chunk128": ("urban", (128, 250, 10.0), 3),
    "urban_chunk512k": ("urban", (524288, 250, 10.0), 2000),
}
EVENT_SESSIONS = 20


def lane(name: str) -> refmodel.Lane:
    scenario_name, config, _ = LANES[name]
    scenario = preset(scenario_name)
    if config is None:
        config = quantize(human_expert_config(scenario))
    return refmodel.lane_for(*config, scenario)


def kernel_lanes(seed: int) -> tuple:
    """run_sessions on each lane, timed; the model checks every session and
    counts the draws behind it (including each session's seed draw)."""
    metrics, problems = {}, []
    kernel_s = draws = 0
    for i, (name, (_, _, sessions)) in enumerate(LANES.items()):
        ln = lane(name)
        ks = int(round_rng(seed, 5, i).integers(0, 2**63))
        start = time.perf_counter()
        arrays = kernels.run_sessions(sessions, *ln, np.uint64(ks))
        seconds = time.perf_counter() - start
        lane_draws = sessions + sum(s.draws for s in refmodel.replication(ln, ks, sessions))
        problems += [f"{name}: {p}" for p in checks.check_sessions(arrays, ln, ks)]
        metrics[f"kernels.sessions_per_s.{name}"] = (sessions / seconds, "1/s")
        metrics[f"kernels.draws_per_session.{name}"] = (lane_draws / sessions, "count")
        kernel_s += seconds
        draws += lane_draws
    metrics["kernels.ns_per_draw"] = (kernel_s / draws * 1e9, "ns")
    return metrics, problems


def event_replay(seed: int, out_dir) -> tuple:
    """Highway expert sessions replayed with events, written, and checked."""
    scenario = preset("highway")
    config = human_expert_config(scenario)
    ln = lane("highway_expert")
    seeds = [int(s) for s in round_rng(seed, 6, 0).integers(0, 2**63, size=EVENT_SESSIONS)]
    replay_s = write_s = 0.0
    problems = []
    for sid, s in enumerate(seeds):
        path = out_dir / f"probe-events-{sid}.csv"
        start = time.perf_counter()
        events, outcome = transfer.simulate_session_events(config, scenario, s, session_id=sid)
        middle = time.perf_counter()
        transfer.write_event_trace(path, events)
        replay_s += middle - start
        write_s += time.perf_counter() - middle
        problems += checks.check_events(events, outcome, ln, s, sid) + checks.check_event_csv(path, events)
        path.unlink()
    metrics = {
        "transfer.events_sessions_per_s": (EVENT_SESSIONS / replay_s, "1/s"),
        "transfer.event_write_ms": (write_s / EVENT_SESSIONS * 1e3, "ms"),
    }
    return metrics, problems


def kernel_fingerprint(seed: int) -> list:
    """Sums over the expert lanes, as compared between compiled and pure runs."""
    out = []
    for i, name in enumerate(("urban_expert", "highway_expert")):
        times, lost, delivered, _ = kernels.run_sessions(200, *lane(name), np.uint64(seed + i))
        out.append([repr(float(times.sum())), int(lost.sum()), int(delivered.sum())])
    return out


def jit_vs_pure(seed: int, script: str) -> dict:
    """Compiled kernel against the pure-Python one, bit for bit.

    The pure path is chosen at import time, so it runs in a child process.
    """
    if not kernels.NUMBA_ENABLED:
        reason = ("numba is not installed" if importlib.util.find_spec("numba") is None
                  else "VDTPTUNE_DISABLE_NUMBA is set")
        return {"status": "skipped", "reason": reason + "; only the pure kernel can run"}
    env = dict(os.environ, VDTPTUNE_DISABLE_NUMBA="1")
    child = subprocess.run([sys.executable, script, "--kernel-fingerprint", "--seed", str(seed)],
                           env=env, capture_output=True, text=True, timeout=170, check=True)
    pure = json.loads(child.stdout.strip().splitlines()[-1])
    jit = kernel_fingerprint(seed)
    return {"status": "identical" if pure == jit else "MISMATCH", "jit": jit, "pure": pure}
