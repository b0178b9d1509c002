"""The benchmark's own tests: the reference model agrees with the program, and
every check rejects a deliberately perturbed output.

Run from the repository root: python3 -m pytest vdtpbench -q
"""

from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"), str(Path(__file__).resolve().parent)]

from vdtptune import fitness, optimizers  # noqa: E402
from vdtptune.harness import benchfuncs, campaign, reports  # noqa: E402
from vdtptune.sim import kernels, transfer  # noqa: E402
from vdtptune.sim.scenario import Scenario, preset  # noqa: E402
from vdtptune.space import VdtpConfig  # noqa: E402

import calibration  # noqa: E402
import checks  # noqa: E402
import refmodel  # noqa: E402

LANES = [
    ("urban", (25600, 8, 8.0), 40),
    ("highway", (25600, 10, 10.0), 40),
    ("highway", (4000, 2, 1.0), 20),  # refusals
    ("urban", (524288, 1, 1.0), 60),
    ("always_up", (65536, 3, 2.0), 10),  # infinite up time: no channel draws
    ("total_loss", (65536, 3, 2.0), 5),
]


def scenario(name: str) -> Scenario:
    if name == "always_up":
        return Scenario(name="always_up", base_loss_prob=0.01)
    if name == "total_loss":
        return Scenario(name="total_loss", base_loss_prob=1.0, link_up_mean_s=5.0)
    return preset(name)


@pytest.mark.parametrize("name,config,sessions", LANES)
def test_model_matches_run_sessions(name, config, sessions):
    lane = refmodel.lane_for(*config, scenario(name))
    arrays = kernels.run_sessions(sessions, *lane, np.uint64(2024))
    assert checks.check_sessions(arrays, lane, 2024) == []


@pytest.mark.parametrize("name,config,sessions", LANES)
def test_model_matches_event_replay(name, config, sessions):
    sc = scenario(name)
    lane = refmodel.lane_for(*config, sc)
    for seed in range(3):
        events, result = transfer.simulate_session_events(config, sc, seed, session_id=7)
        assert checks.check_events(events, result, lane, seed, 7) == []


def test_model_counts_draws():
    lane = refmodel.lane_for(524288, 5, 5.0, Scenario(name="up", base_loss_prob=0.0))
    # always up, lossless: handshake plus two chunks, one draw per packet
    assert refmodel.session(lane, 1).draws == 2 * 3


def urban_arrays(sessions=20, seed=99):
    lane = refmodel.lane_for(25600, 8, 8.0, preset("urban"))
    return [np.array(a) for a in kernels.run_sessions(sessions, *lane, np.uint64(seed))], lane


def test_session_check_rejects_perturbed_time():
    arrays, lane = urban_arrays()
    arrays[0][3] = np.nextafter(arrays[0][3], np.inf)
    assert checks.check_sessions(arrays, lane, 99)


def test_session_check_rejects_perturbed_lost_count():
    arrays, lane = urban_arrays()
    arrays[1][5] += 1
    assert checks.check_sessions(arrays, lane, 99)


def test_outcome_check_rejects_perturbed_aggregate():
    arrays, lane = urban_arrays()
    outcome = transfer.simulate_replication((25600, 8, 8.0), preset("urban"), np.uint64(99))
    assert checks.check_outcome(outcome, arrays) == []
    bent = dataclasses.replace(outcome, lost_packets=outcome.lost_packets + 0.05)
    assert checks.check_outcome(bent, arrays)
    assert checks.check_outcome_bounds(outcome, lane) == []
    short = dataclasses.replace(outcome, data_transferred_kbytes=outcome.data_transferred_kbytes - 1.0)
    assert checks.check_outcome_bounds(short, lane)


def test_event_checks_reject_perturbed_entry(tmp_path):
    sc = preset("highway")
    lane = refmodel.lane_for(25600, 10, 10.0, sc)
    events, result = transfer.simulate_session_events((25600, 10, 10.0), sc, 5)
    path = tmp_path / "events.csv"
    transfer.write_event_trace(path, events)
    assert checks.check_events(events, result, lane, 5, 0) == []
    assert checks.check_event_csv(path, events) == []
    t, sid, kind, ptype, attempt = events[4]
    bent = events[:4] + [(t + 1e-9, sid, kind, ptype, attempt)] + events[5:]
    assert checks.check_events(bent, result, lane, 5, 0)
    assert checks.check_event_csv(path, bent)


def test_fitness_check_rejects_perturbed_fitness():
    sc = preset("urban")
    report = fitness.evaluate(VdtpConfig(524288.0, 10.0, 5.0), sc, n=3, seed=4)
    assert checks.check_fitness(report, sc.sessions) == []
    bent = dataclasses.replace(report, fitness=math.nextafter(report.fitness, math.inf))
    assert checks.check_fitness(bent, sc.sessions)


def test_trace_and_sphere_checks_reject_perturbed_records():
    bounds = benchfuncs.bench_bounds(3)
    sphere = benchfuncs.get_function("sphere")
    rec = optimizers.run(optimizers.OptimizerParams("de"), sphere, bounds, seed=3, max_evaluations=100)
    assert checks.check_sphere(rec, 100, -5.0, 5.0) == []
    rising = rec.trace[:10] + ((11, rec.trace[10][1] + 1.0),) + rec.trace[11:]
    assert checks.check_trace(dataclasses.replace(rec, trace=rising), 100)
    assert checks.check_trace(rec, 101)
    bent = dataclasses.replace(rec, best_fitness=rec.best_fitness * 1.5, trace=rec.trace[:-1] + ((100, rec.best_fitness * 1.5),))
    assert checks.check_sphere(bent, 100, -5.0, 5.0)


@pytest.fixture(scope="module")
def stub_campaign(tmp_path_factory):
    """A cheap campaign (analytic objective) whose statistics files are written."""
    out = tmp_path_factory.mktemp("campaign")

    def factory(scenario, n, seed):
        rng = np.random.default_rng(seed)
        noise = rng.random(1000)
        calls = iter(range(1000))
        return lambda x: float(x[0] / 524288 + x[1] / 250 + x[2] / 10 + noise[next(calls)])

    config = campaign.ExperimentConfig(runs=6, max_evaluations=20, replications=1, output_dir=str(out))
    result = campaign.run_campaign(config, objective_factory=factory)
    reports.write_csv(out / "tests.csv", reports.TESTS_HEADER, reports.tests_rows(result))
    reports.write_csv(out / "ranks.csv", reports.RANKS_HEADER, reports.ranks_rows(result))
    reports.write_csv(out / "summary.csv", reports.SUMMARY_HEADER, reports.summary_rows(result))
    samples = {a: result.fitness_samples(a) for a in config.algorithm_names}
    return out, samples


def _perturb_cell(path, row, col, value):
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_statistics_checks_pass_and_reject_perturbed_p_value(stub_campaign, tmp_path):
    out, samples = stub_campaign
    assert checks.check_tests_csv(out / "tests.csv", samples) == []
    bent = tmp_path / "tests.csv"
    bent.write_text((out / "tests.csv").read_text())
    p = float(bent.read_text().splitlines()[1].split(",")[3])
    _perturb_cell(bent, 1, 3, repr(math.nextafter(p, 0.0)))
    assert checks.check_tests_csv(bent, samples)


def test_rank_and_summary_checks_reject_perturbed_values(stub_campaign, tmp_path):
    out, samples = stub_campaign
    assert checks.check_ranks_csv(out / "ranks.csv", samples) == []
    assert checks.check_summary_csv(out / "summary.csv", samples) == []
    for name, col in (("ranks.csv", 1), ("summary.csv", 4)):
        bent = tmp_path / name
        bent.write_text((out / name).read_text())
        _perturb_cell(bent, 2, col, "0.5")
        check = checks.check_ranks_csv if name == "ranks.csv" else checks.check_summary_csv
        assert check(bent, samples)


def test_brute_force_signed_rank_matches_small_case():
    # one negative difference of rank 1 among four: W+ = 9, two of the 16
    # sign patterns are at least as extreme on each side
    stat, p, n = checks.signed_rank_p([2.0, 3.0, 4.0, 5.0], [1.0, 1.0, 1.0, 5.5])
    assert (stat, n) == (1.0, 4) and p == 4 / 16


def test_calibration_samples_once_per_interval_of_program_time(monkeypatch):
    readings = iter([0.0, 0.004, 1.0, 1.001, 2.0, 2.002])
    monkeypatch.setattr(calibration.time, "perf_counter", lambda: next(readings))
    monkeypatch.setattr(calibration, "task", lambda: 0)
    cal = calibration.Calibrator()
    cal.after(1.0)  # a long call: one sample
    cal.after(calibration.EVERY_S / 2)  # short calls pool until EVERY_S
    assert len(cal.samples) == 1
    cal.after(calibration.EVERY_S / 2)
    cal.after(calibration.EVERY_S)
    assert cal.samples == pytest.approx([0.004, 0.001, 0.002])
    assert cal.mean() == pytest.approx(0.007 / 3)
    assert cal.scale() == pytest.approx(calibration.REFERENCE_S / cal.mean())
