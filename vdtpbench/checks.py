"""Output checks, each computed apart from the program.

Every check returns a list of problems; an empty list means the output
passed. The test file feeds each check a deliberately perturbed output to
show that it can fail.
"""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np

import refmodel

# relative slack for comparing a kernel time with the lossless time, which the
# model sums in another order
_LOSSLESS_SLACK = 1e-12


def fitness_of(outcomes) -> float:
    """(time + lost) / log10(per-session kB + 2), averaged over replications."""
    terms = [
        (o.transmission_time_s + o.lost_packets)
        / math.log10(o.data_transferred_kbytes / (o.completed_sessions + o.refused_sessions) + 2.0)
        for o in outcomes
    ]
    return sum(terms) / len(terms)


def check_fitness(report, sessions: int) -> list:
    problems = []
    want = fitness_of(report.replications)
    if report.fitness != want:
        problems.append(f"fitness {report.fitness!r} != {want!r} recomputed from replications")
    for o in report.replications:
        if o.completed_sessions + o.refused_sessions != sessions:
            problems.append(f"replication covers {o.completed_sessions + o.refused_sessions} of {sessions} sessions")
    return problems


def check_sessions(arrays, lane: refmodel.Lane, kernel_seed: int) -> list:
    """Per-session arrays of run_sessions against the model, bit for bit,
    plus the properties every completed session must have."""
    times, lost, delivered, refused = arrays
    ref = refmodel.replication(lane, kernel_seed, len(times))
    problems = []
    floor = refmodel.lossless_time(lane) * (1.0 - _LOSSLESS_SLACK)
    for i, r in enumerate(ref):
        got = (float(times[i]), int(lost[i]), int(delivered[i]), bool(refused[i]))
        if got != r[:4]:
            problems.append(f"session {i}: program {got} != model {tuple(r[:4])}")
        if not got[3] and (got[2] != lane.file_size or got[0] < floor):
            problems.append(f"session {i}: completed with {got[2]} B in {got[0]!r} s (lossless {floor!r} s)")
    return problems


def check_outcome(outcome, arrays) -> list:
    """A replication's aggregate against the per-session arrays behind it."""
    times, lost, delivered, refused = (np.asarray(a) for a in arrays)
    want = (float(np.mean(times)), float(np.mean(lost)), float(np.sum(delivered)) / 1024.0,
            int(np.count_nonzero(~refused)), int(np.count_nonzero(refused)))
    got = (outcome.transmission_time_s, outcome.lost_packets, outcome.data_transferred_kbytes,
           outcome.completed_sessions, outcome.refused_sessions)
    return [] if got == want else [f"replication aggregate {got} != {want}"]


def check_outcome_bounds(outcome, lane: refmodel.Lane) -> list:
    """What any replication must satisfy: completed sessions delivered the
    whole file, refused ones less; without refusals the mean time is at least
    the lossless stop-and-wait time."""
    total = outcome.data_transferred_kbytes * 1024.0
    sessions = outcome.completed_sessions + outcome.refused_sessions
    problems = []
    if not outcome.completed_sessions * lane.file_size <= total <= sessions * lane.file_size:
        problems.append(f"{total} B delivered by {outcome.completed_sessions} completed of {sessions} sessions")
    floor = refmodel.lossless_time(lane) * (1.0 - _LOSSLESS_SLACK)
    if outcome.refused_sessions == 0 and outcome.transmission_time_s < floor:
        problems.append(f"mean time {outcome.transmission_time_s!r} s below the lossless {floor!r} s")
    return problems


def check_events(events, result, lane: refmodel.Lane, seed: int, session_id: int) -> list:
    """An event replay against the model's packet log and outcome."""
    packets = []
    ref = refmodel.session(lane, seed, packets)
    problems = []
    if tuple(result) != ref[:4]:
        problems.append(f"event replay outcome {tuple(result)} != model {tuple(ref[:4])}")
    sends = [e for e in events if e[2] == "send"]
    want_sends = [(p.sent, session_id, "send", p.kind, p.attempt) for p in packets]
    if sends != want_sends:
        problems.append("send events differ from the model's transmissions")
    arrivals = [e for e in events if e[2] in ("deliver", "drop")]
    want_arrivals = [(p.arrived, session_id, "deliver" if p.ok else "drop", p.kind, p.attempt) for p in packets]
    if arrivals != want_arrivals:
        problems.append("deliver/drop events differ from the model's arrivals")
    if sum(1 for e in events if e[2] == "drop") != ref.lost:
        problems.append("drop events do not add up to the lost count")
    last = events[-1] if events else None
    if last is None or last[2] != ("refused" if ref.refused else "complete") or last[0] != ref.time_s:
        problems.append(f"terminal event {last} does not match the model")
    return problems


def check_event_csv(path, events) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    parsed = [(float(t), int(s), k, p, int(a)) for t, s, k, p, a in rows]
    want = [(float(e[0]), e[1], e[2], e[3], e[4]) for e in events]
    return [] if parsed == want else ["event trace CSV does not parse back to the replayed events"]


def check_trace(record, budget: int) -> list:
    """Budget-long, never rising, ends at the run's best fitness."""
    trace = record.trace
    problems = []
    if record.evaluations != budget or len(trace) != budget:
        problems.append(f"{record.algorithm}: {len(trace)} trace entries / {record.evaluations} evaluations, budget {budget}")
    if [i for i, _ in trace] != list(range(1, len(trace) + 1)):
        problems.append(f"{record.algorithm}: trace indices are not 1..{len(trace)}")
    if any(b > a for (_, a), (_, b) in zip(trace, trace[1:])):
        problems.append(f"{record.algorithm}: trace rises")
    if not trace or trace[-1][1] != record.best_fitness:
        problems.append(f"{record.algorithm}: trace does not end at the best fitness")
    return problems


def sphere_value(x) -> float:
    return math.fsum(float(v) * float(v) for v in x)


def check_sphere(record, budget: int, low: float, high: float) -> list:
    problems = check_trace(record, budget)
    x = [float(v) for v in record.best_position]
    want = sphere_value(x)
    # the program sums three products with numpy; allow its rounding only
    if abs(record.best_fitness - want) > 4 * math.ulp(want) + 1e-300:
        problems.append(f"{record.algorithm}: best {record.best_fitness!r} != x.x {want!r}")
    if not all(low <= v <= high for v in x):
        problems.append(f"{record.algorithm}: best position {x} outside the box")
    return problems


# --- campaign statistics -----------------------------------------------------


def tie_ranks(values) -> list:
    """Ascending ranks from 1, ties sharing their average rank."""
    return [sum(1 for w in values if w < v) + (sum(1 for w in values if w == v) + 1) / 2.0 for v in values]


def signed_rank_p(a, b):
    """Two-sided signed-rank p by enumerating every sign assignment."""
    diffs = [x - y for x, y in zip(a, b) if x != y]
    if not diffs:
        return 0.0, 1.0, 0
    ranks = tie_ranks([abs(d) for d in diffs])
    w_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)
    w_minus = sum(r for r, d in zip(ranks, diffs) if d < 0)
    low = high = 0
    for signs in itertools.product((0, 1), repeat=len(ranks)):
        w = sum(r for r, s in zip(ranks, signs) if s)
        low += w <= w_plus
        high += w >= w_plus
    total = 2 ** len(ranks)
    return min(w_plus, w_minus), min(2 * min(low, high), total) / total, len(ranks)


def _read(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_tests_csv(path, samples: dict) -> list:
    _, rows = _read(path)
    names = list(samples)
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    if [(r[0], r[1]) for r in rows] != pairs:
        return [f"tests.csv pairs {[(r[0], r[1]) for r in rows]} != {pairs}"]
    problems = []
    for row in rows:
        stat, p, n = signed_rank_p(samples[row[0]], samples[row[1]])
        got = (float(row[2]), float(row[3]), int(row[4]), row[5])
        want = (stat, p, n, "true" if p < 0.05 else "false")
        if got != want:
            problems.append(f"tests.csv {row[0]} vs {row[1]}: {got} != enumeration {want}")
    return problems


def check_ranks_csv(path, samples: dict) -> list:
    _, rows = _read(path)
    names = list(samples)
    runs = len(samples[names[0]])
    k = len(names)
    blocks = [tie_ranks([samples[a][i] for a in names]) for i in range(runs)]
    sums = [sum(block[j] for block in blocks) for j in range(k)]
    chi2 = 12.0 / (runs * k * (k + 1)) * sum(s * s for s in sums) - 3.0 * runs * (k + 1)
    problems = []
    if [r[0] for r in rows] != names:
        return [f"ranks.csv algorithms {[r[0] for r in rows]} != {names}"]
    for j, row in enumerate(rows):
        if float(row[1]) != sums[j] / runs or int(row[2]) != runs:
            problems.append(f"ranks.csv {row[0]}: rank {row[1]} != {sums[j] / runs!r}")
        if not math.isclose(float(row[3]), chi2, rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"ranks.csv statistic {row[3]} != {chi2!r}")
    return problems


def check_trace_csv(path, trace) -> list:
    _, rows = _read(path)
    parsed = [(int(i), float(f)) for i, f in rows]
    return [] if parsed == list(trace) else [f"{path.name} does not parse back to the run's trace"]


def check_summary_csv(path, samples: dict) -> list:
    _, rows = _read(path)
    problems = []
    for row in rows:
        values = sorted(samples[row[0]])
        n = len(values)
        mid = values[n // 2] if n % 2 else (values[n // 2 - 1] + values[n // 2]) / 2.0
        exact = (float(row[3]), float(row[4]), float(row[5]), int(row[6]))
        if exact != (values[0], mid, values[-1], n):
            problems.append(f"summary.csv {row[0]}: min/median/max/n {exact} wrong")
        if not math.isclose(float(row[1]), math.fsum(values) / n, rel_tol=1e-12):
            problems.append(f"summary.csv {row[0]}: mean {row[1]} wrong")
    return problems


def check_qos_csv(path, expected: list) -> list:
    """`expected` holds (label, chunk, attempts, timeout, FitnessReport) rows."""
    _, rows = _read(path)
    if [r[0] for r in rows] != [e[0] for e in expected]:
        return [f"qos.csv labels {[r[0] for r in rows]} wrong"]
    problems = []
    for row, (label, chunk, attempts, timeout, report) in zip(rows, expected):
        outs = report.replications
        k = len(outs)
        want = (chunk, attempts, timeout, fitness_of(outs),
                sum(o.transmission_time_s for o in outs) / k,
                sum(o.lost_packets for o in outs) / k,
                sum(o.data_transferred_kbytes for o in outs) / k,
                sum(o.refused_sessions for o in outs) / k)
        got = (int(row[1]), int(row[2]), float(row[3]), float(row[4]), float(row[5]),
               float(row[6]), float(row[7]), float(row[9]))
        if got != want:
            problems.append(f"qos.csv {label}: {got} != {want}")
    return problems
