"""Campaign artifacts: deterministic CSV files and aligned text tables.

Five CSV files describe a campaign: per-run traces, the per-algorithm
summary, the pairwise signed-rank matrix, the Friedman ranking and the
QoS table for the best found configurations. Floats are written with
repr() so the files parse back to bit-identical values.
"""

from __future__ import annotations

import csv
from pathlib import Path

from ..fitness import evaluate
from ..sim.scenario import human_expert_config
from ..sim.transfer import effective_throughput
from ..space import quantize_for_protocol
from ..stats import mean
from .campaign import CampaignResult, qos_seed

__all__ = [
    "qos_row",
    "qos_rows",
    "read_csv",
    "render_qos",
    "render_ranks",
    "render_summary",
    "render_table",
    "render_tests",
    "trace_filename",
    "write_campaign_outputs",
    "write_csv",
    "write_trace_csv",
]


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    return rows[0], rows[1:]


def trace_filename(algorithm: str, run_index: int) -> str:
    return f"trace_{algorithm}_{run_index}.csv"


def write_trace_csv(path, trace) -> None:
    write_csv(path, ["evaluation_index", "best_fitness"], [(int(i), float(f)) for i, f in trace])


def _pair_better(result: CampaignResult, a: str, b: str) -> str:
    med_a = result.summaries[a].median
    med_b = result.summaries[b].median
    if med_a == med_b:
        return "tie"
    return a if med_a < med_b else b


def summary_rows(result: CampaignResult):
    for a in result.config.algorithm_names:
        s = result.summaries[a]
        yield (a, s.mean, s.std_dev, s.minimum, s.median, s.maximum, s.n)


def tests_rows(result: CampaignResult):
    for (a, b), t in result.tests.items():
        yield (a, b, t.statistic, t.p_value, t.n_effective, t.significant_at_05, t.exact, _pair_better(result, a, b))


def ranks_rows(result: CampaignResult):
    if result.friedman is None:
        return
    fr = result.friedman
    for a, rank in zip(result.config.algorithm_names, fr.mean_ranks):
        yield (a, rank, fr.blocks, fr.statistic)


def qos_row(label: str, config, scenario, n: int, seed) -> tuple:
    """One QoS table row: `config` as the protocol runs it, re-scored with n
    replications on `seed`, and its mean outcomes."""
    report = evaluate(config, scenario, n=n, seed=seed)
    outs = report.replications
    return (
        label,
        *quantize_for_protocol(config),
        report.fitness,
        mean(o.transmission_time_s for o in outs),
        mean(o.lost_packets for o in outs),
        mean(o.data_transferred_kbytes for o in outs),
        mean(effective_throughput(o) for o in outs),
        mean(o.refused_sessions for o in outs),
    )


def qos_rows(result: CampaignResult):
    """Table of best found configuration per algorithm plus the hand-tuned
    reference, each re-scored with fresh replications on a dedicated seed."""
    scenario = result.scenario
    n = result.config.replications
    seed = qos_seed(result.config.master_seed)
    entries = [("experts", human_expert_config(scenario))]
    entries += [(a, result.best_record(a).best_config) for a in result.config.algorithm_names]
    return [qos_row(label, config, scenario, n, seed) for label, config in entries]


QOS_HEADER = [
    "label",
    "chunk_bytes",
    "total_attempts",
    "retransmission_time_s",
    "fitness",
    "mean_time_s",
    "mean_lost_packets",
    "mean_data_kbytes",
    "throughput_kbytes_per_s",
    "mean_refused_sessions",
]

SUMMARY_HEADER = ["algorithm", "mean", "std_dev", "minimum", "median", "maximum", "n"]
TESTS_HEADER = ["alg_a", "alg_b", "statistic", "p_value", "n_effective", "significant", "exact", "better"]
RANKS_HEADER = ["algorithm", "mean_rank", "blocks", "statistic"]


def write_campaign_outputs(result: CampaignResult, out_dir) -> list:
    """Writes traces plus the four table CSVs; returns paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    for a in result.config.algorithm_names:
        for i, rec in enumerate(result.records[a]):
            path = out / trace_filename(a, i)
            write_trace_csv(path, rec.trace)
            written.append(path)

    path = out / "summary.csv"
    write_csv(path, SUMMARY_HEADER, summary_rows(result))
    written.append(path)

    path = out / "tests.csv"
    write_csv(path, TESTS_HEADER, tests_rows(result))
    written.append(path)

    path = out / "ranks.csv"
    write_csv(path, RANKS_HEADER, ranks_rows(result))
    written.append(path)

    path = out / "qos.csv"
    write_csv(path, QOS_HEADER, qos_rows(result))
    written.append(path)
    return written


# --- aligned text rendering --------------------------------------------------


def render_table(headers, rows) -> str:
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(cells):
        padded = [row[0].ljust(widths[0])] + [c.rjust(w) for c, w in zip(row[1:], widths[1:])]
        lines.append("  ".join(padded).rstrip())
        if r == 0:
            lines.append("-" * len(lines[0]))
    return "\n".join(lines)


def _f(x, nd=4) -> str:
    return f"{x:.{nd}f}"


def render_summary(result: CampaignResult) -> str:
    rows = [
        (a, _f(m), _f(s), _f(lo), _f(md), _f(hi), n)
        for a, m, s, lo, md, hi, n in summary_rows(result)
    ]
    return render_table(["algorithm", "mean", "std", "min", "median", "max", "n"], rows)


def render_tests(result: CampaignResult) -> str:
    """Lower-triangle matrix; the cell marks the row algorithm against the
    column one: ** better and significant, * better not significant,
    -- worse and significant, - worse not significant, = tied medians."""
    if result.config.runs < 2:
        return "(signed-rank tests need at least 2 runs)"
    names = list(result.config.algorithm_names)
    rows = []
    for i, a in enumerate(names[1:], start=1):
        row = [a]
        for b in names[:i]:
            t = result.tests[(b, a)]
            better = _pair_better(result, b, a)
            if better == "tie":
                mark = "="
            elif better == a:
                mark = "**" if t.significant_at_05 else "*"
            else:
                mark = "--" if t.significant_at_05 else "-"
            row.append(f"{mark} p={t.p_value:.4g}")
        rows.append(row + [""] * (len(names) - 1 - i))
    return render_table(["vs"] + names[:-1], rows)


def render_ranks(result: CampaignResult) -> str:
    if result.friedman is None:
        return "(friedman ranking needs at least 2 runs)"
    rows = sorted(ranks_rows(result), key=lambda r: r[1])
    out = render_table(
        ["algorithm", "mean_rank"], [(a, _f(r, 3)) for a, r, _, _ in rows]
    )
    fr = result.friedman
    return out + f"\nblocks={fr.blocks} chi2={fr.statistic:.4f}"


def render_qos(rows) -> str:
    shown = [
        (label, chunk, att, _f(to, 2), _f(fit), _f(t, 3), _f(lost, 2), _f(data, 1), _f(tp, 2), _f(refused, 2))
        for label, chunk, att, to, fit, t, lost, data, tp, refused in rows
    ]
    return render_table(
        ["config", "chunk_B", "attempts", "timeout_s", "fitness", "time_s", "lost", "data_kB", "kB_per_s", "refused"],
        shown,
    )
