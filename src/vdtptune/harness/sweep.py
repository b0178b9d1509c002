"""One-parameter-at-a-time tuning sweeps driven by a small grid file.

Grid format, one parameter per line, '#' comments allowed:

    w = 0.1 0.3 0.5 0.7 0.9
    population_size = 10 20 40

Each (parameter, value) pair is run `runs` times with all other knobs at
the algorithm defaults; the table reports mean best fitness per pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cfgfile import field_value
from ..optimizers import OptimizerParams
from ..stats import mean
from .campaign import ExperimentConfig, resolve_scenario, run_cells, run_seed
from .reports import render_table

__all__ = ["SweepResult", "parse_grid", "render_sweep", "run_sweep", "sweep_rows"]


@dataclass(frozen=True)
class GridLine:
    line_number: int
    param: str
    values: tuple


def parse_grid(text: str):
    """Grid lines from file text; errors name the offending line number."""
    grid = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"grid line {lineno}: expected 'param = v1 v2 ...', got {raw.strip()!r}")
        name, _, rest = line.partition("=")
        name = name.strip().lower()
        tokens = rest.split()
        if not tokens:
            raise ValueError(f"grid line {lineno}: no values for {name!r}")
        values = []
        for tok in tokens:
            try:
                values.append(field_value(OptimizerParams, name, tok, exclude=("algorithm",)))
            except ValueError as exc:
                raise ValueError(f"grid line {lineno}: {exc}") from exc
        grid.append(GridLine(lineno, name, tuple(values)))
    if not grid:
        raise ValueError("grid file lists no parameter combinations")
    return grid


def _validated_params(algorithm: str, line: GridLine):
    out = []
    for value in line.values:
        try:
            out.append(OptimizerParams(algorithm, **{line.param: value}))
        except ValueError as exc:
            raise ValueError(f"grid line {line.line_number}: {line.param}={value}: {exc}") from exc
    return out


@dataclass(frozen=True)
class SweepResult:
    algorithm: str
    scenario_name: str
    runs: int
    rows: tuple  # (param, value, mean_best_fitness)


def run_sweep(config: ExperimentConfig, grid, objective_factory=None) -> SweepResult:
    """All grid combinations for `config`'s one algorithm, each scored by the
    mean best fitness of `config.runs` seeded runs. Every combination sees the
    same run seeds. Knobs off the grid keep the algorithm defaults. Runs go
    through `run_cells`, one cell per (grid line, value index, run); lines
    count from 0 without comments and blank lines, and a repeated value or
    parameter keeps its own checkpoint."""
    (base,) = config.algorithms
    combos, cells = [], []
    for g, line in enumerate(grid):
        for j, (value, params) in enumerate(zip(line.values, _validated_params(base.algorithm, line))):
            combos.append((line.param, value))
            cells += [
                (f"{base.algorithm}_grid{g}_{j}_{i}", params, run_seed(config.master_seed, i))
                for i in range(config.runs)
            ]
    recs = iter(run_cells(config, cells, objective_factory))
    rows = tuple(
        (param, value, mean(next(recs).best_fitness for _ in range(config.runs))) for param, value in combos
    )
    return SweepResult(base.algorithm, resolve_scenario(config.scenario).name, config.runs, rows)


SWEEP_HEADER = ["parameter", "value", "mean_best_fitness", "runs", "scenario"]


def sweep_rows(result: SweepResult):
    for param, value, fitness in result.rows:
        yield (param, value, fitness, result.runs, result.scenario_name)


def render_sweep(result: SweepResult) -> str:
    """One text row per swept parameter, one column per candidate value."""
    by_param = {}
    for param, value, fitness in result.rows:
        by_param.setdefault(param, []).append((value, fitness))
    width = max(len(vals) for vals in by_param.values())
    headers = ["parameter"] + [f"value_{i + 1}" for i in range(width)]
    rows = [
        [param] + [f"{v}:{f:.4f}" for v, f in vals] + [""] * (width - len(vals))
        for param, vals in by_param.items()
    ]
    return render_table(headers, rows)
