"""Canonical per-strain scenario wiring, and the Table-2/Table-4 rows that
set its results beside the published values, shared by the CLI and tests.

The reproduction scenarios start the wild population at the wild-only
equilibrium computed from the parameters (not the published field-density
override of 7030 per hectare, which is available as an explicit option;
the two disagree by about 3.5% and the computed value is the one the
benchmark release programs are consistent with).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from . import ga
from .ga import FitnessReport, GAConfig, ReleasePlan, best_feasible
from .impulsive import (
    DailyImpulseSequence,
    NoFeasibleRuleError,
    daily_impulses,
    evaluate_schedule,
    select_rule,
)
from .model import equilibria, secure_region
from .ocp import ContinuousControl, OCPConfig, OCPSolution
from .params import PRESET_CAP_L, StrainParams
from .reference import CONTINUOUS, GA, IMPULSIVE
from .sim import SimOptions

@dataclass(frozen=True)
class Scenario:
    """Resolved inputs for one pipeline run."""

    params: StrainParams
    initial_wild: float
    cap_l: float
    frequency: int
    seed: int

    def __post_init__(self) -> None:
        if self.initial_wild < 0:
            raise ValueError(f"initial_wild must be nonnegative, not {self.initial_wild:g}")
        if self.cap_l <= 0:
            raise ValueError(f"cap_l must be positive, not {self.cap_l:g}")
        if self.frequency < 1:
            raise ValueError(f"frequency must be at least 1, not {self.frequency}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, not {self.seed}")

    @property
    def target(self) -> tuple[float, float]:
        return secure_region(equilibria(self.params))


def build_scenario(
    params: StrainParams,
    initial_wild: Optional[float] = None,
    cap_l: Optional[float] = None,
    frequency: int = 1,
    seed: int = 0,
) -> Scenario:
    """The default cap is the preset's L: a strain that is not a preset passes ``cap_l``."""
    return Scenario(
        params=params,
        initial_wild=(
            initial_wild if initial_wild is not None else equilibria(params).ex.state.x
        ),
        cap_l=cap_l if cap_l is not None else PRESET_CAP_L[params.name],
        frequency=frequency,
        seed=seed,
    )


def ocp_config(scenario: Scenario, **overrides) -> OCPConfig:
    """The scenario's OCP: from its initial wild population to one individual
    below the saddle's x, under its cap, with ``overrides`` laid over that."""
    fields = dict(cap_l=scenario.cap_l, initial_x=scenario.initial_wild,
                  terminal_x=scenario.target[0] - 1.0)
    fields.update(overrides)
    return OCPConfig(**fields)


@dataclass(frozen=True)
class GACell:
    """How one strain/frequency cell of the discrete search is run.

    ``floor_search`` cells shrink the horizon with the epsilon loop until
    feasibility is lost (their published release counts sit at the
    feasibility floor); the others run at the fixed published horizon.
    """

    horizon: int
    floor_search: bool
    epsilon_0: int


GA_CELLS = {
    ("wmel", 1): GACell(horizon=14, floor_search=True, epsilon_0=21),
    ("wmel", 7): GACell(horizon=14, floor_search=True, epsilon_0=28),
    ("wmel", 14): GACell(horizon=14, floor_search=True, epsilon_0=28),
    ("wmelpop", 1): GACell(horizon=65, floor_search=False, epsilon_0=65),
    ("wmelpop", 7): GACell(horizon=63, floor_search=False, epsilon_0=63),
    ("wmelpop", 14): GACell(horizon=70, floor_search=False, epsilon_0=70),
}


def ga_config(scenario: Scenario, **overrides) -> GAConfig:
    fields = dict(cap_l=scenario.cap_l, block_p=scenario.frequency, rng_seed=scenario.seed)
    fields.update(overrides)
    return GAConfig(**fields)


def ga_cell(strain_name: str, frequency: int) -> GACell:
    key = (strain_name, frequency)
    if key in GA_CELLS:
        return GA_CELLS[key]
    # No published cell: run a plain fixed-horizon search over ~4 lifespans.
    horizon = frequency * max(1, math.ceil(60.0 / frequency))
    return GACell(horizon=horizon, floor_search=False, epsilon_0=horizon)


def epsilon_config(cell: GACell, frequency: int) -> int:
    """The epsilon loop's start horizon, ``cell.epsilon_0``, for
    ``perfbench``, which passes ``frequency`` (unused)."""
    return cell.epsilon_0


def best_ga_plan(
    params: StrainParams, frequency: int, seeds: Iterable[int], **ga_overrides
) -> Optional[tuple[ReleasePlan, FitnessReport, int, Scenario]]:
    """Best feasible (plan, report, horizon, scenario) over GA seeds, or None.

    Each seed runs its cell's search, with ``ga_overrides`` passed to
    ``ga_config``: the epsilon loop for floor-search cells, one GA run at
    the published horizon otherwise.  ``best_feasible`` picks the winner:
    the lowest J, the earlier seed on ties.
    """
    cell = ga_cell(params.name, frequency)
    runs = []
    for seed in seeds:
        scenario = build_scenario(params, frequency=frequency, seed=seed)
        cfg = ga_config(scenario, **ga_overrides)
        args = (scenario.params, scenario.target, scenario.initial_wild)
        # Looked up in ``ga`` at each call, so a wrapped search sees it.
        if cell.floor_search:
            res = ga.epsilon_loop(cell.epsilon_0, cfg, *args)
        else:
            res = ga.run_ga(cfg, cell.horizon, *args)
        runs.append((res, scenario))
    win = best_feasible(res for res, _ in runs)
    if win is None:
        return None
    scenario = next(sc for res, sc in runs if res is win)
    return win.best, win.report, win.best.horizon_t, scenario


def impulsive_cells(
    scenario: Scenario, control: ContinuousControl, periods: Iterable[int],
    opts: SimOptions = SimOptions(),
) -> dict[int, Optional[tuple]]:
    """Table-2 cells of a continuous control: (sequence, report) per period,
    each schedule simulated under ``opts``.

    Period 1 is the daily sequence, reported whether or not it enters the
    secure region; any other period is ``select_rule``'s pick, or None
    when neither rule enters.
    """
    params, target, initial_wild = scenario.params, scenario.target, scenario.initial_wild
    cells = {}
    for m in periods:
        if m == 1:
            daily = daily_impulses(control)
            cells[m] = daily, evaluate_schedule(
                params, daily.schedule(), target, initial_wild, opts
            )
        else:
            try:
                cells[m] = select_rule(params, control, m, target, initial_wild, opts)
            except NoFeasibleRuleError:
                cells[m] = None
    return cells


@dataclass(frozen=True)
class Indicator:
    """One reproduced number beside the published value it is compared with."""

    label: str
    value: float
    reference: float

    @property
    def deviation(self) -> float:
        """Signed relative deviation, (value - reference) / reference."""
        return (self.value - self.reference) / self.reference


def table2(
    scenario: Scenario, sol: OCPSolution
) -> tuple[list[Indicator], list[str], DailyImpulseSequence]:
    """Table-2 rows of a preset's continuous optimum, the labels of the
    cells (daily, m=7, m=14) whose schedule never enters the secure region,
    and the daily sequence the rows were built from.  A daily cell that
    misses keeps its rows; a periodic one has no rule."""
    name = scenario.params.name
    ref = CONTINUOUS[name]
    rows = [
        Indicator(f"{name} t_star", sol.control.t_star, ref["t_star"]),
        Indicator(f"{name} continuous total", sol.total_released, ref["total"]),
    ]
    missing = []
    cells = impulsive_cells(scenario, sol.control, (1, 7, 14))
    for m, cell in cells.items():
        label = f"{name} daily" if m == 1 else f"{name} m={m}"
        if cell is None or not cell[1].feasible:
            missing.append(label)
        if cell is None:
            continue
        seq, rep = cell
        count, total = IMPULSIVE[name][m]
        rule = "" if m == 1 else f" ({seq.rule})"
        rows.append(Indicator(f"{label} releases{rule}", rep.num_releases, count))
        rows.append(Indicator(f"{label} total", rep.overall_size, total))
    return rows, missing, cells[1][0]


def table4(
    params: StrainParams, frequency: int, seeds: Iterable[int], **ga_overrides
) -> tuple[list[Indicator], Optional[tuple]]:
    """Table-4 rows (release count, total J) of ``best_ga_plan`` for a
    preset's cell, and that best; no rows and None when no seed finds a
    feasible plan."""
    best = best_ga_plan(params, frequency, seeds, **ga_overrides)
    if best is None:
        return [], None
    plan, report, _, _ = best
    count, j_value = GA[params.name][frequency]
    label = f"{params.name} p={frequency}"
    return [
        Indicator(f"{label} releases", plan.num_releases, count),
        Indicator(f"{label} total J", report.j_value, j_value),
    ], best
