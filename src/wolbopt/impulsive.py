"""Build timed-release schedules from a continuous optimal control.

The continuous rate is read by ``sim.sampled_rate`` (0 outside its
grid), split into unit-day windows, and converted to integer release
sizes: per-day sizes use the trapezoid/ceiling branch rule; sparser
schedules either aggregate the daily sizes over m-day blocks or use
per-block excess estimates (m times the ceiled block maximum), the latter
for strains whose released adults die too quickly for aggregated sizes
to work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import State
from .ocp import ContinuousControl
from .params import StrainParams
from .sim import ImpulseSchedule, SimOptions, first_basin_entry, sampled_rate, simulate_impulsive


@dataclass(frozen=True)
class DailyImpulseSequence:
    """Integer daily sizes, one per unit window of ``daily_window_totals``.

    ``ceiling_margin`` is the smallest distance from a ceiled quantity to
    the nearest integer, on day ``ceiling_day``: a size decided by less
    than the solver's tolerance can change with it.  A quantity on a clamp
    of the control (0 or the cap) is exact and is not counted; with no
    other day the margin is inf and the day 0.
    """

    sizes: tuple[int, ...]
    t_hat: int
    ceiling_margin: float
    ceiling_day: int

    @property
    def total(self) -> int:
        return sum(self.sizes)

    def schedule(self) -> ImpulseSchedule:
        entries = tuple(
            (float(day), size) for day, size in enumerate(self.sizes, start=1)
        )
        return ImpulseSchedule(entries=entries, rule_tag="daily")


@dataclass(frozen=True)
class PeriodicImpulseSequence:
    """m-periodic release sizes, released at t = 1 + (i-1) m."""

    period_m: int
    sizes: tuple[int, ...]
    rule: str  # "aggregate" | "excess"

    @property
    def total(self) -> int:
        return sum(self.sizes)

    def schedule(self) -> ImpulseSchedule:
        entries = tuple(
            (1.0 + i * self.period_m, size) for i, size in enumerate(self.sizes)
        )
        return ImpulseSchedule(entries=entries, rule_tag=self.rule)


@dataclass(frozen=True)
class IndicatorReport:
    """Indicators of one schedule on the adaptive integrator: counts, total,
    the first entry by ``t_end`` (``feasible`` when there is one),
    ``end_margin`` = min(x_u - x, y - y_u) at ``t_end``, positive when that
    state is strictly inside (the GA's rule), and the simulation's work
    (``Trajectory.nfev`` and ``accepted_steps``)."""

    num_releases: int
    overall_size: int
    basin_entry_time: Optional[float]
    feasible: bool
    end_margin: float
    nfev: int
    accepted_steps: int


def horizon_days(ctrl: ContinuousControl) -> int:
    """Number of daily windows: the ceiled optimal horizon, at least 1."""
    return max(1, int(math.ceil(ctrl.t_star - 1e-12)))


def _windows(ctrl: ContinuousControl, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integral and maximum of the control (``sampled_rate``) over each
    window [edges[i], edges[i+1]], all in one pass.

    The knots are the edges and the grid nodes between them.  The control
    is linear between knots, so the trapezoid over them is exact and its
    extrema lie on them; the integral runs over the knots clipped to the
    grid, because the control drops to 0 past both of its ends.
    """
    times = ctrl.times
    knots = np.union1d(edges, times[(times > edges[0]) & (times < edges[-1])])
    at = np.searchsorted(knots, edges)
    u = sampled_rate(times, ctrl.values)(knots)
    areas = np.diff(np.clip(knots, times[0], times[-1])) * (u[1:] + u[:-1]) / 2.0
    maxima = np.maximum(np.maximum.reduceat(u[:-1], at[:-1]), u[at[1:]])
    return np.add.reduceat(areas, at[:-1]), maxima


def daily_window_totals(ctrl: ContinuousControl) -> np.ndarray:
    """Integral of the control over each unit window."""
    return _windows(ctrl, np.arange(horizon_days(ctrl) + 1.0))[0]


def daily_impulses(ctrl: ContinuousControl) -> DailyImpulseSequence:
    """Integer daily sizes from the two-branch trapezoid/ceiling rule.

    When the trapezoid estimate covers the window integral its ceiling is
    the size; otherwise the ceiled window maximum is used so the size
    still dominates the true window total.
    """
    t_hat = horizon_days(ctrl)
    edges = np.arange(t_hat + 1.0)
    totals, maxima = _windows(ctrl, edges)
    u = sampled_rate(ctrl.times, ctrl.values)(edges)
    tr = 0.5 * (u[1:] + u[:-1])
    q = np.where(totals <= tr + 1e-9 * np.maximum(1.0, tr), tr, maxima)
    # Distance to the nearest integer, day by day after an inf for "no day":
    # argmin takes the first smallest, and a clamped day never counts.
    gaps = np.where((q > 0.0) & (q < ctrl.cap_l), np.abs(q - np.round(q)), np.inf)
    gaps = np.concatenate([[np.inf], gaps])
    day = int(np.argmin(gaps))
    return DailyImpulseSequence(
        sizes=tuple(np.ceil(q - 1e-12).astype(int).tolist()),
        t_hat=t_hat,
        ceiling_margin=float(gaps[day]),
        ceiling_day=day,
    )


def num_blocks(t_hat: int, m: int) -> int:
    """Number of m-day release blocks covering a t_hat-day horizon.

    Nearest-integer count (at least 1); the final block absorbs or trims
    the remainder so the blocks partition days 1..t_hat exactly.
    """
    if m < 1:
        raise ValueError("period must be at least one day")
    return max(1, math.floor(t_hat / m + 0.5))


def _block_edges(t_hat: int, m: int) -> np.ndarray:
    """Block boundaries in days: 0, m, ..., (k-1) m, t_hat."""
    return np.append(np.arange(num_blocks(t_hat, m)) * m, t_hat)


def aggregate_periodic(daily: DailyImpulseSequence, m: int) -> PeriodicImpulseSequence:
    """Sum daily sizes over m-day blocks; totals are conserved exactly."""
    running = np.concatenate([[0], np.cumsum(daily.sizes, dtype=np.int64)])
    sizes = np.diff(running[_block_edges(daily.t_hat, m)])
    return PeriodicImpulseSequence(period_m=m, sizes=tuple(sizes.tolist()), rule="aggregate")


def excess_periodic(ctrl: ContinuousControl, m: int) -> PeriodicImpulseSequence:
    """Per-block excess sizes: m times the ceiled block maximum."""
    maxima = _windows(ctrl, _block_edges(horizon_days(ctrl), m))[1]
    sizes = m * np.ceil(maxima - 1e-12).astype(int)
    return PeriodicImpulseSequence(period_m=m, sizes=tuple(sizes.tolist()), rule="excess")


def evaluate_schedule(
    params: StrainParams,
    sched: ImpulseSchedule,
    target: tuple[float, float],
    initial_wild: float,
    opts: SimOptions = SimOptions(),
) -> IndicatorReport:
    """Simulate a schedule from (initial_wild, 0) to ``opts.t_end``; report indicators."""
    traj = simulate_impulsive(params, State(initial_wild, 0.0), sched, opts)
    entry = first_basin_entry(traj, target)
    x, y = traj.final_state
    return IndicatorReport(
        num_releases=sched.num_releases,
        overall_size=sched.total,
        basin_entry_time=entry,
        feasible=entry is not None,
        end_margin=float(min(target[0] - x, y - target[1])),
        nfev=traj.nfev,
        accepted_steps=traj.accepted_steps,
    )


class NoFeasibleRuleError(RuntimeError):
    """Neither the aggregate nor the excess construction achieves entry."""


def select_rule(
    params: StrainParams,
    ctrl: ContinuousControl,
    m: int,
    target: tuple[float, float],
    initial_wild: float,
    opts: SimOptions = SimOptions(),
) -> tuple[PeriodicImpulseSequence, IndicatorReport]:
    """Aggregate rule first; fall back to excess sizes if entry fails."""
    daily = daily_impulses(ctrl)
    for builder in (lambda: aggregate_periodic(daily, m), lambda: excess_periodic(ctrl, m)):
        seq = builder()
        report = evaluate_schedule(params, seq.schedule(), target, initial_wild, opts)
        if report.feasible:
            return seq, report
    raise NoFeasibleRuleError(
        f"neither aggregate nor excess rule enters the target region for m={m}"
    )
