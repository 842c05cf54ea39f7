"""Build timed-release schedules from a continuous optimal control.

The continuous rate is extended by zero beyond its horizon, split into
unit-day windows, and converted to integer release sizes: per-day sizes
use the trapezoid/ceiling branch rule; sparser schedules either aggregate
the daily sizes over m-day blocks or use per-block excess estimates
(m times the ceiled block maximum), the latter for strains whose released
adults die too quickly for aggregated sizes to work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import State
from .ocp import ContinuousControl
from .params import StrainParams
from .sim import ImpulseSchedule, SimOptions, first_basin_entry, simulate_impulsive


@dataclass(frozen=True)
class DailyImpulseSequence:
    """Per-day window totals and integer sizes.

    ``ceiling_margin`` is the smallest distance from a ceiled quantity to
    the nearest integer, on day ``ceiling_day``: a size decided by less
    than the solver's tolerance can change with it.  A quantity on a clamp
    of the control (0 or the cap) is exact and is not counted; with no
    other day the margin is inf and the day 0.
    """

    window_totals: tuple[float, ...]
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
        return ImpulseSchedule(entries=entries, period_m=1, rule_tag="daily")


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
        return ImpulseSchedule(
            entries=entries, period_m=self.period_m, rule_tag=self.rule
        )


@dataclass(frozen=True)
class IndicatorReport:
    """Key indicators of one schedule: counts, total, entry, feasibility."""

    num_releases: int
    overall_size: int
    basin_entry_time: Optional[float]
    feasible: bool


def extended_control(ctrl: ContinuousControl):
    """The control as a function of time, zero beyond the horizon."""
    times, values, t_star = ctrl.times, ctrl.values, ctrl.t_star

    def u_hat(t):
        t = np.asarray(t, dtype=float)
        out = np.interp(t, times, values, left=values[0], right=0.0)
        return np.where(t > t_star, 0.0, out)

    return u_hat


def _window_max(ctrl: ContinuousControl, lo: float, hi: float) -> float:
    """Max of the (piecewise-linear, zero-extended) control on [lo, hi].

    The extrema of a linear interpolant lie on nodes, so grid nodes inside
    the window plus both endpoints are enough.
    """
    u_hat = extended_control(ctrl)
    inside = ctrl.times[(ctrl.times >= lo) & (ctrl.times <= hi)]
    candidates = np.concatenate([inside, [lo, hi]])
    return float(np.max(u_hat(candidates)))


def horizon_days(ctrl: ContinuousControl) -> int:
    """Number of daily windows: the ceiled optimal horizon."""
    return int(math.ceil(ctrl.t_star - 1e-12))


def _window_integral(ctrl: ContinuousControl, lo: float, hi: float) -> float:
    """Exact integral of the zero-extended piecewise-linear control."""
    hi_eff = min(hi, ctrl.t_star)
    if hi_eff <= lo:
        return 0.0
    inside = ctrl.times[(ctrl.times > lo) & (ctrl.times < hi_eff)]
    pts = np.unique(np.concatenate([[lo, hi_eff], inside]))
    vals = np.interp(pts, ctrl.times, ctrl.values)
    return float(np.trapezoid(vals, pts))


def daily_window_totals(ctrl: ContinuousControl) -> np.ndarray:
    """Integral of the extended control over each unit window."""
    t_hat = horizon_days(ctrl)
    return np.array(
        [_window_integral(ctrl, n - 1.0, float(n)) for n in range(1, t_hat + 1)]
    )


def daily_impulses(ctrl: ContinuousControl) -> DailyImpulseSequence:
    """Integer daily sizes from the two-branch trapezoid/ceiling rule.

    When the trapezoid estimate covers the window integral its ceiling is
    the size; otherwise the ceiled window maximum is used so the size
    still dominates the true window total.
    """
    u_hat = extended_control(ctrl)
    t_hat = horizon_days(ctrl)
    totals = daily_window_totals(ctrl)
    sizes = []
    margin, margin_day = math.inf, 0
    for n in range(1, t_hat + 1):
        tr = 0.5 * (float(u_hat(float(n))) + float(u_hat(n - 1.0)))
        if totals[n - 1] <= tr + 1e-9 * max(1.0, tr):
            q = tr
        else:
            q = _window_max(ctrl, n - 1.0, float(n))
        sizes.append(int(math.ceil(q - 1e-12)))
        if 0.0 < q < ctrl.cap_l and abs(q - round(q)) < margin:
            margin, margin_day = abs(q - round(q)), n
    return DailyImpulseSequence(
        window_totals=tuple(totals),
        sizes=tuple(sizes),
        t_hat=t_hat,
        ceiling_margin=margin,
        ceiling_day=margin_day,
    )


def num_blocks(t_hat: int, m: int) -> int:
    """Number of m-day release blocks covering a t_hat-day horizon.

    Nearest-integer count (at least 1); the final block absorbs or trims
    the remainder so the blocks partition days 1..t_hat exactly.
    """
    if m < 1:
        raise ValueError("period must be at least one day")
    return max(1, math.floor(t_hat / m + 0.5))


def aggregate_periodic(daily: DailyImpulseSequence, m: int) -> PeriodicImpulseSequence:
    """Sum daily sizes over m-day blocks; totals are conserved exactly."""
    k = num_blocks(daily.t_hat, m)
    sizes = []
    for i in range(1, k + 1):
        lo = (i - 1) * m + 1
        hi = i * m if i < k else daily.t_hat
        sizes.append(int(sum(daily.sizes[lo - 1:hi])))
    return PeriodicImpulseSequence(period_m=m, sizes=tuple(sizes), rule="aggregate")


def excess_periodic(ctrl: ContinuousControl, m: int) -> PeriodicImpulseSequence:
    """Per-block excess sizes: m times the ceiled block maximum."""
    t_hat = horizon_days(ctrl)
    k = num_blocks(t_hat, m)
    sizes = []
    for i in range(1, k + 1):
        lo = (i - 1) * m
        hi = float(i * m) if i < k else float(max(i * m, t_hat))
        block_max = _window_max(ctrl, float(lo), hi)
        sizes.append(int(m * math.ceil(block_max - 1e-12)))
    return PeriodicImpulseSequence(period_m=m, sizes=tuple(sizes), rule="excess")


def evaluate_schedule(
    params: StrainParams,
    sched: ImpulseSchedule,
    target: tuple[float, float],
    initial_wild: float,
    opts: SimOptions = SimOptions(),
) -> IndicatorReport:
    """Simulate a schedule from (initial_wild, 0) and report indicators."""
    traj = simulate_impulsive(params, State(initial_wild, 0.0), sched, opts)
    entry = first_basin_entry(traj, target)
    return IndicatorReport(
        num_releases=sched.num_releases,
        overall_size=sched.total,
        basin_entry_time=entry,
        feasible=entry is not None,
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
