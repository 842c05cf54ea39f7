import math

import numpy as np
import pytest

from wolbopt.impulsive import (
    NoFeasibleRuleError,
    aggregate_periodic,
    control_windows,
    daily_impulses,
    evaluate_schedule,
    excess_periodic,
    horizon_days,
    num_blocks,
    select_rule,
)
from wolbopt.model import equilibria
from wolbopt.ocp import ContinuousControl, solve
from wolbopt.scenarios import ocp_config
from wolbopt.sim import ImpulseSchedule, SimOptions


def constant_control(c: float, t_star: float, n: int = 400) -> ContinuousControl:
    t = np.linspace(0.0, t_star, n + 1)
    return ContinuousControl(times=t, values=np.full(n + 1, c), t_star=t_star, cap_l=max(c, 1.0))


def linear_control(u0: float, t_star: float, n: int = 400) -> ContinuousControl:
    t = np.linspace(0.0, t_star, n + 1)
    v = u0 * (1.0 - t / t_star)
    return ContinuousControl(times=t, values=v, t_star=t_star, cap_l=u0)


def test_window_totals_constant_control():
    ctrl = constant_control(123.4, 6.0)
    totals = control_windows(ctrl, np.arange(horizon_days(ctrl) + 1.0))[0]
    assert totals.shape == (6,)
    assert np.allclose(totals, 123.4, rtol=1e-9)


def test_window_totals_zero_control():
    ctrl = constant_control(0.0, 5.0)
    assert np.allclose(control_windows(ctrl, np.arange(horizon_days(ctrl) + 1.0))[0], 0.0)


def test_window_totals_cover_partial_final_day():
    # Horizon 3.5 days: the 4th window integrates only half a day.
    ctrl = constant_control(100.0, 3.5)
    totals = control_windows(ctrl, np.arange(horizon_days(ctrl) + 1.0))[0]
    assert totals.shape == (4,)
    assert totals[:3] == pytest.approx([100.0] * 3, rel=1e-9)
    assert totals[3] == pytest.approx(50.0, rel=1e-6)


def reference_day(ctrl: ContinuousControl, n: int) -> tuple[float, int]:
    """Window total and size of day n, computed for that window alone: the
    rate is linear between samples and 0 outside its grid."""
    t, v = ctrl.times, ctrl.values
    u = lambda s: np.interp(s, t, v, left=0.0, right=0.0)  # noqa: E731
    lo, hi = n - 1.0, float(n)
    a, b = max(lo, t[0]), min(hi, t[-1])
    total = 0.0
    if b > a:
        pts = np.union1d([a, b], t[(t > a) & (t < b)])
        total = float(np.trapezoid(u(pts), pts))
    tr = 0.5 * (u(lo) + u(hi))
    peak = np.max(u(np.union1d([lo, hi], t[(t >= lo) & (t <= hi)])))
    q = tr if total <= tr + 1e-9 * max(1.0, tr) else peak
    return total, math.ceil(q - 1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_windows_match_per_window_reference(seed):
    # Grids that start after t = 0 and end at a non-integer t_star: the
    # control reads 0 before the first sample and after the last.
    rng = np.random.default_rng(seed)
    t0 = rng.uniform(0.2, 2.5)
    t = np.sort(np.concatenate([[t0, t0 + rng.uniform(3.0, 9.0)], rng.uniform(t0, t0 + 3.0, 20)]))
    v = rng.uniform(0.0, 700.0, t.size)
    ctrl = ContinuousControl(times=t, values=v, t_star=float(t[-1]), cap_l=750.0)
    daily = daily_impulses(ctrl)
    assert daily.t_hat == math.ceil(t[-1]) and t[-1] % 1.0 != 0.0
    totals, sizes = zip(*(reference_day(ctrl, n) for n in range(1, daily.t_hat + 1)))
    assert control_windows(ctrl, np.arange(daily.t_hat + 1.0))[0] == pytest.approx(
        totals, rel=1e-12, abs=1e-9)
    assert daily.sizes == sizes
    assert t0 < 1.0 or daily.sizes[0] == 0  # nothing is released before the grid
    assert daily.total >= np.trapezoid(v, t)


def test_daily_sizes_constant_control():
    ctrl = constant_control(123.4, 6.0)
    daily = daily_impulses(ctrl)
    assert daily.t_hat == 6
    assert daily.sizes == (124,) * 6


def test_daily_ceiling_margin():
    t = np.linspace(0.0, 5.0, 6)
    v = np.array([20.5, 20.5, 30.99, 30.99, 40.2, 40.2])
    daily = daily_impulses(ContinuousControl(times=t, values=v, t_star=5.0, cap_l=750.0))
    assert daily.sizes == (21, 26, 31, 36, 41)
    assert daily.ceiling_day == 3
    assert daily.ceiling_margin == pytest.approx(0.01, abs=1e-9)
    # A day on the cap is exact: no margin to report.
    at_cap = daily_impulses(constant_control(750.0, 3.0))
    assert (at_cap.ceiling_margin, at_cap.ceiling_day) == (math.inf, 0)


def test_daily_sizes_linear_control_trapezoid_exact():
    ctrl = linear_control(100.0, 5.0)
    daily = daily_impulses(ctrl)
    for n in range(1, 6):
        expected = math.ceil(
            0.5 * (ctrl.values[0] * (1 - (n - 1) / 5.0) + ctrl.values[0] * (1 - n / 5.0))
        )
        assert daily.sizes[n - 1] == expected


def test_daily_sizes_dominate_window_totals(wmel_solution, wmelpop_solution):
    for sol in (wmel_solution, wmelpop_solution):
        daily = daily_impulses(sol.control)
        totals = control_windows(sol.control, np.arange(daily.t_hat + 1.0))[0]
        for size, total in zip(daily.sizes, totals):
            assert size >= total - 1e-9


def test_num_blocks_matches_partition_counts():
    assert num_blocks(14, 7) == 2
    assert num_blocks(14, 14) == 1
    assert num_blocks(65, 7) == 9
    assert num_blocks(65, 14) == 5
    assert num_blocks(5, 7) == 1


def test_aggregate_uniform_daily():
    ctrl = constant_control(100.0, 14.0)
    daily = daily_impulses(ctrl)
    weekly = aggregate_periodic(daily, 7)
    assert weekly.sizes == (700, 700)
    assert weekly.schedule().entries[0][0] == 1.0
    assert weekly.schedule().entries[1][0] == 8.0


def test_aggregate_conserves_total(wmel_solution, wmelpop_solution):
    for sol in (wmel_solution, wmelpop_solution):
        daily = daily_impulses(sol.control)
        for m in range(1, 15):
            agg = aggregate_periodic(daily, m)
            assert agg.total == daily.total


def test_excess_constant_control_block_rule():
    ctrl = constant_control(123.4, 14.0)
    ex = excess_periodic(ctrl, 7)
    assert ex.sizes == (7 * 124, 7 * 124)


def test_suboptimality_chain(wmel_solution, wmelpop_solution):
    for sol in (wmel_solution, wmelpop_solution):
        continuous_total = np.trapezoid(sol.control.values, sol.control.times)
        daily = daily_impulses(sol.control)
        for m in range(1, 15):
            agg = aggregate_periodic(daily, m)
            ex = excess_periodic(sol.control, m)
            assert continuous_total <= agg.total
            assert agg.total <= ex.total


def test_monotone_sizes_for_nonincreasing_control(wmel_solution):
    ctrl = linear_control(400.0, 9.0)
    daily = daily_impulses(ctrl)
    assert all(a >= b for a, b in zip(daily.sizes, daily.sizes[1:]))
    sol_sizes = daily_impulses(wmel_solution.control).sizes
    values = wmel_solution.control.values
    if np.all(np.diff(values) <= 1e-9):
        assert all(a >= b for a, b in zip(sol_sizes, sol_sizes[1:]))


def test_zero_size_days_are_not_releases(wmel, wmel_scenario):
    """A control that is 0 over days 5-6 keeps those days in the daily
    schedule with size 0; they release nothing and are not counted."""
    t = np.arange(13.0)
    v = np.where((t >= 4.0) & (t <= 6.0), 0.0, 500.0)
    ctrl = ContinuousControl(times=t, values=v, t_star=12.0, cap_l=500.0)
    sched = daily_impulses(ctrl).schedule()
    assert [size for _, size in sched.entries].count(0) == 2
    assert sched.num_releases == len(sched.entries) - 2 == 10
    eq = equilibria(wmel)
    rep = evaluate_schedule(
        wmel, sched, (eq.eu.state.x, eq.eu.state.y), wmel_scenario.initial_wild,
        SimOptions(t_end=60.0),
    )
    assert rep.num_releases == 10


def test_evaluate_empty_schedule_infeasible(wmel, wmel_scenario):
    eq = equilibria(wmel)
    rep = evaluate_schedule(
        wmel,
        ImpulseSchedule(entries=()),
        (eq.eu.state.x, eq.eu.state.y),
        wmel_scenario.initial_wild,
        SimOptions(t_end=120.0),
    )
    assert not rep.feasible
    assert rep.basin_entry_time is None
    assert rep.overall_size == 0
    assert rep.end_margin < 0  # no release: y stays at 0, below y_u


def test_wmel_daily_schedule_feasible(wmel, wmel_scenario, wmel_solution):
    eq = equilibria(wmel)
    daily = daily_impulses(wmel_solution.control)
    rep = evaluate_schedule(
        wmel, daily.schedule(), (eq.eu.state.x, eq.eu.state.y), wmel_scenario.initial_wild
    )
    assert rep.feasible
    assert rep.basin_entry_time <= daily.t_hat + 1.5


def test_wmel_daily_schedule_two_rules(wmel, wmel_scenario):
    """The two feasibility rules disagree on the wmel daily schedule: the
    state at t_hat = 14 is outside the secure region (the GA's rule), yet
    the state enters it shortly after (Table 2's rule)."""
    sol = solve(wmel, ocp_config(wmel_scenario, grid_n=100))
    daily = daily_impulses(sol.control)
    assert (daily.total, daily.t_hat) == (6132, 14)
    args = (wmel, daily.schedule(), wmel_scenario.target, wmel_scenario.initial_wild)
    at_t_hat = evaluate_schedule(*args, SimOptions(t_end=14.0))
    assert at_t_hat.end_margin == pytest.approx(-34.1, abs=0.05)
    assert at_t_hat.basin_entry_time is None and not at_t_hat.feasible
    by_day_400 = evaluate_schedule(*args)
    assert by_day_400.basin_entry_time == pytest.approx(14.238, abs=5e-4)
    assert by_day_400.feasible and by_day_400.end_margin > 0


def test_select_rule_aggregate_first(wmel, wmel_scenario, wmel_solution):
    eq = equilibria(wmel)
    seq, rep = select_rule(
        wmel, wmel_solution.control, 7, (eq.eu.state.x, eq.eu.state.y),
        wmel_scenario.initial_wild,
    )
    assert seq.rule == "aggregate"
    assert rep.feasible


def test_select_rule_falls_back_to_excess(wmel, wmel_scenario):
    """A fortnight-aggregated total just below the single-release threshold
    is infeasible, while the peaky excess sizes clear it."""
    eq = equilibria(wmel)
    target = (eq.eu.state.x, eq.eu.state.y)
    n = 280
    t = np.linspace(0.0, 14.0, n + 1)
    v = np.where(t <= 2.0, 400.0, 150.0)
    ctrl = ContinuousControl(times=t, values=v, t_star=14.0, cap_l=750.0)
    daily = daily_impulses(ctrl)
    agg = aggregate_periodic(daily, 14)
    rep_agg = evaluate_schedule(
        wmel, agg.schedule(), target, wmel_scenario.initial_wild, SimOptions(t_end=300.0)
    )
    assert not rep_agg.feasible  # single release of ~2600 stays below the basin
    seq, rep = select_rule(
        wmel, ctrl, 14, target, wmel_scenario.initial_wild, SimOptions(t_end=300.0)
    )
    assert seq.rule == "excess"
    assert rep.feasible


def test_select_rule_zero_control_errors(wmel, wmel_scenario):
    eq = equilibria(wmel)
    ctrl = constant_control(0.0, 14.0)
    with pytest.raises(NoFeasibleRuleError):
        select_rule(
            wmel, ctrl, 7, (eq.eu.state.x, eq.eu.state.y), wmel_scenario.initial_wild,
            SimOptions(t_end=100.0),
        )
