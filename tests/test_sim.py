import math

import numpy as np
import pytest

from wolbopt import sim
from wolbopt.model import State, absorbing_bound, equilibria, make_rhs, rhs_arrays
from wolbopt.params import offspring_numbers
from wolbopt.sim import (
    ImpulseSchedule,
    SimOptions,
    first_basin_entry,
    integrate,
    phase_field,
    rk4,
    separatrix,
    simulate_impulsive,
)

from oracles import classify_endpoint, per_stretch_impulsive, separatrix_height

LONG = SimOptions(t_end=600.0)


def test_rk4_arrays_match_scalar_rows(wmel, wmelpop):
    # The GA kernel runs rk4 on arrays, the OCP on floats: every stored
    # node of every row must agree (to exp rounding: np.exp vs math.exp).
    zero = [0.0] * 41
    for params in (wmel, wmelpop):
        x_sharp = equilibria(params).ex.state.x
        x0 = np.array([x_sharp, x_sharp, 0.6 * x_sharp, 0.5])
        y0 = np.array([0.0, 3000.0, 1800.0, 7000.0])
        xs, ys = rk4(lambda x, y, u: rhs_arrays(params, x, y), x0, y0, zero, 0.25)
        assert len(xs) == len(ys) == 41
        for r in range(x0.size):
            sx, sy = rk4(make_rhs(params), float(x0[r]), float(y0[r]), zero, 0.25)
            assert [a[r] for a in xs] == pytest.approx(sx, rel=1e-12, abs=1e-9)
            assert [a[r] for a in ys] == pytest.approx(sy, rel=1e-12, abs=1e-9)
        assert xs[1][1] != xs[-1][1]  # nodes are snapshots, not one aliased array


def test_equilibrium_persists(wmel):
    eq = equilibria(wmel)
    traj = integrate(wmel, eq.ex.state, None, (0.0, 400.0))
    fx, fy = traj.final_state
    assert fx == pytest.approx(eq.ex.state.x, rel=1e-6)
    assert fy == pytest.approx(0.0, abs=1e-6)


def test_infected_free_axis_invariant(wmel):
    traj = integrate(wmel, State(5000.0, 0.0), None, (0.0, 200.0))
    assert np.all(traj.states[:, 1] == 0.0)
    assert np.all(traj.states[:, 0] >= 0.0)


def test_small_release_returns_to_wild_only(wmel, wmel_scenario):
    traj = integrate(wmel, State(wmel_scenario.initial_wild, 1.0), None, (0.0, 400.0))
    eq = equilibria(wmel)
    assert traj.final_state[0] == pytest.approx(eq.ex.state.x, rel=1e-3)
    assert traj.final_state[1] < 1.0


def test_release_above_separatrix_reaches_coexistence(wmel, wmel_scenario):
    curve = separatrix(wmel)
    x0 = wmel_scenario.initial_wild
    height = separatrix_height(curve, x0)
    assert classify_endpoint(wmel, State(x0, 1.05 * height), LONG) == "es"
    assert classify_endpoint(wmel, State(x0, 0.95 * height), LONG) == "ex"


def test_jump_then_flow_equivalence(wmel, wmel_scenario):
    size = 3000
    x0 = wmel_scenario.initial_wild
    sched = ImpulseSchedule(entries=((0.0, size),))
    opts = SimOptions(t_end=60.0)
    a = simulate_impulsive(wmel, State(x0, 0.0), sched, opts)
    b = integrate(wmel, State(x0, float(size)), None, (0.0, 60.0))
    assert a.final_state[0] == pytest.approx(b.final_state[0], rel=1e-9)
    assert a.final_state[1] == pytest.approx(b.final_state[1], rel=1e-9)


def test_empty_schedule_equals_uncontrolled(wmel, wmel_scenario):
    x0 = wmel_scenario.initial_wild
    opts = SimOptions(t_end=50.0)
    a = simulate_impulsive(wmel, State(x0, 100.0), ImpulseSchedule(entries=()), opts)
    b = integrate(wmel, State(x0, 100.0), None, (0.0, 50.0))
    assert a.final_state[0] == pytest.approx(b.final_state[0], rel=1e-9)
    assert a.final_state[1] == pytest.approx(b.final_state[1], rel=1e-9)
    # No release rows: every time appears once and no row carries a size.
    assert np.all(np.diff(a.times) > 0.0)
    assert not a.u_applied.any()


def test_release_rows_conserve_total(wmel, wmel_scenario):
    entries = tuple((float(d), 150 * d) for d in range(1, 8))
    sched = ImpulseSchedule(entries=entries)
    traj = simulate_impulsive(
        wmel, State(wmel_scenario.initial_wild, 0.0), sched, SimOptions(t_end=10.0)
    )
    post = np.nonzero(np.diff(traj.times) == 0.0)[0] + 1
    assert traj.times[post].tolist() == [t for t, _ in entries]
    assert traj.u_applied.sum() == sched.total
    assert np.all(traj.u_applied[np.setdiff1d(np.arange(traj.times.size), post)] == 0.0)
    jumped = np.rint(traj.states[post, 1] - traj.states[post - 1, 1]).astype(int)
    assert jumped.tolist() == [size for _, size in entries]
    assert np.all(traj.states[post, 0] == traj.states[post - 1, 0])


@pytest.mark.parametrize("strain, horizon", [("wmel", 20), ("wmelpop", 70)])
def test_flow_samples_in_one_pass(strain, horizon, request):
    # Seeded daily and 7-day schedules: the rows of all stretches from one
    # evaluation of the joined steps, against each stretch's own
    # interpolant.  The runs take the same steps (nfev and accepted steps),
    # so the rows differ only by rounding.
    scenario = request.getfixturevalue(f"{strain}_scenario")
    s0, cap = State(scenario.initial_wild, 0.0), scenario.cap_l
    opts = SimOptions(t_end=horizon + 30.0)
    rng = np.random.default_rng(30)
    for period in (1, 7) * 3:
        days = np.arange(1.0, rng.integers(2, horizon + 1), period)
        sizes = rng.integers(int(0.2 * cap * period), int(cap * period) + 1, days.size)
        sched = ImpulseSchedule(entries=tuple(zip(days.tolist(), sizes.tolist())))
        traj = simulate_impulsive(scenario.params, s0, sched, opts)
        times, states, nfev, steps = per_stretch_impulsive(scenario.params, s0, sched, opts)
        assert np.array_equal(traj.times, times)
        np.testing.assert_allclose(traj.states, states, rtol=1e-12, atol=0.0)
        assert (traj.nfev, traj.accepted_steps) == (nfev, steps)


def test_release_after_t_end_rejected(wmel, wmel_scenario):
    s0 = State(wmel_scenario.initial_wild, 0.0)
    late = ImpulseSchedule(entries=((5.0, 100), (12.0, 200), (15.0, 300)))
    with pytest.raises(ValueError, match="200 at t=12 is after t_end=10"):
        simulate_impulsive(wmel, s0, late, SimOptions(t_end=10.0))
    with pytest.raises(ValueError, match="100 at t=-1 is before t=0"):
        simulate_impulsive(wmel, s0, ImpulseSchedule(entries=((-1.0, 100),)))
    # A release exactly at t_end is applied: it gives the last two rows,
    # pre then post, and the final state is the post row.
    at_end = ImpulseSchedule(entries=((10.0, 100),))
    traj = simulate_impulsive(wmel, s0, at_end, SimOptions(t_end=10.0))
    assert traj.times[-2:].tolist() == [10.0, 10.0]
    assert traj.times[-3] < 10.0
    assert traj.u_applied[-2:].tolist() == [0.0, 100.0]
    pre, post = traj.states[-2], traj.states[-1]
    assert post[0] == pre[0] and post[1] == pre[1] + 100
    assert traj.final_state == (post[0], post[1])


def test_tolerance_halving_consistency(wmel, wmel_scenario):
    x0 = wmel_scenario.initial_wild
    rhs = make_rhs(wmel)
    loose, tight = (1e-6, 1e-8), (5e-7, 5e-9)  # (rtol, atol)
    a, b = (
        sim.solve_ivp(lambda t, x, y: rhs(x, y, 0.0), (0.0, 100.0), (x0, 2500.0), *tol).y_end
        for tol in (loose, tight)
    )
    scale = abs(b[0]) + abs(b[1])
    drift = abs(a[0] - b[0]) + abs(a[1] - b[1])
    assert drift <= 10.0 * loose[0] * scale


def test_first_basin_entry_immediate(wmel):
    eq = equilibria(wmel)
    target = (eq.eu.state.x, eq.eu.state.y)
    traj = integrate(wmel, eq.es.state, None, (0.0, 5.0))
    assert first_basin_entry(traj, target) == pytest.approx(0.0, abs=1e-9)


def test_first_basin_entry_never_without_releases(wmel, wmel_scenario):
    eq = equilibria(wmel)
    target = (eq.eu.state.x, eq.eu.state.y)
    traj = integrate(wmel, State(wmel_scenario.initial_wild, 0.0), None, (0.0, 100.0))
    assert first_basin_entry(traj, target) is None


def test_entry_dominance_on_sampled_schedules(wmel, wmel_scenario):
    eq = equilibria(wmel)
    target = (eq.eu.state.x, eq.eu.state.y)
    x0 = wmel_scenario.initial_wild
    rng = np.random.default_rng(7)
    opts = SimOptions(t_end=80.0)
    for _ in range(3):
        base = rng.integers(300, 700, size=10)
        boosted = base + rng.integers(0, 200, size=10)
        entries_b = tuple((float(d), int(v)) for d, v in enumerate(base, 1))
        entries_a = tuple((float(d), int(v)) for d, v in enumerate(boosted, 1))
        tb = simulate_impulsive(wmel, State(x0, 0.0), ImpulseSchedule(entries=entries_b), opts)
        ta = simulate_impulsive(wmel, State(x0, 0.0), ImpulseSchedule(entries=entries_a), opts)
        eb = first_basin_entry(tb, target)
        ea = first_basin_entry(ta, target)
        if eb is not None:
            assert ea is not None
            assert ea <= eb + 1e-6


def test_release_caused_entry_timed_at_release(wmel):
    # From (3000, 500) the flow alone stays outside until after t = 1;
    # the release of 4000 at t = 1 lifts y over the threshold at once.
    eq = equilibria(wmel)
    target = (eq.eu.state.x, eq.eu.state.y)
    s0 = State(3000.0, 500.0)
    opts = SimOptions(t_end=5.0)
    flow = simulate_impulsive(wmel, s0, ImpulseSchedule(entries=()), opts)
    entry_flow = first_basin_entry(flow, target)
    assert entry_flow is None or entry_flow > 1.0
    traj = simulate_impulsive(wmel, s0, ImpulseSchedule(entries=((1.0, 4000),)), opts)
    assert first_basin_entry(traj, target) == 1.0


@pytest.mark.parametrize("strain, horizon", [("wmel", 20), ("wmelpop", 70)])
def test_entry_matches_fine_sampling(strain, horizon, request, monkeypatch):
    # The closed-form entry between 0.25-day rows against the same rule on
    # 0.0005-day rows, on seeded daily schedules of half to full cap.
    scenario = request.getfixturevalue(f"{strain}_scenario")
    s0, cap = State(scenario.initial_wild, 0.0), int(scenario.cap_l)
    rng = np.random.default_rng(11)
    scheds = [
        ImpulseSchedule(entries=tuple(
            (float(d), int(v)) for d, v in enumerate(rng.integers(cap // 2, cap + 1, horizon), 1)
        ))
        for _ in range(4)
    ]
    opts = SimOptions(t_end=horizon + 10.0)

    def entries():
        return [
            first_basin_entry(simulate_impulsive(scenario.params, s0, s, opts), scenario.target)
            for s in scheds
        ]

    coarse = entries()
    monkeypatch.setattr(sim, "SAMPLE_STRIDE", 0.0005)
    reference = entries()
    assert None not in reference
    assert None not in coarse
    assert np.max(np.abs(np.subtract(coarse, reference))) <= 2e-3


@pytest.mark.parametrize("strain", ["wmel", "wmelpop"])
def test_ocp_control_enters_before_t_star(strain, request):
    # The OCP ends one individual inside the x threshold at t*, so the
    # adaptive run of its own control must enter before t*.
    scenario = request.getfixturevalue(f"{strain}_scenario")
    ctrl = request.getfixturevalue(f"{strain}_solution").control
    traj = integrate(
        scenario.params, State(scenario.initial_wild, 0.0), (ctrl.times, ctrl.values),
        (0.0, ctrl.t_star + 5.0),
    )
    entry = first_basin_entry(traj, scenario.target)
    assert entry is not None and ctrl.t_star - 0.5 < entry < ctrl.t_star


def test_sampled_control_dropping_inside_span(wmel, wmel_scenario):
    # 3,000/day on [t0, 150] drops to 0 at both grid ends; an adaptive step
    # across the drop at t = 150 (or t0 = 2) overflowed exp in its trial state.
    s0 = State(wmel_scenario.initial_wild, 0.0)
    runs = [
        integrate(
            wmel, s0, (np.array([t0, 150.0]), np.array([3000.0, 3000.0])), (0.0, 200.0)
        )
        for t0 in (0.0, 2.0)
    ]
    for traj in runs:
        assert np.all(np.diff(traj.times) > 0.0)  # a segment end appears once
        assert np.all(traj.u_applied[traj.times > 150.0] == 0.0)
        assert np.all(np.isfinite(traj.states))
    late = runs[1]
    assert np.all(late.u_applied[late.times < 2.0] == 0.0)
    assert np.all(late.states[late.times <= 2.0] == late.states[0])
    # s0 is the wild-only equilibrium, so the grid that starts 2 days late
    # enters the secure region 2 days late.
    early, later = (first_basin_entry(traj, wmel_scenario.target) for traj in runs)
    assert later - early == pytest.approx(2.0, abs=1e-6)


def test_bounded_control_keeps_states_nonnegative(wmel, wmel_scenario):
    cap = 750.0
    times = np.linspace(0.0, 120.0, 2401)  # 180 samples per period of the sine
    control = (times, cap * (0.5 + 0.5 * np.sin(0.7 * times)))
    traj = integrate(wmel, State(wmel_scenario.initial_wild, 0.0), control, (0.0, 120.0))
    assert np.all(traj.states >= 0.0)
    assert np.all(traj.u_applied >= 0.0) and np.all(traj.u_applied <= cap)


def test_absorbing_set_attracts(wmel):
    bound = absorbing_bound(wmel)
    traj = integrate(wmel, State(0.9 * bound, 0.6 * bound), None, (0.0, 400.0))
    sums = traj.states.sum(axis=1)
    inside = np.nonzero(sums <= bound + 1e-6 * bound)[0]
    assert inside.size > 0
    assert np.all(sums[inside[0]:] <= bound + 1e-6 * bound)


def test_separatrix_passes_through_saddle(wmel):
    eq = equilibria(wmel)
    curve = separatrix(wmel)
    d = np.min(np.hypot(curve[:, 0] - eq.eu.state.x, curve[:, 1] - eq.eu.state.y))
    assert d < 1.0


def test_separatrix_sides_classify(wmel):
    q = offspring_numbers(wmel)
    delta = 0.01 * math.log(q.q_y) / wmel.sigma
    curve = separatrix(wmel)
    idx = np.linspace(10, curve.shape[0] - 10, 6).astype(int)
    for i in idx:
        x, y = curve[i]
        if y - delta < 0:
            continue
        assert classify_endpoint(wmel, State(x, y + delta), LONG) == "es"
        assert classify_endpoint(wmel, State(x, y - delta), LONG) == "ex"


def test_separatrix_matches_release_bisection(wmel, wmel_scenario):
    curve = separatrix(wmel)
    x0 = wmel_scenario.initial_wild
    height = separatrix_height(curve, x0)
    lo, hi = 0.0, 2.0 * height
    for _ in range(22):
        mid = 0.5 * (lo + hi)
        if classify_endpoint(wmel, State(x0, mid), LONG) == "es":
            hi = mid
        else:
            lo = mid
    assert height == pytest.approx(hi, rel=0.02)


def test_phase_field_values(wmel):
    eq = equilibria(wmel)
    rows = phase_field(
        wmel, [0.0, eq.es.state.x, 1234.0], [0.0, eq.es.state.y, 567.0]
    )
    assert rows.shape == (9, 4)
    by_node = {(round(r[0], 6), round(r[1], 6)): (r[2], r[3]) for r in rows}
    assert by_node[(0.0, 0.0)] == (0.0, 0.0)
    dx, dy = by_node[(round(eq.es.state.x, 6), round(eq.es.state.y, 6))]
    assert abs(dx) < 1e-6 and abs(dy) < 1e-6
    dx, dy = by_node[(1234.0, 567.0)]
    expected = make_rhs(wmel)(1234.0, 567.0, 0.0)
    assert (dx, dy) == pytest.approx(expected, rel=1e-12)


def test_phase_field_rejects_negative_grid(wmel):
    with pytest.raises(ValueError):
        phase_field(wmel, [-1.0], [0.0])
