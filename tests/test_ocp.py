import math

import numpy as np
import pytest

from wolbopt import ocp
from wolbopt.model import State, equilibria, make_jacobian, make_rhs
from wolbopt.ocp import (
    STATS_KEYS,
    TOL_BC,
    CapInfeasibleError,
    ContinuousControl,
    NonConvergenceError,
    OCPConfig,
    objective,
    solve,
    _Bracket,
    _Sweeper,
    _mu_slope,
)
from wolbopt.scenarios import build_scenario, ocp_config
from wolbopt.sim import rk4

P_DEFAULT = 1e6


def test_hamiltonian_constant_term_only(wmel):
    h = ocp._hamiltonian(make_rhs(wmel)(1000.0, 500.0, 0.0), 0.0, 0.0, 0.0, P_DEFAULT)
    assert h == -P_DEFAULT


def test_hamiltonian_control_derivative(wmel):
    f = make_rhs(wmel)(3200.0, 900.0, 0.0)
    adj = (-40.0, 55.0)
    u = 12.0
    eps = 1e-4
    fd = (
        ocp._hamiltonian(f, *adj, u + eps, P_DEFAULT)
        - ocp._hamiltonian(f, *adj, u - eps, P_DEFAULT)
    ) / (2 * eps)
    assert fd == pytest.approx(adj[1] - u, rel=1e-6)


def test_adjoint_rhs_zero_and_linear(wmel):
    adj = ocp._adjoint_field(make_jacobian(wmel))
    z = complex(2100.0, 1300.0)
    assert adj(0.0, 0.0, z) == (0.0, 0.0)
    one = adj(3.0, -2.0, z)
    two = adj(6.0, -4.0, z)
    assert two[0] == pytest.approx(2 * one[0], rel=1e-12)
    assert two[1] == pytest.approx(2 * one[1], rel=1e-12)


def test_adjoint_rhs_matches_hamiltonian_gradient(wmel, wmelpop):
    rng = np.random.default_rng(3)
    for params in (wmel, wmelpop):
        f, adj = make_rhs(params), ocp._adjoint_field(make_jacobian(params))
        for _ in range(50):
            x = rng.uniform(50.0, 7000.0)
            y = rng.uniform(50.0, 7000.0)
            l1, l2 = rng.uniform(-100.0, 100.0, size=2)
            u = rng.uniform(0.0, 750.0)
            got = adj(l1, l2, complex(x, y))

            def H(xx, yy):
                return ocp._hamiltonian(f(xx, yy, 0.0), l1, l2, u, P_DEFAULT)

            eps = 1e-3
            dh_dx = (H(x + eps, y) - H(x - eps, y)) / (2 * eps)
            dh_dy = (H(x, y + eps) - H(x, y - eps)) / (2 * eps)
            assert got[0] == pytest.approx(-dh_dx, rel=1e-6, abs=1e-9)
            assert got[1] == pytest.approx(-dh_dy, rel=1e-6, abs=1e-9)


def _sequential_adjoint(params, xs, ys, h):
    """The oracle: the unit adjoint pass run by ``rk4`` node by node on
    floats, back from T with the state as a complex drive."""
    zs = [complex(x, y) for x, y in zip(reversed(xs), reversed(ys))]
    p1, p2 = rk4(ocp._adjoint_field(make_jacobian(params)), 1.0, 0.0, zs, -h)
    return p1[::-1], p2[::-1]


@pytest.mark.parametrize("name", ["wmel", "wmelpop"])
def test_array_adjoint_pass_matches_sequential_rk4(name, wmel, wmelpop, monkeypatch):
    """The adjoint pass as one array RK4 step over every grid step and a
    scan of the steps' transition matrices agrees with the sequential pass,
    and makes 3 Jacobian calls (k1, the shared midpoint, k4) per pass."""
    params = {"wmel": wmel, "wmelpop": wmelpop}[name]
    calls = 0
    make = ocp.make_jacobian

    def counting(params):
        jac = make(params)

        def counted(x, y):
            nonlocal calls
            calls += 1
            return jac(x, y)

        return counted

    monkeypatch.setattr(ocp, "make_jacobian", counting)
    sc = build_scenario(params)
    cfg = ocp_config(sc, grid_n=200)
    T = {"wmel": 13.73, "wmelpop": 57.47}[name]
    h = T / cfg.grid_n
    x_target = equilibria(params).eu.state.x - 1.0
    sweeper = _Sweeper(params, cfg, sc.initial_wild, x_target)
    u = np.clip(np.linspace(1.2, -0.3, cfg.grid_n + 1) * cfg.cap_l, 0.0, cfg.cap_l)
    xs, ys = sweeper._forward(u.tolist(), h)
    phi1, phi2 = sweeper._backward(xs, ys, h)
    assert calls == 3
    o1, o2 = _sequential_adjoint(params, xs, ys, h)
    assert phi1 == pytest.approx(o1, rel=1e-12)
    assert phi2 == pytest.approx(o2, rel=1e-12, abs=1e-12 * max(map(abs, o2)))
    assert (phi1[-1], phi2[-1]) == (1.0, 0.0)
    again = sweeper._backward(list(xs), list(ys), h)
    assert calls == 6
    assert again[0].tobytes() == phi1.tobytes() and again[1].tobytes() == phi2.tobytes()


def test_negative_states_unrepresentable():
    # The domain guard lives on the state type itself.
    with pytest.raises(ValueError):
        State(-1.0, 2.0)
    with pytest.raises(ValueError):
        State(1.0, -2.0)


def test_objective_closed_forms():
    t = np.linspace(0.0, 10.0, 101)
    zero = ContinuousControl(times=t, values=np.zeros_like(t), t_star=10.0, cap_l=750.0)
    assert objective(zero, P_DEFAULT) == pytest.approx(P_DEFAULT * 10.0, rel=1e-12)
    const = ContinuousControl(times=t, values=np.full_like(t, 80.0), t_star=10.0, cap_l=750.0)
    assert objective(const, P_DEFAULT) == pytest.approx(
        (P_DEFAULT + 0.5 * 80.0**2) * 10.0, rel=1e-12
    )


class TestSolvedWmel:
    def test_boundary_conditions(self, wmel, wmel_scenario, wmel_solution):
        sol = wmel_solution
        eq = equilibria(wmel)
        assert sol.converged
        assert sol.states[0, 0] == wmel_scenario.initial_wild
        assert sol.states[0, 1] == 0.0
        assert abs(sol.states[-1, 0] - (eq.eu.state.x - 1.0)) <= 0.5
        assert sol.adjoints[-1, 1] == 0.0

    def test_terminal_state_inside_secure_region(self, wmel, wmel_solution):
        eq = equilibria(wmel)
        assert wmel_solution.states[-1, 0] < eq.eu.state.x
        assert wmel_solution.states[-1, 1] > eq.eu.state.y

    def test_control_matches_clamped_adjoint(self, wmel_solution):
        sol = wmel_solution
        clamped = np.clip(sol.adjoints[:, 1], 0.0, sol.control.cap_l)
        assert np.max(np.abs(sol.control.values - clamped)) <= 0.5

    def test_hamiltonian_constant_along_solution(self, wmel_solution):
        assert np.max(np.abs(wmel_solution.hamiltonian_grid)) <= 10.0 * 200.0

    def test_control_bounds(self, wmel_solution):
        v = wmel_solution.control.values
        assert np.all(v >= 0.0) and np.all(v <= wmel_solution.control.cap_l)

    def test_objective_consistency_under_refinement(self, wmel_solution):
        c = wmel_solution.control
        coarse = objective(c, P_DEFAULT)
        t2 = np.linspace(c.times[0], c.times[-1], 2 * (len(c.times) - 1) + 1)
        v2 = np.interp(t2, c.times, c.values)
        fine = objective(
            ContinuousControl(times=t2, values=v2, t_star=c.t_star, cap_l=c.cap_l),
            P_DEFAULT,
        )
        assert coarse == pytest.approx(fine, rel=1e-6)

    def test_interior_stationarity(self, wmel, wmel_solution):
        """On interior arcs the control equals the second adjoint, so a
        perturbation there changes the objective only through the terminal
        multiplier; both facts are checked against the simulator."""
        sol = wmel_solution
        c = sol.control
        n = len(c.times) - 1
        interior = (c.values > 1.0) & (c.values < c.cap_l - 1.0)
        interior[: n // 10] = False
        interior[-n // 10:] = False
        assert interior.sum() > 50
        delta = np.where(interior, 1.0, 0.0)
        gap = np.trapezoid((c.values - sol.adjoints[:, 1]) * delta, c.times)
        assert abs(gap) <= 1e-2 * np.trapezoid(delta, c.times)

        rhs = make_rhs(wmel)
        h = c.times[1] - c.times[0]
        eps = 1e-3
        u_pert = list(c.values + eps * delta)
        xs_p, _ = rk4(rhs, sol.states[0, 0], 0.0, u_pert, h)
        d_j = np.trapezoid(
            (0.5 * (c.values + eps * delta) ** 2 - 0.5 * c.values**2), c.times
        ) / eps
        d_xt = (xs_p[-1] - sol.states[-1, 0]) / eps
        # First-order identity: dJ = mu * dx(T) for stationary interior arcs.
        assert d_j == pytest.approx(sol.mu * d_xt, rel=2e-2)


def test_grid_refinement_stability(wmel, wmel_solution):
    """Halving the grid must barely move the optimum (discretization study)."""
    sc = build_scenario(wmel)
    coarse = solve(wmel, ocp_config(sc, grid_n=1000))
    assert coarse.converged
    assert coarse.control.t_star == pytest.approx(
        wmel_solution.control.t_star, abs=5e-3
    )
    assert coarse.total_released == pytest.approx(
        wmel_solution.total_released, rel=2e-3
    )


def test_infeasible_cap_detected(wmel):
    # At 5 a day the full-capacity pass never brings x to the target within
    # the longest horizon, so the solve raises before any H(T) evaluation.
    sc = build_scenario(wmel)
    cfg = ocp_config(sc, cap_l=5.0)
    with pytest.raises(CapInfeasibleError, match="cap_l too small"):
        solve(wmel, cfg)


def test_target_crossed_without_control_detected(wmel):
    """From 7030 to 6900 the uncontrolled flow crosses the target at 4.6
    days, so a 30-day horizon has nothing to optimize; the solve finds the
    shorter optimal horizon instead."""
    sc = build_scenario(wmel, initial_wild=7030.0)
    cfg = ocp_config(sc, terminal_x=6900.0, grid_n=100)
    sweeper = _Sweeper(wmel, cfg, 7030.0, 6900.0)
    with pytest.raises(CapInfeasibleError, match="crossed with zero control"):
        sweeper.converge(30.0, [cfg.cap_l / 2.0] * 101, -1000.0)
    sol = solve(wmel, cfg)
    assert sol.control.t_star < 4.6
    assert sol.residuals["boundary"] <= TOL_BC


def test_config_validation():
    with pytest.raises(ValueError):
        OCPConfig(cap_l=-1.0)
    with pytest.raises(ValueError):
        OCPConfig(cap_l=750.0, grid_n=3)


def test_illinois_bracket_on_convex_residual():
    """exp(x) - 2 on [-5, 5] is convex: plain false position keeps the
    right end and creeps in from the left; the Illinois step does not."""

    def f(x):
        return math.exp(x) - 2.0

    def evaluations(illinois: bool) -> int:
        a, b = -5.0, 5.0
        br = _Bracket(a, f(a), b, f(b))
        n = 2
        while n < 200:
            m = br.point()
            if abs(m - math.log(2.0)) <= 1e-9:
                break
            fm = f(m)
            n += 1
            if illinois:
                br.update(m, fm)
            elif fm < 0.0:
                br.a, br.fa = m, fm
            else:
                br.b, br.fb = m, fm
        return n

    assert evaluations(illinois=True) <= 20
    assert evaluations(illinois=False) > 50


def test_bracket_without_a_value_bisects():
    br = _Bracket(10.0, None, 20.0, -3.0)
    assert br.point() == 15.0
    br.update(15.0, None)  # no value counts as the a side
    assert (br.a, br.fa, br.b) == (15.0, None, 20.0)
    assert br.point() == 17.5


def test_unsettled_sweep_has_no_value(wmelpop, monkeypatch):
    """Just above wmelpop's shortest feasible horizon the accelerated sweep
    from a cold start settles, and its result meets the multiplier and the
    settle tolerances.  The undamped sweep (relaxation 1) at T = 65 locks
    into a two-cycle of the multiplier instead: it raises once its control
    change has set no new low for 10 sweeps, well before the 120-sweep cap,
    rather than returning an unsettled control and its H(T)."""
    sc = build_scenario(wmelpop)
    cfg = ocp_config(sc, grid_n=100)
    x_target = equilibria(wmelpop).eu.state.x - 1.0
    cold = [cfg.cap_l / 2.0] * 101
    sweeper = _Sweeper(wmelpop, cfg, sc.initial_wild, x_target)
    out = sweeper.converge(56.0, cold, -1000.0, tight=True)
    assert out["settled"] == "tight"
    assert abs(out["x_terminal"] - x_target) < 0.2 * 2e-5 * cfg.cap_l
    assert out["sweep_delta"] < 2e-5 * cfg.cap_l

    monkeypatch.setattr(ocp, "SWEEP_RELAXATION", 1.0)
    sweeper = _Sweeper(wmelpop, cfg, sc.initial_wild, x_target)
    with pytest.raises(NonConvergenceError, match="did not settle"):
        sweeper.converge(65.0, cold, -1000.0)
    assert sweeper.stats["sweeps"] < 30


@pytest.mark.parametrize("name", ["wmel", "wmelpop"])
def test_mu_slope_matches_finite_difference(name, wmel, wmelpop):
    """dx(T)/dmu from the unit adjoint, at no extra pass, against a central
    difference of two forward passes, at a sweep settled to the tolerance
    of the solver's final horizons."""
    params = {"wmel": wmel, "wmelpop": wmelpop}[name]
    sc = build_scenario(params)
    cfg = ocp_config(sc, grid_n=100)
    sweeper = _Sweeper(params, cfg, sc.initial_wild, equilibria(params).eu.state.x - 1.0)
    T = {"wmel": 13.73, "wmelpop": 57.47}[name]
    out = sweeper.converge(T, [cfg.cap_l / 2.0] * 101, -1000.0, tight=True)
    h, mu, cap = out["h"], out["mu"], cfg.cap_l
    _, phi2 = sweeper._backward(out["xs"], out["ys"], h)

    def x_final(m):
        u = np.clip(m * phi2, 0.0, cap).tolist()
        return rk4(make_rhs(params), sc.initial_wild, 0.0, u, h)[0][-1]

    d = 1e-4 * abs(mu)
    fd = (x_final(mu + d) - x_final(mu - d)) / (2.0 * d)
    slope = _mu_slope(phi2, np.clip(mu * phi2, 0.0, cap), h, cap)
    assert slope == pytest.approx(fd, rel=1e-3)


@pytest.mark.parametrize(
    "name,T", [("wmel", 14.4), ("wmel", 13.8), ("wmel", 13.5),
               ("wmelpop", 62.4), ("wmelpop", 57.2), ("wmelpop", 57.97)],
)
def test_sign_only_exit_keeps_the_sign(name, T, wmel, wmelpop):
    """Far from the root a horizon is settled only to the sign of H(T):
    from a cold start the sign exit fires, and its H(T) has the sign of the
    same horizon settled at the solver's tight tolerance."""
    params = {"wmel": wmel, "wmelpop": wmelpop}[name]
    sc = build_scenario(params)
    cfg = ocp_config(sc, grid_n=100)
    x_target = equilibria(params).eu.state.x - 1.0
    cold = [cfg.cap_l / 2.0] * 101

    def evaluate(tight):
        return _Sweeper(params, cfg, sc.initial_wild, x_target).converge(T, cold, -1000.0, tight)

    quick = evaluate(tight=False)
    settled = evaluate(tight=True)
    assert quick["settled"] == "sign"
    assert abs(quick["h_terminal"]) > ocp.SIGN_H
    assert (quick["h_terminal"] > 0.0) == (settled["h_terminal"] > 0.0)


def test_solver_converges_from_many_starts(wmel, wmelpop):
    passes = 0
    for params in (wmel, wmelpop):
        x_sharp = build_scenario(params).initial_wild
        for dx in (-50.0, 0.0, 50.0, 100.0, 200.0, 400.0, 600.0):
            sc = build_scenario(params, initial_wild=x_sharp + dx)
            sol = solve(params, ocp_config(sc, grid_n=100))
            assert sol.converged, (params.name, dx)
            passes += sol.stats["forward_passes"]
    assert passes <= 3000


@pytest.mark.parametrize("name", ["wmel", "wmelpop"])
def test_solver_work_at_bench_grid(name, wmel, wmelpop):
    params = {"wmel": wmel, "wmelpop": wmelpop}[name]
    sol = solve(params, ocp_config(build_scenario(params), grid_n=100))
    stats = sol.stats
    assert sol.converged
    assert set(stats) == set(STATS_KEYS)
    assert stats["forward_passes"] <= 250
    assert stats["backward_passes"] <= 90
    assert stats["outer_evaluations"] <= 12
    assert stats["mu_searches_capped"] == 0
    # Every sweep runs one mu search and one backward pass; the chosen
    # horizon's adjoints take one more.
    assert stats["mu_searches"] == stats["sweeps"]
    assert stats["backward_passes"] == stats["sweeps"] + 1


def test_solver_work_at_paper_grid(wmel_solution, wmelpop_solution):
    for sol in (wmel_solution, wmelpop_solution):
        assert sol.stats["forward_passes"] <= 250
        assert sol.stats["backward_passes"] <= 90
        assert sol.stats["outer_evaluations"] <= 12
        assert sol.stats["mu_searches_capped"] == 0


def test_large_cap_not_reported_as_too_small(wmelpop):
    """The full-capacity pass shows that cap 2000 reaches the target, so a
    solve that finds no horizon with H(T) <= 0 must not blame the cap.
    (Today every horizon's mu search stalls on a zero slope at this cap,
    so the solve raises; a solve that converges would pass too.)"""
    sc = build_scenario(wmelpop, cap_l=2000.0)
    try:
        solve(wmelpop, ocp_config(sc, grid_n=100))
    except NonConvergenceError as err:
        assert "H(T) <= 0" in str(err)
