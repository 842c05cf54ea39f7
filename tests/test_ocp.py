import math

import numpy as np
import pytest

from wolbopt import ocp
from wolbopt import model
from wolbopt.model import State, equilibria, make_rhs
from wolbopt.ocp import (
    NEWTON_TOL,
    STATS_KEYS,
    CapInfeasibleError,
    ContinuousControl,
    NonConvergenceError,
    OCPConfig,
    objective,
    solve,
)
from wolbopt.scenarios import build_scenario, ocp_config
from wolbopt.sim import rk4

from oracles import initial_release_adjoint

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


def _adjoint(field, l1, l2, x, y):
    """The adjoint velocities of the extremal field at one state."""
    return tuple(field(np.array([[x], [y]]), np.array([[l1], [l2]]), 0.0)[1][:, 0])


def test_adjoint_rhs_zero_and_linear(wmel):
    field = ocp._extremal_field(wmel, 750.0)
    assert _adjoint(field, 0.0, 0.0, 2100.0, 1300.0) == (0.0, 0.0)
    one = _adjoint(field, 3.0, -2.0, 2100.0, 1300.0)
    two = _adjoint(field, 6.0, -4.0, 2100.0, 1300.0)
    assert two[0] == pytest.approx(2 * one[0], rel=1e-12)
    assert two[1] == pytest.approx(2 * one[1], rel=1e-12)


def test_extremal_field_moves_the_state_under_the_clamp(wmel):
    """The state half of the field is the model under u = clamp(lambda2)."""
    field = ocp._extremal_field(wmel, 750.0)
    z = np.array([[3000.0, 3000.0, 3000.0], [900.0, 900.0, 900.0]])
    lam = np.array([[-40.0, -40.0, -40.0], [-5.0, 300.0, 2000.0]])
    dz = field(z, lam, 0.0)[0]
    for col, u in enumerate((0.0, 300.0, 750.0)):
        assert tuple(dz[:, col]) == pytest.approx(make_rhs(wmel)(3000.0, 900.0, u), rel=1e-14)


def test_adjoint_rhs_matches_hamiltonian_gradient(wmel, wmelpop):
    rng = np.random.default_rng(3)
    for params in (wmel, wmelpop):
        f, field = make_rhs(params), ocp._extremal_field(params, 750.0)
        for _ in range(50):
            x = rng.uniform(50.0, 7000.0)
            y = rng.uniform(50.0, 7000.0)
            l1, l2 = rng.uniform(-100.0, 100.0, size=2)
            u = rng.uniform(0.0, 750.0)
            got = _adjoint(field, l1, l2, x, y)

            def H(xx, yy):
                return ocp._hamiltonian(f(xx, yy, 0.0), l1, l2, u, P_DEFAULT)

            eps = 1e-3
            dh_dx = (H(x + eps, y) - H(x - eps, y)) / (2 * eps)
            dh_dy = (H(x, y + eps) - H(x, y - eps)) / (2 * eps)
            assert got[0] == pytest.approx(-dh_dx, rel=1e-6, abs=1e-9)
            assert got[1] == pytest.approx(-dh_dy, rel=1e-6, abs=1e-9)


def _sequential_extremal(params, cap, start, h, steps):
    """The 4-state extremal by scalar RK4 on floats, one step at a time,
    with u = clamp(lambda2, 0, cap) inside the stages."""
    rhs, jac = make_rhs(params), model.make_jacobian(params)

    def f(s):
        x, y, l1, l2 = s
        j11, j12, j21, j22 = (float(v) for v in jac(x, y))
        fx, fy = rhs(x, y, min(max(l2, 0.0), cap))
        return fx, fy, -(j11 * l1 + j21 * l2), -(j12 * l1 + j22 * l2)

    s, out = [float(v) for v in start], [tuple(start)]
    for _ in range(steps):
        k1 = f(s)
        k2 = f([a + 0.5 * h * b for a, b in zip(s, k1)])
        k3 = f([a + 0.5 * h * b for a, b in zip(s, k2)])
        k4 = f([a + h * b for a, b in zip(s, k3)])
        s = [a + h / 6.0 * (b1 + 2.0 * (b2 + b3) + b4)
             for a, b1, b2, b3, b4 in zip(s, k1, k2, k3, k4)]
        out.append(tuple(s))
    return np.array(out)


@pytest.mark.parametrize("name", ["wmel", "wmelpop"])
def test_array_adjoint_pass_matches_sequential_rk4(name, wmel, wmelpop, monkeypatch):
    """The solution's states and adjoints come from one array RK4 pass that
    carries every segment as a row.  From each shooting node they agree with
    a sequential scalar RK4 of the extremal (the last segment backward from
    the terminal node; measured: bit for bit), and every pass makes 4
    Jacobian calls per segment step, whatever the number of rows, beside
    the start's one call on its whole pass."""
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
    cfg = ocp_config(build_scenario(params), grid_n=200)
    sol = solve(params, cfg)
    m, k = ocp._segments(cfg.grid_n)
    assert calls == 1 + 4 * m * sol.stats["passes"]
    h = sol.control.t_star / cfg.grid_n
    grid = np.column_stack((sol.states, sol.adjoints))
    for j in range(k - 1):  # forward segments, up to the next node
        got = grid[j * m: (j + 1) * m]
        ref = _sequential_extremal(params, cfg.cap_l, grid[j * m], h, m)[:-1]
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-9)
    got = grid[(k - 1) * m:]
    ref = _sequential_extremal(params, cfg.cap_l, grid[-1], -h, len(got) - 1)[::-1]
    assert got == pytest.approx(ref, rel=1e-12, abs=1e-9)


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
        assert sol.states[-1, 0] == eq.eu.state.x - 1.0  # the terminal node is fixed
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
        # Both runs under the sampled control: the solver's own states move
        # with the clamp inside the RK4 stages, 4e-5 away at T.
        xs, _ = rk4(rhs, sol.states[0, 0], 0.0, list(c.values), h)
        xs_p, _ = rk4(rhs, sol.states[0, 0], 0.0, u_pert, h)
        d_j = np.trapezoid(
            (0.5 * (c.values + eps * delta) ** 2 - 0.5 * c.values**2), c.times
        ) / eps
        d_xt = (xs_p[-1] - xs[-1]) / eps
        # First-order identity: dJ = mu * dx(T) for stationary interior arcs.
        assert d_j == pytest.approx(sol.mu * d_xt, rel=2e-2)


@pytest.mark.parametrize("name", ["wmel", "wmelpop"])
def test_mu_slope_matches_finite_difference(name, request):
    """mu = lambda1(T) is the slope of the optimal cost in the terminal
    target, dJ*/dx(T): against a central difference of two grid-2,000
    solves with the target moved by one individual (measured: within
    3.8e-5 and 4.4e-5, wmel / wmelpop)."""
    params = request.getfixturevalue(name)
    sc = request.getfixturevalue(f"{name}_scenario")
    sol = request.getfixturevalue(f"{name}_solution")
    x_target = equilibria(params).eu.state.x - 1.0
    j_up, j_down = (
        solve(params, ocp_config(sc, terminal_x=x_target + d)).objective_j for d in (1.0, -1.0)
    )
    assert sol.mu == pytest.approx((j_up - j_down) / 2.0, rel=1e-4)


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
    # At 5 a day the start pass never brings x to the target within the
    # longest horizon, so the solve raises before any Newton iteration.
    sc = build_scenario(wmel)
    cfg = ocp_config(sc, cap_l=5.0)
    with pytest.raises(CapInfeasibleError, match="cap_l too small"):
        solve(wmel, cfg)


def test_target_crossed_without_control_detected(wmel):
    """From 7030 to 6900 the uncontrolled flow crosses the target at 4.6
    days, so no horizon that long needs a release; the solve finds the
    shorter optimal horizon, 1.3552 days, with the cap held from the start."""
    sc = build_scenario(wmel, initial_wild=7030.0)
    sol = solve(wmel, ocp_config(sc, terminal_x=6900.0, grid_n=100))
    assert sol.control.t_star == pytest.approx(1.35523, rel=1e-5)
    assert sol.control.values[0] == sol.control.cap_l
    assert sol.states[-1, 0] == 6900.0


def test_unsettled_sweep_has_no_value(wmelpop, monkeypatch):
    """A solve whose Newton iteration has not met NEWTON_TOL returns no
    value: wmelpop at grid 100 takes 8 iterations and one halving, so two
    iterations, or a line search without halvings, end it with
    NonConvergenceError rather than with an unconverged control."""
    cfg = ocp_config(build_scenario(wmelpop), grid_n=100)
    monkeypatch.setattr(ocp, "MAX_ITERATIONS", 2)
    with pytest.raises(NonConvergenceError, match="after 2 Newton iterations"):
        solve(wmelpop, cfg)
    monkeypatch.setattr(ocp, "MAX_ITERATIONS", 50)
    monkeypatch.setattr(ocp, "MAX_HALVINGS", 0)
    with pytest.raises(NonConvergenceError, match="line search failed after 0 halvings"):
        solve(wmelpop, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        OCPConfig(cap_l=-1.0)
    with pytest.raises(ValueError):
        OCPConfig(cap_l=750.0, grid_n=3)


def test_solver_converges_from_many_starts(wmel, wmelpop):
    passes = 0
    for params in (wmel, wmelpop):
        x_sharp = build_scenario(params).initial_wild
        for dx in (-50.0, 0.0, 50.0, 100.0, 200.0, 400.0, 600.0):
            sc = build_scenario(params, initial_wild=x_sharp + dx)
            sol = solve(params, ocp_config(sc, grid_n=100))
            assert sol.converged, (params.name, dx)
            passes += sol.stats["passes"]
    assert passes <= 120  # 116 measured


@pytest.mark.parametrize("name", ["wmel", "wmelpop"])
def test_solver_work_at_bench_grid(name, wmel, wmelpop):
    """Measured: 5 iterations in 6 passes (wmel), 8 in 10 with one halving
    (wmelpop).  The start costs one pass, and every line-search trial one."""
    params = {"wmel": wmel, "wmelpop": wmelpop}[name]
    sol = solve(params, ocp_config(build_scenario(params), grid_n=100))
    stats = sol.stats
    assert sol.converged
    assert set(stats) == set(STATS_KEYS)
    assert stats["iterations"] <= {"wmel": 6, "wmelpop": 9}[name]
    assert stats["passes"] == 1 + stats["iterations"] + stats["halvings"]
    assert len(sol.history) == stats["iterations"]
    assert sum(step.halvings for step in sol.history) == stats["halvings"]
    assert stats["residual_norm"] == sol.history[-1].residual_norm < NEWTON_TOL
    assert sol.history[-1].T == sol.control.t_star


@pytest.mark.parametrize("name", ["wmel", "wmelpop"])
@pytest.mark.parametrize("grid_n", [100, 2000])
def test_final_horizon_settles_in_few_sweeps(name, grid_n, request):
    """Near the solution every Newton iteration is a full step and the
    residual norm falls at least quadratically, so the final horizon moves
    by less than 1e-6 days in the last iteration (measured: the last 3 or
    more steps full, the last moving T by 3.6e-9 / 1.6e-7 at grid 100 and
    6.6e-10 / 1.9e-7 at grid 2,000, wmel / wmelpop)."""
    if grid_n == 2000:
        sol = request.getfixturevalue(f"{name}_solution")
    else:
        params = request.getfixturevalue(name)
        sol = solve(params, ocp_config(build_scenario(params), grid_n=grid_n))
    *_, before, prev, last = sol.history
    assert before.halvings == prev.halvings == last.halvings == 0
    assert last.residual_norm <= prev.residual_norm**2
    assert abs(last.T - prev.T) < 1e-6


def test_solver_work_at_paper_grid(wmel_solution, wmelpop_solution):
    # Measured: 5 / 6 and 8 / 10 iterations / passes.
    for sol in (wmel_solution, wmelpop_solution):
        assert sol.stats["iterations"] <= 9
        assert sol.stats["passes"] <= 12


@pytest.mark.parametrize("n", [10, 12, 99, 101, 600, 2000, 2001])
def test_segments_cover_the_grid(n):
    """Every grid of 10 steps or more is cut into at most 25 segments, as
    short as that allows, but the last, which holds the remainder."""
    m, k = ocp._segments(n)
    last = n - (k - 1) * m
    assert m == -(-n // 25) and k <= 25 and 1 <= last <= m
    assert ocp._segments(100) == (4, 25) and ocp._segments(10) == (1, 10)


# t* at grid 2,000 (the sweep's agree to 1e-5), and how far a coarser grid's
# discretization may move it (measured at most 2.9e-2, 3.8e-4 and 3.3e-6).
LONG_HORIZONS = {("wmel", 12.0): 276.4485, ("wmel", 20.0): 143.0742,
                 ("wmelpop", 125.0): 315.8186, ("wmelpop", 130.0): 270.7121,
                 ("wmelpop", 150.0): 182.8825}
GRID_REL = {20: 4e-2, 40: 1e-3, 400: 1e-5}


@pytest.mark.parametrize("grid_n", sorted(GRID_REL))
@pytest.mark.parametrize("name,cap", sorted(LONG_HORIZONS))
def test_long_horizons_converge(name, cap, grid_n, request):
    """Near the smallest feasible caps the horizon reaches 140-320 days, and
    at grid 20 a step is up to 16 days.  The start's adjoints, run backward
    along its pass, and segments of at most 4 % of the grid keep Newton
    within a few passes (measured at most 10)."""
    params = request.getfixturevalue(name)
    sol = solve(params, ocp_config(build_scenario(params, cap_l=cap), grid_n=grid_n))
    assert sol.converged and sol.stats["residual_norm"] < NEWTON_TOL
    assert sol.stats["passes"] <= 12
    assert sol.control.t_star == pytest.approx(LONG_HORIZONS[name, cap], rel=GRID_REL[grid_n])


def test_small_weight_starts_at_the_cap(wmelpop):
    """With P = 1,000 the start's first rate, sqrt(2P) = 44.7 a day, does not
    bring wmelpop to the target within MAX_HORIZON; the cap does, so the
    start bisects between the two for the slowest rate that does, and the
    solve converges from that pass (measured: 10 passes) with u(0) =
    sqrt(2P) (the sweep read 197.2523 days)."""
    sc = build_scenario(wmelpop)
    sol = solve(wmelpop, ocp_config(sc, weight_p=1000.0, grid_n=100))
    assert sol.converged and sol.stats["residual_norm"] < NEWTON_TOL
    assert sol.control.t_star == pytest.approx(197.2527, rel=1e-5)
    assert sol.control.values[0] == pytest.approx(math.sqrt(2000.0), rel=1e-6)


def test_small_weight_starts_from_a_reaching_pass(wmel):
    """With P = 10 wmel's optimum takes 399.05 days, just inside
    MAX_HORIZON.  A start from the cap's pass, 13.3 days, left Newton's
    line search at T = 1e-8 with no value; the slowest constant rate that
    reaches the target starts it close enough to converge (measured: 8
    passes)."""
    sol = solve(wmel, ocp_config(build_scenario(wmel), weight_p=10.0, grid_n=100))
    assert sol.converged
    assert sol.control.t_star == pytest.approx(399.052, abs=1e-4)
    assert sol.control.values[0] == pytest.approx(math.sqrt(20.0), rel=1e-6)


def test_uneven_segments_solve(wmel, wmel_solution):
    """At grid 2,001 the last segment is one step shorter; the solve still
    meets its tolerance and moves t* by discretization error only."""
    sol = solve(wmel, ocp_config(build_scenario(wmel), grid_n=2001))
    assert ocp._segments(2001) == (81, 25)
    assert sol.stats["residual_norm"] < NEWTON_TOL
    assert len(sol.control.times) == 2002 and sol.states.shape == (2002, 2)
    assert sol.control.t_star == pytest.approx(wmel_solution.control.t_star, rel=1e-6)


@pytest.mark.parametrize("name", ["wmel", "wmelpop"])
def test_pontryagin_invariants_at_bench_grid(name, wmel, wmelpop):
    """At grid 100, lambda2(0) is its closed form (H(0) = 0 is one of the
    Newton equations) and the Hamiltonian spread stays within 20 (wmel) and
    400 (wmelpop) (measured: 16.0 and 346)."""
    params = {"wmel": wmel, "wmelpop": wmelpop}[name]
    spread = {"wmel": 20.0, "wmelpop": 400.0}[name]
    cfg = ocp_config(build_scenario(params), grid_n=100)
    sol = solve(params, cfg)
    expect = initial_release_adjoint(cfg.weight_p, cfg.cap_l)
    assert sol.adjoints[0, 1] == pytest.approx(expect, rel=1e-6)
    assert sol.residuals["hamiltonian_spread"] <= spread


def test_pontryagin_invariants_at_paper_grid(
    wmel_scenario, wmelpop_scenario, wmel_solution, wmelpop_solution
):
    # lambda2(0) has a closed form from the wild equilibrium, and H is
    # constant along the optimum; grid 2000 meets both (measured: spreads
    # 0.0071 and 0.35).
    for scenario, sol in ((wmel_scenario, wmel_solution), (wmelpop_scenario, wmelpop_solution)):
        cfg = ocp_config(scenario)
        expect = initial_release_adjoint(cfg.weight_p, cfg.cap_l)
        assert sol.adjoints[0, 1] == pytest.approx(expect, rel=1e-6)
        spread = sol.residuals["hamiltonian_spread"]
        assert spread == np.ptp(sol.hamiltonian_grid)
        assert spread <= 0.5
        # H(0) / P is one of Newton's equations.
        assert sol.residuals["hamiltonian"] == abs(sol.hamiltonian_grid[0])
        assert sol.residuals["hamiltonian"] <= NEWTON_TOL * cfg.weight_p


def test_large_cap_not_reported_as_too_small(wmelpop):
    """Above sqrt(2P) = 1,414.2 the cap does not bind: at grids 100 and
    2,000 the solve converges and releases at sqrt(2P) from the start
    (wmelpop at cap 2,000)."""
    sc = build_scenario(wmelpop, cap_l=2000.0)
    for grid_n in (100, 2000):
        sol = solve(wmelpop, ocp_config(sc, grid_n=grid_n))
        assert sol.converged
        assert sol.control.values[0] == pytest.approx(math.sqrt(2.0 * P_DEFAULT), rel=1e-2)
