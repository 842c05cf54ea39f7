"""Free-terminal-time optimal release problem via the Pontryagin conditions.

Objective: minimize integral of (P + u^2/2) dt subject to the release
model, x(0) = x_sharp, y(0) = 0, terminal condition x(T) = terminal_x,
0 <= u <= L, with T free.  The stationarity system couples the state pair
to two adjoints with lambda2(T) = 0 and the optimal control is the clamp
of lambda2 to [0, L]; the optimal horizon satisfies H(T) = 0.

Solver: forward-backward sweeps on a fixed horizon where the unknown
terminal multiplier mu = lambda1(T) enforces the terminal state.  Both
passes run ``sim.rk4``, the forward one on floats.  The adjoint system is
linear in its terminal value, so each sweep needs one unit backward pass:
one ``rk4`` step on arrays over every grid step gives the steps' 2x2
transition matrices, and a scan of those from T the unit adjoint.  The
multiplier is then located by forward passes only: the first at the root
of a first-order model of x(T) in mu (no pass needed), then a Newton step
whose slope the unit adjoint gives, then secant steps, kept inside a
bracket by Illinois false position.  Sweeps are relaxed and
Anderson(1)-accelerated.  Illinois false position on T drives H(T) to
zero; a horizon whose sweep does not settle has no value, and one far from
the root is settled only to the sign of its H(T).  The bracket's short end
comes from one full-capacity pass, its long end from 1.2x steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .model import equilibria, make_jacobian, make_rhs, rhs_arrays
from .params import StrainParams
from .sim import rk4


class CapInfeasibleError(RuntimeError):
    """Terminal target unreachable under the release capacity."""


class NonConvergenceError(RuntimeError):
    """Iteration budget exhausted before residuals met tolerances."""


class CoarseGridError(ValueError):
    """The grid is too coarse for RK4 to follow the full-capacity pass."""


# A solution converges when its boundary and clamp residuals are within
# TOL_BC and |H(T)| within TOL_H.
TOL_BC = 0.5
TOL_H = 200.0
# Each sweep moves the control by this fraction of its change before the
# Anderson step; from 0.7 up some wmelpop horizons get no value.
SWEEP_RELAXATION = 0.5
# H(T) evaluations a solve may spend, and the longest horizon it tries.
MAX_OUTER_ITERATIONS = 100
MAX_HORIZON = 400.0
# Far from the root a sweep may stop once its control change is below
# SIGN_DU_REL of the cap while |H(T)| > SIGN_H: from cold starts, H(T) at
# that change stayed within 4.3e3 of its value at a 2e-5 change (13
# horizons of both strains, grids 100 and 2000), a tenfold margin on the sign.
SIGN_DU_REL = 1e-2
SIGN_H = 250.0 * TOL_H


@dataclass(frozen=True)
class OCPConfig:
    """Solver configuration.

    ``terminal_x`` defaults to one individual below the saddle abscissa
    (the release stopping target); ``initial_x`` defaults to the wild-only
    equilibrium computed from the parameters.
    """

    cap_l: float
    weight_p: float = 1e6
    terminal_x: Optional[float] = None
    initial_x: Optional[float] = None
    grid_n: int = 2000

    def __post_init__(self) -> None:
        if self.weight_p <= 0 or self.cap_l <= 0:
            raise ValueError("weight_p and cap_l must be positive")
        if self.grid_n < 10:
            raise ValueError("grid_n too small")


@dataclass(frozen=True)
class ContinuousControl:
    """A release rate sampled at ``times`` up to ``t_star``, read by
    ``sim.sampled_rate``: the OCP's grid is uniform over [0, t_star], a
    CSV's is the file's own."""

    times: np.ndarray
    values: np.ndarray
    t_star: float
    cap_l: float


# Work counts of one solve: H(T) evaluations, sweeps, RK4 passes, and the
# multiplier searches with their longest run and how many hit their cap.
STATS_KEYS = (
    "outer_evaluations", "sweeps", "forward_passes", "backward_passes",
    "mu_searches", "mu_passes_max", "mu_searches_capped",
)


class HorizonStep(NamedTuple):
    """One H(T) evaluation: its horizon, H(T) (None when the horizon has no
    value), the sweeps and forward passes it cost, and how its sweep was
    settled: "sign" (far from the root, to the sign of H(T)), "normal",
    "tight" (near the root), or None when the horizon has no value."""

    T: float
    h_terminal: Optional[float]
    sweeps: int
    forward_passes: int
    settled: Optional[str]


@dataclass(frozen=True)
class OCPSolution:
    control: ContinuousControl
    states: np.ndarray     # (n+1, 2)
    adjoints: np.ndarray   # (n+1, 2)
    objective_j: float
    total_released: float
    residuals: dict[str, float]
    converged: bool
    mu: float
    hamiltonian_grid: np.ndarray
    stats: dict[str, int]  # solver work, keyed by STATS_KEYS
    history: tuple[HorizonStep, ...]  # one row per H(T) evaluation, in order


def _hamiltonian(f, l1, l2, u, weight_p: float):
    """-P - u^2/2 + l1 f1 + l2 (f2 + u), where f = (f1, f2) is the
    uncontrolled field; every argument may be a float or an array."""
    fx, fy = f
    return -weight_p - 0.5 * u * u + l1 * fx + l2 * (fy + u)


def objective(control: ContinuousControl, weight_p: float) -> float:
    """Composite trapezoidal quadrature of P + u^2/2 over [0, t_star]."""
    integrand = weight_p + 0.5 * control.values**2
    return float(np.trapezoid(integrand, control.times))


def _adjoint_field(jac):
    """The adjoint system as an ``rk4`` field (l1, l2, z) -> -J(z)^T (l1, l2)
    with the state as a complex drive z = x + iy, floats or arrays.  J(z) is
    kept while ``rk4`` passes the same z object (k2 and k3 share the
    midpoint), so one step makes 3 Jacobian calls, not 4.
    """
    last = [None, None]

    def field(l1, l2, z):
        if z is not last[0]:
            last[:] = z, jac(z.real, z.imag)
        j11, j12, j21, j22 = last[1]
        return -(j11 * l1 + j21 * l2), -(j12 * l1 + j22 * l2)

    return field


class _Bracket:
    """Illinois false position (Dowell & Jarratt 1971) on [a, b], where the
    residual changes sign between the ends.

    ``fa`` may be None, an end with no value: the next point is then the
    midpoint.  When the same end is kept twice in a row, the other end's
    stored residual is halved, so a convex residual cannot pin one end.
    """

    def __init__(self, a: float, fa: Optional[float], b: float, fb: float):
        self.a, self.fa, self.b, self.fb = a, fa, b, fb
        self.moved = None  # the end replaced by the last update

    def point(self) -> float:
        a, fa, b, fb = self.a, self.fa, self.b, self.fb
        m = b - fb * (b - a) / (fb - fa) if fa is not None and fa != fb else 0.5 * (a + b)
        return m if a < m < b else 0.5 * (a + b)

    def update(self, m: float, fm: Optional[float]) -> None:
        """Replace the end whose residual has fm's sign (no value: the a end)."""
        if fm is not None and (fm > 0.0) == (self.fb > 0.0):
            if self.moved == "b" and self.fa is not None:
                self.fa *= 0.5
            self.b, self.fb, self.moved = m, fm, "b"
        else:
            if self.moved == "a":
                self.fb *= 0.5
            self.a, self.fa, self.moved = m, fm, "a"


def _mu_slope(phi2: np.ndarray, u: np.ndarray, h: float, cap: float) -> float:
    """dx(T)/dmu under u = clamp(mu phi2): x(T) responds to u(t) by phi2(t)
    and du/dmu = phi2 where the clamp is inactive, so the slope is the
    trapezoid sum of phi2^2 over the unclamped nodes."""
    s = np.where((u > 0.0) & (u < cap), phi2 * phi2, 0.0)
    return h * float(s.sum() - 0.5 * (s[0] + s[-1]))


def _predict_mu(
    phi2: np.ndarray, u: np.ndarray, r_base: float, h: float, cap: float, mu: float, xtol: float
) -> float:
    """The root of the first-order model of x(T) - x_target in mu, made about
    the forward pass under ``u`` (residual ``r_base``): r(mu) = r_base +
    h sum' phi2 (clamp(mu phi2) - u), with ``_mu_slope``'s trapezoid weights.

    For mu < 0 the model is increasing and convex (more nodes reach the cap
    as mu falls), so Newton's steps from ``mu`` settle on its root without a
    pass; the previous ``mu`` is kept when they cannot.
    """
    w = h * phi2
    w[0] *= 0.5
    w[-1] *= 0.5
    r_const = r_base - float(w @ u)
    m = mu
    for _ in range(_PREDICT_STEPS):
        v = np.clip(m * phi2, 0.0, cap)
        r = r_const + float(w @ v)
        slope = _mu_slope(phi2, v, h, cap)
        if abs(r) < xtol or slope <= 0.0:
            break
        m -= r / slope
    return m if m < 0.0 else mu


# Passes a mu search may spend, and Newton steps on its first-order model.
_MU_ITERATIONS = 60
_PREDICT_STEPS = 8
# A sweep whose control change sets no new low for this many sweeps in a
# row has locked into a cycle or is diverging; at grid 100 a settling one
# never went more than 2, at either strain and x0 from x# - 50 to x# + 600.
_STALL_SWEEPS = 10


class _Sweeper:
    """Inner machinery at fixed horizon: states, unit adjoints, multiplier."""

    def __init__(self, params: StrainParams, cfg: OCPConfig, x0: float, x_target: float):
        self.rhs = make_rhs(params)
        self.adj = _adjoint_field(make_jacobian(params))
        self.cfg = cfg
        self.x0 = x0
        self.x_target = x_target
        self.stats = dict.fromkeys(STATS_KEYS, 0)

    def _forward(self, u: list[float], h: float):
        self.stats["forward_passes"] += 1
        return rk4(self.rhs, self.x0, 0.0, u, h)

    def _backward(self, xs: list[float], ys: list[float], h: float):
        """Adjoints from the unit terminal data (1, 0) back to t = 0; the
        system is linear, so lambda1(T) = mu scales them.

        One ``rk4`` step on arrays runs every grid step at once, backward
        from node i + 1 to node i with drive [z_{i+1}, z_i], from both unit
        vectors: it gives each step's 2x2 transition matrix.  A scan of
        those matrices from T then carries (1, 0) back to t = 0.
        """
        self.stats["backward_passes"] += 1
        z = np.array(xs) + 1j * np.array(ys)
        unit = np.eye(2)[:, :, None]  # row k of (l1, l2) starts from e_k
        (_, l1), (_, l2) = rk4(self.adj, unit[0], unit[1], [z[1:], z[:-1]], -h)
        (r11, r12), (r21, r22) = l1.tolist(), l2.tolist()
        n = len(r11)
        p1, p2 = [1.0] * (n + 1), [0.0] * (n + 1)
        a, b = 1.0, 0.0
        for i in range(n - 1, -1, -1):
            a, b = r11[i] * a + r12[i] * b, r21[i] * a + r22[i] * b
            p1[i], p2[i] = a, b
        return np.array(p1), np.array(p2)

    def _mu_search(
        self, phi2: np.ndarray, u: np.ndarray, r_base: float, h: float,
        mu_guess: float, r_zero: float, xtol: float,
    ):
        """Locate mu < 0 with x(T) = x_target; forward passes only.

        ``r_zero`` > 0 is the residual at mu = 0, the positive end of every
        bracket.  The first pass is at the root of the first-order model
        made about the last forward pass, under ``u`` with residual
        ``r_base`` (``_predict_mu``); the first step is Newton's with the
        adjoint slope (``_mu_slope``), later ones are secants through the
        last two points.  A step that leaves the known bracket takes the
        bracket's Illinois point instead, and while no negative end is known
        mu doubles.
        """
        cap = self.cfg.cap_l
        stats = self.stats
        stats["mu_searches"] += 1
        passes_before = stats["forward_passes"]

        def resid(mu: float):
            u = np.clip(mu * phi2, 0.0, cap)
            xs, ys = self._forward(u.tolist(), h)
            return xs[-1] - self.x_target, (mu, u, xs, ys)

        try:
            mu = mu_guess if mu_guess < -1.0 else -1000.0
            mu = _predict_mu(phi2, u, r_base, h, cap, mu, xtol)
            pos = (0.0, r_zero)  # the residual rises with mu
            bracket = prev = None
            for _ in range(_MU_ITERATIONS):
                r, found = resid(mu)
                slope = _mu_slope(phi2, found[1], h, cap)
                # H(T) = -P + mu f1(T), so the multiplier's error r / slope
                # leaves |r f1 / slope| in H(T): keep that within TOL_H too.
                f1 = self.rhs(found[2][-1], found[3][-1], 0.0)[0]
                if abs(r) < xtol and (slope == 0.0 or abs(r * f1) <= TOL_H * slope):
                    return found
                if slope == 0.0 and r > 0.0:
                    # Every node sits on a clamp that a more negative mu keeps.
                    raise CapInfeasibleError("terminal target unreachable under cap_l")
                if prev is not None:
                    slope = (r - prev[1]) / (mu - prev[0])
                if bracket is not None:
                    bracket.update(mu, r)
                elif r < 0.0:
                    bracket = _Bracket(mu, r, *pos)
                else:
                    pos = (mu, r)
                m = mu - r / slope if slope > 0.0 else math.nan
                if bracket is not None:
                    if not bracket.a < m < bracket.b:
                        m = bracket.point()
                elif not m < mu:  # r > 0: the root lies below mu
                    m = 2.0 * mu
                prev, mu = (mu, r), m
            stats["mu_searches_capped"] += 1
            raise NonConvergenceError(
                f"mu search missed x(T) by more than {xtol:g} in {_MU_ITERATIONS} steps"
            )
        finally:
            passes = stats["forward_passes"] - passes_before
            stats["mu_passes_max"] = max(stats["mu_passes_max"], passes)

    def converge(self, T: float, u: list[float], mu: float, tight: bool = False):
        """The settled sweep at horizon T: its control, states, multiplier
        and H(T), without the adjoints (``solve`` needs them at one horizon).

        A ``tight`` sweep (near the root) settles its control change to
        2e-5 of the cap within 300 sweeps.  Any other settles it to 1e-4 of
        the cap within 120, or stops once the change is below
        ``SIGN_DU_REL`` of the cap while |H(T)| exceeds ``SIGN_H``: only the
        sign of such an H(T) enters the outer bracket.  ``settled`` in the
        result says which test stopped it ("tight", "normal" or "sign").

        Raises CapInfeasibleError when no multiplier reaches the target and
        NonConvergenceError when the sweep does not settle: either way the
        horizon has no value.
        """
        n = self.cfg.grid_n
        cap = self.cfg.cap_l
        h = T / n
        max_sweeps, du_tol_rel = (300, 2e-5) if tight else (120, 1e-4)
        alpha = SWEEP_RELAXATION
        # A copy: an unusable horizon must not poison the caller's warm start.
        u = np.array(u, dtype=float)
        # At mu = 0 the control is zero whatever phi2 is, so this residual
        # depends on T alone.
        xs, _ = self._forward([0.0] * (n + 1), h)
        r_zero = xs[-1] - self.x_target
        if r_zero <= 0.0:
            raise CapInfeasibleError(
                "terminal target is crossed with zero control; nothing to optimize"
            )
        # The multiplier tolerance sets the sweep noise floor; keep it a
        # fraction of the control tolerance being asked for.
        xtol = max(0.2 * du_tol_rel * cap, 1e-6)
        xs, ys = self._forward(u.tolist(), h)
        settled = None
        best_du, stalled = math.inf, 0
        last = None  # (u, f, du) of the previous sweep
        for sweep in range(max_sweeps):
            self.stats["sweeps"] += 1
            _, phi2 = self._backward(xs, ys, h)
            mu, u_star, xs, ys = self._mu_search(
                phi2, u, xs[-1] - self.x_target, h, mu, r_zero, xtol
            )
            f = u_star - u
            du = float(np.max(np.abs(f)))
            # H(T) at lambda(T) = (mu, 0), where the control is clamp(0) = 0.
            h_T = _hamiltonian(self.rhs(xs[-1], ys[-1], 0.0), mu, 0.0, 0.0, self.cfg.weight_p)
            if du < du_tol_rel * cap:
                settled = "tight" if tight else "normal"
            elif not tight and du < SIGN_DU_REL * cap and abs(h_T) > SIGN_H:
                settled = "sign"
            if settled:
                u = u_star
                break
            best_du, stalled = (du, 0) if du < best_du else (best_du, stalled + 1)
            if stalled == _STALL_SWEEPS:
                break
            step = alpha * f
            if last is not None and du < last[2]:
                # Anderson(1) on the relaxed map u -> u + alpha f: the
                # secant through the last two sweeps removes the component
                # of the step that they share (Walker & Ni 2011).
                df = f - last[1]
                theta = float(df @ f) / float(df @ df)
                step -= theta * ((u - last[0]) + alpha * df)
            last = u, f, du
            u = np.clip(u + step, 0.0, cap)
            xs, ys = self._forward(u.tolist(), h)
        if not settled:
            raise NonConvergenceError(
                f"sweep did not settle at T={T:.6g} after {sweep + 1} sweeps (du={du:.3g})"
            )
        # xs, ys are the states under u = u_star from the multiplier search.
        return dict(
            u=u, xs=xs, ys=ys, mu=mu, h=h,
            h_terminal=h_T, x_terminal=xs[-1], sweep_delta=du, settled=settled,
        )


def solve(params: StrainParams, cfg: OCPConfig) -> OCPSolution:
    """Solve the free-time problem; see module docstring for the contract.

    Raises:
        CoarseGridError: the full-capacity pass overflows at this grid_n.
        CapInfeasibleError: a full-capacity pass does not reach the target
            within MAX_HORIZON days (cap_l too small).
        NonConvergenceError: no horizon up to MAX_HORIZON has H(T) <= 0, or
            the outer budget is exhausted with residuals above tolerances.
    """
    eq = equilibria(params)
    if eq.eu is None:
        raise ValueError("no coexistence equilibria; the release target is undefined")
    x_target = cfg.terminal_x if cfg.terminal_x is not None else eq.eu.state.x - 1.0
    x0 = cfg.initial_x if cfg.initial_x is not None else eq.ex.state.x
    if not 0.0 < x_target < x0:
        raise ValueError("terminal_x must lie strictly between 0 and the initial state")

    sweeper = _Sweeper(params, cfg, x0, x_target)
    n = cfg.grid_n
    u = [cfg.cap_l / 2.0] * (n + 1)
    mu = -1000.0
    history = []

    def H_at(T: float, tight: bool = False):
        nonlocal u, mu
        before = sweeper.stats["sweeps"], sweeper.stats["forward_passes"]
        h_T = settled = None
        try:
            out = sweeper.converge(T, u, mu, tight)  # no value: u, mu stay as they were
            h_T, settled = out["h_terminal"], out["settled"]
        finally:
            history.append(HorizonStep(
                T, h_T, sweeper.stats["sweeps"] - before[0],
                sweeper.stats["forward_passes"] - before[1], settled,
            ))
        u, mu = out["u"], out["mu"]
        return out

    # Bracket H(T) = 0: H > 0 means the horizon is too short, and so does a
    # horizon with no value (infeasible, or a sweep that does not settle).
    # No control reaches the target sooner than full capacity does, so the
    # node before that pass crosses it is a short end that needs no value.
    h_max = MAX_HORIZON / n
    try:
        xs, ys = sweeper._forward([cfg.cap_l] * (n + 1), h_max)
    except OverflowError:
        xs = ys = [math.inf]
    if not math.isfinite(sum(xs) + sum(ys)):
        raise CoarseGridError(
            f"grid_n={n} is too coarse: the full-capacity pass over {MAX_HORIZON:g} "
            f"days in steps of {h_max:.3g} days overflows"
        )
    crossing = next((i for i, x in enumerate(xs) if x <= x_target), None)
    if crossing is None:
        raise CapInfeasibleError(
            f"target not reached in {MAX_HORIZON:g} days at full capacity; cap_l too small"
        )
    no_value = (CapInfeasibleError, NonConvergenceError)
    lo_T, lo_out, last = (crossing - 1) * h_max, None, "none tried"
    hi_T = max(1.2 * lo_T, h_max)
    while True:
        if hi_T > MAX_HORIZON or len(history) >= MAX_OUTER_ITERATIONS:
            raise NonConvergenceError(
                f"no horizon from {lo_T:.6g} to {MAX_HORIZON:g} days has H(T) <= 0; "
                f"last: {last}"
            )
        try:
            hi_out = H_at(hi_T)
        except no_value as err:
            lo_T, lo_out, last = hi_T, None, err
        else:
            if hi_out["h_terminal"] <= 0.0:
                break
            lo_T, lo_out, last = hi_T, hi_out, f"H = {hi_out['h_terminal']:.6g}"
        hi_T *= 1.2

    # Illinois false position on H(T) within [lo_T, hi_T], finishing with
    # tight inner tolerances once close (the Hamiltonian noise floor
    # tracks the sweep tolerance).
    best = None
    r_lo = None if lo_out is None else lo_out["h_terminal"]
    bracket = _Bracket(lo_T, r_lo, hi_T, hi_out["h_terminal"])
    tight = False
    while len(history) < MAX_OUTER_ITERATIONS:
        m = bracket.point()
        try:
            out = H_at(m, tight=tight)
        except no_value:
            bracket.update(m, None)
            continue
        r_m = out["h_terminal"]
        if tight:
            best, T = out, m
            if abs(r_m) <= 0.5 * TOL_H:
                break
        a, b = bracket.a, bracket.b
        if not tight and (abs(r_m) <= 2.0 * TOL_H or b - a < 1e-4 * b):
            tight = True  # re-evaluate near the root at tight tolerance
        bracket.update(m, r_m)
        if bracket.b - bracket.a < 1e-9 * max(bracket.b, 1.0) and best is not None:
            break
    if best is None:
        T = 0.5 * (bracket.a + bracket.b)
        best = H_at(T, tight=True)

    out = best
    times = np.linspace(0.0, T, n + 1)
    values = np.array(out["u"])
    states = np.column_stack([out["xs"], out["ys"]])
    adjoints = out["mu"] * np.column_stack(sweeper._backward(out["xs"], out["ys"], out["h"]))
    control = ContinuousControl(times=times, values=values, t_star=T, cap_l=cfg.cap_l)

    p = cfg.weight_p
    h_grid = _hamiltonian(
        rhs_arrays(params, states[:, 0], states[:, 1]),
        adjoints[:, 0], adjoints[:, 1], values, p,
    )

    clamp_gap = float(np.max(np.abs(values - np.clip(adjoints[:, 1], 0.0, cfg.cap_l))))
    residuals = {
        "boundary": abs(out["x_terminal"] - x_target),
        "hamiltonian": abs(out["h_terminal"]),
        "sweep": out["sweep_delta"],
        "clamp": clamp_gap,
    }
    converged = (
        residuals["boundary"] <= TOL_BC
        and residuals["hamiltonian"] <= TOL_H
        and residuals["clamp"] <= TOL_BC
    )
    if not converged and len(history) >= MAX_OUTER_ITERATIONS:
        raise NonConvergenceError(
            f"outer iteration budget exhausted; residuals {residuals}"
        )
    return OCPSolution(
        control=control,
        states=states,
        adjoints=adjoints,
        objective_j=objective(control, p),
        total_released=float(np.trapezoid(values, times)),
        residuals=residuals,
        converged=converged,
        mu=out["mu"],
        hamiltonian_grid=h_grid,
        stats={**sweeper.stats, "outer_evaluations": len(history)},
        history=tuple(history),
    )
