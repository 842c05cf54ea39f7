"""Free-terminal-time optimal release problem via the Pontryagin conditions.

Objective: minimize integral of (P + u^2/2) dt subject to the release
model, x(0) = initial_x, y(0) = 0, terminal condition x(T) = terminal_x,
0 <= u <= L, with T free.  The stationarity system couples the state pair
to two adjoints, lambda' = -J^T lambda with lambda2(T) = 0, and the optimal
control is the clamp of lambda2 to [0, L].  The problem is autonomous, so H
is constant along an extremal and the free-horizon condition H(T) = 0 is
H(0) = 0.

Solver: multiple shooting (Stoer & Bulirsch 2002, sec. 7.3; Bock & Plitt
1984) on the OCP's own uniform grid of n steps over [0, T], cut into K
segments (``_segments``).  Each segment starts from a shooting node, the
state and adjoints (x, y, lambda1, lambda2); the last one runs backward from
the terminal node, where x = terminal_x and lambda2 = 0 hold exactly.  The
unknowns are lambda(0), T, the interior nodes and the terminal y and
lambda1; the equations are the gaps where the forward segments end and
H(0) = 0.  One ``sim.rk4`` pass of the 4-state extremal field, with the
clamp inside the stages, carries every segment as a row, beside the rows of
each node and of T perturbed for forward differences: one pass gives the
residual and its Jacobian.  Damped Newton (Deuflhard 2011, ch. 3) solves the
system, backtracking on the residual norm (Armijo); every trial is a full
pass, so an accepted trial's Jacobian serves the next iteration.  The start
is one constant-rate pass until x crosses the target, with the adjoints run
backward along it (``_start``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from . import model
from .model import rhs_arrays
from .params import StrainParams
from .sim import rk4


class CapInfeasibleError(RuntimeError):
    """Terminal target unreachable under the release capacity."""


class NonConvergenceError(RuntimeError):
    """Newton's budget spent before the residual norm fell below NEWTON_TOL."""


class CoarseGridError(ValueError):
    """The grid is too coarse for RK4 to follow the start."""


# The longest horizon the start pass tries, and its step (days).
MAX_HORIZON = 400.0
START_STEP = 0.25
# Newton stops below NEWTON_TOL in the residual's 2-norm (the gaps in their
# own units, H(0) divided by P) within MAX_ITERATIONS, each backtracking up
# to MAX_HALVINGS times (Armijo constant ARMIJO).
NEWTON_TOL = 1e-6
MAX_ITERATIONS = 50
MAX_HALVINGS = 30
ARMIJO = 1e-4
FD_STEP = 1e-7  # forward-difference step, relative to max(|v|, 1)

# The field factories the solver calls, by module name so that a profiler
# can wrap them; the field runs on arrays, its coefficients 0-d arrays.
make_rhs = partial(model.make_rhs, exp=np.exp)
make_jacobian = model.make_jacobian


@dataclass(frozen=True)
class OCPConfig:
    """Solver configuration; ``scenarios.ocp_config`` sets the two ends from the scenario."""

    cap_l: float
    initial_x: float
    terminal_x: float
    weight_p: float = 1e6
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


# Work counts of one solve: Newton iterations, shooting passes (the start's
# and every line-search trial's), rejected trials, and the final residual norm.
STATS_KEYS = ("iterations", "passes", "halvings", "residual_norm")


class NewtonStep(NamedTuple):
    """One Newton iteration: the horizon and residual norm it reached, and
    the trials it rejected (its step is 2^-halvings of Newton's)."""

    T: float
    residual_norm: float
    halvings: int


@dataclass(frozen=True)
class OCPSolution:
    control: ContinuousControl
    states: np.ndarray     # (n+1, 2)
    adjoints: np.ndarray   # (n+1, 2)
    objective_j: float
    total_released: float
    residuals: dict[str, float]
    converged: bool  # Newton's rule, so true on every returned solution
    mu: float  # lambda1(T), the multiplier of the terminal condition
    hamiltonian_grid: np.ndarray
    stats: dict[str, float]  # solver work, keyed by STATS_KEYS
    history: tuple[NewtonStep, ...]  # one row per Newton iteration, in order


def _hamiltonian(f, l1, l2, u, weight_p: float):
    """-P - u^2/2 + l1 f1 + l2 (f2 + u), where f = (f1, f2) is the
    uncontrolled field; every argument may be a float or an array."""
    fx, fy = f
    return -weight_p - 0.5 * u * u + l1 * fx + l2 * (fy + u)


def objective(control: ContinuousControl, weight_p: float) -> float:
    """Composite trapezoidal quadrature of P + u^2/2 over [0, t_star]."""
    integrand = weight_p + 0.5 * control.values**2
    return float(np.trapezoid(integrand, control.times))


def _extremal_field(params: StrainParams, cap: float):
    """The 4-state field of the extremals as an ``rk4`` field on stacked
    (2, R) arrays, z = (x, y) and lam = (lambda1, lambda2): the state moves
    under u = clamp(lambda2, 0, cap) and the adjoint by -J(z)^T lam."""
    linearize = make_jacobian(params)
    zero, cap = np.array(0.0), np.array(cap)

    def field(z, lam, _):
        (x, y), (l1, l2) = z, lam
        f, j = linearize(x, y, np.minimum(np.maximum(l2, zero), cap))
        return np.array(f), np.array(_adjoint(j, l1, l2))

    return field


def _adjoint(j, l1, l2):
    """-J^T lambda from J's row-major entries j."""
    j11, j12, j21, j22 = j
    return -(j11 * l1 + j21 * l2), -(j12 * l1 + j22 * l2)


def _segments(n: int) -> tuple[int, int]:
    """Steps per segment and segment count K for an n-step grid: at most
    25 segments, as short as that allows (K = 25 at grids 100 and 2,000, 10
    at grid 10), the last one shorter when they do not divide n.

    Short segments keep the shooting well conditioned where the horizon is
    long and the grid coarse: wmelpop at cap 130 (271 days) did not converge
    at grid 20 on segments of 5 steps, and took 15 passes at grid 40
    against 5.  At most 25 keep the Newton system within 99 unknowns, which
    OpenBLAS factors on one thread.  From 100 it wakes its thread pool: at
    grid 2,000 with K = 100 a fresh process's first solve took 0.4-0.7 s
    against 40-75 ms after (2-core shared host), and the last bits of t*
    changed with the thread count.
    """
    m = -(-n // 25)
    return m, -(-n // m)


def _start(params: StrainParams, cfg: OCPConfig, k: int, m: int):
    """The Newton start: the shooting nodes (k, 4) and the horizon.

    One pass at a constant rate, in START_STEP-day steps until x crosses
    the target, gives T0 and each node's state.  The rate is the optimum's
    u(0), min(L, sqrt(2P)); when that pass does not reach the target within
    MAX_HORIZON days, it is the slowest rate that does, bisected to 0.1 %
    between that rate and L.  A grid whose steps are longer than START_STEP
    must carry the pass too, or it is too coarse for RK4.

    The adjoints run backward along the pass from lambda = (mu, 0) at T0,
    mu from H(T0) = 0, with the pass's Jacobians as the drive.  lambda2 is
    raised to at least a linear fall from its closed form at the wild
    equilibrium (H(0) = 0 with f = 0 there) to 0 at T0: where the pass
    overshoots, the backward lambda2 sits at or below 0, where the clamp
    hides every control from the Newton system.
    """
    cap, p, x0, x_target = cfg.cap_l, cfg.weight_p, cfg.initial_x, cfg.terminal_x
    rhs = model.make_rhs(params)

    def reach(rate: float):
        """The pass at ``rate``, or None when it misses the target."""
        xs, ys = [x0], [0.0]
        while xs[-1] > x_target and len(xs) <= MAX_HORIZON / START_STEP:
            more_x, more_y = rk4(rhs, xs[-1], ys[-1], [rate] * 41, START_STEP)
            xs += more_x[1:]
            ys += more_y[1:]
        return (xs, ys) if xs[-1] <= x_target else None

    lo = rate = min(cap, math.sqrt(2.0 * p))
    found = reach(rate)
    if found is None and lo < cap:
        rate, found = cap, reach(cap)
    if found is None:
        raise CapInfeasibleError(
            f"target not reached in {MAX_HORIZON:g} days at {cap:g} a day; cap_l too small"
        )
    while rate - lo > 1e-3 * rate:  # lo misses, rate reaches
        mid = 0.5 * (lo + rate)
        trial = reach(mid)
        lo, rate, found = (mid, rate, found) if trial is None else (lo, mid, trial)
    xs, ys = found
    i = next(i for i, x in enumerate(xs) if x <= x_target)
    t0 = (i - 1 + (xs[i - 1] - x_target) / (xs[i - 1] - xs[i])) * START_STEP
    if t0 / cfg.grid_n > START_STEP:  # RK4 followed this pass at START_STEP, not beyond
        try:
            xs_grid, ys_grid = rk4(rhs, x0, 0.0, [rate] * (cfg.grid_n + 1), t0 / cfg.grid_n)
        except OverflowError:
            xs_grid = ys_grid = [math.inf]
        if not math.isfinite(sum(xs_grid) + sum(ys_grid)):
            raise CoarseGridError(
                f"grid_n={cfg.grid_n} is too coarse: the start's pass in RK4 steps of "
                f"{t0 / cfg.grid_n:.3g} days overflows"
            )
    t = np.append(np.arange(k - 1) * m, cfg.grid_n) * (t0 / cfg.grid_n)
    days = np.arange(len(xs)) * START_STEP
    x, y = np.interp(t, days, xs), np.interp(t, days, ys)
    x[-1] = x_target
    back = np.linspace(t0, 0.0, int(t0) + 2)  # at most a day a step
    jac = make_jacobian(params)(np.interp(back, days, xs), np.interp(back, days, ys))[1]
    mu = p / rhs(x_target, y[-1], 0.0)[0]
    l1, l2 = rk4(lambda l1, l2, j: _adjoint(j, l1, l2), mu, 0.0, list(np.column_stack(jac)),
                 back[1] - back[0])
    l2_0 = p / cap + cap / 2.0 if cap < math.sqrt(2.0 * p) else math.sqrt(2.0 * p)
    l1 = np.interp(t, back[::-1], l1[::-1])
    l2 = np.maximum(np.interp(t, back[::-1], l2[::-1]), l2_0 * (1.0 - t / t0))
    l2[-1] = 0.0
    return np.column_stack((x, y, l1, l2)), t0


def solve(params: StrainParams, cfg: OCPConfig) -> OCPSolution:
    """Solve the free-time problem; see module docstring for the contract.

    Raises:
        ValueError: terminal_x does not lie strictly between 0 and initial_x.
        CapInfeasibleError: the start pass does not reach the target
            within MAX_HORIZON days at the full cap (cap_l too small).
        CoarseGridError: RK4 overflows on the start's pass at this grid_n's
            step, or on the first shooting pass.
        NonConvergenceError: Newton's line search or iteration budget is
            spent before the residual norm is below NEWTON_TOL.
    """
    if not 0.0 < cfg.terminal_x < cfg.initial_x:
        raise ValueError("terminal_x must lie strictly between 0 and the initial state")

    n, cap, p = cfg.grid_n, cfg.cap_l, cfg.weight_p
    m, k = _segments(n)
    last = n - (k - 1) * m  # the last segment's steps
    field = _extremal_field(params, cap)
    f1_0, f2_0 = make_rhs(params)(cfg.initial_x, 0.0, 0.0)
    # Rows of a pass: 6 blocks of k segments, the base nodes, then each of
    # the 4 node components perturbed, then T perturbed.  The last segment
    # runs backward from T, so its node is the terminal one.
    backward = np.arange(6 * k) % k == k - 1
    ends = np.where(backward, last, m)
    # The unknowns among the nodes' 4k components and T: all but x(0), y(0)
    # and the terminal x and lambda2, which the boundary conditions fix.
    free = np.r_[2:4 * k - 4, 4 * k - 3, 4 * k - 2, 4 * k]
    size = 4 * k - 3  # unknowns and equations
    seg = np.arange(k - 1)
    stats = dict.fromkeys(STATS_KEYS, 0)

    def shoot(nodes: np.ndarray, T: float):
        """One pass from the shooting nodes: the residual's norm, the
        residual (the gaps where each forward segment ends, then H(0) / P),
        its Jacobian in the unknowns and the base rows' steps."""
        stats["passes"] += 1
        d_node = FD_STEP * np.maximum(np.abs(nodes), 1.0)
        d_t = FD_STEP * max(T, 1.0)
        rows = np.tile(nodes, (6, 1, 1))
        rows[1 + np.arange(4), :, np.arange(4)] += d_node.T
        h = np.full((6, k), T / n)
        h[5] = (T + d_t) / n
        rows = rows.reshape(6 * k, 4).T
        with np.errstate(over="ignore", invalid="ignore"):
            zs, lams = rk4(field, rows[:2], rows[2:], [0.0] * (m + 1),
                           np.where(backward, -1.0, 1.0) * h.ravel())
        steps = np.concatenate((zs, lams), axis=1)  # (m + 1, 4, 6k)
        if not np.isfinite(steps).all():
            return math.inf, None, None, None
        end = steps[ends, :, np.arange(6 * k)].reshape(6, k, 4)
        base = end[0]
        u_0 = min(max(nodes[0, 3], 0.0), cap)
        residual = np.append(
            (base[:-1] - np.concatenate((nodes[1:-1], base[-1:]))).ravel(),
            _hamiltonian((f1_0, f2_0), nodes[0, 2], nodes[0, 3], u_0, p) / p,
        )
        # d(end component i of segment j) / d(node component c of segment j)
        sens = ((end[1:5] - base) / d_node.T[:, :, None]).transpose(1, 2, 0)
        d_end = (end[5] - base) / d_t
        blocks = np.zeros((k - 1, 4, k, 4))  # gap rows by node columns
        blocks[seg, :, seg, :] = sens[:-1]
        blocks[seg[:-1], :, seg[:-1] + 1, :] = -np.eye(4)
        blocks[-1, :, -1, :] = -sens[-1]
        jac = np.zeros((size, 4 * k + 1))
        jac[:-1, :-1] = blocks.reshape(4 * k - 4, 4 * k)
        jac[:-1, -1] = (d_end[:-1] - np.outer(seg == k - 2, d_end[-1])).ravel()
        jac[-1, 2:4] = f1_0 / p, (f2_0 + u_0) / p  # dH/dlambda: u(0) maximizes H
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(residual))
        return norm, residual, jac[:, free], steps[..., :k]

    nodes, T = _start(params, cfg, k, m)
    norm, residual, jac, steps = shoot(nodes, T)
    if not math.isfinite(norm):
        raise CoarseGridError(
            f"grid_n={n} is too coarse: RK4 steps of {T / n:.3g} days overflow from the start"
        )
    history = []
    while norm >= NEWTON_TOL:
        if len(history) == MAX_ITERATIONS:
            raise NonConvergenceError(
                f"residual norm {norm:.3g} after {MAX_ITERATIONS} Newton iterations"
            )
        try:
            d = np.linalg.solve(jac, -residual)
        except np.linalg.LinAlgError as err:
            raise NonConvergenceError(f"singular Newton system at T={T:.6g}") from err
        d_nodes = np.zeros(4 * k)
        d_nodes[free[:-1]] = d[:-1]
        d_nodes = d_nodes.reshape(k, 4)
        step = 1.0
        for halvings in range(MAX_HALVINGS + 1):
            if T + step * d[-1] > 0.0:
                trial = shoot(nodes + step * d_nodes, T + step * d[-1])
                if trial[0] <= (1.0 - ARMIJO * step) * norm:  # False when nan
                    break
            step *= 0.5
        else:
            raise NonConvergenceError(
                f"line search failed after {MAX_HALVINGS} halvings at T={T:.6g} "
                f"(residual norm {norm:.3g})"
            )
        nodes, T = nodes + step * d_nodes, T + step * d[-1]
        norm, residual, jac, steps = trial
        stats["halvings"] += halvings
        history.append(NewtonStep(T, norm, halvings))
    stats["iterations"], stats["residual_norm"] = len(history), norm

    # The grid: each forward segment's steps but its end, then the last
    # segment's, back in time order.
    grid = np.concatenate((steps[:m, :, :-1].transpose(2, 0, 1).reshape(-1, 4),
                           steps[last::-1, :, -1]))
    states, adjoints = grid[:, :2], grid[:, 2:]
    times = np.linspace(0.0, T, n + 1)
    values = np.clip(adjoints[:, 1], 0.0, cap)
    control = ContinuousControl(times=times, values=values, t_star=T, cap_l=cap)
    h_grid = _hamiltonian(
        rhs_arrays(params, states[:, 0], states[:, 1]),
        adjoints[:, 0], adjoints[:, 1], values, p,
    )
    residuals = {  # reported, not judged: Newton's rule decides
        "hamiltonian": abs(float(h_grid[0])),
        "hamiltonian_spread": float(np.ptp(h_grid)),
    }
    return OCPSolution(
        control=control,
        states=states,
        adjoints=adjoints,
        objective_j=objective(control, p),
        total_released=float(np.trapezoid(values, times)),
        residuals=residuals,
        converged=stats["residual_norm"] < NEWTON_TOL,
        mu=float(adjoints[-1, 0]),
        hamiltonian_grid=h_grid,
        stats=stats,
        history=tuple(history),
    )
