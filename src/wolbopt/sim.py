"""Trajectory integration, impulsive releases, basin entry, separatrix.

Two integrators.  ``rk4`` is the fixed-step RK4 pass on a uniform grid,
for floats (the OCP forward and adjoint passes) or arrays (the GA batch
kernel).  Everything else here runs scipy's adaptive RK45 (Dormand-Prince
5(4) embedded pair) with dense output, one segment at a time through
``_segment``.  Impulsive releases are pure jumps of the infected
population between segments: the flow between release instants is the
uncontrolled model.  A ``Trajectory`` is its rows, a release instant
twice (pre, then post).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.integrate import solve_ivp

from .model import (
    State,
    absorbing_bound,
    equilibria,
    in_secure_region,
    jacobian,
    make_rhs,
)
from .params import StrainParams

STABLE_EIG_TOL = 1e-12
SEPARATRIX_OFFSET = 1e-4  # saddle displacement, relative to its norm
SEPARATRIX_ARC_STRIDE = 10.0  # individuals between separatrix points
SAMPLE_STRIDE = 0.25  # days between the samples of an adaptive segment


@dataclass(frozen=True)
class SimOptions:
    """Integrator tolerances and the end of the simulated span."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    t_end: float = 400.0

    def __post_init__(self) -> None:
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")


@dataclass
class Trajectory:
    """A trajectory as rows (t, x, y, u), times nondecreasing.

    A release instant appears twice: the pre-release row, then the
    post-release row.  ``u_applied`` is the control rate for ``integrate``;
    for ``simulate_impulsive`` it is 0 on every row but a post-release
    row, where it is the release size.
    """

    times: np.ndarray
    states: np.ndarray  # shape (n, 2)
    u_applied: np.ndarray

    @property
    def final_state(self) -> tuple[float, float]:
        return float(self.states[-1, 0]), float(self.states[-1, 1])


@dataclass(frozen=True)
class ImpulseSchedule:
    """Timed instantaneous releases.

    ``rule_tag`` records which construction produced the schedule
    (``daily``, ``aggregate``, ``excess``, ``ga``, or ``manual``).
    """

    entries: tuple[tuple[float, int], ...]
    rule_tag: str = "manual"

    def __post_init__(self) -> None:
        times = [t for t, _ in self.entries]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("release times must be strictly increasing")
        if any(size < 0 or size != int(size) for _, size in self.entries):
            raise ValueError("release sizes must be nonnegative integers")

    @property
    def total(self) -> int:
        return sum(size for _, size in self.entries)

    @property
    def num_releases(self) -> int:
        return len(self.entries)


ControlLike = Union[None, Callable[[float], float], tuple[np.ndarray, np.ndarray]]


def sampled_rate(times: np.ndarray, values: np.ndarray) -> Callable:
    """The rate sampled at ``times``, for floats or arrays: linear between
    samples, the sample itself at both ends, and 0 outside them."""
    return lambda t: np.interp(t, times, values, left=0.0, right=0.0)


def _no_control(t: float) -> float:
    return 0.0


class IntegrationError(RuntimeError):
    """Integrator failure or tolerance-violating negativity."""


def rk4(rhs, x, y, u: Sequence, h: float) -> tuple[list, list]:
    """Fixed-step RK4 from (x, y), the drive ``u`` linearly interpolated
    inside steps; returns the node lists (len(u) nodes).

    The one fixed-step integrator: the OCP forward pass runs it on floats,
    the OCP adjoint pass backward (h < 0) with the state as a complex drive
    x + iy, the GA kernel on arrays (one row per plan) or on one plan's
    floats.  k2 and k3 get one midpoint object, and a step's last node is
    the next step's first.
    """
    n = len(u) - 1
    xs = [x] * (n + 1)
    ys = [y] * (n + 1)
    h2, h6 = 0.5 * h, h / 6.0
    for i in range(n):
        u0, u1 = u[i], u[i + 1]
        um = 0.5 * (u0 + u1)
        k1x, k1y = rhs(x, y, u0)
        k2x, k2y = rhs(x + h2 * k1x, y + h2 * k1y, um)
        k3x, k3y = rhs(x + h2 * k2x, y + h2 * k2y, um)
        k4x, k4y = rhs(x + h * k3x, y + h * k3y, u1)
        # Rebind, never ``+=``: on arrays that would write in place and
        # every stored node would alias one array.
        x = x + h6 * (k1x + 2.0 * (k2x + k3x) + k4x)
        y = y + h6 * (k1y + 2.0 * (k2y + k3y) + k4y)
        xs[i + 1], ys[i + 1] = x, y
    return xs, ys


def _segment(
    params: StrainParams,
    state0: tuple[float, float],
    span: tuple[float, float],
    u_fn: Callable[[float], float],
    opts: SimOptions,
) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive RK45 over ``span``, sampled every ``SAMPLE_STRIDE`` days
    (both ends included) and clamped at zero; returns (times, states)."""
    rhs = make_rhs(params)

    def f(t, z):
        return rhs(z[0], z[1], u_fn(t))

    sol = solve_ivp(
        f,
        span,
        state0,
        method="RK45",
        rtol=opts.rel_tol,
        atol=opts.abs_tol,
        dense_output=True,
    )
    if not sol.success:
        raise IntegrationError(sol.message)
    ts = _sample_times(span[0], span[1], SAMPLE_STRIDE)
    states = sol.sol(ts).T
    low = states.min()
    if low < -opts.abs_tol * 100.0:
        raise IntegrationError(
            f"negative excursion {low:.3e} exceeds tolerance; integrator misconfigured"
        )
    return ts, np.clip(states, 0.0, None)


def _sample_times(t0: float, t1: float, stride: float) -> np.ndarray:
    n = max(1, int(math.ceil((t1 - t0) / stride)))
    return np.linspace(t0, t1, n + 1)


def integrate(
    params: StrainParams,
    s0: State,
    control: ControlLike,
    span: tuple[float, float],
    opts: SimOptions = SimOptions(),
) -> Trajectory:
    """Integrate the model under a continuous (or zero) control.

    ``control`` may be None (no releases), a callable rate, or a
    ``(times, values)`` sampled control, read by ``sampled_rate``.  Such a
    control drops to 0 at a grid end whose sample is not 0; inside the
    span a segment ends there, so that no adaptive step crosses the drop,
    and a segment outside the grid runs uncontrolled.  The segments' rows
    are joined as in ``simulate_impulsive``.
    """
    u_fn = control or _no_control
    t_lo, t_hi, ends = -math.inf, math.inf, []  # a rate with no grid has no ends
    if isinstance(control, tuple):
        times, values = (np.asarray(column, dtype=float) for column in control)
        u_fn, t_lo, t_hi = sampled_rate(times, values), times[0], times[-1]
        ends = [t for t, u in ((t_lo, values[0]), (t_hi, values[-1]))
                if span[0] < t < span[1] and u != 0.0]
    rows, t0, state = [], span[0], (s0.x, s0.y)
    for t1 in (*ends, span[1]):
        fn = u_fn if t0 < t_hi and t1 > t_lo else _no_control
        ts, seg = _segment(params, state, (t0, t1), fn, opts)
        rows.append((ts, seg) if not rows else (ts[1:], seg[1:]))
        state, t0 = (float(seg[-1, 0]), float(seg[-1, 1])), t1
    ts, states = (np.concatenate(column) for column in zip(*rows))
    return Trajectory(times=ts, states=states, u_applied=np.array([u_fn(t) for t in ts]))


def simulate_impulsive(
    params: StrainParams,
    s0: State,
    sched: ImpulseSchedule,
    opts: SimOptions = SimOptions(),
) -> Trajectory:
    """Integrate with zero control between releases and pure jumps at them.

    The first row is s0; each segment adds its rows after its start, and
    each release adds its (integer) size to the infected population
    exactly, as a post-release row at the pre-release row's time.

    Raises:
        ValueError: A release is scheduled before 0 or after ``opts.t_end``.
    """
    outside = [(t, size) for t, size in sched.entries if not 0.0 <= t <= opts.t_end]
    if outside:
        t, size = outside[0]
        bound = "before t=0" if t < 0.0 else f"after t_end={opts.t_end:g}"
        raise ValueError(f"release of {size} at t={t:g} is {bound}")
    rows = [(np.zeros(1), np.array([[s0.x, s0.y]]), np.zeros(1))]
    x, y = s0.x, s0.y
    t_cur = 0.0

    # The sentinel (t_end, None) flows the tail; None, not 0, marks it so
    # that a size-0 release still adds its post-release row.
    for t_rel, size in (*sched.entries, (opts.t_end, None)):
        if t_rel > t_cur:
            ts, seg = _segment(params, (x, y), (t_cur, t_rel), _no_control, opts)
            rows.append((ts[1:], seg[1:], np.zeros(ts.size - 1)))
            x, y = float(seg[-1, 0]), float(seg[-1, 1])
            t_cur = t_rel
        if size is None:
            break
        y += size
        rows.append((np.array([t_rel]), np.array([[x, y]]), np.array([float(size)])))
    times, states, u = (np.concatenate(column) for column in zip(*rows))
    return Trajectory(times=times, states=states, u_applied=u)


def first_basin_entry(traj: Trajectory, target: tuple[float, float]) -> Optional[float]:
    """Earliest time at which the state is in the secure region
    (``in_secure_region``: both thresholds strict), or None when never.

    Between the first inside row and the row before it the state moves on
    the straight line; each threshold is crossed where the line meets it,
    and the entry is the later crossing.  A release's pre and post rows
    share one time, so an entry that a release causes is timed at it.
    """
    times, states = traj.times, traj.states
    inside = np.nonzero(in_secure_region(states[:, 0], states[:, 1], target))[0]
    if not inside.size:
        return None
    i = int(inside[0])
    if i == 0:
        return float(times[0])
    (x0, y0), (x1, y1) = states[i - 1], states[i]
    w_x = (x0 - target[0]) / (x0 - x1) if x0 >= target[0] else 0.0
    w_y = (target[1] - y0) / (y1 - y0) if y0 <= target[1] else 0.0
    return float(times[i - 1] + max(w_x, w_y) * (times[i] - times[i - 1]))


def separatrix(params: StrainParams) -> np.ndarray:
    """Basin boundary: the stable manifold of the coexistence saddle.

    Traces the manifold backward in time from the saddle, displaced by a
    small multiple of its stable eigenvector in both directions, until
    the curve leaves 1.5x the absorbing box or the positive quadrant.
    The backward field is normalized to unit speed so the polyline is
    sampled uniformly in arc length (``SEPARATRIX_ARC_STRIDE`` individuals
    between points) even where the flow is exponentially fast.  Points are
    ordered along the curve and pass through the saddle.
    """
    eq = equilibria(params)
    if eq.eu is None:
        raise ValueError("no coexistence saddle: separatrix undefined")
    saddle = np.array([eq.eu.state.x, eq.eu.state.y])
    jac = jacobian(params, eq.eu.state)
    eigvals, eigvecs = np.linalg.eig(jac)
    re = np.real(eigvals)
    stable_idx = int(np.argmin(re))
    if re[stable_idx] >= -STABLE_EIG_TOL or np.max(re) <= STABLE_EIG_TOL:
        raise ValueError("saddle eigen-structure degenerate; cannot trace separatrix")
    v = np.real(eigvecs[:, stable_idx])
    v = v / np.linalg.norm(v)
    bound = 1.5 * absorbing_bound(params)
    rhs = make_rhs(params)

    def backward_unit(s, z):
        dx, dy = rhs(z[0], z[1], 0.0)
        speed = math.hypot(dx, dy)
        if speed < 1e-14:
            return (0.0, 0.0)
        return (-dx / speed, -dy / speed)

    def leave(s, z):
        return min(z[0], z[1], bound - (z[0] + z[1]))

    leave.terminal = True
    leave.direction = -1.0

    branches = []
    scale = SEPARATRIX_OFFSET * float(np.linalg.norm(saddle))
    s_max = 4.0 * bound
    for sign in (+1.0, -1.0):
        z0 = saddle + sign * scale * v
        sol = solve_ivp(
            backward_unit,
            (0.0, s_max),
            z0,
            method="RK45",
            rtol=SimOptions.rel_tol,
            atol=SimOptions.abs_tol,
            max_step=5.0 * SEPARATRIX_ARC_STRIDE,
            dense_output=True,
            events=leave,
        )
        if not sol.success:
            raise IntegrationError(sol.message)
        s_stop = float(sol.t[-1])
        ss = _sample_times(0.0, s_stop, SEPARATRIX_ARC_STRIDE)
        branches.append(np.clip(sol.sol(ss).T, 0.0, None))

    plus, minus = branches
    curve = np.vstack([minus[::-1], saddle, plus])
    return curve



def separatrix_height(curve: np.ndarray, x: float) -> float:
    """Interpolated y-value of the separatrix polyline at a given x.

    Uses the branch of the curve around the requested x; raises when the
    curve does not span it.
    """
    xs, ys = curve[:, 0], curve[:, 1]
    if not (xs.min() <= x <= xs.max()):
        raise ValueError(f"x={x} outside separatrix span [{xs.min()}, {xs.max()}]")
    hits = []
    for i in range(len(xs) - 1):
        x0, x1 = xs[i], xs[i + 1]
        if (x0 - x) * (x1 - x) <= 0.0 and x0 != x1:
            w = (x - x0) / (x1 - x0)
            hits.append(ys[i] + w * (ys[i + 1] - ys[i]))
    if not hits:
        raise ValueError(f"separatrix does not cross x={x}")
    return float(np.median(hits))


def phase_field(
    params: StrainParams,
    x_grid: Sequence[float],
    y_grid: Sequence[float],
) -> np.ndarray:
    """Uncontrolled vector field sampled on a grid, as rows (x, y, dx, dy)."""
    rhs = make_rhs(params)
    rows = []
    for x in x_grid:
        for y in y_grid:
            if x < 0 or y < 0:
                raise ValueError("grid must lie in the nonnegative quadrant")
            dx, dy = rhs(float(x), float(y), 0.0)
            rows.append((float(x), float(y), dx, dy))
    return np.array(rows)


def classify_endpoint(
    params: StrainParams,
    s0: State,
    opts: SimOptions = SimOptions(),
) -> str:
    """Run the uncontrolled flow and report which attractor wins.

    Returns ``"ex"`` or ``"es"`` by distance at t_end; used as the
    forward-integration oracle for basin membership.
    """
    eq = equilibria(params)
    traj = integrate(params, s0, None, (0.0, opts.t_end), opts)
    fx, fy = traj.final_state
    d_ex = math.hypot(fx - eq.ex.state.x, fy - eq.ex.state.y)
    if eq.es is None:
        return "ex"
    d_es = math.hypot(fx - eq.es.state.x, fy - eq.es.state.y)
    return "es" if d_es < d_ex else "ex"
