"""Trajectory integration, impulsive releases, basin entry, separatrix.

Two integrators.  ``rk4`` is the fixed-step RK4 pass on a uniform grid,
for floats (the OCP forward and adjoint passes) or arrays (the GA batch
kernel).  Everything else here runs ``solve_ivp``, the adaptive
Dormand-Prince 5(4) pair with its quartic dense output; ``integrate`` and
``simulate_impulsive`` share one driver, ``_flow``, that runs it from stop
to stop and samples every stretch in one evaluation of the joined steps.
Impulsive releases are pure jumps of the infected population at stops: the
flow between release instants is the uncontrolled model.  A ``Trajectory``
is its rows, a release instant twice (pre, then post), and its cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .model import (
    State,
    absorbing_bound,
    equilibria,
    in_secure_region,
    jacobian,
    make_rhs,
    rhs_arrays,
)
from .params import StrainParams

SEPARATRIX_OFFSET = 1e-4  # saddle displacement, relative to its norm
SEPARATRIX_ARC_STRIDE = 10.0  # individuals between separatrix points
SAMPLE_STRIDE = 0.25  # days between the samples of an adaptive segment
REL_TOL, ABS_TOL = 1e-8, 1e-10  # every adaptive run's tolerances


@dataclass(frozen=True)
class SimOptions:
    """The end of the simulated span."""

    t_end: float = 400.0

    def __post_init__(self) -> None:
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
    nfev: int  # the adaptive runs' field evaluations
    accepted_steps: int  # and their accepted steps

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
        """Entries of nonzero size: a size-0 entry releases nothing."""
        return sum(1 for _, size in self.entries if size)


ControlLike = Optional[tuple[np.ndarray, np.ndarray]]


def sampled_rate(times: np.ndarray, values: np.ndarray) -> Callable:
    """The rate sampled at ``times``, for floats or arrays: linear between
    samples, the sample itself at both ends, and 0 outside them."""
    return lambda t: np.interp(t, times, values, left=0.0, right=0.0)


class IntegrationError(RuntimeError):
    """Integrator failure or tolerance-violating negativity."""


def rk4(rhs, x, y, u: Sequence, h: float, jumps: Optional[Sequence] = None) -> tuple[list, list]:
    """Fixed-step RK4 from (x, y), the drive ``u`` linearly interpolated
    inside steps; returns the node lists (len(u) nodes).  ``jumps[i]``,
    unless None, is added to y after step i, and node i + 1 is post-jump.

    The one fixed-step integrator: the OCP's start pass runs it on floats,
    its shooting pass on (2, R) arrays with one step per row (negative on
    the rows that run backward), the GA kernel on arrays (one row per plan)
    or on one plan's floats, with the plan's releases as jumps.  k2 and k3
    get one midpoint object, and a step's last node is the next step's
    first.  On arrays its constants are 0-d arrays.
    """
    n = len(u) - 1
    xs = [x] * (n + 1)
    ys = [y] * (n + 1)
    h2, h6, two = 0.5 * h, h / 6.0, 2.0
    if isinstance(x, np.ndarray):
        h, h2, h6, two = np.array(h), np.array(h2), np.array(h6), np.array(2.0)
    for i in range(n):
        u0, u1 = u[i], u[i + 1]
        um = 0.5 * (u0 + u1)
        k1x, k1y = rhs(x, y, u0)
        k2x, k2y = rhs(x + h2 * k1x, y + h2 * k1y, um)
        k3x, k3y = rhs(x + h2 * k2x, y + h2 * k2y, um)
        k4x, k4y = rhs(x + h * k3x, y + h * k3y, u1)
        # Rebind, never ``+=``: on arrays that would write in place and
        # every stored node would alias one array.
        x = x + h6 * (k1x + two * (k2x + k3x) + k4x)
        y = y + h6 * (k1y + two * (k2y + k3y) + k4y)
        if jumps is not None and jumps[i] is not None:
            y = y + jumps[i]
        xs[i + 1], ys[i + 1] = x, y
    return xs, ys


# The Dormand-Prince 5(4) pair (Dormand & Prince 1980) with Shampine's
# (1986) quartic dense output and the step control of Hairer, Norsett &
# Wanner (1993), sec. II.4: RMS error norm, safety 0.9, step factors in
# [0.2, 10], no growth right after a rejection.  The numbers are scipy's
# RK45.  ``_A``'s last row is the 5th-order weights: the 7th stage is the
# derivative at the new state (first same as last).
_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _ERR_EXP = 0.9, 0.2, 10.0, -1 / 5
_EPS = np.finfo(float).eps


def _rms(a: float, b: float) -> float:
    return math.hypot(a, b) / math.sqrt(2.0)


@dataclass(frozen=True)
class DenseSolution:
    """One ``solve_ivp`` run: its accepted steps, its end and its cost.

    A row of ``steps`` is (t_old, h, x_old, y_old, the seven stages' dx,
    the seven stages' dy).  Calling the solution evaluates the steps'
    quartic interpolants (``_interpolate``).
    """

    steps: np.ndarray
    t_stop: float  # the span's end, or where the stop function hit 0
    nfev: int
    y_end: tuple[float, float]  # the state at the last step's end (at t0 if none)

    def __call__(self, ts: np.ndarray) -> np.ndarray:
        """The states at ``ts`` (times inside the run), as rows (x, y)."""
        ts = np.asarray(ts, dtype=float)
        if not self.steps.size:
            return np.tile(self.y_end, (ts.size, 1))
        return _interpolate(self.steps, ts)


def _interpolate(steps: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """The states at ``ts`` on the interpolants of ``DenseSolution`` rows in
    time order, as rows (x, y).  A time on a step boundary reads the earlier
    step at its end, so runs that follow one another join into one."""
    seg = np.clip(np.searchsorted(steps[:, 0], ts, side="left") - 1, 0, len(steps) - 1)
    t_old, h = steps[seg, 0], steps[seg, 1]
    s = (ts - t_old) / h
    out = np.empty((ts.size, 2))
    for i in range(2):
        q = (steps[:, 4 + 7 * i:11 + 7 * i] @ _P)[seg]  # each sample's step polynomial
        poly = q[:, 3] * s  # in s, s^2, s^3, s^4, by Horner's rule
        for j in (2, 1, 0):
            poly += q[:, j]
            poly *= s
        out[:, i] = h * poly + steps[seg, 2 + i]
    return out


def _finite(f: tuple[float, float], t: float) -> tuple[float, float]:
    if not (math.isfinite(f[0]) and math.isfinite(f[1])):
        raise IntegrationError(f"non-finite derivative {tuple(f)} at t={t:g}")
    return f


def _initial_step(fun, t0, x0, y0, fx, fy, t1, max_step, rtol, atol) -> float:
    """Hairer, Norsett & Wanner's first step (sec. II.4) for order 4."""
    span = t1 - t0
    sx, sy = atol + abs(x0) * rtol, atol + abs(y0) * rtol
    d0, d1 = _rms(x0 / sx, y0 / sy), _rms(fx / sx, fy / sy)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    gx, gy = _finite(fun(t0 + h0, x0 + h0 * fx, y0 + h0 * fy), t0 + h0)
    d2 = _rms((gx - fx) / sx, (gy - fy) / sy) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, span, max_step)


def solve_ivp(
    fun: Callable[[float, float, float], tuple[float, float]],
    span: tuple[float, float],
    y0: tuple[float, float],
    rtol: float,
    atol: float,
    max_step: float = math.inf,
    stop: Optional[Callable[[float, float, float], float]] = None,
) -> DenseSolution:
    """Adaptive Dormand-Prince 5(4) for the two-component system
    (x, y)' = ``fun(t, x, y)`` over ``span``, run forward on floats.

    ``stop(t, x, y)``, when given, ends the run where it first falls
    through 0: at the root on the step's interpolant (to 4 ulp).

    Raises:
        IntegrationError: A derivative or a step is not finite, or the
            step falls below 10 ulp of t.
        ValueError: ``span`` runs backward.
    """
    # The tableau as names for straight-line stages; its 0 entries drop out.
    c2, c3, c4, c5, c6, c7 = _C
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), a6, (b1, _, b3, b4, b5, b6) = _A
    a61, a62, a63, a64, a65 = a6
    e1, _, e3, e4, e5, e6, e7 = _E
    t, t1 = float(span[0]), float(span[1])
    if t1 < t:
        raise ValueError(f"span ({t:g}, {t1:g}) runs backward")
    x, y = float(y0[0]), float(y0[1])
    fx, fy = _finite(fun(t, x, y), t)
    if t1 == t:
        return DenseSolution(np.empty((0, 18)), t1, 1, (x, y))
    h_abs = _initial_step(fun, t, x, y, fx, fy, t1, max_step, rtol, atol)
    nfev = 2
    g = stop(t, x, y) if stop else 0.0
    steps = []
    while t < t1:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = min(max(h_abs, min_step), max_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise IntegrationError(f"step {h_abs:.3e} below 10 ulp at t={t:g}")
            t_new = min(t + h_abs, t1)
            h = h_abs = t_new - t  # as taken: rounded, or cut at the span's end
            k2x, k2y = fun(t + c2 * h, x + a21 * fx * h, y + a21 * fy * h)
            k3x, k3y = fun(t + c3 * h, x + (a31 * fx + a32 * k2x) * h,
                           y + (a31 * fy + a32 * k2y) * h)
            k4x, k4y = fun(t + c4 * h, x + (a41 * fx + a42 * k2x + a43 * k3x) * h,
                           y + (a41 * fy + a42 * k2y + a43 * k3y) * h)
            k5x, k5y = fun(t + c5 * h, x + (a51 * fx + a52 * k2x + a53 * k3x + a54 * k4x) * h,
                           y + (a51 * fy + a52 * k2y + a53 * k3y + a54 * k4y) * h)
            k6x, k6y = fun(
                t + c6 * h,
                x + (a61 * fx + a62 * k2x + a63 * k3x + a64 * k4x + a65 * k5x) * h,
                y + (a61 * fy + a62 * k2y + a63 * k3y + a64 * k4y + a65 * k5y) * h,
            )
            x_new = x + (b1 * fx + b3 * k3x + b4 * k4x + b5 * k5x + b6 * k6x) * h
            y_new = y + (b1 * fy + b3 * k3y + b4 * k4y + b5 * k5y + b6 * k6y) * h
            k7x, k7y = fun(t + c7 * h, x_new, y_new)
            nfev += 6
            ex = e1 * fx + e3 * k3x + e4 * k4x + e5 * k5x + e6 * k6x + e7 * k7x
            ey = e1 * fy + e3 * k3y + e4 * k4y + e5 * k5y + e6 * k6y + e7 * k7y
            err = _rms(
                ex * h / (atol + max(abs(x), abs(x_new)) * rtol),
                ey * h / (atol + max(abs(y), abs(y_new)) * rtol),
            )
            if not math.isfinite(err):
                raise IntegrationError(f"non-finite derivative in a step from t={t:g}")
            if err < 1.0:
                factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR, _SAFETY * err**_ERR_EXP)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err**_ERR_EXP)
            rejected = True
        steps.append((t, h, x, y, fx, k2x, k3x, k4x, k5x, k6x, k7x,
                      fy, k2y, k3y, k4y, k5y, k6y, k7y))
        t, x, y, fx, fy = t_new, x_new, y_new, k7x, k7y
        if stop:
            g_new = stop(t, x, y)
            if g >= 0.0 >= g_new:
                sol = DenseSolution(np.array(steps), t, nfev, (x, y))
                return replace(sol, t_stop=_falling_root(stop, sol))
            g = g_new
    return DenseSolution(np.array(steps), t1, nfev, (x, y))


def _falling_root(stop, sol: DenseSolution) -> float:
    """Bisect ``stop`` along the last step's interpolant, from its start
    (>= 0) to its end (<= 0), to 4 ulp of the root."""
    last = sol.steps[-1:]
    lo, hi = float(last[0, 0]), sol.t_stop
    while hi - lo > 4.0 * _EPS * (1.0 + abs(hi)):
        mid = 0.5 * (lo + hi)
        x, y = _interpolate(last, np.array([mid]))[0]
        if stop(mid, x, y) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def _sample_times(t0: float, t1: float, stride: float) -> np.ndarray:
    n = max(1, int(math.ceil((t1 - t0) / stride)))
    return np.linspace(t0, t1, n + 1)


def _flow(
    params: StrainParams, s0: State, t0: float, stops: Sequence[tuple[float, Optional[int]]],
    u_fn: Optional[Callable[[float], float]], grid: tuple[float, float] = (-math.inf, math.inf),
) -> Trajectory:
    """The trajectory from s0 at t0 through each stop (t, size) in turn.

    Up to each stop ``solve_ivp`` runs under the rate ``u_fn`` from where
    the last run ended, clamped at zero; a stretch runs uncontrolled, on
    the field at u = 0 with no rate call, when ``u_fn`` is None or the
    stretch lies outside ``grid``.  A stretch adds rows every
    ``SAMPLE_STRIDE`` days after its start, all of them read in one pass
    over the joined runs, checked for negative excursions and clamped at
    zero.  A stop whose size is not
    None (0 included) is a release: the pre-release row plus the size in
    the infected population is its post-release row, whose ``u_applied`` is
    the size, and the next run starts with the size added.  Every other
    row's ``u_applied`` is 0.
    """
    rhs = make_rhs(params)
    x, y = s0.x, s0.y
    runs, rows = [], [([t0], [0.0])]  # (times, u_applied), u nan on a sampled row
    for t1, size in stops:
        if t1 > t0:
            if u_fn is not None and t0 < grid[1] and t1 > grid[0]:
                fun = lambda t, x, y: rhs(x, y, float(u_fn(t)))  # noqa: E731
            else:
                fun = lambda t, x, y: rhs(x, y, 0.0)  # noqa: E731
            runs.append(solve_ivp(fun, (t0, t1), (x, y), rtol=REL_TOL, atol=ABS_TOL))
            ts = _sample_times(t0, t1, SAMPLE_STRIDE)[1:]
            rows.append((ts, np.full(ts.size, np.nan)))
            x, y, t0 = max(runs[-1].y_end[0], 0.0), max(runs[-1].y_end[1], 0.0), t1
        if size is not None:
            y += size
            rows.append(([t1], [float(size)]))
    times, u = (np.concatenate(column) for column in zip(*rows))
    sampled = np.isnan(u)
    u[sampled] = 0.0
    states = np.empty((times.size, 2))
    states[0] = s0.x, s0.y
    if runs:
        seg = _interpolate(np.concatenate([run.steps for run in runs]), times[sampled])
        if seg.min() < -ABS_TOL * 100.0:
            raise IntegrationError(f"negative excursion {seg.min():.3e} exceeds "
                                   "tolerance; integrator misconfigured")
        states[sampled] = np.clip(seg, 0.0, None, out=seg)
    # Release times increase strictly, so the row before a post-release row
    # is its pre-release row, or the first row.
    post = np.flatnonzero(~sampled)[1:]
    states[post] = states[post - 1]
    states[post, 1] += u[post]
    return Trajectory(times=times, states=states, u_applied=u, nfev=sum(r.nfev for r in runs),
                      accepted_steps=sum(len(r.steps) for r in runs))


def integrate(
    params: StrainParams,
    s0: State,
    control: ControlLike,
    span: tuple[float, float],
) -> Trajectory:
    """Integrate the model under a sampled (or zero) control.

    ``control`` is None (no releases) or a ``(times, values)`` sampled
    control, read by ``sampled_rate``.  Such a control drops to 0 at a grid
    end whose sample is not 0; inside the span a stretch ends there, so
    that no adaptive step crosses the drop, and a stretch outside the grid
    runs uncontrolled.  ``u_applied`` is the rate at each row.
    """
    if control is None:
        return _flow(params, s0, span[0], ((span[1], None),), None)
    times, values = (np.asarray(column, dtype=float) for column in control)
    u_fn, grid = sampled_rate(times, values), (times[0], times[-1])
    ends = [(t, None) for t, u in zip(grid, (values[0], values[-1]))
            if span[0] < t < span[1] and u != 0.0]
    traj = _flow(params, s0, span[0], (*ends, (span[1], None)), u_fn, grid)
    return replace(traj, u_applied=u_fn(traj.times))


def simulate_impulsive(
    params: StrainParams,
    s0: State,
    sched: ImpulseSchedule,
    opts: SimOptions = SimOptions(),
) -> Trajectory:
    """Integrate with zero control between releases and pure jumps at them.

    The first row is s0 at t = 0; each release adds its (integer) size to
    the infected population exactly, as a post-release row at the
    pre-release row's time, and the flow runs on to ``opts.t_end``.

    Raises:
        ValueError: A release is scheduled before 0 or after ``opts.t_end``.
    """
    outside = [(t, size) for t, size in sched.entries if not 0.0 <= t <= opts.t_end]
    if outside:
        t, size = outside[0]
        bound = "before t=0" if t < 0.0 else f"after t_end={opts.t_end:g}"
        raise ValueError(f"release of {size} at t={t:g} is {bound}")
    # The last stop's None, not 0, marks the end of the span: a size-0
    # release still adds its post-release row.
    return _flow(params, s0, 0.0, (*sched.entries, (opts.t_end, None)), None)


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
    ordered along the curve and pass through the saddle.  Raises
    ``ValueError`` unless ``equilibria`` labels the coexistence pair's E_u
    a saddle: that label is the only saddle test.
    """
    eq = equilibria(params)
    if eq.eu is None or eq.eu.stability != "saddle":
        raise ValueError("no coexistence saddle: separatrix undefined")
    saddle = np.array([eq.eu.state.x, eq.eu.state.y])
    eigvals, eigvecs = np.linalg.eig(jacobian(params, eq.eu.state))
    v = np.real(eigvecs[:, int(np.argmin(np.real(eigvals)))])
    v = v / np.linalg.norm(v)
    bound = 1.5 * absorbing_bound(params)
    rhs = make_rhs(params)

    def backward_unit(s, x, y):
        dx, dy = rhs(x, y, 0.0)
        speed = math.hypot(dx, dy)
        if speed < 1e-14:
            return (0.0, 0.0)
        return (-dx / speed, -dy / speed)

    def leave(s, x, y):
        return min(x, y, bound - (x + y))

    branches = []
    scale = SEPARATRIX_OFFSET * float(np.linalg.norm(saddle))
    s_max = 4.0 * bound
    for sign in (+1.0, -1.0):
        z0 = saddle + sign * scale * v
        sol = solve_ivp(
            backward_unit,
            (0.0, s_max),
            z0,
            rtol=REL_TOL,
            atol=ABS_TOL,
            max_step=5.0 * SEPARATRIX_ARC_STRIDE,
            stop=leave,
        )
        ss = _sample_times(0.0, sol.t_stop, SEPARATRIX_ARC_STRIDE)
        branches.append(np.clip(sol(ss), 0.0, None))

    plus, minus = branches
    curve = np.vstack([minus[::-1], saddle, plus])
    return curve


def phase_field(
    params: StrainParams,
    x_grid: Sequence[float],
    y_grid: Sequence[float],
) -> np.ndarray:
    """Uncontrolled vector field sampled on a grid, as rows (x, y, dx, dy)."""
    x, y = (a.ravel() for a in np.meshgrid(
        np.asarray(x_grid, dtype=float), np.asarray(y_grid, dtype=float), indexing="ij"))
    if np.any(x < 0) or np.any(y < 0):
        raise ValueError("grid must lie in the nonnegative quadrant")
    return np.column_stack((x, y, *rhs_arrays(params, x, y)))
