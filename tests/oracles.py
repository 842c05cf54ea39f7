"""Test oracles: for basin membership, the separatrix height at a given x
and which attractor the uncontrolled flow from a state reaches; the
field's Jacobian derived by hand; and an impulsive simulation run stretch
by stretch."""

from __future__ import annotations

import math

import numpy as np

from wolbopt.model import State, equilibria, make_rhs
from wolbopt.params import StrainParams
from wolbopt.sim import (
    ABS_TOL, REL_TOL, SAMPLE_STRIDE, ImpulseSchedule, SimOptions, integrate, solve_ivp,
)


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


def classify_endpoint(
    params: StrainParams,
    s0: State,
    opts: SimOptions = SimOptions(),
) -> str:
    """Run the uncontrolled flow and report which attractor wins.

    Returns ``"ex"`` or ``"es"`` by distance at t_end.
    """
    eq = equilibria(params)
    traj = integrate(params, s0, None, (0.0, opts.t_end))
    fx, fy = traj.final_state
    d_ex = math.hypot(fx - eq.ex.state.x, fy - eq.ex.state.y)
    if eq.es is None:
        return "ex"
    d_es = math.hypot(fx - eq.es.state.x, fy - eq.es.state.y)
    return "es" if d_es < d_ex else "ex"


def analytic_jacobian(params: StrainParams, x, y):
    """The uncontrolled field's Jacobian derived by hand, as row-major
    entries (j11, j12, j21, j22), elementwise on arrays.  It shares no
    arithmetic with ``model.make_rhs``.  With s = x + y, the
    frequency-dependent births are g = rho_n x (x + (1-eta) y) / s; at the
    origin g is not differentiable, and the along-axes limit is taken
    (dg/dx = rho_n, dg/dy = 0)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    rho_n, eta, sigma = params.rho_n, params.eta, params.sigma
    leak, nu_rw = (1.0 - params.nu) * params.rho_w, params.nu * params.rho_w
    origin = x + y == 0.0
    s = np.where(origin, 1.0, x + y)  # any positive s: the origin's entries are set below
    e = np.exp(-sigma * (x + y))
    a = x * (x + (1.0 - eta) * y)
    dg_dx = np.where(origin, rho_n, rho_n * ((2.0 * x + (1.0 - eta) * y) - a / s) / s)
    dg_dy = -eta * rho_n * (x / s) ** 2
    births = rho_n * a / s + leak * y
    j11 = e * (dg_dx - sigma * births) - params.delta_n
    j12 = e * (dg_dy + leak - sigma * births) + params.omega
    j21 = -sigma * nu_rw * y * e
    j22 = nu_rw * e * (1.0 - sigma * y) - params.omega - params.delta_w
    return j11, j12, j21, j22


def initial_release_adjoint(weight_p: float, cap_l: float) -> float:
    """lambda2(0) of the free-time optimum started at the wild equilibrium.

    The problem is autonomous with a free horizon, so H = 0 along the
    optimum.  At t = 0 the state is the wild equilibrium, where the field
    vanishes, so H(0) = -P + max over u in [0, L] of (lambda2 u - u^2/2)
    = 0: with L < sqrt(2P) the control sits at the cap and lambda2(0) =
    P/L + L/2, otherwise u = lambda2(0) = sqrt(2P).  It holds only from
    x0 = x# and y0 = 0, the preset scenarios' start.
    """
    if cap_l < math.sqrt(2.0 * weight_p):
        return weight_p / cap_l + cap_l / 2.0
    return math.sqrt(2.0 * weight_p)


def per_stretch_impulsive(
    params: StrainParams, s0: State, sched: ImpulseSchedule, opts: SimOptions = SimOptions()
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """``simulate_impulsive`` one stretch at a time: each stretch's rows
    from its own run's interpolant, every ``SAMPLE_STRIDE`` days after its
    start and clamped at zero, and the next stretch from its last row plus
    the release.  Returns the times, the states, and the runs' nfev and
    accepted steps."""
    rhs = make_rhs(params)
    x, y, t0 = s0.x, s0.y, 0.0
    times, states, nfev, steps = [t0], [(x, y)], 0, 0
    for t1, size in (*sched.entries, (opts.t_end, None)):
        if t1 > t0:
            sol = solve_ivp(lambda t, x, y: rhs(x, y, 0.0), (t0, t1), (x, y),
                            REL_TOL, ABS_TOL)
            ts = np.linspace(t0, t1, max(1, math.ceil((t1 - t0) / SAMPLE_STRIDE)) + 1)[1:]
            rows = np.clip(sol(ts), 0.0, None)
            times.extend(ts.tolist())
            states.extend(rows.tolist())
            (x, y), t0 = rows[-1].tolist(), t1
            nfev, steps = nfev + sol.nfev, steps + len(sol.steps)
        if size is not None:
            y += size
            times.append(t1)
            states.append((x, y))
    return np.array(times), np.array(states), nfev, steps
