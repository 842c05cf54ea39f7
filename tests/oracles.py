"""Test oracles for basin membership: the separatrix height at a given x,
and which attractor the uncontrolled flow from a state reaches."""

from __future__ import annotations

import math

import numpy as np

from wolbopt.model import State, equilibria
from wolbopt.params import StrainParams
from wolbopt.sim import SimOptions, integrate


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
    traj = integrate(params, s0, None, (0.0, opts.t_end), opts)
    fx, fy = traj.final_state
    d_ex = math.hypot(fx - eq.ex.state.x, fy - eq.ex.state.y)
    if eq.es is None:
        return "ex"
    d_es = math.hypot(fx - eq.es.state.x, fy - eq.es.state.y)
    return "es" if d_es < d_ex else "ex"


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
