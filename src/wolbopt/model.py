"""Right-hand side, analytic Jacobian, and equilibria of the release model.

The model tracks a wild population x and an infected population y.  Births
are suppressed by an exponential competition factor exp(-sigma (x+y)); the
wild birth term also carries the frequency-dependent incompatibility
factor x (x + (1-eta) y) / (x + y).  The release rate u feeds the
infected equation only.

At x + y = 0 the frequency-dependent term is defined as 0 (it is bounded
above by x, so this is the continuous limit on the closed quadrant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .params import StrainParams, offspring_numbers

STABILITY_TOL = 1e-9


@dataclass(frozen=True)
class State:
    """Population sizes (individuals)."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if self.x < 0.0 or self.y < 0.0:
            raise ValueError("populations must be nonnegative")


@dataclass(frozen=True)
class Equilibrium:
    state: State
    stability: str  # "repeller" | "attractor" | "saddle" | "degenerate"


@dataclass(frozen=True)
class EquilibriumSet:
    """All equilibria of the uncontrolled model, with stability labels.

    ``e0`` (extinction) and ``ex`` (wild-only) always exist.  The
    coexistence pair ``eu`` (saddle) / ``es`` (stable node) exists iff the
    composite offspring number exceeds 1 and the discriminant of the
    coexistence quadratic is positive.  ``ey`` (infected-only) appears
    only in the perfect-transmission, no-loss corner.  ``collision`` flags
    the pitchfork degeneracy where eu and es coincide.
    """

    e0: Equilibrium
    ex: Equilibrium
    eu: Optional[Equilibrium]
    es: Optional[Equilibrium]
    ey: Optional[Equilibrium]
    collision: bool


def make_rhs(
    params: StrainParams, exp: Callable = math.exp
) -> Callable[[float, float, float], tuple[float, float]]:
    """Return the closure (x, y, u) -> (dx/dt, dy/dt).

    This is the only statement of the vector field: ``rhs_arrays`` calls
    it, and ``make_jacobian`` is its derivative.  With the default
    ``math.exp`` it is the scalar path on floats; with ``exp=np.exp`` it
    runs elementwise on arrays, on 0-d coefficients, which numpy takes faster.
    """
    coef = np.array if exp is np.exp else float
    rho_n = coef(params.rho_n)
    one_eta = coef(1.0 - params.eta)
    leak = coef((1.0 - params.nu) * params.rho_w)
    nu_rw = coef(params.nu * params.rho_w)
    omega = coef(params.omega)
    delta_n = coef(params.delta_n)
    decay_w = coef(params.omega + params.delta_w)
    neg_sigma = coef(-params.sigma)
    # Below one ulp of any reachable positive population; at the origin
    # 0 / tiny gives the continuous limit 0, branch-free for arrays too.
    tiny = coef(1e-300)

    def rhs(x, y, u):
        s = x + y
        e = exp(neg_sigma * s)
        frac = x * (x + one_eta * y) / (s + tiny)
        dx = (rho_n * frac + leak * y) * e + omega * y - delta_n * x
        dy = nu_rw * y * e - decay_w * y + u
        return dx, dy

    return rhs


def make_jacobian(params: StrainParams) -> Callable:
    """Return the closure (x, y) -> row-major entries of d(rhs)/d(x,y).

    It runs on floats or elementwise on arrays (``np.exp``): the OCP's
    extremal field calls it on every shooting row at once.  Its
    coefficients are 0-d arrays, as ``make_rhs``'s on arrays are.  Valid
    for x + y > 0; the origin uses the along-axes limit (see ``jacobian``).
    """
    coef = np.array
    rho_n = coef(params.rho_n)
    one_eta = coef(1.0 - params.eta)
    neg_eta_rho_n = coef(-params.eta * params.rho_n)
    leak = coef((1.0 - params.nu) * params.rho_w)
    nu_rw = coef(params.nu * params.rho_w)
    neg_sigma_nu_rw = coef(-params.sigma * (params.nu * params.rho_w))
    omega = coef(params.omega)
    delta_n = coef(params.delta_n)
    decay_w = coef(params.omega + params.delta_w)
    sigma, neg_sigma = coef(params.sigma), coef(-params.sigma)
    one, two = coef(1.0), coef(2.0)

    def jac(x, y):
        s = x + y
        e = np.exp(neg_sigma * s)
        a = x * (x + one_eta * y)
        inv_s = one / s
        g = rho_n * a * inv_s
        dg_dx = rho_n * ((two * x + one_eta * y) - a * inv_s) * inv_s
        dg_dy = neg_eta_rho_n * x * x * inv_s * inv_s
        births_x = g + leak * y
        j11 = e * (dg_dx - sigma * births_x) - delta_n
        j12 = e * (dg_dy + leak - sigma * births_x) + omega
        j21 = neg_sigma_nu_rw * y * e
        j22 = nu_rw * e * (one - sigma * y) - decay_w
        return j11, j12, j21, j22

    return jac


_latest_field: tuple = (None, None)  # (params, closure) of the latest call
_NO_RELEASE = np.array(0.0)  # u, a 0-d array like the field's coefficients


def rhs_arrays(params: StrainParams, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Uncontrolled vector field on arrays, for batch simulation.  The
    closure is held for the latest parameter object (matched by identity,
    so no hash of the frozen dataclass per call) and rebuilt for another."""
    global _latest_field
    held, field = _latest_field
    if held is not params:
        field = make_rhs(params, np.exp)
        _latest_field = (params, field)
    return field(x, y, _NO_RELEASE)


def jacobian(params: StrainParams, state: State) -> np.ndarray:
    """Analytic 2x2 Jacobian of the uncontrolled vector field.

    At the origin the frequency-dependent term is not differentiable; the
    along-axes limit is used there, which is triangular and carries the
    eigenvalues that decide stability.
    """
    x, y = state.x, state.y
    if x + y == 0.0:
        j11 = params.rho_n - params.delta_n
        j12 = (1.0 - params.nu) * params.rho_w + params.omega
        j22 = params.nu * params.rho_w - params.omega - params.delta_w
        return np.array([[j11, j12], [0.0, j22]])
    j11, j12, j21, j22 = make_jacobian(params)(x, y)
    return np.array([[j11, j12], [j21, j22]])


def _classify(params: StrainParams, state: State) -> str:
    eigs = np.linalg.eigvals(jacobian(params, state))
    re = np.real(eigs)
    if np.any(np.abs(re) <= STABILITY_TOL):
        return "degenerate"
    if np.all(re < 0.0):
        return "attractor"
    if np.all(re > 0.0):
        return "repeller"
    return "saddle"


def equilibria(params: StrainParams) -> EquilibriumSet:
    """All equilibria of the uncontrolled model with stability labels.

    Raises:
        ValueError: If the viability ordering q_x > q_y > 1 fails.
    """
    q = offspring_numbers(params)
    if not q.viable:
        raise ValueError(
            f"model not viable for {params.name!r}: requires q_x > q_y > 1, "
            f"got q_x={q.q_x:.4g}, q_y={q.q_y:.4g}"
        )
    sigma = params.sigma
    e0 = Equilibrium(State(0.0, 0.0), _classify(params, State(0.0, 0.0)))
    x_sharp = math.log(q.q_x) / sigma
    ex = Equilibrium(State(x_sharp, 0.0), _classify(params, State(x_sharp, 0.0)))

    eu = es = ey = None
    total = math.log(q.q_y) / sigma
    disc = (q.q_c - 1.0) ** 2 - 4.0 * params.eta * q.q_yx / q.q_x
    collision = abs(disc) <= STABILITY_TOL
    if q.q_c > 1.0 and disc > 0.0:
        prefactor = math.log(q.q_y) / (2.0 * params.eta * sigma)
        root = math.sqrt(disc)
        x_u = prefactor * ((q.q_c - 1.0) + root)
        x_s = prefactor * ((q.q_c - 1.0) - root)
        eu = Equilibrium(State(x_u, total - x_u), _classify(params, State(x_u, total - x_u)))
        es = Equilibrium(State(x_s, total - x_s), _classify(params, State(x_s, total - x_s)))
    if params.nu == 1.0 and params.omega == 0.0 and \
            (q.q_x - q.q_y) / q.q_x < params.eta <= 1.0:
        ey = Equilibrium(State(0.0, total), _classify(params, State(0.0, total)))
    return EquilibriumSet(e0=e0, ex=ex, eu=eu, es=es, ey=ey, collision=collision)


def secure_region(eq: EquilibriumSet) -> tuple[float, float]:
    """Thresholds (x_u, y_u): a state with x < x_u and y > y_u counts as
    inside the target basin region where releases can stop.

    Raises:
        ValueError: When no coexistence equilibria exist.
    """
    if eq.eu is None:
        raise ValueError("no coexistence equilibria: secure region undefined")
    return eq.eu.state.x, eq.eu.state.y


def in_secure_region(x, y, target: tuple[float, float]):
    """Strict x < x_u and y > y_u; elementwise when x and y are arrays."""
    return (x < target[0]) & (y > target[1])


def absorbing_bound(params: StrainParams) -> float:
    """Upper bound on x + y that uncontrolled trajectories eventually obey."""
    q = offspring_numbers(params)
    return math.log(q.q_x) / params.sigma
