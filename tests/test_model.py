import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wolbopt.model import (
    State,
    absorbing_bound,
    equilibria,
    in_secure_region,
    jacobian,
    make_jacobian,
    make_rhs,
    rhs_arrays,
    secure_region,
)
from wolbopt.params import StrainParams, offspring_numbers


def fd_jacobian(params, x, y, h=1e-3):
    """Central finite differences of the uncontrolled field."""
    out = np.empty((2, 2))
    f = make_rhs(params)
    for j, (dx, dy) in enumerate(((h, 0.0), (0.0, h))):
        fp = f(x + dx, y + dy, 0.0)
        fm = f(max(x - dx, 0.0), max(y - dy, 0.0), 0.0)
        span = (x + dx) - max(x - dx, 0.0) if j == 0 else (y + dy) - max(y - dy, 0.0)
        out[0, j] = (fp[0] - fm[0]) / span
        out[1, j] = (fp[1] - fm[1]) / span
    return out


def test_rhs_extinction_is_equilibrium(wmel):
    assert make_rhs(wmel)(0.0, 0.0, 0.0) == (0.0, 0.0)


def test_rhs_wild_only_equilibrium(wmel):
    eq = equilibria(wmel)
    dx, dy = make_rhs(wmel)(eq.ex.state.x, eq.ex.state.y, 0.0)
    assert abs(dx) < 1e-9 * eq.ex.state.x
    assert abs(dy) == 0.0


def test_rhs_on_infected_axis_matches_substitution(wmel):
    y0 = 1234.5
    dx, dy = make_rhs(wmel)(0.0, y0, 0.0)
    e = math.exp(-wmel.sigma * y0)
    assert dx == pytest.approx((1 - wmel.nu) * wmel.rho_w * y0 * e + wmel.omega * y0, rel=1e-12)
    assert dy == pytest.approx(
        wmel.nu * wmel.rho_w * y0 * e - (wmel.omega + wmel.delta_w) * y0, rel=1e-12
    )


def test_rhs_arrays_equal_scalar_field(wmel, wmelpop):
    # The origin, a point on each axis, and two interior states.
    xs = np.array([0.0, 6786.0, 0.0, 4592.0, 0.5])
    ys = np.array([0.0, 0.0, 1234.5, 1793.0, 7000.0])
    for params in (wmel, wmelpop):
        dx, dy = rhs_arrays(params, xs, ys)
        # Bit for bit against the scalar closure with the same exp ...
        scalar = make_rhs(params, np.exp)
        got = list(zip(dx.tolist(), dy.tolist()))
        assert got == [scalar(x, y, 0.0) for x, y in zip(xs.tolist(), ys.tolist())]
        assert got[0] == (0.0, 0.0)
        # ... and to exp rounding against the math.exp fast path.
        for (gx, gy), x, y in zip(got, xs, ys):
            fx, fy = make_rhs(params)(x, y, 0.0)
            assert gx == pytest.approx(fx, rel=1e-12, abs=1e-9)
            assert gy == pytest.approx(fy, rel=1e-12, abs=1e-9)


def test_rhs_arrays_cached_per_params(wmel, wmelpop):
    xs = np.array([6786.0, 4592.0, 0.5])
    ys = np.array([0.0, 1793.0, 7000.0])
    first = rhs_arrays(wmel, xs, ys)
    again = rhs_arrays(wmel, xs, ys)
    assert [a.tobytes() for a in again] == [a.tobytes() for a in first]
    # A copy that keeps the name but not the fields gets its own field.
    other = replace(wmel, omega=0.01)
    assert other.name == wmel.name
    got = rhs_arrays(other, xs, ys)
    expect = make_rhs(other, np.exp)(xs, ys, 0.0)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in expect]
    assert got[0].tobytes() != first[0].tobytes()
    # It holds the latest parameter object's closure: alternating objects,
    # equal or not, must give each its own field's bits every time.
    for params in (wmel, wmelpop, replace(wmel), other, wmel, replace(wmel), wmelpop, other):
        got = rhs_arrays(params, xs, ys)
        expect = make_rhs(params, np.exp)(xs, ys, 0.0)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expect]


def test_rhs_scalar_path_stays_on_floats(wmel):
    # Only the array path takes 0-d coefficients: the OCP's forward passes
    # and the adaptive integrator must not run on numpy scalars.
    dx, dy = make_rhs(wmel)(4592.0, 1793.0, 10.0)
    assert type(dx) is float and type(dy) is float


def test_jacobian_matches_finite_differences(wmel, wmelpop):
    rng = np.random.default_rng(42)
    for params in (wmel, wmelpop):
        bound = absorbing_bound(params)
        for _ in range(100):
            x = rng.uniform(1.0, bound)
            y = rng.uniform(1.0, bound - min(x, bound - 1.0))
            jac = jacobian(params, State(x, y))
            fd = fd_jacobian(params, x, y)
            assert np.allclose(jac, fd, rtol=1e-6, atol=1e-9)


def test_jacobian_is_the_complex_step_derivative(wmel, wmelpop):
    """``make_jacobian`` is the exact derivative of ``make_rhs``: against the
    complex step Im f(z + ih) / h, which has no subtraction and so no
    cancellation at h = 1e-20, every entry agrees to 1e-12 relative
    (measured: at most 1.1e-13) over 1,000 random states per preset."""
    h = 1e-20
    for params in (wmel, wmelpop):
        rng = np.random.default_rng(0)
        x, y = rng.uniform(0.0, absorbing_bound(params), (2, 1000))
        f = make_rhs(params, np.exp)
        d_x, d_y = (np.imag(f(x + 1j * h * dx, y + 1j * h * dy, 0.0)) / h
                    for dx, dy in ((1.0, 0.0), (0.0, 1.0)))
        step = np.array([d_x[0], d_y[0], d_x[1], d_y[1]])
        exact = np.array(make_jacobian(params)(x, y))
        assert np.max(np.abs(step - exact) / np.abs(exact)) <= 1e-12


def test_jacobian_entry_on_infected_axis(wmel):
    y = 800.0
    jac = jacobian(wmel, State(0.0, y))
    expected = (
        wmel.nu * wmel.rho_w * math.exp(-wmel.sigma * y) * (1 - wmel.sigma * y)
        - wmel.omega
        - wmel.delta_w
    )
    assert jac[1, 1] == pytest.approx(expected, rel=1e-12)


def test_origin_is_nodal_repeller(wmel):
    eigs = np.linalg.eigvals(jacobian(wmel, State(0.0, 0.0)))
    assert np.all(np.real(eigs) > 0)


def test_wild_only_attractor_direction(wmel):
    eq = equilibria(wmel)
    jac = jacobian(wmel, eq.ex.state)
    # Triangular at y = 0: the x-direction eigenvalue is the (1,1) entry.
    assert jac[1, 0] == pytest.approx(0.0, abs=1e-15)
    fd = fd_jacobian(wmel, eq.ex.state.x, 0.0)
    assert jac[0, 0] == pytest.approx(fd[0, 0], rel=1e-6)
    assert jac[0, 0] < 0


def test_equilibria_reference_coordinates(wmel, wmelpop):
    eq = equilibria(wmel)
    assert eq.eu.state.x == pytest.approx(4592, abs=1.0)
    assert eq.eu.state.y == pytest.approx(1793, abs=1.0)
    assert eq.es.state.x == pytest.approx(598, abs=1.0)
    assert eq.es.state.y == pytest.approx(5787, abs=1.0)
    eqp = equilibria(wmelpop)
    assert eqp.eu.state.x == pytest.approx(1050, abs=1.0)
    assert eqp.eu.state.y == pytest.approx(3778, abs=1.0)
    assert eqp.es.state.x == pytest.approx(135, abs=1.0)
    assert eqp.es.state.y == pytest.approx(4693, abs=1.0)


def test_equilibria_labels(wmel):
    eq = equilibria(wmel)
    assert eq.e0.stability == "repeller"
    assert eq.ex.stability == "attractor"
    assert eq.eu.stability == "saddle"
    assert eq.es.stability == "attractor"
    assert eq.ey is None
    assert not eq.collision


def test_equilibria_are_roots_of_the_field(wmel, wmelpop):
    for params in (wmel, wmelpop):
        eq = equilibria(params)
        for e in (eq.eu.state, eq.es.state):
            dx, dy = make_rhs(params)(e.x, e.y, 0.0)
            scale = e.x + e.y
            assert abs(dx) <= 1e-9 * scale
            assert abs(dy) <= 1e-9 * scale


def test_coexistence_sum_rule(wmel, wmelpop):
    for params in (wmel, wmelpop):
        eq = equilibria(params)
        q = offspring_numbers(params)
        total = math.log(q.q_y) / params.sigma
        assert eq.eu.state.x + eq.eu.state.y == pytest.approx(total, rel=1e-9)
        assert eq.es.state.x + eq.es.state.y == pytest.approx(total, rel=1e-9)
        assert eq.eu.state.x > eq.es.state.x
        assert eq.eu.state.y < eq.es.state.y


def test_no_coexistence_when_composite_number_small(wmel):
    p = StrainParams(**{**wmel.__dict__, "eta": 0.1})
    q = offspring_numbers(p)
    assert q.q_c < 1.0
    eq = equilibria(p)
    assert eq.eu is None and eq.es is None
    with pytest.raises(ValueError):
        secure_region(eq)


def test_secure_region(wmel):
    eq = equilibria(wmel)
    xu, yu = secure_region(eq)
    assert (xu, yu) == (eq.eu.state.x, eq.eu.state.y)
    # Strict on both thresholds, for floats and elementwise for arrays.
    assert in_secure_region(xu - 1.0, yu + 1.0, (xu, yu))
    for x, y in ((xu, yu + 1.0), (xu - 1.0, yu), (xu, yu), (xu + 1.0, yu + 1.0)):
        assert not in_secure_region(x, y, (xu, yu))
    xs = np.array([xu - 1.0, xu, xu - 1.0, xu])
    ys = np.array([yu + 1.0, yu + 1.0, yu, yu])
    assert in_secure_region(xs, ys, (xu, yu)).tolist() == [True, False, False, False]


def test_infected_only_equilibrium_perfect_corner(wmel):
    p = StrainParams(**{**wmel.__dict__, "nu": 1.0, "omega": 0.0})
    q = offspring_numbers(p)
    assert (q.q_x - q.q_y) / q.q_x < p.eta <= 1.0
    eq = equilibria(p)
    assert eq.ey is not None
    assert eq.ey.state.x == 0.0
    assert eq.ey.state.y == pytest.approx(math.log(q.q_y) / p.sigma, rel=1e-12)


def test_viability_failure_raises(wmel):
    p = StrainParams(**{**wmel.__dict__, "delta_w": 4.2})
    with pytest.raises(ValueError):
        equilibria(p)


@st.composite
def coexisting_params(draw):
    rho_n = draw(st.floats(3.0, 6.0))
    fitness_cost = draw(st.floats(0.75, 0.95))
    delta_n = draw(st.floats(1 / 35, 1 / 20))
    nu = draw(st.floats(0.9, 0.999))
    eta = draw(st.floats(0.9, 0.999))
    omega = draw(st.floats(0.0, 0.002))
    p = StrainParams(
        name="hyp",
        rho_n=rho_n,
        rho_w=fitness_cost * rho_n,
        delta_n=delta_n,
        delta_w=delta_n / fitness_cost,
        sigma=0.1 / 140.0,
        nu=nu,
        eta=eta,
        omega=omega,
    )
    q = offspring_numbers(p)
    disc = (q.q_c - 1.0) ** 2 - 4.0 * eta * q.q_yx / q.q_x
    if not (q.viable and q.q_c > 1.0 and disc > 1e-6):
        return None
    return p


@settings(max_examples=60, deadline=None)
@given(coexisting_params())
def test_coexistence_properties_random_params(params):
    if params is None:
        return
    eq = equilibria(params)
    assert eq.eu is not None and eq.es is not None
    q = offspring_numbers(params)
    total = math.log(q.q_y) / params.sigma
    for e in (eq.eu.state, eq.es.state):
        assert e.x + e.y == pytest.approx(total, rel=1e-9)
        dx, dy = make_rhs(params)(e.x, e.y, 0.0)
        assert abs(dx) <= 1e-9 * total
        assert abs(dy) <= 1e-9 * total
    assert eq.eu.state.x > eq.es.state.x
    assert eq.eu.state.y < eq.es.state.y
