"""The adaptive Dormand-Prince 5(4) integrator (``sim.solve_ivp``) against
scipy's RK45, which is a test-only reference, plus its failure modes and
the runtime's independence from scipy."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wolbopt
from wolbopt import sim
from wolbopt.model import State, equilibria, in_secure_region
from wolbopt.sim import (
    ImpulseSchedule,
    IntegrationError,
    SimOptions,
    first_basin_entry,
    integrate,
    separatrix,
    simulate_impulsive,
)


class _ScipyRun:
    """scipy's RK45 result behind the ``sim.solve_ivp`` interface."""

    def __init__(self, sol):
        assert sol.success, sol.message
        self.sol, self.nfev, self.t_stop = sol, sol.nfev, float(sol.t[-1])

    def __call__(self, ts):
        return self.sol.sol(ts).T


def scipy_ivp(fun, span, y0, rtol, atol, max_step=math.inf, stop=None):
    scipy_integrate = pytest.importorskip("scipy.integrate")  # a test extra
    events = None
    if stop is not None:
        def events(t, z):
            return stop(t, z[0], z[1])

        events.terminal, events.direction = True, -1.0
    sol = scipy_integrate.solve_ivp(
        lambda t, z: fun(t, z[0], z[1]), span, y0, method="RK45", rtol=rtol, atol=atol,
        max_step=max_step, dense_output=True, events=events,
    )
    return _ScipyRun(sol)


def both(monkeypatch, run):
    """``run()`` with the in-house integrator, then with scipy's, with the
    nfev of every integrator call."""
    out = []
    for ivp in (sim.solve_ivp, scipy_ivp):
        calls = []

        def counted(*args, ivp=ivp, **kwargs):
            sol = ivp(*args, **kwargs)
            calls.append(sol.nfev)
            return sol

        monkeypatch.setattr(sim, "solve_ivp", counted)
        out.append((run(), calls))
    monkeypatch.undo()
    return out


@pytest.mark.parametrize("strain, horizon", [("wmel", 20), ("wmelpop", 70)])
def test_impulsive_runs_match_scipy(strain, horizon, request, monkeypatch):
    # Seeded schedules (daily or every 7 days, half to full cap, over a
    # quarter to all of the horizon) from the scenario's initial state:
    # the same steps (nfev) and final states to 1e-9, so the same verdicts.
    scenario = request.getfixturevalue(f"{strain}_scenario")
    s0, cap, target = State(scenario.initial_wild, 0.0), scenario.cap_l, scenario.target
    opts = SimOptions(t_end=horizon + 30.0)
    rng = np.random.default_rng(18)
    verdicts = []
    for period in (1, 7) * 4:
        days = np.arange(1.0, rng.integers(2, horizon + 1), period)
        sizes = rng.integers(int(0.2 * cap * period), int(cap * period) + 1, days.size)
        sched = ImpulseSchedule(entries=tuple(zip(days.tolist(), sizes.tolist())))
        (ours, n_ours), (ref, n_ref) = both(
            monkeypatch, lambda: simulate_impulsive(scenario.params, s0, sched, opts)
        )
        assert n_ours == n_ref
        assert ours.final_state == pytest.approx(ref.final_state, rel=1e-9, abs=1e-9)
        verdict = bool(in_secure_region(*ours.final_state, target))
        assert verdict == bool(in_secure_region(*ref.final_state, target))
        entry = first_basin_entry(ours, target)
        assert (entry is None) == (first_basin_entry(ref, target) is None)
        verdicts.append(verdict)
    assert set(verdicts) == {True, False}


@pytest.mark.parametrize("strain", ["wmel", "wmelpop"])
def test_sampled_control_matches_scipy(strain, request, monkeypatch):
    # The control's kinks set the error here: both integrators step over
    # them at 1e-8, so the reference itself is good to about 1e-6.
    scenario = request.getfixturevalue(f"{strain}_scenario")
    ctrl = request.getfixturevalue(f"{strain}_solution").control
    s0 = State(scenario.initial_wild, 0.0)
    (ours, _), (ref, _) = both(
        monkeypatch,
        lambda: integrate(scenario.params, s0, (ctrl.times, ctrl.values), (0.0, 120.0)),
    )
    assert ours.final_state == pytest.approx(ref.final_state, rel=1e-5)
    assert np.array_equal(ours.times, ref.times)


@pytest.mark.parametrize("strain", ["wmel", "wmelpop"])
def test_separatrix_branches_match_scipy(strain, request, monkeypatch):
    # The step counts need not agree: a branch can end crawling into the
    # origin, where steps of 1e-9 are set by rounding.
    params = request.getfixturevalue(strain)
    (ours, _), (ref, _) = both(monkeypatch, lambda: separatrix(params))
    assert ours.shape == ref.shape
    assert np.max(np.abs(ours - ref)) < 1e-9 * np.max(np.abs(ref))
    # Each branch starts one offset from the saddle, on either side.
    eu = equilibria(params).eu.state
    saddle = np.array([eu.x, eu.y])
    i = int(np.argmin(np.hypot(*(ours - saddle).T)))
    assert np.array_equal(ours[i], saddle)
    offset = sim.SEPARATRIX_OFFSET * np.linalg.norm(saddle)
    for j in (i - 1, i + 1):
        assert np.linalg.norm(ours[j] - saddle) == pytest.approx(offset, rel=1e-6)
    assert np.dot(ours[i - 1] - saddle, ours[i + 1] - saddle) < 0.0


def test_nonfinite_field_fails_fast(wmel, wmel_scenario):
    # scipy's step control never ends on a nan field: its first step is
    # nan, and nan is never below the minimum step.
    s0 = State(wmel_scenario.initial_wild, 0.0)
    with pytest.raises(IntegrationError, match="non-finite"):
        integrate(wmel, s0, lambda t: math.nan, (0.0, 50.0))
    with pytest.raises(IntegrationError, match="non-finite"):
        integrate(wmel, s0, lambda t: math.nan if t > 10.0 else 500.0, (0.0, 50.0))
    # At rest at the origin the first derivative is 0, so a nan at the
    # first-step probe would otherwise divide by that 0.
    with pytest.raises(IntegrationError, match="non-finite"):
        integrate(wmel, State(0.0, 0.0), lambda t: math.nan if t > 0.0 else 0.0, (0.0, 5.0))


def test_step_control_matches_scipy():
    # A forced oscillator over spans that end mid-step: the last step is
    # cut at the span's end, and a rejection there shrinks the cut step.
    def osc(t, x, y):
        return y, -x - 0.1 * y * math.sin(5.0 * t)

    for t1 in np.linspace(0.3, 20.0, 60):
        for rtol in (1e-3, 1e-6, 1e-8):
            ours = sim.solve_ivp(osc, (0.0, t1), (1.0, 0.0), rtol, 1e-2 * rtol)
            ref = scipy_ivp(osc, (0.0, t1), (1.0, 0.0), rtol, 1e-2 * rtol)
            assert ours.nfev == ref.nfev
            ts = np.linspace(0.0, t1, 7)
            assert np.allclose(ours(ts), ref(ts), rtol=1e-12, atol=1e-14)


def test_integrator_edges():
    def decay(t, x, y):
        return -x, -2.0 * y

    sol = sim.solve_ivp(decay, (1.0, 1.0), (3.0, 4.0), 1e-8, 1e-10)
    assert sol(np.array([1.0, 1.0])).tolist() == [[3.0, 4.0], [3.0, 4.0]]
    with pytest.raises(ValueError, match="backward"):
        sim.solve_ivp(decay, (1.0, 0.0), (3.0, 4.0), 1e-8, 1e-10)
    sol = sim.solve_ivp(decay, (0.0, 2.0), (3.0, 4.0), 1e-10, 1e-12)
    ends = sol(np.array([0.0, 2.0]))
    assert ends[0].tolist() == [3.0, 4.0]
    assert ends[1] == pytest.approx([3.0 * math.exp(-2.0), 4.0 * math.exp(-4.0)], rel=1e-8)
    # A stop function ends the run where it falls through 0.
    sol = sim.solve_ivp(decay, (0.0, 5.0), (3.0, 4.0), 1e-10, 1e-12, stop=lambda t, x, y: x - 1.0)
    assert sol.t_stop == pytest.approx(math.log(3.0), rel=1e-9)
    assert sol(np.array([sol.t_stop]))[0, 0] == pytest.approx(1.0, rel=1e-9)


def test_runtime_never_imports_scipy():
    src = Path(wolbopt.__file__).resolve().parents[1]
    script = """
import sys
import numpy as np
import wolbopt.cli
from wolbopt.model import State
from wolbopt.params import preset
from wolbopt.sim import ImpulseSchedule, integrate, separatrix, simulate_impulsive

p = preset("wmel")
s0 = State(6000.0, 0.0)
simulate_impulsive(p, s0, ImpulseSchedule(entries=((1.0, 500),)))
integrate(p, s0, (np.array([0.0, 10.0]), np.array([500.0, 0.0])), (0.0, 20.0))
separatrix(p)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "[]"
