"""The three workloads: inputs drawn from the seed, one round of work, checks.

A round is the unit that is timed and repeated.  Every call into the library
goes through the module attribute (``ocp.solve``, ``ga.run_ga``, ...) so the
tracing wrappers see it.  Each operation that can fail is checked and
counted in ``Round.attempted`` / ``Round.failed``; nothing is raised.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from wolbopt import ga, impulsive, ocp, reference, sim
from wolbopt.model import State
from wolbopt.params import preset
from wolbopt.scenarios import (
    build_scenario,
    epsilon_config,
    ga_cell,
    ga_config,
    ocp_config,
)

STRAINS = ("wmel", "wmelpop")
PERIODS = (1, 7, 14)

# Problem sizes, all set through public config.  ``bench`` is what the timed
# runs use; ``paper`` is the published problem (the counter self-check);
# ``smoke`` only proves that every metric is emitted.
SIZES = {
    "smoke": dict(grid_n=40, generations=2, pop_n=16, ga_seeds=2, adaptive_plans=8, batch=64,
                  phase_grid=8),
    "bench": dict(grid_n=100, generations=5, pop_n=100, ga_seeds=2, adaptive_plans=32,
                  batch=1024, phase_grid=40),
    "paper": dict(grid_n=2000, generations=100, pop_n=100, ga_seeds=2, adaptive_plans=32,
                  batch=1024, phase_grid=40),
}

# verify: horizon per strain (the p=7 GA cell, so block plans tile it) and
# plan totals as multiples of the published daily GA result.  The ranges
# come from a kernel probe so that both verdicts occur in every batch: a
# random wmel plan enters by day 14 with probability 0.06 at 1x, 0.4 at
# 1.5x and 0.86 at 4x (daily; about 0.2 for block plans), because there
# entry depends on timing more than on the total.
VERIFY_HORIZON = {"wmel": 14, "wmelpop": 63}
VERIFY_BLOCK = 7
VERIFY_TOTAL_RANGE = {"wmel": (1.5, 4.5), "wmelpop": (0.8, 2.4)}


@dataclass
class Round:
    """What one round produced: checked outcomes and the quality figures."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    released_total: float = 0.0
    horizon_days: float = 0.0
    verdicts: list = field(default_factory=list)  # True where the two integrators agree
    deviations: list = field(default_factory=list)  # (label, actual, reference)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok


def _rng(seed: int, round_idx: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, round_idx, salt])


def plan_schedule(genes) -> sim.ImpulseSchedule:
    """Day d's gene is a release at t = d, as the GA kernel applies it."""
    entries = tuple((float(d), int(v)) for d, v in enumerate(genes, start=1) if v)
    return sim.ImpulseSchedule(entries=entries)


def _entered_by(entry, horizon: float) -> bool:
    return entry is not None and entry <= horizon


# --- continuous: the Table-2 pipeline --------------------------------------


def continuous_inputs(seed: int, round_idx: int, size: dict, scen: dict) -> dict:
    """Initial wild population per strain: the computed x# at seed 0, else
    x# jittered by up to one individual.

    The band is narrow on purpose: the solver's pass count changes by 2x
    across x0 in [x#, 7030], so a wide draw would make the round time a
    property of the seed rather than of the program.
    """
    rng = _rng(seed, round_idx, 1)
    jitter = rng.uniform(-1.0, 1.0, len(STRAINS)) if seed else np.zeros(len(STRAINS))
    return {
        "grid_n": size["grid_n"],
        "x0": {n: scen[n].initial_wild + float(j) for n, j in zip(STRAINS, jitter)},
    }


def continuous_round(inputs: dict, scen: dict, report_deviation: bool) -> Round:
    r = Round()
    for name in STRAINS:
        x0 = inputs["x0"][name]
        scenario = build_scenario(scen[name].params, initial_wild=x0)
        params, target = scenario.params, scen[name].target
        try:
            sol = ocp.solve(params, ocp_config(scenario, grid_n=inputs["grid_n"]))
        except (ocp.CapInfeasibleError, ocp.NonConvergenceError, ValueError) as err:
            r.check(False, f"{name}: OCP raised {err!r}")
            continue
        if not r.check(sol.converged, f"{name}: OCP not converged {sol.residuals}"):
            continue
        ctrl = sol.control
        daily = impulsive.daily_impulses(ctrl)
        # The ceiling rule dominates every window integral.
        r.check(daily.total >= sol.total_released - 1e-6, f"{name}: daily total below integral")
        schedules = [(daily.schedule(), daily.t_hat)]
        try:
            rep = impulsive.evaluate_schedule(params, schedules[0][0], target, x0)
        except sim.IntegrationError as err:
            r.check(False, f"{name}: daily schedule raised {err!r}")
            continue
        r.check(rep.feasible, f"{name}: daily schedule never enters the secure region")
        r.released_total += daily.total
        r.horizon_days += ctrl.t_star
        rows = [("t_star", ctrl.t_star, reference.CONTINUOUS[name]["t_star"]),
                ("continuous total", sol.total_released, reference.CONTINUOUS[name]["total"]),
                ("daily total", daily.total, reference.IMPULSIVE[name][1][1])]
        entries = [rep.basin_entry_time]
        for m in (7, 14):
            try:
                seq, rep_m = impulsive.select_rule(params, ctrl, m, target, x0)
            except impulsive.NoFeasibleRuleError as err:
                r.check(False, f"{name} m={m}: {err}")
                continue
            except sim.IntegrationError as err:
                r.check(False, f"{name} m={m}: raised {err!r}")
                continue
            r.check(True, "")
            if seq.rule == "aggregate":
                r.check(seq.total == daily.total, f"{name} m={m}: aggregation changed the total")
            r.released_total += seq.total
            schedules.append((seq.schedule(), seq.period_m * len(seq.sizes)))
            entries.append(rep_m.basin_entry_time)
            rows.append((f"m={m} total ({seq.rule})", seq.total, reference.IMPULSIVE[name][m][1]))
        _kernel_verdicts(r, params, x0, target, schedules, entries)
        if report_deviation:
            r.deviations += [(f"{name} {label}", a, b) for label, a, b in rows]
    return r


def _kernel_verdicts(r: Round, params, x0, target, schedules, entries) -> None:
    """Does the GA's RK4 kernel agree with the adaptive integrator on
    whether each schedule enters the secure region by day T?  T is the
    longest span; every release lies within its schedule's span."""
    horizon = max(span for _, span in schedules)
    genes = np.zeros((len(schedules), horizon), dtype=np.int64)
    for i, (s, _) in enumerate(schedules):
        for t, size in s.entries:
            genes[i, int(t) - 1] += size
    _, _, kernel_entry = ga.simulate_batch(params, genes, x0, 4, target)
    for k_entry, a_entry in zip(kernel_entry, entries):
        k_in = not math.isnan(k_entry)
        r.verdicts.append(k_in == _entered_by(a_entry, horizon))


# --- discrete: the Table-4 matrix ------------------------------------------


def discrete_inputs(seed: int, round_idx: int, size: dict, scen: dict) -> dict:
    """GA seeds per cell.  Seed 0, round 0 uses GA seeds 0, 1, ..., the seeds
    the reproduction tests start from."""
    k = size["ga_seeds"]
    base = seed * 1000 + round_idx * k
    return {
        "ga_seeds": [base + i for i in range(k)],
        "generations": size["generations"],
        "pop_n": size["pop_n"],
    }


def discrete_round(inputs: dict, scen: dict, report_deviation: bool) -> Round:
    r = Round()
    for name in STRAINS:
        for freq in PERIODS:
            cell = ga_cell(name, freq)
            best = None
            for ga_seed in inputs["ga_seeds"]:
                scenario = build_scenario(scen[name].params, frequency=freq, seed=ga_seed)
                cfg = ga_config(scenario, generations_g=inputs["generations"],
                                pop_n=inputs["pop_n"])
                target = scen[name].target
                if cell.floor_search:
                    res = ga.epsilon_loop(epsilon_config(cell, freq), cfg, scenario.params,
                                          target, scenario.initial_wild)
                    if res.best is None:
                        continue
                    plan, rep, horizon = res.best, res.report, res.horizon
                else:
                    out = ga.run_ga(cfg, cell.horizon, scenario.params, target,
                                    scenario.initial_wild)
                    plan, rep, horizon = out.best, out.report, cell.horizon
                if rep.feasible and (best is None or rep.j_value < best[1].j_value):
                    best = (plan, rep, horizon, scenario, cfg)
            label = f"{name} p={freq}"
            if not r.check(best is not None, f"{label}: no feasible plan"):
                continue
            plan, rep, horizon, scenario, cfg = best
            try:
                ga.validate_plan(plan, cfg.cap_l)
                valid = plan.j_value == rep.j_value
            except ValueError:
                valid = False
            r.check(valid, f"{label}: best plan breaks the gene invariants")
            try:
                traj = sim.simulate_impulsive(
                    scenario.params, State(scenario.initial_wild, 0.0),
                    plan_schedule(plan.genes), sim.SimOptions(t_end=float(horizon)))
                fx, fy = traj.final_state
                verified = fx < target[0] and fy > target[1]
            except sim.IntegrationError:
                verified = False
            r.check(verified, f"{label}: plan fails adaptive re-verification")
            r.verdicts.append(verified)
            r.released_total += rep.j_value
            r.horizon_days += horizon
            if report_deviation:
                r.deviations.append((f"{label} total J", rep.j_value, reference.GA[name][freq][1]))
    return r


# --- verify: adaptive integrator against the GA kernel ---------------------


def _random_plans(
    rng: np.random.Generator, n: int, horizon: int, scale: float,
    total_range: tuple[float, float], strata: int,
) -> np.ndarray:
    """Integer plans, alternately daily and one release per 7-day block.

    Totals are stratified over ``total_range`` (times ``scale``) in every run
    of ``strata`` plans, so the adaptively checked head of the batch always
    spans the range and holds plans on both sides of the threshold.
    """
    genes = np.zeros((n, horizon), dtype=np.int64)
    lo, hi = total_range
    stratum = (np.arange(n) % strata + rng.uniform(0.0, 1.0, n)) / strata
    totals = scale * (lo + (hi - lo) * stratum)
    blocks = horizon // VERIFY_BLOCK
    for i in range(n):
        if i % 2 == 0:
            w = rng.dirichlet(np.ones(horizon))
            genes[i] = np.floor(w * totals[i])
        else:
            w = rng.dirichlet(np.ones(blocks))
            days = np.arange(blocks) * VERIFY_BLOCK + rng.integers(0, VERIFY_BLOCK, blocks)
            genes[i, days] = np.floor(w * totals[i])
    return genes


def verify_inputs(seed: int, round_idx: int, size: dict, scen: dict) -> dict:
    rng = _rng(seed, round_idx, 3)
    plans = {
        name: _random_plans(rng, size["batch"], VERIFY_HORIZON[name], reference.GA[name][1][1],
                            VERIFY_TOTAL_RANGE[name], size["adaptive_plans"])
        for name in STRAINS
    }
    return {"plans": plans, "adaptive": size["adaptive_plans"], "phase_grid": size["phase_grid"]}


def verify_round(inputs: dict, scen: dict, report_deviation: bool) -> Round:
    r = Round()
    for name in STRAINS:
        params, target, x0 = scen[name].params, scen[name].target, scen[name].initial_wild
        totals, entry_days = [], []
        genes = inputs["plans"][name]
        horizon = genes.shape[1]
        opts = sim.SimOptions(t_end=float(horizon))
        adaptive = []
        for row in genes[: inputs["adaptive"]]:
            try:
                rep = impulsive.evaluate_schedule(params, plan_schedule(row), target, x0, opts)
            except sim.IntegrationError as err:
                r.check(False, f"{name}: adaptive simulation raised {err!r}")
                adaptive.append(None)
                continue
            r.check(True, "")
            adaptive.append(rep.basin_entry_time)
            if rep.feasible:
                totals.append(int(row.sum()))
                entry_days.append(rep.basin_entry_time)
        x, y, kernel_entry = ga.simulate_batch(params, genes, x0, 4, target)
        r.check(bool(np.all(np.isfinite(x)) and np.all(np.isfinite(y))),
                f"{name}: kernel produced non-finite states")
        for k_entry, a_entry in zip(kernel_entry, adaptive):
            r.verdicts.append((not math.isnan(k_entry)) == _entered_by(a_entry, horizon))
        try:
            curve = sim.separatrix(params)
            saddle = np.array(scen[name].target)
            ok = bool(np.any(np.all(np.isclose(curve, saddle), axis=1)))
        except (ValueError, sim.IntegrationError):
            ok = False
        r.check(ok, f"{name}: separatrix does not pass through the saddle")
        n = inputs["phase_grid"]
        bound = 1.5 * x0
        field = sim.phase_field(params, np.linspace(0.0, bound, n), np.linspace(0.0, bound, n))
        r.check(field.shape == (n * n, 4) and bool(np.all(np.isfinite(field))),
                f"{name}: phase field malformed")
        # Quality figures of a batch, summed over strains: the total of the
        # typical plan that works, and the day it takes effect.
        if r.check(bool(totals), f"{name}: no plan in the batch enters the secure region"):
            r.released_total += statistics.median(totals)
            r.horizon_days += statistics.median(entry_days)
    return r


WORKLOADS = {
    "continuous": (continuous_inputs, continuous_round),
    "discrete": (discrete_inputs, discrete_round),
    "verify": (verify_inputs, verify_round),
}


@dataclass(frozen=True)
class _Resolved:
    params: object
    initial_wild: float
    target: tuple


def resolve_scenarios() -> dict:
    """The set-up every run pays: both presets with equilibria and target."""
    out = {}
    for name in STRAINS:
        scenario = build_scenario(preset(name))
        out[name] = _Resolved(scenario.params, scenario.initial_wild, scenario.target)
    return out
