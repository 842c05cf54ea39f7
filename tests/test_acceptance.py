"""Acceptance suite: one printed PASS/FAIL line per criterion and cell.

Run `pytest tests/test_acceptance.py -v -s` to see every line.  Reference
indicators live in wolbopt.reference; scenario wiring and the Table-2/4
rows that pair them with reproduced values in wolbopt.scenarios.
"""

import numpy as np
import pytest

from wolbopt import reference
from wolbopt.ga import evaluate_population, init_population, run_ga
from wolbopt.impulsive import (
    aggregate_periodic,
    daily_impulses,
    evaluate_schedule,
    excess_periodic,
)
from wolbopt.model import (
    State,
    absorbing_bound,
    equilibria,
    jacobian,
    make_rhs,
)
from wolbopt.ocp import _extremal_field, _hamiltonian
from wolbopt.params import preset
from wolbopt.scenarios import (
    build_scenario,
    computed_x_sharp,
    ga_config,
    table2,
    table4,
)
from wolbopt.sim import SimOptions, separatrix

from oracles import classify_endpoint, separatrix_height

LONG = SimOptions(t_end=600.0)


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}: {detail}")


def _solution(strain, wmel_solution, wmelpop_solution):
    return wmel_solution if strain == "wmel" else wmelpop_solution


# --- Criterion 1: equilibria reproduction (5% per coordinate) -----------


@pytest.mark.parametrize("strain", ["wmel", "wmelpop"])
def test_criterion1_equilibria(strain):
    eq = equilibria(preset(strain))
    ref = reference.EQUILIBRIA[strain]
    pairs = [
        ("Eu.x", eq.eu.state.x, ref["eu"][0]),
        ("Eu.y", eq.eu.state.y, ref["eu"][1]),
        ("Es.x", eq.es.state.x, ref["es"][0]),
        ("Es.y", eq.es.state.y, ref["es"][1]),
    ]
    devs = {name: abs(a - r) / r for name, a, r in pairs}
    ok = all(d <= 0.05 for d in devs.values())
    report(
        f"criterion 1 [{strain}]",
        ok,
        "equilibria coordinate deviations "
        + ", ".join(f"{k}={100 * v:.2f}%" for k, v in devs.items()),
    )
    assert ok, devs


# --- Criterion 2: continuous release problem reproduction ----------------


@pytest.mark.parametrize("strain", ["wmel", "wmelpop"])
def test_criterion2_ocp_reproduction(strain, wmel_solution, wmelpop_solution):
    sol = _solution(strain, wmel_solution, wmelpop_solution)
    rows, _ = table2(build_scenario(preset(strain)), sol)
    t_star, total = rows[:2]
    dev_t, dev_total = abs(t_star.deviation), abs(total.deviation)
    residuals_ok = sol.converged
    ok = dev_t <= 0.10 and dev_total <= 0.10 and residuals_ok
    report(
        f"criterion 2 [{strain}]",
        ok,
        f"t_star={t_star.value:.3f} (dev {100 * dev_t:.1f}%), "
        f"total={total.value:.0f} (dev {100 * dev_total:.1f}%), "
        f"residuals={ {k: round(v, 4) for k, v in sol.residuals.items()} }",
    )
    assert residuals_ok, sol.residuals
    assert dev_t <= 0.10, f"t_star deviation {100 * dev_t:.1f}% exceeds 10%"
    assert dev_total <= 0.10, f"total deviation {100 * dev_total:.1f}% exceeds 10%"


# --- Criterion 3: impulsive schedule indicators ---------------------------


@pytest.mark.parametrize("strain", ["wmel", "wmelpop"])
def test_criterion3_impulsive_indicators(strain, wmel_solution, wmelpop_solution):
    sol = _solution(strain, wmel_solution, wmelpop_solution)
    rows, missing = table2(build_scenario(preset(strain)), sol)
    row = {r.label: r for r in rows}
    daily = row[f"{strain} daily releases"]
    checks = [("daily count", abs(daily.value - daily.reference) <= 1,
               f"{daily.value} vs {daily.reference}±1")]
    for cell in ("daily", "m=7", "m=14"):
        total = row.get(f"{strain} {cell} total")
        if total is not None:
            dev = abs(total.deviation)
            checks.append((f"{cell} total", dev <= 0.10,
                           f"{total.value} vs {total.reference} ({100*dev:.1f}%)"))
        entered = f"{strain} {cell}" not in missing
        checks.append((f"{cell} feasible", entered, "enters" if entered else "never enters"))

    ok = all(c[1] for c in checks)
    report(
        f"criterion 3 [{strain}]",
        ok,
        "; ".join(f"{name}: {'ok' if good else 'FAIL'} ({info})" for name, good, info in checks),
    )
    assert ok, [c for c in checks if not c[1]]


# --- Criterion 4: suboptimality chain (exact inequality direction) -------


@pytest.mark.parametrize("strain", ["wmel", "wmelpop"])
def test_criterion4_suboptimality_chain(strain, wmel_solution, wmelpop_solution):
    sol = _solution(strain, wmel_solution, wmelpop_solution)
    continuous_total = float(np.trapezoid(sol.control.values, sol.control.times))
    daily = daily_impulses(sol.control)
    worst = None
    for m in range(1, 15):
        agg = aggregate_periodic(daily, m).total
        exc = excess_periodic(sol.control, m).total
        assert continuous_total <= agg, f"m={m}: continuous {continuous_total} > aggregate {agg}"
        assert agg <= exc, f"m={m}: aggregate {agg} > excess {exc}"
        gap = min(agg - continuous_total, exc - agg)
        worst = gap if worst is None else min(worst, gap)
    report(
        f"criterion 4 [{strain}]",
        True,
        f"chain holds for m=1..14 (tightest slack {worst:.1f})",
    )


# --- Criterion 5: discrete-search reproduction (stochastic, 5 seeds) ------

GA_SEEDS = range(5)


@pytest.mark.parametrize(
    "strain,freq", [(s, f) for s in ("wmel", "wmelpop") for f in (1, 7, 14)]
)
def test_criterion5_ga_reproduction(strain, freq):
    table2_count, table2_total = reference.IMPULSIVE[strain][freq]
    rows, best = table4(preset(strain), freq, GA_SEEDS)
    assert best is not None, "no feasible plan in any seed"
    count, j = rows
    plan, _, horizon, scenario = best
    dev = abs(j.deviation)
    count_ok = count.value <= table2_count
    # Independent re-verification with the adaptive integrator.
    verified = evaluate_schedule(
        scenario.params, plan.schedule(), scenario.target, scenario.initial_wild,
        SimOptions(t_end=float(horizon)),
    ).end_margin > 0
    dominates = j.value <= table2_total
    ok = dev <= 0.15 and count_ok and verified and dominates
    report(
        f"criterion 5 [{strain} p={freq}]",
        ok,
        f"J={j.value} vs {j.reference} ({100 * dev:.1f}%), releases={count.value} "
        f"<= {table2_count}: {count_ok}, J <= impulsive {table2_total}: {dominates}, "
        f"horizon={horizon}, re-verified={verified}",
    )
    assert dev <= 0.15, f"J deviation {100 * dev:.1f}% exceeds 15%"
    assert count_ok, f"{count.value} releases exceed {table2_count}"
    assert dominates, f"J={j.value} exceeds the impulsive total {table2_total}"
    assert verified, "plan failed adaptive re-verification"


# --- Criterion 6: numerical property suites -------------------------------


def test_criterion6_jacobian_matches_finite_differences():
    rng = np.random.default_rng(2024)
    for strain in ("wmel", "wmelpop"):
        params = preset(strain)
        bound = absorbing_bound(params)
        for _ in range(100):
            x = rng.uniform(1.0, bound * 0.95)
            y = rng.uniform(1.0, max(bound - x, 2.0))
            jac = jacobian(params, State(x, y))
            h = 1e-3
            fd = np.empty((2, 2))
            for j, (dx, dy) in enumerate(((h, 0.0), (0.0, h))):
                fp = make_rhs(params)(x + dx, y + dy, 0.0)
                fm = make_rhs(params)(x - dx, y - dy, 0.0)
                fd[0, j] = (fp[0] - fm[0]) / (2 * h)
                fd[1, j] = (fp[1] - fm[1]) / (2 * h)
            assert np.allclose(jac, fd, rtol=1e-6, atol=1e-9)
    report(
        "criterion 6 [jacobian vs FD]",
        True,
        "analytic entries match central differences at rel 1e-6 on 100 states/strain",
    )


def test_criterion6_adjoint_matches_hamiltonian_gradient():
    rng = np.random.default_rng(11)
    for strain in ("wmel", "wmelpop"):
        params = preset(strain)
        f, field = make_rhs(params), _extremal_field(params, 1000.0)
        for _ in range(100):
            x, y = rng.uniform(20.0, 7000.0, size=2)
            l1, l2 = rng.uniform(-500.0, 500.0, size=2)
            u = rng.uniform(0.0, 1000.0)
            # The adjoint half of the field the solver's shooting pass integrates.
            got = field(np.array([[x], [y]]), np.array([[l1], [l2]]), 0.0)[1][:, 0]

            def H(xx, yy):
                return _hamiltonian(f(xx, yy, 0.0), l1, l2, u, 1e6)

            h1, h2 = 1e-2, 5e-3
            vals = []
            for h in (h1, h2):
                dh_dx = (H(x + h, y) - H(x - h, y)) / (2 * h)
                dh_dy = (H(x, y + h) - H(x, y - h)) / (2 * h)
                vals.append(np.array([dh_dx, dh_dy]))
            fd = (4.0 * vals[1] - vals[0]) / 3.0
            # abs floor covers the FD cancellation noise of the large
            # Hamiltonian terms on near-zero derivative entries
            assert got[0] == pytest.approx(-fd[0], rel=1e-6, abs=1e-5)
            assert got[1] == pytest.approx(-fd[1], rel=1e-6, abs=1e-5)
    report("criterion 6 [adjoint vs FD]", True, "adjoint velocities match -dH/d(x,y) at rel 1e-6")


def test_criterion6_hamiltonian_constancy(wmel_solution, wmelpop_solution):
    bound = 10.0 * 200.0  # ten times the configured terminal tolerance
    for name, sol in (("wmel", wmel_solution), ("wmelpop", wmelpop_solution)):
        peak = float(np.max(np.abs(sol.hamiltonian_grid)))
        assert peak <= bound, f"{name}: |H| reaches {peak}"
    report(
        "criterion 6 [H constancy]",
        True,
        f"max |H| on grid: wmel={np.max(np.abs(wmel_solution.hamiltonian_grid)):.1f}, "
        f"wmelpop={np.max(np.abs(wmelpop_solution.hamiltonian_grid)):.1f} (bound {bound:.0f})",
    )


def test_criterion6_elitism_monotone():
    scenario = build_scenario(preset("wmel"), frequency=14, seed=8)
    cfg = ga_config(scenario, pop_n=30, generations_g=25)
    res = run_ga(cfg, 14, scenario.params, scenario.target, scenario.initial_wild)
    fits = [r.best_fitness for r in res.history]
    assert all(b >= a for a, b in zip(fits, fits[1:]))
    report("criterion 6 [elitism]", True, "best fitness nondecreasing across 25 generations")


def test_criterion6_operator_invariants():
    from wolbopt.ga import GAConfig, crossover, init_population, mutate, validate_plan
    from wolbopt.ga import ReleasePlan

    rng = np.random.default_rng(13)
    applications = 0
    while applications < 1000:
        p_blk = int(rng.choice([1, 7, 14]))
        t = p_blk * int(rng.integers(1, 5))
        cfg = GAConfig(
            pop_n=4, generations_g=1, cap_l=float(rng.choice([500, 750, 1000])),
            block_p=p_blk, mutation_rate=1.0, rng_seed=0,
        )
        pop = init_population(cfg, t, rng)
        c, d = crossover(pop[0], pop[1], p_blk, rng)
        m = mutate(c, cfg, rng)
        for genes in (c, d, m):
            validate_plan(ReleasePlan(genes=genes, block_p=p_blk), cfg.cap_l)
            applications += 1
    report("criterion 6 [operator invariants]", True, f"{applications} operator applications validated")


def test_criterion6_determinism_row_independence():
    scenario = build_scenario(preset("wmel"), frequency=7, seed=21)
    cfg = ga_config(scenario, pop_n=20, generations_g=8)
    target, x0 = scenario.target, scenario.initial_wild
    a = run_ga(cfg, 14, scenario.params, target, x0)
    b = run_ga(cfg, 14, scenario.params, target, x0)
    assert np.array_equal(a.best.genes, b.best.genes)
    assert [r.best_fitness for r in a.history] == [r.best_fitness for r in b.history]
    # A row's fitness must not depend on the rows batched with it.
    batch_cfg = ga_config(scenario)  # pop_n = 100, the batch size the GA evaluates
    genes = init_population(batch_cfg, 14, np.random.default_rng(21))
    full = evaluate_population(scenario.params, genes, target, x0, batch_cfg)
    for step in (7, 1):
        parts = [
            evaluate_population(scenario.params, genes[lo:lo + step], target, x0, batch_cfg)
            for lo in range(0, genes.shape[0], step)
        ]
        for k, whole in enumerate(full):
            assert whole.tobytes() == np.concatenate([p[k] for p in parts]).tobytes()
    report(
        "criterion 6 [determinism]", True,
        "identical reruns; 100-row batch bit-identical in 7-row chunks and row by row",
    )


# --- Criterion 7: bistability sanity --------------------------------------


@pytest.mark.parametrize("strain", ["wmel", "wmelpop"])
def test_criterion7_bistability(strain):
    params = preset(strain)
    curve = separatrix(params)
    x_sharp = computed_x_sharp(params)
    xs = curve[:, 0]
    lo_x = float(np.quantile(xs, 0.15))
    hi_x = float(np.quantile(xs, 0.9))
    probe_xs = list(np.linspace(lo_x, hi_x, 9))
    if xs.min() <= x_sharp <= xs.max():
        probe_xs.append(x_sharp)
    else:
        probe_xs.append(float(np.quantile(xs, 0.5)))
    worst_rel = 0.0
    for px in probe_xs[:10]:
        height = separatrix_height(curve, px)
        lo, hi = 0.5 * height, 1.5 * height
        if classify_endpoint(params, State(px, lo), LONG) != "ex":
            lo = 1.0
        for _ in range(12):
            mid = 0.5 * (lo + hi)
            if classify_endpoint(params, State(px, mid), LONG) == "es":
                hi = mid
            else:
                lo = mid
        worst_rel = max(worst_rel, abs(hi - height) / height)
        assert classify_endpoint(params, State(px, 1.03 * height), LONG) == "es"
        assert classify_endpoint(params, State(px, 0.97 * height), LONG) == "ex"
    ok = worst_rel <= 0.03
    report(
        f"criterion 7 [{strain}]",
        ok,
        f"10 probes: bisected thresholds within {100 * worst_rel:.2f}% of the separatrix",
    )
    assert ok
