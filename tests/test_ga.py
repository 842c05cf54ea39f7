import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wolbopt import ga
from wolbopt.ga import (
    ROW_BATCH,
    SCREEN_MARGIN,
    EpsilonLoopResult,
    FitnessReport,
    GAConfig,
    ReleasePlan,
    _propose,
    best_feasible,
    crossover,
    epsilon_loop,
    evaluate_population,
    init_population,
    mutate,
    run_ga,
    simulate_batch,
    validate_plan,
)
from wolbopt.impulsive import evaluate_schedule
from wolbopt.model import State, equilibria, in_secure_region, make_rhs
from wolbopt.params import preset
from wolbopt.scenarios import GA_CELLS, build_scenario, ga_config
from wolbopt.sim import SimOptions, rk4, simulate_impulsive


@pytest.fixture(scope="module")
def wmel_target(wmel):
    eq = equilibria(wmel)
    return (eq.eu.state.x, eq.eu.state.y)


def small_cfg(**kw):
    base = dict(pop_n=20, generations_g=10, cap_l=750.0, block_p=1, rng_seed=1)
    base.update(kw)
    return GAConfig(**base)


def test_init_population_daily_bounds():
    cfg = small_cfg(pop_n=50)
    rng = np.random.default_rng(0)
    genes = init_population(cfg, 11, rng)
    assert genes.shape == (50, 11)
    assert genes.min() >= 0 and genes.max() <= 750


@pytest.mark.parametrize("p", [1, 14])
def test_init_population_block_structure(p):
    cfg = small_cfg(block_p=p, cap_l=750.0)
    for horizon in (14, 42):
        genes = init_population(cfg, horizon, np.random.default_rng(0))
        nb = horizon // p
        for row in genes:
            for blk in row.reshape(nb, p):
                assert np.count_nonzero(blk) <= 1
            assert row.max() <= p * 750
            validate_plan(ReleasePlan(genes=row, block_p=p), cfg.cap_l)
        # Reference: the same draws placed block by block.
        rng = np.random.default_rng(0)
        positions = rng.integers(0, p, size=(cfg.pop_n, nb))
        values = rng.integers(0, p * 750 + 1, size=(cfg.pop_n, nb), dtype=np.int64)
        ref = np.zeros_like(genes)
        for i in range(cfg.pop_n):
            for b in range(nb):
                ref[i, b * p + positions[i, b]] = values[i, b]
        assert np.array_equal(genes, ref)
        if p == 1:
            # A one-day block draws no position bits: the daily population
            # is one uniform (n, T) draw.
            daily = np.random.default_rng(0).integers(
                0, 751, size=(cfg.pop_n, horizon), dtype=np.int64)
            assert np.array_equal(genes, daily)
    two = np.zeros(42, dtype=np.int64)
    two[[15, 20]] = 1  # both in the second block
    with pytest.raises(ValueError, match="one nonzero gene per block"):
        validate_plan(ReleasePlan(genes=two, block_p=14), cfg.cap_l)
    # At p = 1 the block rule is the daily cap: a gene above cap_l fails.
    daily = np.full(5, 750, dtype=np.int64)
    validate_plan(ReleasePlan(genes=daily, block_p=1), 750.0)
    daily[2] = 751
    with pytest.raises(ValueError, match="must not exceed"):
        validate_plan(ReleasePlan(genes=daily, block_p=1), 750.0)


def test_init_population_deterministic():
    cfg = small_cfg()
    a = init_population(cfg, 11, np.random.default_rng(9))
    b = init_population(cfg, 11, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_fitness_formula_feasible_and_infeasible(wmel, wmel_target, wmel_scenario):
    cfg = small_cfg(block_p=14)
    # Single big release clears the region; fitness is exactly 1/J.
    genes = np.zeros((1, 14), dtype=np.int64)
    genes[0, 0] = 6000
    f, j, feas, m = evaluate_population(
        wmel, genes, wmel_target, wmel_scenario.initial_wild, cfg
    )
    assert feas[0] and j[0] == 6000
    assert f[0] == pytest.approx(1.0 / 6000.0, rel=1e-12)
    assert m[0] > 0

    zero = np.zeros((1, 11), dtype=np.int64)
    f, j, feas, m = evaluate_population(
        wmel, zero, wmel_target, wmel_scenario.initial_wild, small_cfg()
    )
    assert not feas[0]
    assert f[0] == pytest.approx(1.0 / (750.0 * 11.0), rel=1e-12)
    assert m[0] < 0


def test_penalty_dominance(wmel, wmel_target, wmel_scenario):
    cfg = small_cfg(block_p=14)
    feasible = np.zeros(14, dtype=np.int64)
    feasible[0] = 9000
    heavy_infeasible = np.zeros(14, dtype=np.int64)
    heavy_infeasible[13] = 300  # late tiny release: no suppression
    genes = np.vstack([feasible, heavy_infeasible])
    f, j, feas, _ = evaluate_population(
        wmel, genes, wmel_target, wmel_scenario.initial_wild, cfg
    )
    assert feas[0] and not feas[1]
    assert f[0] > f[1]


def test_batch_simulation_matches_adaptive_integrator(wmel, wmel_scenario):
    rng = np.random.default_rng(5)
    genes = rng.integers(0, 751, size=(4, 12))
    x, y, _ = simulate_batch(wmel, genes, wmel_scenario.initial_wild, substeps=4)
    for i in range(genes.shape[0]):
        traj = simulate_impulsive(
            wmel,
            State(wmel_scenario.initial_wild, 0.0),
            ReleasePlan(genes=genes[i], block_p=1).schedule(),
            SimOptions(t_end=12.0),
        )
        fx, fy = traj.final_state
        assert x[i] == pytest.approx(fx, rel=2e-5)
        assert y[i] == pytest.approx(fy, rel=2e-5)


def _threshold_suite(scenario, horizon, block_p, rng, shapes=24):
    """Integer plans of random daily or block shapes whose totals straddle
    each shape's feasibility threshold, from far off it to within a
    fraction of an individual (the threshold total is bisected on the
    4-substep kernel)."""
    params, target, x0 = scenario.params, scenario.target, scenario.initial_wild
    w = np.zeros((shapes, horizon))
    if block_p == 1:
        w[:] = rng.random((shapes, horizon))
    else:
        nb = horizon // block_p
        pos = np.arange(nb) * block_p + rng.integers(0, block_p, size=(shapes, nb))
        w[np.arange(shapes)[:, None], pos] = rng.random((shapes, nb))
    w /= w.max(axis=1, keepdims=True)
    cap = block_p * scenario.cap_l

    def plans(scale):
        return np.minimum(np.rint(w * scale[:, None]), cap).astype(np.int64)

    lo, hi = np.zeros(shapes), np.full(shapes, 4.0 * cap)
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        x, y, _ = simulate_batch(params, plans(mid), x0, 4)
        feas = in_secure_region(x, y, target)
        lo, hi = np.where(feas, lo, mid), np.where(feas, mid, hi)
    factors = (0.5, 0.9, 0.99, 0.999, 1.0, 1.001, 1.01, 1.1, 2.0)
    return np.vstack([plans(lo)] + [plans(f * hi) for f in factors])


@pytest.mark.parametrize("strain,horizon", [
    ("wmel", 14), ("wmel", 28), ("wmelpop", 63), ("wmelpop", 70),
])
def test_screen_margin_headroom(strain, horizon):
    # The 1-substep screen decides every row farther than SCREEN_MARGIN
    # from the edge; it needs 50x headroom over the 1-vs-4-substep gap.
    scenario = build_scenario(preset(strain))
    target, x0 = scenario.target, scenario.initial_wild
    rng = np.random.default_rng(horizon)
    for block_p in (1, 7):
        genes = _threshold_suite(scenario, horizon, block_p, rng)
        x1, y1, _ = simulate_batch(scenario.params, genes, x0, 1)
        x4, y4, _ = simulate_batch(scenario.params, genes, x0, 4)
        gap = max(np.abs(x1 - x4).max(), np.abs(y1 - y4).max())
        assert gap <= SCREEN_MARGIN / 50
        m4 = np.minimum(target[0] - x4, y4 - target[1])
        assert np.any((m4 > 0) & (m4 < SCREEN_MARGIN))  # the suite holds near plans
        assert np.any((m4 < 0) & (m4 > -SCREEN_MARGIN))  # on both sides
        cfg = GAConfig(cap_l=scenario.cap_l, block_p=block_p)
        _, _, feas, m = evaluate_population(scenario.params, genes, target, x0, cfg)
        assert np.array_equal(feas, in_secure_region(x4, y4, target))
        assert np.array_equal(feas, m > 0)


@pytest.mark.parametrize("strain,horizon", sorted(
    {(strain, cell.horizon) for (strain, _), cell in GA_CELLS.items()}
))
def test_batch_layouts_bit_identical(strain, horizon, monkeypatch):
    # Batches of up to ROW_BATCH rows run row by row on floats, larger ones
    # as arrays; a row's x, y and entry bytes must not depend on which.
    scenario = build_scenario(preset(strain))
    params, target, x0 = scenario.params, scenario.target, scenario.initial_wild
    genes = _threshold_suite(scenario, horizon, 1, np.random.default_rng(horizon), shapes=4)
    assert genes.shape[0] > ROW_BATCH + 1
    for substeps in (1, 4):
        whole = simulate_batch(params, genes, x0, substeps, target)
        margin = np.minimum(target[0] - whole[0], whole[1] - target[1])
        assert (margin > 0).any() and (margin < 0).any()
        assert np.isnan(whole[2]).any() and not np.isnan(whole[2]).all()
        for step in (1, ROW_BATCH, ROW_BATCH + 1):
            parts = [
                simulate_batch(params, genes[lo:lo + step], x0, substeps, target)
                for lo in range(0, genes.shape[0], step)
            ]
            for k in range(3):
                joined = np.concatenate([part[k] for part in parts])
                assert joined.tobytes() == whole[k].tobytes()
    empty = genes[:0]
    rows = simulate_batch(params, empty, x0, 4, target)
    monkeypatch.setattr(ga, "ROW_BATCH", -1)
    arrays = simulate_batch(params, empty, x0, 4, target)
    for a, b in zip(rows, arrays):
        assert a.shape == b.shape == (0,) and a.dtype == b.dtype == np.float64
    assert simulate_batch(params, empty, x0, 4)[2] is None


@pytest.mark.parametrize("substeps", [1, 4])
def test_batch_entry_time_reads_the_node(wmel_scenario, substeps):
    # The kernel's entry is the time of its first node inside the region,
    # a day's last node being post-release; the same in either layout.
    params, x0, target = wmel_scenario.params, wmel_scenario.initial_wild, wmel_scenario.target

    def entry(row, where):
        one = simulate_batch(params, row[None], x0, substeps, where)[2]
        rows = np.repeat(row[None], ROW_BATCH + 1, 0)
        many = simulate_batch(params, rows, x0, substeps, where)[2]
        assert np.array_equal(many, np.repeat(one, ROW_BATCH + 1), equal_nan=True)
        return float(one[0])

    # Day 5's release lifts y from 0 above 250 while x stays at the wild
    # equilibrium: its pre-release node is outside, its post-release inside.
    caused = np.zeros(14, dtype=np.int64)
    caused[4] = 500
    assert entry(caused, (x0 + 1.0, 250.0)) == 5.0
    # One day-1 release, after which x falls through x_u with y above y_u:
    # the entry is the first substep node of day d inside, from the state
    # after day d - 1 (the first day whose end state is inside is d).
    between = np.zeros(14, dtype=np.int64)
    between[0] = 8000
    ends = [simulate_batch(params, between[None, :d], x0, substeps)[:2] for d in range(15)]
    d = next(d for d, (x, y) in enumerate(ends) if in_secure_region(x[0], y[0], target))
    xs, ys = rk4(make_rhs(params), float(ends[d - 1][0][0]), float(ends[d - 1][1][0]),
                 [0.0] * (substeps + 1), 1.0 / substeps)
    k = next(k for k in range(1, substeps + 1) if in_secure_region(xs[k], ys[k], target))
    assert entry(between, target) == (d - 1) + k / substeps
    assert d == 13 and (k < substeps) == (substeps == 4)  # 12.75 at 4 substeps
    # A plan that never enters: no release, or one too small.
    assert np.isnan(entry(np.zeros(14, dtype=np.int64), target))
    assert np.isnan(entry(np.array([2000] + [0] * 13), target))


def _tournament_picks(f, rng):
    """The parents ``_propose`` selects, read off its offspring: with
    one-day plans crossover swaps whole plans, and mutation is off, so the
    offspring are the picks (row k holds the gene k)."""
    n = f.shape[0]
    cfg = GAConfig(cap_l=750.0, pop_n=n, mutation_rate=0.0)
    genes = np.arange(n, dtype=np.int64).reshape(n, 1)
    return sorted(_propose(genes, f, cfg, rng)[:, 0].tolist())


def test_tournament_selection_single_and_deterministic():
    f = np.array([0.5])
    assert _tournament_picks(f, np.random.default_rng(0)) == [0]
    f = np.array([0.1, 0.9, 0.5, 0.2])
    picks_a = [_tournament_picks(f, np.random.default_rng(s)) for s in range(20)]
    picks_b = [_tournament_picks(f, np.random.default_rng(s)) for s in range(20)]
    assert picks_a == picks_b


def test_tournament_frequencies_match_analytic():
    n = 5
    f = np.linspace(1.0, 0.2, n)  # rank k (0-based) has the k-th fitness
    rng = np.random.default_rng(123)
    draws = 40000
    counts = np.zeros(n)
    for _ in range(draws // n):
        for k in _tournament_picks(f, rng):
            counts[k] += 1
    # Two uniform draws; the better rank wins: P(k) = (2(N-k)+1)/N^2.
    expected = np.array([(2 * (n - k) + 1) / n**2 for k in range(1, n + 1)])
    assert np.allclose(counts / draws, expected, atol=0.01)


def test_crossover_identical_parents():
    a = np.arange(10, dtype=np.int64)
    c, d = crossover(a, a.copy(), 1, np.random.default_rng(0))
    assert np.array_equal(c, a) and np.array_equal(d, a)


class _FixedCuts:
    """Stub generator returning preset crossover cut points: ``crossover``
    draws (first, second, order) for each pair in one ``integers`` call."""

    def __init__(self, r1, r2):
        self.r1, self.r2 = r1, r2

    def integers(self, low, high):
        return np.broadcast_to([self.r1, self.r2, 0], np.shape(high))


def test_crossover_two_point_layout():
    a = np.array([10, 11, 12, 13, 14, 15, 16], dtype=np.int64)
    b = np.array([20, 21, 22, 23, 24, 25, 26], dtype=np.int64)
    c, d = crossover(a, b, 1, _FixedCuts(2, 5))
    # Genes strictly after position 2 through position 5 swap.
    assert c.tolist() == [10, 11, 22, 23, 24, 15, 16]
    assert d.tolist() == [20, 21, 12, 13, 14, 25, 26]


def test_crossover_cuts_are_generator_choice_draws():
    # Each pair's cuts, and the generator's position after them, must be
    # those of ``rng.choice(cuts, 2, replace=False)``: a numpy release that
    # changes either would change every seeded GA result.
    ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
    for cuts in range(2, 72):
        t = cuts - 1  # p = 1: the cuts are the block boundaries 0..T
        a = np.zeros((50, t), dtype=np.int64)
        for _ in range(4):
            c, _ = crossover(a, a + 1, 1, ours)
            swapped = c == 1
            got = [(int(row.argmax()), t - int(row[::-1].argmax())) for row in swapped]
            expect = [tuple(sorted(theirs.choice(cuts, 2, replace=False).tolist()))
                      for _ in range(50)]
            assert got == expect
            assert ours.bit_generator.state == theirs.bit_generator.state


def test_crossover_preserves_positionwise_multiset():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = rng.integers(0, 100, size=12)
        b = rng.integers(0, 100, size=12)
        c, d = crossover(a, b, 1, rng)
        assert np.array_equal(np.sort(np.stack([a, b]), 0), np.sort(np.stack([c, d]), 0))


def test_mutation_zero_rate_identity():
    cfg = small_cfg(mutation_rate=0.0)
    g = np.arange(11, dtype=np.int64)
    out = mutate(g, cfg, np.random.default_rng(0))
    assert out is g


def test_operator_invariants_random_applications():
    rng = np.random.default_rng(99)
    for _ in range(500):
        p_blk = int(rng.choice([1, 7, 14]))
        t = p_blk * int(rng.integers(1, 5))
        cfg = GAConfig(
            pop_n=4, generations_g=1, cap_l=750.0, block_p=p_blk,
            mutation_rate=1.0, rng_seed=0,
        )
        pop = init_population(cfg, t, rng)
        a, b = pop[0], pop[1]
        c, d = crossover(a, b, p_blk, rng)
        m = mutate(c, cfg, rng)
        for genes in (c, d, m):
            validate_plan(ReleasePlan(genes=genes, block_p=p_blk), cfg.cap_l)


def test_mutation_keeps_position_without_relocation():
    cfg = GAConfig(
        pop_n=2, generations_g=1, cap_l=750.0, block_p=14,
        mutation_rate=1.0, rng_seed=0,
    )
    rng = np.random.default_rng(3)
    g = np.zeros(28, dtype=np.int64)
    g[4] = 1000
    g[17] = 2000
    for _ in range(50):
        out = mutate(g, cfg, rng)
        nz = set(np.nonzero(out)[0].tolist())
        assert nz <= {4, 17}


def test_run_ga_elitism_and_size(wmel, wmel_target, wmel_scenario):
    cfg = small_cfg(block_p=14, pop_n=24, generations_g=12, rng_seed=5)
    res = run_ga(cfg, 14, wmel, wmel_target, wmel_scenario.initial_wild)
    fits = [rec.best_fitness for rec in res.history]
    assert all(b >= a - 1e-15 for a, b in zip(fits, fits[1:]))
    assert res.report.feasible
    validate_plan(res.best, cfg.cap_l)
    # One screen of the initial population and of each generation's offspring.
    assert res.stats["rows_screened"] == 24 * 13
    assert 0 <= res.stats["rows_rerun"] <= res.stats["rows_screened"]


def test_run_ga_deterministic_and_rows_independent(wmel, wmel_target, wmel_scenario):
    x0 = wmel_scenario.initial_wild
    cfg = small_cfg(block_p=7, pop_n=16, generations_g=6, rng_seed=12)
    a = run_ga(cfg, 14, wmel, wmel_target, x0)
    b = run_ga(cfg, 14, wmel, wmel_target, x0)
    assert np.array_equal(a.best.genes, b.best.genes)
    assert [r.best_fitness for r in a.history] == [r.best_fitness for r in b.history]
    # Each row gets the same bits in the full matrix, in row chunks and alone.
    genes = init_population(cfg, 14, np.random.default_rng(12))
    full = evaluate_population(wmel, genes, wmel_target, x0, cfg)
    for step in (5, 1):
        parts = [
            evaluate_population(wmel, genes[lo:lo + step], wmel_target, x0, cfg)
            for lo in range(0, genes.shape[0], step)
        ]
        for k, whole in enumerate(full):
            assert whole.tobytes() == np.concatenate([p[k] for p in parts]).tobytes()


def test_run_ga_zero_generations_returns_best_initial(wmel, wmel_target, wmel_scenario):
    cfg = small_cfg(block_p=14, pop_n=12, generations_g=0, rng_seed=3)
    res = run_ga(cfg, 14, wmel, wmel_target, wmel_scenario.initial_wild)
    genes = init_population(cfg, 14, np.random.default_rng(3))
    f, j, feas, _ = evaluate_population(
        wmel, genes, wmel_target, wmel_scenario.initial_wild, cfg
    )
    best = int(np.argmax(f))
    assert res.history == []
    assert np.array_equal(res.best.genes, genes[best])
    assert res.report == FitnessReport(int(j[best]), bool(feas[best]))


def test_run_ga_rejects_non_positive_horizon(wmel, wmel_target, wmel_scenario):
    # Horizon 0 passes the multiple-of-p check; without its own check it
    # divides by zero, or fails inside the generator's draws.
    for generations in (0, 1):
        for horizon in (0, -14):
            cfg = small_cfg(block_p=14, pop_n=12, generations_g=generations)
            with pytest.raises(ValueError, match=f"horizon must be positive, not {horizon}"):
                run_ga(cfg, horizon, wmel, wmel_target, wmel_scenario.initial_wild)


def test_run_ga_reverified_by_adaptive_simulation(wmel, wmel_target, wmel_scenario):
    cfg = small_cfg(block_p=14, pop_n=30, generations_g=15, rng_seed=2)
    res = run_ga(cfg, 14, wmel, wmel_target, wmel_scenario.initial_wild)
    assert res.report.feasible
    sched = res.best.schedule()
    assert sched.total == res.report.j_value
    assert sched.num_releases == res.best.num_releases
    traj = simulate_impulsive(
        wmel,
        State(wmel_scenario.initial_wild, 0.0),
        sched,
        SimOptions(t_end=14.0),
    )
    fx, fy = traj.final_state
    assert in_secure_region(fx, fy, wmel_target)
    rep = evaluate_schedule(
        wmel, sched, wmel_target, wmel_scenario.initial_wild, SimOptions(t_end=14.0)
    )
    assert rep.end_margin > 0


def test_run_ga_golden(wmel, wmel_target, wmel_scenario):
    # Integers of a seeded run, pinned so that a change of the RNG draw
    # order or of the survivor order shows up; the run never turns feasible.
    cfg = small_cfg(block_p=7, pop_n=16, generations_g=6, rng_seed=12)
    res = run_ga(cfg, 14, wmel, wmel_target, wmel_scenario.initial_wild)
    assert res.best.genes.tolist() == [1146] + [0] * 12 + [337]
    assert res.report.j_value == 1483 and not res.report.feasible
    assert [r.best_j for r in res.history] == [1929, 1483, 1483, 1483, 1483, 1483]
    assert [r.feasible_count for r in res.history] == [0] * 6


def test_epsilon_loop_golden(wmel, wmel_target, wmel_scenario):
    cfg = small_cfg(pop_n=20, generations_g=8, cap_l=1000.0)
    res = epsilon_loop(18, cfg, wmel, wmel_target, wmel_scenario.initial_wild)
    assert res.per_epsilon == [(18, 5017), (17, 4636), (16, 4929), (15, 5228), (14, None)]
    assert res.horizon == 15
    assert res.best.genes.tolist() == [
        964, 675, 152, 709, 265, 624, 799, 501, 14, 112, 20, 135, 163, 32, 63
    ]
    assert res.report.j_value == 5228


def test_best_feasible_lowest_j_earliest_on_ties():
    def result(j, feasible):
        report = FitnessReport(j_value=j, feasible=feasible)
        return EpsilonLoopResult(best=None, report=report, per_epsilon=[])

    a, b, c = result(5, True), result(3, True), result(3, True)
    assert best_feasible([result(1, False), a, b, c]) is b
    assert best_feasible([result(1, False)]) is None
    none = EpsilonLoopResult(best=None, report=None, per_epsilon=[])
    assert best_feasible([none, a]) is a
    assert best_feasible([]) is None


def test_epsilon_loop_reports_infeasible_start(wmel, wmel_target, wmel_scenario):
    cfg = small_cfg(pop_n=10, generations_g=3)
    res = epsilon_loop(2, cfg, wmel, wmel_target, wmel_scenario.initial_wild)
    assert res.horizon is None
    assert res.best is None
    assert res.per_epsilon == [(2, None)]


def test_epsilon_loop_shrinks_horizon(wmel, wmel_target, wmel_scenario):
    cfg = GAConfig(
        pop_n=40, generations_g=25, cap_l=750.0, block_p=14, rng_seed=4
    )
    res = epsilon_loop(42, cfg, wmel, wmel_target, wmel_scenario.initial_wild)
    assert res.horizon == 14
    assert res.report.feasible
    epsilons = [e for e, _ in res.per_epsilon]
    assert epsilons == [42, 28, 14]
    # The loop's counts sum its three runs of 26 screens of 40 rows.
    assert res.stats["rows_screened"] == 3 * 26 * 40
    assert 0 <= res.stats["rows_rerun"] <= res.stats["rows_screened"]


def test_epsilon_loop_runs_to_its_floor(wmel, wmel_target, wmel_scenario):
    """The loop has no round cap: it shrinks the horizon one day a round
    until a round finds no feasible plan, here after 55 rounds."""
    cfg = ga_config(wmel_scenario, pop_n=8, generations_g=1)
    res = epsilon_loop(70, cfg, wmel, wmel_target, wmel_scenario.initial_wild)
    assert [e for e, _ in res.per_epsilon] == list(range(70, 15, -1))
    assert res.per_epsilon[-2:] == [(17, 5772), (16, None)]
    assert res.horizon == 17
    assert res.report.j_value == 5772


def test_config_validation(wmel, wmel_target, wmel_scenario):
    with pytest.raises(ValueError):
        GAConfig(cap_l=750.0, pop_n=0)
    with pytest.raises(ValueError):
        GAConfig(cap_l=750.0, mutation_rate=1.5)
    with pytest.raises(ValueError, match="cap_l"):
        GAConfig(cap_l=-3.0)
    # Below one individual a day every gene would be capped at 0.
    with pytest.raises(ValueError, match="cap_l"):
        GAConfig(cap_l=0.5)
    # The start horizon is a positive multiple of the block period.
    for epsilon_0, block_p in ((0, 1), (10, 7)):
        with pytest.raises(ValueError, match="epsilon_0"):
            epsilon_loop(epsilon_0, small_cfg(block_p=block_p), wmel, wmel_target,
                         wmel_scenario.initial_wild)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([1, 7]), st.sampled_from([500.0, 1.5, 2.7]))
def test_operators_never_break_bounds(seed, p_blk, cap_l):
    rng = np.random.default_rng(seed)
    cfg = GAConfig(
        pop_n=6, generations_g=1, cap_l=cap_l, block_p=p_blk,
        mutation_rate=1.0, rng_seed=seed,
    )
    t = p_blk * 3
    pop = init_population(cfg, t, rng)
    c, d = crossover(pop[0], pop[1], p_blk, rng)
    m = mutate(d, cfg, rng)
    cap = np.floor(p_blk * cap_l)  # 7 x 1.5 -> 10: the cap floors once per block
    for genes in (*pop, c, d, m, ga._roll_tail(np.concatenate(pop), t, cfg)):
        assert genes.max() <= cap
        validate_plan(ReleasePlan(genes=genes, block_p=p_blk), cfg.cap_l)
