"""Genetic search for integer release plans under an epsilon time bound.

A plan assigns an integer release to each day of a horizon T (multiple of
the release period p).  For p = 1 every day may release up to L insects;
for p > 1 each p-day block holds at most one nonzero gene bounded by pL.
Fitness is the reciprocal of the released total, penalized by p*L*T when
the end state misses the secure region, so any feasible plan outranks
every infeasible one.  Evaluation screens each plan at one RK4 substep
per day and re-runs at four those within ``SCREEN_MARGIN`` of the region's
edge, so every verdict is that of four substeps.  The kernel runs a batch
of more than ``ROW_BATCH`` plans as arrays and a smaller one row by row
on Python floats, with the same bits per row.  Each generation is one
propose-evaluate-keep step: tournament selection, block-aligned two-point
crossover and segment mutation propose offspring, one batch call
evaluates them, and truncation survival keeps the best of parents and
offspring, so the best plan is never lost.

The outer epsilon loop shrinks the horizon while feasible plans keep
appearing, warm-starting each round with truncations of the previous
round's best plans.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .model import State, in_secure_region, make_rhs, rhs_arrays
from .params import StrainParams
from .sim import ImpulseSchedule, SimOptions, rk4, simulate_impulsive


@dataclass(frozen=True)
class ReleasePlan:
    """Integer releases per day over a horizon that is a multiple of p."""

    genes: np.ndarray
    block_p: int

    @property
    def horizon_t(self) -> int:
        return int(self.genes.shape[0])

    @property
    def j_value(self) -> int:
        return int(self.genes.sum())

    @property
    def num_releases(self) -> int:
        return int(np.count_nonzero(self.genes))

    def schedule(self) -> ImpulseSchedule:
        """Day d's gene as a release at t = d, as ``simulate_batch`` applies it."""
        entries = tuple(
            (float(day), size)
            for day, size in enumerate(self.genes.tolist(), start=1)
            if size > 0
        )
        return ImpulseSchedule(entries=entries, rule_tag="ga")


def validate_plan(plan: ReleasePlan, cap_l: float) -> None:
    """Raise ValueError when a plan violates the gene invariants."""
    genes, p = plan.genes, plan.block_p
    if plan.horizon_t % p != 0:
        raise ValueError("horizon must be a multiple of the block period")
    if np.any(genes < 0):
        raise ValueError("genes must be nonnegative")
    if np.any(genes > p * cap_l):
        raise ValueError("genes must not exceed p * cap_l")
    if np.any(np.count_nonzero(genes.reshape(-1, p), axis=1) > 1):
        raise ValueError("at most one nonzero gene per block")


@dataclass(frozen=True)
class GAConfig:
    pop_n: int = 100
    generations_g: int = 100
    cap_l: float = 750.0
    block_p: int = 1
    mutation_rate: float = 0.05
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.pop_n <= 0 or self.generations_g < 0:
            raise ValueError("pop_n must be positive, generations_g nonnegative")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must lie in [0, 1]")
        if self.block_p < 1:
            raise ValueError("block_p must be at least 1")
        if self.cap_l <= 0:
            raise ValueError("cap_l must be positive")


@dataclass(frozen=True)
class FitnessReport:
    j_value: int
    feasible: bool
    fitness_f: float
    entry_time: Optional[float]


EPSILON_MAX_ROUNDS = 50  # horizon reductions before ``epsilon_loop`` stops


@dataclass(frozen=True)
class EpsilonLoopConfig:
    epsilon_0: int
    step: int
    restarts_per_epsilon: int = 3

    def __post_init__(self) -> None:
        if self.epsilon_0 <= 0 or self.step <= 0:
            raise ValueError("epsilon_0 and step must be positive")
        if self.restarts_per_epsilon < 1:
            raise ValueError("restarts_per_epsilon must be at least 1")


@dataclass
class GenerationRecord:
    generation: int
    best_fitness: float
    best_j: int
    feasible_count: int


@dataclass
class GAResult:
    best: ReleasePlan
    report: FitnessReport
    history: list[GenerationRecord]
    stats: dict[str, int] = field(default_factory=dict)  # rows_screened, rows_rerun


@dataclass
class EpsilonLoopResult:
    horizon: Optional[int]
    best: Optional[ReleasePlan]
    report: Optional[FitnessReport]
    per_epsilon: list[tuple[int, Optional[int]]]  # (epsilon, best feasible J or None)
    stats: dict[str, int] = field(default_factory=dict)  # summed over its runs


# Batches of at most this many rows run row by row on Python floats: an
# array call costs about the same for 1 row as for 100, a float row costs
# per row, and at every Table-4 horizon floats won at 16 rows, not at 24.
ROW_BATCH = 16


def simulate_batch(
    params: StrainParams,
    genes: np.ndarray,
    initial_wild: float,
    substeps: int = 4,
    target: Optional[tuple[float, float]] = None,
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Final states for a batch of plans; releases jump y at integer days.

    Uses fixed-step RK4 between jumps (the flow is smooth and mild at
    these tolerances); day t's release is applied after flowing through
    [t-1, t], and the state after the final jump is what feasibility is
    judged on.  When ``target`` is given, also returns first entry times
    at substep resolution (NaN where never).  A batch of more than
    ``ROW_BATCH`` rows runs as one array lane, a smaller one as a float
    lane per row; both do the same IEEE operations on a row.
    """
    b = genes.shape[0]
    x_end, y_end = np.empty(b), np.empty(b)
    entries = None if target is None else np.full(b, np.nan)
    h = 1.0 / substeps
    zero_control = [0.0] * (substeps + 1)
    if target is not None:
        # Each day's nodes: its substeps, then the state after its release.
        node_t = np.array([day - 1 + (k + 1) * h if k < substeps else float(day)
                           for day in range(1, genes.shape[1] + 1)
                           for k in range(substeps + 1)])
    if b > ROW_BATCH:
        # Looked up in the module at each call, so a wrapped ``rhs_arrays``
        # sees every evaluation of the array layout.
        flow = lambda x, y, u: rhs_arrays(params, x, y)  # noqa: E731
        lanes = [(slice(None), np.full(b, float(initial_wild)), np.zeros(b), genes.T)]
    else:
        # numpy's exp, not math.exp: a float row then gets the bits of its
        # array element (math.exp differs in the last bit on some inputs).
        flow = make_rhs(params, lambda t: float(np.exp(t)))
        lanes = [(slice(i, i + 1), float(initial_wild), 0.0, row.tolist())
                 for i, row in enumerate(genes)]
    for rows, x, y, columns in lanes:
        inside = []  # ``in_secure_region`` at every node, in ``node_t`` order
        for column in columns:
            xs, ys = rk4(flow, x, y, zero_control, h)
            x, y = xs[-1], ys[-1] + column
            if target is not None:
                inside += [in_secure_region(xk, yk, target) for xk, yk in zip(xs[1:], ys[1:])]
                inside.append(in_secure_region(x, y, target))
        x_end[rows], y_end[rows] = x, y
        if inside:
            inside = np.array(inside)
            entries[rows] = np.where(inside.any(axis=0), node_t[inside.argmax(axis=0)], np.nan)
    return x_end, y_end, entries


# Individuals: 85x the largest 1-vs-4-substep end-state gap measured at
# the Table-4 horizons (0.0117; ``test_screen_margin_headroom`` keeps 50x).
SCREEN_MARGIN = 1.0


def evaluate_population(
    params: StrainParams,
    genes: np.ndarray,
    target: tuple[float, float],
    initial_wild: float,
    cfg: GAConfig,
    *,
    stats: Optional[Counter] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fitness, J, feasibility and end-state margin min(x_u - x, y - y_u).

    Rows are screened at one substep per day, and those within
    ``SCREEN_MARGIN`` of the edge are re-run at four.  Each row evolves
    independently through elementwise arithmetic, so a row's results do
    not depend on which other rows share the batch.  ``stats``, when
    given, counts ``rows_screened`` and ``rows_rerun``.
    """
    pen = float(cfg.block_p) * float(cfg.cap_l) * float(genes.shape[1])
    x, y, _ = simulate_batch(params, genes, initial_wild, 1)
    near = np.abs(np.minimum(target[0] - x, y - target[1])) < SCREEN_MARGIN
    if near.any():
        x[near], y[near], _ = simulate_batch(params, genes[near], initial_wild, 4)
    margin = np.minimum(target[0] - x, y - target[1])
    feas = margin > 0
    j = genes.sum(axis=1).astype(float)
    fitness = 1.0 / (j + pen * (~feas))
    if stats is not None:
        stats.update(rows_screened=genes.shape[0], rows_rerun=int(near.sum()))
    return fitness, j, feas, margin


def verify_plan(
    plan: ReleasePlan,
    params: StrainParams,
    target: tuple[float, float],
    initial_wild: float,
) -> bool:
    """The GA's feasibility rule on the adaptive integrator: the state at
    the horizon is strictly inside the secure region."""
    traj = simulate_impulsive(
        params, State(initial_wild, 0.0), plan.schedule(),
        SimOptions(t_end=float(plan.horizon_t)),
    )
    return bool(in_secure_region(*traj.final_state, target))


def init_population(
    cfg: GAConfig, horizon_t: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform random gene matrix respecting the block invariants."""
    if horizon_t % cfg.block_p != 0:
        raise ValueError("horizon must be a multiple of block_p")
    n, p = cfg.pop_n, cfg.block_p
    cap = int(cfg.cap_l)
    if p == 1:
        return rng.integers(0, cap + 1, size=(n, horizon_t), dtype=np.int64)
    nb = horizon_t // p
    genes = np.zeros((n, horizon_t), dtype=np.int64)
    positions = rng.integers(0, p, size=(n, nb))
    values = rng.integers(0, p * cap + 1, size=(n, nb), dtype=np.int64)
    genes[np.arange(n)[:, None], np.arange(nb) * p + positions] = values
    return genes


def crossover(
    a: np.ndarray, b: np.ndarray, block_p: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Two-point crossover with cut points on block boundaries.

    Cuts are multiples of p so the one-release-per-block structure is
    preserved; the gene segment strictly after the first cut through the
    second cut is exchanged.
    """
    cuts = a.shape[0] // block_p + 1
    if cuts < 2:
        return a.copy(), b.copy()
    i, j = rng.choice(cuts, size=2, replace=False).tolist()
    r1, r2 = block_p * min(i, j), block_p * max(i, j)
    c, d = a.copy(), b.copy()
    c[r1:r2], d[r1:r2] = b[r1:r2], a[r1:r2]
    return c, d


def mutate(
    genes: np.ndarray, cfg: GAConfig, rng: np.random.Generator
) -> np.ndarray:
    """Segment mutation applied with per-individual probability.

    For p = 1 a random day range is refilled with uniform integers in
    [0, L].  For p > 1 the nonzero gene of each block in a random block
    range is redrawn in [0, pL] (position kept; an all-zero block gets a
    uniform position).
    """
    if rng.random() >= cfg.mutation_rate:
        return genes
    out = genes.copy()
    t = genes.shape[0]
    p = cfg.block_p
    cap = int(cfg.cap_l)
    if p == 1:
        r3 = int(rng.integers(1, t + 1))
        r4 = int(rng.integers(r3, t + 1))
        out[r3 - 1:r4] = rng.integers(0, cap + 1, size=r4 - r3 + 1, dtype=np.int64)
        return out
    nb = t // p
    b1 = int(rng.integers(0, nb))
    b2 = int(rng.integers(b1, nb))
    for bidx in range(b1, b2 + 1):
        block = out[bidx * p:(bidx + 1) * p]
        nz = np.nonzero(block)[0]
        if nz.size:
            pos = int(nz[0])
        else:
            pos = int(rng.integers(0, p))
        block[:] = 0
        block[pos] = rng.integers(0, p * cap + 1)
    return out


def _propose(
    genes: np.ndarray, fit: np.ndarray, cfg: GAConfig, rng: np.random.Generator
) -> np.ndarray:
    """Offspring of one generation: pop_n two-way tournaments (the fitter
    of two uniform draws, the first on ties), the picks paired for
    crossover (an odd last pick is copied), then each one mutated."""
    n = cfg.pop_n
    r, s = rng.integers(0, n, size=(n, 2)).T
    selected = np.where(fit[r] >= fit[s], r, s)
    offspring = np.empty_like(genes)
    for k in range(0, n - 1, 2):
        offspring[k], offspring[k + 1] = crossover(
            genes[selected[k]], genes[selected[k + 1]], cfg.block_p, rng
        )
    if n % 2:
        offspring[n - 1] = genes[selected[n - 1]]
    for k in range(n):
        offspring[k] = mutate(offspring[k], cfg, rng)
    return offspring


def run_ga(
    cfg: GAConfig,
    horizon_t: int,
    params: StrainParams,
    target: tuple[float, float],
    initial_wild: float,
    seed_plans: Sequence[np.ndarray] = (),
) -> GAResult:
    """Run the fixed number of generations and return the elite plan.

    The population is five columns: genes, fitness, J, feasibility and
    margin.  Each generation proposes pop_n offspring, evaluates them
    in one batch and keeps the best pop_n of parents and offspring by a
    stable sort, so parents win ties and best fitness never drops.  The
    elite's entry time comes from one 4-substep ``simulate_batch`` call
    after the last generation.  ``seed_plans`` inject known-good gene
    vectors (already valid for this horizon) into the initial population;
    used by the epsilon loop for warm starts.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    stats = Counter(rows_screened=0, rows_rerun=0)
    genes = init_population(cfg, horizon_t, rng)
    for row, plan in zip(genes, seed_plans):
        row[:] = plan
    pop = (genes, *evaluate_population(params, genes, target, initial_wild, cfg, stats=stats))
    history: list[GenerationRecord] = []
    for gen in range(1, cfg.generations_g + 1):
        offspring = _propose(pop[0], pop[1], cfg, rng)
        scored = (offspring, *evaluate_population(
            params, offspring, target, initial_wild, cfg, stats=stats))
        pool = [np.concatenate(pair) for pair in zip(pop, scored)]
        keep = np.argsort(-pool[1], kind="stable")[: cfg.pop_n]
        pop = tuple(column[keep] for column in pool)
        _, fit, j, feas, _ = pop
        best = int(np.argmax(fit))
        history.append(GenerationRecord(gen, float(fit[best]), int(j[best]), int(feas.sum())))
    genes, fit, j, feas, _ = pop
    best = int(np.argmax(fit))
    entry = simulate_batch(params, genes[best:best + 1], initial_wild, 4, target)[2][0]
    report = FitnessReport(
        j_value=int(j[best]),
        feasible=bool(feas[best]),
        fitness_f=float(fit[best]),
        entry_time=None if np.isnan(entry) else float(entry),
    )
    return GAResult(ReleasePlan(genes[best].copy(), cfg.block_p), report, history, dict(stats))


def best_feasible(results: Iterable):
    """The result whose report is feasible with the lowest J, the earliest
    on ties; None when no report is feasible (or none exists)."""
    return min(
        (r for r in results if r.report is not None and r.report.feasible),
        key=lambda r: r.report.j_value,
        default=None,
    )


def _roll_tail(genes: np.ndarray, eps: int, cfg: GAConfig) -> np.ndarray:
    """Truncate to ``eps`` days, pushing dropped releases into the kept tail."""
    out = genes[:eps].copy()
    dropped = int(genes[eps:].sum())
    cap = int(cfg.cap_l) if cfg.block_p == 1 else int(cfg.block_p * cfg.cap_l)
    for i in range(eps - 1, -1, -1):
        if dropped <= 0:
            break
        if cfg.block_p > 1 and out[i] == 0:
            continue
        room = cap - int(out[i])
        add = min(room, dropped)
        out[i] += add
        dropped -= add
    return out


def epsilon_loop(
    loop_cfg: EpsilonLoopConfig,
    ga_cfg: GAConfig,
    params: StrainParams,
    target: tuple[float, float],
    initial_wild: float,
) -> EpsilonLoopResult:
    """Shrink the horizon while the GA keeps finding feasible plans.

    Each epsilon round runs ``restarts_per_epsilon`` independent GA runs
    (seeds derived from the base seed) whose initial populations are
    seeded with truncations of the best plans found at the previous
    epsilon; truncation drops trailing days (whole blocks for p > 1), and
    a repaired variant rolls the dropped releases into the remaining tail
    up to the gene cap.  Returns the smallest feasible horizon with its
    best plan.
    """
    p = ga_cfg.block_p
    if loop_cfg.epsilon_0 % p or loop_cfg.step % p:
        raise ValueError("epsilon_0 and step must be multiples of block_p")
    best: Optional[GAResult] = None
    carry: list[np.ndarray] = []
    per_epsilon: list[tuple[int, Optional[int]]] = []
    stats = Counter(rows_screened=0, rows_rerun=0)
    eps = loop_cfg.epsilon_0
    for round_idx in range(EPSILON_MAX_ROUNDS):
        if eps < p:
            break
        # Carried plans come from longer horizons (eps only shrinks).
        seeds = [s for arr in carry for s in (arr[:eps], _roll_tail(arr, eps, ga_cfg))]
        runs = [
            run_ga(
                replace(ga_cfg, rng_seed=ga_cfg.rng_seed + 1000 * round_idx + restart),
                eps, params, target, initial_wild, seeds,
            )
            for restart in range(loop_cfg.restarts_per_epsilon)
        ]
        for run in runs:
            stats.update(run.stats)
        round_best = best_feasible(runs)
        if round_best is None:
            per_epsilon.append((eps, None))
            break
        per_epsilon.append((eps, round_best.report.j_value))
        best = round_best
        carry = [best.best.genes] + carry[:2]
        eps -= loop_cfg.step
    if best is None:
        return EpsilonLoopResult(None, None, None, per_epsilon, dict(stats))
    return EpsilonLoopResult(
        horizon=best.best.horizon_t,
        best=best.best,
        report=best.report,
        per_epsilon=per_epsilon,
        stats=dict(stats),
    )
