"""Genetic search for integer release plans under an epsilon time bound.

A plan assigns an integer release to each day of a horizon T (multiple of
the release period p).  Each p-day block holds at most one nonzero gene,
of at most ``gene_cap`` = floor(pL) insects; a daily plan is p = 1.
Fitness is the reciprocal of the released total, penalized by p*L*T when
the end state misses the secure region, so any feasible plan outranks
every infeasible one.  Evaluation screens each plan at one RK4 substep
per day and re-runs at four those within ``SCREEN_MARGIN`` of the region's
edge, so every verdict is that of four substeps.  The kernel is one
``sim.rk4`` pass with the releases as jumps, over a batch of more than
``ROW_BATCH`` plans as arrays or over a smaller one row by row on Python
floats, with the same bits per row; an array RK4 step is about
108 numpy calls at any row count, each on 0-d array constants, which numpy
dispatches faster than Python floats.  Each generation is one
propose-evaluate-keep step: tournament selection, block-aligned two-point
crossover (all pairs' cuts from one draw call) and segment mutation
propose offspring, one batch call evaluates them, and truncation survival
keeps the best of parents and offspring, so the best plan is never lost.

The outer epsilon loop shrinks the horizon by one block while feasible
plans keep appearing, warm-starting each round with truncations of the
previous round's best plans.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .model import in_secure_region, make_rhs, rhs_arrays
from .params import StrainParams
from .sim import ImpulseSchedule, rk4


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


def gene_cap(block_p: int, cap_l: float) -> int:
    """The largest gene: a block's one release holds at most its p days'
    worth of the daily cap L, floor(pL) whole insects."""
    return int(block_p * cap_l)


def validate_plan(plan: ReleasePlan, cap_l: float) -> None:
    """Raise ValueError when a plan violates the gene invariants."""
    genes, p = plan.genes, plan.block_p
    if plan.horizon_t % p != 0:
        raise ValueError("horizon must be a multiple of the block period")
    if np.any(genes < 0):
        raise ValueError("genes must be nonnegative")
    if np.any(genes > gene_cap(p, cap_l)):
        raise ValueError("genes must not exceed floor(p * cap_l)")
    if np.any(np.count_nonzero(genes.reshape(-1, p), axis=1) > 1):
        raise ValueError("at most one nonzero gene per block")


@dataclass(frozen=True)
class GAConfig:
    cap_l: float
    pop_n: int = 100
    generations_g: int = 100
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
        if not self.cap_l >= 1.0:
            raise ValueError(f"cap_l must be at least 1 individual a day, not {self.cap_l:g}")

    @property
    def gene_cap(self) -> int:
        return gene_cap(self.block_p, self.cap_l)


@dataclass(frozen=True)
class FitnessReport:
    j_value: int
    feasible: bool


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
    best: Optional[ReleasePlan]
    report: Optional[FitnessReport]
    per_epsilon: list[tuple[int, Optional[int]]]  # (epsilon, best feasible J or None)
    stats: dict[str, int] = field(default_factory=dict)  # summed over its runs

    @property
    def horizon(self) -> Optional[int]:
        return None if self.best is None else self.best.horizon_t


# Batches of at most this many rows run row by row on Python floats: an
# array call costs about the same for 1 row as for 100, a float row costs
# per row, and at every Table-4 horizon floats won at 16 rows, not at 20.
ROW_BATCH = 16


def simulate_batch(
    params: StrainParams,
    genes: np.ndarray,
    initial_wild: float,
    substeps: int = 4,
    target: Optional[tuple[float, float]] = None,
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Final states for a batch of plans; releases jump y at integer days.

    One ``rk4`` pass per lane, ``substeps`` fixed steps a day (the flow is
    smooth and mild at these tolerances), takes day t's release as the jump
    after its last step; feasibility is judged on the final state.  With a
    ``target``, also returns the time of the first node inside (NaN where
    never), a day's last node being post-release (the pre-release one adds
    nothing, as a release only raises y); the benchmark alone reads it.  A
    batch of more than ``ROW_BATCH`` rows runs as one array lane, a smaller
    one as a float lane per row; both do the same IEEE operations on a row.
    """
    b, days = genes.shape
    x_end, y_end = np.empty(b), np.empty(b)
    entries = None if target is None else np.full(b, np.nan)
    h, steps = 1.0 / substeps, days * substeps
    if b > ROW_BATCH:
        # Looked up in the module at each call, so a wrapped ``rhs_arrays``
        # sees every evaluation of the array layout.
        flow = lambda x, y, u: rhs_arrays(params, x, y)  # noqa: E731
        # Contiguous float columns: adding a strided int64 column costs more.
        columns = np.ascontiguousarray(genes.T, dtype=float)
        lanes = [(slice(None), np.full(b, float(initial_wild)), np.zeros(b), columns)]
    else:
        # numpy's exp, not math.exp: a float row then gets the bits of its
        # array element (math.exp differs in the last bit on some inputs).
        flow = make_rhs(params, lambda t: float(np.exp(t)))
        lanes = [(slice(i, i + 1), float(initial_wild), 0.0, row.tolist())
                 for i, row in enumerate(genes)]
    for rows, x, y, releases in lanes:
        jumps = [None] * steps
        jumps[substeps - 1::substeps] = releases
        xs, ys = rk4(flow, x, y, [0.0] * (steps + 1), h, jumps)
        x_end[rows], y_end[rows] = xs[-1], ys[-1]
        if target is not None:
            inside = in_secure_region(np.array(xs), np.array(ys), target)  # node i at h*i
            entries[rows] = np.where(inside.any(axis=0), h * inside.argmax(axis=0), np.nan)
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


def init_population(
    cfg: GAConfig, horizon_t: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform random gene matrix respecting the block invariants."""
    if horizon_t <= 0:
        raise ValueError(f"horizon must be positive, not {horizon_t}")
    if horizon_t % cfg.block_p != 0:
        raise ValueError("horizon must be a multiple of block_p")
    n, p = cfg.pop_n, cfg.block_p
    nb = horizon_t // p
    genes = np.zeros((n, horizon_t), dtype=np.int64)
    # At p = 1 ``integers(0, 1)`` draws no bits, so a daily population
    # takes only the value draws, one uniform (n, T) matrix.
    positions = rng.integers(0, p, size=(n, nb))
    values = rng.integers(0, cfg.gene_cap + 1, size=(n, nb), dtype=np.int64)
    genes[np.arange(n)[:, None], np.arange(nb) * p + positions] = values
    return genes


def crossover(
    a: np.ndarray, b: np.ndarray, block_p: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Two-point crossover of each row pair (a[k], b[k]) on block boundaries.

    Cuts are multiples of p so the one-release-per-block structure is
    preserved; the gene segment strictly after the first cut through the
    second cut is exchanged.  One ``integers`` call makes, for every pair,
    the draws of ``rng.choice(T/p + 1, 2, replace=False)``: Floyd's in
    [0, cuts - 2] and [0, cuts - 1] (a repeat becomes cuts - 1), then the
    shuffle's in [0, 1], dropped as the cuts' order does not matter.
    """
    cuts = a.shape[-1] // block_p + 1
    draws = rng.integers(0, np.tile([cuts - 1, cuts, 2], a.shape[:-1] + (1,)))
    first, second = draws[..., :1], draws[..., 1:2]
    second = np.where(second == first, cuts - 1, second)
    block = np.arange(a.shape[-1]) // block_p
    swap = (block < first) != (block < second)
    return np.where(swap, b, a), np.where(swap, a, b)


def mutate(
    genes: np.ndarray, cfg: GAConfig, rng: np.random.Generator
) -> np.ndarray:
    """Segment mutation applied with per-individual probability.

    The gene of each block in a random block range is redrawn in
    [0, ``gene_cap``], at its position (an all-zero block gets a uniform
    position).  At p = 1 this refills a random day range.
    """
    if rng.random() >= cfg.mutation_rate:
        return genes
    out = genes.copy()
    p = cfg.block_p
    nb = genes.shape[0] // p
    b1 = int(rng.integers(0, nb))
    b2 = int(rng.integers(b1, nb))
    for bidx in range(b1, b2 + 1):
        block = out[bidx * p:(bidx + 1) * p]
        nz = np.nonzero(block)[0]
        # At p = 1 ``integers(0, 1)`` draws no bits, and each scalar value
        # draw takes the bits of one element of an array draw, so a day
        # range is refilled with the draws of one array call.
        pos = int(nz[0]) if nz.size else int(rng.integers(0, p))
        block[:] = 0
        block[pos] = rng.integers(0, cfg.gene_cap + 1)
    return out


def _propose(
    genes: np.ndarray, fit: np.ndarray, cfg: GAConfig, rng: np.random.Generator
) -> np.ndarray:
    """Offspring of one generation: pop_n two-way tournaments (the fitter
    of two uniform draws, the first on ties), the picks paired for
    crossover (an odd last pick is copied), then each one mutated."""
    n = cfg.pop_n
    r, s = rng.integers(0, n, size=(n, 2)).T
    offspring = genes[np.where(fit[r] >= fit[s], r, s)]
    offspring[:-1:2], offspring[1::2] = crossover(
        offspring[:-1:2], offspring[1::2], cfg.block_p, rng
    )
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
    stable sort, so parents win ties and best fitness never drops.
    ``seed_plans`` inject known-good gene vectors (already valid for this
    horizon) into the initial population; used by the epsilon loop for
    warm starts.
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
    report = FitnessReport(int(j[best]), bool(feas[best]))
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
    for i in range(eps - 1, -1, -1):
        if dropped <= 0:
            break
        if cfg.block_p > 1 and out[i] == 0:
            continue  # one release per block: fill only its nonzero gene
        room = cfg.gene_cap - int(out[i])
        add = min(room, dropped)
        out[i] += add
        dropped -= add
    return out


def epsilon_loop(
    epsilon_0: int,
    ga_cfg: GAConfig,
    params: StrainParams,
    target: tuple[float, float],
    initial_wild: float,
) -> EpsilonLoopResult:
    """Shrink the horizon from ``epsilon_0`` while the GA keeps finding
    feasible plans.

    Round k runs one GA, seeded ``rng_seed + 1000 k``, whose initial
    population holds truncations of the last three rounds' best plans;
    truncation drops trailing days (whole blocks for p > 1), and a
    repaired variant rolls the dropped releases into the remaining tail up
    to the gene cap.  The loop ends at the first horizon where the run
    finds no feasible plan, or below one block, so it runs at most
    epsilon_0 / p rounds, stepping by the block period p; it returns the
    smallest feasible horizon with its best plan.
    """
    p = ga_cfg.block_p
    if epsilon_0 <= 0 or epsilon_0 % p:
        raise ValueError(f"epsilon_0 must be a positive multiple of block_p {p}, not {epsilon_0}")
    best: Optional[GAResult] = None
    carry: list[np.ndarray] = []
    per_epsilon: list[tuple[int, Optional[int]]] = []
    stats = Counter(rows_screened=0, rows_rerun=0)
    for round_idx, eps in enumerate(range(epsilon_0, p - 1, -p)):
        # Carried plans come from longer horizons (eps only shrinks).
        seeds = [s for arr in carry for s in (arr[:eps], _roll_tail(arr, eps, ga_cfg))]
        run = run_ga(replace(ga_cfg, rng_seed=ga_cfg.rng_seed + 1000 * round_idx),
                     eps, params, target, initial_wild, seeds)
        stats.update(run.stats)
        if not run.report.feasible:
            per_epsilon.append((eps, None))
            break
        per_epsilon.append((eps, run.report.j_value))
        best = run
        carry = [best.best.genes] + carry[:2]
    plan, report = (best.best, best.report) if best else (None, None)
    return EpsilonLoopResult(plan, report, per_epsilon, dict(stats))
