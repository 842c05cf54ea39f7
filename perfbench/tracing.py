"""Spans and counters recorded from outside the library.

``instrument`` swaps wrappers in for the public functions of each layer, at
the names the library's own modules call them by, and puts the originals
back on exit.  Nothing in ``src/`` is edited: a span is recorded around each
call into a layer, and the hot closures built by ``make_rhs`` /
``make_jacobian`` are replaced by counting closures (counts, not spans,
because there are tens of millions of calls).
"""

from __future__ import annotations

import itertools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from wolbopt import ga, impulsive, ocp, sim

# Batch-size buckets for the array vector field: the GA evolves b = pop_n
# rows, the verify workload runs one large batch.
B100 = (64, 512)
B1000 = 512

LAYERS = ("ocp", "impulsive", "sim", "ga")


class Tracer:
    """In-memory spans (name, start, end, parent index, run id) and counts."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.samples: defaultdict = defaultdict(list)
        self.unique_rows: set = set()
        self.ga_history: list[tuple[int, int]] = []  # (feasible rows, rows) per generation
        self.solves: list[dict] = []
        self._tickers: list = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn, after=None):
        """A pass-through wrapper that records a span; ``after(args, result,
        seconds)`` sees each completed call."""

        def wrapper(*args, **kwargs):
            with self.span(name):
                t0 = time.perf_counter()
                result = fn(*args, **kwargs)
                dt = time.perf_counter() - t0
            if after is not None:
                after(args, result, dt)
            return result

        return wrapper

    def counting_factory(self, key: str, factory):
        """Wrap a closure factory so every closure it returns counts calls.

        A C-level ``itertools.count`` keeps the per-call cost low; its value
        is moved into ``counts`` by ``flush_tickers``, which runs between
        solves, when no counted closure is still in use.
        """

        def make(params):
            inner = factory(params)
            tick = itertools.count()

            def counted(*args):
                next(tick)
                return inner(*args)

            self._tickers.append((key, tick))
            return counted

        return make

    def flush_tickers(self) -> None:
        for key, tick in self._tickers:
            self.counts[key] += next(tick)
        self._tickers = []

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self) -> dict[str, float]:
        """Per layer: span time minus the part covered by child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out = dict.fromkeys(LAYERS, 0.0)
        for i, s in enumerate(self.spans):
            layer = s[0].split(".", 1)[0]
            if layer in out:
                out[layer] += (s[2] - s[1]) - child[i]
        return out


@contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    t = tracer
    solve = ocp.solve

    def traced_solve(params, cfg):
        # Per-solve pass counts: every forward pass makes 4 rhs calls per
        # grid step, every backward pass 3 Jacobian calls per grid step.
        t.flush_tickers()
        rhs0, jac0 = t.counts["ocp.rhs_calls"], t.counts["ocp.jac_calls"]
        with t.span("ocp.solve"):
            t0 = time.perf_counter()
            sol = solve(params, cfg)
            dt = time.perf_counter() - t0
        t.flush_tickers()
        t.solves.append(
            {
                "strain": params.name,
                "seconds": dt,
                "forward": (t.counts["ocp.rhs_calls"] - rhs0) // (4 * cfg.grid_n),
                "backward": (t.counts["ocp.jac_calls"] - jac0) // (3 * cfg.grid_n),
            }
        )
        return sol

    def on_ivp(args, result, dt):
        t.counts["sim.ivp_calls"] += 1
        t.counts["sim.nfev"] += int(result.nfev)

    def on_select(args, result, dt):
        t.counts["impulsive.select_rule_calls"] += 1
        t.counts["impulsive.excess_chosen"] += result[0].rule == "excess"

    def on_evaluate(args, result, dt):
        t.counts["impulsive.schedules_evaluated"] += 1
        t.samples["sim.evaluate_schedule"].append(dt)

    def on_first_entry(args, result, dt):
        t.samples["sim.first_entry"].append(dt)

    def on_population(args, result, dt):
        params, genes, _target, initial_wild = args[:4]
        t.counts["ga.plans_evaluated"] += genes.shape[0]
        key = (params.name, float(initial_wild), genes.shape[1])
        t.unique_rows.update((key, row.tobytes()) for row in genes)

    def on_run_ga(args, result, dt):
        t.counts["ga.run_ga_calls"] += 1
        pop_n = args[0].pop_n
        t.ga_history.extend((rec.feasible_count, pop_n) for rec in result.history)

    def on_epsilon(args, result, dt):
        t.counts["ga.epsilon_rounds"] += len(result.per_epsilon)

    rhs_arrays = ga.rhs_arrays

    def timed_rhs_arrays(params, x, y):
        t0 = time.perf_counter()
        out = rhs_arrays(params, x, y)
        dt = time.perf_counter() - t0
        b = x.shape[0]
        t.counts["model.rhs_arrays_calls"] += 1
        t.counts["model.rhs_arrays_rows"] += b
        if B100[0] <= b < B100[1]:
            t.samples["model.rhs_arrays.b100"].append(dt)
        elif b >= B1000:
            t.samples["model.rhs_arrays.b1000"].append(dt)
        return out

    patches = [
        (ocp, "make_rhs", t.counting_factory("ocp.rhs_calls", ocp.make_rhs)),
        (ocp, "make_jacobian", t.counting_factory("ocp.jac_calls", ocp.make_jacobian)),
        (ocp, "solve", traced_solve),
        (sim, "make_rhs", t.counting_factory("sim.rhs_calls", sim.make_rhs)),
        (sim, "solve_ivp", t.wrap("sim.solve_ivp", sim.solve_ivp, on_ivp)),
        (sim, "simulate_impulsive", t.wrap("sim.simulate_impulsive", sim.simulate_impulsive)),
        (sim, "separatrix", t.wrap("sim.separatrix", sim.separatrix)),
        (sim, "phase_field", t.wrap("sim.phase_field", sim.phase_field)),
        (impulsive, "daily_impulses", t.wrap("impulsive.daily_impulses", impulsive.daily_impulses)),
        (impulsive, "select_rule", t.wrap("impulsive.select_rule", impulsive.select_rule, on_select)),
        (impulsive, "evaluate_schedule",
         t.wrap("sim.evaluate_schedule", impulsive.evaluate_schedule, on_evaluate)),
        (impulsive, "first_basin_entry",
         t.wrap("sim.first_basin_entry", impulsive.first_basin_entry, on_first_entry)),
        (ga, "rhs_arrays", timed_rhs_arrays),
        (ga, "simulate_batch", t.wrap("ga.simulate_batch", ga.simulate_batch)),
        (ga, "evaluate_population",
         t.wrap("ga.evaluate_population", ga.evaluate_population, on_population)),
        (ga, "run_ga", t.wrap("ga.run_ga", ga.run_ga, on_run_ga)),
        (ga, "epsilon_loop", t.wrap("ga.epsilon_loop", ga.epsilon_loop, on_epsilon)),
    ]
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    try:
        for mod, name, new in patches:
            setattr(mod, name, new)
        yield tracer
    finally:
        for mod, name, old in saved:
            setattr(mod, name, old)
        tracer.flush_tickers()
