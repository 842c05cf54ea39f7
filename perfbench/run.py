"""Benchmark for the wolbopt release planner.

    python3 perfbench/run.py --workload {continuous,discrete,verify} \
        --seed N --seconds S --trace {0,1} [--size {bench,smoke,paper}]

Run from the root of a source checkout; the package is imported from its
``src/``.  One process, no extra threads.  Rounds of the workload (see
``workloads.py``) repeat until the next one would end after ``--seconds``.
With ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are printed;
with ``--trace 1`` every round is run twice on the same inputs, untraced
and then traced, and the per-layer metrics are printed, with the spans
written to ``perfbench/out/``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One thread of numeric work, in this process and in the set-up probes.
SINGLE_THREAD = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(SINGLE_THREAD)

# Set-up is sampled once in this process and this many times in fresh ones.
SETUP_PROBES = 4
SETUP_PROBE = f"""
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]
import workloads
workloads.resolve_scenarios()
print(time.perf_counter() - t0)
"""


class SpeedProbe:
    """Samples the host's current speed throughout a run, in this thread.

    On a shared host the same work can take 2x longer from one minute to the
    next.  Every ``interval`` seconds a SIGALRM handler times a fixed
    reference mix (scalar float loop, small and large numpy arrays, like the
    OCP, ``solve_ivp`` and the GA kernel); ``wall_ref`` divides the round
    time by the median of those samples.
    """

    def __init__(self, interval: float = 0.05):
        import numpy as np

        self.np = np
        self.big = np.linspace(1.0, 7000.0, 1024)
        self.small = np.array([6000.0, 10.0])
        self.interval = interval
        self.samples: list[float] = []

    def _reference(self, signum, frame) -> None:
        np, big, small = self.np, self.big, self.small
        t0 = time.perf_counter()
        x, acc = 6000.0, 0.0
        for i in range(400):
            s = x + 10.0
            acc += 0.3 * x * (x + 0.1) / s * math.exp(-1e-4 * s) - 0.05 * x
            x = 6000.0 + (i & 7)
        for _ in range(15):
            acc += float(np.exp(-1e-4 * small).sum())
        for _ in range(15):
            acc += float((np.exp(-1e-4 * big) * big / (big + 10.0)).sum())
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._reference)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def median(self) -> float:
        if not self.samples:  # a run shorter than one interval
            self._reference(None, None)
        return statistics.median(self.samples)


def machine_facts(load: float) -> dict:
    """Where the run happened; ``load`` is the 1-minute load average at start."""
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_start": round(load, 2),
        "loaded": load > nproc,
    }


def probe_setup() -> float:
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        decl = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in decl["end_to_end"]},
        1: {m["name"]: m["unit"] for m in decl["per_layer"]},
    }


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (q in [0, 1]) of a non-empty list."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (pos - lo) * (v[hi] - v[lo])


def rhs_ns(scen) -> float:
    """Nanoseconds per call of the scalar vector field, on a grid of states."""
    from wolbopt.model import make_rhs

    pts = [(float(x), float(y), 0.0) for x in range(0, 8000, 250) for y in range(0, 8000, 250)]
    per_strain = []
    for s in scen.values():
        f = make_rhs(s.params)
        times = []
        for _ in range(5):
            t0 = time.perf_counter_ns()
            for _ in range(10):
                for x, y, u in pts:
                    f(x, y, u)
            times.append((time.perf_counter_ns() - t0) / (10 * len(pts)))
        per_strain.append(statistics.median(times))
    return statistics.mean(per_strain)


def layer_metrics(tracer, wall: float) -> dict:
    """Per-layer figures of one traced round."""
    c = tracer.counts
    solves = tracer.solves
    ev = tracer.samples["sim.evaluate_schedule"]
    fe = tracer.samples["sim.first_entry"]
    b100 = tracer.samples["model.rhs_arrays.b100"]
    b1000 = tracer.samples["model.rhs_arrays.b1000"]
    kernel = tracer.durations("ga.evaluate_population")
    kernel_in_runs = run_ga = batch = rules = 0.0
    for name, start, end, parent, _ in tracer.spans:
        parent_name = tracer.spans[parent][0] if parent >= 0 else ""
        if name == "ga.run_ga":
            run_ga += end - start
        elif name == "ga.evaluate_population" and parent_name == "ga.run_ga":
            kernel_in_runs += end - start
        elif name == "ga.simulate_batch" and parent_name != "ga.evaluate_population":
            batch += end - start
        elif name.startswith("impulsive.") and not parent_name.startswith("impulsive."):
            rules += end - start  # select_rule calls daily_impulses: count the outer span
    plans = c["ga.plans_evaluated"]
    feas_rows = sum(f for f, _ in tracer.ga_history)
    hist_rows = sum(n for _, n in tracer.ga_history)

    def ratio(a, b):
        return a / b if b else 0.0

    def per_strain(key, strain):
        return sum(s[key] for s in solves if s["strain"] == strain)

    m = {
        "model.rhs_calls": c["ocp.rhs_calls"] + c["sim.rhs_calls"],
        "model.jac_calls": c["ocp.jac_calls"],
        "model.rhs_arrays_calls": c["model.rhs_arrays_calls"],
        "model.rhs_arrays_rows": c["model.rhs_arrays_rows"],
        "model.rhs_arrays_us_b100": 1e6 * ratio(sum(b100), len(b100)),
        "model.rhs_arrays_us_b1000": 1e6 * ratio(sum(b1000), len(b1000)),
        "ocp.solve_s.wmel": per_strain("seconds", "wmel"),
        "ocp.solve_s.wmelpop": per_strain("seconds", "wmelpop"),
        "ocp.forward_passes": sum(s["forward"] for s in solves),
        "ocp.backward_passes": sum(s["backward"] for s in solves),
        "ocp.forward_passes.wmel": per_strain("forward", "wmel"),
        "ocp.forward_passes.wmelpop": per_strain("forward", "wmelpop"),
        "ocp.backward_passes.wmel": per_strain("backward", "wmel"),
        "ocp.backward_passes.wmelpop": per_strain("backward", "wmelpop"),
        "impulsive.rules_s": rules,
        "impulsive.schedules_evaluated": c["impulsive.schedules_evaluated"],
        "impulsive.excess_fallback_frac": ratio(c["impulsive.excess_chosen"],
                                                c["impulsive.select_rule_calls"]),
        "sim.ivp_calls": c["sim.ivp_calls"],
        "sim.nfev": c["sim.nfev"],
        "sim.evaluate_schedule_ms_p50": 1e3 * quantile(ev, 0.5) if ev else 0.0,
        "sim.evaluate_schedule_ms_p90": 1e3 * quantile(ev, 0.9) if ev else 0.0,
        "sim.first_entry_us": 1e6 * ratio(sum(fe), len(fe)),
        "sim.separatrix_s": sum(tracer.durations("sim.separatrix")),
        "ga.kernel_s": sum(kernel),
        "ga.operators_s": run_ga - kernel_in_runs,
        "ga.plans_evaluated": plans,
        "ga.kernel_us_per_plan": 1e6 * ratio(sum(kernel), plans),
        "ga.unique_row_frac": ratio(len(tracer.unique_rows), plans),
        "ga.feasible_frac": ratio(feas_rows, hist_rows),
        "ga.epsilon_rounds": c["ga.epsilon_rounds"],
        "ga.run_ga_calls": c["ga.run_ga_calls"],
        "ga.batch_s": batch,
        "trace.round_s": wall,
        "trace.spans": len(tracer.spans),
    }
    for layer, seconds in tracer.self_times().items():
        m[f"{layer}.self_s"] = seconds
    return m


def run(args) -> int:
    decl = declared_metrics()[args.trace]
    load = os.getloadavg()[0]
    t0 = time.perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    scen = workloads.resolve_scenarios()
    setup_here = time.perf_counter() - t0
    import wolbopt

    if Path(wolbopt.__file__).resolve().parent != (SRC / "wolbopt").resolve():
        print(f"error: imported wolbopt from {wolbopt.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    machine = machine_facts(load)
    size = workloads.SIZES[args.size]
    make_inputs, run_round = workloads.WORKLOADS[args.workload]
    print(f"# machine {json.dumps(machine, sort_keys=True)}")
    if machine["loaded"]:
        print(f"# WARNING: load average {machine['loadavg_start']} above nproc at start")
    print(f"# workload={args.workload} seed={args.seed} size={args.size} "
          f"seconds={args.seconds} trace={args.trace}")

    rounds, walls, layer_rounds, overheads = [], [], [], []
    spans = []
    probe = SpeedProbe()
    start = time.perf_counter()
    k = 0
    while True:
        inputs = make_inputs(args.seed, k, size, scen)
        show = args.seed == 0 and k == 0
        with probe if not args.trace else contextlib.nullcontext():
            t_round = time.perf_counter()
            rnd = run_round(inputs, scen, show)
            wall = time.perf_counter() - t_round
        rounds.append(rnd)
        walls.append(wall)
        if args.trace:
            from tracing import Tracer, instrument

            tracer = Tracer(f"{args.workload}-{args.seed}-r{k}")
            with instrument(tracer):
                t_traced = time.perf_counter()
                with tracer.span("bench.round"):
                    traced = run_round(inputs, scen, False)
                traced_wall = time.perf_counter() - t_traced
            rounds.append(traced)
            overheads.append(traced_wall - wall)
            layer_rounds.append(layer_metrics(tracer, traced_wall))
            spans += tracer.spans
            wall += traced_wall
        k += 1
        if time.perf_counter() - start + wall > args.seconds:
            break

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    verdicts = [v for r in rounds for v in r.verdicts]
    for r in rounds:
        for err in r.errors:
            print(f"# FAILED: {err}")
    for label, actual, ref in rounds[0].deviations:
        print(f"# vs reference: {label}: {actual:.6g} vs {ref:.6g} "
              f"({100.0 * (actual - ref) / ref:+.1f} %)")

    if args.trace:
        metrics = {}
        for name in layer_rounds[0]:
            unit = decl.get(name)
            if unit in ("count", "ratio"):
                metrics[name] = layer_rounds[0][name]  # exact and repeatable: first round
            else:
                metrics[name] = statistics.median(r[name] for r in layer_rounds)
        metrics["model.rhs_ns"] = rhs_ns(scen)
        metrics["trace.overhead_s"] = statistics.median(overheads)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"machine": machine, "workload": args.workload,
                                 "seed": args.seed, "size": args.size}) + "\n")
            for name, t_start, t_end, parent, run_id in spans:
                fh.write(json.dumps({"name": name, "start": t_start, "end": t_end,
                                     "parent": parent, "run": run_id}) + "\n")
        print(f"# spans: {len(spans)} written to {path.relative_to(ROOT)}")
    else:
        setups = [setup_here] + [probe_setup() for _ in range(SETUP_PROBES)]
        metrics = {
            "wall_ref": statistics.median(walls) / probe.median(),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "released_total": statistics.median(r.released_total for r in rounds),
            "horizon_days": statistics.median(r.horizon_days for r in rounds),
            "verdict_agree_frac": sum(verdicts) / len(verdicts) if verdicts else 0.0,
        }
        n = len(walls)
        tail = ""
        if n > 10:  # the highest percentile with at least ten rounds beyond it
            q = 1.0 - 10.0 / n
            tail = f", p{100 * q:.0f} {quantile(walls, q):.3f} s"
        print(f"# rounds: {n}; wall_s median {statistics.median(walls):.3f} s{tail}; per round: "
              + " ".join(f"{w:.3f}" for w in walls))
        print(f"# setup_s samples: " + " ".join(f"{s:.3f}" for s in setups))
        print(f"# speed probe: {len(probe.samples)} samples, median {1e3 * probe.median():.4f} ms, "
              f"quartiles " + " ".join(f"{1e3 * q:.4f}" for q in statistics.quantiles(probe.samples, n=4)[::2])
              + " ms")
        print(f"wall_s = {statistics.median(walls):.6g} s (raw; host drift, not declared)")

    if set(metrics) != set(decl):
        print(f"error: metrics {sorted(set(metrics) ^ set(decl))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 2
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]:.6g} {decl[name]}")
    print(f"fail_frac = {failed}/{attempted} = {failed / attempted:.4g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": decl[n]} for n, v in sorted(metrics.items())},
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("continuous", "discrete", "verify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("bench", "smoke", "paper"), default="bench",
                   help="problem size: bench (timed runs), smoke (tiny), paper (published)")
    args = p.parse_args(argv)
    if not (SRC / "wolbopt" / "__init__.py").is_file():
        print(f"error: no wolbopt sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT / 'BENCHMARK.json'} not found", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
