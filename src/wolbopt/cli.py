"""Command-line pipeline: equilibria, simulate, ocp, impulsive, ga, phase.

Every command resolves a scenario from preset + config file + flags (flags
win), writes its CSV artifacts and a JSON summary embedding the seed and a
configuration hash, and exits 0 on success, 1 on non-convergence or
infeasibility, 2 on usage or parse errors.  ``ocp --reproduce table2`` and
``ga --reproduce table4`` run the full strain-by-frequency matrix and
print deviations against the embedded reference indicators.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Optional

import numpy as np

from . import fileio, reference
from .ga import EpsilonLoopConfig, epsilon_loop, run_ga
from .impulsive import (
    NoFeasibleRuleError,
    daily_impulses,
    evaluate_schedule,
    select_rule,
)
from .model import State, absorbing_bound, equilibria, in_secure_region, secure_region
from .ocp import CapInfeasibleError, NonConvergenceError, solve
from .params import (
    PRESET_NAMES,
    StrainParams,
    UnknownStrainError,
    parse_number,
    preset,
    with_overrides,
)
from .scenarios import (
    Scenario,
    best_ga_plan,
    build_scenario,
    ga_cell,
    ga_config,
    ocp_config,
)
from .sim import (
    IntegrationError,
    SimOptions,
    first_basin_entry,
    integrate,
    phase_field,
    separatrix,
    simulate_impulsive,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


class UsageError(RuntimeError):
    pass


def _read_config(path: Optional[str]) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    if path:
        if not Path(path).exists():
            raise UsageError(f"config file not found: {path}")
        cfg.read(path)
    return cfg


def _resolve_params(args, cfg: configparser.ConfigParser) -> StrainParams:
    name = args.strain or cfg.get("scenario", "strain", fallback=None)
    if name is None:
        raise UsageError("no strain given (use --strain or a config file)")
    try:
        params = preset(name)
    except UnknownStrainError as err:
        raise UsageError(str(err)) from None
    if cfg.has_section("strain"):
        params = with_overrides(params, dict(cfg.items("strain")))
    if getattr(args, "params", None):
        override_cfg = configparser.ConfigParser()
        path = Path(args.params)
        if not path.exists():
            raise UsageError(f"strain override file not found: {path}")
        text = path.read_text()
        if not text.lstrip().startswith("["):
            text = "[strain]\n" + text
        override_cfg.read_string(text)
        params = with_overrides(params, dict(override_cfg.items("strain")))
    return params


def _resolve_scenario(args, cfg: configparser.ConfigParser) -> Scenario:
    params = _resolve_params(args, cfg)
    get = lambda key: cfg.get("scenario", key, fallback=None)  # noqa: E731
    initial = args.initial_wild
    if initial is None and get("initial_wild"):
        initial = parse_number(get("initial_wild"))
    cap = getattr(args, "cap_l", None)
    if cap is None and get("cap_l"):
        cap = parse_number(get("cap_l"))
    freq = getattr(args, "frequency", None)
    if freq is None:
        freq = int(get("frequency") or 1)
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = int(get("seed") or 0)
    return build_scenario(
        params, initial_wild=initial, cap_l=cap, frequency=freq, seed=seed
    )


def _outdir(args) -> Path:
    out = args.out or os.environ.get("WOLBOPT_OUTDIR") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


_STAGE_FIELDS = {
    "ocp": {
        "weight_p": float, "cap_l": float, "terminal_x": float, "grid_n": int,
        "tol_bc": float, "tol_h": float, "sweep_relaxation": float,
        "max_outer_iterations": int, "t_init": float, "max_horizon": float,
    },
    "ga": {"pop_n": int, "generations_g": int, "mutation_rate": float},
    "sim": {
        "rel_tol": float, "abs_tol": float, "max_step": float,
        "t_end": float, "dense_output_stride": float,
    },
}


def _stage_overrides(cfg: configparser.ConfigParser, section: str) -> dict:
    """Typed stage options from a config-file section; flags still win."""
    if not cfg.has_section(section):
        return {}
    fields = _STAGE_FIELDS[section]
    out = {}
    for key, raw in cfg.items(section):
        key = key.strip().lower()
        if key not in fields:
            raise UsageError(f"unknown [{section}] option {key!r}")
        if fields[key] is int:
            out[key] = int(raw)
        else:
            out[key] = parse_number(raw)
    return out


def _scenario_summary(scenario: Scenario) -> dict:
    desc = {
        "strain": asdict(scenario.params),
        "initial_wild": scenario.initial_wild,
        "cap_l": scenario.cap_l,
        "frequency": scenario.frequency,
        "seed": scenario.seed,
    }
    return {
        "scenario": desc,
        "seed": scenario.seed,
        "config_hash": fileio.config_hash(desc),
    }


def cmd_equilibria(args) -> int:
    cfg = _read_config(args.config)
    scenario = _resolve_scenario(args, cfg)
    eq = equilibria(scenario.params)
    rows = []
    for label, e in (("E0", eq.e0), ("Ex", eq.ex), ("Eu", eq.eu), ("Es", eq.es), ("Ey", eq.ey)):
        if e is None:
            continue
        rows.append((label, e.state.x, e.state.y, e.stability))
        print(f"{label:3s} x={e.state.x:10.2f}  y={e.state.y:10.2f}  {e.stability}")
    if eq.collision:
        print("warning: coexistence equilibria collide (pitchfork degeneracy)")
    summary = _scenario_summary(scenario)
    summary["equilibria"] = {
        label: {"x": x, "y": y, "stability": s} for label, x, y, s in rows
    }
    summary["collision"] = eq.collision
    if eq.eu is not None:
        xu, yu = secure_region(eq)
        summary["secure_region"] = {"x_u": xu, "y_u": yu}
        print(f"secure region: x < {xu:.2f} and y > {yu:.2f}")
    out = _outdir(args)
    fileio.write_summary(out / f"equilibria_{scenario.params.name}.json", summary)
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _read_config(args.config)
    scenario = _resolve_scenario(args, cfg)
    sim_over = _stage_overrides(cfg, "sim")
    sim_over["t_end"] = args.t_end if args.t_end is not None else sim_over.get("t_end", 400.0)
    opts = SimOptions(**sim_over)
    target = scenario.target
    s0 = State(scenario.initial_wild, 0.0)
    if args.schedule:
        sched = fileio.read_schedule_csv(Path(args.schedule))
        traj = simulate_impulsive(scenario.params, s0, sched, opts)
        total = sched.total
    elif args.control:
        ctrl = fileio.read_control_csv(Path(args.control))
        traj = integrate(
            scenario.params, s0, (ctrl.times, ctrl.values), (0.0, opts.t_end), opts
        )
        total = float(np.trapezoid(ctrl.values, ctrl.times))
    else:
        traj = integrate(scenario.params, s0, None, (0.0, opts.t_end), opts)
        total = 0.0
    entry = first_basin_entry(traj, target)
    out = _outdir(args)
    name = f"trajectory_{scenario.params.name}.csv"
    fileio.write_trajectory_csv(out / name, traj)
    summary = _scenario_summary(scenario)
    summary.update(
        {
            "total_released": total,
            "basin_entry_time": entry,
            "feasible": entry is not None,
            "final_state": {"x": traj.final_state[0], "y": traj.final_state[1]},
            "trajectory_csv": name,
        }
    )
    fileio.write_summary(out / f"simulate_{scenario.params.name}.json", summary)
    print(
        f"final state ({traj.final_state[0]:.1f}, {traj.final_state[1]:.1f}); "
        f"basin entry: {entry if entry is not None else 'never'}"
    )
    return EXIT_OK


def _solve_ocp(scenario: Scenario, args, cfg: Optional[configparser.ConfigParser] = None):
    overrides = _stage_overrides(cfg, "ocp") if cfg is not None else {}
    if getattr(args, "weight_p", None) is not None:
        overrides["weight_p"] = args.weight_p
    if getattr(args, "grid_n", None) is not None:
        overrides["grid_n"] = args.grid_n
    if getattr(args, "t_init", None) is not None:
        overrides["t_init"] = args.t_init
    if getattr(args, "terminal_x", None) is not None:
        overrides["terminal_x"] = args.terminal_x
    return solve(scenario.params, ocp_config(scenario, **overrides))


def cmd_ocp(args) -> int:
    if args.reproduce:
        return _reproduce_table2(args)
    cfg = _read_config(args.config)
    scenario = _resolve_scenario(args, cfg)
    sol = _solve_ocp(scenario, args, cfg)
    out = _outdir(args)
    control_name = f"ocp_{scenario.params.name}_control.csv"
    fileio.write_control_csv(out / control_name, sol)
    summary = _scenario_summary(scenario)
    summary.update(
        {
            "t_star": sol.control.t_star,
            "total_released": sol.total_released,
            "objective": sol.objective_j,
            "residuals": sol.residuals,
            "converged": sol.converged,
            "control_csv": control_name,
        }
    )
    fileio.write_summary(out / f"ocp_{scenario.params.name}_summary.json", summary)
    print(
        f"t_star={sol.control.t_star:.4f}  total={sol.total_released:.1f}  "
        f"converged={sol.converged}"
    )
    return EXIT_OK if sol.converged else EXIT_FAILED


def cmd_impulsive(args) -> int:
    if not args.control:
        raise UsageError("impulsive requires --control CONTROL_CSV")
    cfg = _read_config(args.config)
    scenario = _resolve_scenario(args, cfg)
    ctrl = fileio.read_control_csv(Path(args.control))
    target = scenario.target
    out = _outdir(args)
    summary = _scenario_summary(scenario)
    daily = daily_impulses(ctrl)
    sched = daily.schedule()
    rep = evaluate_schedule(
        scenario.params, sched, target, scenario.initial_wild
    )
    name = scenario.params.name
    fileio.write_schedule_csv(out / f"impulsive_{name}_daily.csv", sched)
    cells = {"daily": {**asdict(rep), "rule": "daily"}}
    status = EXIT_OK if rep.feasible else EXIT_FAILED
    if scenario.frequency > 1:
        try:
            seq, rep_m = select_rule(
                scenario.params, ctrl, scenario.frequency, target, scenario.initial_wild
            )
            fileio.write_schedule_csv(
                out / f"impulsive_{name}_m{scenario.frequency}.csv", seq.schedule()
            )
            cells[f"m{scenario.frequency}"] = {**asdict(rep_m), "rule": seq.rule}
        except NoFeasibleRuleError as err:
            print(str(err), file=sys.stderr)
            status = EXIT_FAILED
    summary["schedules"] = cells
    fileio.write_summary(out / f"impulsive_{name}_summary.json", summary)
    for key, cell in cells.items():
        print(
            f"{key}: releases={cell['num_releases']} total={cell['overall_size']} "
            f"entry={cell['basin_entry_time']} rule={cell['rule']}"
        )
    return status


def cmd_ga(args) -> int:
    if args.reproduce:
        return _reproduce_table4(args)
    cfg = _read_config(args.config)
    scenario = _resolve_scenario(args, cfg)
    target = scenario.target
    overrides = _stage_overrides(cfg, "ga")
    if args.pop_n is not None:
        overrides["pop_n"] = args.pop_n
    if args.generations is not None:
        overrides["generations_g"] = args.generations
    gcfg = ga_config(scenario, **overrides)
    out = _outdir(args)
    name = scenario.params.name
    summary = _scenario_summary(scenario)
    if args.epsilon0 is not None:
        loop_cfg = EpsilonLoopConfig(
            epsilon_0=args.epsilon0,
            step=args.epsilon_step or scenario.frequency,
            restarts_per_epsilon=args.restarts,
        )
        res = epsilon_loop(loop_cfg, gcfg, scenario.params, target, scenario.initial_wild)
        if res.best is None:
            print("no feasible plan at the initial horizon", file=sys.stderr)
            summary["feasible"] = False
            fileio.write_summary(out / f"ga_{name}_summary.json", summary)
            return EXIT_FAILED
        plan, report, horizon = res.best, res.report, res.horizon
        summary["per_epsilon"] = [
            {"epsilon": e, "best_j": j} for e, j in res.per_epsilon
        ]
        history = None
    else:
        horizon = args.horizon or ga_cell(name, scenario.frequency).horizon
        if horizon % scenario.frequency:
            raise UsageError("horizon must be a multiple of the release period")
        result = run_ga(gcfg, horizon, scenario.params, target, scenario.initial_wild)
        plan, report, history = result.best, result.report, result.history
        fileio.write_history_csv(out / f"ga_{name}_history.csv", history)
    sched = plan.schedule()
    fileio.write_schedule_csv(out / f"ga_{name}_plan.csv", sched)
    # The GA's own rule, on the adaptive trajectory: the state at the horizon.
    verify = simulate_impulsive(
        scenario.params, State(scenario.initial_wild, 0.0), sched,
        SimOptions(t_end=float(horizon)),
    )
    summary.update(
        {
            "horizon": horizon,
            "j_value": report.j_value,
            "num_releases": plan.num_releases,
            "feasible": report.feasible,
            "entry_time": report.entry_time,
            "verified_feasible": bool(in_secure_region(*verify.final_state, target)),
            "ga_config": asdict(gcfg),
        }
    )
    fileio.write_summary(out / f"ga_{name}_summary.json", summary)
    print(
        f"horizon={horizon}  J={report.j_value}  releases={plan.num_releases}  "
        f"feasible={report.feasible}"
    )
    return EXIT_OK if report.feasible else EXIT_FAILED


def cmd_phase(args) -> int:
    if args.grid < 2:
        raise UsageError("--grid must be at least 2")
    cfg = _read_config(args.config)
    scenario = _resolve_scenario(args, cfg)
    eq = equilibria(scenario.params)
    bound = absorbing_bound(scenario.params)
    n = args.grid
    xs = np.linspace(0.0, 1.1 * bound, n)
    ys = np.linspace(0.0, 1.1 * bound, n)
    rows = phase_field(scenario.params, xs, ys)
    out = _outdir(args)
    name = scenario.params.name
    fileio.write_phase_csv(out / f"phase_{name}.csv", rows)
    summary = _scenario_summary(scenario)
    summary["grid"] = {"n": n, "max": 1.1 * bound}
    if eq.eu is not None:
        curve = separatrix(scenario.params)
        with open(out / f"separatrix_{name}.csv", "w") as fh:
            fh.write("x,y\n")
            for x, y in curve:
                fh.write(f"{x:.10g},{y:.10g}\n")
        summary["separatrix_points"] = int(curve.shape[0])
    fileio.write_summary(out / f"phase_{name}_summary.json", summary)
    print(f"wrote {n * n} field samples")
    return EXIT_OK


def _print_comparison(title: str, rows: list[tuple[str, float, float]]) -> None:
    print(title)
    for label, actual, ref in rows:
        dev = reference.deviation_pct(actual, ref)
        print(f"  {label:42s} {actual:12.2f}  reference {ref:10.2f}  dev {dev:+7.2f}%")


def _reproduce_table2(args) -> int:
    status = EXIT_OK
    out = _outdir(args)
    for name in PRESET_NAMES:
        scenario = build_scenario(preset(name))
        try:
            sol = _solve_ocp(scenario, args)
        except (CapInfeasibleError, NonConvergenceError) as err:
            print(f"{name}: OCP failed: {err}", file=sys.stderr)
            status = EXIT_FAILED
            continue
        fileio.write_control_csv(out / f"ocp_{name}_control.csv", sol)
        ref_c = reference.CONTINUOUS[name]
        rows = [
            (f"{name} t_star", sol.control.t_star, ref_c["t_star"]),
            (f"{name} continuous total", sol.total_released, ref_c["total"]),
        ]
        target = scenario.target
        daily = daily_impulses(sol.control)
        rep = evaluate_schedule(
            scenario.params, daily.schedule(), target, scenario.initial_wild
        )
        ref_d = reference.IMPULSIVE[name][1]
        rows.append((f"{name} daily releases", rep.num_releases, ref_d[0]))
        rows.append((f"{name} daily total", rep.overall_size, ref_d[1]))
        for m in (7, 14):
            try:
                seq, rep_m = select_rule(
                    scenario.params, sol.control, m, target, scenario.initial_wild
                )
            except NoFeasibleRuleError as err:
                print(f"{name} m={m}: {err}", file=sys.stderr)
                status = EXIT_FAILED
                continue
            ref_m = reference.IMPULSIVE[name][m]
            rows.append((f"{name} m={m} releases ({seq.rule})", rep_m.num_releases, ref_m[0]))
            rows.append((f"{name} m={m} total", rep_m.overall_size, ref_m[1]))
        _print_comparison(f"=== impulsive indicators: {name} ===", rows)
    return status


def _reproduce_table4(args) -> int:
    if args.seeds < 1:
        raise UsageError("--seeds must be at least 1")
    status = EXIT_OK
    seeds = list(range(args.seed or 0, (args.seed or 0) + args.seeds))
    for name in PRESET_NAMES:
        for freq in (1, 7, 14):
            ref_cell = reference.GA[name][freq]
            best = best_ga_plan(preset(name), freq, seeds)
            if best is None:
                print(f"{name} p={freq}: no feasible plan found", file=sys.stderr)
                status = EXIT_FAILED
                continue
            plan, report, _, _ = best
            _print_comparison(
                f"=== discrete search: {name} p={freq} ===",
                [
                    (f"{name} p={freq} releases", plan.num_releases, ref_cell[0]),
                    (f"{name} p={freq} total J", report.j_value, ref_cell[1]),
                ],
            )
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wolbopt",
        description="Plan optimal release schedules of infected mosquitoes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_seed=False):
        p.add_argument("--strain", help=f"preset name ({', '.join(PRESET_NAMES)})")
        p.add_argument("--params", help="strain override file (key = value, rationals allowed)")
        p.add_argument("--config", help="scenario config file (INI sections)")
        p.add_argument(
            "--initial-wild",
            type=float,
            default=None,
            help="initial wild population; default: computed wild-only equilibrium "
            "(use 7030 for the published per-hectare field density)",
        )
        p.add_argument("--out", "-o", help="output directory (or $WOLBOPT_OUTDIR)")
        p.add_argument("--seed", type=int, default=None)

    p_eq = sub.add_parser("equilibria", help="equilibria, stability, secure region")
    common(p_eq)
    p_eq.set_defaults(func=cmd_equilibria)

    p_sim = sub.add_parser("simulate", help="simulate a schedule or control file")
    common(p_sim)
    p_sim.add_argument("--schedule", help="schedule CSV (day,size[,rule])")
    p_sim.add_argument("--control", help="control CSV (t,u_star,...)")
    p_sim.add_argument("--t-end", type=float, default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_ocp = sub.add_parser("ocp", help="solve the continuous release problem")
    common(p_ocp)
    p_ocp.add_argument("--cap-l", type=float, default=None)
    p_ocp.add_argument("--weight-p", type=float, default=None)
    p_ocp.add_argument("--grid-n", type=int, default=None)
    p_ocp.add_argument("--t-init", type=float, default=None)
    p_ocp.add_argument("--terminal-x", type=float, default=None)
    p_ocp.add_argument("--reproduce", choices=["table2"], default=None)
    p_ocp.set_defaults(func=cmd_ocp)

    p_imp = sub.add_parser("impulsive", help="schedules from a solved control")
    common(p_imp)
    p_imp.add_argument("--cap-l", type=float, default=None)
    p_imp.add_argument("--control", help="control CSV from the ocp stage")
    p_imp.add_argument("--frequency", type=int, default=None, help="release period in days")
    p_imp.set_defaults(func=cmd_impulsive)

    p_ga = sub.add_parser("ga", help="genetic search for discrete plans")
    common(p_ga)
    p_ga.add_argument("--cap-l", type=float, default=None)
    p_ga.add_argument("--frequency", type=int, default=None)
    p_ga.add_argument("--horizon", type=int, default=None)
    p_ga.add_argument("--pop-n", type=int, default=None)
    p_ga.add_argument("--generations", type=int, default=None)
    p_ga.add_argument("--epsilon0", type=int, default=None, help="run the epsilon loop")
    p_ga.add_argument("--epsilon-step", type=int, default=None)
    p_ga.add_argument("--restarts", type=int, default=3)
    p_ga.add_argument("--seeds", type=int, default=5, help="seed count for --reproduce")
    p_ga.add_argument("--reproduce", choices=["table4"], default=None)
    p_ga.set_defaults(func=cmd_ga)

    p_ph = sub.add_parser("phase", help="phase-field and separatrix data")
    common(p_ph)
    p_ph.add_argument("--grid", type=int, default=50)
    p_ph.set_defaults(func=cmd_phase)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # Bad input: a missing or unreadable file, a malformed config or CSV,
    # an out-of-range value.
    except (UsageError, UnknownStrainError, ValueError, OSError, configparser.Error) as err:
        print(str(err), file=sys.stderr)
        return EXIT_USAGE
    except (CapInfeasibleError, NonConvergenceError, NoFeasibleRuleError, IntegrationError) as err:
        print(str(err), file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
