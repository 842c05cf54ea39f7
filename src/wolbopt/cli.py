"""Command-line pipeline: equilibria, simulate, ocp, impulsive, ga, phase.

Every setting is resolved once, before any command runs: the config file,
then ``--params``, then the flags (flags win), every section checked
whichever command runs.  A command on a scenario (the preset with these
settings laid over it) writes its CSV artifacts and a JSON summary embedding
the seed and a configuration hash, and exits 0 on success, 1 on
non-convergence or infeasibility, 2 on usage or parse errors.
``ocp --reproduce table2`` and ``ga --reproduce table4`` run the presets'
strain-by-frequency matrix and print the ``scenarios.table2``/``table4``
rows against the published values.
"""

from __future__ import annotations

import argparse
import configparser
import os
import re
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np

from . import fileio
from .ga import EpsilonLoopConfig, GAConfig, epsilon_loop, run_ga
from .impulsive import daily_impulses, evaluate_schedule
from .model import State, absorbing_bound, equilibria, secure_region
from .ocp import CapInfeasibleError, NonConvergenceError, OCPConfig, solve
from .params import PRESET_NAMES, StrainParams, UnknownStrainError, parse_number, preset
from .scenarios import (
    Scenario,
    build_scenario,
    ga_cell,
    ga_config,
    impulsive_cells,
    ocp_config,
    table2,
    table4,
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


def _section_keys(cls, supplied_by_scenario=()) -> dict:
    """A dataclass's fields and their types, less those the scenario sets."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if f.name not in supplied_by_scenario}


# The keys of each config section and their types.  ``[scenario] strain``
# names the preset that becomes ``Scenario.params`` and ``[strain]``
# overrides its fields; the stage configs take the scenario's fields from
# the scenario alone, so no section contradicts it.
_SECTIONS = {
    "scenario": {"strain": str, **_section_keys(Scenario, {"params"})},
    "strain": _section_keys(StrainParams),
    "ocp": _section_keys(OCPConfig, {"cap_l", "initial_x"}),
    "ga": _section_keys(GAConfig, {"cap_l", "block_p", "rng_seed"}),
    "sim": _section_keys(SimOptions),
}


def _read_config(path: Optional[str], strain_only: bool = False) -> dict[str, dict]:
    """The settings of an INI file, ``{section: {key: value}}``: every
    section and key checked against ``_SECTIONS`` and every value parsed by
    its type, whichever command runs.  A ``strain_only`` file (``--params``)
    holds one ``[strain]`` section, whose header may be left out."""
    if not path:
        return {}
    text = Path(path).read_text()  # a missing file exits 2 through ``main``
    cfg = configparser.ConfigParser()
    headerless = strain_only and not text.lstrip().startswith("[")
    try:
        cfg.read_string("[strain]\n" + text if headerless else text, path)
    except configparser.Error as err:
        if not headerless:
            raise
        # Give the file's own line numbers, not counting the header put before it.
        raise UsageError(
            re.sub(r"\[line +(\d+)\]", lambda m: f"[line {int(m[1]) - 1:2d}]", str(err))
        ) from None
    settings = {}
    for section in cfg.sections():
        if section not in _SECTIONS:
            raise UsageError(f"unknown config section [{section}]")
        keys = _SECTIONS[section]
        values = settings[section] = {}
        for key, raw in cfg.items(section):
            if key not in keys:
                raise UsageError(f"unknown [{section}] option {key!r}")
            try:
                values[key] = keys[key](raw) if keys[key] in (int, str) else parse_number(raw)
            except ValueError as err:
                raise UsageError(f"[{section}] {key}: {err}") from None
    other = [f"[{s}]" for s in settings if strain_only and s != "strain"]
    if other:
        raise UsageError(f"--params takes only a [strain] section, not {', '.join(other)}")
    return settings


def _resolve(args) -> dict[str, dict]:
    """Every section's settings: the config file, then ``--params`` over
    ``[strain]``, then every given flag over its same-named key.  A number
    that is not finite exits 2, naming its section and key."""
    settings = {section: {} for section in _SECTIONS}
    settings.update(_read_config(args.config))
    if args.params:
        settings["strain"].update(_read_config(args.params, strain_only=True).get("strain", {}))
    for section, keys in _SECTIONS.items():
        values = settings[section]
        values.update((k, getattr(args, k)) for k in keys if getattr(args, k, None) is not None)
        for key, value in values.items():
            if isinstance(value, float) and not np.isfinite(value):
                raise UsageError(f"[{section}] {key} must be a finite number, not {value}")
    return settings


def _run(args, settings: dict[str, dict]) -> int:
    """Run a command on the resolved settings, then write what it made into
    the output directory: its files and, for a scenario command, the summary
    ``<command>_<strain>[_summary].json``.  A command that raises writes
    nothing, so a usage error leaves no output directory."""
    if getattr(args, "reproduce", None):
        _check_reproducible(args, settings)
        reproduce = _reproduce_table2 if args.reproduce == "table2" else _reproduce_table4
        status, files = reproduce(args, settings)
    else:
        given = dict(settings["scenario"])
        strain = given.pop("strain", None)
        if not strain:
            raise UsageError("no strain given (use --strain or a config file)")
        scenario = build_scenario(replace(preset(strain), **settings["strain"]), **given)
        status, summary, files = args.func(args, settings, scenario)
        desc = asdict(scenario)
        desc["strain"] = desc.pop("params")
        summary.update(scenario=desc, seed=scenario.seed, config_hash=fileio.config_hash(desc))
        suffix = "" if args.command in ("equilibria", "simulate") else "_summary"
        name = f"{args.command}_{scenario.params.name}{suffix}.json"
        files.append((name, fileio.write_summary, summary))
    out = Path(args.out or os.environ.get("WOLBOPT_OUTDIR") or ".")
    for name, write, data in files:
        out.mkdir(parents=True, exist_ok=True)
        write(out / name, data)
    return status


# Each command takes the arguments, the resolved settings and the scenario,
# and returns its exit status, its summary fields and the files it made, as
# (name, writer, data).


def cmd_equilibria(args, settings, scenario):
    eq = equilibria(scenario.params)
    table = {}
    for label, e in (("E0", eq.e0), ("Ex", eq.ex), ("Eu", eq.eu), ("Es", eq.es), ("Ey", eq.ey)):
        if e is None:
            continue
        table[label] = {"x": e.state.x, "y": e.state.y, "stability": e.stability}
        print(f"{label:3s} x={e.state.x:10.2f}  y={e.state.y:10.2f}  {e.stability}")
    if eq.collision:
        print("warning: coexistence equilibria collide (pitchfork degeneracy)")
    summary = {"equilibria": table, "collision": eq.collision}
    if eq.eu is not None:
        xu, yu = secure_region(eq)
        summary["secure_region"] = {"x_u": xu, "y_u": yu}
        print(f"secure region: x < {xu:.2f} and y > {yu:.2f}")
    return EXIT_OK, summary, []


def cmd_simulate(args, settings, scenario):
    if args.schedule and args.control:
        raise UsageError("simulate takes --schedule or --control, not both")
    opts = SimOptions(**settings["sim"])
    s0 = State(scenario.initial_wild, 0.0)
    if args.schedule:
        sched = fileio.read_schedule_csv(Path(args.schedule))
        traj = simulate_impulsive(scenario.params, s0, sched, opts)
        total = sched.total
    elif args.control:
        ctrl = fileio.read_control_csv(Path(args.control))
        traj = integrate(scenario.params, s0, (ctrl.times, ctrl.values), (0.0, opts.t_end))
        total = float(np.trapezoid(ctrl.values, ctrl.times))
    else:
        traj = integrate(scenario.params, s0, None, (0.0, opts.t_end))
        total = 0.0
    entry = first_basin_entry(traj, scenario.target)
    name = f"trajectory_{scenario.params.name}.csv"
    summary = {
        "total_released": total,
        "basin_entry_time": entry,
        "feasible": entry is not None,
        "final_state": {"x": traj.final_state[0], "y": traj.final_state[1]},
        "trajectory_csv": name,
    }
    print(
        f"final state ({traj.final_state[0]:.1f}, {traj.final_state[1]:.1f}); "
        f"basin entry: {entry if entry is not None else 'never'}"
    )
    return EXIT_OK, summary, [(name, fileio.write_trajectory_csv, traj)]


def cmd_ocp(args, settings, scenario):
    sol = solve(scenario.params, ocp_config(scenario, **settings["ocp"]))
    control_name = f"ocp_{scenario.params.name}_control.csv"
    summary = {
        "t_star": sol.control.t_star,
        "total_released": sol.total_released,
        "objective": sol.objective_j,
        "residuals": sol.residuals,
        "converged": sol.converged,
        "stats": sol.stats,
        "history": [row._asdict() for row in sol.history],
        "control_csv": control_name,
    }
    print(
        f"t_star={sol.control.t_star:.4f}  total={sol.total_released:.1f}  "
        f"converged={sol.converged}"
    )
    return EXIT_OK, summary, [(control_name, fileio.write_control_csv, sol)]


def cmd_impulsive(args, settings, scenario):
    if not args.control:
        raise UsageError("impulsive requires --control CONTROL_CSV")
    ctrl = fileio.read_control_csv(Path(args.control))
    if ctrl.cap_l > scenario.cap_l:
        raise UsageError(
            f"{args.control}: the control peaks at {ctrl.cap_l:g}/day, "
            f"above cap_l = {scenario.cap_l:g}"
        )
    name = scenario.params.name
    cells, files = {}, []
    status = EXIT_OK
    periods, opts = sorted({1, scenario.frequency}), SimOptions(**settings["sim"])
    for m, cell in impulsive_cells(scenario, ctrl, periods, opts).items():
        key = "daily" if m == 1 else f"m{m}"
        if cell is None:
            print(f"{key}: no release rule enters the secure region", file=sys.stderr)
            status = EXIT_FAILED
            continue
        seq, rep = cell
        sched = seq.schedule()
        files.append((f"impulsive_{name}_{key}.csv", fileio.write_schedule_csv, sched))
        cells[key] = {**asdict(rep), "rule": sched.rule_tag}
        if not rep.feasible:
            status = EXIT_FAILED
    for key, cell in cells.items():
        print(
            f"{key}: releases={cell['num_releases']} total={cell['overall_size']} "
            f"entry={cell['basin_entry_time']} rule={cell['rule']}"
        )
    return status, {"schedules": cells}, files


def cmd_ga(args, settings, scenario):
    if args.seeds is not None:
        raise UsageError("--seeds applies only to --reproduce table4")
    loop_only = [f"--{k.replace('_', '-')}" for k in ("epsilon_step", "restarts")
                 if getattr(args, k) is not None]
    if loop_only and args.epsilon0 is None:
        raise UsageError(f"{', '.join(loop_only)} applies only to the epsilon loop (--epsilon0)")
    if args.horizon is not None and args.epsilon0 is not None:
        raise UsageError("--horizon does not apply to the epsilon loop (--epsilon0 starts it)")
    target = scenario.target
    gcfg = ga_config(scenario, **settings["ga"])
    name = scenario.params.name
    files = []
    if args.epsilon0 is not None:
        loop_cfg = EpsilonLoopConfig(
            epsilon_0=args.epsilon0,
            step=scenario.frequency if args.epsilon_step is None else args.epsilon_step,
            **({} if args.restarts is None else {"restarts_per_epsilon": args.restarts}),
        )
        res = epsilon_loop(loop_cfg, gcfg, scenario.params, target, scenario.initial_wild)
        if res.best is None:
            print("no feasible plan at the initial horizon", file=sys.stderr)
            return EXIT_FAILED, {"stats": res.stats, "feasible": False}, files
        plan, report, horizon, stats = res.best, res.report, res.horizon, res.stats
        summary = {"per_epsilon": [{"epsilon": e, "best_j": j} for e, j in res.per_epsilon]}
    else:
        horizon = ga_cell(name, scenario.frequency).horizon if args.horizon is None else args.horizon
        if horizon <= 0 or horizon % scenario.frequency:
            raise UsageError("--horizon must be a positive multiple of the release period")
        result = run_ga(gcfg, horizon, scenario.params, target, scenario.initial_wild)
        plan, report, stats = result.best, result.report, result.stats
        summary = {}
        files.append((f"ga_{name}_history.csv", fileio.write_history_csv, result.history))
    files.append((f"ga_{name}_plan.csv", fileio.write_schedule_csv, plan.schedule()))
    adaptive = evaluate_schedule(scenario.params, plan.schedule(), target, scenario.initial_wild,
                                 SimOptions(t_end=float(horizon)))
    summary.update(
        {
            "stats": stats,
            "horizon": horizon,
            "j_value": report.j_value,
            "num_releases": plan.num_releases,
            "feasible": report.feasible,
            "entry_time": adaptive.basin_entry_time,
            "end_margin": adaptive.end_margin,
            "verified_feasible": adaptive.end_margin > 0,
            "nfev": adaptive.nfev,
            "accepted_steps": adaptive.accepted_steps,
            "ga_config": asdict(gcfg),
        }
    )
    print(
        f"horizon={horizon}  J={report.j_value}  releases={plan.num_releases}  "
        f"feasible={report.feasible}"
    )
    return EXIT_OK if report.feasible else EXIT_FAILED, summary, files


def cmd_phase(args, settings, scenario):
    if args.grid < 2:
        raise UsageError("--grid must be at least 2")
    eq = equilibria(scenario.params)
    bound = absorbing_bound(scenario.params)
    n = args.grid
    xs = np.linspace(0.0, 1.1 * bound, n)
    ys = np.linspace(0.0, 1.1 * bound, n)
    name = scenario.params.name
    files = [(f"phase_{name}.csv", fileio.write_phase_csv, phase_field(scenario.params, xs, ys))]
    summary = {"grid": {"n": n, "max": 1.1 * bound}}
    if eq.eu is not None:
        curve = separatrix(scenario.params)
        files.append((f"separatrix_{name}.csv", fileio.write_separatrix_csv, curve))
        summary["separatrix_points"] = int(curve.shape[0])
    print(f"wrote {n * n} field samples")
    return EXIT_OK, summary, files


def _check_reproducible(args, settings: dict[str, dict]) -> None:
    """``--reproduce`` runs the preset scenarios: any scenario setting but
    the seed, and any ``[sim]`` key, exits 2."""
    rejected = [
        f"--{k.replace('_', '-')}/[scenario] {k}" for k in settings["scenario"] if k != "seed"
    ]
    rejected += [
        f"--{k.replace('_', '-')}"
        for k in ("params", "horizon", "epsilon0", "epsilon_step", "restarts")
        if getattr(args, k, None) is not None
    ]
    if settings["strain"] and not args.params:
        rejected.append("[strain]")
    if settings["sim"]:
        rejected.append("[sim]")
    if rejected:
        raise UsageError(f"--reproduce runs the preset scenarios; it takes no {', '.join(rejected)}")


def _print_rows(title: str, rows) -> None:
    print(title)
    for r in rows:
        dev = 100.0 * r.deviation
        print(f"  {r.label:42s} {r.value:12.2f}  reference {r.reference:10.2f}  dev {dev:+7.2f}%")


def _reproduce_table2(args, settings):
    status, files = EXIT_OK, []
    for name in PRESET_NAMES:
        scenario = build_scenario(preset(name))
        try:
            sol = solve(scenario.params, ocp_config(scenario, **settings["ocp"]))
        except (CapInfeasibleError, NonConvergenceError) as err:
            print(f"{name}: OCP failed: {err}", file=sys.stderr)
            status = EXIT_FAILED
            continue
        files.append((f"ocp_{name}_control.csv", fileio.write_control_csv, sol))
        rows, missing = table2(scenario, sol)
        for label in missing:
            print(f"{label}: does not enter the secure region", file=sys.stderr)
            status = EXIT_FAILED
        _print_rows(f"=== impulsive indicators: {name} ===", rows)
        daily = daily_impulses(sol.control)
        print(
            f"  note: the daily sizes are ceilings; the closest call is day {daily.ceiling_day} "
            f"(size {daily.sizes[daily.ceiling_day - 1]}), {daily.ceiling_margin:.4f} from an integer"
        )
    return status, files


def _reproduce_table4(args, settings):
    n_seeds = 5 if args.seeds is None else args.seeds
    if n_seeds < 1:
        raise UsageError("--seeds must be at least 1")
    first = settings["scenario"].get("seed", 0)
    seeds = range(first, first + n_seeds)
    status = EXIT_OK
    for name in PRESET_NAMES:
        for freq in (1, 7, 14):
            rows, best = table4(preset(name), freq, seeds, **settings["ga"])
            if best is None:
                print(f"{name} p={freq}: no feasible plan found", file=sys.stderr)
                status = EXIT_FAILED
                continue
            _print_rows(f"=== discrete search: {name} p={freq} ===", rows)
    return status, []


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wolbopt",
        description="Plan optimal release schedules of infected mosquitoes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
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
    p_ocp.add_argument("--terminal-x", type=float, default=None)
    p_ocp.add_argument("--reproduce", choices=["table2"], default=None)
    p_ocp.set_defaults(func=cmd_ocp)

    p_imp = sub.add_parser("impulsive", help="schedules from a solved control")
    common(p_imp)
    p_imp.add_argument("--control", help="control CSV from the ocp stage")
    p_imp.add_argument("--frequency", type=int, default=None, help="release period in days")
    p_imp.set_defaults(func=cmd_impulsive)

    p_ga = sub.add_parser("ga", help="genetic search for discrete plans")
    common(p_ga)
    p_ga.add_argument("--cap-l", type=float, default=None)
    p_ga.add_argument("--seed", type=int, default=None)
    p_ga.add_argument("--frequency", type=int, default=None)
    p_ga.add_argument("--horizon", type=int, default=None)
    p_ga.add_argument("--pop-n", type=int, default=None)
    p_ga.add_argument("--generations", dest="generations_g", type=int, default=None)
    p_ga.add_argument("--epsilon0", type=int, default=None, help="run the epsilon loop")
    p_ga.add_argument("--epsilon-step", type=int, default=None)
    p_ga.add_argument("--restarts", type=int, default=None,
                      help="GA runs per epsilon round "
                      f"(default {EpsilonLoopConfig.restarts_per_epsilon})")
    p_ga.add_argument("--seeds", type=int, default=None,
                      help="seed count for --reproduce (default 5)")
    p_ga.add_argument("--reproduce", choices=["table4"], default=None)
    p_ga.set_defaults(func=cmd_ga)

    p_ph = sub.add_parser("phase", help="phase-field and separatrix data")
    common(p_ph)
    p_ph.add_argument("--grid", type=int, default=50)
    p_ph.set_defaults(func=cmd_phase)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args, _resolve(args))
    # Bad input: a missing or unreadable file, a malformed config or CSV,
    # an out-of-range value.
    except (UsageError, UnknownStrainError, ValueError, OSError, configparser.Error) as err:
        print(str(err), file=sys.stderr)
        return EXIT_USAGE
    except (CapInfeasibleError, NonConvergenceError, IntegrationError) as err:
        print(str(err), file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
