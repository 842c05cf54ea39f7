import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from wolbopt import cli, fileio, sim
from wolbopt.cli import main
from wolbopt.model import State, equilibria
from wolbopt.ocp import NEWTON_TOL, STATS_KEYS
from wolbopt.params import preset
from wolbopt.scenarios import best_ga_plan
from wolbopt.sim import ImpulseSchedule, SimOptions, first_basin_entry, simulate_impulsive


def run(args, tmp_path):
    return main(args + ["--out", str(tmp_path)])


def test_equilibria_command(tmp_path, capsys):
    assert run(["equilibria", "--strain", "wmel"], tmp_path) == 0
    out = capsys.readouterr().out
    assert "Eu" in out and "4591" in out
    summary = json.loads((tmp_path / "equilibria_wmel.json").read_text())
    assert summary["equilibria"]["Eu"]["x"] == pytest.approx(4592, abs=1)
    assert "config_hash" in summary


def test_equilibria_unknown_strain(tmp_path, capsys):
    assert run(["equilibria", "--strain", "nope"], tmp_path) == 2
    assert "unknown strain" in capsys.readouterr().err


def test_equilibria_with_param_override(tmp_path):
    override = tmp_path / "strain.ini"
    override.write_text("eta = 0.95\n")
    code = run(
        ["equilibria", "--strain", "wmelpop", "--params", str(override)], tmp_path
    )
    assert code == 0
    summary = json.loads((tmp_path / "equilibria_wmelpop.json").read_text())
    assert summary["equilibria"]["Eu"]["x"] == pytest.approx(859.5, abs=1)


def test_overridden_preset_keeps_its_cap(tmp_path, capsys):
    # An overridden wmelpop is still wmelpop: its files and its cap (1000,
    # not wmel's 750) follow the preset, and no file renames it.
    override = tmp_path / "p.ini"
    override.write_text("delta_n = 1/30\n")
    argv = ["equilibria", "--strain", "wmelpop", "--params", str(override)]
    assert run(argv, tmp_path) == 0
    summary = json.loads((tmp_path / "equilibria_wmelpop.json").read_text())
    assert summary["scenario"]["cap_l"] == 1000.0
    assert summary["scenario"]["strain"]["name"] == "wmelpop"
    (tmp_path / "equilibria_wmelpop.json").unlink()
    override.write_text("name = mypop\ndelta_n = 1/30\n")
    assert run(argv, tmp_path) == 2
    assert "unknown [strain] option 'name'" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))


def test_flags_are_taken_only_as_spelled(tmp_path, capsys):
    # A prefix of a flag is not that flag, and the removed --epsilon-step
    # and --restarts are unknown: argparse exits 2 from ``main``.
    for argv in (
        ["ga", "--strain", "wmel", "--gen", "1"],
        ["simulate", "--strain", "wmel", "--t", "30"],
        ["ga", "--strain", "wmel", "--epsilon", "21"],
        ["ga", "--strain", "wmel", "--epsilon0", "21", "--epsilon-step", "7"],
        ["ga", "--strain", "wmel", "--epsilon0", "21", "--restarts", "0"],
        ["ga", "--reproduce", "table4", "--restarts", "7"],
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv, tmp_path)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv
    assert not tmp_path.exists() or not any(tmp_path.iterdir())


def test_params_file_takes_only_strain(tmp_path, capsys):
    override = tmp_path / "p.ini"
    for extra, named in (("[ocp]\ngrid_n = 5\n", "[ocp]"), ("[gaa]\nx = 1\n", "[gaa]")):
        override.write_text(f"[strain]\neta = 0.95\n{extra}")
        code = run(["equilibria", "--strain", "wmel", "--params", str(override)], tmp_path)
        assert code == 2
        assert named in capsys.readouterr().err
    assert not (tmp_path / "equilibria_wmel.json").exists()


def test_params_file_overrides(tmp_path, capsys):
    # Checked and parsed like [strain]: rationals, and an unknown key named
    # in the message.  The name is the preset's, so it is not a key.
    override = tmp_path / "p.ini"
    override.write_text("delta_n = 1/30\n")
    assert run(["equilibria", "--strain", "wmel", "--params", str(override)], tmp_path) == 0
    summary = json.loads((tmp_path / "equilibria_wmel.json").read_text())
    assert summary["scenario"]["strain"]["delta_n"] == 1 / 30
    for key in ("not_a_field", "name"):
        override.write_text(f"{key} = custom\n")
        assert run(["equilibria", "--strain", "wmel", "--params", str(override)], tmp_path) == 2
        assert f"unknown [strain] option {key!r}" in capsys.readouterr().err
    # A malformed line is named by the file's own number: the [strain]
    # header put before a headerless file is not counted.
    override.write_text("delta_n = 1/30\nsigma\n")
    assert run(["equilibria", "--strain", "wmel", "--params", str(override)], tmp_path) == 2
    assert "[line  2]: 'sigma" in capsys.readouterr().err


def test_non_finite_settings_exit_2(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a bad setting reached a solver")

    # A nan or inf setting made simulate run without end, and x/0 printed
    # a traceback: each must stop before any solver, naming its key.
    for name in ("integrate", "simulate_impulsive", "solve", "run_ga", "epsilon_loop"):
        monkeypatch.setattr(cli, name, never)
    settings = str(tmp_path / "settings.ini")
    wmel = ["--strain", "wmel"]
    for argv, text, named in (
        (["simulate", *wmel, "--t-end", "nan"], None, "[sim] t_end"),
        (["simulate", *wmel, "--t-end", "inf"], None, "[sim] t_end"),
        (["simulate", *wmel, "--config", settings], "[sim]\nt_end = nan\n", "[sim] t_end"),
        (["ga", *wmel, "--cap-l", "inf"], None, "[scenario] cap_l"),
        (["ocp", *wmel, "--cap-l", "inf"], None, "[scenario] cap_l"),
        (["ocp", *wmel, "--config", settings], "[scenario]\ninitial_wild = inf\n",
         "[scenario] initial_wild"),
        (["ocp", *wmel, "--weight-p", "nan"], None, "[ocp] weight_p"),
        (["equilibria", *wmel, "--initial-wild", "nan"], None, "[scenario] initial_wild"),
        (["equilibria", *wmel, "--params", settings], "sigma = 1/0\n", "[strain] sigma"),
        (["equilibria", *wmel, "--params", settings], "sigma = nan\n", "[strain] sigma"),
        (["ocp", *wmel, "--config", settings], "[ocp]\nweight_p = 1/0\n", "[ocp] weight_p"),
        # Every section's values are checked, whether or not the command reads them.
        (["equilibria", *wmel, "--config", settings], "[ocp]\ngrid_n = abc\n", "[ocp] grid_n"),
        (["phase", *wmel, "--config", settings], "[sim]\nt_end = nan\n", "[sim] t_end"),
        (["simulate", *wmel, "--config", settings], "[ga]\npop_n = 1/0\n", "[ga] pop_n"),
    ):
        if text is not None:
            (tmp_path / "settings.ini").write_text(text)
        assert run(argv, tmp_path) == 2, argv
        assert named in capsys.readouterr().err, argv
    assert not list(tmp_path.glob("*.json"))


def test_equilibria_reproducible_bytes(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    a_dir.mkdir()
    b_dir.mkdir()
    assert run(["equilibria", "--strain", "wmel"], a_dir) == 0
    assert run(["equilibria", "--strain", "wmel"], b_dir) == 0
    assert (a_dir / "equilibria_wmel.json").read_bytes() == (
        b_dir / "equilibria_wmel.json"
    ).read_bytes()


def test_simulate_schedule_roundtrip(tmp_path):
    sched = tmp_path / "sched.csv"
    sched.write_text("day,size\n1,3000\n2,1500\n")
    code = run(
        ["simulate", "--strain", "wmel", "--schedule", str(sched), "--t-end", "60"],
        tmp_path,
    )
    assert code == 0
    summary = json.loads((tmp_path / "simulate_wmel.json").read_text())
    assert summary["total_released"] == 4500
    assert summary["feasible"] is True
    rows = (tmp_path / "trajectory_wmel.csv").read_text().splitlines()
    assert rows[0] == "t,x,y,u_applied"
    times = [float(r.split(",")[0]) for r in rows[1:]]
    # Release instants appear twice (pre and post rows).
    assert times.count(1.0) == 2
    assert times.count(2.0) == 2


def test_simulate_malformed_schedule(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a malformed file reached the integrator")

    # Non-finite numbers are rejected with their line: none may reach the
    # integrator (a nan rate made it run without end).
    monkeypatch.setattr(cli, "simulate_impulsive", never)
    monkeypatch.setattr(cli, "integrate", never)
    bad = tmp_path / "bad.csv"
    for flag, text, line in (
        ("--schedule", "day,size\n1,notanumber\n", 2),
        ("--schedule", "day,size\n1,inf\n", 2),
        ("--schedule", "day,size\n1,nan\n", 2),
        ("--schedule", "day,size\nnan,5\n", 2),
        ("--control", "t,u_star\n0,100\nnan,50\n2,0\n", 3),
        ("--control", "t,u_star\n0,100\n1,nan\n2,0\n", 3),
        # A negative rate made the integrator report a negative excursion.
        ("--control", "t,u_star\n0,100\n1,-50\n2,0\n", 3),
    ):
        bad.write_text(text)
        assert run(["simulate", "--strain", "wmel", flag, str(bad)], tmp_path) == 2
        assert f"bad.csv:{line}:" in capsys.readouterr().err
    # Out-of-order times, a short row and too few samples.
    for flag, text, message in (
        ("--schedule", "day,size\n2,100\n1,100\n", "release times must be strictly increasing"),
        ("--schedule", "day,size\n1\n", "bad.csv:2: expected day,size"),
        ("--control", "t,u_star\n0,100\n", "needs at least two samples"),
        ("--control", "t,u_star\n0,100\n1,50\n1,0\n", "sample times must increase"),
    ):
        bad.write_text(text)
        assert run(["simulate", "--strain", "wmel", flag, str(bad)], tmp_path) == 2
        assert message in capsys.readouterr().err
    missing = str(tmp_path / "missing.csv")
    for flag in ("--schedule", "--control"):
        assert run(["simulate", "--strain", "wmel", flag, missing], tmp_path) == 2
        assert "missing.csv" in capsys.readouterr().err


def test_ocp_terminal_x_out_of_range_exits_2(tmp_path, capsys):
    assert run(["ocp", "--strain", "wmel", "--terminal-x", "8000"], tmp_path) == 2
    assert "must lie strictly between" in capsys.readouterr().err
    assert not (tmp_path / "ocp_wmel_summary.json").exists()


def test_ocp_without_coexistence_exits_2(tmp_path, capsys):
    """wmel with eta = 0.1 has no coexistence saddle, so no release target:
    the scenario's target says so, and nothing is written."""
    params = tmp_path / "strain.ini"
    params.write_text("eta = 0.1\n")
    out = tmp_path / "out"
    assert main(["ocp", "--strain", "wmel", "--params", str(params), "--out", str(out)]) == 2
    assert "no coexistence equilibria" in capsys.readouterr().err
    assert not out.exists()


def test_out_of_range_scenario_exits_2(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a bad scenario reached a solver")

    # A negative initial_wild ran the whole search before the adaptive
    # check rejected it, a negative cap_l exited with numpy's "high <= 0",
    # and a negative seed with numpy's "expected non-negative integer".
    for name in ("solve", "run_ga", "epsilon_loop", "integrate"):
        monkeypatch.setattr(cli, name, never)
    wmel = ["--strain", "wmel"]
    for argv, named in (
        (["ga", *wmel, "--initial-wild", "-5"], "initial_wild"),
        (["ga", *wmel, "--cap-l", "-3"], "cap_l"),
        # Below one individual a day every gene was 0: the search ran and exited 1.
        (["ga", *wmel, "--cap-l", "0.5", "--pop-n", "10", "--generations", "2"], "cap_l"),
        (["ocp", *wmel, "--cap-l", "0"], "cap_l"),
        (["ga", *wmel, "--frequency", "0"], "frequency"),
        (["ga", *wmel, "--seed", "-1"], "seed"),
        (["simulate", *wmel, "--initial-wild", "-1"], "initial_wild"),
    ):
        assert run(argv, tmp_path) == 2, argv
        assert named in capsys.readouterr().err, argv
    assert not list(tmp_path.iterdir())


def test_simulate_rejects_release_after_t_end(tmp_path, capsys):
    sched = tmp_path / "late.csv"
    sched.write_text("day,size\n1,3000\n70,1500\n")
    code = run(
        ["simulate", "--strain", "wmel", "--schedule", str(sched), "--t-end", "60"],
        tmp_path,
    )
    assert code == 2
    assert "1500 at t=70 is after t_end=60" in capsys.readouterr().err
    assert not (tmp_path / "simulate_wmel.json").exists()


def test_impulsive_requires_control(tmp_path, capsys):
    assert run(["impulsive", "--strain", "wmel"], tmp_path) == 2
    assert "--control" in capsys.readouterr().err
    missing = str(tmp_path / "missing.csv")
    assert run(["impulsive", "--strain", "wmel", "--control", missing], tmp_path) == 2
    assert "missing.csv" in capsys.readouterr().err


def test_phase_command(tmp_path, capsys):
    assert run(["phase", "--strain", "wmel", "--grid", "10"], tmp_path) == 0
    rows = (tmp_path / "phase_wmel.csv").read_text().splitlines()
    assert rows[0] == "x,y,dx,dy"
    assert len(rows) == 101
    path = tmp_path / "separatrix_wmel.csv"
    assert path.read_bytes().startswith(b"x,y\r\n")  # CRLF, like every CSV
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    summary = json.loads((tmp_path / "phase_wmel_summary.json").read_text())
    assert rows[0] == ["x", "y"]
    assert len(rows) == summary["separatrix_points"] + 1
    assert all(len(row) == 2 and min(map(float, row)) >= 0.0 for row in rows[1:])
    capsys.readouterr()
    for grid in ("0", "1"):
        assert run(["phase", "--strain", "wmel", "--grid", grid], tmp_path / grid) == 2
        assert "--grid" in capsys.readouterr().err
        assert not (tmp_path / grid).exists()


def test_phase_traces_separatrix_only_from_a_saddle(tmp_path, capsys, monkeypatch):
    # ``equilibria``'s label is the one saddle test: an E_u it calls
    # degenerate has no separatrix, in the library or in ``phase``.
    wmel = preset("wmel")
    eq = equilibria(wmel)
    degenerate = replace(eq, eu=replace(eq.eu, stability="degenerate"))
    for module in (sim, cli):
        monkeypatch.setattr(module, "equilibria", lambda params: degenerate)
    with pytest.raises(ValueError, match="no coexistence saddle"):
        sim.separatrix(wmel)
    assert run(["phase", "--strain", "wmel", "--grid", "10"], tmp_path) == 0
    assert (tmp_path / "phase_wmel.csv").exists()
    assert not (tmp_path / "separatrix_wmel.csv").exists()
    summary = json.loads((tmp_path / "phase_wmel_summary.json").read_text())
    assert "separatrix_points" not in summary


def test_ga_command_small(tmp_path, capsys, wmel_scenario):
    code = run(
        [
            "ga", "--strain", "wmel", "--frequency", "14", "--horizon", "14",
            "--pop-n", "30", "--generations", "10", "--seed", "3",
        ],
        tmp_path,
    )
    assert code == 0
    summary = json.loads((tmp_path / "ga_wmel_summary.json").read_text())
    assert summary["feasible"] is True
    assert summary["verified_feasible"] is True
    # Entry and end margin are the adaptive integrator's, on the plan CSV.
    sched = fileio.read_schedule_csv(tmp_path / "ga_wmel_plan.csv")
    s0 = State(wmel_scenario.initial_wild, 0.0)
    traj = simulate_impulsive(wmel_scenario.params, s0, sched, SimOptions(t_end=14.0))
    (xu, yu), (x, y) = wmel_scenario.target, traj.final_state
    assert summary["entry_time"] == first_basin_entry(traj, wmel_scenario.target)
    assert summary["end_margin"] == min(xu - x, y - yu)
    assert summary["verified_feasible"] is (summary["end_margin"] > 0)
    assert (summary["nfev"], summary["accepted_steps"]) == (traj.nfev, traj.accepted_steps)
    assert summary["stats"]["rows_screened"] == 30 * 11  # initial population + 10 generations
    assert 0 <= summary["stats"]["rows_rerun"] <= summary["stats"]["rows_screened"]
    plan_rows = (tmp_path / "ga_wmel_plan.csv").read_text().splitlines()
    assert plan_rows[0] == "day,size,rule"
    assert (tmp_path / "ga_wmel_history.csv").exists()
    capsys.readouterr()
    assert run(["ga", "--reproduce", "table4", "--seeds", "0"], tmp_path) == 2
    assert "--seeds" in capsys.readouterr().err


def test_ga_epsilon_loop_command(tmp_path):
    """--epsilon0 runs the epsilon loop: each round's best J is reported,
    down to the first horizon with no feasible plan, and the plan is the
    last feasible round's (seed 0, 8 plans, 2 generations)."""
    argv = ["ga", "--strain", "wmel", "--epsilon0", "16", "--pop-n", "8", "--generations", "2"]
    assert run(argv, tmp_path) == 0
    summary = json.loads((tmp_path / "ga_wmel_summary.json").read_text())
    assert summary["per_epsilon"] == [
        {"epsilon": 16, "best_j": 6222},
        {"epsilon": 15, "best_j": 6355},
        {"epsilon": 14, "best_j": None},
    ]
    assert summary["horizon"] == 15 and summary["j_value"] == 6355
    assert (tmp_path / "ga_wmel_plan.csv").exists()
    assert not (tmp_path / "ga_wmel_history.csv").exists()


def test_cli_epsilon_loop_is_table4_seed_search(tmp_path):
    """``ga --epsilon0`` runs one GA a round: its plan, horizon and J are
    those of Table 4's search for the same seed."""
    argv = ["ga", "--strain", "wmel", "--epsilon0", "21", "--seed", "2",
            "--pop-n", "20", "--generations", "3"]
    assert run(argv, tmp_path) == 0
    summary = json.loads((tmp_path / "ga_wmel_summary.json").read_text())
    plan, report, horizon, _ = best_ga_plan(preset("wmel"), 1, [2], pop_n=20, generations_g=3)
    assert (summary["horizon"], summary["j_value"]) == (horizon, report.j_value) == (15, 6241)
    written = fileio.read_schedule_csv(tmp_path / "ga_wmel_plan.csv")
    assert written.entries == plan.schedule().entries


def test_ga_without_a_feasible_plan_exits_1(tmp_path, capsys):
    # Five days are too few for any wmel plan of 8 rows.
    argv = ["ga", "--strain", "wmel", "--epsilon0", "5", "--pop-n", "8", "--generations", "1"]
    assert run(argv, tmp_path) == 1
    assert "no feasible plan at the initial horizon" in capsys.readouterr().err


def test_ga_unpublished_cell(tmp_path):
    """A period with no published Table-4 cell runs one fixed-horizon
    search over about four lifespans: 60 days at p = 3."""
    argv = ["ga", "--strain", "wmel", "--frequency", "3", "--pop-n", "8", "--generations", "2"]
    assert run(argv, tmp_path) == 0
    summary = json.loads((tmp_path / "ga_wmel_summary.json").read_text())
    assert (summary["horizon"], summary["num_releases"], summary["j_value"]) == (60, 20, 13080)
    assert summary["feasible"] is True


def test_ga_rejects_flags_it_would_ignore(tmp_path, capsys):
    base = ["ga", "--strain", "wmel", "--frequency", "14", "--horizon", "14"]
    loop = base[:-2] + ["--epsilon0", "28"]
    sched, ctrl = tmp_path / "s.csv", tmp_path / "c.csv"
    sched.write_text("day,size\n1,3000\n")
    ctrl.write_text("t,u_star\n0,100\n1,0\n")
    # simulate runs one input, so it rejects both rather than drop one.
    both = ["simulate", "--strain", "wmel", "--schedule", str(sched), "--control", str(ctrl)]
    for argv, flag in (
        (base + ["--seeds", "9"], "--seeds"),
        (base + ["--epsilon0", "28"], "--horizon"),
        # 0 is a value, not "unset": it must not fall back to the default.
        (base[:-1] + ["0"], "horizon must be positive, not 0"),
        (base[:-1] + ["5"], "horizon must be a multiple of block_p"),
        (loop[:-1] + ["0"], "epsilon_0 must be a positive multiple of block_p 14, not 0"),
        (both, "--schedule or --control"),
    ):
        assert run(argv, tmp_path) == 2
        assert flag in capsys.readouterr().err
    assert not (tmp_path / "ga_wmel_summary.json").exists()
    assert not (tmp_path / "simulate_wmel.json").exists()


def test_ocp_grid_too_coarse_exits_2(tmp_path, capsys):
    """At cap 120 the start pass reaches wmelpop's target at about 389 days,
    so grid 12 takes 32-day RK4 steps, and that pass overflows on the
    grid: a message naming grid_n, exit 2, and no files."""
    assert run(["ocp", "--strain", "wmelpop", "--cap-l", "120", "--grid-n", "12"], tmp_path) == 2
    assert "grid_n=12" in capsys.readouterr().err
    assert not tmp_path.exists() or not any(tmp_path.iterdir())


def test_ocp_solver_failure_exits_1(tmp_path, capsys):
    """A solve that raises exits 1 with its message and writes nothing: at 5
    a day the start never reaches wmel's target (CapInfeasibleError), and
    from wmelpop's start at P = 10 Newton's line search fails
    (NonConvergenceError)."""
    out = tmp_path / "out"
    for argv, message in (
        (["ocp", "--strain", "wmel", "--cap-l", "5"], "cap_l too small"),
        (["ocp", "--strain", "wmelpop", "--weight-p", "10"], "line search failed"),
    ):
        assert run(argv + ["--grid-n", "100"], out) == 1
        assert message in capsys.readouterr().err
    assert not out.exists()


def test_ocp_command_small_grid(tmp_path):
    code = run(
        ["ocp", "--strain", "wmel", "--grid-n", "600"],
        tmp_path,
    )
    assert code == 0
    summary = json.loads((tmp_path / "ocp_wmel_summary.json").read_text())
    assert summary["converged"] is True
    assert summary["t_star"] == pytest.approx(13.72, rel=0.05)
    stats = summary["stats"]
    assert set(stats) == set(STATS_KEYS)
    assert stats["residual_norm"] < NEWTON_TOL
    assert set(summary["residuals"]) == {"hamiltonian", "hamiltonian_spread"}
    history = summary["history"]
    assert len(history) == stats["iterations"] > 0
    assert set(history[0]) == {"T", "residual_norm", "halvings"}
    # One pass starts the solve; each iteration's trials cost one each.
    assert stats["passes"] == 1 + sum(row["halvings"] + 1 for row in history)
    assert history[-1]["T"] == summary["t_star"]
    assert history[-1]["residual_norm"] == stats["residual_norm"]
    again = tmp_path / "again"
    assert run(["ocp", "--strain", "wmel", "--grid-n", "600"], again) == 0
    assert (again / "ocp_wmel_summary.json").read_bytes() == (
        tmp_path / "ocp_wmel_summary.json"
    ).read_bytes()
    ctrl = fileio.read_control_csv(tmp_path / "ocp_wmel_control.csv")
    assert ctrl.t_star == pytest.approx(summary["t_star"], rel=1e-9)


def test_simulate_ocp_control(tmp_path):
    """The OCP's control CSV, run by the adaptive integrator, releases the
    OCP's total and enters the secure region just before t* (the OCP ends
    one individual inside the x threshold)."""
    assert run(["ocp", "--strain", "wmel", "--grid-n", "100"], tmp_path) == 0
    ocp = json.loads((tmp_path / "ocp_wmel_summary.json").read_text())
    control = str(tmp_path / "ocp_wmel_control.csv")
    assert run(["simulate", "--strain", "wmel", "--control", control], tmp_path) == 0
    summary = json.loads((tmp_path / "simulate_wmel.json").read_text())
    assert summary["total_released"] == pytest.approx(ocp["total_released"], rel=1e-9)
    assert summary["feasible"] is True
    assert summary["basin_entry_time"] == pytest.approx(13.7245, abs=1e-4)
    assert summary["basin_entry_time"] < ocp["t_star"] == pytest.approx(13.7312, abs=1e-4)
    # Over the whole control the total is its trapezoid ...
    ctrl = fileio.read_control_csv(tmp_path / "ocp_wmel_control.csv")
    times, values = ctrl.times, ctrl.values
    assert summary["total_released"] == pytest.approx(np.trapezoid(values, times), rel=1e-12)
    # ... and a run cut short at day 5 reports only what it released: the
    # control's samples up to 5, then its linear value there.
    assert run(["simulate", "--strain", "wmel", "--control", control, "--t-end", "5"],
               tmp_path) == 0
    summary = json.loads((tmp_path / "simulate_wmel.json").read_text())
    before = times < 5.0
    cut = np.trapezoid(np.r_[values[before], np.interp(5.0, times, values)],
                       np.r_[times[before], 5.0])
    assert summary["total_released"] == pytest.approx(cut, rel=1e-12)
    assert summary["total_released"] == pytest.approx(3475.215, abs=1e-3)


@pytest.mark.parametrize("t_end, released", [(400.0, 1000.0), (5.0, 500.0)])
def test_simulate_control_before_day_0_is_not_released(tmp_path, t_end, released):
    # The run starts at day 0, so the control's samples before it release
    # nothing, whether or not --t-end cuts the control short.
    control = tmp_path / "control.csv"
    control.write_text("t,u_star\n-10,100\n10,100\n")
    argv = ["simulate", "--strain", "wmel", "--control", str(control), "--t-end", str(t_end)]
    assert run(argv, tmp_path) == 0
    summary = json.loads((tmp_path / "simulate_wmel.json").read_text())
    assert summary["total_released"] == released


def test_simulate_without_releases(tmp_path):
    # Neither --schedule nor --control: the wild equilibrium stays put over
    # the default 400 days, sampled every quarter day.
    assert run(["simulate", "--strain", "wmel"], tmp_path) == 0
    summary = json.loads((tmp_path / "simulate_wmel.json").read_text())
    assert summary["total_released"] == 0.0
    assert summary["feasible"] is False and summary["basin_entry_time"] is None
    rows = (tmp_path / "trajectory_wmel.csv").read_text().splitlines()
    assert len(rows) == 1 + 1601


def test_impulsive_command_from_control(tmp_path, wmel_scenario):
    assert run(["ocp", "--strain", "wmel", "--grid-n", "600"], tmp_path) == 0
    code = run(
        [
            "impulsive", "--strain", "wmel", "--frequency", "7",
            "--control", str(tmp_path / "ocp_wmel_control.csv"),
        ],
        tmp_path,
    )
    assert code == 0
    summary = json.loads((tmp_path / "impulsive_wmel_summary.json").read_text())
    assert summary["schedules"]["daily"]["feasible"] is True
    assert summary["schedules"]["m7"]["feasible"] is True
    sched = fileio.read_schedule_csv(tmp_path / "impulsive_wmel_m7.csv")
    assert sched.rule_tag == "aggregate"
    assert [t for t, _ in sched.entries] == [1.0, 8.0]
    # Each cell reports its simulation's work: one run per stretch, each
    # 2 evaluations to start and 6 per attempted step.
    traj = simulate_impulsive(wmel_scenario.params, State(wmel_scenario.initial_wild, 0.0), sched)
    cell = summary["schedules"]["m7"]
    assert (cell["nfev"], cell["accepted_steps"]) == (traj.nfev, traj.accepted_steps)
    assert cell["nfev"] >= 2 * 3 + 6 * cell["accepted_steps"]


def test_impulsive_reads_sim_settings(tmp_path):
    # The wmel grid-100 daily schedule enters the secure region at 14.238,
    # the m=7 one at 13.137: a simulation that ends at day 14 sees only the
    # second enter.
    assert run(["ocp", "--strain", "wmel", "--grid-n", "100"], tmp_path) == 0
    cfg = tmp_path / "sim.ini"
    cfg.write_text("[sim]\nt_end = 14\n")
    imp = ["impulsive", "--strain", "wmel", "--frequency", "7",
           "--control", str(tmp_path / "ocp_wmel_control.csv")]
    assert run(imp, tmp_path) == 0
    summary = json.loads((tmp_path / "impulsive_wmel_summary.json").read_text())
    assert summary["schedules"]["daily"]["basin_entry_time"] == pytest.approx(14.238, abs=1e-3)
    assert run(imp + ["--config", str(cfg)], tmp_path) == 1
    summary = json.loads((tmp_path / "impulsive_wmel_summary.json").read_text())
    assert summary["schedules"]["daily"]["basin_entry_time"] is None
    assert summary["schedules"]["m7"]["basin_entry_time"] < 14.0


def test_impulsive_without_an_entering_rule_exits_1(tmp_path, capsys):
    # An all-zero control gives empty schedules that never enter.
    control = tmp_path / "c.csv"
    control.write_text("t,u_star\n0,0\n1,0\n2,0\n")
    argv = ["impulsive", "--strain", "wmel", "--frequency", "7", "--control", str(control)]
    assert run(argv, tmp_path) == 1
    assert "m7: no release rule enters" in capsys.readouterr().err


def test_impulsive_rejects_control_above_cap(tmp_path, capsys):
    # The release sizes come from the control, so a control that peaks
    # above the scenario's cap would give schedules that break it.
    control = tmp_path / "c.csv"
    control.write_text("t,u_star,lambda1,lambda2\n0,750,0,0\n1,750,0,0\n2,0,0,0\n")
    cfg = tmp_path / "c.ini"
    cfg.write_text("[scenario]\ncap_l = 100\n")
    code = run(
        ["impulsive", "--strain", "wmel", "--control", str(control), "--config", str(cfg)],
        tmp_path,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "750" in err and "100" in err
    assert not list(tmp_path.glob("impulsive_*"))


def test_trajectory_csv_jump_rows(tmp_path, wmel):
    sched = ImpulseSchedule(entries=((2.0, 500),))
    traj = simulate_impulsive(wmel, State(6000.0, 0.0), sched, SimOptions(t_end=5.0))
    path = tmp_path / "traj.csv"
    fileio.write_trajectory_csv(path, traj)
    rows = [r.split(",") for r in path.read_text().splitlines()[1:]]
    at_two = [r for r in rows if float(r[0]) == 2.0]
    assert len(at_two) == 2
    pre, post = at_two
    assert float(post[2]) - float(pre[2]) == pytest.approx(500.0, abs=1e-9)
    assert float(post[3]) == pytest.approx(500.0)


def test_schedule_csv_roundtrip(tmp_path):
    sched = ImpulseSchedule(entries=((1.0, 100), (8.0, 40)), rule_tag="excess")
    path = tmp_path / "s.csv"
    fileio.write_schedule_csv(path, sched)
    again = fileio.read_schedule_csv(path)
    assert again.entries == sched.entries
    assert again.rule_tag == "excess"


def test_schedule_rejects_negative_and_fractional(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("day,size\n1,-5\n")
    with pytest.raises(fileio.ScheduleParseError):
        fileio.read_schedule_csv(path)
    path.write_text("day,size\n1,2.5\n")
    with pytest.raises(fileio.ScheduleParseError):
        fileio.read_schedule_csv(path)


def test_config_file_scenario(tmp_path, capsys):
    cfg = tmp_path / "scenario.ini"
    cfg.write_text("[scenario]\nstrain = wmel\nseed = 11\n\n[strain]\nomega = 0.002\n")
    code = main(["equilibria", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "equilibria_wmel.json").read_text())
    assert summary["scenario"]["strain"]["omega"] == 0.002
    assert summary["seed"] == 11
    # A negative seed was accepted and written into the summary.
    cfg.write_text("[scenario]\nstrain = wmel\nseed = -1\n")
    out = tmp_path / "negative"
    assert main(["equilibria", "--config", str(cfg), "--out", str(out)]) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_stage_sections_with_flag_precedence(tmp_path):
    cfg = tmp_path / "scenario.ini"
    cfg.write_text(
        "[scenario]\nstrain = wmel\nfrequency = 14\n\n"
        "[ga]\npop_n = 10\ngenerations_g = 4\n"
    )
    code = main(
        [
            "ga", "--config", str(cfg), "--horizon", "14", "--seed", "3",
            "--pop-n", "25", "--out", str(tmp_path),
        ]
    )
    assert code in (0, 1)
    summary = json.loads((tmp_path / "ga_wmel_summary.json").read_text())
    assert summary["ga_config"]["pop_n"] == 25  # flag beats file
    assert summary["ga_config"]["generations_g"] == 4  # file beats default
    cfg.write_text("[scenario]\nstrain = wmel\n\n[ocp]\ngrid_n = 40\n")
    code = main(["ocp", "--config", str(cfg), "--grid-n", "60", "--out", str(tmp_path)])
    assert code in (0, 1)
    rows = (tmp_path / "ocp_wmel_control.csv").read_text().splitlines()
    assert len(rows) == 1 + 61  # header, then grid_n + 1 nodes of the flag's grid


def test_config_file_unknown_stage_key(tmp_path, capsys):
    # n_workers is a removed [ga] knob, [ocp] cap_l a removed duplicate of
    # [scenario] cap_l, [ocp] t_init and sweep_relaxation removed solver
    # settings, and [sim] max_step, dense_output_stride, rel_tol and abs_tol
    # removed integrator settings: old configs must fail loudly, as must a typo, and
    # in any section or section name, whether or not the command reads it.
    cfg = tmp_path / "scenario.ini"
    for command, section, key in (
        ("ocp", "ocp", "not_a_knob"),
        ("ga", "ga", "n_workers"),
        ("ocp", "ocp", "cap_l"),
        ("ocp", "ocp", "t_init"),
        ("ocp", "ocp", "sweep_relaxation"),
        ("equilibria", "scenario", "frequncy"),
        ("equilibria", "gaa", "pop_n"),
        ("equilibria", "sim", "t_edn"),
        ("simulate", "sim", "max_step"),
        ("equilibria", "sim", "dense_output_stride"),
        ("simulate", "sim", "rel_tol"),
        ("ocp", "sim", "abs_tol"),
        ("phase", "ga", "n_workers"),
    ):
        header = "" if section == "scenario" else f"\n[{section}]\n"
        cfg.write_text(f"[scenario]\nstrain = wmel\n{header}{key} = 1\n")
        code = main([command, "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"[{section}]" in err and (key in err or section == "gaa")
    # Removed flags are usage errors too: --t-init, impulsive's --cap-l (the
    # release sizes come from the control) and --seed but for ga (only the
    # GA draws random numbers).
    for argv in (
        ["ocp", "--strain", "wmel", "--t-init", "30"],
        ["impulsive", "--strain", "wmel", "--control", "c.csv", "--cap-l", "100"],
        ["ocp", "--reproduce", "table2", "--seed", "3"],
        ["equilibria", "--strain", "wmel", "--seed", "3"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--out", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    # A config file without any section header is malformed, not a crash.
    cfg.write_text("strain = wmel\n")
    assert main(["equilibria", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "section header" in capsys.readouterr().err


def test_ocp_reproduce_table2_settings(tmp_path, capsys):
    repro = ["ocp", "--reproduce", "table2"]
    assert run(repro + ["--grid-n", "40"], tmp_path) == 0
    by_flag = capsys.readouterr().out
    assert by_flag.count("===") == 4
    cfg = tmp_path / "repro.ini"
    cfg.write_text("[ocp]\ngrid_n = 40\n")
    assert run(repro + ["--config", str(cfg)], tmp_path) == 0
    assert capsys.readouterr().out == by_flag
    cfg.write_text("[ocp]\ngrid_n = 40\ncap_l = 20\n")
    assert run(repro + ["--config", str(cfg)], tmp_path) == 2
    assert "cap_l" in capsys.readouterr().err
    # The presets' scenarios are what is reproduced: no scenario setting applies.
    cfg.write_text("[strain]\neta = 0.95\n")
    for flag in (["--strain", "wmel"], ["--cap-l", "500"], ["--params", str(cfg)]):
        assert run(repro + ["--grid-n", "40", *flag], tmp_path) == 2
        assert flag[0] in capsys.readouterr().err
    assert run(repro + ["--config", str(cfg)], tmp_path) == 2
    assert "[strain]" in capsys.readouterr().err
    cfg.write_text("[sim]\nt_end = 100\n")
    assert run(repro + ["--config", str(cfg)], tmp_path) == 2
    assert "[sim]" in capsys.readouterr().err
    # wmelpop's saddle lies below x = 5000: no schedule enters, the daily one included.
    assert run(repro + ["--grid-n", "40", "--terminal-x", "5000"], tmp_path) == 1
    err = capsys.readouterr().err
    assert all(f"wmelpop {cell}:" in err for cell in ("daily", "m=7", "m=14"))


def test_ocp_reproduce_table2_reports_a_failed_solve(tmp_path, capsys):
    # At P = 10 wmelpop's solve raises NonConvergenceError: the run names
    # the strain on stderr, goes on with the other and exits 1.
    argv = ["ocp", "--reproduce", "table2", "--grid-n", "40", "--weight-p", "10"]
    assert run(argv, tmp_path) == 1
    out, err = capsys.readouterr()
    assert "wmelpop: OCP failed" in err
    assert "=== impulsive indicators: wmel ===" in out and "wmelpop ===" not in out
    assert [path.name for path in tmp_path.iterdir()] == ["ocp_wmel_control.csv"]


def test_ga_reproduce_table4_settings(tmp_path, capsys):
    cfg = tmp_path / "repro.ini"
    cfg.write_text("[ga]\ngenerations_g = 1\npop_n = 8\n")
    repro = ["ga", "--reproduce", "table4", "--seeds", "1", "--config", str(cfg)]
    assert run(repro, tmp_path) == 0
    seed0 = capsys.readouterr().out
    assert seed0.count("=== discrete search") == 6
    assert run(repro + ["--seed", "3"], tmp_path) == 0
    by_flag = capsys.readouterr().out
    assert by_flag != seed0
    cfg.write_text("[scenario]\nseed = 3\n[ga]\ngenerations_g = 1\npop_n = 8\n")
    assert run(repro, tmp_path) == 0
    assert capsys.readouterr().out == by_flag
    for flag in (["--horizon", "14"], ["--epsilon0", "28"], ["--frequency", "7"]):
        assert run(repro + flag, tmp_path) == 2
        assert flag[0] in capsys.readouterr().err
    assert run(repro + ["--seed", "-1"], tmp_path) == 2
    assert "seed must be nonnegative" in capsys.readouterr().err


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("WOLBOPT_OUTDIR", str(tmp_path / "envout"))
    assert main(["equilibria", "--strain", "wmel"]) == 0
    assert (tmp_path / "envout" / "equilibria_wmel.json").exists()
