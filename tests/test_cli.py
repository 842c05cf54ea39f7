import csv
import json

import pytest

from wolbopt import cli, fileio
from wolbopt.cli import main
from wolbopt.model import State
from wolbopt.ocp import STATS_KEYS
from wolbopt.sim import ImpulseSchedule, SimOptions, simulate_impulsive


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


def test_params_file_takes_only_strain(tmp_path, capsys):
    override = tmp_path / "p.ini"
    for extra, named in (("[ocp]\ngrid_n = 5\n", "[ocp]"), ("[gaa]\nx = 1\n", "[gaa]")):
        override.write_text(f"[strain]\neta = 0.95\n{extra}")
        code = run(["equilibria", "--strain", "wmel", "--params", str(override)], tmp_path)
        assert code == 2
        assert named in capsys.readouterr().err
    assert not (tmp_path / "equilibria_wmel.json").exists()


def test_params_file_overrides(tmp_path, capsys):
    # Checked and parsed like [strain]: rationals, a new name, and an
    # unknown key named in the message.
    override = tmp_path / "p.ini"
    override.write_text("name = custom\ndelta_n = 1/30\n")
    assert run(["equilibria", "--strain", "wmel", "--params", str(override)], tmp_path) == 0
    summary = json.loads((tmp_path / "equilibria_custom.json").read_text())
    assert summary["scenario"]["strain"]["delta_n"] == 1 / 30
    override.write_text("not_a_field = 1\n")
    assert run(["equilibria", "--strain", "wmel", "--params", str(override)], tmp_path) == 2
    assert "unknown [strain] option 'not_a_field'" in capsys.readouterr().err
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
        (["simulate", *wmel, "--config", settings], "[sim]\nrel_tol = nan\n", "[sim] rel_tol"),
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
    missing = str(tmp_path / "missing.csv")
    for flag in ("--schedule", "--control"):
        assert run(["simulate", "--strain", "wmel", flag, missing], tmp_path) == 2
        assert "missing.csv" in capsys.readouterr().err


def test_out_of_range_scenario_exits_2(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a bad scenario reached a solver")

    # A negative initial_wild ran the whole search before verify_plan
    # rejected it, and a negative cap_l exited with numpy's "high <= 0".
    for name in ("solve", "run_ga", "epsilon_loop", "integrate"):
        monkeypatch.setattr(cli, name, never)
    wmel = ["--strain", "wmel"]
    for argv, named in (
        (["ga", *wmel, "--initial-wild", "-5"], "initial_wild"),
        (["ga", *wmel, "--cap-l", "-3"], "cap_l"),
        (["ocp", *wmel, "--cap-l", "0"], "cap_l"),
        (["ga", *wmel, "--frequency", "0"], "frequency"),
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


def test_ga_command_small(tmp_path, capsys):
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
    assert summary["stats"]["rows_screened"] == 30 * 11  # initial population + 10 generations
    assert 0 <= summary["stats"]["rows_rerun"] <= summary["stats"]["rows_screened"]
    plan_rows = (tmp_path / "ga_wmel_plan.csv").read_text().splitlines()
    assert plan_rows[0] == "day,size,rule"
    assert (tmp_path / "ga_wmel_history.csv").exists()
    capsys.readouterr()
    assert run(["ga", "--reproduce", "table4", "--seeds", "0"], tmp_path) == 2
    assert "--seeds" in capsys.readouterr().err


def test_ga_rejects_flags_it_would_ignore(tmp_path, capsys):
    base = ["ga", "--strain", "wmel", "--frequency", "14", "--horizon", "14"]
    # 0 is a value, not "unset": it must not fall back to the default.
    loop = base[:-2] + ["--epsilon0", "28"]
    sched, ctrl = tmp_path / "s.csv", tmp_path / "c.csv"
    sched.write_text("day,size\n1,3000\n")
    ctrl.write_text("t,u_star\n0,100\n1,0\n")
    # simulate runs one input, so it rejects both rather than drop one.
    both = ["simulate", "--strain", "wmel", "--schedule", str(sched), "--control", str(ctrl)]
    for argv, flag in (
        (base + ["--seeds", "9"], "--seeds"),
        (["ga", "--reproduce", "table4", "--restarts", "7"], "--restarts"),
        (base + ["--restarts", "2"], "--restarts"),
        (base + ["--epsilon-step", "7"], "--epsilon-step"),
        (base + ["--epsilon0", "28"], "--horizon"),
        (base[:-1] + ["0"], "--horizon"),
        (loop + ["--epsilon-step", "0"], "step"),
        (loop + ["--restarts", "0"], "restarts"),
        (both, "--schedule or --control"),
    ):
        assert run(argv, tmp_path) == 2
        assert flag in capsys.readouterr().err
    assert not (tmp_path / "ga_wmel_summary.json").exists()
    assert not (tmp_path / "simulate_wmel.json").exists()


def test_ocp_grid_too_coarse_exits_2(tmp_path, capsys):
    """At grid 12 the full-capacity pass that starts the horizon bracket
    takes 33-day RK4 steps and overflows: a message naming grid_n, exit 2,
    and no files."""
    assert run(["ocp", "--strain", "wmelpop", "--grid-n", "12"], tmp_path) == 2
    assert "grid_n=12" in capsys.readouterr().err
    assert not tmp_path.exists() or not any(tmp_path.iterdir())


def test_ocp_command_small_grid(tmp_path):
    code = run(
        ["ocp", "--strain", "wmel", "--grid-n", "600"],
        tmp_path,
    )
    assert code == 0
    summary = json.loads((tmp_path / "ocp_wmel_summary.json").read_text())
    assert summary["converged"] is True
    assert summary["t_star"] == pytest.approx(13.72, rel=0.05)
    assert set(summary["stats"]) == set(STATS_KEYS)
    assert summary["stats"]["forward_passes"] > summary["stats"]["sweeps"] > 0
    history = summary["history"]
    assert len(history) == summary["stats"]["outer_evaluations"]
    assert set(history[0]) == {"T", "h_terminal", "sweeps", "forward_passes", "settled"}
    assert {row["settled"] for row in history} <= {"sign", "normal", "tight", None}
    assert history[-1]["settled"] == "tight"
    # Every sweep is spent inside some H(T) evaluation, and so is every
    # forward pass but one: the full-capacity pass that starts the bracket.
    assert sum(row["sweeps"] for row in history) == summary["stats"]["sweeps"]
    assert sum(row["forward_passes"] for row in history) == summary["stats"]["forward_passes"] - 1
    assert summary["t_star"] in [row["T"] for row in history]
    again = tmp_path / "again"
    assert run(["ocp", "--strain", "wmel", "--grid-n", "600"], again) == 0
    assert (again / "ocp_wmel_summary.json").read_bytes() == (
        tmp_path / "ocp_wmel_summary.json"
    ).read_bytes()
    ctrl = fileio.read_control_csv(tmp_path / "ocp_wmel_control.csv")
    assert ctrl.t_star == pytest.approx(summary["t_star"], rel=1e-9)


def test_impulsive_command_from_control(tmp_path):
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


def test_config_file_scenario(tmp_path):
    cfg = tmp_path / "scenario.ini"
    cfg.write_text("[scenario]\nstrain = wmel\nseed = 11\n\n[strain]\nomega = 0.002\n")
    code = main(["equilibria", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "equilibria_wmel.json").read_text())
    assert summary["scenario"]["strain"]["omega"] == 0.002
    assert summary["seed"] == 11


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
    # settings, and [sim] max_step and dense_output_stride removed
    # integrator settings: old configs must fail loudly, as must a typo, and
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
    # wmelpop's saddle lies below x = 5000: no schedule enters, the daily one included.
    assert run(repro + ["--grid-n", "40", "--terminal-x", "5000"], tmp_path) == 1
    err = capsys.readouterr().err
    assert all(f"wmelpop {cell}:" in err for cell in ("daily", "m=7", "m=14"))


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


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("WOLBOPT_OUTDIR", str(tmp_path / "envout"))
    assert main(["equilibria", "--strain", "wmel"]) == 0
    assert (tmp_path / "envout" / "equilibria_wmel.json").exists()
