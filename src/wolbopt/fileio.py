"""CSV and JSON artifacts shared by the library and the CLI.

Formats:
  trajectory CSV   t,x,y,u_applied      (the ``Trajectory`` rows: a release
                                         instant appears twice, the
                                         pre-release row, then the post-
                                         release row carrying its size)
  schedule CSV     day,size[,rule]
  control CSV      t,u_star,lambda1,lambda2
  phase-field CSV  x,y,dx,dy
  separatrix CSV   x,y
  summaries        JSON with sorted keys; every summary embeds the
                   scenario seed and a hash of the full configuration so
                   reruns are byte-comparable.

A schedule or control CSV read back must hold finite numbers in its first
two columns: inf or nan is rejected with its line number, and so is a
negative size or release rate.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from .ocp import ContinuousControl, OCPSolution
from .sim import ImpulseSchedule, Trajectory


class ScheduleParseError(ValueError):
    """Malformed schedule file; message carries the offending line number."""


def _write_rows(path: Path, header: list[str], rows: Iterable[list]) -> None:
    """One CSV file: the header, then the rows (csv's CRLF line endings)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_floats(path: Path, header: list[str], rows: Iterable) -> None:
    """A CSV of float rows, every value written ``.10g``."""
    _write_rows(path, header, ([f"{v:.10g}" for v in row] for row in rows))


def write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    rows = np.column_stack((traj.times, traj.states, traj.u_applied))
    _write_floats(path, ["t", "x", "y", "u_applied"], rows)


def write_schedule_csv(path: Path, sched: ImpulseSchedule) -> None:
    _write_rows(
        path,
        ["day", "size", "rule"],
        ([f"{t:.10g}", size, sched.rule_tag] for t, size in sched.entries),
    )


def _read_rows(path: Path, columns: str) -> list[tuple[int, list[str], float, float]]:
    """(line number, row, first, second) for each data row of a CSV whose
    first two ``columns`` are finite numbers; blank rows and a header row
    (its first cell names the first column) are skipped."""
    header = columns.split(",")[0]
    out = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (lineno == 1 and row[0].strip().lower() == header):
                continue
            if len(row) < 2:
                raise ScheduleParseError(f"{path}:{lineno}: expected {columns}")
            try:
                first, second = float(row[0]), float(row[1])
                if not (math.isfinite(first) and math.isfinite(second)):
                    raise ValueError(f"expected finite {columns}")
            except ValueError as err:
                raise ScheduleParseError(f"{path}:{lineno}: {err}") from None
            out.append((lineno, row, first, second))
    return out


def read_schedule_csv(path: Path) -> ImpulseSchedule:
    """Parse ``day,size[,rule]`` rows; raises with the bad line number."""
    entries: list[tuple[float, int]] = []
    rule = "manual"
    for lineno, row, day, size_f in _read_rows(path, "day,size"):
        if size_f < 0 or size_f != int(size_f):
            raise ScheduleParseError(f"{path}:{lineno}: size must be a nonnegative integer")
        if len(row) >= 3 and row[2].strip():
            rule = row[2].strip()
        entries.append((day, int(size_f)))
    try:
        return ImpulseSchedule(entries=tuple(entries), rule_tag=rule)
    except ValueError as err:
        raise ScheduleParseError(f"{path}: {err}") from None


def write_control_csv(path: Path, solution: OCPSolution) -> None:
    c = solution.control
    _write_rows(
        path,
        ["t", "u_star", "lambda1", "lambda2"],
        (
            [f"{v:.12g}" for v in (c.times[i], c.values[i], *solution.adjoints[i])]
            for i in range(c.times.shape[0])
        ),
    )


def read_control_csv(path: Path) -> ContinuousControl:
    """Load a control grid; the cap is inferred as the max sampled rate."""
    rows = _read_rows(path, "t,u_star,...")
    for lineno, _, _, u in rows:
        if u < 0:
            raise ScheduleParseError(f"{path}:{lineno}: release rate must be nonnegative")
    if len(rows) < 2:
        raise ScheduleParseError(f"{path}: control grid needs at least two samples")
    t = np.array([t for _, _, t, _ in rows])
    v = np.array([u for _, _, _, u in rows])
    if np.any(np.diff(t) <= 0):
        raise ScheduleParseError(f"{path}: sample times must increase")
    return ContinuousControl(times=t, values=v, t_star=float(t[-1]), cap_l=float(v.max()))


def write_phase_csv(path: Path, rows: np.ndarray) -> None:
    _write_floats(path, ["x", "y", "dx", "dy"], rows)


def write_separatrix_csv(path: Path, curve: np.ndarray) -> None:
    _write_floats(path, ["x", "y"], curve)


def write_history_csv(path: Path, history) -> None:
    _write_rows(
        path,
        ["generation", "best_fitness", "best_J", "feasible_count"],
        (
            [rec.generation, f"{rec.best_fitness:.12g}", rec.best_j, rec.feasible_count]
            for rec in history
        ),
    )


def config_hash(config: dict[str, Any]) -> str:
    """Stable short hash of a configuration mapping."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _jsonable(value: Any) -> Any:
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def write_summary(path: Path, summary: dict[str, Any]) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")
