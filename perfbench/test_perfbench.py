"""The benchmark's own tests.

    python3 -m pytest perfbench                      # all, about 5 minutes
    python3 -m pytest perfbench -k "not selfcheck"   # smoke only, under a minute

The smoke tests run every workload at the ``smoke`` size; the counter
self-check solves the published problems and compares the pass counts with
the baseline measured for the ROADMAP.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECL = json.loads((ROOT / "BENCHMARK.json").read_text())
# verify is runnable and tested, but not declared (see README.md).
WORKLOADS = ["continuous", "discrete", "verify"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# ROADMAP baseline, published problem at grid_n = 2000.
BASELINE_PASSES = {
    "ocp.forward_passes.wmel": 2261,
    "ocp.forward_passes.wmelpop": 4320,
    "ocp.backward_passes.wmelpop": 185,
}


def bench(*args: str, cwd: Path = ROOT, timeout: float = 600) -> tuple[int, list[str]]:
    out = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )
    return out.returncode, out.stdout.strip().splitlines()


def result(*args: str) -> tuple[dict, list[str]]:
    code, lines = bench(*args)
    assert code == 0, "\n".join(lines)
    return json.loads(lines[-1]), lines


def test_benchmark_json_shape():
    assert set(DECL) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    declared = [w["name"] for w in DECL["workloads"]]
    assert 2 <= len(declared) <= 8 and set(declared) <= set(WORKLOADS)
    names = [m["name"] for m in DECL["end_to_end"] + DECL["per_layer"]] + declared
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in DECL["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in DECL["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in DECL["end_to_end"] + DECL["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in DECL["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in DECL["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric(workload, trace):
    res, lines = result("--workload", workload, "--seed", "3", "--seconds", "1",
                        "--trace", str(trace), "--size", "smoke")
    declared = DECL["per_layer" if trace else "end_to_end"]
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines)
    assert any(line.startswith("# machine ") for line in lines)
    assert any(line.startswith("fail_frac = ") for line in lines)
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_same_seed_same_outputs():
    a, _ = result("--workload", "discrete", "--seed", "5", "--seconds", "0.1",
                  "--size", "smoke")
    b, _ = result("--workload", "discrete", "--seed", "5", "--seconds", "0.1",
                  "--size", "smoke")
    for name in ("released_total", "horizon_days", "verdict_agree_frac"):
        assert a["metrics"][name] == b["metrics"][name]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                        "--trace", "0", cwd=tmp_path, timeout=180)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_counter_selfcheck():
    """Seed 0 at the published size reproduces the ROADMAP pass counts, and
    two traced runs of one seed give identical counts."""
    paper, _ = result("--workload", "continuous", "--seed", "0", "--seconds", "1",
                      "--trace", "1", "--size", "paper")
    for name, expected in BASELINE_PASSES.items():
        assert paper["metrics"][name]["value"] == expected, name
    counts = []
    for _ in range(2):
        res, _ = result("--workload", "continuous", "--seed", "0", "--seconds", "1",
                        "--trace", "1")
        counts.append({n: v["value"] for n, v in res["metrics"].items()
                       if v["unit"] in ("count", "ratio")})
    assert counts[0] == counts[1]
