"""Self-tests of the benchmark, in its short mode.

Run from the repository root: python3 -m pytest -q bench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import pivotgrasp as pg  # noqa: E402

import checker  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]

# Per-layer names the benchmark promises, one group per package module.
LAYER_NAMES = {
    "geometry.validate_config.us", "geometry.validate_config.calls_per_cell",
    "wrenches.contact_wrench_basis.us", "wrenches.contact_wrench_basis.calls_per_cell",
    "lp.solve_force_balance.us", "lp.solve_form_closure.us", "lp.solves_per_cell", "lp.self_share",
    "stability.is_stable.us", "stability.is_stable.self_us", "stability.region_sweep.cells_per_s",
    "stability.beta_upper_bound.ms", "stability.beta_upper_bound.solves",
    "stability.grasp_plane_sweep.cells_per_s", "stability.region_map_csv.ms",
    "stability.region_sweep.pool_speedup",
    "maneuver.simulate_grasp_trajectory.ms", "maneuver.plan_pivot.us", "maneuver.align_phase.us",
    "stats.batch_ci.us_per_record",
    "cli.main.self_ms", "cli.bytes_written",
    "trace.overhead_pct",
}


def _bushing():
    obj, gripper = pg.load_catalog()["bushing"]
    return obj, pg.hole_contact_depth(obj, pg.hole_contact_offset(gripper, obj))


def _flat_row_problems(mode):
    obj, delta = _bushing()
    problems = []
    for l_a in (0.5, 0.7, 0.9):
        for alpha in pg.default_alpha_grid(2.0):
            cfg = pg.config_from_delta(obj, l_a, alpha, 0.0, delta)
            problems.append(checker.cell_problem(pg, obj, cfg, pg.FRICTIONLESS, mode))
    return problems


@pytest.mark.parametrize("mode", ["force_balance", "form_closure"])
def test_checker_frictionless_flat_row_infeasible(mode):
    problems = _flat_row_problems(mode)
    gens = np.array([g for g, _ in problems])
    targets = np.array([t for _, t in problems])
    assert np.all(checker.verdicts(problems) == checker.INFEASIBLE)
    assert np.all(checker._verdicts_enumeration(gens, targets) == checker.INFEASIBLE)


def test_checker_engines_agree_with_each_other_and_the_program():
    obj, delta = _bushing()
    rng = np.random.default_rng(7)
    sets = [pg.FRICTIONLESS, pg.FrictionSet(0.0, 0.0, 0.4), pg.FrictionSet(0.2, 0.4, 0.4)]
    problems, expected = [], []
    for _ in range(300):
        cfg = pg.config_from_delta(obj, 0.7, math.radians(rng.integers(1, 90)),
                                   math.radians(rng.integers(0, 91)), delta)
        friction = sets[rng.integers(3)]
        mode = ("force_balance", "form_closure")[rng.integers(2)]
        problems.append(checker.cell_problem(pg, obj, cfg, friction, mode))
        expected.append(pg.is_stable(obj, cfg, friction, mode))
    highs = checker.verdicts(problems)
    enum = checker._verdicts_enumeration(np.array([g for g, _ in problems]), np.array([t for _, t in problems]))
    assert checker.compare(expected, highs)[1] == 0
    assert checker.compare(expected, enum)[1] == 0
    decided = (highs != checker.UNDECIDED) & (enum != checker.UNDECIDED)
    assert decided.sum() > 250 and np.all(highs[decided] == enum[decided])


def test_checker_wilson_zero_of_ten():
    lo, hi = checker.wilson_pct(0, 10)
    assert lo == 0.0
    assert hi == pytest.approx(27.754, abs=5e-4)


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--short"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_declared_end_to_end_metrics(workload):
    done = _run(workload, 0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    done = _run(workload, 1)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"]
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert set(declared) == LAYER_NAMES
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("pick_plan", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
