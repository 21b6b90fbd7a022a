"""Acceptance suite: end-to-end checks of the analysis pipeline.

One test per criterion; each prints a PASS/FAIL line (run with -s to see
them inline). Grids, tolerances and runtime budgets are fixed here, not
tuned per machine.
"""

import math
import random
import time

import numpy as np
import pytest

from pivotgrasp.cli import main
from pivotgrasp.geometry import GraspConfig, ObjectSpec
from pivotgrasp.lp import oracle_force_balance, solve_force_balance, solve_form_closure
from pivotgrasp.maneuver import (
    GripperPose,
    align_phase,
    constant_la_schedule,
    linear_la_schedule,
    plan_pivot,
    simulate_grasp_trajectory,
)
from pivotgrasp.stability import (
    DEFAULT_LA_FAMILY,
    beta_upper_bound,
    default_alpha_grid,
    default_beta_grid,
    degree_grid,
    is_stable,
    min_alpha,
    region_sweep,
)
from pivotgrasp.stats import TrialRecord, batch_ci
from pivotgrasp.wrenches import (
    FRICTIONLESS,
    FrictionSet,
    contact_wrench_basis,
    gravity_wrench,
)

BUSHING = ObjectSpec("bushing", a=34.0, b=17.0, D=34.0, d=28.0)
DELTA = 7.202041028867287  # from the 20 mm finger in the 28 mm hole
GRAVITY = gravity_wrench(BUSHING)

SET_A = FRICTIONLESS
SET_B = FrictionSet(0.0, 0.0, 0.4)
SET_C = FrictionSet(0.2, 0.4, 0.4)

WORKERS = 2


def _report(num: int, slug: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {slug}: {status}{tail}")


def cfg_for(l_a, alpha, beta):
    return GraspConfig(l_a=l_a, alpha=alpha, beta=beta, delta=DELTA)


def basis_for(l_a, alpha, beta, friction):
    return contact_wrench_basis(BUSHING, cfg_for(l_a, alpha, beta), friction)


# ---------------------------------------------------------------------------
# 1. Wilson interval table
# ---------------------------------------------------------------------------


def test_criterion_01_wilson_table():
    t0 = time.perf_counter()
    rows = [
        ("bushing", 10, 10, 72.25, 100.0, 0.01),
        ("medicine_bottle", 9, 10, 59.58, 98.21, 0.01),
        ("plastic_cup", 8, 10, 49.02, 94.33, 0.01),
        ("cookie_can", 10, 10, 72.25, 100.0, 0.01),
        ("wiring_duct", 10, 10, 72.25, 100.0, 0.01),
        ("mounting_rail", 3, 10, 10.74, 60.27, 0.1),
        ("water_bottle", 0, 10, 0.0, None, 0.1),
    ]
    results = batch_ci([TrialRecord(k, n, name=name) for name, k, n, _, _, _ in rows])
    ok = True
    for (name, _k, _n, lo_ref, hi_ref, tol_pp), (_, ci) in zip(rows, results):
        ok &= abs(100 * ci.lower - lo_ref) <= tol_pp
        if hi_ref is not None:
            ok &= abs(100 * ci.upper - hi_ref) <= tol_pp
    # zero-success row: the formula gives an upper bound near 27.75%, which
    # is pinned here; the reference table prints 26.46% instead and the
    # deviation is asserted as a known discrepancy.
    zero_upper = 100 * results[-1][1].upper
    ok &= abs(zero_upper - 27.754016876661658) <= 0.01
    ok &= abs(zero_upper - 26.46) > 1.0
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(1, "wilson-table", ok, f"{elapsed:.3f}s, 0/10 upper={zero_upper:.4f}%")
    assert ok


# ---------------------------------------------------------------------------
# 2. Frictionless impossibility in the flat position
# ---------------------------------------------------------------------------


def test_criterion_02_frictionless_flat_impossible():
    t0 = time.perf_counter()
    feasible_cells = 0
    for l_a in DEFAULT_LA_FAMILY:
        for alpha in default_alpha_grid():
            basis = basis_for(l_a, alpha, 0.0, SET_A)
            if solve_force_balance(basis, GRAVITY).feasible:
                feasible_cells += 1
            if solve_form_closure(basis).feasible:
                feasible_cells += 1
    elapsed = time.perf_counter() - t0
    ok = feasible_cells == 0 and elapsed < 10.0
    _report(2, "frictionless-flat", ok, f"{feasible_cells} feasible cells, {elapsed:.2f}s")
    assert ok


# ---------------------------------------------------------------------------
# 3 + 4. Region sweeps shared by the friction and l_a trend criteria
# ---------------------------------------------------------------------------

_SWEEP_CACHE: dict = {}


def _friction_family_maps():
    if not _SWEEP_CACHE:
        alpha_grid = default_alpha_grid()
        beta_grid = default_beta_grid()
        t0 = time.perf_counter()
        for label, friction in (("a", SET_A), ("b", SET_B), ("c", SET_C)):
            for l_a in DEFAULT_LA_FAMILY:
                _SWEEP_CACHE[(label, l_a)] = region_sweep(
                    BUSHING, friction, l_a, alpha_grid, beta_grid,
                    delta=DELTA, workers=WORKERS,
                )
        _SWEEP_CACHE["elapsed"] = time.perf_counter() - t0
    return _SWEEP_CACHE


def test_criterion_03_friction_monotonicity():
    maps = _friction_family_maps()
    ok = True
    for l_a in DEFAULT_LA_FAMILY:
        fa = maps[("a", l_a)].feasible
        fb = maps[("b", l_a)].feasible
        fc = maps[("c", l_a)].feasible
        ok &= not np.any(fa & ~fb)
        ok &= not np.any(fb & ~fc)
    elapsed = maps["elapsed"]
    ok &= elapsed < 60.0
    _report(3, "friction-monotonicity", ok, f"15 sweeps in {elapsed:.1f}s")
    assert ok


def test_criterion_04_la_trend():
    maps = _friction_family_maps()
    ok = True
    detail = []
    for label in ("b", "c"):
        min_alpha_idx = []
        max_beta_idx = []
        for l_a in DEFAULT_LA_FAMILY:
            f = maps[(label, l_a)].feasible
            flat = np.where(f[:, 0])[0]
            min_alpha_idx.append(flat[0] if len(flat) else None)
            tilted = np.where(f.any(axis=0))[0]
            max_beta_idx.append(tilted[-1] if len(tilted) else None)
        ok &= all(i is not None for i in min_alpha_idx)
        ok &= all(i2 <= i1 for i1, i2 in zip(min_alpha_idx, min_alpha_idx[1:]))
        ok &= all(i2 <= i1 for i1, i2 in zip(max_beta_idx, max_beta_idx[1:]))
        detail.append(f"{label}: min_alpha_idx={min_alpha_idx} max_beta_idx={max_beta_idx}")
    _report(4, "la-trend", ok, "; ".join(detail))
    assert ok


# ---------------------------------------------------------------------------
# 5. Tilt-bound dichotomy in l_a with ground friction only
# ---------------------------------------------------------------------------


def test_criterion_05_beta_bound_dichotomy():
    t0 = time.perf_counter()
    # small l_a: some alpha must keep force balance through the full rotation
    unbounded_alpha = None
    bounds_04 = []
    for alpha in degree_grid(1.0, 89.0, 1.0):
        if not is_stable(BUSHING, cfg_for(0.4, alpha, 0.0), SET_B):
            continue
        bound = beta_upper_bound(BUSHING, SET_B, 0.4, alpha, delta=DELTA)
        if bound.status == "not_finite":
            unbounded_alpha = alpha
            break
        bounds_04.append(math.degrees(bound.value))
    small_la_ok = unbounded_alpha is not None

    # large l_a: the bound is finite and appears only after the centre of
    # mass crosses the ground corner (atan(a/b) for this geometry)
    alpha9 = min_alpha(BUSHING, SET_B, 0.9, 0.0, delta=DELTA)
    bound9 = beta_upper_bound(BUSHING, SET_B, 0.9, alpha9, delta=DELTA)
    large_la_ok = (
        bound9.status == "finite"
        and bound9.value > math.atan2(BUSHING.a, BUSHING.b)
    )
    elapsed = time.perf_counter() - t0
    ok = small_la_ok and large_la_ok and elapsed < 5.0
    detail = (
        f"l_a=0.4 unbounded_alpha={unbounded_alpha}"
        f" (finite bounds seen: {min(bounds_04):.2f}..{max(bounds_04):.2f} deg),"
        f" l_a=0.9 bound={math.degrees(bound9.value):.2f} deg"
        f" vs atan(a/b)={math.degrees(math.atan2(BUSHING.a, BUSHING.b)):.2f} deg,"
        f" {elapsed:.2f}s"
    )
    _report(5, "beta-bound-dichotomy", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 6. Simplex vs enumeration oracle
# ---------------------------------------------------------------------------


def test_criterion_06_oracle_equivalence():
    rng = random.Random(20240817)
    disagreements = 0
    for _ in range(1000):
        l_a = rng.uniform(0.01, 1.0)
        alpha = rng.uniform(0.005, math.pi / 2 - 0.005)
        beta = rng.uniform(0.0, math.pi / 2)
        friction = FrictionSet(
            rng.uniform(0.0, 0.6), rng.uniform(0.0, 0.6), rng.uniform(0.0, 0.6)
        )
        basis = basis_for(l_a, alpha, beta, friction)
        if solve_force_balance(basis, GRAVITY).feasible != oracle_force_balance(basis, GRAVITY):
            disagreements += 1
    ok = disagreements == 0
    _report(6, "oracle-equivalence", ok, f"{disagreements} disagreements / 1000")
    assert ok


# ---------------------------------------------------------------------------
# 7. Certificates and external-wrench scale invariance
# ---------------------------------------------------------------------------


def test_criterion_07_certificates_and_scaling():
    rng = random.Random(555)
    bad_residuals = 0
    scale_flips = 0
    n_feasible = 0
    for _ in range(200):
        l_a = rng.uniform(0.01, 1.0)
        alpha = rng.uniform(0.005, math.pi / 2 - 0.005)
        beta = rng.uniform(0.0, math.pi / 2)
        friction = FrictionSet(
            rng.uniform(0.0, 0.6), rng.uniform(0.0, 0.6), rng.uniform(0.0, 0.6)
        )
        basis = basis_for(l_a, alpha, beta, friction)
        out = solve_force_balance(basis, GRAVITY)
        if out.feasible:
            n_feasible += 1
            if out.residual > 1e-7 or min(out.coefficients) < -1e-9:
                bad_residuals += 1
        for c in (0.5, 2.0, 10.0):
            scaled = solve_force_balance(basis, GRAVITY.scaled(c))
            if scaled.feasible != out.feasible:
                scale_flips += 1
    ok = bad_residuals == 0 and scale_flips == 0
    _report(7, "certificates-scaling", ok,
            f"{n_feasible} feasible, {bad_residuals} bad certificates, {scale_flips} scale flips")
    assert ok


# ---------------------------------------------------------------------------
# 8. Trajectory invariants
# ---------------------------------------------------------------------------


def test_criterion_08_trajectory_invariants():
    lying = GripperPose(x=BUSHING.a, y=BUSHING.b, phi=0.0)
    rng = random.Random(888)
    ok = True

    for _ in range(40):
        cfg = cfg_for(rng.uniform(0.2, 1.0), rng.uniform(0.05, 1.4), 0.0)
        theta = rng.uniform(0.05, math.pi / 2)
        plan = plan_pivot(BUSHING, cfg, lying, theta, rng.randint(2, 64))
        for w in plan.waypoints:
            r = math.hypot(w.x - plan.p_c[0], w.y - plan.p_c[1])
            ok &= abs(r - plan.r) <= 1e-9 * plan.r

    # a quarter turn from flat ends with the object vertical
    plan = plan_pivot(BUSHING, cfg_for(0.9, math.pi / 10, 0.0), lying, math.pi / 2, 16)
    last = plan.waypoints[-1]
    ok &= last.phi == pytest.approx(plan.p_i.phi + math.pi / 2, abs=1e-12)
    c, s = math.cos(math.pi / 2), math.sin(math.pi / 2)
    dx = plan.p_i.x - plan.p_c[0]
    dy = plan.p_i.y - plan.p_c[1]
    ok &= abs(last.x - (plan.p_c[0] + c * dx - s * dy)) <= 1e-9
    ok &= abs(last.y - (plan.p_c[1] + s * dx + c * dy)) <= 1e-9

    # align phase holds the fingertip still
    cfg = cfg_for(0.8, math.radians(25.0), 0.0)
    poses = align_phase(BUSHING, cfg, 16)
    centre = (-BUSHING.b, BUSHING.a)
    h = (centre[0] - (BUSHING.b - cfg.delta), centre[1] + BUSHING.a)
    p0 = poses[0]
    c0, s0 = math.cos(-p0.phi), math.sin(-p0.phi)
    vx = c0 * (h[0] - p0.x) - s0 * (h[1] - p0.y)
    vy = s0 * (h[0] - p0.x) + c0 * (h[1] - p0.y)
    for p in poses:
        cp, sp = math.cos(p.phi), math.sin(p.phi)
        fx = p.x + cp * vx - sp * vy
        fy = p.y + sp * vx + cp * vy
        ok &= math.hypot(fx - h[0], fy - h[1]) <= 1e-9

    _report(8, "trajectory-invariants", ok)
    assert ok


# ---------------------------------------------------------------------------
# 9. Simulation consistency with the region maps
# ---------------------------------------------------------------------------


def test_criterion_09_simulation_consistency():
    beta_grid = default_beta_grid()
    alpha = math.radians(30.0)

    # constant schedule must equal the region-map row cell for cell
    traj = simulate_grasp_trajectory(
        BUSHING, SET_C, alpha, constant_la_schedule(0.7), beta_grid, delta=DELTA
    )
    rmap = region_sweep(BUSHING, SET_C, 0.7, (alpha,), beta_grid, delta=DELTA)
    row_equal = [s.stable for s in traj.samples] == list(rmap.feasible[0])

    # the reference sliding run stays stable across most of the rotation
    traj2 = simulate_grasp_trajectory(
        BUSHING, SET_C, math.pi / 10, linear_la_schedule(0.9, 0.65), beta_grid, delta=DELTA
    )
    flags = [s.stable for s in traj2.samples]
    prefix = flags.index(False) if False in flags else len(flags)
    majority = prefix / len(flags) > 0.5 and flags[0]

    ok = row_equal and majority
    _report(9, "simulation-consistency", ok,
            f"row_equal={row_equal}, stable prefix {prefix}/{len(flags)} samples")
    assert ok


# ---------------------------------------------------------------------------
# 10. Parallel determinism of the CLI sweep
# ---------------------------------------------------------------------------


def test_criterion_10_parallel_determinism(tmp_path):
    args = ["region", "--object", "bushing", "--mu", "0.2,0.4,0.4", "--la", "0.7"]
    assert main(args + ["--out-dir", str(tmp_path / "p1"), "--parallel", "1"]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "p8"), "--parallel", "8"]) == 0
    name = "region_bushing_force_balance_la0.7"
    csv_equal = (
        (tmp_path / "p1" / f"{name}.csv").read_bytes()
        == (tmp_path / "p8" / f"{name}.csv").read_bytes()
    )
    json_equal = (
        (tmp_path / "p1" / f"{name}.json").read_bytes()
        == (tmp_path / "p8" / f"{name}.json").read_bytes()
    )
    ok = csv_equal and json_equal
    _report(10, "parallel-determinism", ok, f"csv_equal={csv_equal} json_equal={json_equal}")
    assert ok
