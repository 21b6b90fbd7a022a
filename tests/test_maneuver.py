"""Pivot planning, align phase and grasp-trajectory simulation tests."""

import math
import random
import struct

import numpy as np
import pytest

from pivotgrasp.geometry import ObjectSpec, config_from_delta, grasp_config, load_catalog
from pivotgrasp.maneuver import (
    GripperPose,
    align_phase,
    constant_la_schedule,
    linear_la_schedule,
    plan_pivot,
    plan_to_dict,
    simulate_grasp_trajectory,
    trajectory_csv,
)
from pivotgrasp.stability import degree_grid, region_sweep
from pivotgrasp.wrenches import FrictionSet

BUSHING = ObjectSpec("bushing", a=34.0, b=17.0, D=34.0, d=28.0)
DELTA = 7.2
SET_C = FrictionSet(0.2, 0.4, 0.4)
LYING = GripperPose(x=34.0, y=17.0, phi=0.0)  # centre resting on the ground


def cfg_for(l_a=0.9, alpha=math.pi / 10, beta=0.0):
    return config_from_delta(BUSHING, l_a, alpha, beta, DELTA)


def rot(phi, x, y):
    c, s = math.cos(phi), math.sin(phi)
    return (c * x - s * y, s * x + c * y)


class TestPlanPivot:
    def test_quarter_turn_ends_vertical(self):
        plan = plan_pivot(BUSHING, cfg_for(), LYING, math.pi / 2, 16)
        # rigid rotation: final gripper pose is the initial one turned 90
        # degrees about the corner, so the object ends at tilt pi/2
        last = plan.waypoints[-1]
        dx, dy = rot(math.pi / 2, plan.p_i.x - plan.p_c[0], plan.p_i.y - plan.p_c[1])
        assert last.x == pytest.approx(plan.p_c[0] + dx, abs=1e-12)
        assert last.y == pytest.approx(plan.p_c[1] + dy, abs=1e-12)
        assert last.phi == pytest.approx(plan.p_i.phi + math.pi / 2, abs=1e-12)

    def test_pivot_centre_is_ground_corner(self):
        plan = plan_pivot(BUSHING, cfg_for(), LYING, math.pi / 2, 4)
        assert plan.p_c == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_vanishing_rotation(self):
        plan = plan_pivot(BUSHING, cfg_for(), LYING, 1e-12, 2)
        for w in plan.waypoints:
            assert w.x == pytest.approx(plan.p_i.x, abs=1e-9)
            assert w.y == pytest.approx(plan.p_i.y, abs=1e-9)

    def test_waypoints_equidistant_from_centre(self):
        rng = random.Random(5)
        for _ in range(25):
            cfg = cfg_for(rng.uniform(0.2, 1.0), rng.uniform(0.05, 1.4))
            theta = rng.uniform(0.05, math.pi / 2)
            plan = plan_pivot(BUSHING, cfg, LYING, theta, rng.randint(2, 80))
            for w in plan.waypoints:
                r = math.hypot(w.x - plan.p_c[0], w.y - plan.p_c[1])
                assert abs(r - plan.r) < 1e-9 * plan.r

    def test_orientation_advances_uniformly(self):
        n = 9
        theta = math.radians(72.0)
        plan = plan_pivot(BUSHING, cfg_for(), LYING, theta, n)
        steps = [b.phi - a.phi for a, b in zip(plan.waypoints, plan.waypoints[1:])]
        for s in steps:
            assert s == pytest.approx(theta / (n - 1), rel=1e-12)

    def test_rejects_bad_rotation(self):
        with pytest.raises(ValueError):
            plan_pivot(BUSHING, cfg_for(), LYING, math.pi / 2 + 0.01, 4)
        with pytest.raises(ValueError):
            plan_pivot(BUSHING, cfg_for(), LYING, 0.0, 4)
        with pytest.raises(ValueError):
            plan_pivot(BUSHING, cfg_for(), LYING, math.pi / 4, 1)

    def test_rejects_underground_start(self):
        sunken = GripperPose(x=34.0, y=-60.0, phi=0.0)
        with pytest.raises(ValueError):
            plan_pivot(BUSHING, cfg_for(), sunken, math.pi / 4, 4)

    def test_tilt_bound_clamps_rotation(self):
        plan = plan_pivot(BUSHING, cfg_for(), LYING, math.pi / 2, 4, beta_ub=0.5)
        assert plan.theta == pytest.approx(0.5)

    def test_rejects_a_bound_at_or_below_the_current_tilt(self):
        tilted = GripperPose(x=34.0, y=17.0, phi=0.5)
        for beta_ub in (0.5, 0.2):
            with pytest.raises(ValueError, match="already at or beyond"):
                plan_pivot(BUSHING, cfg_for(), tilted, math.pi / 2, 4, beta_ub=beta_ub)

    def test_rejects_a_tilt_past_upright(self):
        tilted = GripperPose(x=34.0, y=17.0, phi=0.5)
        with pytest.raises(ValueError, match="past upright"):
            plan_pivot(BUSHING, cfg_for(), tilted, math.pi / 2, 4)
        assert plan_pivot(BUSHING, cfg_for(), tilted, math.pi / 2 - 0.5, 4).theta == math.pi / 2 - 0.5
        # a bound clamps first: a plan that ends at the bound is fine
        assert plan_pivot(BUSHING, cfg_for(), tilted, math.pi / 2, 4, beta_ub=1.2).theta == 1.2 - 0.5

    def test_rejects_a_nan_angle_or_bound(self):
        with pytest.raises(ValueError, match="pivot angle"):
            plan_pivot(BUSHING, cfg_for(), LYING, math.nan, 4)
        # min(theta, nan) is theta: unchecked, a NaN bound would plan the full arc
        with pytest.raises(ValueError, match="beta_ub"):
            plan_pivot(BUSHING, cfg_for(), LYING, math.pi / 2, 4, beta_ub=math.nan)

    def test_pose_rejects_a_nan_component(self):
        with pytest.raises(ValueError, match="finite"):
            GripperPose(x=34.0, y=math.nan, phi=0.0)

    def test_plan_json_schema(self):
        plan = plan_pivot(BUSHING, cfg_for(), LYING, math.pi / 2, 3)
        doc = plan_to_dict(plan)
        assert set(doc) == {"p_c", "r", "theta_rad", "waypoints"}
        assert len(doc["waypoints"]) == 3
        assert set(doc["waypoints"][0]) == {"x", "y", "phi"}


class TestAlignPhase:
    def test_uniform_relative_angles(self):
        poses = align_phase(BUSHING, cfg_for(alpha=math.pi / 10), 5)
        rel = [p.phi - math.pi / 2 for p in poses]
        expect = [math.pi / 10, 3 * math.pi / 40, math.pi / 20, math.pi / 40, 0.0]
        assert rel == pytest.approx(expect, abs=1e-12)

    def test_vanishing_alpha_freezes_poses(self):
        # displacement scales with alpha times the jaw-to-fingertip arm (~31 mm)
        poses = align_phase(BUSHING, cfg_for(alpha=1e-9), 5)
        for p in poses[1:]:
            assert p.x == pytest.approx(poses[0].x, abs=1e-7)
            assert p.y == pytest.approx(poses[0].y, abs=1e-7)

    def test_fingertip_point_fixed(self):
        # Recompute the fingertip world position from every pose: the rigid
        # offset from the jaw midpoint is set by the first pose, then each
        # later pose must map it to the same point.
        cfg = cfg_for(l_a=0.8, alpha=math.radians(25.0))
        poses = align_phase(BUSHING, cfg, 12)
        # default placement: corner at origin, object vertical
        centre = (-BUSHING.b, BUSHING.a)
        hx, hy = rot(math.pi / 2, BUSHING.a, BUSHING.b - cfg.delta)
        h = (centre[0] + hx, centre[1] + hy)
        p0 = poses[0]
        vx, vy = rot(-p0.phi, h[0] - p0.x, h[1] - p0.y)
        for p in poses:
            fx, fy = rot(p.phi, vx, vy)
            assert p.x + fx == pytest.approx(h[0], abs=1e-9)
            assert p.y + fy == pytest.approx(h[1], abs=1e-9)

    def test_requires_two_waypoints(self):
        with pytest.raises(ValueError):
            align_phase(BUSHING, cfg_for(), 1)


class TestSimulateGraspTrajectory:
    def test_reference_run_stays_stable_then_breaks(self):
        schedule = linear_la_schedule(0.9, 0.65)
        grid = degree_grid(0.0, 90.0, 1.0)
        traj = simulate_grasp_trajectory(BUSHING, SET_C, math.pi / 10, schedule, grid, delta=DELTA)
        flags = [s.stable for s in traj.samples]
        first_break = flags.index(False)
        assert first_break / len(flags) > 0.5  # stable for the majority of the tilt
        assert all(flags[:first_break])
        assert (traj.samples[0].beta, traj.samples[0].l_a) == (0.0, 0.9)
        assert (traj.samples[-1].beta, traj.samples[-1].l_a) == (pytest.approx(math.pi / 2), 0.65)

    def test_long_cylinder_constant_schedule_stable_throughout(self):
        # steep grasp angle on the long cylinder: no sliding, and the
        # configuration stays balanced across the whole rotation
        can, gripper = load_catalog()["cookie_can"]
        cfg = grasp_config(can, gripper, 0.28, math.pi / 3.8, 0.0)
        traj = simulate_grasp_trajectory(
            can, SET_C, math.pi / 3.8, constant_la_schedule(0.28),
            degree_grid(0.0, 90.0, 1.0), delta=cfg.delta,
        )
        assert all(s.stable for s in traj.samples)
        assert all(s.l_a == 0.28 for s in traj.samples)

    def test_constant_schedule_matches_region_row(self):
        beta_grid = degree_grid(0.0, 90.0, 5.0)
        alpha = math.radians(30.0)
        traj = simulate_grasp_trajectory(
            BUSHING, SET_C, alpha, constant_la_schedule(0.7), beta_grid, delta=DELTA
        )
        rmap = region_sweep(BUSHING, SET_C, 0.7, (alpha,), beta_grid, delta=DELTA)
        flags = [s.stable for s in traj.samples]
        assert flags == list(rmap.feasible[0])

    def test_empty_grid(self):
        traj = simulate_grasp_trajectory(
            BUSHING, SET_C, 0.3, constant_la_schedule(0.5), (), delta=DELTA
        )
        assert traj.samples == ()

    def test_numpy_grid_gives_the_tuple_samples(self):
        schedule = linear_la_schedule(0.9, 0.65)
        for grid in ((0.0,), (0.0, 0.1)):
            want = simulate_grasp_trajectory(BUSHING, SET_C, 0.3, schedule, grid, delta=DELTA)
            got = simulate_grasp_trajectory(BUSHING, SET_C, 0.3, schedule, np.array(grid), delta=DELTA)
            assert len(want.samples) == len(grid) and got == want
            assert all(type(s.beta) is float for s in got.samples)

    def test_monotonicity_enforced(self):
        grid = degree_grid(0.0, 90.0, 10.0)
        with pytest.raises(ValueError):
            simulate_grasp_trajectory(
                BUSHING, SET_C, 0.3, lambda b: 0.5 + 0.1 * b, grid, delta=DELTA
            )
        with pytest.raises(ValueError):
            simulate_grasp_trajectory(
                BUSHING, SET_C, 0.3, constant_la_schedule(0.5),
                (0.4, 0.2), delta=DELTA
            )
        with pytest.raises(ValueError):
            linear_la_schedule(0.5, 0.9)

    def test_linear_schedule_matches_the_clamped_expression_bit_for_bit(self):
        def clamped(la_start, la_end, beta):
            return la_start + (la_end - la_start) * min(max(beta / (math.pi / 2), 0.0), 1.0)

        edges = [0.0, -0.0, math.pi / 2, math.nextafter(math.pi / 2, 0.0), math.nextafter(math.pi / 2, 4.0),
                 2.0, -1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan]
        rng = random.Random(11)
        for n in range(2000):
            la_start = rng.uniform(0.01, 1.0)
            la_end = rng.uniform(0.0, la_start)
            schedule = linear_la_schedule(la_start, la_end)
            for beta in [rng.uniform(-1.0, 3.0)] + (edges if n < 20 else []):
                got, want = schedule(beta), clamped(la_start, la_end, beta)
                assert struct.pack("d", got) == struct.pack("d", want), (la_start, la_end, beta)

    def test_samples_monotone(self):
        schedule = linear_la_schedule(0.85, 0.38)
        grid = degree_grid(0.0, 90.0, 3.0)
        traj = simulate_grasp_trajectory(BUSHING, SET_C, 0.4, schedule, grid, delta=DELTA)
        betas = [s.beta for s in traj.samples]
        las = [s.l_a for s in traj.samples]
        assert all(b2 >= b1 for b1, b2 in zip(betas, betas[1:]))
        assert all(l2 <= l1 for l1, l2 in zip(las, las[1:]))

    def test_csv_layout(self):
        traj = simulate_grasp_trajectory(
            BUSHING, SET_C, 0.4, constant_la_schedule(0.5), degree_grid(0.0, 10.0, 5.0),
            delta=DELTA
        )
        lines = trajectory_csv(traj).strip().split("\n")
        assert lines[0] == "beta_deg,l_a,stable"
        assert len(lines) == 4
        assert lines[1].startswith("0,0.5,")
