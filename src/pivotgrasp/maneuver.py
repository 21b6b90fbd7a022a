"""Grasp / tilt / align maneuver planning and grasp-trajectory simulation.

World frame: the ground is y = 0, gravity points along -y, and a lying
object has its long axis along +x. The maneuver rotates the object about
its ground corner from tilt beta = 0 to vertical, then aligns the gripper
with the object axis. Sliding of the surface contact during the tilt is a
prescribed input schedule l_a(beta), not a predicted output: the contact
may slide in practice but no slip law is modelled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import HALF_PI, GraspConfig, ObjectSpec, validate_config
from .stability import _fmt, stable_cells


@dataclass(frozen=True)
class GripperPose:
    """Planar pose of the gripper: jaw midpoint position and axis angle."""

    x: float
    y: float
    phi: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x, self.y, self.phi))):
            raise ValueError("pose components must be finite")


@dataclass(frozen=True)
class PivotPlan:
    """Circular-arc gripper trajectory about the object's ground corner."""

    p_i: GripperPose
    p_c: tuple[float, float]
    r: float
    theta: float
    waypoints: tuple[GripperPose, ...]


def _rot(phi: float, x: float, y: float) -> tuple[float, float]:
    c, s = math.cos(phi), math.sin(phi)
    return (c * x - s * y, s * x + c * y)


def _contact_points(
    obj: ObjectSpec, cfg: GraspConfig, center: tuple[float, float], phi: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """World positions of the surface contact S and the in-hole contact H."""
    l = 2.0 * obj.a * cfg.l_a
    sx, sy = _rot(phi, obj.a - l, obj.b)
    hx, hy = _rot(phi, obj.a, obj.b - cfg.delta)
    return (center[0] + sx, center[1] + sy), (center[0] + hx, center[1] + hy)


def _arc(
    pivot: tuple[float, float], start: tuple[float, float], phi0: float, sweep: float, n: int
) -> tuple[GripperPose, ...]:
    """`n` gripper poses turning rigidly by `sweep` about `pivot`, from `start` at angle `phi0`."""
    poses = []
    for k in range(n):
        t = sweep * k / (n - 1)
        dx, dy = _rot(t, start[0] - pivot[0], start[1] - pivot[1])
        poses.append(GripperPose(pivot[0] + dx, pivot[1] + dy, phi0 + t))
    return tuple(poses)


def plan_pivot(
    obj: ObjectSpec,
    cfg: GraspConfig,
    object_pose: GripperPose,
    theta: float,
    n_waypoints: int = 64,
    *,
    beta_ub: float | None = None,
) -> PivotPlan:
    """Plan the tilt phase: rotate the grasp rigidly about the ground corner.

    `object_pose` is the pose of the object's centre (phi = current tilt).
    The pivot centre is the corner diagonally opposite the hole-side top
    edge; the initial gripper pose is the midpoint of the two finger
    contacts at angle alpha relative to the object. When `beta_ub` is given
    the rotation is clamped so the final tilt does not exceed it, and a
    final tilt past upright raises ValueError.
    """
    validate_config(cfg, obj)
    if n_waypoints < 2:
        raise ValueError("need at least two waypoints")
    if not 0 < theta <= HALF_PI:
        raise ValueError("pivot angle must lie in (0, pi/2]")
    if beta_ub is not None:
        if math.isnan(beta_ub):
            raise ValueError("beta_ub must not be NaN")
        theta = min(theta, beta_ub - object_pose.phi)
        if theta <= 0:
            raise ValueError("object tilt already at or beyond the requested bound")
    if object_pose.phi + theta > HALF_PI + 1e-12:
        raise ValueError("the pivot would tilt the object past upright (phi + theta > pi/2)")

    center = (object_pose.x, object_pose.y)
    gx, gy = _rot(object_pose.phi, -obj.a, -obj.b)
    p_c = (center[0] + gx, center[1] + gy)

    s, h = _contact_points(obj, cfg, center, object_pose.phi)
    p_i = GripperPose(
        x=0.5 * (s[0] + h[0]),
        y=0.5 * (s[1] + h[1]),
        phi=cfg.alpha + object_pose.phi,
    )
    if p_i.y < 0:
        raise ValueError("initial gripper pose is below the ground plane")

    r = math.hypot(p_i.x - p_c[0], p_i.y - p_c[1])
    waypoints = _arc(p_c, (p_i.x, p_i.y), p_i.phi, theta, n_waypoints)
    return PivotPlan(p_i=p_i, p_c=p_c, r=r, theta=theta, waypoints=waypoints)


def align_phase(obj: ObjectSpec, cfg: GraspConfig, n_waypoints: int) -> tuple[GripperPose, ...]:
    """Plan the align phase: rotate the gripper onto the (vertical) object axis.

    The object stands with its ground corner at the origin. The gripper
    turns about the inserted fingertip contact, interpolating its angle
    relative to the object axis uniformly from alpha down to zero.
    """
    validate_config(cfg, obj)
    if n_waypoints < 2:
        raise ValueError("need at least two waypoints")
    center = (-obj.b, obj.a)  # ground corner at the origin, axis up
    _, h = _contact_points(obj, cfg, center, HALF_PI)
    # Jaw midpoint offset from the fingertip is rigid: half the H-to-S chord.
    l = 2.0 * obj.a * cfg.l_a
    ox, oy = _rot(HALF_PI, -l / 2, cfg.delta / 2)
    return _arc(h, (h[0] + ox, h[1] + oy), HALF_PI + cfg.alpha, -cfg.alpha, n_waypoints)


# ---------------------------------------------------------------------------
# Grasp-trajectory simulation through (beta, l_a) space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrajectorySample:
    beta: float
    l_a: float
    stable: bool


@dataclass(frozen=True)
class GraspTrajectory:
    """Stability along a tilt with a prescribed sliding schedule.

    Samples advance in beta while l_a may only shrink (sliding shortens the
    contact distance); the schedule's endpoints are the first and last
    samples.
    """

    samples: tuple[TrajectorySample, ...]


def linear_la_schedule(la_start: float, la_end: float) -> Callable[[float], float]:
    """Linear l_a(beta) from la_start at beta = 0 to la_end at beta = pi/2."""
    if la_end > la_start:
        raise ValueError("sliding can only shorten l_a")

    def schedule(beta: float) -> float:
        # min(max(beta / HALF_PI, 0.0), 1.0) without the builtins' call cost;
        # NaN and -0.0 pass through as they do there.
        frac = beta / HALF_PI
        if frac < 0.0:
            frac = 0.0
        elif frac > 1.0:
            frac = 1.0
        return la_start + (la_end - la_start) * frac

    return schedule


def constant_la_schedule(l_a: float) -> Callable[[float], float]:
    return lambda beta: l_a


def simulate_grasp_trajectory(
    obj: ObjectSpec,
    friction,
    alpha: float,
    la_schedule: Callable[[float], float],
    beta_grid: tuple[float, ...],
    *,
    delta: float,
) -> GraspTrajectory:
    """Evaluate force-balance stability along the prescribed schedule, as one batch."""
    betas = np.array(beta_grid, dtype=float)
    if np.any(betas[1:] < betas[:-1]):
        raise ValueError("beta grid must be non-decreasing")
    if betas.size == 0:
        return GraspTrajectory(samples=())

    beta_list = betas.tolist()
    las = [la_schedule(beta) for beta in beta_list]
    la_axis = np.array(las, dtype=float)
    if np.any(la_axis[1:] > la_axis[:-1] + 1e-12):
        raise ValueError("l_a schedule must be non-increasing in beta")

    stable = stable_cells(obj, friction, la_axis, alpha, betas, delta=delta)
    return GraspTrajectory(samples=tuple(map(TrajectorySample, beta_list, las, stable.tolist())))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def plan_to_dict(plan: PivotPlan) -> dict:
    """JSON document for a pivot plan."""
    return {
        "p_c": plan.p_c,
        "r": plan.r,
        "theta_rad": plan.theta,
        "waypoints": [vars(p) for p in plan.waypoints],
    }


def trajectory_csv(traj: GraspTrajectory) -> str:
    """CSV rows (beta_deg, l_a, stable) for overlay plotting on region maps."""
    lines = ["beta_deg,l_a,stable"]
    for s in traj.samples:
        lines.append(f"{_fmt(math.degrees(s.beta))},{_fmt(s.l_a)},{1 if s.stable else 0}")
    return "\n".join(lines) + "\n"
