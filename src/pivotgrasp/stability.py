"""Stable-region computation over the grasp configuration space.

A configuration (l_a, alpha, beta) is stable when the selected LP is
feasible: `force_balance` asks whether the contacts can cancel gravity,
`form_closure` whether they immobilise the object outright. Sweeps grid the
(alpha, beta) plane for fixed l_a; `beta_upper_bound` locates the tilt at
which force balance is first lost.

One cell (`is_stable`) is decided by the dense simplex. Every evaluation of
many cells goes through `stable_cells`: the batched cone kernel
(`lp.cone_membership`) decides the cells clear of the cone boundary in one
numpy pass, and the simplex answers the rest one by one, so a grid gives
exactly the answers of `is_stable` cell by cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ConfigError, GraspConfig, ObjectSpec, validate_config
from .lp import cone_membership, solve_force_balance, solve_form_closure
from .wrenches import FrictionSet, Wrench, contact_wrench_basis, wrench_basis_grid

MODES = ("force_balance", "form_closure")

HALF_PI = math.pi / 2


class SweepCellError(RuntimeError):
    """A cell evaluation failed; carries the offending (alpha, beta)."""

    def __init__(self, alpha: float, beta: float, cause: Exception):
        super().__init__(f"cell (alpha={alpha!r}, beta={beta!r}) failed: {cause}")
        self.alpha = alpha
        self.beta = beta


def degree_grid(start_deg: float, stop_deg: float, step_deg: float) -> tuple[float, ...]:
    """Inclusive degree grid converted to radians, built from integer multiples."""
    n = round((stop_deg - start_deg) / step_deg)
    return tuple(math.radians(start_deg + i * step_deg) for i in range(n + 1))


def default_alpha_grid(step_deg: float = 0.5) -> tuple[float, ...]:
    """Alpha grid over (0, 90) degrees, endpoints excluded."""
    return degree_grid(step_deg, 90.0 - step_deg, step_deg)


def default_beta_grid(step_deg: float = 0.5) -> tuple[float, ...]:
    """Beta grid over [0, 90] degrees inclusive."""
    return degree_grid(0.0, 90.0, step_deg)


DEFAULT_LA_FAMILY = (0.5, 0.6, 0.7, 0.8, 0.9)

# Force balance is decided against the direction of gravity: feasibility
# does not depend on the weight, and the simplex's absolute tolerances
# would make it depend on the mass if the weight were the target.
UNIT_GRAVITY = Wrench(0.0, 0.0, -1.0)


def is_stable(
    obj: ObjectSpec, cfg: GraspConfig, friction: FrictionSet, mode: str = "force_balance"
) -> bool:
    """Whether the selected LP is feasible at this configuration."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    validate_config(cfg, obj)
    basis = contact_wrench_basis(obj, cfg, friction)
    if mode == "force_balance":
        return solve_force_balance(basis, UNIT_GRAVITY).feasible
    return solve_form_closure(basis).feasible


def stable_cells(
    obj: ObjectSpec,
    friction: FrictionSet,
    l_a,
    alpha,
    beta,
    mode: str = "force_balance",
    *,
    delta: float,
) -> np.ndarray:
    """`is_stable` on every cell of broadcast (l_a, alpha, beta) arrays.

    Returns a boolean array of the broadcast shape. The first cell that
    breaks a range constraint, in C order, runs through `is_stable` and
    raises its ConfigError, as a cell-by-cell loop would; when every cell is
    in range that scalar run answers the first cell. The kernel decides the
    others, and cells it leaves undecided go to `is_stable` one at a time.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    la, al, be = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (l_a, alpha, beta)))
    shape = la.shape
    la, al, be = la.ravel(), al.ravel(), be.ravel()
    if la.size == 0:
        return np.zeros(shape, dtype=bool)
    offset = obj.D / 2 - delta

    def cell_stable(i: int) -> bool:
        cfg = GraspConfig(
            l_a=float(la[i]), alpha=float(al[i]), beta=float(be[i]), delta=delta, hole_offset=offset
        )
        return is_stable(obj, cfg, friction, mode)

    in_range = (0 < la) & (la <= 1) & (0 < al) & (al < HALF_PI) & (0 <= be) & (be <= HALF_PI)
    first = int(np.argmin(in_range))  # 0 when all are in range
    first_stable = cell_stable(first)

    gens = wrench_basis_grid(obj, friction, la, al, be, delta)
    if mode == "force_balance":
        targets = np.broadcast_to(-np.array(UNIT_GRAVITY.as_tuple()), (la.size, 3))
    else:
        targets = -gens.sum(axis=1)
    stable, undecided = cone_membership(gens, targets, obj.a)
    for i in np.flatnonzero(undecided):
        stable[i] = cell_stable(int(i))
    stable[first] = first_stable
    return stable.reshape(shape)


@dataclass(frozen=True)
class RegionMap:
    """Boolean feasibility grid over the (alpha, beta) plane for fixed l_a."""

    mode: str
    l_a: float
    delta: float
    friction: FrictionSet
    alpha_axis: tuple[float, ...]
    beta_axis: tuple[float, ...]
    feasible: np.ndarray  # shape (len(alpha_axis), len(beta_axis)), bool

    def __post_init__(self):
        if self.feasible.shape != (len(self.alpha_axis), len(self.beta_axis)):
            raise ValueError("feasible matrix shape does not match axes")

    def feasible_cells(self) -> int:
        return int(self.feasible.sum())


def _check_axes(alpha_axis, beta_axis) -> None:
    if any(b <= a for a, b in zip(alpha_axis, alpha_axis[1:])):
        raise ValueError("alpha axis must be strictly increasing")
    if any(b <= a for a, b in zip(beta_axis, beta_axis[1:])):
        raise ValueError("beta axis must be strictly increasing")
    if alpha_axis and not (0.0 < alpha_axis[0] and alpha_axis[-1] < HALF_PI):
        raise ValueError("alpha axis must lie inside (0, pi/2)")
    _check_beta_range(beta_axis)


def _check_beta_range(beta_axis) -> None:
    if beta_axis and not (0.0 <= beta_axis[0] and beta_axis[-1] <= HALF_PI):
        raise ValueError("beta axis must lie inside [0, pi/2]")


def _sweep_cells(obj, friction, l_a, alpha, beta, mode, delta, alpha_axis, beta_axis) -> np.ndarray:
    """`stable_cells` for a sweep with checked axes.

    A ConfigError can then only come from the parameters all cells share, so
    it is reported as a SweepCellError at the first cell.
    """
    try:
        return stable_cells(obj, friction, l_a, alpha, beta, mode, delta=delta)
    except ConfigError as e:
        raise SweepCellError(alpha_axis[0], beta_axis[0], e) from e


def region_sweep(
    obj: ObjectSpec,
    friction: FrictionSet,
    l_a: float,
    alpha_grid: tuple[float, ...],
    beta_grid: tuple[float, ...],
    mode: str = "force_balance",
    *,
    delta: float,
    workers: int = 1,
) -> RegionMap:
    """Evaluate stability on the full (alpha, beta) grid.

    The grid is evaluated in one batch in this process. `workers` is
    accepted for compatibility and starts no processes; the result never
    depends on it. A ConfigError from the grid's shared parameters is raised
    as a SweepCellError at the grid's first cell.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    _check_axes(alpha_grid, beta_grid)
    feasible = _sweep_cells(
        obj, friction, l_a, np.array(alpha_grid)[:, None], np.array(beta_grid)[None, :], mode, delta,
        alpha_grid, beta_grid,
    )
    return RegionMap(
        mode=mode,
        l_a=l_a,
        delta=delta,
        friction=friction,
        alpha_axis=tuple(alpha_grid),
        beta_axis=tuple(beta_grid),
        feasible=feasible,
    )


@dataclass(frozen=True)
class GraspPlaneMap:
    """Feasibility grid over the (l_a, beta) plane for fixed alpha.

    This is the companion map for overlaying simulated grasp trajectories,
    whose samples live in the same plane.
    """

    mode: str
    alpha: float
    delta: float
    friction: FrictionSet
    la_axis: tuple[float, ...]
    beta_axis: tuple[float, ...]
    feasible: np.ndarray  # shape (len(la_axis), len(beta_axis)), bool


def grasp_plane_sweep(
    obj: ObjectSpec,
    friction: FrictionSet,
    alpha: float,
    la_grid: tuple[float, ...],
    beta_grid: tuple[float, ...],
    mode: str = "force_balance",
    *,
    delta: float,
    workers: int = 1,
) -> GraspPlaneMap:
    """Evaluate stability over (l_a, beta) at fixed alpha.

    Batched like `region_sweep`; `workers` starts no processes.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if any(b <= a for a, b in zip(la_grid, la_grid[1:])):
        raise ValueError("l_a axis must be strictly increasing")
    if la_grid and not (0.0 < la_grid[0] and la_grid[-1] <= 1.0):
        raise ValueError("l_a axis must lie inside (0, 1]")
    _check_beta_range(beta_grid)
    feasible = _sweep_cells(
        obj, friction, np.array(la_grid)[:, None], alpha, np.array(beta_grid)[None, :], mode, delta,
        (alpha,), beta_grid,
    )
    return GraspPlaneMap(
        mode=mode,
        alpha=alpha,
        delta=delta,
        friction=friction,
        la_axis=tuple(la_grid),
        beta_axis=tuple(beta_grid),
        feasible=feasible,
    )


@dataclass(frozen=True)
class BetaBound:
    """Result of the beta upper-bound search.

    status is one of "finite" (value holds the first feasible-to-infeasible
    transition), "not_finite" (force balance holds through 90 degrees) and
    "infeasible_at_start" (already infeasible at beta = 0). When several
    transitions appear during coarse bracketing they are all listed and the
    first is the value.
    """

    value: float | None
    finite: bool
    status: str
    transitions: tuple[float, ...] = ()


def beta_upper_bound(
    obj: ObjectSpec,
    friction: FrictionSet,
    l_a: float,
    alpha: float,
    *,
    delta: float,
    resolution: float = 1e-4,
    coarse_step_deg: float = 1.0,
) -> BetaBound:
    """Largest tilt up to which force balance holds, for fixed (l_a, alpha).

    Brackets feasibility transitions on a coarse degree grid, evaluated as
    one batch, then bisects each bracket down to `resolution` radians with
    `is_stable`.
    """
    offset = obj.D / 2 - delta

    def feasible(beta: float) -> bool:
        cfg = GraspConfig(l_a=l_a, alpha=alpha, beta=beta, delta=delta, hole_offset=offset)
        return is_stable(obj, cfg, friction, "force_balance")

    coarse = degree_grid(0.0, 90.0, coarse_step_deg)
    coarse_ok = stable_cells(obj, friction, l_a, alpha, np.array(coarse), delta=delta)
    if not coarse_ok[0]:
        return BetaBound(value=None, finite=False, status="infeasible_at_start")

    transitions = []
    for k in np.flatnonzero(coarse_ok[:-1] & ~coarse_ok[1:]):
        lo, hi = coarse[k], coarse[k + 1]
        while hi - lo > resolution / 4:
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                lo = mid
            else:
                hi = mid
        transitions.append(0.5 * (lo + hi))
    if not transitions:
        return BetaBound(value=None, finite=False, status="not_finite")
    return BetaBound(
        value=transitions[0], finite=True, status="finite", transitions=tuple(transitions)
    )


def min_alpha(
    obj: ObjectSpec,
    friction: FrictionSet,
    l_a: float,
    beta: float,
    *,
    delta: float,
    step_deg: float = 0.5,
) -> float | None:
    """Smallest grid alpha with force balance feasible at (l_a, beta), or None."""
    alphas = default_alpha_grid(step_deg)
    hits = np.flatnonzero(stable_cells(obj, friction, l_a, np.array(alphas), beta, delta=delta))
    return alphas[hits[0]] if hits.size else None


# ---------------------------------------------------------------------------
# Serialization (CSV grid + JSON sidecar) for external plotting
# ---------------------------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{v + 0.0:.9g}"  # + 0.0 normalises negative zero


def region_map_csv(rmap: RegionMap) -> str:
    """Grid as CSV: header row of beta values (deg), first column alpha (deg), cells 0/1."""
    lines = ["alpha_deg/beta_deg," + ",".join(_fmt(math.degrees(b)) for b in rmap.beta_axis)]
    for i, alpha in enumerate(rmap.alpha_axis):
        cells = ",".join("1" if rmap.feasible[i, j] else "0" for j in range(len(rmap.beta_axis)))
        lines.append(_fmt(math.degrees(alpha)) + "," + cells)
    return "\n".join(lines) + "\n"


def grasp_plane_csv(gmap: GraspPlaneMap) -> str:
    """Grid as CSV: header row of beta values (deg), first column l_a, cells 0/1."""
    lines = ["l_a/beta_deg," + ",".join(_fmt(math.degrees(b)) for b in gmap.beta_axis)]
    for i, la in enumerate(gmap.la_axis):
        cells = ",".join("1" if gmap.feasible[i, j] else "0" for j in range(len(gmap.beta_axis)))
        lines.append(_fmt(la) + "," + cells)
    return "\n".join(lines) + "\n"


def _grid_meta(axis_rad: tuple[float, ...]) -> dict:
    degs = [math.degrees(v) for v in axis_rad]
    return {
        "start_deg": float(_fmt(degs[0])),
        "stop_deg": float(_fmt(degs[-1])),
        "count": len(degs),
    }


def region_map_meta(rmap: RegionMap, obj: ObjectSpec) -> dict:
    """JSON sidecar content describing a region map."""
    return {
        "object": {
            "name": obj.name,
            "a_mm": obj.a,
            "b_mm": obj.b,
            "D_mm": obj.D,
            "d_mm": obj.d,
            "cylinder": obj.cylinder,
        },
        "friction": {
            "mu_S": rmap.friction.mu_s,
            "mu_H": rmap.friction.mu_h,
            "mu_G": rmap.friction.mu_g,
        },
        "l_a": rmap.l_a,
        "delta_mm": float(_fmt(rmap.delta)),
        "mode": rmap.mode,
        "alpha_grid": _grid_meta(rmap.alpha_axis),
        "beta_grid": _grid_meta(rmap.beta_axis),
        "feasible_cells": rmap.feasible_cells(),
    }


def grasp_plane_meta(gmap: GraspPlaneMap, obj: ObjectSpec) -> dict:
    return {
        "object": {
            "name": obj.name,
            "a_mm": obj.a,
            "b_mm": obj.b,
            "D_mm": obj.D,
            "d_mm": obj.d,
            "cylinder": obj.cylinder,
        },
        "friction": {
            "mu_S": gmap.friction.mu_s,
            "mu_H": gmap.friction.mu_h,
            "mu_G": gmap.friction.mu_g,
        },
        "alpha_rad": float(_fmt(gmap.alpha)),
        "delta_mm": float(_fmt(gmap.delta)),
        "mode": gmap.mode,
        "la_grid": {"start": gmap.la_axis[0], "stop": gmap.la_axis[-1], "count": len(gmap.la_axis)},
        "beta_grid": _grid_meta(gmap.beta_axis),
    }
