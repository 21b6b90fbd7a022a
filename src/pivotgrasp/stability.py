"""Stable-region computation over the grasp configuration space.

A configuration (l_a, alpha, beta) is stable when the selected LP is
feasible: `force_balance` asks whether the contacts can cancel gravity,
`form_closure` whether they immobilise the object outright. Sweeps grid a
plane of configurations; `beta_upper_bound` locates the tilt at which force
balance is first lost.

This module decides; `lp` only computes. One cell (`is_stable`) is decided
by the LP certificate. Every other decision reads the cell's cone score
(`lp.product_scores` for many cells, each chunk's basis one product of a
coefficient table, `lp.cone_score` for one) and applies one band rule: a
score farther than `lp.CONE_BAND` from zero is decided by its sign, and
every other cell, NaN scores included, goes to `is_stable`. So a grid gives
exactly the answers of `is_stable` cell by cell. Grids go through
`stable_cells`. `beta_upper_bound` is one fixed procedure: a 1 degree coarse
scan over [0, 90] degrees through the kernel body of `stable_cells`, then
bisection of each bracket to 1e-4 rad, each step decided by the scalar score
under the same rule.

Both map kinds are one type, `GridMap`, filled by one sweep body: a region
map puts alpha down its rows at fixed l_a, a grasp-plane map puts l_a down
its rows at fixed alpha, and both run beta across. `RegionMap` and
`GraspPlaneMap` are names for that type.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from . import lp
from .geometry import HALF_PI, GraspConfig, ObjectSpec, validate_config
from .lp import solve_force_balance, solve_form_closure
from .wrenches import FrictionSet, Wrench, _edge_wrenches, basis_coefficients, basis_features, contact_wrench_basis

MODES = ("force_balance", "form_closure")


# A grid point this many steps past its stop still counts as the stop, so
# a step that divides the range ends on it despite rounding in the division.
_GRID_TOL = 1e-9


def degree_grid(start_deg: float, stop_deg: float, step_deg: float) -> tuple[float, ...]:
    """Degree grid `start + i * step` for every i >= 0 up to `stop` inclusive, in radians."""
    if not (math.isfinite(step_deg) and step_deg > 0):
        raise ValueError(f"grid step must be positive and finite, got {step_deg}")
    n = math.floor((stop_deg - start_deg) / step_deg + _GRID_TOL)
    return tuple(math.radians(start_deg + i * step_deg) for i in range(n + 1))


def default_alpha_grid(step_deg: float = 0.5) -> tuple[float, ...]:
    """Alpha grid: every multiple of the step inside (0, 90) degrees, endpoints excluded."""
    # A stop below 90 by twice the tolerance leaves a multiple at 90 out.
    return degree_grid(step_deg, 90.0 - 2 * _GRID_TOL * step_deg, step_deg)


def default_beta_grid(step_deg: float = 0.5) -> tuple[float, ...]:
    """Beta grid: every multiple of the step inside [0, 90] degrees inclusive.

    A last point that the conversion rounds past 90 degrees is 90 degrees.
    """
    grid = degree_grid(0.0, 90.0, step_deg)
    return grid[:-1] + (min(grid[-1], HALF_PI),)


DEFAULT_LA_FAMILY = (0.5, 0.6, 0.7, 0.8, 0.9)

# Force balance is decided against the direction of gravity: feasibility
# does not depend on the weight, and the certificate's absolute tolerances
# would make it depend on the mass if the weight were the target.
UNIT_GRAVITY = Wrench(0.0, 0.0, -1.0)
# The direction the contact cone must hold for force balance: -UNIT_GRAVITY,
# and its constant column of a `basis_coefficients` table.
_FORCE_BALANCE_TARGET = UNIT_GRAVITY.scaled(-1.0).as_tuple()
_FORCE_BALANCE_COLUMN = np.reshape(_FORCE_BALANCE_TARGET, (3, 1, 1)) * np.eye(1, 8)


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


def _stable_at(obj, friction, l_a, alpha, beta, mode, delta) -> bool:
    """`is_stable` at one cell given by its contact depth delta."""
    return is_stable(obj, GraspConfig(l_a=l_a, alpha=alpha, beta=beta, delta=delta), friction, mode)


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
    in range that scalar run answers the first cell. The others are decided
    by their kernel scores, or by `is_stable` within the band.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    axes = [np.asarray(v, dtype=float) for v in (l_a, alpha, beta)]
    shape = np.broadcast_shapes(*(v.shape for v in axes))
    if math.prod(shape) == 0:
        return np.zeros(shape, dtype=bool)

    la, al, be = axes
    # Ranges are checked per axis; cells are formed only to find the first that fails.
    ok_la, ok_al, ok_be = (0 < la) & (la <= 1), (0 < al) & (al < HALF_PI), (0 <= be) & (be <= HALF_PI)
    first = 0
    if not (ok_la.all() and ok_al.all() and ok_be.all()):
        first = int(np.argmin((ok_la & ok_al & ok_be).ravel()))
    first_stable = _stable_at(obj, friction, *_cell(axes, shape, first), mode, delta)
    stable = _kernel_cells(obj, friction, axes, shape, mode, delta)
    stable[first] = first_stable
    return stable.reshape(shape)


def _cell(axes, shape, i: int) -> tuple[float, float, float]:
    """(l_a, alpha, beta) of cell `i`, in C order, of the broadcast axes."""
    index = np.unravel_index(i, shape)
    # j % n is the index j along an axis's own dimensions and 0 along its broadcast ones.
    return tuple(float(v[tuple(j % n for j, n in zip(index[len(shape) - v.ndim:], v.shape))]) for v in axes)


def _kernel_cells(obj, friction, axes, shape, mode, delta) -> np.ndarray:
    """Flat C-order stability of in-range broadcast axes: a score's sign off `lp.CONE_BAND`, else `is_stable`."""
    score = _cell_scores(obj, friction, axes, mode, delta)
    stable = score > 0
    for i in np.flatnonzero(~((score > lp.CONE_BAND) | (score < -lp.CONE_BAND))).tolist():
        stable[i] = _stable_at(obj, friction, *_cell(axes, shape, i), mode, delta)
    return stable


def _cell_scores(obj, friction, axes, mode, delta) -> np.ndarray:
    """Flat C-order kernel scores of broadcast axes; form closure's target column is minus the edges' sum."""
    coef = basis_coefficients(obj, friction, delta)
    target = _FORCE_BALANCE_COLUMN if mode == "force_balance" else -coef.sum(axis=1, keepdims=True)
    return lp.product_scores(np.concatenate([coef, target], axis=1), *basis_features(*axes), obj.a)


@dataclass(frozen=True)
class GridMap:
    """Boolean feasibility grid over (row axis, beta) with one parameter fixed.

    A region map (`region_sweep`) has alpha down its rows and fixes l_a. A
    grasp-plane map (`grasp_plane_sweep`) has l_a down its rows and fixes
    alpha; it is the companion map for overlaying simulated grasp
    trajectories, whose samples live in that plane.
    """

    mode: str
    fixed: float
    delta: float
    friction: FrictionSet
    row_axis: tuple[float, ...]
    beta_axis: tuple[float, ...]
    feasible: np.ndarray  # shape (len(row_axis), len(beta_axis)), bool

    def __post_init__(self):
        if self.feasible.shape != (len(self.row_axis), len(self.beta_axis)):
            raise ValueError("feasible matrix shape does not match axes")

    def feasible_cells(self) -> int:
        return int(self.feasible.sum())


RegionMap = GridMap
GraspPlaneMap = GridMap


def _check_axis(name: str, axis, inside) -> np.ndarray:
    """`axis` as a float array; rejects it empty, with a value (NaN included) outside the mask `inside`, or non-increasing."""
    values = np.asarray(axis, dtype=float)
    if values.size == 0:
        raise ValueError(f"{name} axis is empty")
    outside = np.flatnonzero(~inside(values))
    if outside.size:
        raise ValueError(f"{name} axis value {float(values[outside[0]])!r} lies outside its range")
    if (values[1:] <= values[:-1]).any():
        raise ValueError(f"{name} axis must be strictly increasing")
    return values


def _grid_sweep(obj, friction, mode, delta, l_a, alpha, fixed, row_axis, beta_axis) -> GridMap:
    """`stable_cells` over a checked row axis against a beta axis.

    One of `l_a` and `alpha` is the row axis as a column, the other the
    fixed value. The axes are checked, so a ConfigError can only come from
    a parameter all cells share (the fixed value or `delta`), and it names
    that parameter.
    """
    betas = _check_axis("beta", beta_axis, lambda v: (0.0 <= v) & (v <= HALF_PI))
    feasible = stable_cells(obj, friction, l_a, alpha, betas[None, :], mode, delta=delta)
    return GridMap(mode, fixed, delta, friction, tuple(row_axis), tuple(beta_axis), feasible)


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
) -> GridMap:
    """Evaluate stability on the full (alpha, beta) grid at fixed l_a.

    The grid is evaluated in one batch in this process. `workers` is
    accepted for compatibility and starts no processes; the result never
    depends on it. An `l_a` or `delta` out of range raises the ConfigError
    that names it, as `is_stable` does.
    """
    alphas = _check_axis("alpha", alpha_grid, lambda v: (0.0 < v) & (v < HALF_PI))
    return _grid_sweep(obj, friction, mode, delta, l_a, alphas[:, None], l_a, alpha_grid, beta_grid)


def grasp_plane_sweep(
    obj: ObjectSpec,
    friction: FrictionSet,
    alpha: float,
    la_grid: tuple[float, ...],
    beta_grid: tuple[float, ...],
    mode: str = "force_balance",
    *,
    delta: float,
) -> GridMap:
    """Evaluate stability over (l_a, beta) at fixed alpha.

    Batched like `region_sweep`. An `alpha` or `delta` out of range raises
    the ConfigError that names it.
    """
    las = _check_axis("l_a", la_grid, lambda v: (0.0 < v) & (v <= 1.0))
    return _grid_sweep(obj, friction, mode, delta, las[:, None], alpha, alpha, la_grid, beta_grid)


@dataclass(frozen=True)
class BetaBound:
    """Result of the beta upper-bound search.

    status is one of "finite" (value holds the first feasible-to-infeasible
    transition), "not_finite" (force balance holds through 90 degrees) and
    "infeasible_at_start" (already infeasible at beta = 0). When several
    transitions appear during coarse bracketing they are all listed and the
    first is the value.
    """

    status: str
    transitions: tuple[float, ...] = ()

    @property
    def value(self) -> float | None:
        return self.transitions[0] if self.transitions else None

    @property
    def finite(self) -> bool:
        return self.status == "finite"


# The bound's fixed procedure: a 1 degree coarse grid that ends on exactly
# pi/2, then bisection of each bracket until it is no wider than 1e-4 / 4 rad.
_BOUND_BETAS = np.array(default_beta_grid(1.0))
_BOUND_WIDTH = 1e-4 / 4


def beta_upper_bound(
    obj: ObjectSpec, friction: FrictionSet, l_a: float, alpha: float, *, delta: float
) -> BetaBound:
    """Largest tilt up to which force balance holds, for fixed (l_a, alpha).

    Brackets feasibility transitions on a 1 degree grid over [0, 90]
    degrees, evaluated as one batch, then bisects each bracket until it is
    no wider than 1e-4 / 4 radians; each transition is the midpoint of its
    final bracket. An `l_a`, `alpha` or `delta` out of range raises the
    ConfigError of the cell at beta = 0.

    Each bisection step is decided by the cone score of the cell's scalar
    basis (`lp.cone_score`) and goes to `is_stable` only when that score
    lies within `lp.CONE_BAND` of zero or is NaN, as a batched cell would.
    """
    validate_config(GraspConfig(l_a=l_a, alpha=alpha, beta=0.0, delta=delta), obj)
    betas = _BOUND_BETAS
    axes = [np.asarray(l_a, dtype=float), np.asarray(alpha, dtype=float), betas]
    coarse_ok = _kernel_cells(obj, friction, axes, betas.shape, "force_balance", delta)
    if not coarse_ok[0]:
        return BetaBound("infeasible_at_start")

    k = np.flatnonzero(coarse_ok[:-1] & ~coarse_ok[1:])
    if k.size == 0:
        return BetaBound("not_finite")
    transitions = []
    for lo, hi in zip(betas[k].tolist(), betas[k + 1].tolist()):
        while hi - lo > _BOUND_WIDTH:
            mid = 0.5 * (lo + hi)
            if _stable_by_score(obj, friction, l_a, alpha, mid, delta):
                lo = mid
            else:
                hi = mid
        transitions.append(0.5 * (lo + hi))
    return BetaBound("finite", tuple(transitions))


def _stable_by_score(obj, friction, l_a, alpha, beta, delta) -> bool:
    """Force balance at one in-range cell: its cone score, or `is_stable` inside the band."""
    edges = _edge_wrenches(math.sin, math.cos, obj, friction, l_a, alpha, beta, delta)
    score = lp.cone_score(edges, _FORCE_BALANCE_TARGET, obj.a)
    if abs(score) > lp.CONE_BAND:  # the band rule of `_kernel_cells`
        return score > 0
    return _stable_at(obj, friction, l_a, alpha, beta, "force_balance", delta)


def min_alpha(
    obj: ObjectSpec, friction: FrictionSet, l_a: float, beta: float, *, delta: float
) -> float | None:
    """Smallest alpha of `default_alpha_grid()` with force balance feasible at (l_a, beta), or None."""
    alphas = default_alpha_grid()
    hits = np.flatnonzero(stable_cells(obj, friction, l_a, np.array(alphas), beta, delta=delta))
    return alphas[hits[0]] if hits.size else None


# ---------------------------------------------------------------------------
# Serialization (CSV grid + JSON sidecar) for external plotting
# ---------------------------------------------------------------------------


def _fmt(v: float) -> str:
    """A number with 9 significant digits, as every output file writes it."""
    return f"{v + 0.0:.9g}"  # + 0.0 normalises negative zero


def _json_text(doc) -> str:
    """`doc` as `json.dumps(doc, indent=2)` writes it, plus a newline, every float (numpy floats too) as `_fmt` rounds it."""
    return _json_value(doc, "\n") + "\n"


def _json_value(v, newline: str) -> str:
    """One value of `_json_text`, its lines after the first starting with `newline`."""
    if isinstance(v, (float, np.floating)):
        # A fixed-notation `.9g` string is the repr of the float it rounds to, less any ".0".
        s = _fmt(v)
        if "e" in s or "n" in s:  # an exponent, nan or inf
            return json.dumps(float(s))
        return s if "." in s else s + ".0"
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    inner = newline + "  "
    if isinstance(v, dict):
        items = [f"{encode_basestring_ascii(key)}: {_json_value(item, inner)}" for key, item in v.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    if isinstance(v, (list, tuple)):
        items = [_json_value(item, inner) for item in v]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    return json.dumps(v)  # int, bool, None


def _grid_csv(row_label: str, row_values, gmap: GridMap) -> str:
    """Header row of beta values (deg), first column `row_values`, cells 0/1."""
    lines = [f"{row_label}/beta_deg," + ",".join(_fmt(math.degrees(b)) for b in gmap.beta_axis)]
    for value, row in zip(row_values, gmap.feasible.tolist()):
        lines.append(_fmt(value) + "," + ",".join("1" if c else "0" for c in row))
    return "\n".join(lines) + "\n"


def region_map_csv(rmap: GridMap) -> str:
    """Region map as CSV: header row of beta values (deg), first column alpha (deg), cells 0/1."""
    return _grid_csv("alpha_deg", map(math.degrees, rmap.row_axis), rmap)


def grasp_plane_csv(gmap: GridMap) -> str:
    """Grasp-plane map as CSV: header row of beta values (deg), first column l_a, cells 0/1."""
    return _grid_csv("l_a", gmap.row_axis, gmap)


def _grid_meta(axis_rad: tuple[float, ...]) -> dict:
    return {
        "start_deg": math.degrees(axis_rad[0]),
        "stop_deg": math.degrees(axis_rad[-1]),
        "count": len(axis_rad),
    }


def _map_meta(gmap: GridMap, obj: ObjectSpec, fixed_key: str, fixed, rows_key: str, rows: dict) -> dict:
    """Sidecar content shared by both map kinds, in their common key order."""
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
        fixed_key: fixed,
        "delta_mm": gmap.delta,
        "mode": gmap.mode,
        rows_key: rows,
        "beta_grid": _grid_meta(gmap.beta_axis),
    }


def region_map_meta(rmap: GridMap, obj: ObjectSpec) -> dict:
    """JSON sidecar content describing a region map."""
    meta = _map_meta(rmap, obj, "l_a", rmap.fixed, "alpha_grid", _grid_meta(rmap.row_axis))
    meta["feasible_cells"] = rmap.feasible_cells()
    return meta


def grasp_plane_meta(gmap: GridMap, obj: ObjectSpec) -> dict:
    """JSON sidecar content describing a grasp-plane map."""
    la = gmap.row_axis
    return _map_meta(
        gmap, obj, "alpha_rad", gmap.fixed,
        "la_grid", {"start": la[0], "stop": la[-1], "count": len(la)},
    )
