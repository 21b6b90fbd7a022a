"""Stable-region computation over the grasp configuration space.

A configuration (l_a, alpha, beta) is stable when the selected LP is
feasible: `force_balance` asks whether the contacts can cancel gravity,
`form_closure` whether they immobilise the object outright. Sweeps grid a
plane of configurations; `beta_upper_bound` locates the tilt at which force
balance is first lost.

One cell (`is_stable`) is decided by the dense simplex. Every evaluation of
many cells goes through the batched cone kernel (`lp.cone_membership`),
which decides the cells clear of the cone boundary in one numpy pass while
the simplex answers the rest one by one, so a grid gives exactly the
answers of `is_stable` cell by cell. Grids go through `stable_cells`; the
bisection of `beta_upper_bound` is batched too, deciding several levels of
midpoints of every bracket in one kernel call.

Both map kinds are one type, `GridMap`, filled by one sweep body: a region
map puts alpha down its rows at fixed l_a, a grasp-plane map puts l_a down
its rows at fixed alpha, and both run beta across. `RegionMap` and
`GraspPlaneMap` are names for that type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import HALF_PI, ConfigError, GraspConfig, ObjectSpec, validate_config
from .lp import cone_membership, solve_force_balance, solve_form_closure
from .wrenches import FrictionSet, Wrench, contact_wrench_basis, wrench_basis_grid

MODES = ("force_balance", "form_closure")


class SweepCellError(RuntimeError):
    """A cell evaluation failed; carries the offending (alpha, beta)."""

    def __init__(self, alpha: float, beta: float, cause: Exception):
        super().__init__(f"cell (alpha={alpha!r}, beta={beta!r}) failed: {cause}")
        self.alpha = alpha
        self.beta = beta


def degree_grid(start_deg: float, stop_deg: float, step_deg: float) -> tuple[float, ...]:
    """Inclusive degree grid converted to radians, built from integer multiples."""
    if not (math.isfinite(step_deg) and step_deg > 0):
        raise ValueError(f"grid step must be positive and finite, got {step_deg}")
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


def _stable_at(obj, friction, l_a, alpha, beta, mode, delta) -> bool:
    """`is_stable` at one cell given by its contact depth delta."""
    cfg = GraspConfig(l_a=l_a, alpha=alpha, beta=beta, delta=delta, hole_offset=obj.D / 2 - delta)
    return is_stable(obj, cfg, friction, mode)


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

    in_range = (0 < la) & (la <= 1) & (0 < al) & (al < HALF_PI) & (0 <= be) & (be <= HALF_PI)
    first = int(np.argmin(in_range))  # 0 when all are in range
    first_stable = _stable_at(obj, friction, float(la[first]), float(al[first]), float(be[first]), mode, delta)
    stable = _kernel_cells(obj, friction, la, al, be, mode, delta)
    stable[first] = first_stable
    return stable.reshape(shape)


def _kernel_cells(obj, friction, la, al, be, mode, delta) -> np.ndarray:
    """`is_stable` on flat, equally long arrays of in-range cells.

    The kernel decides the cells clear of the cone boundary; the cells it
    leaves undecided go to `is_stable` one at a time.
    """
    gens = wrench_basis_grid(obj, friction, la, al, be, delta)
    if mode == "force_balance":
        targets = np.broadcast_to(-np.array(UNIT_GRAVITY.as_tuple()), (la.size, 3))
    else:
        targets = -gens.sum(axis=1)
    stable, undecided = cone_membership(gens, targets, obj.a)
    for i in np.flatnonzero(undecided):
        stable[i] = _stable_at(obj, friction, float(la[i]), float(al[i]), float(be[i]), mode, delta)
    return stable


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


def _check_axis(name: str, axis, inside) -> None:
    """Reject an empty or non-increasing axis, or one with a value (NaN included) not `inside`."""
    if not axis:
        raise ValueError(f"{name} axis is empty")
    for v in axis:
        if not inside(v):
            raise ValueError(f"{name} axis value {v!r} lies outside its range")
    if any(b <= a for a, b in zip(axis, axis[1:])):
        raise ValueError(f"{name} axis must be strictly increasing")


def _grid_sweep(obj, friction, mode, delta, l_a, alpha, fixed, row_axis, beta_axis) -> GridMap:
    """`stable_cells` over a checked row axis against a beta axis.

    One of `l_a` and `alpha` is the row axis as a column, the other the
    fixed value. A ConfigError can then only come from the parameters all
    cells share, so it is reported as a SweepCellError at the first cell.
    """
    _check_axis("beta", beta_axis, lambda v: 0.0 <= v <= HALF_PI)
    try:
        feasible = stable_cells(obj, friction, l_a, alpha, np.array(beta_axis)[None, :], mode, delta=delta)
    except ConfigError as e:
        raise SweepCellError(float(np.ravel(alpha)[0]), beta_axis[0], e) from e
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
    depends on it. A ConfigError from the grid's shared parameters is raised
    as a SweepCellError at the grid's first cell.
    """
    _check_axis("alpha", alpha_grid, lambda v: 0.0 < v < HALF_PI)
    return _grid_sweep(
        obj, friction, mode, delta, l_a, np.array(alpha_grid)[:, None], l_a, alpha_grid, beta_grid
    )


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
) -> GridMap:
    """Evaluate stability over (l_a, beta) at fixed alpha.

    Batched like `region_sweep`; `workers` starts no processes. A
    ConfigError is raised as a SweepCellError at (alpha, first beta).
    """
    _check_axis("l_a", la_grid, lambda v: 0.0 < v <= 1.0)
    return _grid_sweep(
        obj, friction, mode, delta, np.array(la_grid)[:, None], alpha, alpha, la_grid, beta_grid
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


# Levels of midpoints decided per kernel call in the bound's bisection: a
# tree of 2**5 - 1 = 31 midpoints per bracket. Two calls cover the 10
# halvings that take a 1 degree bracket below the default resolution / 4.
_BISECT_LEVELS = 5


def _midpoint_tree(lo: float, hi: float, tol: float) -> dict[int, float]:
    """The midpoints the bisection loop can visit in its next `_BISECT_LEVELS` steps.

    Keyed in heap order: node i splits its interval at its midpoint into
    the unstable half, node 2i + 1, and the stable half, node 2i + 2. Only
    intervals the loop would still split, `hi - lo > tol`, get a node.
    """
    tree, todo = {}, [(0, lo, hi)]
    while todo:
        i, lo, hi = todo.pop()
        if i < 2**_BISECT_LEVELS - 1 and hi - lo > tol:
            tree[i] = mid = 0.5 * (lo + hi)
            todo += [(2 * i + 1, lo, mid), (2 * i + 2, mid, hi)]
    return tree


def _bisect(obj, friction, l_a, alpha, delta, brackets, tol: float) -> list[tuple[float, float]]:
    """Bisect every force-balance bracket (lo, hi) until hi - lo <= tol.

    This is the loop `mid = 0.5 * (lo + hi)`, keep the stable half, while
    `hi - lo > tol`, run for all brackets together: each round decides the
    midpoint trees of all brackets in one kernel call and walks each
    bracket down its decided path. The midpoints are the ones the scalar
    loop visits, computed by the same float operation, so the result is
    bit for bit the same.
    """
    while True:
        trees = [_midpoint_tree(lo, hi, tol) for lo, hi in brackets]
        betas = np.array([m for tree in trees for m in tree.values()])
        if betas.size == 0:
            return brackets
        ok = iter(_kernel_cells(
            obj, friction, np.full(betas.size, float(l_a)), np.full(betas.size, float(alpha)),
            betas, "force_balance", delta,
        ).tolist())
        walked = []
        for (lo, hi), tree in zip(brackets, trees):
            stable = {i: next(ok) for i in tree}
            i = 0
            while i in tree:
                if stable[i]:
                    lo, i = tree[i], 2 * i + 2
                else:
                    hi, i = tree[i], 2 * i + 1
            walked.append((lo, hi))
        brackets = walked


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
    one batch, then bisects each bracket down to `resolution` radians.
    The bisection is batched: every kernel call decides the next five
    levels of midpoints of all brackets at once, with the simplex for
    cells near the cone boundary, so the bound is the one a scalar loop of
    `is_stable` calls finds.
    """
    betas = np.array(degree_grid(0.0, 90.0, coarse_step_deg))
    coarse_ok = stable_cells(obj, friction, l_a, alpha, betas, delta=delta)
    if not coarse_ok[0]:
        return BetaBound(value=None, finite=False, status="infeasible_at_start")

    k = np.flatnonzero(coarse_ok[:-1] & ~coarse_ok[1:])
    if k.size == 0:
        return BetaBound(value=None, finite=False, status="not_finite")
    brackets = list(zip(betas[k].tolist(), betas[k + 1].tolist()))
    brackets = _bisect(obj, friction, l_a, alpha, delta, brackets, resolution / 4)
    transitions = tuple(0.5 * (lo + hi) for lo, hi in brackets)
    return BetaBound(value=transitions[0], finite=True, status="finite", transitions=transitions)


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
    """A number with 9 significant digits, as every output file writes it."""
    return f"{v + 0.0:.9g}"  # + 0.0 normalises negative zero


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
    degs = [math.degrees(v) for v in axis_rad]
    return {
        "start_deg": float(_fmt(degs[0])),
        "stop_deg": float(_fmt(degs[-1])),
        "count": len(degs),
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
        "delta_mm": float(_fmt(gmap.delta)),
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
        gmap, obj, "alpha_rad", float(_fmt(gmap.fixed)),
        "la_grid", {"start": la[0], "stop": la[-1], "count": len(la)},
    )
