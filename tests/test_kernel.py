"""Batched cone kernel against the per-cell simplex.

Every multi-cell caller answers through `stability.stable_cells`, whose
kernel decides the cells clear of the cone boundary. These tests compare the
kernel's decisions, and the callers' outputs, with `is_stable` and the LP
solvers cell by cell; each comparison must show zero disagreements. Run
with -s to see the band-fallback counts.
"""

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from pivotgrasp import lp, stability
from pivotgrasp.geometry import GraspConfig, ObjectSpec, hole_contact_depth, hole_contact_offset, load_catalog
from pivotgrasp.lp import cone_membership, cone_scores, solve_force_balance
from pivotgrasp.maneuver import linear_la_schedule, simulate_grasp_trajectory
from pivotgrasp.stability import (
    DEFAULT_LA_FAMILY,
    MODES,
    BetaBound,
    beta_upper_bound,
    default_alpha_grid,
    default_beta_grid,
    degree_grid,
    grasp_plane_sweep,
    is_stable,
    min_alpha,
    region_sweep,
    stable_cells,
)
from pivotgrasp.wrenches import (
    FRICTIONLESS,
    FrictionSet,
    contact_wrench_basis,
    gravity_wrench,
    wrench_basis_grid,
)

BUSHING = ObjectSpec("bushing", a=34.0, b=17.0, D=34.0, d=28.0)
DELTA = 7.202041028867287  # from the 20 mm finger in the 28 mm hole
SETS = {
    "A": FRICTIONLESS,
    "B": FrictionSet(0.0, 0.0, 0.4),
    "C": FrictionSet(0.2, 0.4, 0.4),
}


def cfg_for(obj, delta, l_a, alpha, beta):
    return GraspConfig(l_a=l_a, alpha=alpha, beta=beta, delta=delta)


def targets_for(gens, mode):
    if mode == "force_balance":
        return np.broadcast_to([0.0, 0.0, 1.0], (len(gens), 3))
    return -gens.sum(axis=1)


def kernel_disagreements(obj, gens, mode, expected):
    """(disagreements, band cells) of the raw kernel against `expected`."""
    inside, undecided = cone_membership(gens, targets_for(gens, mode), obj.a)
    return int(np.sum((inside != np.asarray(expected)) & ~undecided)), int(undecided.sum())


def test_kernel_matches_simplex_on_criterion_3_family():
    alphas, betas = default_alpha_grid(2.5), default_beta_grid(2.5)
    disagree = band = maps = cells = 0
    for friction in SETS.values():
        for l_a in DEFAULT_LA_FAMILY:
            gens = wrench_basis_grid(
                BUSHING, friction, l_a, np.array(alphas)[:, None], np.array(betas)[None, :], DELTA
            )
            for mode in MODES:
                scalar = np.array([
                    [is_stable(BUSHING, cfg_for(BUSHING, DELTA, l_a, a, b), friction, mode) for b in betas]
                    for a in alphas
                ])
                d, u = kernel_disagreements(BUSHING, gens, mode, scalar.ravel())
                disagree += d
                band += u
                rmap = region_sweep(BUSHING, friction, l_a, alphas, betas, mode, delta=DELTA)
                disagree += int(np.sum(rmap.feasible != scalar))
                maps += 1
                cells += scalar.size
    print(f"criterion-3 family: {maps} maps, {cells} cells, {disagree} disagreements, {band} band cells")
    assert maps == 30 and disagree == 0


def test_kernel_matches_simplex_on_criterion_6_cells():
    # the same 1000 random cells as acceptance criterion 6
    rng = random.Random(20240817)
    gens, expected = [], []
    for _ in range(1000):
        l_a = rng.uniform(0.01, 1.0)
        alpha = rng.uniform(0.005, math.pi / 2 - 0.005)
        beta = rng.uniform(0.0, math.pi / 2)
        friction = FrictionSet(rng.uniform(0.0, 0.6), rng.uniform(0.0, 0.6), rng.uniform(0.0, 0.6))
        basis = contact_wrench_basis(BUSHING, cfg_for(BUSHING, DELTA, l_a, alpha, beta), friction)
        grid = wrench_basis_grid(BUSHING, friction, l_a, alpha, beta, DELTA)
        assert grid[0] == pytest.approx(np.array(basis.columns()), rel=1e-12, abs=1e-12)
        gens.append(grid[0])
        expected.append(solve_force_balance(basis, gravity_wrench(BUSHING)).feasible)
    disagree, band = kernel_disagreements(BUSHING, np.array(gens), "force_balance", expected)
    print(f"criterion-6 cells: 1000 cells, {disagree} disagreements, {band} band cells")
    assert disagree == 0


def test_kernel_matches_simplex_on_catalog_objects():
    rng = np.random.default_rng(4)
    disagree = band = cells = 0
    for obj, gripper in load_catalog().values():
        delta = hole_contact_depth(obj, hole_contact_offset(gripper, obj))
        for _ in range(4):
            friction = FrictionSet(*rng.uniform(0.0, 0.6, 3))
            l_a = rng.uniform(0.01, 1.0, 150)
            alpha = rng.uniform(0.005, math.pi / 2 - 0.005, 150)
            beta = rng.uniform(0.0, math.pi / 2, 150)
            gens = wrench_basis_grid(obj, friction, l_a, alpha, beta, delta)
            for mode in MODES:
                scalar = [
                    is_stable(obj, cfg_for(obj, delta, *cell), friction, mode)
                    for cell in zip(l_a, alpha, beta)
                ]
                d, u = kernel_disagreements(obj, gens, mode, scalar)
                disagree += d
                band += u
                cells += len(scalar)
    print(f"catalog cells: {cells} cells, {disagree} disagreements, {band} band cells")
    assert disagree == 0


def test_cells_at_the_tilt_bound_match_simplex():
    # 1e-6 rad steps across each bound: some cells fall in the band
    disagree = band = 0
    for friction, l_a, alpha_deg in ((SETS["B"], 0.9, 1.0), (SETS["C"], 0.9, 18.0), (SETS["B"], 0.4, 60.0)):
        alpha = math.radians(alpha_deg)
        bound = beta_upper_bound(BUSHING, friction, l_a, alpha, delta=DELTA)
        betas = bound.value + np.linspace(-1e-4, 1e-4, 201)
        scalar = [is_stable(BUSHING, cfg_for(BUSHING, DELTA, l_a, alpha, b), friction) for b in betas]
        gens = wrench_basis_grid(BUSHING, friction, l_a, alpha, betas, DELTA)
        d, u = kernel_disagreements(BUSHING, gens, "force_balance", scalar)
        disagree += d + int(np.sum(stable_cells(BUSHING, friction, l_a, alpha, betas, delta=DELTA) != scalar))
        band += u
    print(f"tilt-bound cells: 603 cells, {disagree} disagreements, {band} band cells")
    assert disagree == 0 and band > 0


def test_band_cells_get_the_simplex_answer(monkeypatch):
    # A band wider than any score sends every cell to the simplex.
    alphas, betas = degree_grid(5.0, 85.0, 10.0), degree_grid(0.0, 90.0, 10.0)
    for mode in MODES:
        kernel = region_sweep(BUSHING, SETS["C"], 0.7, alphas, betas, mode, delta=DELTA).feasible
        with monkeypatch.context() as m:
            m.setattr(lp, "CONE_BAND", math.inf)
            simplex = region_sweep(BUSHING, SETS["C"], 0.7, alphas, betas, mode, delta=DELTA).feasible
        assert kernel.any() and np.array_equal(kernel, simplex)


def test_scores_on_known_cones():
    octant = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]] * 2)
    gens = np.array([octant] * 4)
    targets = np.array([[1.0, 1, 1], [-1.0, 1, 1], [0.0, 0, 0], [2.0, 0, 0]])
    score = cone_scores(gens, targets, 1.0)
    assert score[0] == pytest.approx(1 / math.sqrt(3))
    assert score[1] < -0.5
    assert score[2] == math.inf  # the zero target is inside every cone
    assert score[3] == pytest.approx(0.0)  # on an edge: left to the simplex
    flat = np.array([[[1.0, 0, 0], [0, 1.0, 0], [1.0, 1, 0]] * 2])
    assert math.isnan(cone_scores(flat, np.array([[1.0, 1, 0]]), 1.0)[0])
    inside, undecided = cone_membership(flat, np.array([[1.0, 1, 0]]), 1.0)
    assert undecided[0] and not inside[0]


@pytest.mark.parametrize("n", [1, 511, 512, 513, 3 * 512 + 7])
def test_batched_scores_equal_scores_computed_alone(n):
    # A zero target (+inf) and an all-singular cell (NaN) sit just after the
    # first full chunk, where a row left over from it would show.
    rng = np.random.default_rng(n)
    gens = wrench_basis_grid(
        BUSHING, SETS["C"], rng.uniform(0.01, 1.0, n), rng.uniform(0.005, math.pi / 2 - 0.005, n),
        rng.uniform(0.0, math.pi / 2, n), DELTA,
    )
    chunk = lp._CHUNK
    if n > chunk + 1:
        gens[chunk + 1] = [[1.0, 0, 0], [0, 1.0, 0], [1.0, 1, 0]] * 2
    for mode in MODES:
        targets = np.array(targets_for(gens, mode))
        if n > chunk + 1:
            targets[chunk] = 0.0
            targets[chunk + 1] = [1.0, 1, 0]
        batched = cone_scores(gens, targets, BUSHING.a)
        alone = np.concatenate([cone_scores(gens[i:i + 1], targets[i:i + 1], BUSHING.a) for i in range(n)])
        assert batched.tobytes() == alone.tobytes()
        if n > chunk + 1:
            assert batched[chunk] == math.inf and math.isnan(batched[chunk + 1])


def test_scalar_score_equals_the_kernel_score():
    # 5,000 random catalog cells, frictionless and random friction, against
    # both targets and a zero target, then an all-singular cell: the scalar
    # score must be the kernel's, NaN where the kernel's is NaN.
    rng = np.random.default_rng(808)
    catalog = list(load_catalog().values())
    cells = 0
    for n in range(500):
        obj, gripper = catalog[n % len(catalog)]
        delta = hole_contact_depth(obj, hole_contact_offset(gripper, obj))
        friction = FRICTIONLESS if n % 3 == 0 else FrictionSet(*rng.uniform(0.0, 0.6, 3))
        gens = wrench_basis_grid(
            obj, friction, rng.uniform(0.01, 1.0, 10), rng.uniform(0.005, math.pi / 2 - 0.005, 10),
            rng.uniform(0.0, math.pi / 2, 10), delta,
        )
        for targets in (targets_for(gens, "force_balance"), targets_for(gens, "form_closure"), np.zeros((10, 3))):
            kernel = cone_scores(gens, targets, obj.a)
            for cell, target, want in zip(gens.tolist(), targets.tolist(), kernel.tolist()):
                got = lp.cone_score(cell, target, obj.a)
                assert got == want or (math.isnan(got) and math.isnan(want)), (n, got, want)
        cells += len(gens)
    flat = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]] * 2
    assert math.isnan(cone_scores(np.array([flat]), np.array([[1.0, 1.0, 0.0]]), 1.0)[0])
    assert math.isnan(lp.cone_score(flat, (1.0, 1.0, 0.0), 1.0))
    assert lp.cone_score(flat, (0.0, 0.0, 0.0), 1.0) == math.inf
    # NaN or infinite inputs and a zero generator make the kernel's arithmetic NaN.
    octant = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]] * 2
    ones = (1.0, 1.0, 1.0)
    for cell, target in (
        ([[math.nan, 0.0, 1.0]] + octant[1:], ones), (octant, (math.nan, 1.0, 1.0)),
        ([[math.inf, 0.0, 1.0]] + octant[1:], ones), ([[0.0, 0.0, 0.0]] + octant[1:], ones),
    ):
        with np.errstate(invalid="ignore"):
            assert math.isnan(cone_scores(np.array([cell]), np.array([target]), 1.0)[0])
        assert math.isnan(lp.cone_score(cell, target, 1.0))
    assert cells == 5000
    print(f"scalar scores: {cells} cells x 3 targets equal to the kernel's")


def test_grasp_plane_sweep_matches_cells():
    la_grid, beta_grid = (0.3, 0.5, 0.7, 0.9), degree_grid(0.0, 90.0, 6.0)
    for mode in MODES:
        gmap = grasp_plane_sweep(BUSHING, SETS["C"], math.pi / 10, la_grid, beta_grid, mode, delta=DELTA)
        scalar = [
            [is_stable(BUSHING, cfg_for(BUSHING, DELTA, la, math.pi / 10, b), SETS["C"], mode) for b in beta_grid]
            for la in la_grid
        ]
        assert gmap.feasible.tolist() == scalar


def test_trajectory_matches_cells():
    beta_grid = degree_grid(0.0, 90.0, 2.0)
    schedule = linear_la_schedule(0.9, 0.65)
    traj = simulate_grasp_trajectory(BUSHING, SETS["C"], math.pi / 10, schedule, beta_grid, delta=DELTA)
    scalar = [
        is_stable(BUSHING, cfg_for(BUSHING, DELTA, schedule(b), math.pi / 10, b), SETS["C"])
        for b in beta_grid
    ]
    assert [s.stable for s in traj.samples] == scalar
    assert any(scalar) and not all(scalar)


def test_min_alpha_matches_scan():
    for friction in SETS.values():
        for l_a, beta in ((0.5, 0.0), (0.9, 0.0), (0.7, 0.6)):
            scan = next(
                (a for a in default_alpha_grid()
                 if is_stable(BUSHING, cfg_for(BUSHING, DELTA, l_a, a, beta), friction)),
                None,
            )
            assert min_alpha(BUSHING, friction, l_a, beta, delta=DELTA) == scan


def _scalar_beta_bound(obj, friction, l_a, alpha, delta, resolution=1e-4):
    """The bound's definition with one `is_stable` call per coarse cell."""

    def feasible(beta):
        return is_stable(obj, cfg_for(obj, delta, l_a, alpha, beta), friction)

    if not feasible(0.0):
        return "infeasible_at_start", ()
    transitions, coarse = [], degree_grid(0.0, 90.0, 1.0)
    for lo, hi in zip(coarse, coarse[1:]):
        if feasible(lo) and not feasible(hi):
            while hi - lo > resolution / 4:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if feasible(mid) else (lo, mid)
            transitions.append(0.5 * (lo + hi))
    return ("finite" if transitions else "not_finite"), tuple(transitions)


@pytest.mark.parametrize("l_a, alpha_deg", [(0.9, 1.0), (0.3, 61.0), (0.4, 10.0), (0.4, 60.0), (0.8, 30.0)])
def test_beta_upper_bound_matches_scalar_definition(l_a, alpha_deg):
    bound = beta_upper_bound(BUSHING, SETS["B"], l_a, math.radians(alpha_deg), delta=DELTA)
    status, transitions = _scalar_beta_bound(BUSHING, SETS["B"], l_a, math.radians(alpha_deg), DELTA)
    assert (bound.status, bound.transitions) == (status, transitions)


def _loop_beta_bound(obj, friction, l_a, alpha, *, delta):
    """The bound with its bisection as a scalar loop, one `is_stable` call per step."""
    coarse = degree_grid(0.0, 90.0, 1.0)
    coarse_ok = stable_cells(obj, friction, l_a, alpha, np.array(coarse), delta=delta)
    if not coarse_ok[0]:
        return BetaBound("infeasible_at_start")
    transitions = []
    for k in np.flatnonzero(coarse_ok[:-1] & ~coarse_ok[1:]):
        lo, hi = coarse[k], coarse[k + 1]
        while hi - lo > 1e-4 / 4:
            mid = 0.5 * (lo + hi)
            if is_stable(obj, cfg_for(obj, delta, l_a, alpha, mid), friction):
                lo = mid
            else:
                hi = mid
        transitions.append(0.5 * (lo + hi))
    if not transitions:
        return BetaBound("not_finite")
    return BetaBound("finite", tuple(transitions))


# Bushing bounds of every kind: band cells near the bound (the first three,
# as in test_cells_at_the_tilt_bound_match_simplex), two transitions, not
# finite, infeasible at the start.
BOUND_CASES = [
    (SETS["B"], 0.9, 1.0), (SETS["C"], 0.9, 18.0), (SETS["B"], 0.4, 60.0),
    (SETS["B"], 0.3, 61.0), (SETS["B"], 0.4, 10.0),
]


def test_batched_bisection_matches_the_scalar_loop():
    rng = random.Random(606)
    catalog = list(load_catalog().values())
    queries = [(BUSHING, DELTA, friction, l_a, math.radians(alpha_deg))
               for friction, l_a, alpha_deg in BOUND_CASES]
    for _ in range(1200):
        obj, gripper = rng.choice(catalog)
        delta = hole_contact_depth(obj, hole_contact_offset(gripper, obj))
        friction = FrictionSet(*(rng.uniform(0.0, 0.6) for _ in range(3)))
        queries.append((obj, delta, friction, rng.uniform(0.05, 1.0), math.radians(rng.uniform(0.5, 89.5))))
    kinds = {}
    for obj, delta, friction, l_a, alpha in queries:
        bound = beta_upper_bound(obj, friction, l_a, alpha, delta=delta)
        assert bound == _loop_beta_bound(obj, friction, l_a, alpha, delta=delta)
        kind = f"{bound.status}{len(bound.transitions) or ''}"
        kinds[kind] = kinds.get(kind, 0) + 1
    print(f"batched bisection: {len(queries)} bounds equal to the scalar loop's: {sorted(kinds.items())}")
    assert kinds.keys() == {"finite1", "finite2", "not_finite", "infeasible_at_start"}


def test_bisection_band_path_matches_the_scalar_loop(monkeypatch):
    # A band wider than any score sends every midpoint to the simplex.
    monkeypatch.setattr(lp, "CONE_BAND", math.inf)
    for friction, l_a, alpha_deg in BOUND_CASES:
        alpha = math.radians(alpha_deg)
        bound = beta_upper_bound(BUSHING, friction, l_a, alpha, delta=DELTA)
        assert bound == _loop_beta_bound(BUSHING, friction, l_a, alpha, delta=DELTA)


def test_a_clear_bound_asks_the_simplex_nothing(monkeypatch):
    # Every coarse cell and bisection step of this bound is clear of the
    # band, so no cell reaches the simplex.
    calls = []

    def counted(fn):
        return lambda *args, **kwargs: calls.append(fn.__name__) or fn(*args, **kwargs)

    monkeypatch.setattr(stability, "_stable_at", counted(stability._stable_at))
    monkeypatch.setattr(stability, "is_stable", counted(stability.is_stable))
    bound = beta_upper_bound(BUSHING, SETS["B"], 0.9, math.radians(18.0), delta=DELTA)
    assert bound.status == "finite" and calls == []


def test_force_balance_does_not_depend_on_mass():
    alphas, betas = default_alpha_grid(2.0), default_beta_grid(2.0)
    for mass in (1e-7, 1.0, 1e7):
        obj = replace(BUSHING, mass=mass)
        rmap = region_sweep(obj, FRICTIONLESS, 0.7, alphas, betas, delta=7.202)
        cells = sum(
            is_stable(obj, cfg_for(obj, 7.202, 0.7, a, b), FRICTIONLESS) for a in alphas for b in betas
        )
        assert rmap.feasible.size == 2024
        assert rmap.feasible_cells() == cells == 1030


def test_stable_cells_raises_the_first_invalid_cell():
    # beta runs past pi/2 at the end; the error is that cell's, as in a loop
    betas = np.array([0.0, 1.0, 1.6, 1.7])
    with pytest.raises(ValueError, match="beta_out_of_range"):
        stable_cells(BUSHING, SETS["C"], 0.7, 0.3, betas, delta=DELTA)
    with pytest.raises(ValueError, match="l_a_out_of_range"):
        stable_cells(BUSHING, SETS["C"], np.array([0.9, 0.5, 0.0]), 0.3, 0.2, delta=DELTA)
    assert stable_cells(BUSHING, SETS["C"], 0.7, 0.3, np.array([]), delta=DELTA).shape == (0,)
