"""Stable-region sweep and tilt-bound tests (coarse grids for speed)."""

import json
import math

import numpy as np
import pytest

from pivotgrasp.geometry import ConfigError, GraspConfig, ObjectSpec, hole_contact_depth, hole_contact_offset, load_catalog
from pivotgrasp.stability import (
    GridMap,
    beta_upper_bound,
    default_alpha_grid,
    default_beta_grid,
    degree_grid,
    grasp_plane_csv,
    grasp_plane_meta,
    grasp_plane_sweep,
    is_stable,
    min_alpha,
    region_map_csv,
    region_map_meta,
    region_sweep,
    stable_cells,
)
from pivotgrasp.wrenches import FRICTIONLESS, FrictionSet

BUSHING = ObjectSpec("bushing", a=34.0, b=17.0, D=34.0, d=28.0)
DELTA = 7.2
SET_B = FrictionSet(0.0, 0.0, 0.4)
SET_C = FrictionSet(0.2, 0.4, 0.4)


def cfg_for(l_a, alpha, beta):
    return GraspConfig(l_a=l_a, alpha=alpha, beta=beta, delta=DELTA)


class TestIsStable:
    def test_frictionless_flat_has_no_closure(self):
        for alpha_deg in (10, 30, 50, 70):
            cfg = cfg_for(0.7, math.radians(alpha_deg), 0.0)
            assert not is_stable(BUSHING, cfg, FRICTIONLESS, "form_closure")

    def test_full_friction_reference_grasp(self):
        cfg = cfg_for(0.9, math.pi / 10, 0.0)
        assert is_stable(BUSHING, cfg, SET_C, "force_balance")
        assert not is_stable(BUSHING, cfg, FRICTIONLESS, "force_balance")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            is_stable(BUSHING, cfg_for(0.5, 0.5, 0.0), SET_C, "levitation")

    def test_stable_cells_rejects_an_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            stable_cells(BUSHING, SET_C, 0.5, 0.5, np.zeros(3), "levitation", delta=DELTA)


class TestRegionSweep:
    def test_single_cell_grid(self):
        alpha, beta = math.radians(61.0), math.radians(10.0)
        rmap = region_sweep(BUSHING, SET_B, 0.5, (alpha,), (beta,), delta=DELTA)
        assert rmap.feasible.shape == (1, 1)
        assert rmap.feasible[0, 0] == is_stable(BUSHING, cfg_for(0.5, alpha, beta), SET_B)

    def test_friction_expands_region(self):
        alpha_grid = degree_grid(5.0, 85.0, 5.0)
        beta_grid = degree_grid(0.0, 90.0, 5.0)
        maps = [
            region_sweep(BUSHING, fr, 0.7, alpha_grid, beta_grid, delta=DELTA)
            for fr in (FRICTIONLESS, SET_B, SET_C)
        ]
        assert maps[0].feasible_cells() < maps[1].feasible_cells() < maps[2].feasible_cells()
        # set inclusion cell-for-cell
        assert not np.any(maps[0].feasible & ~maps[1].feasible)
        assert not np.any(maps[1].feasible & ~maps[2].feasible)

    def test_larger_la_reaches_smaller_alpha_but_lower_beta(self):
        alpha_grid = degree_grid(1.0, 89.0, 1.0)
        beta_grid = degree_grid(0.0, 90.0, 2.0)
        small = region_sweep(BUSHING, SET_B, 0.5, alpha_grid, beta_grid, delta=DELTA)
        large = region_sweep(BUSHING, SET_B, 0.9, alpha_grid, beta_grid, delta=DELTA)

        def min_alpha_at_flat(rmap):
            col = rmap.feasible[:, 0]
            return next(i for i in range(len(col)) if col[i])

        def max_beta_any(rmap):
            rows = np.where(rmap.feasible.any(axis=0))[0]
            return rows[-1] if len(rows) else -1

        assert min_alpha_at_flat(large) < min_alpha_at_flat(small)
        assert max_beta_any(large) < max_beta_any(small)

    def test_parallel_evaluation_identical(self):
        alpha_grid = degree_grid(5.0, 85.0, 10.0)
        beta_grid = degree_grid(0.0, 90.0, 10.0)
        seq = region_sweep(BUSHING, SET_C, 0.6, alpha_grid, beta_grid, delta=DELTA, workers=1)
        par = region_sweep(BUSHING, SET_C, 0.6, alpha_grid, beta_grid, delta=DELTA, workers=2)
        assert np.array_equal(seq.feasible, par.feasible)

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            region_sweep(BUSHING, SET_B, 0.5, (0.3, 0.2), (0.0,), delta=DELTA)
        with pytest.raises(ValueError):
            region_sweep(BUSHING, SET_B, 0.5, (0.0,), (0.0,), delta=DELTA)  # alpha = 0 excluded
        with pytest.raises(ValueError):
            region_sweep(BUSHING, SET_B, 0.5, (0.3,), (0.0, math.pi), delta=DELTA)

    def test_cell_errors_carry_coordinates(self):
        with pytest.raises(ConfigError) as err:
            region_sweep(BUSHING, SET_B, 1.5, (0.3,), (0.0,), delta=DELTA)
        assert err.value.errors == ["l_a_out_of_range"]

    def test_default_grids(self):
        alpha = default_alpha_grid()
        beta = default_beta_grid()
        assert len(alpha) == 179 and len(beta) == 181
        assert 0.0 < alpha[0] and alpha[-1] < math.pi / 2
        assert beta[0] == 0.0 and beta[-1] == pytest.approx(math.pi / 2, rel=1e-15)

    @pytest.mark.parametrize("step, alphas, betas", [
        (7.0, range(7, 90, 7), range(0, 91, 7)),
        (20.0, (20, 40, 60, 80), (0, 20, 40, 60, 80)),
        (40.0, (40, 80), (0, 40, 80)),
        (50.0, (50,), (0, 50)),
        (89.0, (89,), (0, 89)),
        (90.0, (), (0, 90)),
        (100.0, (), (0,)),
        (0.7, [round(0.7 * k, 9) for k in range(1, 129)], [round(0.7 * k, 9) for k in range(129)]),
    ])
    def test_default_grids_hold_every_multiple_inside_their_range(self, step, alphas, betas):
        assert [round(math.degrees(a), 9) for a in default_alpha_grid(step)] == list(alphas)
        assert [round(math.degrees(b), 9) for b in default_beta_grid(step)] == list(betas)

    def test_steps_that_divide_the_range_end_on_it(self):
        for m in range(1, 721):
            step = 90.0 / m
            assert len(default_beta_grid(step)) == m + 1
            assert len(default_alpha_grid(step)) == m - 1

    def test_grid_map_rejects_a_matrix_that_does_not_match_its_axes(self):
        with pytest.raises(ValueError, match="shape"):
            GridMap("force_balance", 0.5, DELTA, SET_B, (0.1, 0.2), (0.0,), np.zeros((1, 2), dtype=bool))


class TestBetaUpperBound:
    def test_small_la_survives_full_rotation(self):
        bound = beta_upper_bound(BUSHING, SET_B, 0.3, math.radians(61.0), delta=DELTA)
        assert bound.status == "not_finite"
        assert not bound.finite and bound.value is None

    def test_large_la_has_finite_bound_past_com_crossing(self):
        bound = beta_upper_bound(BUSHING, SET_B, 0.9, math.radians(1.0), delta=DELTA)
        assert bound.status == "finite" and bound.finite
        # the bound can only appear after the centre of mass passes the corner
        assert bound.value > math.atan2(BUSHING.a, BUSHING.b) - 1e-3

    def test_bound_brackets_feasibility(self):
        bound = beta_upper_bound(BUSHING, SET_B, 0.9, math.radians(1.0), delta=DELTA)
        eps = 1e-4
        below = cfg_for(0.9, math.radians(1.0), bound.value - 2 * eps)
        above = cfg_for(0.9, math.radians(1.0), bound.value + 2 * eps)
        assert is_stable(BUSHING, below, SET_B)
        assert not is_stable(BUSHING, above, SET_B)

    def test_infeasible_at_start(self):
        bound = beta_upper_bound(BUSHING, SET_B, 0.4, math.radians(10.0), delta=DELTA)
        assert bound.status == "infeasible_at_start"
        assert bound.value is None and not bound.finite

    def test_transitions_recorded(self):
        bound = beta_upper_bound(BUSHING, SET_B, 0.9, math.radians(1.0), delta=DELTA)
        assert bound.transitions[0] == bound.value

    def test_non_monotone_region_reports_all_transitions(self):
        # Just above the flat-position alpha threshold the region has a
        # narrow infeasible notch right after beta = 0 before resuming, so
        # two transitions appear; the first is returned as the bound.
        bound = beta_upper_bound(BUSHING, SET_B, 0.4, math.radians(60.0), delta=DELTA)
        assert bound.status == "finite"
        assert len(bound.transitions) == 2
        assert math.degrees(bound.transitions[0]) < 5.0
        assert math.degrees(bound.transitions[1]) > 85.0
        assert bound.value == bound.transitions[0]
        # notch interior confirmed unstable, resumed region stable
        assert not is_stable(BUSHING, cfg_for(0.4, math.radians(60.0), math.radians(2.0)), SET_B)
        assert is_stable(BUSHING, cfg_for(0.4, math.radians(60.0), math.radians(8.0)), SET_B)

    def test_coarse_steps_that_do_not_divide_90_degrees_scan_to_90(self):
        # The transition lies in the last degree below 90; the scan must
        # close its last bracket at 90.
        obj, gripper = load_catalog()["mounting_rail"]
        delta = hole_contact_depth(obj, hole_contact_offset(gripper, obj))
        friction = FrictionSet(0.515967917277174, 0.07253397588348384, 0.19961711121607745)
        l_a, alpha = 0.8050390853082878, 1.113451427749811
        assert not is_stable(obj, GraspConfig(l_a, alpha, math.pi / 2, delta), friction)
        bound = beta_upper_bound(obj, friction, l_a, alpha, delta=delta)
        assert bound.status == "finite" and math.degrees(bound.value) == pytest.approx(89.771, abs=1e-3)


class TestMinAlpha:
    def test_matches_direct_scan(self):
        got = min_alpha(BUSHING, SET_B, 0.5, 0.0, delta=DELTA)
        scan = next(
            a for a in default_alpha_grid()
            if is_stable(BUSHING, cfg_for(0.5, a, 0.0), SET_B)
        )
        assert got == scan

    def test_non_increasing_in_la(self):
        values = [
            min_alpha(BUSHING, SET_B, la, 0.0, delta=DELTA)
            for la in (0.5, 0.6, 0.7, 0.8, 0.9)
        ]
        assert all(v is not None for v in values)
        assert all(v2 <= v1 for v1, v2 in zip(values, values[1:]))

    def test_frictionless_flat_none(self):
        for la in (0.3, 0.6, 0.9):
            assert min_alpha(BUSHING, FRICTIONLESS, la, 0.0, delta=DELTA) is None


class TestSerialization:
    def test_region_csv_layout(self):
        rmap = region_sweep(BUSHING, SET_B, 0.5, degree_grid(60.0, 62.0, 1.0),
                            degree_grid(0.0, 2.0, 1.0), delta=DELTA)
        lines = region_map_csv(rmap).strip().split("\n")
        assert lines[0] == "alpha_deg/beta_deg,0,1,2"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "60"
        assert set("".join(first[1:])) <= {"0", "1"}

    def test_region_meta_fields(self):
        rmap = region_sweep(BUSHING, SET_B, 0.5, (math.radians(61.0),), (0.0,), delta=DELTA)
        meta = region_map_meta(rmap, BUSHING)
        assert meta["object"]["name"] == "bushing"
        assert meta["friction"] == {"mu_S": 0.0, "mu_H": 0.0, "mu_G": 0.4}
        assert meta["l_a"] == 0.5 and meta["mode"] == "force_balance"
        assert meta["alpha_grid"]["count"] == 1

    def test_grasp_plane_csv_layout(self):
        gmap = grasp_plane_sweep(BUSHING, SET_C, math.pi / 10, (0.65, 0.9),
                                 degree_grid(0.0, 4.0, 2.0), delta=DELTA)
        lines = grasp_plane_csv(gmap).strip().split("\n")
        assert lines[0] == "l_a/beta_deg,0,2,4"
        assert lines[1].startswith("0.65,") and lines[2].startswith("0.9,")

    def test_numpy_axes_write_the_same_text_as_tuples(self):
        alphas, betas, las = default_alpha_grid(10.0), default_beta_grid(10.0), (0.5, 0.7, 0.9)

        def texts(alphas, betas, las):
            rmap = region_sweep(BUSHING, SET_C, 0.7, alphas, betas, delta=DELTA)
            gmap = grasp_plane_sweep(BUSHING, SET_C, math.pi / 10, las, betas, delta=DELTA)
            return (region_map_csv(rmap), json.dumps(region_map_meta(rmap, BUSHING)),
                    grasp_plane_csv(gmap), json.dumps(grasp_plane_meta(gmap, BUSHING)))

        assert texts(np.array(alphas), np.array(betas), np.array(las)) == texts(alphas, betas, las)
        with pytest.raises(ValueError, match="alpha axis is empty"):
            region_sweep(BUSHING, SET_C, 0.7, np.array([]), np.array(betas), delta=DELTA)
