"""Bad input ends in a named error: exit code 2 from the CLI, an exception from the library."""

import json
import math

import numpy as np
import pytest

import pivotgrasp.cli as cli
import pivotgrasp.stability as stability
from pivotgrasp.geometry import (
    ConfigError,
    GeometryError,
    GraspConfig,
    GripperSpec,
    ObjectSpec,
    config_errors,
    load_catalog,
)
from pivotgrasp.maneuver import constant_la_schedule, simulate_grasp_trajectory
from pivotgrasp.stability import (
    beta_upper_bound,
    degree_grid,
    grasp_plane_sweep,
    is_stable,
    min_alpha,
    region_sweep,
)
from pivotgrasp.stats import TrialRecord
from pivotgrasp.wrenches import FrictionSet

BUSHING = ObjectSpec("bushing", a=34.0, b=17.0, D=34.0, d=28.0)
SET_C = FrictionSet(0.2, 0.4, 0.4)


def run(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--alpha-step", "--beta-step"])
@pytest.mark.parametrize("step", ["0", "-0.5", "nan", "inf"])
def test_region_rejects_bad_grid_steps(tmp_path, capsys, flag, step):
    code, err = run([
        "region", "--object", "bushing", "--mu", "0,0,0", "--la", "0.7",
        flag, step, "--out-dir", str(tmp_path),
    ], capsys)
    assert code == 2
    assert flag in err
    assert list(tmp_path.iterdir()) == []


def test_region_rejects_step_leaving_no_alpha(tmp_path, capsys):
    code, err = run([
        "region", "--object", "bushing", "--mu", "0,0,0", "--la", "0.7",
        "--alpha-step", "100", "--out-dir", str(tmp_path),
    ], capsys)
    assert code == 2 and "--alpha-step" in err


def test_simulate_rejects_bad_beta_step(tmp_path, capsys):
    code, err = run([
        "simulate", "--object", "bushing", "--mu", "0.2,0.4,0.4", "--alpha", "18deg",
        "--la-schedule", "0.9:0.65", "--beta-step", "0", "--out-dir", str(tmp_path),
    ], capsys)
    assert code == 2 and "--beta-step" in err


@pytest.mark.parametrize("command", [
    ["region", "--la", "0.9", "--alpha-step", "20"],
    ["simulate", "--alpha", "18deg", "--la-schedule", "0.9:0.65"],
])
def test_grid_steps_that_do_not_divide_90_degrees_are_accepted(tmp_path, capsys, command):
    code, err = run([*command, "--object", "bushing", "--mu", "0.2,0.4,0.4", "--beta-step", "7",
                     "--out-dir", str(tmp_path)], capsys)
    assert (code, err) == (0, "")
    meta = json.loads(next(tmp_path.glob("*.json")).read_text())
    assert meta["beta_grid"] == {"start_deg": 0.0, "stop_deg": 84.0, "count": 13}


# 90/m degrees for these m converts to a last grid point past 90 degrees.
ROUNDED_PAST_90 = (169, 338, 339, 591, 609, 651, 676, 678, 715)


def test_beta_grids_of_steps_dividing_90_degrees_end_inside_the_range():
    for m in range(1, 721):
        grid, unclamped = stability.default_beta_grid(90 / m), degree_grid(0.0, 90.0, 90 / m)
        assert len(grid) == m + 1 and grid[-1] <= math.pi / 2
        if m in ROUNDED_PAST_90:
            assert unclamped[-1] > math.pi / 2 and grid == unclamped[:-1] + (math.pi / 2,)
        else:
            assert grid == unclamped


def test_beta_step_rounding_past_90_degrees_is_accepted(tmp_path, capsys):
    code, err = run(["region", "--object", "bushing", "--mu", "0.2,0.4,0.4", "--la", "0.9",
                     "--alpha-step", "30", "--beta-step", str(90 / 169), "--out-dir", str(tmp_path)], capsys)
    assert (code, err) == (0, "")
    meta = json.loads(next(tmp_path.glob("*.json")).read_text())
    assert meta["beta_grid"] == {"start_deg": 0.0, "stop_deg": 90.0, "count": 170}


def test_catalog_entry_without_gripper(tmp_path, capsys):
    catalog = tmp_path / "objects.json"
    catalog.write_text(json.dumps([{"name": "ring", "a_mm": 30, "D_mm": 30, "d_mm": 20, "cylinder": True}]))
    code, err = run([
        "region", "--objects", str(catalog), "--object", "ring", "--mu", "0,0,0",
        "--la", "0.7", "--out-dir", str(tmp_path / "out"),
    ], capsys)
    assert code == 2
    assert "ring" in err and "gripper" in err
    with pytest.raises(GeometryError, match="gripper"):
        load_catalog(catalog)


def test_simulate_rejects_la_step_before_simulating(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "simulate_grasp_trajectory", lambda *a, **k: calls.append(a))
    code, err = run([
        "simulate", "--object", "bushing", "--mu", "0.2,0.4,0.4", "--alpha", "18deg",
        "--la-schedule", "0.9:0.65", "--la-step", "0", "--out-dir", str(tmp_path),
    ], capsys)
    assert code == 2 and "--la-step" in err
    assert calls == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_friction_set_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        FrictionSet(bad, 0.0, 0.4)
    with pytest.raises(ValueError):
        FrictionSet(0.0, 0.0, bad)


def test_beta_ub_rejects_nan_friction(capsys):
    code, err = run([
        "beta-ub", "--object", "bushing", "--mu", "nan,0,0.4", "--la", "0.9", "--alpha", "18deg",
    ], capsys)
    assert code == 2 and "friction" in err


@pytest.mark.parametrize("angle", ["nan", "infdeg", "infrad"])
def test_beta_ub_rejects_non_finite_angle(capsys, angle):
    code, err = run([
        "beta-ub", "--object", "bushing", "--mu", "0.2,0.4,0.4", "--la", "0.9", "--alpha", angle,
    ], capsys)
    assert code == 2 and "not finite" in err


@pytest.mark.parametrize("field", ["a", "b", "D", "d", "mass"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_object_spec_rejects_non_finite(field, bad):
    dims = {"a": 34.0, "b": 17.0, "D": 34.0, "d": 28.0, "mass": 1.0}
    dims[field] = bad
    with pytest.raises(GeometryError, match="finite"):
        ObjectSpec("o", cylinder=False, **dims)


@pytest.mark.parametrize("w", [math.nan, math.inf])
def test_gripper_spec_rejects_non_finite(w):
    with pytest.raises(GeometryError, match="finite"):
        GripperSpec(w=w)


def test_region_rejects_nan_width(tmp_path, capsys):
    code, _ = run([
        "region", "--object", "bushing", "--mu", "0,0,0", "--la", "0.7",
        "--width", "nan", "--out-dir", str(tmp_path),
    ], capsys)
    assert code == 2


def test_nan_alpha_is_a_config_error():
    cfg = GraspConfig(l_a=0.9, alpha=math.nan, beta=0.0, delta=7.2)
    assert config_errors(cfg, BUSHING) != []
    with pytest.raises(ConfigError):
        is_stable(BUSHING, cfg, SET_C)


@pytest.mark.parametrize("sweep, axes", [
    (region_sweep, ((0.2, math.nan, 0.6), (0.0, 0.3))),
    (region_sweep, ((0.2, 0.6), (0.0, math.nan, 0.3))),
    (grasp_plane_sweep, ((0.4, math.nan, 0.8), (0.0, 0.3))),
])
def test_sweeps_reject_nan_inside_an_axis(sweep, axes):
    with pytest.raises(ValueError, match="nan"):
        sweep(BUSHING, SET_C, 0.4, *axes, delta=7.2)


@pytest.mark.parametrize("sweep, axes, name", [
    (region_sweep, ((), (0.0, 0.3)), "alpha"),
    (region_sweep, ((0.2, 0.6), ()), "beta"),
    (grasp_plane_sweep, ((), (0.0, 0.3)), "l_a"),
])
def test_sweeps_reject_an_empty_axis(sweep, axes, name):
    with pytest.raises(ValueError, match=f"{name} axis is empty"):
        sweep(BUSHING, SET_C, 0.4, *axes, delta=7.2)


@pytest.mark.parametrize("as_array", [False, True])
@pytest.mark.parametrize("alphas, message", [
    ((), "alpha axis is empty"),
    ((0.1, 1.7), "alpha axis value 1.7 lies outside its range"),
    ((0.1, math.nan, 2.0), "alpha axis value nan lies outside its range"),
    ((0.3, 0.2, 1.7), "alpha axis value 1.7 lies outside its range"),  # the range is checked first
    ((0.3, 0.3), "alpha axis must be strictly increasing"),
])
def test_axis_errors_name_a_plain_float_in_a_fixed_order(alphas, message, as_array):
    with pytest.raises(ValueError) as err:
        region_sweep(BUSHING, SET_C, 0.4, np.array(alphas) if as_array else alphas, (0.0, 0.3), delta=7.2)
    assert str(err.value) == message


# Every entry point that decides a grid of cells, called with one parameter
# all its cells share out of range, and the codes its ConfigError must carry.
SHARED_PARAMETER_CALLS = {
    "region_sweep l_a": (lambda: region_sweep(BUSHING, SET_C, 1.5, (0.3,), (0.0,), delta=7.2),
                         ["l_a_out_of_range"]),
    "grasp_plane_sweep alpha": (lambda: grasp_plane_sweep(BUSHING, SET_C, 0.0, (0.5,), (0.0,), delta=7.2),
                                ["alpha_degenerate_pinch"]),
    "region_sweep delta": (lambda: region_sweep(BUSHING, SET_C, 0.5, (0.3,), (0.0,), delta=17.0),
                           ["delta_out_of_range"]),
    "beta_upper_bound": (lambda: beta_upper_bound(BUSHING, SET_C, 1.5, 0.3, delta=7.2),
                         ["l_a_out_of_range"]),
    "min_alpha": (lambda: min_alpha(BUSHING, SET_C, 1.5, 0.0, delta=7.2), ["l_a_out_of_range"]),
    "simulate_grasp_trajectory": (
        lambda: simulate_grasp_trajectory(BUSHING, SET_C, math.pi / 2, constant_la_schedule(0.5),
                                          (0.0, 0.3), delta=7.2),
        ["alpha_direct_hole_grasp"],
    ),
}


@pytest.mark.parametrize("case", SHARED_PARAMETER_CALLS)
def test_grid_entry_points_raise_the_config_error(case):
    call, errors = SHARED_PARAMETER_CALLS[case]
    with pytest.raises(ConfigError) as err:
        call()
    assert err.value.errors == errors


@pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf])
def test_degree_grid_rejects_bad_steps(step):
    with pytest.raises(ValueError, match="step"):
        degree_grid(0.0, 10.0, step)


def test_grasp_plane_sweep_checks_beta_like_region_sweep():
    with pytest.raises(ValueError, match="increasing"):
        grasp_plane_sweep(BUSHING, SET_C, 0.3, (0.5, 0.9), (0.3, 0.0), delta=7.2)
    gmap = grasp_plane_sweep(BUSHING, SET_C, math.pi / 10, (0.5, 0.9), (0.0, 0.3, 1.2), delta=7.2)
    assert gmap.feasible_cells() == int(gmap.feasible.sum()) > 0


@pytest.mark.parametrize("z", ["nan", "inf"])
def test_ci_rejects_non_finite_z(capsys, z):
    code, err = run(["ci", "9/10", "--z", z], capsys)
    assert code == 2 and f"z must be positive and finite, got {z}" in err
    with pytest.raises(ValueError, match="finite"):
        TrialRecord(9, 10, z=float(z))


# Every subcommand that takes an l_a, with the value at {la} and its output at {d}.
LA_CALLS = {
    "region": ["region", "--mu", "0,0,0", "--la", "{la}", "--out-dir", "{d}"],
    "beta-ub": ["beta-ub", "--mu", "0,0,0.4", "--la", "{la}", "--alpha", "18deg", "--out", "{d}/b.json"],
    "simulate": ["simulate", "--mu", "0,0,0.4", "--alpha", "18deg", "--la-schedule", "{la}", "--out-dir", "{d}"],
    "traj": ["traj", "--la", "{la}", "--alpha", "18deg", "--out", "{d}/plan.json"],
    "wrench": ["wrench", "--mu", "0,0,0", "--la", "{la}", "--alpha", "18deg", "--beta", "0", "--out", "{d}/w.csv"],
}


@pytest.mark.parametrize("command", LA_CALLS)
@pytest.mark.parametrize("la", ["1.7", "0", "-0.2", "nan"])
def test_every_command_rejects_la_with_one_message(tmp_path, capsys, command, la):
    argv = [a.format(la=la, d=tmp_path) for a in LA_CALLS[command]]
    code, err = run([*argv, "--object", "bushing"], capsys)
    assert code == 2
    assert err == f"error: l_a {float(la)} outside (0, 1]\n"
    assert list(tmp_path.iterdir()) == []


# Out-of-range bound parameters and the ConfigError codes of the cell at
# beta = 0, the codes the bound raised when its scan's first cell decided it.
BAD_BOUND_PARAMETERS = [
    ((1.5, 0.3, 7.2), ["l_a_out_of_range"]),
    ((0.0, 0.3, 7.2), ["l_a_out_of_range"]),
    ((math.nan, 0.3, 7.2), ["l_a_out_of_range"]),
    ((0.9, 0.0, 7.2), ["alpha_degenerate_pinch"]),
    ((0.9, math.nan, 7.2), ["alpha_degenerate_pinch"]),
    ((0.9, math.pi / 2, 7.2), ["alpha_direct_hole_grasp"]),
    ((0.9, 0.3, 17.0), ["delta_out_of_range"]),
    ((0.9, 0.3, 0.0), ["delta_out_of_range"]),
    ((-1.0, 2.0, math.nan), ["l_a_out_of_range", "alpha_direct_hole_grasp", "delta_out_of_range"]),
]


@pytest.mark.parametrize("params, errors", BAD_BOUND_PARAMETERS)
def test_beta_upper_bound_raises_the_config_error_of_its_first_cell(params, errors):
    l_a, alpha, delta = params
    with pytest.raises(ConfigError) as err:
        beta_upper_bound(BUSHING, FrictionSet(0.0, 0.0, 0.4), l_a, alpha, delta=delta)
    assert err.value.errors == errors
    with pytest.raises(ConfigError) as cell:
        is_stable(BUSHING, GraspConfig(l_a, alpha, 0.0, delta), FrictionSet(0.0, 0.0, 0.4))
    assert cell.value.errors == errors


# Catalogs that parse as JSON but not as a catalog, with words the error must name.
BAD_CATALOGS = {
    "top-level object": ({"a": 1}, ["catalog", "list"]),
    "null length": ([{"name": "ring", "a_mm": None, "D_mm": 30, "d_mm": 20, "gripper": {"w_mm": 10}}],
                    ["ring", "a_mm"]),
    "gripper not an object": ([{"name": "ring", "a_mm": 30, "D_mm": 30, "d_mm": 20, "gripper": 5}],
                              ["ring", "gripper"]),
    "duplicate name": ([{"name": "ring", "a_mm": a, "D_mm": 30, "d_mm": 20, "gripper": {"w_mm": 10}}
                        for a in (30, 60)],
                       ["objects.json", "lists 'ring' twice"]),
    "entry not an object": ([5], ["entry 5", "not a JSON object"]),
    "name not a string": ([{"name": 3, "a_mm": 30, "D_mm": 30, "d_mm": 20, "gripper": {"w_mm": 10}}],
                          ["'name': 3", "no string 'name'"]),
    "cylinder not a boolean": ([{"name": "ring", "a_mm": 30, "D_mm": 30, "d_mm": 20, "cylinder": "false",
                                 "gripper": {"w_mm": 10}}],
                               ["ring", "'cylinder'", "not a boolean"]),
    "boolean length": ([{"name": "ring", "a_mm": True, "D_mm": 30, "d_mm": 20, "gripper": {"w_mm": 10}}],
                       ["ring", "'a_mm'", "not a number: True"]),
    "string length": ([{"name": "ring", "a_mm": "30", "D_mm": 30, "d_mm": 20, "gripper": {"w_mm": 10}}],
                      ["ring", "'a_mm'", "not a number: '30'"]),
    "string gripper width": ([{"name": "ring", "a_mm": 30, "D_mm": 30, "d_mm": 20, "gripper": {"w_mm": "10"}}],
                             ["ring", "'w_mm'", "not a number: '10'"]),
    "integer past the float range": ([{"name": "ring", "a_mm": 10**400, "D_mm": 30, "d_mm": 20,
                                       "gripper": {"w_mm": 10}}],
                                     ["ring", "'a_mm'", "not a number: 1000"]),
}


@pytest.mark.parametrize("case", BAD_CATALOGS)
def test_malformed_catalog_exits_2_naming_the_entry(tmp_path, capsys, case):
    doc, words = BAD_CATALOGS[case]
    catalog = tmp_path / "objects.json"
    catalog.write_text(json.dumps(doc))
    code, err = run([
        "beta-ub", "--objects", str(catalog), "--object", "ring", "--mu", "0,0,0.4",
        "--la", "0.9", "--alpha", "18deg",
    ], capsys)
    assert code == 2 and err.startswith("error: ")
    assert all(word in err for word in words)
    with pytest.raises(GeometryError):
        load_catalog(catalog)


@pytest.mark.parametrize("row", ["a,b", "a,9,10,1", "a,nine,10"])
def test_ci_infile_reports_a_bad_row_with_its_line(tmp_path, capsys, row):
    infile = tmp_path / "trials.csv"
    infile.write_text(f"# name,successes,trials\ngood,9,10\n{row}\n")
    code, err = run(["ci", "--infile", str(infile)], capsys)
    assert code == 2
    assert f"{infile}:3:" in err and repr(row) in err


def test_ci_infile_reports_counts_out_of_range_with_its_line(tmp_path, capsys):
    infile = tmp_path / "trials.csv"
    infile.write_text("good,9,10\na,11,10\n")
    code, err = run(["ci", "--infile", str(infile)], capsys)
    assert code == 2
    assert err == f"error: {infile}:2: successes must lie in [0, trials]\n"


def test_catalog_that_is_not_json_exits_2_naming_the_file(tmp_path, capsys):
    catalog = tmp_path / "bad.json"
    catalog.write_text("not json")
    code, err = run([
        "beta-ub", "--objects", str(catalog), "--object", "ring", "--mu", "0,0,0.4",
        "--la", "0.9", "--alpha", "18deg",
    ], capsys)
    assert code == 2
    assert err.startswith(f"error: catalog {catalog} is not JSON: ")
    with pytest.raises(GeometryError, match="not JSON"):
        load_catalog(catalog)


NOT_UTF8 = b"\xff\xfe\x00bad"


def test_catalog_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys):
    catalog = tmp_path / "bad.json"
    catalog.write_bytes(NOT_UTF8)
    code, err = run([
        "beta-ub", "--objects", str(catalog), "--object", "ring", "--mu", "0,0,0.4",
        "--la", "0.9", "--alpha", "18deg",
    ], capsys)
    assert code == 2
    assert err.startswith(f"error: catalog {catalog} is not UTF-8 text: ")
    with pytest.raises(GeometryError, match="not UTF-8 text"):
        load_catalog(catalog)


def test_ci_infile_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys):
    infile = tmp_path / "trials.csv"
    infile.write_bytes(NOT_UTF8)
    code, err = run(["ci", "--infile", str(infile)], capsys)
    assert code == 2
    assert err.startswith(f"error: {infile}: ") and "can't decode byte 0xff" in err
