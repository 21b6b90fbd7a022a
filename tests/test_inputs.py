"""Bad input ends in a named error: exit code 2 from the CLI, an exception from the library."""

import json
import math

import pytest

import pivotgrasp.cli as cli
from pivotgrasp.geometry import (
    ConfigError,
    GeometryError,
    GraspConfig,
    GripperSpec,
    ObjectSpec,
    config_errors,
    load_catalog,
)
from pivotgrasp.stability import degree_grid, grasp_plane_sweep, is_stable, region_sweep
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


@pytest.mark.parametrize("w, stroke", [(math.nan, 80.0), (20.0, math.inf)])
def test_gripper_spec_rejects_non_finite(w, stroke):
    with pytest.raises(GeometryError, match="finite"):
        GripperSpec(w=w, stroke=stroke)


def test_region_rejects_nan_width(tmp_path, capsys):
    code, _ = run([
        "region", "--object", "bushing", "--mu", "0,0,0", "--la", "0.7",
        "--width", "nan", "--out-dir", str(tmp_path),
    ], capsys)
    assert code == 2


def test_nan_alpha_is_a_config_error():
    cfg = GraspConfig(l_a=0.9, alpha=math.nan, beta=0.0, delta=7.2, hole_offset=9.8)
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


@pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf])
def test_degree_grid_rejects_bad_steps(step):
    with pytest.raises(ValueError, match="step"):
        degree_grid(0.0, 10.0, step)


def test_grasp_plane_sweep_checks_beta_like_region_sweep():
    with pytest.raises(ValueError, match="increasing"):
        grasp_plane_sweep(BUSHING, SET_C, 0.3, (0.5, 0.9), (0.3, 0.0), delta=7.2)
    gmap = grasp_plane_sweep(BUSHING, SET_C, math.pi / 10, (0.5, 0.9), (0.0, 0.3, 1.2), delta=7.2)
    assert gmap.feasible_cells() == int(gmap.feasible.sum()) > 0
