"""Geometry and configuration-validation tests."""

import math
import random

import pytest

from pivotgrasp.geometry import (
    ConfigError,
    GeometryError,
    GraspConfig,
    GripperSpec,
    ObjectSpec,
    config_errors,
    config_from_delta,
    grasp_config,
    hole_contact_depth,
    hole_contact_offset,
    load_catalog,
    object_from_dict,
    validate_config,
)

BUSHING = ObjectSpec("bushing", a=34.0, b=17.0, D=34.0, d=28.0)


class TestHoleContactOffset:
    def test_vanishing_width_limit_is_hole_radius(self):
        # As w -> 0 the contact point approaches the hole equator at d/2.
        x = hole_contact_offset(GripperSpec(w=1e-6), BUSHING)
        assert x == pytest.approx(14.0, rel=1e-9)

    def test_reference_width(self):
        x = hole_contact_offset(GripperSpec(w=20.0), BUSHING)
        assert x == pytest.approx(9.797958971132713, rel=1e-12)

    def test_near_singular_width(self):
        x = hole_contact_offset(GripperSpec(w=27.99), BUSHING)
        assert x == pytest.approx(0.37413232953065345, rel=1e-9)
        # identity: (d/2)*sqrt(1-(w/d)^2) == sqrt((d/2)^2 - (w/2)^2)
        assert x == pytest.approx(math.sqrt(14.0**2 - (27.99 / 2) ** 2), rel=1e-12)

    def test_width_at_least_hole_diameter_rejected(self):
        with pytest.raises(GeometryError):
            hole_contact_offset(GripperSpec(w=28.0), BUSHING)
        with pytest.raises(GeometryError):
            hole_contact_offset(GripperSpec(w=30.0), BUSHING)

    def test_nonpositive_width_rejected(self):
        with pytest.raises(GeometryError):
            GripperSpec(w=0.0)
        with pytest.raises(GeometryError):
            GripperSpec(w=-1.0)

    def test_strictly_decreasing_in_width(self):
        widths = [0.5 + 27.0 * i / 40 for i in range(41)]
        xs = [hole_contact_offset(GripperSpec(w=w), BUSHING) for w in widths]
        assert all(x2 < x1 for x1, x2 in zip(xs, xs[1:]))

    def test_two_written_forms_agree(self):
        rng = random.Random(7)
        for _ in range(200):
            d = rng.uniform(5.0, 80.0)
            w = rng.uniform(1e-3, d * (1 - 1e-9))
            trig = (d / 2) * math.sin(math.acos(w / d))
            alg = (d / 2) * math.sqrt(1 - (w / d) ** 2)
            assert trig == pytest.approx(alg, rel=1e-12)


class TestHoleContactDepth:
    def test_bushing_depth(self):
        x = hole_contact_offset(GripperSpec(w=20.0), BUSHING)
        delta = hole_contact_depth(BUSHING, x)
        assert delta == pytest.approx(7.2, abs=0.05)

    def test_tiny_width_limit_gives_wall_thickness(self):
        # With the finger contact at the hole equator, delta is the wall thickness.
        t = 3.0
        obj = ObjectSpec("tube", a=30.0, b=(28.0 + 2 * t) / 2, D=28.0 + 2 * t, d=28.0)
        delta = hole_contact_depth(obj, 14.0 * (1 - 1e-12))
        assert delta == pytest.approx(t, rel=1e-9)

    def test_large_cylinder(self):
        obj = ObjectSpec("can", a=80.0, b=33.0, D=66.0, d=60.0)
        assert 0 < 28.3 < obj.d / 2
        assert hole_contact_depth(obj, 28.3) == pytest.approx(4.7, rel=1e-12)

    def test_offset_out_of_domain(self):
        with pytest.raises(GeometryError):
            hole_contact_depth(BUSHING, 14.0)
        with pytest.raises(GeometryError):
            hole_contact_depth(BUSHING, 0.0)

    def test_round_trip(self):
        rng = random.Random(11)
        for _ in range(200):
            d = rng.uniform(5.0, 60.0)
            D = d + rng.uniform(0.5, 30.0)
            obj = ObjectSpec("o", a=50.0, b=D / 2, D=D, d=d)
            w = rng.uniform(1e-3, d * (1 - 1e-6))
            x = hole_contact_offset(GripperSpec(w=w), obj)
            assert x + hole_contact_depth(obj, x) == pytest.approx(D / 2, rel=1e-12)


class TestValidateConfig:
    def test_reference_config_valid(self):
        cfg = config_from_delta(BUSHING, 0.9, math.pi / 10, 0.0, 7.2)
        assert validate_config(cfg, BUSHING) is cfg

    def test_alpha_zero_is_degenerate_pinch(self):
        cfg = GraspConfig(l_a=0.5, alpha=0.0, beta=0.0, delta=7.2)
        assert config_errors(cfg, BUSHING) == ["alpha_degenerate_pinch"]

    def test_alpha_right_angle_is_direct_hole_grasp(self):
        cfg = GraspConfig(l_a=0.5, alpha=math.pi / 2, beta=0.0, delta=7.2)
        assert config_errors(cfg, BUSHING) == ["alpha_direct_hole_grasp"]

    def test_la_out_of_range(self):
        cfg = GraspConfig(l_a=1.2, alpha=math.pi / 4, beta=0.0, delta=7.2)
        assert config_errors(cfg, BUSHING) == ["l_a_out_of_range"]
        cfg = GraspConfig(l_a=0.0, alpha=math.pi / 4, beta=0.0, delta=7.2)
        assert "l_a_out_of_range" in config_errors(cfg, BUSHING)

    def test_each_violation_reported(self):
        cfg = GraspConfig(l_a=2.0, alpha=0.0, beta=3.0, delta=40.0)
        errors = config_errors(cfg, BUSHING)
        assert set(errors) == {
            "l_a_out_of_range",
            "alpha_degenerate_pinch",
            "beta_out_of_range",
            "delta_out_of_range",
        }

    def test_validate_raises_with_codes(self):
        cfg = GraspConfig(l_a=1.2, alpha=0.0, beta=0.0, delta=7.2)
        with pytest.raises(ConfigError) as err:
            validate_config(cfg, BUSHING)
        assert "l_a_out_of_range" in err.value.errors

    def test_grasp_config_builder(self):
        cfg = grasp_config(BUSHING, GripperSpec(w=20.0), 0.9, math.pi / 10, 0.0)
        assert cfg.delta == pytest.approx(7.202041028867287, rel=1e-12)
        offset = hole_contact_offset(GripperSpec(w=20.0), BUSHING)
        assert cfg.delta + offset == pytest.approx(BUSHING.D / 2, rel=1e-12)


class TestObjectSpec:
    def test_cylinder_requires_matching_half_height(self):
        with pytest.raises(GeometryError):
            ObjectSpec("bad", a=34.0, b=10.0, D=34.0, d=28.0, cylinder=True)

    def test_prism_half_height_free(self):
        duct = ObjectSpec("duct", a=61.0, b=30.0, D=60.0, d=57.0, cylinder=False)
        assert duct.b == 30.0

    def test_dimension_invariants(self):
        with pytest.raises(GeometryError):
            ObjectSpec("bad", a=-1.0, b=17.0, D=34.0, d=28.0, cylinder=False)
        with pytest.raises(GeometryError):
            ObjectSpec("bad", a=34.0, b=17.0, D=34.0, d=40.0, cylinder=False)
        with pytest.raises(GeometryError):
            ObjectSpec("bad", a=34.0, b=17.0, D=34.0, d=28.0, mass=0.0)


class TestCatalog:
    def test_bundled_catalog_loads(self):
        catalog = load_catalog()
        assert len(catalog) == 7
        obj, gripper = catalog["bushing"]
        assert (obj.a, obj.D, obj.d) == (34.0, 34.0, 28.0)
        assert obj.b == 17.0 and obj.cylinder
        assert gripper.w == 20.0

    def test_prism_entries_carry_explicit_half_height(self):
        catalog = load_catalog()
        duct, _ = catalog["wiring_duct"]
        assert not duct.cylinder and duct.b == 30.0

    def test_cylinder_infers_half_height(self):
        obj, _ = object_from_dict(
            {"name": "x", "a_mm": 50, "b_mm": None, "D_mm": 40, "d_mm": 30,
             "cylinder": True, "gripper": {"w_mm": 10, "stroke_mm": 80}}
        )
        assert obj.b == 20.0

    def test_prism_without_half_height_rejected(self):
        with pytest.raises(GeometryError):
            object_from_dict(
                {"name": "x", "a_mm": 50, "b_mm": None, "D_mm": 40, "d_mm": 30,
                 "cylinder": False, "gripper": {"w_mm": 10, "stroke_mm": 80}}
            )
