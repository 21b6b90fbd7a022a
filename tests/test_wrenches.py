"""Contact wrench basis tests."""

import math
import random

import numpy as np
import pytest

from pivotgrasp.geometry import GraspConfig, ObjectSpec, hole_contact_depth, hole_contact_offset, load_catalog
from pivotgrasp.wrenches import (
    FRICTIONLESS,
    FrictionSet,
    _edge_wrenches,
    basis_coefficients,
    basis_features,
    contact_wrench_basis,
    gravity_wrench,
)

BUSHING = ObjectSpec("bushing", a=34.0, b=17.0, D=34.0, d=28.0)


def cfg_for(l_a, alpha, beta, delta=7.2):
    return GraspConfig(l_a=l_a, alpha=alpha, beta=beta, delta=delta)


def random_friction(rng):
    return FrictionSet(rng.uniform(0, 0.6), rng.uniform(0, 0.6), rng.uniform(0, 0.6))


class TestKnownWrenches:
    def test_frictionless_surface_contact_flat(self):
        # l = 1.5a: the surface contact sits half a half-length past the centre.
        basis = contact_wrench_basis(BUSHING, cfg_for(0.75, math.pi / 4, 0.0), FRICTIONLESS)
        s1, s2 = basis[0], basis[1]
        assert s1.as_tuple() == pytest.approx((0.5 * BUSHING.a, 0.0, -1.0), abs=1e-12)
        assert s1 == s2

    def test_frictionless_ground_contact_flat(self):
        basis = contact_wrench_basis(BUSHING, cfg_for(0.5, math.pi / 4, 0.0), FRICTIONLESS)
        g1, g2 = basis[4], basis[5]
        assert g1.as_tuple() == pytest.approx((-BUSHING.a, 0.0, 1.0), abs=1e-12)
        assert g1 == g2

    def test_frictionless_hole_contact_flat(self):
        basis = contact_wrench_basis(BUSHING, cfg_for(0.5, math.pi / 4, 0.0), FRICTIONLESS)
        h1, h2 = basis[2], basis[3]
        c = math.cos(math.pi / 4)
        expect = (34.0 * math.sin(math.pi / 4) + 9.8 * c, -c, math.sin(math.pi / 4))
        assert h1.as_tuple() == pytest.approx(expect, rel=1e-12)
        assert h1 == h2

    def test_friction_angles(self):
        fr = FrictionSet(0.2, 0.4, 0.4)
        assert fr.gamma_s == math.atan(0.2)
        assert fr.gamma_h == math.atan(0.4)
        assert fr.gamma_g == math.atan(0.4)
        with pytest.raises(ValueError):
            FrictionSet(-0.1, 0.0, 0.0)


class TestGravityWrench:
    def test_unit_weight(self):
        assert gravity_wrench(BUSHING).as_tuple() == (0.0, 0.0, -1.0)

    def test_scales_with_mass(self):
        heavy = ObjectSpec("h", a=34.0, b=17.0, D=34.0, d=28.0, mass=2.0)
        assert gravity_wrench(heavy).as_tuple() == (0.0, 0.0, -2.0)

    def test_zero_moment_always(self):
        rng = random.Random(3)
        for _ in range(20):
            obj = ObjectSpec("o", a=rng.uniform(5, 90), b=rng.uniform(2, 40),
                             D=20.0, d=10.0, cylinder=False, mass=rng.uniform(0.1, 5))
            assert gravity_wrench(obj).m == 0.0


class TestBasisProperties:
    def test_unit_force_parts(self):
        rng = random.Random(42)
        for _ in range(300):
            cfg = cfg_for(rng.uniform(0.01, 1.0), rng.uniform(1e-3, math.pi / 2 - 1e-3),
                          rng.uniform(0.0, math.pi / 2))
            basis = contact_wrench_basis(BUSHING, cfg, random_friction(rng))
            for w in basis:
                assert w.fx**2 + w.fy**2 == pytest.approx(1.0, abs=1e-12)

    def test_frictionless_cone_edges_coincide(self):
        rng = random.Random(43)
        for _ in range(50):
            cfg = cfg_for(rng.uniform(0.01, 1.0), rng.uniform(1e-3, math.pi / 2 - 1e-3),
                          rng.uniform(0.0, math.pi / 2))
            basis = contact_wrench_basis(BUSHING, cfg, FRICTIONLESS)
            for i in (0, 2, 4):
                assert basis[i] == basis[i + 1]

    def test_label_order_fixed(self):
        basis = contact_wrench_basis(BUSHING, cfg_for(0.5, 0.4, 0.2), FRICTIONLESS)
        assert basis.labels == ("S1", "S2", "H1", "H2", "G1", "G2")
        assert len(basis.columns()) == 6

    def test_continuity_in_angles(self):
        # Difference quotients at step 1e-6 rad stay below a slope bound set
        # by the moment arms (a + b) and unit force parts.
        h = 1e-6
        bound = BUSHING.a + BUSHING.b + 1.0
        rng = random.Random(44)
        for _ in range(60):
            l_a = rng.uniform(0.05, 1.0)
            alpha = rng.uniform(0.01, math.pi / 2 - 0.01)
            beta = rng.uniform(0.0, math.pi / 2 - h)
            fr = random_friction(rng)
            b0 = contact_wrench_basis(BUSHING, cfg_for(l_a, alpha, beta), fr)
            b_beta = contact_wrench_basis(BUSHING, cfg_for(l_a, alpha, beta + h), fr)
            b_alpha = contact_wrench_basis(BUSHING, cfg_for(l_a, alpha + h, beta), fr)
            for w0, w1, w2 in zip(b0, b_beta, b_alpha):
                for c0, c1, c2 in zip(w0.as_tuple(), w1.as_tuple(), w2.as_tuple()):
                    assert abs(c1 - c0) / h < bound
                    assert abs(c2 - c0) / h < bound

    def test_continuity_in_friction(self):
        h = 1e-6
        bound = BUSHING.a + BUSHING.b + 1.0
        cfg = cfg_for(0.6, 0.5, 0.3)
        for mu in (0.0, 0.2, 0.5):
            f0 = FrictionSet(mu, mu, mu)
            # gamma = atan(mu) contracts, so a step in gamma needs mu step tan-adjusted
            mu1 = math.tan(math.atan(mu) + h)
            f1 = FrictionSet(mu1, mu1, mu1)
            b0 = contact_wrench_basis(BUSHING, cfg, f0)
            b1 = contact_wrench_basis(BUSHING, cfg, f1)
            for w0, w1 in zip(b0, b1):
                for c0, c1 in zip(w0.as_tuple(), w1.as_tuple()):
                    assert abs(c1 - c0) / h < bound


def features(l_a, alpha, beta):
    """phi of every cell of broadcast (l_a, alpha, beta) arrays, written in chunks of 100 cells."""
    cells, write = basis_features(l_a, alpha, beta)
    out = np.empty((8, cells))
    for start in range(0, cells, 100):
        write(out[:, start:start + 100], start)
    return out


def test_basis_on_unbroadcast_axes_equals_the_raveled_call():
    # Trig on the axes alone must give the very bits of trig on every cell.
    rng = np.random.default_rng(11)
    la = rng.uniform(0.01, 1.0, (23, 1))
    alpha = rng.uniform(0.005, math.pi / 2 - 0.005, (23, 1))
    beta = rng.uniform(0.0, math.pi / 2, (1, 37))
    for axes in ((0.7, alpha, beta), (la, 0.3, beta), (la[:, :, None], alpha.T[:, :, None], beta)):
        raveled = [v.ravel() for v in np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in axes))]
        phi = features(*axes)
        assert phi.shape == (8, raveled[0].size)
        assert np.array_equal(phi, features(*raveled))
        assert np.array_equal(phi[:2], [np.ones(raveled[0].size), raveled[0]])


def test_coefficient_table_matches_the_wrench_formulas():
    # 1,000 random cells of the catalog objects, frictionless and random
    # friction: the table's product with phi is the basis of `_edge_wrenches`
    # to within 1e-14 of the cell's largest entry.
    rng = np.random.default_rng(3)
    catalog = list(load_catalog().values())
    worst = 0.0
    for n in range(100):
        obj, gripper = catalog[n % len(catalog)]
        delta = hole_contact_depth(obj, hole_contact_offset(gripper, obj))
        friction = FRICTIONLESS if n % 4 == 0 else FrictionSet(*rng.uniform(0.0, 0.6, 3))
        cells = rng.uniform(0.01, 1.0, 10), rng.uniform(0.005, math.pi / 2 - 0.005, 10), rng.uniform(0.0, math.pi / 2, 10)
        table = basis_coefficients(obj, friction, delta) @ features(*cells)  # (3, 6, cells)
        for c, (l_a, alpha, beta) in enumerate(zip(*cells)):
            exact = np.array(_edge_wrenches(math.sin, math.cos, obj, friction, l_a, alpha, beta, delta))
            gap = np.max(np.abs(table[:, :, c].T - exact)) / np.max(np.abs(exact))
            worst = max(worst, gap)
    print(f"coefficient table: 1000 cells, largest relative gap {worst:.2e}")
    assert worst <= 1e-14
