"""LP core tests: the certificates against the enumeration oracle, HiGHS and known structure.

The certificate (`solve_force_balance`, `solve_form_closure`) is the cheapest
nonnegative basic solution over column subsets, and the oracle enumerates
subsets too; HiGHS (`TestAgainstHighs`, where scipy is installed) is the check
that shares no theorem with either. Test names that say "simplex" mean the
certificate, which a dense simplex computed before.
"""

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from pivotgrasp.geometry import GraspConfig, ObjectSpec, hole_contact_depth, hole_contact_offset, load_catalog
from pivotgrasp.lp import (
    CONE_BAND,
    cone_score,
    oracle_force_balance,
    solve_force_balance,
    solve_form_closure,
)
from pivotgrasp.wrenches import (
    FRICTIONLESS,
    FrictionSet,
    Wrench,
    WrenchBasis,
    contact_wrench_basis,
    gravity_wrench,
)
from pivotgrasp.stability import UNIT_GRAVITY, default_alpha_grid, default_beta_grid, is_stable

BUSHING = ObjectSpec("bushing", a=34.0, b=17.0, D=34.0, d=28.0)
GRAVITY = gravity_wrench(BUSHING)


def cfg_for(l_a, alpha, beta, delta=7.2):
    return GraspConfig(l_a=l_a, alpha=alpha, beta=beta, delta=delta)


def basis_for(l_a, alpha, beta, friction):
    return contact_wrench_basis(BUSHING, cfg_for(l_a, alpha, beta), friction)


def random_config(rng):
    return (
        rng.uniform(0.01, 1.0),
        rng.uniform(0.01, math.pi / 2 - 0.01),
        rng.uniform(0.0, math.pi / 2),
        FrictionSet(rng.uniform(0, 0.6), rng.uniform(0, 0.6), rng.uniform(0, 0.6)),
    )


class TestForceBalance:
    def test_frictionless_flat_always_infeasible(self):
        # At beta = 0 without friction the hole contact is the only source of
        # horizontal force, which pins its coefficients to zero; the moment
        # row then needs k_S*(l - 2a) = a, impossible for l <= 2a.
        for l_a in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            for alpha_deg in range(5, 90, 5):
                basis = basis_for(l_a, math.radians(alpha_deg), 0.0, FRICTIONLESS)
                assert not solve_force_balance(basis, GRAVITY).feasible

    def test_ground_friction_flat_boundary(self):
        # With ground friction only, flat-position feasibility requires
        # tan(alpha) >= (a - mu*(2b - delta)) / (a*mu); for the reference
        # geometry that is alpha >= 59.72 degrees, independent of l_a.
        fr = FrictionSet(0.0, 0.0, 0.4)
        threshold = math.atan((34.0 - 0.4 * (2 * 17.0 - 7.2)) / (34.0 * 0.4))
        for l_a in (0.2, 0.4, 0.5):
            below = basis_for(l_a, threshold - 0.01, 0.0, fr)
            above = basis_for(l_a, threshold + 0.01, 0.0, fr)
            assert not solve_force_balance(below, GRAVITY).feasible
            assert not oracle_force_balance(below, GRAVITY)
            assert solve_force_balance(above, GRAVITY).feasible
            assert oracle_force_balance(above, GRAVITY)

    def test_upright_closed_form_with_ground_friction_only(self):
        # At beta = 90 deg with ground friction only, force balance holds iff
        # l_a <= 1 - (b/a)/(2 mu_G), whatever the hole, the contact depth and alpha.
        rng = random.Random(90)
        checked = feasible = 0
        for n in range(2100):
            a = rng.uniform(5.0, 200.0)
            b = a * rng.uniform(0.05, 1.5)
            D = 2 * b if n % 2 else 2 * b * rng.uniform(0.5, 1.0)
            obj = ObjectSpec("random", a=a, b=b, D=D, d=D * rng.uniform(0.2, 0.95), cylinder=D == 2 * b)
            cfg = GraspConfig(
                l_a=rng.uniform(0.01, 1.0), alpha=math.radians(rng.uniform(0.5, 89.5)),
                beta=math.pi / 2, delta=rng.uniform(0.0, D / 2),
            )
            mu_g = rng.uniform(0.05, 2.0)
            threshold = 1.0 - (b / a) / (2 * mu_g)
            if abs(cfg.l_a - threshold) <= 1e-6:
                continue
            expected = cfg.l_a <= threshold
            friction = FrictionSet(0.0, 0.0, mu_g)
            assert is_stable(obj, cfg, friction) == expected, (obj, cfg, mu_g)
            assert oracle_force_balance(contact_wrench_basis(obj, cfg, friction), UNIT_GRAVITY) == expected
            checked += 1
            feasible += expected
        assert checked >= 2000 and 0 < feasible < checked

    def test_quarter_alpha_flat_infeasible_with_ground_friction(self):
        # pi/4 lies below the flat-position feasibility boundary above.
        basis = basis_for(0.4, math.pi / 4, 0.0, FrictionSet(0.0, 0.0, 0.4))
        assert not solve_force_balance(basis, GRAVITY).feasible
        assert not oracle_force_balance(basis, GRAVITY)

    def test_zero_external_wrench_trivially_feasible(self):
        basis = basis_for(0.5, 0.5, 0.3, FrictionSet(0.1, 0.2, 0.3))
        out = solve_force_balance(basis, Wrench(0.0, 0.0, 0.0))
        assert out.feasible
        assert out.objective == pytest.approx(0.0, abs=1e-12)
        assert all(abs(k) <= 1e-12 for k in out.coefficients)

    def test_feasible_certificate(self):
        basis = basis_for(0.9, math.pi / 10, 0.0, FrictionSet(0.2, 0.4, 0.4))
        out = solve_force_balance(basis, GRAVITY)
        assert out.feasible
        assert out.residual <= 1e-7
        assert min(out.coefficients) >= -1e-9

    def test_certificates_on_random_feasible_configs(self):
        rng = random.Random(101)
        checked = 0
        while checked < 150:
            l_a, alpha, beta, fr = random_config(rng)
            basis = basis_for(l_a, alpha, beta, fr)
            out = solve_force_balance(basis, GRAVITY)
            if not out.feasible:
                continue
            checked += 1
            cols = basis.columns()
            for i in range(3):
                resid = GRAVITY.as_tuple()[i] + sum(
                    out.coefficients[j] * cols[j][i] for j in range(6)
                )
                assert abs(resid) <= 1e-7
            assert min(out.coefficients) >= -1e-9

    def test_scale_invariance(self):
        rng = random.Random(55)
        for _ in range(60):
            l_a, alpha, beta, fr = random_config(rng)
            basis = basis_for(l_a, alpha, beta, fr)
            base = solve_force_balance(basis, GRAVITY)
            for c in (0.5, 2.0, 10.0):
                scaled = solve_force_balance(basis, GRAVITY.scaled(c))
                assert scaled.feasible == base.feasible
                if base.feasible:
                    assert scaled.objective == pytest.approx(c * base.objective, rel=1e-9)
                    for ks, kb in zip(scaled.coefficients, base.coefficients):
                        assert ks == pytest.approx(c * kb, rel=1e-9, abs=1e-12)


    def test_answers_do_not_depend_on_the_mass(self):
        # The baseline grid: frictionless, l_a 0.7, 2 degree grids, 2,024 cells.
        # Both deciders once flipped cells at small masses, the oracle also at large ones.
        alphas, betas = default_alpha_grid(2.0), default_beta_grid(2.0)
        bases = [
            contact_wrench_basis(BUSHING, cfg_for(0.7, a, b, delta=7.202), FRICTIONLESS)
            for a in alphas for b in betas
        ]
        assert len(bases) == 2024
        for mass in (1e-12, 1e-7, 1e-6, 1.0, 1e7, 1e12):
            weight = gravity_wrench(replace(BUSHING, mass=mass))
            assert sum(solve_force_balance(basis, weight).feasible for basis in bases) == 1030, mass
            assert sum(oracle_force_balance(basis, weight) for basis in bases) == 1030, mass


class TestOracle:
    def test_zero_ext_true(self):
        basis = basis_for(0.3, 0.7, 0.1, FRICTIONLESS)
        assert oracle_force_balance(basis, Wrench(0.0, 0.0, 0.0))

    def test_single_direction_cone(self):
        w = Wrench(0.2, 0.6, -0.5)
        basis = WrenchBasis((w,) * 6)
        assert oracle_force_balance(basis, w.scaled(-3.0))
        assert not oracle_force_balance(basis, w.scaled(3.0))
        assert not oracle_force_balance(basis, Wrench(0.2, 0.6, 0.5))

    def test_coplanar_columns_need_pairs_and_single_columns(self):
        # Every triple of coplanar columns is singular; a target on one column
        # lies in the cone of a single column or a pair only.
        u, v = np.array([0.3, 1.0, 0.0]), np.array([0.1, 0.0, 1.0])
        basis = WrenchBasis(tuple(Wrench(*c) for c in (u, v, u + v, 2 * u + v, u + 2 * v, -u)))
        for target, inside in ((u, True), (-u, True), (v, True), (u + 3 * v, True),
                               (-v, False), (u - v, False), (np.cross(u, v), False)):
            assert oracle_force_balance(basis, Wrench(*-target)) == inside, target
            assert solve_force_balance(basis, Wrench(*-target)).feasible == inside, target

    def test_agrees_with_simplex_on_random_configs(self):
        rng = random.Random(1234)
        disagreements = 0
        for _ in range(500):
            l_a, alpha, beta, fr = random_config(rng)
            basis = basis_for(l_a, alpha, beta, fr)
            if solve_force_balance(basis, GRAVITY).feasible != oracle_force_balance(basis, GRAVITY):
                disagreements += 1
        assert disagreements == 0


def dependent_wrench_root(l_a, alpha, lo_deg=1.0, hi_deg=89.0):
    """Locate beta where the three frictionless contact wrenches become
    linearly dependent with a strictly positive null vector.

    Independent of the LP: determinant sign change plus SVD null vector.
    """
    a, b, delta = 34.0, 17.0, 7.2
    l = 2 * a * l_a

    def mat(beta):
        return np.array([
            [l - a, math.sin(beta), -math.cos(beta)],
            [a * math.sin(alpha) + (b - delta) * math.cos(alpha),
             -math.cos(alpha - beta), math.sin(alpha - beta)],
            [-a * math.cos(-beta) - b * math.sin(-beta), 0.0, 1.0],
        ]).T

    prev = None
    grid = np.radians(np.arange(lo_deg, hi_deg, 0.5))
    for beta in grid:
        det = float(np.linalg.det(mat(beta)))
        if prev is not None and det * prev < 0:
            lo, hi = beta - math.radians(0.5), beta
            dlo = float(np.linalg.det(mat(lo)))
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                dm = float(np.linalg.det(mat(mid)))
                if dm * dlo <= 0:
                    hi = mid
                else:
                    lo, dlo = mid, dm
            root = 0.5 * (lo + hi)
            v = np.linalg.svd(mat(root))[2][-1]
            if np.all(v > 1e-9) or np.all(v < -1e-9):
                return root
        prev = det
    return None


class TestFormClosure:
    def test_frictionless_flat_never_closes(self):
        for l_a in (0.1, 0.4, 0.7, 1.0):
            for alpha_deg in range(5, 90, 10):
                basis = basis_for(l_a, math.radians(alpha_deg), 0.0, FRICTIONLESS)
                assert not solve_form_closure(basis).feasible

    def test_frictionless_narrow_band_mid_rotation(self):
        # Three distinct frictionless wrenches close only where they are
        # linearly dependent with a positive null vector: a curve in
        # (alpha, beta), found here by an independent determinant search.
        alpha = math.radians(20.0)
        root = dependent_wrench_root(0.3, alpha)
        assert root is not None
        at_root = solve_form_closure(basis_for(0.3, alpha, root, FRICTIONLESS))
        assert at_root.feasible
        assert min(at_root.coefficients) >= 1.0 - 1e-9
        # slightly more or less rotation loses closure again
        for off in (-math.radians(2.0), math.radians(2.0)):
            assert not solve_form_closure(basis_for(0.3, alpha, root + off, FRICTIONLESS)).feasible

    def test_opposing_pairs_fixture(self):
        # Two cancelling pairs leave feasibility to the remaining pair alone:
        # in-span third pairs close, out-of-span ones cannot.
        w, u = Wrench(1.0, 0.0, 0.0), Wrench(0.0, 1.0, 0.0)
        neg = lambda t: Wrench(-t.m, -t.fx, -t.fy)
        in_span = Wrench(0.5, -0.2, 0.0)
        basis = WrenchBasis((w, neg(w), u, neg(u), in_span, neg(in_span)))
        assert solve_form_closure(basis).feasible
        out_of_span = Wrench(0.0, 0.0, 1.0)
        basis = WrenchBasis((w, neg(w), u, neg(u), out_of_span, out_of_span))
        assert not solve_form_closure(basis).feasible

    def test_closure_coefficients_at_least_one(self):
        fr = FrictionSet(0.2, 0.4, 0.4)
        basis = basis_for(0.3, math.radians(10.0), math.radians(40.0), fr)
        out = solve_form_closure(basis)
        assert out.feasible
        assert min(out.coefficients) >= 1.0 - 1e-9
        cols = basis.columns()
        for i in range(3):
            assert abs(sum(out.coefficients[j] * cols[j][i] for j in range(6))) <= 1e-7

    def test_closure_implies_balance_of_any_wrench(self):
        # A strictly positive dependency over a full-rank column set makes
        # the cone all of wrench space, so any external wrench balances.
        fr = FrictionSet(0.2, 0.4, 0.4)
        rng = random.Random(77)
        checked = 0
        while checked < 25:
            l_a = rng.uniform(0.1, 0.9)
            alpha = rng.uniform(0.05, 1.2)
            beta = rng.uniform(0.3, 1.4)
            basis = basis_for(l_a, alpha, beta, fr)
            if not solve_form_closure(basis).feasible:
                continue
            checked += 1
            for axis in range(3):
                for sign in (1.0, -1.0):
                    components = [0.0, 0.0, 0.0]
                    components[axis] = sign
                    ext = Wrench(*components)
                    assert solve_force_balance(basis, ext).feasible
                    assert oracle_force_balance(basis, ext)

    def test_certificates_on_random_configs_respect_the_bound(self):
        rng = random.Random(31)
        feasible = 0
        for _ in range(40):
            l_a, alpha, beta, fr = random_config(rng)
            closure = solve_form_closure(basis_for(l_a, alpha, beta, fr))
            if closure.feasible:
                feasible += 1
                assert min(closure.coefficients) >= 1.0 - 1e-9
                assert closure.residual <= 1e-7
        assert feasible == 24


class TestNonFiniteInput:
    def test_force_balance_names_the_non_finite_entry(self):
        basis = basis_for(0.5, 0.5, 0.3, FrictionSet(0.1, 0.2, 0.3))
        for ext, axis in (
            (Wrench(math.nan, 0.0, -1.0), "m"), (Wrench(0.0, math.inf, -1.0), "fx"), (Wrench(1.0, 0.0, -math.inf), "fy"),
        ):
            with pytest.raises(ValueError, match=f"^external wrench has a non-finite {axis}$"):
                solve_force_balance(basis, ext)

    def test_a_non_finite_basis_wrench_is_named(self):
        wrenches = list(basis_for(0.3, math.radians(10.0), math.radians(40.0), FrictionSet(0.2, 0.4, 0.4)))
        wrenches[2] = Wrench(math.nan, wrenches[2].fx, wrenches[2].fy)
        basis = WrenchBasis(tuple(wrenches))
        with pytest.raises(ValueError, match="^H1 wrench has a non-finite m$"):
            solve_form_closure(basis)
        with pytest.raises(ValueError, match="^H1 wrench has a non-finite m$"):
            solve_force_balance(basis, GRAVITY)


_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def _block_matrix(blocks):
    """Sparse block-diagonal matrix from dense blocks of shape (N, r, c), as bench/checker.py builds it."""
    from scipy import sparse

    n, r, c = blocks.shape
    rows = np.repeat(np.arange(n * r).reshape(n, r, 1), c, axis=2)
    cols = np.repeat(np.arange(n * c).reshape(n, 1, c), r, axis=1)
    return sparse.csr_matrix((blocks.ravel(), (rows.ravel(), cols.ravel())), shape=(n * r, n * c))


class TestAgainstHighs:
    """Each mode on 3,000 random catalog cells, every fifth frictionless, against HiGHS.

    Both HiGHS LPs solve all cells at once, block-diagonally. Feasibility is a
    zero L1 distance of the target from the cone in the normalised frame of
    the kernel (moment row over the half-length, unit columns and target); the
    certificate's, and in force balance the oracle's, must match it wherever
    the cone score lies outside the band. Objectives must match within 1e-9
    relative on every cell both call feasible.
    """

    @pytest.fixture(scope="class")
    def cells(self):
        rng = random.Random(2024)
        catalog = list(load_catalog().values())
        cells = []
        for n in range(3000):
            obj, gripper = rng.choice(catalog)
            delta = hole_contact_depth(obj, hole_contact_offset(gripper, obj))
            fr = FRICTIONLESS if n % 5 == 0 else FrictionSet(*(rng.uniform(0.0, 0.6) for _ in range(3)))
            cfg = GraspConfig(
                l_a=rng.uniform(0.01, 1.0), alpha=rng.uniform(0.005, math.pi / 2 - 0.005),
                beta=rng.uniform(0.0, math.pi / 2), delta=delta,
            )
            cells.append((obj.a, contact_wrench_basis(obj, cfg, fr)))
        return cells

    @pytest.mark.parametrize("mode", ["force_balance", "form_closure"])
    def test_feasibility_and_objective_match_highs(self, cells, mode):
        optimize = pytest.importorskip("scipy.optimize")
        lengths = np.array([a for a, _ in cells])
        gens = np.array([basis.columns() for _, basis in cells])  # (n, 6, 3)
        if mode == "force_balance":
            targets, lower = np.tile(UNIT_GRAVITY.scaled(-1.0).as_tuple(), (len(cells), 1)), 0.0
            ours = [solve_force_balance(basis, UNIT_GRAVITY) for _, basis in cells]
        else:
            targets, lower = -gens.sum(axis=1), 1.0
            ours = [solve_form_closure(basis) for _, basis in cells]
        feasible = np.array([out.feasible for out in ours])
        score = np.array([cone_score(g, t, a) for g, t, a in zip(gens.tolist(), targets.tolist(), lengths)])

        scale = np.stack([1.0 / lengths, np.ones(len(cells)), np.ones(len(cells))], axis=1)
        unit = gens * scale[:, None, :]
        unit /= np.linalg.norm(unit, axis=2, keepdims=True)
        target = targets * scale
        target /= np.linalg.norm(target, axis=1, keepdims=True)
        eye = np.broadcast_to(np.eye(3), (len(cells), 3, 3))
        distance = optimize.linprog(
            np.tile(np.r_[np.zeros(6), np.ones(6)], len(cells)),
            A_eq=_block_matrix(np.concatenate([unit.transpose(0, 2, 1), eye, -eye], axis=2)), b_eq=target.ravel(),
            bounds=(0, None), method="highs", options=_HIGHS_OPTIONS,
        )
        assert distance.status == 0, distance.message
        highs = distance.x.reshape(-1, 12)[:, 6:].sum(axis=1) <= 1e-9
        decided = np.abs(score) > CONE_BAND
        assert np.array_equal(feasible[decided], highs[decided])
        if mode == "force_balance":
            oracle = np.array([oracle_force_balance(basis, UNIT_GRAVITY) for _, basis in cells])
            assert np.array_equal(oracle[decided], highs[decided])

        both = feasible & highs
        rhs = targets[both] if mode == "force_balance" else np.zeros((int(both.sum()), 3))
        optimum = optimize.linprog(
            np.ones(6 * int(both.sum())), A_eq=_block_matrix(gens[both].transpose(0, 2, 1)), b_eq=rhs.ravel(),
            bounds=(lower, None), method="highs", options=_HIGHS_OPTIONS,
        )
        assert optimum.status == 0, optimum.message
        objective = [out.objective for out, ok in zip(ours, both) if ok]
        np.testing.assert_allclose(objective, optimum.x.reshape(-1, 6).sum(axis=1), rtol=1e-9, atol=0)
        print(f"{mode}: {len(cells)} cells, {int(both.sum())} feasible, {int(np.sum(~decided))} band cells")
