"""Property tests over random catalog cells; skipped where hypothesis is not installed."""

import math
from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from pivotgrasp.geometry import GraspConfig, hole_contact_depth, hole_contact_offset, load_catalog  # noqa: E402
from pivotgrasp.lp import oracle_force_balance, solve_force_balance  # noqa: E402
from pivotgrasp.stability import MODES, is_stable, stable_cells  # noqa: E402
from pivotgrasp.wrenches import FrictionSet, contact_wrench_basis, gravity_wrench  # noqa: E402

CATALOG = load_catalog()
MU = st.floats(0.0, 0.6)


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(sorted(CATALOG)),
    l_a=st.floats(0.01, 1.0),
    alpha=st.floats(0.005, math.pi / 2 - 0.005),
    beta=st.floats(0.0, math.pi / 2),
    mu=st.tuples(MU, MU, MU),
    log_mass=st.floats(-12.0, 12.0),
)
def test_force_balance_does_not_depend_on_the_mass(name, l_a, alpha, beta, mu, log_mass):
    obj, gripper = CATALOG[name]
    delta = hole_contact_depth(obj, hole_contact_offset(gripper, obj))
    basis = contact_wrench_basis(obj, GraspConfig(l_a=l_a, alpha=alpha, beta=beta, delta=delta), FrictionSet(*mu))
    unit, weight = (gravity_wrench(replace(obj, mass=m)) for m in (1.0, 10.0 ** log_mass))
    assert solve_force_balance(basis, weight).feasible == solve_force_balance(basis, unit).feasible
    assert oracle_force_balance(basis, weight) == oracle_force_balance(basis, unit)


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(sorted(CATALOG)),
    l_a=st.floats(0.01, 1.0),
    alpha=st.floats(0.005, math.pi / 2 - 0.005),
    betas=st.lists(st.floats(0.0, math.pi / 2), min_size=2, max_size=8),
    mu=st.tuples(MU, MU, MU),
    mode=st.sampled_from(MODES),
    log_scale=st.floats(-3.0, 3.0),
)
def test_decisions_do_not_depend_on_the_length_unit(name, l_a, alpha, betas, mu, mode, log_scale):
    obj, gripper = CATALOG[name]
    delta = hole_contact_depth(obj, hole_contact_offset(gripper, obj))
    k = 10.0 ** log_scale
    scaled = replace(obj, a=obj.a * k, b=obj.b * k, D=obj.D * k, d=obj.d * k)
    friction = FrictionSet(*mu)
    for beta in betas:
        cfg = GraspConfig(l_a=l_a, alpha=alpha, beta=beta, delta=delta)
        assert is_stable(scaled, replace(cfg, delta=delta * k), friction, mode) == is_stable(obj, cfg, friction, mode)
    # A few cells, so the kernel decides all but the first.
    cells = (friction, l_a, alpha, betas, mode)
    assert stable_cells(scaled, *cells, delta=delta * k).tolist() == stable_cells(obj, *cells, delta=delta).tolist()


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(sorted(CATALOG)),
    la=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=3),
    alpha=st.lists(st.floats(0.005, math.pi / 2 - 0.005), min_size=1, max_size=3),
    beta=st.lists(st.floats(0.0, math.pi / 2), min_size=1, max_size=6),
    mu=st.tuples(MU, MU, MU),
    more=st.tuples(MU, MU, MU),
    mode=st.sampled_from(MODES),
)
def test_more_friction_keeps_every_stable_cell(name, la, alpha, beta, mu, more, mode):
    # Criterion 3 as a property: friction mu <= mu' componentwise, on an
    # (l_a, alpha, beta) grid, so the kernel decides all but the first cell.
    obj, gripper = CATALOG[name]
    delta = hole_contact_depth(obj, hole_contact_offset(gripper, obj))
    grid = np.array(la)[:, None, None], np.array(alpha)[None, :, None], np.array(beta)
    low = stable_cells(obj, FrictionSet(*mu), *grid, mode, delta=delta)
    high = stable_cells(obj, FrictionSet(*(m + d for m, d in zip(mu, more))), *grid, mode, delta=delta)
    assert not (low & ~high).any()
