"""Independent answers for the benchmark's correctness checks.

Cone membership is decided here without `pivotgrasp.lp`: a cell is stable
when its target wrench (minus gravity for force balance, minus the sum of
the basis wrenches for form closure) lies in the cone of the six basis
wrenches. With scipy present, HiGHS solves two block-diagonal LPs for a
whole batch of cells: the L1 distance of an outside target from the cone,
and the radius of the largest L1 ball around an inside target that stays in
the cone. Without scipy, a Caratheodory enumeration over the 20 column
triples decides membership of the target and of six probes around it.

Targets closer to the cone boundary than `BOUNDARY_TOL` (in the normalised
frame below) are undecided: the program's own solver is boundary-inclusive
with its own tolerances, so neither answer would be wrong there.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

FEASIBLE = 1
INFEASIBLE = 0
UNDECIDED = -1

BOUNDARY_TOL = 1e-6

_PROBES = np.vstack([np.eye(3), -np.eye(3)])
_TRIPLES = np.array(list(combinations(range(6), 3)))


def cell_problem(pg, obj, cfg, friction, mode):
    """Generators (6, 3) and target (3,) of one cell, normalised.

    The moment row is divided by the object half-length so that it is
    dimensionless, then every generator and the target are scaled to unit
    length. Neither step changes cone membership.
    """
    basis = pg.contact_wrench_basis(obj, cfg, friction)
    gens = np.array([w.as_tuple() for w in basis], dtype=float)
    if mode == "force_balance":
        target = -np.array(pg.gravity_wrench(obj).as_tuple(), dtype=float)
    else:
        target = -gens.sum(axis=0)
    scale = np.array([1.0 / obj.a, 1.0, 1.0])
    gens = gens * scale
    target = target * scale
    gens /= np.linalg.norm(gens, axis=1, keepdims=True)
    norm = np.linalg.norm(target)
    # A zero target (form closure with the unit combination) is trivially inside.
    return gens, (target / norm if norm > 0 else np.zeros(3))


def engine() -> str:
    """The membership engine in use: "highs" with scipy, else "caratheodory"."""
    try:
        import scipy.optimize  # noqa: F401
    except ImportError:
        return "caratheodory"
    return "highs"


def verdicts(problems) -> np.ndarray:
    """FEASIBLE, INFEASIBLE or UNDECIDED for each (generators, target) pair."""
    if not problems:
        return np.zeros(0, dtype=np.int8)
    gens = np.array([g for g, _ in problems])
    targets = np.array([t for _, t in problems])
    if engine() == "highs":
        return _verdicts_highs(gens, targets)
    return _verdicts_enumeration(gens, targets)


def compare(expected, found) -> tuple[int, int, int]:
    """(agree, disagree, undecided) between program booleans and verdicts."""
    agree = disagree = undecided = 0
    for e, v in zip(expected, found):
        if v == UNDECIDED:
            undecided += 1
        elif bool(e) == (v == FEASIBLE):
            agree += 1
        else:
            disagree += 1
    return agree, disagree, undecided


# ---------------------------------------------------------------------------
# scipy / HiGHS
# ---------------------------------------------------------------------------

_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def _block_matrix(blocks: np.ndarray):
    """Sparse block-diagonal matrix from dense blocks of shape (N, r, c)."""
    from scipy import sparse

    n, r, c = blocks.shape
    rows = (np.arange(n)[:, None, None] * r + np.arange(r)[None, :, None]) + np.zeros((1, 1, c), int)
    cols = (np.arange(n)[:, None, None] * c + np.arange(c)[None, None, :]) + np.zeros((1, r, 1), int)
    return sparse.csr_matrix((blocks.ravel(), (rows.ravel(), cols.ravel())), shape=(n * r, n * c))


def _l1_distance(gens: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """min |r|_1 s.t. G^T k + r = b, k >= 0, for every cell in one LP."""
    from scipy.optimize import linprog

    n = len(targets)
    eye = np.broadcast_to(np.eye(3), (n, 3, 3))
    blocks = np.concatenate([gens.transpose(0, 2, 1), eye, -eye], axis=2)  # (n, 3, 12)
    cost = np.tile(np.r_[np.zeros(6), np.ones(6)], n)
    res = linprog(cost, A_eq=_block_matrix(blocks), b_eq=targets.ravel(), bounds=(0, None),
                  method="highs", options=_HIGHS_OPTIONS)
    if res.status != 0:
        raise RuntimeError(f"checker phase-1 LP failed: {res.message}")
    return res.x.reshape(n, 12)[:, 6:].sum(axis=1)


def _inside_radius(gens: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """max t s.t. b + t*p lies in the cone for all six probes p = +-e_i.

    The six points span an L1 ball of radius t, so t is a lower bound on
    the distance from b to the cone boundary. Cells are solved as one block
    LP; if any block is infeasible (a target within solver tolerance of the
    boundary) the batch falls back to one LP per cell, and such cells get 0.
    """
    from scipy.optimize import linprog

    n = len(targets)
    blocks = np.zeros((n, 18, 37))
    for j, p in enumerate(_PROBES):
        blocks[:, 3 * j:3 * j + 3, 6 * j:6 * j + 6] = gens.transpose(0, 2, 1)
        blocks[:, 3 * j:3 * j + 3, 36] = -p
    rhs = np.tile(targets, (1, 6))  # (n, 18)
    cost = np.zeros((n, 37))
    cost[:, 36] = -1.0
    bounds = ([(0, None)] * 36 + [(0, 1)]) * n
    res = linprog(cost.ravel(), A_eq=_block_matrix(blocks), b_eq=rhs.ravel(), bounds=bounds,
                  method="highs", options=_HIGHS_OPTIONS)
    if res.status == 0:
        return res.x.reshape(n, 37)[:, 36]
    if n == 1:
        return np.zeros(1)
    return np.concatenate([_inside_radius(gens[i:i + 1], targets[i:i + 1]) for i in range(n)])


def _verdicts_highs(gens: np.ndarray, targets: np.ndarray) -> np.ndarray:
    out = np.full(len(targets), UNDECIDED, dtype=np.int8)
    dist = _l1_distance(gens, targets)
    out[dist > BOUNDARY_TOL] = INFEASIBLE
    inside = np.flatnonzero(dist <= 1e-12)
    if len(inside):
        radius = _inside_radius(gens[inside], targets[inside])
        out[inside[radius > BOUNDARY_TOL]] = FEASIBLE
    return out


# ---------------------------------------------------------------------------
# Caratheodory enumeration (no scipy)
# ---------------------------------------------------------------------------


def _in_cone(gens: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Membership by Cramer's rule over every nonsingular column triple.

    For generators spanning R^3, a target is in the cone iff some linearly
    independent triple holds it with nonnegative coefficients.
    """
    c0, c1, c2 = (gens[:, _TRIPLES[:, i], :] for i in range(3))  # (n, 20, 3)
    b = targets[:, None, :]
    det = np.einsum("ntk,ntk->nt", c0, np.cross(c1, c2))
    k0 = np.einsum("ntk,ntk->nt", b, np.cross(c1, c2))
    k1 = np.einsum("ntk,ntk->nt", c0, np.cross(b, c2))
    k2 = np.einsum("ntk,ntk->nt", c0, np.cross(c1, b))
    ok = np.abs(det) > 1e-9
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.stack([k0, k1, k2], axis=-1) / det[..., None]
    return np.any(ok & np.all(k >= -1e-12, axis=-1), axis=1)


def _verdicts_enumeration(gens: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Decided when the target and its six probes at BOUNDARY_TOL all agree."""
    points = [targets] + [targets + BOUNDARY_TOL * p for p in _PROBES]
    inside = np.stack([_in_cone(gens, pts) for pts in points], axis=1)  # (n, 7)
    out = np.full(len(targets), UNDECIDED, dtype=np.int8)
    out[inside.all(axis=1)] = FEASIBLE
    out[~inside.any(axis=1)] = INFEASIBLE
    return out


# ---------------------------------------------------------------------------
# Wilson score interval
# ---------------------------------------------------------------------------


def wilson_pct(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval in percent, from the closed form."""
    p = successes / trials
    z2 = z * z
    centre = p + z2 / (2 * trials)
    spread = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
    denom = 1 + z2 / trials
    return (100 * max(0.0, (centre - spread) / denom), 100 * min(1.0, (centre + spread) / denom))
