"""Cone-membership tests for grasp feasibility: a batched kernel and a dense LP core.

Two fixed-shape problems are posed over the six basis contact wrenches:

* force balance: min sum(k) s.t. ext + sum(k_i F_i) = 0, k_i >= 0
* form closure:  min sum(k) s.t. sum(k_i F_i) = 0, k_i >= 1

Both ask whether a target (-ext, or -sum(F_i) after the shift k = 1 + u) lies
in the cone of the six columns. For many cells at once that question is
decided by `cone_membership`, a numpy kernel over the 20 column triples
(Caratheodory's theorem for cones). The kernel leaves cells within
`CONE_BAND` of the cone boundary undecided; those, single cells and every
certificate go to the two-phase dense simplex with Bland's rule (no cycling)
on the 3-equality-row LP, which returns the minimising coefficients. Both
LPs reach it through one wrapper (`_solve_shifted`) that differs between
them only in the external wrench and the lower bound. An
independent basic-solution enumeration oracle (`oracle_force_balance`)
cross-checks the simplex and must never be merged with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .wrenches import Wrench, WrenchBasis

# Equality residuals carry the trig noise of the wrench coefficients
# (~1e-15) amplified by pivoting; 1e-7 leaves margin without admitting
# genuinely infeasible cells. Bounds get a tighter 1e-9.
RESIDUAL_TOL = 1e-7
BOUND_TOL = 1e-9

_PIVOT_TOL = 1e-11
_REDCOST_TOL = 1e-11
_ITERATION_CAP = 10_000


class LpDegeneracyError(RuntimeError):
    """Simplex exceeded its iteration cap; indicates a bug, not a model state."""


@dataclass(frozen=True)
class LpOutcome:
    feasible: bool
    coefficients: tuple[float, ...] | None = None
    objective: float | None = None
    residual: float | None = None


def _solve_nonneg(
    columns: list[tuple[float, float, float]],
    rhs: tuple[float, float, float],
) -> tuple[bool, list[float] | None]:
    """min sum(k) s.t. sum(k_j * columns[j]) = rhs, k >= 0.

    Dense two-phase simplex on the 3-row tableau. Phase 1 minimises the sum
    of artificial variables (the L1 equality residual); at most RESIDUAL_TOL
    of it may remain for the problem to count as feasible, which makes the
    feasible region boundary inclusive.
    """
    n = len(columns)
    m = 3
    # Tableau rows [A | I_artificial | b] with b >= 0.
    T = []
    for i in range(m):
        s = 1.0 if rhs[i] >= 0.0 else -1.0
        row = [s * columns[j][i] for j in range(n)]
        row.extend(1.0 if j == i else 0.0 for j in range(m))
        row.append(s * rhs[i])
        T.append(row)
    basis = list(range(n, n + m))
    ncols = n + m + 1

    def pivot(row: int, col: int) -> None:
        prow = T[row]
        inv = 1.0 / prow[col]
        for j in range(ncols):
            prow[j] *= inv
        for i in range(len(T)):
            if i == row:
                continue
            f = T[i][col]
            if f != 0.0:
                tr = T[i]
                for j in range(ncols):
                    tr[j] -= f * prow[j]
        basis[row] = col

    def run(cost: list[float], allow: int) -> float:
        # Bland's rule throughout: entering = lowest eligible index,
        # leaving = lowest basis index among minimum ratios. Terminates.
        for _ in range(_ITERATION_CAP):
            enter = -1
            for j in range(allow):
                cj = cost[j]
                for i in range(len(T)):
                    cb = cost[basis[i]]
                    if cb != 0.0:
                        cj -= cb * T[i][j]
                if cj < -_REDCOST_TOL:
                    enter = j
                    break
            if enter < 0:
                return sum(cost[basis[i]] * T[i][ncols - 1] for i in range(len(T)))
            leave = -1
            best = math.inf
            for i in range(len(T)):
                aij = T[i][enter]
                if aij > _PIVOT_TOL:
                    r = T[i][ncols - 1] / aij
                    if r < best - 1e-12 or (
                        leave >= 0 and abs(r - best) <= 1e-12 and basis[i] < basis[leave]
                    ):
                        best = r
                        leave = i
            if leave < 0:
                # Unbounded descent; cannot occur for these objectives.
                raise LpDegeneracyError("unbounded phase objective")
            pivot(leave, enter)
        raise LpDegeneracyError("simplex iteration cap exceeded")

    cost1 = [0.0] * n + [1.0] * m
    if run(cost1, n + m) > RESIDUAL_TOL:
        return False, None

    # Remove artificials: pivot each basic one onto a real column, or drop
    # its (redundant, ~zero) row entirely so phase 2 sees none.
    for i in range(len(T) - 1, -1, -1):
        if basis[i] >= n:
            for j in range(n):
                if abs(T[i][j]) > 1e-9:
                    pivot(i, j)
                    break
            else:
                del T[i]
                del basis[i]

    cost2 = [1.0] * n + [0.0] * m
    run(cost2, n)

    coeffs = [0.0] * n
    for i in range(len(T)):
        # Pivoting noise can leave a basic value at -1e-16; clamp to the bound.
        coeffs[basis[i]] = max(T[i][ncols - 1], 0.0)
    return True, coeffs


def _solve_shifted(
    columns: list[tuple[float, float, float]],
    ext: tuple[float, float, float],
    shift: float,
) -> LpOutcome:
    """min sum(k) s.t. ext + sum(k_j * columns[j]) = 0, k >= shift.

    The shift k = shift + u with u >= 0 reuses the nonnegative simplex
    unchanged; the residual is measured on k against the unshifted equation.
    """
    rhs = tuple(-e for e in ext)
    if shift:
        rhs = tuple(rhs[i] - shift * sum(col[i] for col in columns) for i in range(3))
    feasible, coeffs = _solve_nonneg(columns, rhs)
    if not feasible:
        return LpOutcome(False)
    if shift:
        coeffs = [u + shift for u in coeffs]
    residual = max(
        abs(ext[i] + sum(coeffs[j] * columns[j][i] for j in range(len(columns)))) for i in range(3)
    )
    return LpOutcome(True, coefficients=tuple(coeffs), objective=sum(coeffs), residual=residual)


def solve_force_balance(basis: WrenchBasis, ext: Wrench) -> LpOutcome:
    """Can nonnegative combinations of the basis wrenches cancel ext?

    Feasible iff -ext lies in the cone of the six columns; the returned
    coefficients minimise their sum.
    """
    return _solve_shifted(basis.columns(), ext.as_tuple(), 0.0)


def solve_form_closure(basis: WrenchBasis) -> LpOutcome:
    """Does a strictly positive combination of the basis wrenches sum to zero?"""
    return _solve_shifted(basis.columns(), (0.0, 0.0, 0.0), 1.0)


# Batched cone membership for many cells at once (Caratheodory's theorem for
# cones: a target in the cone of six generators spanning R^3 lies in the cone
# of some linearly independent triple of them).
_PAIRS = tuple(combinations(range(6), 2))
_TRIPLES = tuple(combinations(range(6), 3))
_PAIR_I = np.array([i for i, _ in _PAIRS])
_PAIR_J = np.array([j for _, j in _PAIRS])
_PAIR_INDEX = {pair: n for n, pair in enumerate(_PAIRS)}
_TRIPLE_I = np.array([i for i, _, _ in _TRIPLES])
_TRIPLE_JK = np.array([_PAIR_INDEX[(j, k)] for _, j, k in _TRIPLES])
_TRIPLE_IK = np.array([_PAIR_INDEX[(i, k)] for i, _, k in _TRIPLES])
_TRIPLE_IJ = np.array([_PAIR_INDEX[(i, j)] for i, j, _ in _TRIPLES])

# Triples of unit generators with |det| at or below this are singular; above
# it the Cramer coefficients carry at most ~1e-7 of rounding, well inside
# the band.
_SINGULAR_DET = 1e-9
# Scores within +-CONE_BAND of zero are too close to the boundary for the
# kernel to overrule the simplex's own tolerances.
CONE_BAND = 1e-6
# Cells per kernel pass. Small passes keep the temporaries in cache and bound
# their memory; on a 2-core x86 box a default 32,399-cell grid ran about 2x
# faster than in one pass, and a 1,295-cell grid about 1.25x faster than at
# 2,048 cells per pass (fewer page faults from fresh temporaries).
_CHUNK = 512


def cone_scores(gens: np.ndarray, targets: np.ndarray, length: float) -> np.ndarray:
    """Signed membership score of each target in the cone of its generators.

    gens has shape (N, 6, 3) and targets (N, 3), rows (m, fx, fy). The
    moment row is divided by `length`, then every generator and target is
    scaled to unit length; neither step changes membership. A cell's score
    is, over its nonsingular column triples, the largest smallest Cramer
    coefficient of the target: positive inside the cone, negative outside.
    A zero target scores +inf (inside); a cell whose triples are all
    singular scores NaN.
    """
    score = np.empty(len(gens))
    for s in range(0, len(gens), _CHUNK):
        score[s:s + _CHUNK] = _chunk_scores(gens[s:s + _CHUNK], targets[s:s + _CHUNK], length)
    return score


def _chunk_scores(gens: np.ndarray, targets: np.ndarray, length: float) -> np.ndarray:
    scale = np.array([1.0 / length, 1.0, 1.0])
    g = np.ascontiguousarray((gens * scale).transpose(2, 1, 0))  # (3, 6, N)
    g /= np.sqrt((g * g).sum(axis=0))
    t = (targets * scale).T  # (3, N)
    t_norm = np.sqrt((t * t).sum(axis=0))
    zero = t_norm == 0.0
    t = t / np.where(zero, 1.0, t_norm)

    # In-place updates below keep fresh temporaries, and so page faults, down.
    m, x, y = g
    mi, xi, yi = m[_PAIR_I], x[_PAIR_I], y[_PAIR_I]
    mj, xj, yj = m[_PAIR_J], x[_PAIR_J], y[_PAIR_J]
    cm = xi * yj  # (15, N): pair cross products g_i x g_j
    cm -= yi * xj
    cx = yi * mj
    cx -= mi * yj
    cy = mi * xj
    cy -= xi * mj
    tc = t[0] * cm  # target . (g_i x g_j)
    tc += t[1] * cx
    tc += t[2] * cy

    det = m[_TRIPLE_I] * cm[_TRIPLE_JK]  # (20, N): g_i . (g_j x g_k)
    det += x[_TRIPLE_I] * cx[_TRIPLE_JK]
    det += y[_TRIPLE_I] * cy[_TRIPLE_JK]
    singular = np.abs(det) <= _SINGULAR_DET
    det[singular] = 1.0
    # Cramer's rule: the target's coefficients on g_i, g_j, g_k.
    smallest = tc[_TRIPLE_JK]
    smallest /= det
    k = tc[_TRIPLE_IJ]
    k /= det
    np.minimum(smallest, k, out=smallest)
    k = tc[_TRIPLE_IK]
    k /= det
    np.negative(k, out=k)
    np.minimum(smallest, k, out=smallest)
    smallest[singular] = -np.inf
    score = smallest.max(axis=0)
    score[score == -np.inf] = np.nan
    score[zero] = np.inf
    return score


def cone_membership(gens: np.ndarray, targets: np.ndarray, length: float) -> tuple[np.ndarray, np.ndarray]:
    """(inside, undecided) boolean arrays from `cone_scores`.

    Cells whose score lies within CONE_BAND of zero, or is NaN, are
    undecided: the caller answers them with the simplex.
    """
    score = cone_scores(gens, targets, length)
    inside = score > CONE_BAND
    return inside, ~(inside | (score < -CONE_BAND))


def oracle_force_balance(basis: WrenchBasis, ext: Wrench) -> bool:
    """Brute-force cone membership check, independent of the simplex.

    Enumerates every column subset of size one to three and solves the
    corresponding exactly- or over-determined system; -ext is in the cone
    iff some subset admits a componentwise nonnegative solution. By
    Caratheodory's theorem for cones this enumeration is exhaustive.
    """
    b = -np.array(ext.as_tuple())
    if float(np.max(np.abs(b))) <= RESIDUAL_TOL:
        return True
    cols = np.array(basis.columns()).T  # 3 x 6
    for size in (3, 2, 1):
        for subset in combinations(range(6), size):
            A = cols[:, subset]
            if size == 3:
                try:
                    k = np.linalg.solve(A, b)
                except np.linalg.LinAlgError:
                    continue
            else:
                k = np.linalg.lstsq(A, b, rcond=None)[0]
            if float(np.min(k)) < -BOUND_TOL:
                continue
            if float(np.max(np.abs(A @ k - b))) <= RESIDUAL_TOL:
                return True
    return False
