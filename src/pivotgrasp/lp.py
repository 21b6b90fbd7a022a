"""Cone-membership tests for grasp feasibility: a batched score kernel and basic-solution certificates.

Two fixed-shape problems are posed over the six basis contact wrenches:

* force balance: min sum(k) s.t. ext + sum(k_i F_i) = 0, k_i >= 0
* form closure:  min sum(k) s.t. sum(k_i F_i) = 0, k_i >= 1

Both ask whether a target (-ext, or -sum(F_i) after the shift k = 1 + u)
lies in the cone of the six columns, and every answer here enumerates column
subsets: by Caratheodory's theorem for cones a target in the cone lies in the
cone of at most three linearly independent columns. This module computes;
`stability` decides. A numpy kernel (`product_scores`) scores many cells over
the 20 column triples, a chunk at a time; `cone_score` gives the same score
for one cell in Python floats. The certificate, the cheapest nonnegative
basic solution of the 3-row LP, answers one cell with its minimising
coefficients; both LPs reach it through one wrapper (`_solve_shifted`) that
differs between them only in the external wrench and the lower bound.
`stability` asks it in `is_stable` and for cells whose score lies within
`CONE_BAND` of zero or is NaN. An independent oracle (`oracle_force_balance`)
solves all 41 subsets by least squares in one numpy batch; it cross-checks
the certificate and must never be merged with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .wrenches import WRENCH_LABELS, Wrench, WrenchBasis

# Equality residuals carry the trig noise of the wrench coefficients
# (~1e-15) amplified by the solve; 1e-7 leaves margin without admitting
# genuinely infeasible cells. Bounds get a tighter 1e-9.
RESIDUAL_TOL = 1e-7
BOUND_TOL = 1e-9


@dataclass(frozen=True)
class LpOutcome:
    feasible: bool
    coefficients: tuple[float, ...] | None = None
    objective: float | None = None
    residual: float | None = None


# Column pairs and triples of the six wrenches, and per triple (i, j, k): i and
# the indices of its pairs (j, k), (i, j), (i, k).
_PAIRS = tuple(combinations(range(6), 2))
_TRIPLES = tuple(combinations(range(6), 3))
_PAIR_INDEX = {pair: n for n, pair in enumerate(_PAIRS)}
_TRIPLE_PAIRS = tuple((i, _PAIR_INDEX[(j, k)], _PAIR_INDEX[(i, j)], _PAIR_INDEX[(i, k)]) for i, j, k in _TRIPLES)


def _solve_nonneg(
    columns: list[tuple[float, float, float]],
    rhs: tuple[float, float, float],
) -> tuple[bool, list[float] | None]:
    """min sum(k) s.t. sum(k_j * columns[j]) = rhs, k >= 0, over six columns.

    With 3 equality rows an optimum is a basic solution, nonzero on at most 3
    linearly independent columns: the cheapest one with every coefficient at
    least -BOUND_TOL (then clamped to 0) and an L1 equality residual at most
    RESIDUAL_TOL, which makes the feasible region boundary inclusive. The 20
    triples are solved by Cramer's rule, as `cone_score` solves them. Only if
    none qualifies (the columns span less than R^3, or the target lies within
    RESIDUAL_TOL outside their cone) are the 15 pairs and the 6 single
    columns solved by their normal equations.
    """
    tm, tx, ty = rhs
    cross, tc = [], []
    for i, j in _PAIRS:
        mi, xi, yi = columns[i]
        mj, xj, yj = columns[j]
        cm, cx, cy = xi * yj - yi * xj, yi * mj - mi * yj, mi * xj - xi * mj
        cross.append((cm, cx, cy))
        tc.append(tm * cm + tx * cx + ty * cy)
    best, basic = math.inf, None
    for (i, j, k), (_, jk, ij, ik) in zip(_TRIPLES, _TRIPLE_PAIRS):
        mi, xi, yi = columns[i]
        cm, cx, cy = cross[jk]
        det = mi * cm + xi * cx + yi * cy
        if det != 0.0:
            ki, kj, kk = tc[jk] / det, -(tc[ik] / det), tc[ij] / det
            if ki >= -BOUND_TOL and kj >= -BOUND_TOL and kk >= -BOUND_TOL:
                best, basic = _cheaper(columns, rhs, best, basic, ((i, ki), (j, kj), (k, kk)))
    if basic is None:
        sq = [m * m + x * x + y * y for m, x, y in columns]
        ct = [tm * m + tx * x + ty * y for m, x, y in columns]
        for (i, j), (cm, cx, cy) in zip(_PAIRS, cross):
            # The Gram determinant |c_i|^2 |c_j|^2 - (c_i . c_j)^2 is |c_i x c_j|^2.
            det = cm * cm + cx * cx + cy * cy
            if det != 0.0:
                mi, xi, yi = columns[i]
                mj, xj, yj = columns[j]
                dot = mi * mj + xi * xj + yi * yj
                ki, kj = (sq[j] * ct[i] - dot * ct[j]) / det, (sq[i] * ct[j] - dot * ct[i]) / det
                if ki >= -BOUND_TOL and kj >= -BOUND_TOL:
                    best, basic = _cheaper(columns, rhs, best, basic, ((i, ki), (j, kj)))
        for j in range(6):
            if sq[j] != 0.0 and ct[j] / sq[j] >= -BOUND_TOL:
                best, basic = _cheaper(columns, rhs, best, basic, ((j, ct[j] / sq[j]),))
    if basic is None:
        return False, None
    return True, [dict(basic).get(j, 0.0) for j in range(6)]


def _cheaper(columns, rhs, best, basic, candidate):
    """(best, basic) or, if cheaper and within RESIDUAL_TOL, the candidate's (sum, clamped (column, k) pairs)."""
    candidate = tuple((j, max(k, 0.0)) for j, k in candidate)
    cost = sum(k for _, k in candidate)
    if cost < best and sum(
        abs(rhs[r] - sum(k * columns[j][r] for j, k in candidate)) for r in range(3)
    ) <= RESIDUAL_TOL:
        return cost, candidate
    return best, basic


def _solve_shifted(
    columns: list[tuple[float, float, float]],
    ext: tuple[float, float, float],
    shift: float,
) -> LpOutcome:
    """min sum(k) s.t. ext + sum(k_j * columns[j]) = 0, k >= shift.

    The shift k = shift + u with u >= 0 reuses the nonnegative solve
    unchanged; the residual is measured on k against the unshifted equation.
    A NaN or infinite entry raises ValueError naming it, before any solve.
    """
    if not math.isfinite(sum(ext) + sum(map(sum, columns))):
        for name, wrench in zip(("external", *WRENCH_LABELS), (ext, *columns)):
            for axis, value in zip(("m", "fx", "fy"), wrench):
                if not math.isfinite(value):
                    raise ValueError(f"{name} wrench has a non-finite {axis}")
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
    coefficients minimise their sum. The solve is for ext divided by its
    largest absolute component, so its absolute tolerances do not make
    the answer depend on the size of ext; the coefficients, objective and
    residual are scaled back. Dividing by 1.0 (a unit or zero ext) is exact.
    """
    e = ext.as_tuple()
    scale = max(map(abs, e)) or 1.0
    out = _solve_shifted(basis.columns(), tuple(v / scale for v in e), 0.0)
    if not out.feasible:
        return out
    return LpOutcome(
        True, tuple(k * scale for k in out.coefficients), out.objective * scale, out.residual * scale
    )


def solve_form_closure(basis: WrenchBasis) -> LpOutcome:
    """Does a strictly positive combination of the basis wrenches sum to zero?"""
    return _solve_shifted(basis.columns(), (0.0, 0.0, 0.0), 1.0)


# Batched cone membership for many cells at once (Caratheodory's theorem for
# cones: a target in the cone of six generators spanning R^3 lies in the cone
# of some linearly independent triple of them).
_PAIR_I = np.array([i for i, _ in _PAIRS])
_PAIR_J = np.array([j for _, j in _PAIRS])
_TRIPLE_I, _TRIPLE_JK, _TRIPLE_IJ, _TRIPLE_IK = map(np.array, zip(*_TRIPLE_PAIRS))
# Pairs of the target's Cramer numerators on g_i, g_k and, negated, g_j.
_CRAMER = np.concatenate([_TRIPLE_JK, _TRIPLE_IJ, _TRIPLE_IK])

# Triples of unit generators with |det| at or below this are singular; above
# it the Cramer coefficients carry at most ~1e-7 of rounding, well inside
# the band.
_SINGULAR_DET = 1e-9
# Scores within +-CONE_BAND of zero are too close to the boundary for the
# kernel to overrule the certificate's own tolerances (RESIDUAL_TOL and
# BOUND_TOL); `stability` sends those cells to `is_stable`.
CONE_BAND = 1e-6
# Cells per kernel pass. A pass works in _ROWS floats per cell, about 1 MiB
# at 512 cells, so it stays in cache: on a 2-core x86 box a default
# 32,399-cell grid ran 2.4 to 2.7x faster than in one pass, and 256 to 2,048
# cells per pass all ran within about 10 % of each other.
_CHUNK = 512
# Workspace rows per cell, reused pass by pass: the pair crosses (0-44, the features
# before them), the 7 columns with their m and x rows repeated (45-79), rows x, y, m, x
# of them at each pair's i and j (80-199), then the 35 dot products' columns (150-254),
# crosses (45-149) and values (45-79): the 20 triples' g_i . (g_j x g_k), then the
# target (column 6) against each pair.
_ROWS = 255
_DOT_COLUMN = np.concatenate([_TRIPLE_I, np.full(15, 6)])
_DOT_CROSS = np.concatenate([_TRIPLE_JK, np.arange(15)])


def product_scores(table: np.ndarray, cells: int, write, length: float) -> np.ndarray:
    """Signed membership score of each cell's target in the cone of its six generators.

    Component k (m, fx, fy) of column i (six generators, then the target) of a cell is
    table[k, i] @ phi; `write(out, start)` puts phi of cells start, ... in the rows of `out`.
    The moment row is divided by `length`, then every generator and target is scaled to
    unit length; neither step changes membership. A cell's score is, over its nonsingular
    column triples, the largest smallest Cramer coefficient of the target: positive inside
    the cone, negative outside. A zero target scores +inf (inside); a cell whose triples
    are all singular scores NaN.
    """
    table = (table * np.array([1.0 / length, 1.0, 1.0])[:, None, None]).reshape(21, -1)

    def fill(columns, start, spare):
        write(spare[:table.shape[1]], start)
        np.matmul(table, spare[:table.shape[1]], out=columns.reshape(21, -1))

    return _scores(cells, fill)


def _scores(cells: int, fill) -> np.ndarray:
    """Scores of `cells` cells in equal chunks of at most `_CHUNK` (the last maybe shorter).

    `fill(columns, start, spare)` writes the (3, 7, n) columns of a chunk's n cells start, ...;
    `spare` is free rows. Every float temporary is a row view of one workspace, so a chunk
    allocates only its boolean masks and what `fill` makes. Each step applies the ufuncs of
    the plain expression in its comment, in the same operand order, so the layout changes no
    bit of a score. Gathers use mode="clip": with "raise", `take` buffers through a temporary.
    """
    score = np.empty(cells)
    chunks = -(-cells // _CHUNK) or 1
    size = -(-cells // chunks) or 1
    workspace = np.empty(_ROWS * size)
    for start in range(0, cells, size):
        out = score[start:start + size]
        n = len(out)
        work = workspace[:_ROWS * n].reshape(_ROWS, n)
        g5 = work[45:80].reshape(5, 7, n)  # rows m, x, y, m, x
        g = g5[:3]  # columns 0-5 the generators, 6 the target
        fill(g, start, work[:45])
        sq, norm = work[80:101].reshape(3, 7, n), work[101:108]
        np.multiply(g, g, out=sq)
        np.add.reduce(sq, axis=0, out=norm)
        np.sqrt(norm, out=norm)
        zero = norm[6] == 0.0
        norm[6][zero] = 1.0
        g /= norm

        # cm, cx, cy = xi*yj - yi*xj, yi*mj - mi*yj, mi*xj - xi*mj (g_i x g_j)
        cross = work[:45].reshape(3, 15, n)
        pi = work[80:140].reshape(4, 15, n)  # rows x, y, m, x of g5 at each pair's i
        pj = work[140:200].reshape(4, 15, n)  # and at its j
        np.copyto(g5[3:], g5[:2])
        g5[1:].take(_PAIR_I, axis=1, out=pi, mode="clip")
        g5[1:].take(_PAIR_J, axis=1, out=pj, mode="clip")
        np.multiply(pi[:3], pj[1:], out=cross)
        np.multiply(pi[1:], pj[:3], out=pi[1:])
        cross -= pi[1:]
        # dot = c0*cm + c1*cx + c2*cy for each column c and cross of `_DOT_*`:
        # det = g_i . (g_j x g_k) per triple, then tc = t . (g_i x g_j) per pair
        columns, crosses = work[150:255].reshape(3, 35, n), work[45:150].reshape(3, 35, n)
        g.take(_DOT_COLUMN, axis=1, out=columns, mode="clip")
        cross.take(_DOT_CROSS, axis=1, out=crosses, mode="clip")
        np.multiply(columns, crosses, out=columns)
        dot = work[45:80]
        np.add(columns[0], columns[1], out=dot)
        dot += columns[2]
        det, tc = dot[:20], dot[20:]
        np.abs(det, out=work[:20])
        singular = work[:20] <= _SINGULAR_DET
        det[singular] = 1.0
        # Cramer's rule: smallest = min(min(tc[jk] / det, tc[ij] / det), -(tc[ik] / det))
        k = work[80:140].reshape(3, 20, n)
        tc.take(_CRAMER, axis=0, out=k.reshape(60, n), mode="clip")
        k /= det
        np.negative(k[2], out=k[2])
        smallest = work[140:160]
        np.minimum.reduce(k, axis=0, out=smallest)
        smallest[singular] = -np.inf
        np.maximum.reduce(smallest, axis=0, out=out)
        out[out == -np.inf] = np.nan
        out[zero] = np.inf
    return score


def cone_score(gens, target, length: float) -> float:
    """The kernel's score of one cell, in Python floats.

    gens is six (m, fx, fy) triples and target one. Every step applies the
    kernel's operations in the kernel's order, so the score equals the
    kernel's for the same cell: +inf for a zero target, NaN where every
    triple is singular or an input makes the kernel's arithmetic NaN.
    """
    inv = 1.0 / length
    tm, tx, ty = target
    tm = tm * inv
    t_norm = math.sqrt(tm * tm + tx * tx + ty * ty)
    if t_norm == 0.0:
        return math.inf
    tm, tx, ty = tm / t_norm, tx / t_norm, ty / t_norm
    g = []
    for m, x, y in gens:
        m = m * inv
        norm = math.sqrt(m * m + x * x + y * y)
        if norm == 0.0:  # the kernel divides 0 by 0 here
            return math.nan
        g.append((m / norm, x / norm, y / norm))
    # A NaN input leaves a NaN in every nonsingular triple, which the kernel's
    # minimum and maximum propagate and Python's comparisons would drop.
    if math.isnan(tm + tx + ty + sum(map(sum, g))):
        return math.nan
    cross, tc = [], []
    for i, j in _PAIRS:
        mi, xi, yi = g[i]
        mj, xj, yj = g[j]
        cm, cx, cy = xi * yj - yi * xj, yi * mj - mi * yj, mi * xj - xi * mj
        cross.append((cm, cx, cy))
        tc.append(tm * cm + tx * cx + ty * cy)
    best = -math.inf
    for i, jk, ij, ik in _TRIPLE_PAIRS:
        mi, xi, yi = g[i]
        cm, cx, cy = cross[jk]
        det = mi * cm + xi * cx + yi * cy
        if abs(det) <= _SINGULAR_DET:
            continue
        k0, k1, k2 = tc[jk] / det, tc[ij] / det, -(tc[ik] / det)
        smallest = k0 if k0 < k1 else k1
        if k2 < smallest:
            smallest = k2
        if smallest > best:
            best = smallest
    return math.nan if best == -math.inf else best


# The oracle's subsets of one to three columns as index triples; index 6 is a
# zero column (coefficient 0), so each pair and each single column is a triple.
_SUBSETS = np.array([s + (6,) * (3 - n) for n in (1, 2, 3) for s in combinations(range(6), n)])


def oracle_force_balance(basis: WrenchBasis, ext: Wrench) -> bool:
    """Brute-force cone membership check, written apart from the certificate and the kernel.

    Solves every subset of one to three columns by least squares, all 41 in
    one batched pseudo-inverse; -ext is in the cone iff some subset has every
    coefficient at least -BOUND_TOL and a max-norm residual at most
    RESIDUAL_TOL. By Caratheodory's theorem for cones this is exhaustive.
    """
    b = -np.array(ext.as_tuple())
    # Tolerances are absolute, so the target is solved at unit size.
    scale = float(np.max(np.abs(b)))
    if scale == 0.0:
        return True
    b /= scale
    A = np.column_stack([*basis.columns(), (0.0, 0.0, 0.0)])[:, _SUBSETS].transpose(1, 0, 2)  # 41 x 3 x 3
    k = np.linalg.pinv(A) @ b
    residual = np.abs((A @ k[:, :, None])[:, :, 0] - b).max(axis=1)
    return bool(np.any((k.min(axis=1) >= -BOUND_TOL) & (residual <= RESIDUAL_TOL)))
