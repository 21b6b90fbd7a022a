"""Planar contact wrench basis for the three-contact grasp.

Each contact contributes the two edges of its Coulomb friction cone as unit
wrenches (moment, fx, fy), with moments taken about the object's centre of
mass and forces expressed in the world frame. Contact S sits on the top
surface at distance l = 2a*l_a from the hole-side corner; H inside the hole
at depth delta below that corner; G is the ground corner the object pivots
about. The S and H cones rotate with the object tilt beta, the ground cone
does not. On a grid the basis is a coefficient table (`basis_coefficients`)
times per-cell features (`basis_features`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .geometry import GraspConfig, ObjectSpec

WRENCH_LABELS = ("S1", "S2", "H1", "H2", "G1", "G2")


@dataclass(frozen=True)
class Wrench:
    """Planar wrench: moment about the reference point plus a force direction."""

    m: float
    fx: float
    fy: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.m, self.fx, self.fy)

    def scaled(self, c: float) -> "Wrench":
        return Wrench(c * self.m, c * self.fx, c * self.fy)


@dataclass(frozen=True)
class FrictionSet:
    """Coulomb friction coefficients at contacts S, H and G."""

    mu_s: float
    mu_h: float
    mu_g: float

    def __post_init__(self):
        if not all(math.isfinite(mu) and mu >= 0 for mu in (self.mu_s, self.mu_h, self.mu_g)):
            raise ValueError("friction coefficients must be finite and nonnegative")

    @property
    def gamma_s(self) -> float:
        """Friction half-angle at S: atan(mu_s)."""
        return math.atan(self.mu_s)

    @property
    def gamma_h(self) -> float:
        return math.atan(self.mu_h)

    @property
    def gamma_g(self) -> float:
        return math.atan(self.mu_g)


FRICTIONLESS = FrictionSet(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class WrenchBasis:
    """The six cone-edge wrenches in fixed label order S1, S2, H1, H2, G1, G2.

    The order is fixed so downstream LP coefficient columns are reproducible.
    """

    wrenches: tuple[Wrench, Wrench, Wrench, Wrench, Wrench, Wrench]

    labels = WRENCH_LABELS

    def columns(self) -> list[tuple[float, float, float]]:
        return [w.as_tuple() for w in self.wrenches]

    def __iter__(self):
        return iter(self.wrenches)

    def __getitem__(self, i):
        return self.wrenches[i]


def _edge_wrenches(sin, cos, obj: ObjectSpec, fr: FrictionSet, l_a, alpha, beta, delta):
    """(m, fx, fy) of the six cone edges in label order.

    Written once for every caller: `contact_wrench_basis` and the tilt-bound
    bisection evaluate it at a cell, `basis_coefficients` fits its grid
    form to it. It derives l = 2a*l_a and the friction half-angles itself,
    so no caller restates them.
    """
    a, b, l = obj.a, obj.b, 2.0 * obj.a * l_a
    gs, gh, gg = fr.gamma_s, fr.gamma_h, fr.gamma_g
    return (
        ((l - a) * cos(gs) - b * sin(gs), sin(beta + gs), -cos(beta + gs)),
        ((l - a) * cos(gs) + b * sin(gs), sin(beta - gs), -cos(beta - gs)),
        (
            a * sin(alpha - gh) + (b - delta) * cos(alpha - gh),
            -cos(alpha - beta - gh),
            sin(alpha - beta - gh),
        ),
        (
            a * sin(alpha + gh) + (b - delta) * cos(alpha + gh),
            -cos(alpha - beta + gh),
            sin(alpha - beta + gh),
        ),
        (-a * cos(gg - beta) - b * sin(gg - beta), -sin(gg), cos(gg)),
        (-a * cos(gg + beta) + b * sin(gg + beta), sin(gg), cos(gg)),
    )


def contact_wrench_basis(obj: ObjectSpec, cfg: GraspConfig, fr: FrictionSet) -> WrenchBasis:
    """Build the six basis contact wrenches for a grasp configuration.

    S pushes into the top surface, its cone edges at +-gamma_s about the
    inward normal; the moment arm is (l - a) along the object with a +-b
    offset from the friction component. H pulls from inside the hole at
    gripper angle alpha, arm (a, b - delta). G pushes up from the ground
    corner; its force edges are fixed in the world while the arm rotates
    with beta.
    """
    edges = _edge_wrenches(math.sin, math.cos, obj, fr, cfg.l_a, cfg.alpha, cfg.beta, cfg.delta)
    return WrenchBasis(tuple(Wrench(*e) for e in edges))


# Every entry of `_edge_wrenches` at fixed object, friction and delta is linear in a cell's
# phi = (1, l_a, cos a, sin a, cos b, sin b, cos(a - b), sin(a - b)), a = alpha, b = beta. Over the
# cells l_a = (-1)^t, a = t pi/4, b = 3t pi/4 (t < 8) phi is orthogonal: a coefficient is a projection.
_FIT_CELLS = [((-1.0) ** t, t * math.pi / 4, 3 * t * math.pi / 4) for t in range(8)]
_FIT_PHI = np.array([[1.0, l_a, *(f(x) for x in (a, b, a - b) for f in (math.cos, math.sin))]
                     for l_a, a, b in _FIT_CELLS])
_FIT_INVERSE = _FIT_PHI.T / (_FIT_PHI * _FIT_PHI).sum(axis=0)[:, None]
# The most tables `basis_coefficients` keeps. Grasps recur a few at a time: the benchmark's CLI script
# fits 2 grasps per pass, a region family 3 (one per friction set), a plan query 1 (twice); 4 keep all.
_COEFFICIENT_TABLES = 4


@functools.lru_cache(maxsize=_COEFFICIENT_TABLES)
def basis_coefficients(obj: ObjectSpec, fr: FrictionSet, delta: float) -> np.ndarray:
    """(3, 6, 8) read-only table C: component k (m, fx, fy) of edge i at a cell is C[k, i] @ phi.

    C is fitted to `_edge_wrenches` itself, so no second formula exists.
    Equal (obj, fr, delta) share one table while it is among the latest `_COEFFICIENT_TABLES`.
    """
    edges = chain.from_iterable(_edge_wrenches(math.sin, math.cos, obj, fr, *cell, delta) for cell in _FIT_CELLS)
    values = np.fromiter(chain.from_iterable(edges), float, 8 * 18).reshape(8, 18)
    table = (_FIT_INVERSE @ values).T.reshape(6, 3, 8).transpose(1, 0, 2)
    table.flags.writeable = False
    return table


def basis_features(l_a, alpha, beta):
    """(cells, write) for the grid of broadcast (l_a, alpha, beta) arrays.

    `write(out, start)` puts phi of cells start, start + 1, ... (C order) in
    the 8 rows of `out`, a cell per column. Trig runs once per axis entry.
    """
    axes = np.atleast_1d(l_a, alpha, beta)
    shape = np.broadcast(*axes).shape
    # Per axis, its two rows of phi at each entry (C order), and the grid
    # dimensions it varies along with its entry step (a scalar: 0 along 0).
    la, alpha, beta = (v.ravel() for v in axes)
    values = [np.array([np.ones(la.size), la]), *(np.array([np.cos(v), np.sin(v)]) for v in (alpha, beta))]
    steps = [[(len(shape) - v.ndim + d, math.prod(v.shape[d + 1:])) for d in range(v.ndim) if v.shape[d] > 1]
             or [(0, 0)] for v in axes]

    def write(out: np.ndarray, start: int) -> None:
        index = np.unravel_index(np.arange(start, start + out.shape[1]), shape)
        for k, (rows, dims) in enumerate(zip(values, steps)):
            rows.take(sum(index[d] * step for d, step in dims), axis=1, out=out[2 * k:2 * k + 2], mode="clip")
        ca, sa, cb, sb = out[2:6]
        np.add(ca * cb, sa * sb, out=out[6])
        np.subtract(sa * cb, ca * sb, out=out[7])

    return math.prod(shape), write


def gravity_wrench(obj: ObjectSpec) -> Wrench:
    """External wrench of gravity: straight down through the centre of mass.

    Acting at the moment reference point it carries no moment; the magnitude
    is the object's normalised weight.
    """
    return Wrench(0.0, 0.0, -obj.mass)
