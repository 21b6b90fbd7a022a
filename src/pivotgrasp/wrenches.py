"""Planar contact wrench basis for the three-contact grasp.

Each contact contributes the two edges of its Coulomb friction cone as unit
wrenches (moment, fx, fy), with moments taken about the object's centre of
mass and forces expressed in the world frame. Contact S sits on the top
surface at distance l = 2a*l_a from the hole-side corner; H inside the hole
at depth delta below that corner; G is the ground corner the object pivots
about. The S and H cones rotate with the object tilt beta, the ground cone
does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    bisection pass `math` trig and floats, `wrench_basis_grid` numpy trig
    and broadcast arrays. It derives l = 2a*l_a and the friction half-angles
    itself, so no caller restates them.
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


def wrench_basis_grid(obj: ObjectSpec, fr: FrictionSet, l_a, alpha, beta, delta: float) -> np.ndarray:
    """The basis of every cell of broadcast (l_a, alpha, beta) arrays.

    Returns shape (N, 6, 3), N the broadcast size, cells in C order; row
    [n, i] is (m, fx, fy) of edge i, as `contact_wrench_basis` gives it.
    """
    l_a, alpha, beta = (np.asarray(v, dtype=float) for v in (l_a, alpha, beta))
    shape = np.broadcast_shapes(l_a.shape, alpha.shape, beta.shape)
    edges = _edge_wrenches(np.sin, np.cos, obj, fr, l_a, alpha, beta, delta)
    out = np.empty((*shape, 6, 3))
    for i, edge in enumerate(edges):
        for k, value in enumerate(edge):
            out[..., i, k] = value
    return out.reshape(-1, 6, 3)


def gravity_wrench(obj: ObjectSpec) -> Wrench:
    """External wrench of gravity: straight down through the centre of mass.

    Acting at the moment reference point it carries no moment; the magnitude
    is the object's normalised weight.
    """
    return Wrench(0.0, 0.0, -obj.mass)
