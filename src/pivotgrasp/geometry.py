"""Object, gripper and grasp-configuration geometry.

All lengths are millimetres, all angles radians. The planar model is a
2a x 2b rectangle (half-length a, half-height b) with a hole of diameter
d in its end face; the outer diameter is D. Three contact points define a
grasp: S (finger on the outer surface), H (finger inside the hole) and
G (the ground corner the object pivots about).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

HALF_PI = math.pi / 2


class GeometryError(ValueError):
    """Raised when a dimension or derived quantity is out of its domain."""


class ConfigError(ValueError):
    """Raised by validate_config; carries one code per violated constraint."""

    def __init__(self, errors: list[str]):
        super().__init__("invalid grasp configuration: " + ", ".join(errors))
        self.errors = errors


@dataclass(frozen=True)
class ObjectSpec:
    """Rigid hollow object: half-length a, half-height b, outer/inner diameters.

    ``mass`` is a dimensionless surrogate; gravity is normalised so the
    external wrench magnitude equals ``mass``. No answer depends on it:
    stability is decided against the direction of gravity alone, and the
    force-balance LP and oracle solve for the wrench scaled to unit size.
    """

    name: str
    a: float
    b: float
    D: float
    d: float
    cylinder: bool = True
    mass: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a, self.b, self.D, self.d, self.mass))):
            raise GeometryError(f"{self.name}: a, b, D, d and mass must be finite")
        if self.a <= 0 or self.b <= 0 or self.D <= 0:
            raise GeometryError(f"{self.name}: a, b, D must be positive")
        if not 0 < self.d < self.D:
            raise GeometryError(f"{self.name}: need 0 < d < D")
        if self.mass <= 0:
            raise GeometryError(f"{self.name}: mass must be positive")
        if self.cylinder and abs(self.b - self.D / 2) > 1e-9:
            raise GeometryError(f"{self.name}: cylindrical objects require b = D/2")


@dataclass(frozen=True)
class GripperSpec:
    """Parallel-jaw gripper, used unmodified: only its finger width w enters the model.

    The width fixes where the inserted finger touches the hole, and so the
    contact depth delta (`hole_contact_offset`, `hole_contact_depth`).
    """

    w: float

    def __post_init__(self):
        if not math.isfinite(self.w):
            raise GeometryError("gripper width must be finite")
        if self.w <= 0:
            raise GeometryError("gripper width must be positive")


@dataclass(frozen=True)
class GraspConfig:
    """One grasp configuration: the three variable parameters plus the contact depth.

    l_a is the nondimensional contact distance l/(2a) of S from the hole-side
    corner; alpha the gripper-object angle; beta the object-ground tilt;
    delta the distance of the in-hole contact H below the outer corner (its
    distance from the hole centre is D/2 - delta).
    """

    l_a: float
    alpha: float
    beta: float
    delta: float


def hole_contact_offset(gripper: GripperSpec, obj: ObjectSpec) -> float:
    """Distance from the hole centre to the inserted finger's contact point.

    A finger of width w entering a hole of diameter d touches the inner
    surface at (d/2) * sqrt(1 - (w/d)^2) from the centre. Requires w < d,
    otherwise the finger cannot enter the hole.
    """
    w, d = gripper.w, obj.d
    if w >= d:
        raise GeometryError(f"finger width {w} cannot enter hole of diameter {d}")
    return (d / 2) * math.sqrt(1.0 - (w / d) ** 2)


def hole_contact_depth(obj: ObjectSpec, offset: float) -> float:
    """Distance delta from the in-hole contact to the object's outer corner."""
    if not 0 < offset < obj.d / 2:
        raise GeometryError(f"hole contact offset {offset} outside (0, d/2)")
    return obj.D / 2 - offset


def config_errors(cfg: GraspConfig, obj: ObjectSpec) -> list[str]:
    """Return one code per violated range constraint (empty when valid).

    alpha = 0 and alpha = pi/2 are rejected with distinct codes: the former
    degenerates to a pinch grasp (the finger can no longer catch the hole),
    the latter is the direct hole grasp that pivoting exists to avoid.
    """
    errors = []
    if not 0 < cfg.l_a <= 1:
        errors.append("l_a_out_of_range")
    if not cfg.alpha > 0:  # NaN included
        errors.append("alpha_degenerate_pinch")
    elif cfg.alpha >= HALF_PI:
        errors.append("alpha_direct_hole_grasp")
    if not 0 <= cfg.beta <= HALF_PI:
        errors.append("beta_out_of_range")
    if not 0 < cfg.delta < obj.D / 2:
        errors.append("delta_out_of_range")
    return errors


def validate_config(cfg: GraspConfig, obj: ObjectSpec) -> GraspConfig:
    """Return cfg unchanged if every range constraint holds, else raise ConfigError."""
    errors = config_errors(cfg, obj)
    if errors:
        raise ConfigError(errors)
    return cfg


def grasp_config(
    obj: ObjectSpec,
    gripper: GripperSpec,
    l_a: float,
    alpha: float,
    beta: float,
) -> GraspConfig:
    """Build and validate a configuration, deriving the contact depth from the gripper."""
    delta = hole_contact_depth(obj, hole_contact_offset(gripper, obj))
    return config_from_delta(obj, l_a, alpha, beta, delta)


def config_from_delta(
    obj: ObjectSpec, l_a: float, alpha: float, beta: float, delta: float
) -> GraspConfig:
    """Build and validate a configuration from a known contact depth delta."""
    return validate_config(GraspConfig(l_a=l_a, alpha=alpha, beta=beta, delta=delta), obj)


# ---------------------------------------------------------------------------
# Object catalog (JSON)
# ---------------------------------------------------------------------------


def object_from_dict(doc: dict) -> tuple[ObjectSpec, GripperSpec]:
    """Parse one catalog entry into an (object, gripper) pair.

    Schema: {"name": str, "a_mm": num, "b_mm": num|null, "D_mm": num,
    "d_mm": num, "cylinder": bool, "mass": num, "gripper": {"w_mm": num}}.
    Cylinders may omit b_mm (it is forced to D/2); prisms must supply it.
    "cylinder" defaults to true and "mass" to 1; other keys are ignored, so
    a catalog listing more about its gripper than the width loads the same.
    A missing field or a value of the wrong type raises GeometryError
    naming the entry and the field.
    """
    if not isinstance(doc, dict):
        raise GeometryError(f"catalog entry {doc!r} is not a JSON object")
    name = doc.get("name")
    if not isinstance(name, str):
        raise GeometryError(f"catalog entry {doc!r} has no string 'name'")

    def number(entry: dict, key: str) -> float:
        # A JSON number loads as int or float; bool is an int subclass.
        value = entry[key]
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                return float(value)
            except OverflowError:  # an integer past the float range
                pass
        raise GeometryError(f"{name}: catalog field {key!r} is not a number: {value!r}")

    try:
        cylinder = doc.get("cylinder", True)
        if not isinstance(cylinder, bool):
            raise GeometryError(f"{name}: catalog field 'cylinder' is not a boolean: {cylinder!r}")
        b = doc.get("b_mm")
        if b is None and not cylinder:
            raise GeometryError(f"{name}: prisms must supply b_mm")
        D = number(doc, "D_mm")
        b = D / 2 if b is None else number(doc, "b_mm")
        mass = number(doc, "mass") if "mass" in doc else 1.0
        obj = ObjectSpec(name, a=number(doc, "a_mm"), b=b, D=D, d=number(doc, "d_mm"), cylinder=cylinder, mass=mass)
        g = doc["gripper"]
        if not isinstance(g, dict):
            raise GeometryError(f"{name}: catalog field 'gripper' is not an object: {g!r}")
        gripper = GripperSpec(w=number(g, "w_mm"))
    except KeyError as e:
        raise GeometryError(f"{name}: catalog entry lacks {e.args[0]!r}") from None
    return obj, gripper


def load_catalog(path: str | Path | None = None) -> dict[str, tuple[ObjectSpec, GripperSpec]]:
    """Load the object catalog, keyed by object name.

    With no path, the bundled catalog of reference objects is used; it is
    parsed once per process, and each call returns a new dict of it. A file
    at `path` is read on every call. A catalog that is not UTF-8 text, not JSON,
    not a list of entries or that names one object twice raises GeometryError.
    """
    if path is None:
        return dict(_bundled_catalog())
    try:
        return _parse_catalog(Path(path).read_text(encoding="utf-8"), path)
    except UnicodeDecodeError as e:
        raise GeometryError(f"catalog {path} is not UTF-8 text: {e}") from None


@functools.cache
def _bundled_catalog() -> dict[str, tuple[ObjectSpec, GripperSpec]]:
    """The bundled catalog; its errors name it by its place in the package."""
    text = resources.files("pivotgrasp.data").joinpath("objects.json").read_text()
    return _parse_catalog(text, "pivotgrasp/data/objects.json")


def _parse_catalog(text: str, path) -> dict[str, tuple[ObjectSpec, GripperSpec]]:
    """The catalog in JSON `text`, read from `path`."""
    try:
        docs = json.loads(text)
    except json.JSONDecodeError as e:
        raise GeometryError(f"catalog {path} is not JSON: {e}") from None
    if not isinstance(docs, list):
        raise GeometryError(f"catalog {path} is not a JSON list of entries")
    catalog = {}
    for doc in docs:
        obj, gripper = object_from_dict(doc)
        if obj.name in catalog:
            raise GeometryError(f"catalog {path} lists {obj.name!r} twice")
        catalog[obj.name] = (obj, gripper)
    return catalog
