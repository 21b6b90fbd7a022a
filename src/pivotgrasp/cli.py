"""Command-line interface: analysis subcommands emitting CSV/JSON artifacts.

Subcommands: region, beta-ub, traj, simulate, wrench, ci. All numeric file
output uses 9 significant digits and carries no timestamps, so reruns with
identical inputs produce byte-identical files. Angle arguments take a `deg`
or `rad` suffix; bare numbers are radians.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import shutil
import sys
from pathlib import Path

from .geometry import (
    GripperSpec,
    config_from_delta,
    hole_contact_depth,
    hole_contact_offset,
    load_catalog,
)
from .maneuver import (
    GripperPose,
    align_phase,
    linear_la_schedule,
    plan_pivot,
    plan_to_dict,
    poses_to_dicts,
    simulate_grasp_trajectory,
    trajectory_csv,
)
from .stability import (
    _fmt,
    beta_upper_bound,
    default_alpha_grid,
    default_beta_grid,
    grasp_plane_csv,
    grasp_plane_meta,
    grasp_plane_sweep,
    region_map_csv,
    region_map_meta,
    region_sweep,
    DEFAULT_LA_FAMILY,
)
from .stats import TrialRecord, batch_ci
from .wrenches import FrictionSet, contact_wrench_basis

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_INFEASIBLE_START = 4


class CliValidationError(ValueError):
    pass


def parse_angle(text: str) -> float:
    """Angle in radians; accepts `deg` and `rad` suffixes."""
    t = text.strip().lower()
    try:
        if t.endswith("deg"):
            angle = math.radians(float(t[:-3]))
        elif t.endswith("rad"):
            angle = float(t[:-3])
        else:
            angle = float(t)
    except ValueError:
        raise CliValidationError(f"cannot parse angle {text!r}") from None
    if not math.isfinite(angle):
        raise CliValidationError(f"angle {text!r} is not finite")
    return angle


def parse_mu(text: str) -> FrictionSet:
    parts = text.split(",")
    if len(parts) != 3:
        raise CliValidationError("--mu expects three comma-separated values (S,H,G)")
    try:
        mu = [float(p) for p in parts]
    except ValueError:
        raise CliValidationError(f"cannot parse friction set {text!r}") from None
    return FrictionSet(*mu)


def parse_la_list(text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",")]
    except ValueError:
        raise CliValidationError(f"cannot parse l_a list {text!r}") from None


def parse_point(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise CliValidationError(f"expected x,y but got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise CliValidationError(f"cannot parse point {text!r}") from None


def parse_schedule(text: str) -> tuple[float, float]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            v = float(parts[0])
            return v, v
        if len(parts) == 2:
            return float(parts[0]), float(parts[1])
    except ValueError:
        pass
    raise CliValidationError(f"cannot parse l_a schedule {text!r} (expected start:end)")


def parse_step(value: float, flag: str) -> float:
    """A grid step in degrees: positive and finite."""
    if not (math.isfinite(value) and value > 0):
        raise CliValidationError(f"{flag} must be a positive finite number of degrees, got {value}")
    return value


def check_la(value: float) -> float:
    """A contact distance l_a: inside (0, 1]."""
    if not 0 < value <= 1:
        raise CliValidationError(f"l_a {value} outside (0, 1]")
    return value


def _resolve_object(args):
    catalog = load_catalog(args.objects)
    if args.object not in catalog:
        raise CliValidationError(
            f"unknown object {args.object!r}; catalog has: {', '.join(sorted(catalog))}"
        )
    obj, gripper = catalog[args.object]
    if args.width is not None:
        gripper = GripperSpec(w=args.width)
    if args.delta is None:
        return obj, hole_contact_depth(obj, hole_contact_offset(gripper, obj))
    if not 0 < args.delta < obj.D / 2:
        raise CliValidationError(f"--delta must lie in (0, D/2) = (0, {obj.D / 2})")
    return obj, args.delta


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_all(outputs: list[tuple[Path, str]]) -> None:
    """Write every (path, text) pair in order, printing each path once written."""
    for path, text in outputs:
        _write_text(path, text)
        print(path)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_region(args) -> int:
    obj, delta = _resolve_object(args)
    friction = parse_mu(args.mu)
    mode = args.mode.replace("-", "_")
    la_values = [check_la(la) for la in parse_la_list(args.la)]
    alpha_grid = default_alpha_grid(parse_step(args.alpha_step, "--alpha-step"))
    beta_grid = default_beta_grid(parse_step(args.beta_step, "--beta-step"))
    if not alpha_grid:
        raise CliValidationError(f"--alpha-step {args.alpha_step} leaves no alpha inside (0, 90) deg")

    stems = {}
    for la in la_values:
        stem = f"region_{obj.name}_{mode}_la{la:g}"
        if stem in stems:
            raise CliValidationError(f"--la values {stems[stem]} and {la} both name {stem}.csv")
        stems[stem] = la

    out_dir = Path(args.out_dir)
    outputs = []
    for stem, la in stems.items():
        rmap = region_sweep(
            obj, friction, la, alpha_grid, beta_grid, mode, delta=delta, workers=args.parallel
        )
        outputs.append((out_dir / f"{stem}.csv", region_map_csv(rmap)))
        outputs.append((out_dir / f"{stem}.json", json.dumps(region_map_meta(rmap, obj), indent=2) + "\n"))
    _write_all(outputs)
    return EXIT_OK


def cmd_beta_ub(args) -> int:
    obj, delta = _resolve_object(args)
    friction = parse_mu(args.mu)
    la = check_la(args.la)
    alpha = parse_angle(args.alpha)

    bound = beta_upper_bound(obj, friction, la, alpha, delta=delta)
    if bound.status == "infeasible_at_start":
        doc, code = {"error": "infeasible_at_start"}, EXIT_INFEASIBLE_START
    else:
        doc, code = {"beta_ub_rad": float(_fmt(bound.value)) if bound.finite else "none"}, EXIT_OK
    if bound.finite and len(bound.transitions) > 1:
        doc["transitions_rad"] = [float(_fmt(t)) for t in bound.transitions]
    text = json.dumps(doc, indent=2) + "\n"
    print(text, end="")
    if args.out:
        _write_text(Path(args.out), text)
    return code


def cmd_traj(args) -> int:
    obj, delta = _resolve_object(args)
    la = check_la(args.la)
    alpha = parse_angle(args.alpha)
    beta0 = parse_angle(args.beta0)
    cfg = config_from_delta(obj, la, alpha, beta0, delta)
    theta = parse_angle(args.theta)

    bound_value = None
    if args.clamp_beta_ub:
        if args.mu is None:
            raise CliValidationError("--clamp-beta-ub requires --mu")
        bound = beta_upper_bound(obj, parse_mu(args.mu), la, alpha, delta=delta)
        if bound.status == "infeasible_at_start":
            print(json.dumps({"error": "infeasible_at_start"}, indent=2))
            return EXIT_INFEASIBLE_START
        if bound.finite:
            bound_value = bound.value

    if args.center is None:
        center = GripperPose(x=obj.a, y=obj.b, phi=beta0)
    else:
        cx, cy = parse_point(args.center)
        center = GripperPose(x=cx, y=cy, phi=beta0)
    plan = plan_pivot(obj, cfg, center, theta, args.waypoints, beta_ub=bound_value)
    doc = plan_to_dict(plan)

    outputs = [(Path(args.out), json.dumps(doc, indent=2) + "\n")]
    if args.align_out:
        poses = align_phase(obj, cfg, args.waypoints)
        outputs.append(
            (Path(args.align_out), json.dumps({"waypoints": poses_to_dicts(poses)}, indent=2) + "\n")
        )
    _write_all(outputs)
    return EXIT_OK


def cmd_simulate(args) -> int:
    obj, delta = _resolve_object(args)
    friction = parse_mu(args.mu)
    alpha = parse_angle(args.alpha)
    la_start, la_end = (check_la(v) for v in parse_schedule(args.la_schedule))
    schedule = linear_la_schedule(la_start, la_end)
    if not 0 < args.la_step <= 1:
        raise CliValidationError("--la-step must lie in (0, 1]")
    beta_grid = default_beta_grid(parse_step(args.beta_step, "--beta-step"))

    traj = simulate_grasp_trajectory(obj, friction, alpha, schedule, beta_grid, delta=delta)
    n_la = math.floor(1.0 / args.la_step + 1e-9)
    la_grid = tuple(min(args.la_step * i, 1.0) for i in range(1, n_la + 1))
    gmap = grasp_plane_sweep(
        obj, friction, alpha, la_grid, beta_grid, delta=delta, workers=args.parallel
    )

    out_dir = Path(args.out_dir)
    _write_all([
        (out_dir / f"trajectory_{obj.name}.csv", trajectory_csv(traj)),
        (out_dir / f"grasp_plane_{obj.name}.csv", grasp_plane_csv(gmap)),
        (out_dir / f"grasp_plane_{obj.name}.json", json.dumps(grasp_plane_meta(gmap, obj), indent=2) + "\n"),
    ])
    return EXIT_OK


def cmd_wrench(args) -> int:
    obj, delta = _resolve_object(args)
    friction = parse_mu(args.mu)
    cfg = config_from_delta(obj, check_la(args.la), parse_angle(args.alpha), parse_angle(args.beta), delta)
    basis = contact_wrench_basis(obj, cfg, friction)
    lines = ["label,m,fx,fy"]
    for label, w in zip(basis.labels, basis):
        lines.append(f"{label},{_fmt(w.m)},{_fmt(w.fx)},{_fmt(w.fy)}")
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_text(Path(args.out), text)
        print(args.out)
    else:
        print(text, end="")
    return EXIT_OK


def cmd_ci(args) -> int:
    records = []
    if args.infile:
        for line_no, line in enumerate(Path(args.infile).read_text().splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                name, k, n = line.split(",")
                k, n = int(k), int(n)
            except ValueError:
                raise CliValidationError(
                    f"{args.infile}:{line_no}: expected name,successes,trials with integer counts, got {line!r}"
                ) from None
            try:
                records.append(TrialRecord(k, n, z=args.z, name=name.strip()))
            except ValueError as e:
                raise CliValidationError(f"{args.infile}:{line_no}: {e}") from None
    names = args.names.split(",") if args.names else []
    for i, pair in enumerate(args.pairs):
        try:
            k, n = (int(v) for v in pair.split("/"))
        except ValueError:
            raise CliValidationError(f"cannot parse trial pair {pair!r} (expected k/n)") from None
        records.append(TrialRecord(k, n, z=args.z, name=names[i] if i < len(names) else pair))
    if not records:
        raise CliValidationError("no trial records given")

    results = batch_ci(records)
    header = f"{'name':<16} {'trials':>8} {'rate':>8} {'ci_lower':>9} {'ci_upper':>9}"
    print(header)
    print("-" * len(header))
    csv_lines = ["name,successes,trials,rate_pct,ci_lower_pct,ci_upper_pct"]
    for rec, (name, ci) in zip(records, results):
        rate = 100.0 * rec.rate
        lo, hi = 100.0 * ci.lower, 100.0 * ci.upper
        print(f"{name:<16} {rec.successes:>3}/{rec.trials:<4} {rate:>7.2f}% {lo:>8.2f}% {hi:>8.2f}%")
        csv_lines.append(
            f"{name},{rec.successes},{rec.trials},{_fmt(rate)},{_fmt(lo)},{_fmt(hi)}"
        )
    if args.csv:
        _write_text(Path(args.csv), "\n".join(csv_lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_object_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--object", required=True, help="object name from the catalog")
    p.add_argument("--objects", default=None, help="path to a catalog JSON (default: bundled)")
    p.add_argument("--width", type=float, default=None, help="override gripper finger width (mm)")
    p.add_argument("--delta", type=float, default=None, help="override hole contact depth (mm)")


def _region_args(p: argparse.ArgumentParser) -> None:
    _add_object_args(p)
    p.add_argument("--mu", required=True, help="friction coefficients mu_S,mu_H,mu_G")
    p.add_argument("--la", default=",".join(str(v) for v in DEFAULT_LA_FAMILY),
                   help="comma-separated l_a values")
    p.add_argument("--mode", choices=("force-balance", "form-closure"), default="force-balance")
    p.add_argument("--alpha-step", type=float, default=0.5, help="alpha grid step (degrees)")
    p.add_argument("--beta-step", type=float, default=0.5, help="beta grid step (degrees)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--parallel", type=int, default=1, help="accepted; starts no processes")
    p.set_defaults(func=cmd_region)


def _beta_ub_args(p: argparse.ArgumentParser) -> None:
    _add_object_args(p)
    p.add_argument("--mu", required=True)
    p.add_argument("--la", type=float, required=True)
    p.add_argument("--alpha", required=True, help="gripper-object angle (e.g. 18deg)")
    p.add_argument("--out", default=None, help="also write the JSON result here")
    p.set_defaults(func=cmd_beta_ub)


def _traj_args(p: argparse.ArgumentParser) -> None:
    _add_object_args(p)
    p.add_argument("--la", type=float, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta0", default="0", help="initial object tilt (default 0)")
    p.add_argument("--theta", default="90deg", help="pivot rotation (default 90deg)")
    p.add_argument("--waypoints", type=int, default=64)
    p.add_argument("--center", default=None, help="object centre x,y (mm); default rests on ground")
    p.add_argument("--mu", default=None)
    p.add_argument("--clamp-beta-ub", action="store_true",
                   help="clamp theta to the force-balance tilt bound (requires --mu)")
    p.add_argument("--out", required=True)
    p.add_argument("--align-out", default=None, help="also write align-phase waypoints here")
    p.set_defaults(func=cmd_traj)


def _simulate_args(p: argparse.ArgumentParser) -> None:
    _add_object_args(p)
    p.add_argument("--mu", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--la-schedule", required=True, help="l_a start:end (linear in beta)")
    p.add_argument("--beta-step", type=float, default=0.5)
    p.add_argument("--la-step", type=float, default=0.02, help="l_a grid step for the overlay map")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--parallel", type=int, default=1, help="accepted; starts no processes")
    p.set_defaults(func=cmd_simulate)


def _wrench_args(p: argparse.ArgumentParser) -> None:
    _add_object_args(p)
    p.add_argument("--mu", required=True)
    p.add_argument("--la", type=float, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_wrench)


def _ci_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("pairs", nargs="*", help="trial pairs like 9/10")
    p.add_argument("--z", type=float, default=1.96, help="normal critical value (default 95%%)")
    p.add_argument("--names", default=None, help="comma-separated names for the pairs")
    p.add_argument("--infile", default=None, help="CSV of name,successes,trials rows")
    p.add_argument("--csv", default=None, help="write the table as CSV here")
    p.set_defaults(func=cmd_ci)


# Subcommand name -> (help line, function adding its arguments), in help order.
_COMMANDS = {
    "region": ("sweep stable-region maps over the (alpha, beta) plane", _region_args),
    "beta-ub": ("locate the tilt bound where force balance is lost", _beta_ub_args),
    "traj": ("generate the pivot arc (and optionally align) waypoints", _traj_args),
    "simulate": ("simulate a grasp trajectory with a sliding schedule", _simulate_args),
    "wrench": ("dump the six basis contact wrenches as CSV", _wrench_args),
    "ci": ("Wilson score confidence intervals for success/trial pairs", _ci_args),
}


def build_parser() -> argparse.ArgumentParser:
    """A new argument parser for the CLI."""
    # argparse asks for the terminal width at every argument it adds;
    # one width for the whole parser gives the same help text.
    formatter = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="pivotgrasp",
        description="Stability analysis and trajectory generation for pivot-based hole grasps",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_args) in _COMMANDS.items():
        add_args(sub.add_parser(name, help=help_line, formatter_class=formatter))
    return parser


# Parsing leaves a parser unchanged, so every `main` call in a process can
# share one; its help width is the terminal's when the first call ran.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:  # CliValidationError, ConfigError and GeometryError too
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
