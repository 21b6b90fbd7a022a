"""The benchmark's three workloads.

Each workload builds its inputs from a seed, then exposes one round of
operations (`items`), the timed operation (`run`), the number of stability
cells an operation's outputs answer (`cells`), a hook that keeps what the
checks need (`keep`, untimed) and the checks themselves (`check`). A run
repeats whole rounds, so every run attempts the same operations in the same
proportions.

All calls go through module attributes of `pivotgrasp` (never names bound
at import time here), so the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np

HALF_PI = math.pi / 2
# The benchmark's own copies of the program's defaults, so that a change of
# those defaults cannot change the workload unnoticed.
LA_FAMILY = (0.5, 0.6, 0.7, 0.8, 0.9)
MODES = ("force_balance", "form_closure")
# The paper's seven trial rows (object, successes, trials).
TRIAL_ROWS = (
    ("bushing", 10, 10),
    ("medicine_bottle", 9, 10),
    ("plastic_cup", 8, 10),
    ("cookie_can", 10, 10),
    ("wiring_duct", 10, 10),
    ("mounting_rail", 3, 10),
    ("water_bottle", 0, 10),
)


class OperationFailed(RuntimeError):
    """An operation ended without the output it should produce."""


def _friction_sets(pg):
    return {
        "A": pg.FrictionSet(0.0, 0.0, 0.0),
        "B": pg.FrictionSet(0.0, 0.0, 0.4),
        "C": pg.FrictionSet(0.2, 0.4, 0.4),
    }


def _latin_hypercube(rng, n: int, dims: int) -> list[tuple[float, ...]]:
    """n points in [0, 1)^dims with one point in each of n strata per axis."""
    axes = []
    for _ in range(dims):
        strata = list(range(n))
        rng.shuffle(strata)
        axes.append([(k + rng.random()) / n for k in strata])
    return list(zip(*axes))


# ---------------------------------------------------------------------------
# region_family
# ---------------------------------------------------------------------------


class RegionFamily:
    """region_sweep at workers=1 over the criterion-3 family.

    Bushing, friction sets A/B/C, l_a 0.5..0.9, both modes, on a 2.5 degree
    grid. One operation sweeps both modes for one friction set and l_a, so
    a round is 15 operations and 30 maps. Pairing the modes keeps every
    operation's cost in the same range; single sweeps fall into a cheap
    form-closure and a dearer force-balance cluster, and their median would
    sit exactly between the two. The seed shifts the alpha grid and orders
    the operations; the beta grid keeps its 0 and 90 degree ends.
    """

    name = "region_family"

    def __init__(self, pg, seed: int, short: bool, workdir: Path, parallel: int):
        rng = random.Random(seed)
        self.pg = pg
        self.rng = rng
        obj, gripper = pg.load_catalog()["bushing"]
        self.obj = obj
        self.delta = pg.hole_contact_depth(obj, pg.hole_contact_offset(gripper, obj))
        self.sets = _friction_sets(pg)
        step = 6.0 if short else 2.5
        offset = rng.uniform(0.25, step - 0.25)
        count = int((90.0 - offset) / step - 1e-9) + 1
        self.alpha = tuple(math.radians(offset + k * step) for k in range(count))
        self.beta = pg.default_beta_grid(step)
        self.items = [(s, la) for s in "ABC" for la in LA_FAMILY]
        rng.shuffle(self.items)
        self.maps: dict = {}
        self.changed: list = []
        self.sample = 60 if short else 300

    def run(self, item):
        label, l_a = item
        return [
            self.pg.region_sweep(
                self.obj, self.sets[label], l_a, self.alpha, self.beta, mode, delta=self.delta, workers=1
            )
            for mode in MODES
        ]

    def cells(self, out) -> int:
        return sum(rmap.feasible.size for rmap in out)

    def keep(self, item, out) -> None:
        for mode, rmap in zip(MODES, out):
            key = (*item, mode)
            first = self.maps.setdefault(key, rmap.feasible)
            if first is not rmap.feasible and not np.array_equal(first, rmap.feasible):
                self.changed.append(key)

    def check(self, checker) -> tuple[list[str], dict]:
        pg, failures = self.pg, []
        if self.changed:
            failures.append(f"maps differ between rounds: {self.changed[:3]}")
        for la in LA_FAMILY:
            for mode in MODES:
                fa, fb, fc = (self.maps[(s, la, mode)] for s in "ABC")
                if np.any(fa & ~fb) or np.any(fb & ~fc):
                    failures.append(f"friction not monotone at l_a={la} {mode}")
                if np.any(fa[:, 0]):
                    failures.append(f"frictionless beta=0 row feasible at l_a={la} {mode}")
        keys = sorted(self.maps)
        problems, expected = [], []
        for _ in range(self.sample):
            label, la, mode = keys[self.rng.randrange(len(keys))]
            i, j = self.rng.randrange(len(self.alpha)), self.rng.randrange(len(self.beta))
            cfg = pg.config_from_delta(self.obj, la, self.alpha[i], self.beta[j], self.delta)
            problems.append(checker.cell_problem(pg, self.obj, cfg, self.sets[label], mode))
            expected.append(self.maps[(label, la, mode)][i, j])
        agree, disagree, undecided = checker.compare(expected, checker.verdicts(problems))
        if disagree:
            failures.append(f"{disagree} sampled cells disagree with the checker")
        info = {"cells_per_map": len(self.alpha) * len(self.beta), "maps_per_round": len(self.maps),
                "sample_agree": agree, "sample_undecided": undecided}
        return failures, info


# ---------------------------------------------------------------------------
# pick_plan
# ---------------------------------------------------------------------------


class PickPlan:
    """Seeded single-grasp planning queries over the whole catalog.

    One query: grasp_config, is_stable at beta=0, beta_upper_bound,
    plan_pivot clamped to the bound, align_phase, and
    simulate_grasp_trajectory with a linear sliding schedule on the 0.5
    degree beta grid. Every query runs all six steps; a grasp that is
    unstable already when flat gets an unclamped arc and its trajectory.

    One operation plans a tray: one query for each of the seven catalog
    objects. Single queries fall into two cost clusters (a query whose bound
    search stops at beta = 0 costs about 60 % of the others), so the share of
    cheap queries moves a median of single queries; a tray's sum varies less.
    A round is 40 trays (2 in short mode). l_a, alpha and the three friction
    coefficients are drawn per object as a Latin hypercube, so every seed
    covers the ranges evenly. The ranges: l_a over the criterion-3 family
    (LA_FAMILY), alpha over the program's default alpha grid, each friction
    coefficient over [0, 0.6] as in the test suite's random configurations
    (tests/test_lp.py, acceptance criteria 6 and 7). The schedule slides l_a
    down by the README's simulate example, 0.9 to 0.65, scaled to l_a.
    """

    name = "pick_plan"
    PER_OBJECT = 40
    BOUND_STEP = 1e-4  # rad; the bound's own bisection resolution
    WAYPOINTS = 32
    MU_MAX = 0.6
    SLIDE = 0.65 / 0.9  # sliding end point over starting l_a

    def __init__(self, pg, seed: int, short: bool, workdir: Path, parallel: int):
        rng = random.Random(seed)
        self.pg = pg
        self.rng = rng
        self.catalog = pg.load_catalog()
        names = list(self.catalog)
        self.beta = pg.default_beta_grid(0.5)
        per_object = 2 if short else self.PER_OBJECT
        draws = {name: _latin_hypercube(rng, per_object, 5) for name in names}
        la_lo, la_hi = LA_FAMILY[0], LA_FAMILY[-1]
        alpha_grid = pg.default_alpha_grid()
        self.queries = []
        for i in range(per_object * len(names)):
            name = names[i % len(names)]
            u_la, u_alpha, *u_mu = draws[name][i // len(names)]
            l_a = la_lo + (la_hi - la_lo) * u_la
            self.queries.append((
                i,
                name,
                l_a,
                l_a * self.SLIDE,
                alpha_grid[0] + (alpha_grid[-1] - alpha_grid[0]) * u_alpha,
                pg.FrictionSet(*(self.MU_MAX * u for u in u_mu)),
            ))
        n = len(names)
        self.items = [tuple(self.queries[k:k + n]) for k in range(0, len(self.queries), n)]
        self.records: dict = {}
        self.changed: list = []

    def run(self, tray):
        return [self._plan(query) for query in tray]

    def _plan(self, query):
        pg = self.pg
        _, name, l_a, la_end, alpha, friction = query
        obj, gripper = self.catalog[name]
        cfg = pg.grasp_config(obj, gripper, l_a, alpha, 0.0)
        stable0 = pg.is_stable(obj, cfg, friction)
        bound = pg.beta_upper_bound(obj, friction, l_a, alpha, delta=cfg.delta)
        plan = pg.plan_pivot(
            obj, cfg, pg.GripperPose(obj.a, obj.b, 0.0), HALF_PI, self.WAYPOINTS,
            beta_ub=bound.value if bound.finite else None,
        )
        align = pg.align_phase(obj, cfg, self.WAYPOINTS)
        traj = pg.simulate_grasp_trajectory(
            obj, friction, alpha, pg.linear_la_schedule(l_a, la_end), self.beta, delta=cfg.delta
        )
        return cfg.delta, stable0, bound, plan, align, traj

    def cells(self, outs) -> int:
        return sum(1 + len(traj.samples) for *_, traj in outs)

    def keep(self, tray, outs) -> None:
        for query, (delta, stable0, bound, plan, align, traj) in zip(tray, outs):
            record = (delta, stable0, bound.status, bound.value, plan.p_c, plan.r, plan.theta,
                      tuple((w.x, w.y, w.phi) for w in plan.waypoints), len(align),
                      tuple((s.l_a, s.stable) for s in traj.samples))
            first = self.records.setdefault(query[0], record)
            if first != record:
                self.changed.append(query[0])

    def outcome_mix(self) -> dict:
        mix = {"finite": 0, "not_finite": 0, "infeasible_at_start": 0}
        for rec in self.records.values():
            mix[rec[2]] += 1
        return mix

    def check(self, checker) -> tuple[list[str], dict]:
        pg, failures = self.pg, []
        if self.changed:
            failures.append(f"query outputs differ between rounds: {self.changed[:3]}")
        problems, expected, labels = [], [], []

        def ask(obj, friction, l_a, alpha, beta, delta, want, label):
            cfg = pg.config_from_delta(obj, l_a, alpha, beta, delta)
            problems.append(checker.cell_problem(pg, obj, cfg, friction, "force_balance"))
            expected.append(want)
            labels.append(label)

        for i, name, l_a, _la_end, alpha, friction in self.queries:
            obj, _ = self.catalog[name]
            delta, stable0, status, value, p_c, r, theta, waypoints, n_align, samples = self.records[i]
            ask(obj, friction, l_a, alpha, 0.0, delta, stable0, "start")
            if stable0 != (status != "infeasible_at_start"):
                failures.append(f"query {i}: is_stable at 0 contradicts bound status {status}")
            if status == "finite":
                ask(obj, friction, l_a, alpha, max(value - self.BOUND_STEP, 0.0), delta, True, "below bound")
                if value + self.BOUND_STEP <= HALF_PI:
                    ask(obj, friction, l_a, alpha, value + self.BOUND_STEP, delta, False, "above bound")
                if theta > value + 1e-12:
                    failures.append(f"query {i}: pivot tilt {theta} exceeds bound {value}")
            elif status == "not_finite":
                ask(obj, friction, l_a, alpha, HALF_PI, delta, True, "not-finite at 90 deg")
            radius_err = max(abs(math.hypot(x - p_c[0], y - p_c[1]) - r) for x, y, _ in waypoints)
            if radius_err > 1e-9 * max(1.0, r):
                failures.append(f"query {i}: waypoint radius off by {radius_err}")
            if abs(waypoints[-1][2] - waypoints[0][2] - theta) > 1e-12:
                failures.append(f"query {i}: arc turns {waypoints[-1][2] - waypoints[0][2]}, not {theta}")
            if n_align != self.WAYPOINTS:
                failures.append(f"query {i}: {n_align} align waypoints")
            for j in self.rng.sample(range(len(samples)), 3):
                ask(obj, friction, samples[j][0], alpha, self.beta[j], delta, samples[j][1], "trajectory")

        found = checker.verdicts(problems)
        undecided = 0
        for want, v, label in zip(expected, found, labels):
            if v == checker.UNDECIDED:
                undecided += 1
            elif bool(want) != (v == checker.FEASIBLE):
                failures.append(f"checker disagrees on a {label} cell")
        info = {"queries_per_round": len(self.queries), "outcomes": self.outcome_mix(),
                "checked_cells": len(problems), "undecided": undecided}
        return failures, info


# ---------------------------------------------------------------------------
# cli_batch
# ---------------------------------------------------------------------------


class CliBatch:
    """A fixed script of in-process `pivotgrasp.cli.main` calls.

    region (both modes, `--parallel 2`), simulate with its overlay map,
    beta-ub, traj with the clamp and align output, wrench and ci with the
    paper's trial rows, with the README's example grasp (l_a = 0.9,
    alpha = 18 deg) and region maps at l_a = 0.7 on a 5 degree grid. The
    seed picks only the tilt of the wrench dump, so the script's cost does
    not depend on it. Every call writes into the same per-run directory.
    """

    name = "cli_batch"
    REGION_STEP = 5.0
    REGION_LA = 0.7
    BETA_STEP = 3.0
    LA_STEP = 0.1

    def __init__(self, pg, seed: int, short: bool, workdir: Path, parallel: int):
        rng = random.Random(seed)
        self.pg = pg
        self.out = workdir / "cli"
        self.parallel = parallel
        self.region_step = 10.0 if short else self.REGION_STEP
        self.la = self.REGION_LA
        alpha = "18deg"
        beta = f"{rng.uniform(0.0, 90.0):.3f}deg"
        obj = ["--object", "bushing"]
        region = ["region", *obj, "--mu", "0.2,0.4,0.4", "--la", f"{self.la}",
                  "--alpha-step", f"{self.region_step}", "--beta-step", f"{self.region_step}"]
        self.region_calls = [region, region + ["--mode", "form-closure"]]
        d = str(self.out)
        self.script = [
            *[call + ["--parallel", str(parallel), "--out-dir", d] for call in self.region_calls],
            ["simulate", *obj, "--mu", "0.2,0.4,0.4", "--alpha", alpha, "--la-schedule", "0.9:0.65",
             "--beta-step", f"{self.BETA_STEP}", "--la-step", f"{self.LA_STEP}", "--out-dir", d],
            ["beta-ub", *obj, "--mu", "0,0,0.4", "--la", "0.9", "--alpha", alpha, "--out", f"{d}/beta_ub.json"],
            ["traj", *obj, "--la", "0.9", "--alpha", alpha, "--mu", "0,0,0.4", "--clamp-beta-ub",
             "--out", f"{d}/plan.json", "--align-out", f"{d}/align.json"],
            ["wrench", *obj, "--mu", "0.2,0.4,0.4", "--la", "0.9", "--alpha", alpha, "--beta", beta,
             "--out", f"{d}/wrench.csv"],
            ["ci", *(f"{k}/{n}" for _, k, n in TRIAL_ROWS), "--names", ",".join(r[0] for r in TRIAL_ROWS),
             "--csv", f"{d}/ci.csv"],
        ]
        self.items = [0]
        self.bytes_per_pass = 0

    def _main(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.pg.cli.main(argv)

    def run(self, item):
        codes = [self._main(argv) for argv in self.script]
        if any(codes):
            raise OperationFailed(f"exit codes {codes}")
        return codes

    def _region_files(self, directory: Path) -> list[Path]:
        return sorted(directory.glob("region_*"))

    def cells(self, out) -> int:
        n_region = round(90 / self.region_step)
        n_beta = round(90 / self.BETA_STEP) + 1
        n_la = round(1 / self.LA_STEP)
        return 2 * (n_region - 1) * (n_region + 1) + n_la * n_beta + n_beta

    def keep(self, item, out) -> None:
        if not self.bytes_per_pass:
            self.bytes_per_pass = sum(p.stat().st_size for p in self.out.iterdir())

    def check(self, checker) -> tuple[list[str], dict]:
        failures = []
        # The timed passes use one worker count; the other one runs here, so
        # the comparison always covers both the serial and the pool path.
        other = 1 if self.parallel > 1 else 2
        other_dir = self.out.parent / "cli_other"
        for call in self.region_calls:
            code = self._main(call + ["--parallel", str(other), "--out-dir", str(other_dir)])
            if code:
                failures.append(f"region --parallel {other} exited {code}")
        ours, theirs = self._region_files(self.out), self._region_files(other_dir)
        if [p.name for p in ours] != [p.name for p in theirs] or len(ours) != 4:
            failures.append("region outputs differ in name or number between --parallel values")
        elif any(a.read_bytes() != b.read_bytes() for a, b in zip(ours, theirs)):
            failures.append(f"--parallel {self.parallel} and --parallel {other} files differ")

        steps = round(90 / self.region_step)
        alpha_axis = [k * self.region_step for k in range(1, steps)]
        beta_axis = [k * self.region_step for k in range(steps + 1)]
        for csv_path in self.out.glob("region_*.csv"):
            rows = [line.split(",") for line in csv_path.read_text().splitlines()]
            ones = sum(cell == "1" for row in rows[1:] for cell in row[1:])
            meta = json.loads(csv_path.with_suffix(".json").read_text())
            if meta["feasible_cells"] != ones:
                failures.append(f"{csv_path.name}: sidecar says {meta['feasible_cells']} cells, CSV has {ones}")
            if not _axis_equal(rows[0][1:], beta_axis) or not _axis_equal([r[0] for r in rows[1:]], alpha_axis):
                failures.append(f"{csv_path.name}: axes differ from the degree grids")

        n_beta = round(90 / self.BETA_STEP) + 1
        plane = [line.split(",") for line in (self.out / "grasp_plane_bushing.csv").read_text().splitlines()]
        la_axis = [min(self.LA_STEP * i, 1.0) for i in range(1, round(1 / self.LA_STEP) + 1)]
        if not _axis_equal(plane[0][1:], [k * self.BETA_STEP for k in range(n_beta)]) or not _axis_equal(
            [r[0] for r in plane[1:]], la_axis
        ):
            failures.append("grasp-plane CSV axes differ from the grids")

        ci_rows = (self.out / "ci.csv").read_text().splitlines()[1:]
        for line, (name, k, n) in zip(ci_rows, TRIAL_ROWS):
            got_name, _k, _n, rate, lo, hi = line.split(",")
            want_lo, want_hi = checker.wilson_pct(k, n)
            if got_name != name or not all(
                math.isclose(float(g), w, rel_tol=1e-8, abs_tol=1e-9)
                for g, w in ((rate, 100 * k / n), (lo, want_lo), (hi, want_hi))
            ):
                failures.append(f"ci row {line!r} differs from the Wilson closed form")
        if len(ci_rows) != len(TRIAL_ROWS):
            failures.append(f"ci wrote {len(ci_rows)} rows")
        info = {"calls_per_pass": len(self.script), "cells_per_pass": self.cells(None),
                "bytes_per_pass": self.bytes_per_pass, "region_l_a": self.la}
        return failures, info


def _axis_equal(texts, values) -> bool:
    return len(texts) == len(values) and all(
        math.isclose(float(t), v, rel_tol=1e-9, abs_tol=1e-9) for t, v in zip(texts, values)
    )


WORKLOADS = {w.name: w for w in (RegionFamily, PickPlan, CliBatch)}
