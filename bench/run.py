"""End-to-end benchmark of pivotgrasp: region maps, pick planning and the CLI.

Usage, from the repository root:

    python3 bench/run.py --workload region_family --seed 1 --seconds 25 --trace 0

Runs one workload in this process as one sequential client (closed loop),
repeating whole rounds of its operations until `--seconds` have passed,
then checks the outputs against computations independent of
`pivotgrasp.lp` (see checker.py). With `--trace 0` it prints the end-to-end
metrics; with `--trace 1` it runs the workload half untraced and half
traced, in alternating rounds, and prints the per-layer metrics, including
the tracing overhead.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Results and trace summaries
are also written under bench/out/.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 9
POOL_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("region_family", "pick_plan", "cli_batch"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--short", action="store_true", help="small rounds and one set-up sample (self-tests)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_program():
    sys.path.insert(0, str(ROOT / "src"))
    import pivotgrasp
    import pivotgrasp.cli  # noqa: F401  (binds pivotgrasp.cli for the cli workload)

    return pivotgrasp


def run_phase(wl, seconds: float) -> dict:
    """Repeat whole rounds of the workload until `seconds` have passed."""
    durations, cells, errors = [], 0, []
    clock = time.perf_counter
    start = clock()
    while True:
        for item in wl.items:
            t0 = clock()
            try:
                out = wl.run(item)
            except Exception as e:  # an operation that fails is counted, not fatal
                durations.append(clock() - t0)
                errors.append(f"{item!r}: {type(e).__name__}: {e}")
                continue
            durations.append(clock() - t0)
            cells += wl.cells(out)
            wl.keep(item, out)
        if clock() - start >= seconds:
            break
    return {"durations": durations, "cells": cells, "errors": errors, "busy": sum(durations)}


def setup_subprocess(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(phase: dict, setup_samples: list[float], rss: float) -> dict:
    d = phase["durations"]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (rss, "MB"),
        "cells_per_s": (phase["cells"] / phase["busy"], "cells/s"),
        "op_ms_p50": (1e3 * statistics.median(d), "ms"),
        "op_ms_p90": (1e3 * statistics.quantiles(d, n=10)[-1] if len(d) > 1 else 1e3 * d[0], "ms"),
    }


def pool_speedup(pg, cli) -> float:
    """Sweep time of the cli_batch region call at workers=1 over workers=2."""
    obj, gripper = pg.load_catalog()["bushing"]
    delta = pg.hole_contact_depth(obj, pg.hole_contact_offset(gripper, obj))
    grid = (pg.default_alpha_grid(cli.region_step), pg.default_beta_grid(cli.region_step))
    friction = pg.FrictionSet(0.2, 0.4, 0.4)
    times = {1: [], 2: []}
    for _ in range(POOL_REPEATS):
        for w in (1, 2):
            t0 = time.perf_counter()
            pg.region_sweep(obj, friction, cli.la, *grid, delta=delta, workers=w)
            times[w].append(time.perf_counter() - t0)
    return statistics.median(times[1]) / statistics.median(times[2])


def per_layer(tr, phase, passes, tour, bytes_per_pass, overhead_pct, speedup) -> dict:
    """Per-layer metrics from the traced phase.

    A function the workload never calls is read from one traced pass of the
    cli_batch script (`tour`: its tracer and cells), so every name has a
    measured value.
    """
    def src(name):
        agg = tr.get(name)
        if agg.calls:
            return agg, phase["cells"], passes
        return tour[0].get(name), tour[1], 1

    def per_call(name, scale):
        agg, _, _ = src(name)
        return scale * agg.total / agg.calls

    def per_cell(name):
        agg, cells, _ = src(name)
        return agg.calls / cells

    def rate(name):
        agg, _, _ = src(name)
        return agg.units / agg.total

    fb, fc = tr.get("lp.solve_force_balance"), tr.get("lp.solve_form_closure")
    stable, _, _ = src("stability.is_stable")
    bound, _, _ = src("stability.beta_upper_bound")
    batch, _, _ = src("stats.batch_ci")
    main, _, main_passes = src("cli.main")
    return {
        "geometry.validate_config.us": (per_call("geometry.validate_config", 1e6), "us"),
        "geometry.validate_config.calls_per_cell": (per_cell("geometry.validate_config"), "calls/cell"),
        "wrenches.contact_wrench_basis.us": (per_call("wrenches.contact_wrench_basis", 1e6), "us"),
        "wrenches.contact_wrench_basis.calls_per_cell": (per_cell("wrenches.contact_wrench_basis"), "calls/cell"),
        "lp.solve_force_balance.us": (per_call("lp.solve_force_balance", 1e6), "us"),
        "lp.solve_form_closure.us": (per_call("lp.solve_form_closure", 1e6), "us"),
        "lp.solves_per_cell": ((fb.calls + fc.calls) / phase["cells"], "solves/cell"),
        "lp.self_share": ((fb.self_time + fc.self_time) / phase["busy"], "ratio"),
        "stability.is_stable.us": (1e6 * stable.total / stable.calls, "us"),
        "stability.is_stable.self_us": (1e6 * stable.self_time / stable.calls, "us"),
        "stability.region_sweep.cells_per_s": (rate("stability.region_sweep"), "cells/s"),
        "stability.region_sweep.pool_speedup": (speedup, "ratio"),
        "stability.beta_upper_bound.ms": (1e3 * bound.total / bound.calls, "ms"),
        "stability.beta_upper_bound.solves": (bound.lp_solves / bound.calls, "solves/bound"),
        "stability.grasp_plane_sweep.cells_per_s": (rate("stability.grasp_plane_sweep"), "cells/s"),
        "stability.region_map_csv.ms": (per_call("stability.region_map_csv", 1e3), "ms"),
        "maneuver.simulate_grasp_trajectory.ms": (per_call("maneuver.simulate_grasp_trajectory", 1e3), "ms"),
        "maneuver.plan_pivot.us": (per_call("maneuver.plan_pivot", 1e6), "us"),
        "maneuver.align_phase.us": (per_call("maneuver.align_phase", 1e6), "us"),
        "stats.batch_ci.us_per_record": (1e6 * batch.total / batch.units, "us/record"),
        "cli.main.self_ms": (1e3 * main.self_time / main_passes, "ms/pass"),
        "cli.bytes_written": (bytes_per_pass, "bytes/pass"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }


def traced_run(pg, wl, args, workdir) -> tuple[dict, dict, dict]:
    import tracing
    import workloads

    # Untraced and traced rounds alternate, so drift of machine speed during
    # the run weighs on both alike and the overhead compares like with like.
    keys = ("durations", "cells", "errors", "busy")
    plain = {"durations": [], "cells": 0, "errors": [], "busy": 0.0}
    traced = dict(plain, durations=[], errors=[])
    tracer = tracing.Tracer()
    start = time.perf_counter()
    while True:
        for acc, tracing_on in ((plain, False), (traced, True)):
            with tracer.installed() if tracing_on else contextlib.nullcontext():
                one = run_phase(wl, 0)
            for k in keys:
                acc[k] += one[k]
        if time.perf_counter() - start >= args.seconds:
            break
    overhead = 100.0 * (traced["busy"] / len(traced["durations"]) / (plain["busy"] / len(plain["durations"])) - 1)

    tour_tracer, tour_cells = tracing.Tracer(), 0
    if isinstance(wl, workloads.CliBatch):
        cli = wl
    else:
        cli = workloads.CliBatch(pg, args.seed, args.short, workdir / "tour", 1)
        with tour_tracer.installed():
            out = cli.run(0)
        cli.keep(0, out)
        tour_cells = cli.cells(out)
    metrics = per_layer(tracer, traced, len(traced["durations"]), (tour_tracer, tour_cells),
                        cli.bytes_per_pass, overhead, pool_speedup(pg, cli))
    phase = {k: plain[k] + traced[k] for k in keys}
    trace_doc = {"workload": args.workload, "seed": args.seed, "phase": tracer.dump(),
                 "tour": tour_tracer.dump(), "untraced_ops": len(plain["durations"]),
                 "traced_ops": len(traced["durations"])}
    return metrics, phase, trace_doc


def bench(args, pg, workdir: Path) -> int:
    import workloads

    wl = workloads.WORKLOADS[args.workload](pg, args.seed, args.short, workdir, 1 if args.trace else 2)
    try:
        wl.run(wl.items[0])  # warm-up
    except Exception:  # the timed loop meets and counts the same failure
        pass
    setup = time.perf_counter() - _T0
    if args.setup_only:
        print(repr(setup))
        return 0

    trace_doc = None
    if args.trace:
        metrics, phase, trace_doc = traced_run(pg, wl, args, workdir)
    else:
        phase = run_phase(wl, args.seconds)
        rss = peak_rss_mb()
        samples = [setup] + [setup_subprocess(args) for _ in range(0 if args.short else SETUP_SAMPLES - 1)]
        metrics = end_to_end(phase, samples, rss)

    import checker
    import numpy

    try:
        failures, info = wl.check(checker)
    except Exception as e:  # outputs missing or malformed: report, still print the result
        failures, info = [f"check raised {type(e).__name__}: {e}"], {}
    attempted, failed = len(phase["durations"]), len(phase["errors"])
    info.update(checker=checker.engine(), nproc=os.cpu_count(), python=sys.version.split()[0],
                numpy=numpy.__version__, run_s=round(time.perf_counter() - _T0, 3))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} operations attempted, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    print(f"  info: {json.dumps(info)}")
    for line in failures:
        print(f"  CHECK FAILED: {line}")
    for line in phase["errors"][:3]:
        print(f"  OPERATION FAILED: {line}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (OUT / f"result_{stem}.json").write_text(json.dumps({**result, "info": info, "failures": failures}, indent=1))
    if trace_doc is not None:
        (OUT / f"trace_{stem}.json").write_text(json.dumps(trace_doc, indent=1))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        pg = load_program()
    except ImportError as e:
        print(f"error: cannot import pivotgrasp from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    workdir = OUT / f"run-{os.getpid()}"
    try:
        return bench(args, pg, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
