"""Reference per-call figures for bench/README.md.

Usage, from the repository root: python3 bench/reference.py

Prints the median over repeats of: microseconds per call of config
validation, wrench basis, force-balance LP, form-closure LP, the
enumeration oracle and a full cell (`is_stable`), and the cells per second
of one default 0.5 degree sweep at workers 1 and 2. Fixed inputs: bushing,
friction set C, l_a = 0.7.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import pivotgrasp as pg  # noqa: E402

REPEATS = 5


def per_call_us(fn, calls: int = 2000) -> float:
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls * 1e6)
    return statistics.median(samples)


def main() -> None:
    obj, gripper = pg.load_catalog()["bushing"]
    friction = pg.FrictionSet(0.2, 0.4, 0.4)
    cfg = pg.grasp_config(obj, gripper, 0.7, math.radians(30.0), math.radians(20.0))
    basis = pg.contact_wrench_basis(obj, cfg, friction)
    gravity = pg.gravity_wrench(obj)
    print(f"nproc {os.cpu_count()}, Python {sys.version.split()[0]}, numpy {np.__version__}")
    figures = {
        "validate_config": lambda: pg.validate_config(cfg, obj),
        "contact_wrench_basis": lambda: pg.contact_wrench_basis(obj, cfg, friction),
        "solve_force_balance": lambda: pg.solve_force_balance(basis, gravity),
        "solve_form_closure": lambda: pg.solve_form_closure(basis),
        "oracle_force_balance": lambda: pg.oracle_force_balance(basis, gravity),
        "is_stable (full cell)": lambda: pg.is_stable(obj, cfg, friction),
    }
    for name, fn in figures.items():
        print(f"{name:24s} {per_call_us(fn):9.2f} us/call")
    alpha, beta = pg.default_alpha_grid(), pg.default_beta_grid()
    for workers in (1, 2):
        samples = []
        for _ in range(3):
            t0 = time.perf_counter()
            pg.region_sweep(obj, friction, 0.7, alpha, beta, delta=cfg.delta, workers=workers)
            samples.append(len(alpha) * len(beta) / (time.perf_counter() - t0))
        print(f"region_sweep workers={workers}  {statistics.median(samples):9.0f} cells/s")


if __name__ == "__main__":
    main()
