"""Per-layer tracing from outside the program.

`Tracer.installed()` wraps the public functions listed in `TRACED` and puts
the wrapper in place of every reference to the original in the
`pivotgrasp` modules (names bound with `from .x import y` included), then
restores them. Each call is a span; spans are aggregated in memory per
function: calls, total time, self time (total minus the time of traced calls
directly beneath it), LP solves beneath it, and a work count taken from the
result where one is defined.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

TRACED = {
    "geometry": ("validate_config",),
    "wrenches": ("contact_wrench_basis",),
    "lp": ("solve_force_balance", "solve_form_closure"),
    "stability": ("is_stable", "region_sweep", "beta_upper_bound", "grasp_plane_sweep", "region_map_csv"),
    "maneuver": ("simulate_grasp_trajectory", "plan_pivot", "align_phase"),
    "stats": ("batch_ci",),
    "cli": ("main",),
}
LP_SOLVES = ("lp.solve_force_balance", "lp.solve_form_closure")

# Work units read from a call: grid cells of a sweep, records of a batch.
_UNITS = {
    "stability.region_sweep": lambda args, result: result.feasible.size,
    "stability.grasp_plane_sweep": lambda args, result: result.feasible.size,
    "stats.batch_ci": lambda args, result: len(result),
}


class Agg:
    __slots__ = ("calls", "total", "self_time", "lp_solves", "units")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.lp_solves = 0
        self.units = 0

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    def __init__(self):
        self.aggs: dict[str, Agg] = {}
        self._stack: list[list] = []  # per open span: [child time, lp solves beneath]

    def wrap(self, name: str, fn):
        agg = self.aggs.setdefault(name, Agg())
        stack = self._stack
        clock = time.perf_counter
        is_lp = name in LP_SOLVES
        units = _UNITS.get(name)

        def traced(*args, **kwargs):
            frame = [0.0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                agg.calls += 1
                agg.total += dt
                agg.self_time += dt - frame[0]
                agg.lp_solves += frame[1]
                if stack:
                    parent = stack[-1]
                    parent[0] += dt
                    parent[1] += frame[1] + is_lp
            if units is not None:
                agg.units += units(args, result)
            return result

        return traced

    def get(self, name: str) -> Agg:
        return self.aggs.get(name) or Agg()

    @contextmanager
    def installed(self):
        wrappers = {}
        for module, names in TRACED.items():
            mod = importlib.import_module(f"pivotgrasp.{module}")
            for fn_name in names:
                original = getattr(mod, fn_name)
                wrappers[id(original)] = (original, self.wrap(f"{module}.{fn_name}", original))
        modules = [m for n, m in list(sys.modules.items()) if n == "pivotgrasp" or n.startswith("pivotgrasp.")]
        patched = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, value))
        try:
            yield self
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def dump(self) -> dict:
        return {name: agg.as_dict() for name, agg in sorted(self.aggs.items())}
