"""Per-layer counters and timers, attached to robintri from outside.

A traced run replaces module-level functions of the package with thin
wrappers that count calls and add up wall time.  A function such as
``fem.splu`` or ``scan.solve_at_level`` is called through the name the
calling module imported, so each wrapper is installed in every robintri
module namespace that holds the original object; a wrapper on the defining
module alone would read zero.

Times are inclusive (a ladder's time contains its mesh builds) and are added
only for the outermost active call of their group, so nested calls within one
group are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

from robintri.errors import NumericError


def _mesh_nodes(level: int) -> int:
    n = 2**level
    return (n + 1) * (n + 2) // 2


class Tracer:
    """Counts and inclusive times for the wrapped functions of one process."""

    def __init__(self):
        self.counts: dict[str, int] = defaultdict(int)
        self.times: dict[str, float] = defaultdict(float)
        self.level_solves: dict[int, list[float]] = defaultdict(list)
        self._depth: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def wrap(self, module: str, attr: str, *, count: str | None = None,
             time_key: str | None = None, group: str | None = None, on_exit=None) -> None:
        """Wrap ``module.attr`` in every robintri namespace that imported it.

        ``count`` names the call counter, ``time_key`` the inclusive timer
        (added only when its ``group`` is not already active) and ``on_exit``
        is called as on_exit(args, kwargs, result, exc, seconds).
        """
        orig = getattr(importlib.import_module(module), attr)
        group = group or time_key
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if count is not None:
                tracer.counts[count] += 1
            outer = group is not None and tracer._depth[group] == 0
            if group is not None:
                tracer._depth[group] += 1
            t0 = time.perf_counter()
            result = exc = None
            try:
                result = orig(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dt = time.perf_counter() - t0
                if group is not None:
                    tracer._depth[group] -= 1
                if outer and time_key is not None:
                    tracer.times[time_key] += dt
                if on_exit is not None:
                    on_exit(args, kwargs, result, exc, dt)

        patched = 0
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "robintri" or name.startswith("robintri.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, orig))
                    patched += 1
        if patched == 0:
            raise RuntimeError(f"{module}.{attr} is not referenced by any robintri module")

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._undo):
            setattr(mod, key, orig)
        self._undo.clear()

    # -- hooks ----------------------------------------------------------------

    def _on_level(self, args, kwargs, result, exc, dt) -> None:
        level = kwargs["level"] if "level" in kwargs else args[2]
        if exc is None:
            self.counts["nodes_solved"] += _mesh_nodes(level)
            self.level_solves[level].append(dt)
        elif isinstance(exc, NumericError) and self._depth["fem.ladder"] > 0:
            self.counts["skipped_levels"] += 1

    def _on_ladder(self, args, kwargs, result, exc, dt) -> None:
        if exc is not None:
            return
        # EigenResult.converged, or the "settled" flag of scan._raw_upper_bound
        settled = result[2] if isinstance(result, tuple) else result.converged
        if not settled:
            self.counts["unconverged_cells"] += 1

    def _on_iterate(self, args, kwargs, result, exc, dt) -> None:
        if exc is None:
            self.counts["iterations"] += result[2]

    def install(self) -> None:
        """Attach every counter the benchmark reports."""
        w = self.wrap
        # _quad: one triangle_apply / segment_apply call is one quadrature cell
        w("robintri._quad", "triangle_apply", count="quad.triangle_cells")
        w("robintri._quad", "segment_apply", count="quad.segment_cells")
        for fn in ("triangle_integrate", "segment_integrate"):
            w("robintri._quad", fn, time_key="quad.integrate", group="quad")
        # trial: one timer per certificate, exclusive within the layer
        w("robintri.trial", "sector_bound", time_key="trial.sector_bound", group="trial")
        for fn in ("transplant_verdict", "delta_transplant"):
            w("robintri.trial", fn, time_key="trial.transplant", group="trial")
        w("robintri.trial", "constant_bound", time_key="trial.constant", group="trial")
        for fn in ("sector_condition", "sector_closed_upper", "lambda0_lower_bound"):
            w("robintri.trial", fn, time_key="trial.condition", group="trial")
        # equilateral
        w("robintri.equilateral", "solve_equilateral", count="equilateral.solve_calls",
          time_key="equilateral.solve")
        w("robintri.equilateral", "closed_form_norms", time_key="equilateral.norms")
        # fem
        w("robintri.fem", "build_mesh", count="fem.build_mesh_calls", time_key="fem.build_mesh")
        w("robintri.fem", "assemble", time_key="fem.assemble")
        w("robintri.fem", "splu", count="fem.factorisations", time_key="fem.factor")
        w("robintri.fem", "_factor_counting", count="fem.inertia_factorisations")
        w("robintri.fem", "_power_iterate", time_key="fem.iterate", on_exit=self._on_iterate)
        w("robintri.fem", "solve_at_level", count="fem.levels_attempted", on_exit=self._on_level)
        w("robintri.fem", "eigenvalue_converged", count="fem.ladders", time_key="fem.ladder",
          on_exit=self._on_ladder)
        w("robintri.scan", "_raw_upper_bound", count="fem.ladders", time_key="fem.ladder",
          on_exit=self._on_ladder)
        # scan: entry-point wall time, per-cell evaluator time and CSV emission
        for fn in ("run_scan", "soundness_sweep"):
            w("robintri.scan", fn, time_key="scan.entry")
        for fn in ("_cell_transplant", "_cell_constant", "_cell_condition", "_cell_sector",
                   "_soundness_cell"):
            w("robintri.scan", fn, time_key="scan.cells")
        w("robintri.scan", "emit_csv", time_key="scan.emit_csv")


def layer_metrics(tracer: Tracer, l2_hits: int, l2_misses: int) -> dict[str, float]:
    """Flatten one traced pass into the per-layer metrics the benchmark reports."""
    c, t = tracer.counts, tracer.times
    ladders = c["fem.ladders"]
    return {
        "quad.triangle_cells": c["quad.triangle_cells"],
        "quad.segment_cells": c["quad.segment_cells"],
        "quad.integrate_s": t["quad.integrate"],
        "trial.sector_bound_s": t["trial.sector_bound"],
        "trial.transplant_s": t["trial.transplant"],
        "trial.constant_s": t["trial.constant"],
        "trial.condition_s": t["trial.condition"],
        "equilateral.solve_calls": c["equilateral.solve_calls"],
        "equilateral.solve_s": t["equilateral.solve"],
        "equilateral.norms_s": t["equilateral.norms"],
        "equilateral.l2_cache_hits": l2_hits,
        "equilateral.l2_cache_misses": l2_misses,
        "equilateral.l2_cache_hit_ratio": l2_hits / max(1, l2_hits + l2_misses),
        "fem.build_mesh_s": t["fem.build_mesh"],
        "fem.build_mesh_calls": c["fem.build_mesh_calls"],
        "fem.assemble_s": t["fem.assemble"],
        "fem.factorisations": c["fem.factorisations"],
        "fem.inertia_factorisations": c["fem.inertia_factorisations"],
        "fem.factor_s": t["fem.factor"],
        "fem.iterate_s": t["fem.iterate"],
        "fem.iterations": c["iterations"],
        "fem.ladders": ladders,
        "fem.levels_per_cell": c["fem.levels_attempted"] / ladders if ladders else 0.0,
        "fem.skipped_levels": c["skipped_levels"],
        "fem.unconverged_cells": c["unconverged_cells"],
        "fem.nodes_solved": c["nodes_solved"],
        "fem.ladder_s": t["fem.ladder"] / ladders if ladders else 0.0,
        "scan.self_s": max(0.0, t["scan.entry"] - t["scan.cells"]),
        "scan.emit_csv_s": t["scan.emit_csv"],
    }
