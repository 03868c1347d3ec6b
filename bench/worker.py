"""One benchmark workload in a fresh process; prints one JSON line.

Run by run.py, never by hand:

    python3 bench/worker.py --workload NAME --seed N --mode timed --seconds S
    python3 bench/worker.py --workload NAME --seed N --mode fixed|traced|reference

``timed`` runs as many units of work as fill ``--seconds`` at the workload's
nominal unit time; ``fixed`` and ``traced`` run a fixed number of units
(``traced`` with the per-layer counters of layers.py attached); ``reference``
runs every cell of the workload once so that run.py can record the
default-seed reference.  Each unit is timed by refspeed.Clock.  Every mode
checks the outputs it produced afterwards, outside the timed region and with
the counters detached.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import resource
import sys
from pathlib import Path

import numpy as np
import scipy

import robintri
from robintri import equilateral, fem, geometry, scan

from layers import Tracer, layer_metrics
from refspeed import Clock

S = 1.0 / math.sqrt(3.0)
REFERENCE = Path(__file__).with_name("reference.json")
REFERENCE_SEED = 0
# Values must match the default-seed reference to this share of max(1, |ref|):
# closed forms and quadrature are deterministic to rounding, FEM values pass
# through sparse factorisations and Richardson extrapolation.
REF_TOL = {"closed": 1e-9, "fem": 1e-7}
# Share of a grid step (or of the coordinate itself, for coordinates that must
# keep their sign) by which the seed moves a point or a range endpoint.  It is
# small so that no cell changes the number of mesh levels its ladder needs:
# one soundness cell moving from level 7 to 8 costs 2 s of a 24 s pass.
JITTER = 0.05
try:
    LIBC = ctypes.CDLL("libc.so.6")
except OSError:
    LIBC = None
REGION_MODES = ("transplant-region", "constant-region", "condition-region", "sector-region")
MARGIN = 1e-10  # trial.strictly_below's relative safety margin


def _jitter(rng, x: float, step: float, keep_sign: bool = False) -> float:
    span = min(step, abs(x)) if keep_sign else step
    return x + JITTER * span * rng.uniform(-1.0, 1.0)


def _step(lo: float, hi: float, n: int) -> float:
    return (hi - lo) / (n - 1)


def _below(value: float, target: float) -> bool:
    return value < target - MARGIN * max(1.0, abs(target))


def _close(x: float, ref: float, tol: float) -> bool:
    if isinstance(ref, float) and math.isnan(ref):
        return isinstance(x, float) and math.isnan(x)
    return abs(x - ref) <= tol * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# workloads: inputs from the seed, one unit of work, per-cell checks


class RegionScan:
    """run_scan for the four certificate region modes on one (alpha, a) grid.

    One unit is one pass over the grid in every mode, the same grid each pass.
    """

    name = "region-scan"
    UNIT_S = 0.36
    pass_units = 1
    N = 7
    ALPHA = (-10.0, -0.01)
    A = (0.0, 5.0)

    def __init__(self, seed: int, out_dir: Path):
        rng = np.random.default_rng(seed)
        sa, s_a = _step(*self.ALPHA, self.N), _step(*self.A, self.N)
        lo, hi = self.ALPHA
        a_lo, a_hi = self.A
        if seed != REFERENCE_SEED:
            lo = _jitter(rng, lo, sa)
            # the top of the alpha range may only move down: alpha stays < 0
            hi = hi - JITTER * sa * rng.uniform(0.0, 1.0)
            a_lo, a_hi = _jitter(rng, a_lo, s_a), _jitter(rng, a_hi, s_a)
        self.alpha_range = (lo, hi, self.N)
        self.a_range = (a_lo, a_hi, self.N)
        self.c = geometry.c0(S)
        self.out_dir = out_dir
        self.cells_per_unit = len(REGION_MODES) * self.N * self.N
        self.fixed_units = 10
        self.reference_units = 1

    def describe(self) -> str:
        fmt = lambda r: f"[{r[0]:.6g}, {r[1]:.6g}] x {r[2]}"  # noqa: E731
        return f"alpha {fmt(self.alpha_range)}, a {fmt(self.a_range)}, c = c0(S), CSV output"

    def run_unit(self, index: int) -> list:
        out = []
        for mode in REGION_MODES:
            cfg = scan.ScanConfig(mode=mode, alpha_range=self.alpha_range,
                                  a_range=self.a_range, c_fixed=self.c, S=S,
                                  output_path=str(self.out_dir / f"{mode}.csv"))
            res = scan.run_scan(cfg)
            out.extend((f"{mode}:{i}", (mode, row)) for i, row in enumerate(res.rows))
        return out

    @staticmethod
    def check(cell) -> str | None:
        mode, row = cell
        alpha, a = row[0], row[1]
        status = row[-1]
        verdict = row[-2]
        lam0 = robintri.lambda0(alpha, S)
        if mode == "condition-region":
            closed, lower = row[2], row[3]
            tri = robintri.make_triangle(a, geometry.c0(S), S)
            equilateral_cell = tri.theta_star >= math.pi / 3.0 - 1e-12
            if status == "domain-error" and equilateral_cell and verdict == 0:
                return None
            if status != "ok":
                return f"status {status}"
            if verdict != int(_below(closed, lower)):
                return "verdict disagrees with closed_upper < lower_bound"
            return None
        if status != "ok":
            return f"status {status}"
        if mode == "transplant-region":
            delta = row[2]
            _, bdry, _ = equilateral.closed_form_norms(robintri.solve_equilateral(alpha, S))
            if verdict != int(delta < -MARGIN * abs(alpha) * bdry):
                return "verdict disagrees with delta"
        elif mode == "constant-region":
            bound, lam0_row = row[2], row[3]
            if lam0_row != lam0 or verdict != int(_below(bound, lam0)):
                return "verdict disagrees with bound < lambda0"
        else:  # sector-region
            ray, closed, lam0_row = row[2], row[3], row[4]
            if not ray <= closed + 1e-9 * abs(closed):
                return f"rayleigh {ray!r} above closed_upper {closed!r}"
            if lam0_row != lam0 or verdict != int(_below(ray, lam0)):
                return "verdict disagrees with rayleigh < lambda0"
        return None

    @staticmethod
    def record(cell) -> tuple[list, list, str]:
        mode, row = cell
        return [row[-2], row[-1]], [float(v) for v in row[2:-2]], "closed"


class _Cells:
    """Points called one at a time, jittered and permuted by the seed."""

    pass_units = 1

    def __init__(self, points: list[tuple], seed: int):
        rng = np.random.default_rng(seed)
        self.points = points
        self.order = [int(i) for i in rng.permutation(len(points))]

    def describe(self) -> str:
        return f"{len(self.points)} cells, seed-permuted order"


class ConjectureGrid(_Cells):
    """eigenvalue_converged(rel_tol=1e-3, max_level=7) on the acceptance (a, c) grid.

    Every third point of the acceptance test's 11-point a axis and every
    other point of its c axis, for each alpha: 72 cells.  One unit is one
    cell; a run makes whole passes, so that every run has the same share of
    cheap near-equilateral cells, which settle by level 4.
    """

    name = "conjecture-grid"
    UNIT_S = 0.22
    ALPHAS = (-0.5, -2.0, -8.0)
    REL_TOL = 1e-3
    MAX_LEVEL = 7

    def __init__(self, seed: int, out_dir: Path):
        rng = np.random.default_rng([seed, 1])
        avals, cvals = np.linspace(0.0, 3.0, 11)[::3], np.linspace(0.2, 3.0, 11)[::2]
        sa, sc = avals[1] - avals[0], cvals[1] - cvals[0]
        pts = []
        for alpha in self.ALPHAS:
            for a in avals:
                for c in cvals:
                    a, c = float(a), float(c)
                    if seed != REFERENCE_SEED:
                        a, c = _jitter(rng, a, sa), _jitter(rng, c, sc, keep_sign=True)
                    pts.append((alpha, a, c))
        super().__init__(pts, seed)
        self.cells_per_unit = 1
        self.pass_units = self.reference_units = len(pts)
        self.fixed_units = 12

    def run_unit(self, index: int) -> list:
        i = self.order[index % len(self.order)]
        alpha, a, c = self.points[i]
        res = fem.eigenvalue_converged(robintri.make_triangle(a, c, S), alpha,
                                       rel_tol=self.REL_TOL, max_level=self.MAX_LEVEL)
        return [(str(i), (alpha, res))]

    @staticmethod
    def check(cell) -> str | None:
        alpha, res = cell
        lam0 = robintri.lambda0(alpha, S)
        pad = 10.0 * res.residual + 1e-9 * max(1.0, abs(lam0))
        if not res.lambda1 <= lam0 + pad:
            return f"lambda_fem {res.lambda1!r} above lambda0 {lam0!r} + pad {pad:.3g}"
        return None

    @staticmethod
    def record(cell) -> tuple[list, list, str]:
        _, res = cell
        return [bool(res.converged), res.level], [res.lambda1, res.residual], "fem"


class Soundness(_Cells):
    """soundness_sweep over (alpha, a) in [-8, -0.05] x [0, 3] at c = S, one cell per call.

    One unit is one cell; a run makes whole passes over the 11 x 11 grid.
    The a = 0 column is the equilateral triangle and is not moved in a: next
    to it no certificate can be confirmed by the FEM oracle at its tolerance
    (see CHANGES.md).
    """

    name = "soundness"
    UNIT_S = 0.11

    def __init__(self, seed: int, out_dir: Path):
        rng = np.random.default_rng([seed, 2])
        alphas, avals = np.linspace(-8.0, -0.05, 11), np.linspace(0.0, 3.0, 11)
        s_al, sa = alphas[1] - alphas[0], avals[1] - avals[0]
        pts = []
        for alpha in alphas:
            for a in avals:
                alpha, a = float(alpha), float(a)
                if seed != REFERENCE_SEED:
                    alpha = _jitter(rng, alpha, s_al, keep_sign=True)
                    a = _jitter(rng, a, sa) if a != 0.0 else a
                pts.append((alpha, a))
        super().__init__(pts, seed)
        self.cells_per_unit = 1
        # a partial pass would sample the few 2 s cells unevenly
        self.pass_units = self.fixed_units = self.reference_units = len(pts)

    def run_unit(self, index: int) -> list:
        i = self.order[index % len(self.order)]
        alpha, a = self.points[i]
        return [(str(i), scan.soundness_sweep([alpha], [a], c=S, S=S).rows[0])]

    @staticmethod
    def check(row) -> str | None:
        alpha, a, delta, const_ok, cond_ok, certified, lam, err, lam0, sound, verdict, status = row
        if status not in ("ok", "unconverged"):
            return f"status {status}"
        if lam0 != robintri.lambda0(alpha, S):
            return "lambda0 column disagrees with lambda0()"
        _, bdry, _ = equilateral.closed_form_norms(robintri.solve_equilateral(alpha, S))
        delta_ok = delta < -MARGIN * abs(alpha) * bdry
        if certified != int(delta_ok or const_ok or cond_ok):
            return "certified flag disagrees with the three certificates"
        if certified and sound != int(lam <= lam0 - 10.0 * err):
            return "sound flag disagrees with lambda_fem <= lambda0 - 10 err"
        if verdict != 1:
            return f"contradiction: certified cell with lambda_fem {lam!r} vs lambda0 {lam0!r}"
        return None

    @staticmethod
    def record(row) -> tuple[list, list, str]:
        return list(row[3:6]) + list(row[9:12]), [row[2], row[6], row[7], row[8]], "fem"


class DeepLadder(_Cells):
    """Tight-tolerance eigenvalue_converged on the large-coupling test's triangle.

    One unit is one ladder; every ladder runs levels 2 to 8 (33k nodes).
    """

    name = "deep-ladder"
    UNIT_S = 1.0
    CELLS = ((0.5, -4.0), (0.5, -8.0), (0.5, -16.0))
    # tight enough that no ladder stops before its last level under the jitter
    REL_TOL = 1e-6
    MAX_LEVEL = 8
    # jitter here is a share of the value: these cells sit on no grid
    SHARE = 0.02

    def __init__(self, seed: int, out_dir: Path):
        rng = np.random.default_rng([seed, 3])
        pts = []
        for a, alpha in self.CELLS:
            if seed != REFERENCE_SEED:
                a = a * (1.0 + self.SHARE * rng.uniform(-1.0, 1.0))
                alpha = alpha * (1.0 + self.SHARE * rng.uniform(-1.0, 1.0))
            pts.append((alpha, a))
        super().__init__(pts, seed)
        self.cells_per_unit = 1
        self.fixed_units = self.reference_units = len(pts)

    def run_unit(self, index: int) -> list:
        i = self.order[index % len(self.order)]
        alpha, a = self.points[i]
        tri = robintri.make_triangle(a, geometry.c0(S), S)
        res = fem.eigenvalue_converged(tri, alpha, rel_tol=self.REL_TOL, max_level=self.MAX_LEVEL)
        return [(str(i), (alpha, a, res))]

    @staticmethod
    def check(cell) -> str | None:
        alpha, a, res = cell
        err = ConjectureGrid.check((alpha, res))
        if err:
            return err
        hist = res.history
        if any(hist[k + 1] > hist[k] + 1e-12 * abs(hist[k]) for k in range(len(hist) - 1)):
            return "conforming level values increase under refinement"
        # the large-coupling limit lambda1 / alpha^2 -> -1 / sin^2(theta*/2)
        tri = robintri.make_triangle(a, geometry.c0(S), S)
        target = -1.0 / math.sin(0.5 * tri.theta_star) ** 2
        if not abs(res.lambda1 / alpha**2 - target) < 1e-2 * abs(target):
            return f"lambda1/alpha^2 {res.lambda1 / alpha**2!r} off the sector limit {target!r}"
        return None

    @staticmethod
    def record(cell) -> tuple[list, list, str]:
        _, _, res = cell
        return ([bool(res.converged), res.level, len(res.history)],
                [res.lambda1, res.residual, *res.history], "fem")


WORKLOADS = {w.name: w for w in (RegionScan, ConjectureGrid, Soundness, DeepLadder)}


# ---------------------------------------------------------------------------
# running and checking


def units_for(workload, mode: str, seconds: float) -> int:
    """Units of work in one run.

    A timed run's work is fixed by --seconds and the workload's nominal unit
    time (UNIT_S, in reference seconds), not by the clock, so that its cells,
    counters and peak memory depend on the seed alone.
    """
    if mode == "timed":
        per_pass = workload.pass_units
        return per_pass * max(1, round(seconds / (workload.UNIT_S * per_pass)))
    return workload.reference_units if mode == "reference" else workload.fixed_units


def _release_free_heap() -> None:
    """Return memory freed by the last unit to the OS (glibc only).

    Without it the peak resident set of twelve identical ladders moved between
    270 and 345 MB from run to run with the allocator's fragmentation; with
    it, peak_rss_mb is the largest working set of one unit on top of the
    imports.
    """
    if LIBC is not None:
        LIBC.malloc_trim(0)


def run_units(workload, units: int) -> tuple[list, list[float], list[float]]:
    """Run units of work; return (cells, wall times, reference times) per unit."""
    clock = Clock()
    cells: list = []
    wall: list[float] = []
    scaled: list[float] = []
    for index in range(units):
        _release_free_heap()
        got, w, r = clock.time(workload.run_unit, index)
        cells.extend(got)
        wall.append(w)
        scaled.append(r)
    return cells, wall, scaled


def check_cells(workload, cells: list, reference: dict | None) -> tuple[int, list[str]]:
    failures = []
    for cell in cells:
        key, out = cell[0], cell[1]
        problem = workload.check(out)
        if problem is None and reference is not None:
            ref = reference.get(key)
            discrete, values, kind = workload.record(out)
            if ref is None:
                problem = "no reference value recorded"
            elif discrete != ref[0]:
                problem = f"verdicts {discrete} differ from reference {ref[0]}"
            elif len(values) != len(ref[1]) or not all(
                    _close(v, r, REF_TOL[kind]) for v, r in zip(values, ref[1])):
                problem = f"values {values} differ from reference {ref[1]} (tol {REF_TOL[kind]:g})"
        if problem is not None:
            failures.append(f"{workload.name} cell {key}: {problem}")
    return len(failures), failures


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True, choices=("timed", "fixed", "traced", "reference"))
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--out-dir", required=True)
    args = p.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, out_dir)
    tracer = None
    if args.mode == "traced":
        tracer = Tracer()
        tracer.install()
    l2_before = equilateral._l2_norm_sq_cached.cache_info()
    try:
        units = units_for(workload, args.mode, args.seconds)
        cells, unit_wall, unit_ref = run_units(workload, units)
    finally:
        if tracer is not None:
            tracer.uninstall()
    l2_after = equilateral._l2_norm_sq_cached.cache_info()

    out = {
        "workload": workload.name,
        "inputs": workload.describe(),
        "cells": len(cells),
        "cells_per_unit": workload.cells_per_unit,
        "unit_wall_s": unit_wall,
        "unit_ref_s": unit_ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": np.__config__.CONFIG["Build Dependencies"]["blas"].get("name"),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    if args.mode == "reference":
        records = {}
        for cell in cells:
            discrete, values, _ = workload.record(cell[1])
            records[cell[0]] = [discrete, values]
        out["reference"] = records
    else:
        reference = None
        if args.seed == REFERENCE_SEED:
            reference = json.loads(REFERENCE.read_text())[workload.name]
        out["failed"], failures = check_cells(workload, cells, reference)
        out["failures"] = failures[:20]
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, l2_after.hits - l2_before.hits,
                                      l2_after.misses - l2_before.misses)
        out["level_solves"] = {str(k): v for k, v in sorted(tracer.level_solves.items())}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
