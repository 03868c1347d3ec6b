"""robintri benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --record-reference

Run from the root of a source checkout; nothing needs installing, the package
is imported from ``src/``.  Each workload runs in a fresh worker process
(bench/worker.py) with one BLAS/OpenMP thread, as a closed loop with one
caller.  The seed moves the workload's grid points inside their grid cells and
permutes the cell order; the default seed 0 runs the unperturbed grids, whose
outputs must also match bench/reference.json.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over several
fresh interpreters of the time to ``import robintri``), ``cells_per_s`` (cells
over the summed time of the units of work), the per-cell time percentiles
``cell_s_p50`` and ``cell_s_p90``, and ``peak_rss_mb``.  Times are reference
seconds (bench/refspeed.py); raw wall-clock figures are printed beside them.
``--trace 1`` runs one fixed pass untraced and twice traced, each in its own
process, prints the per-layer metrics of the first traced pass and
``trace_overhead`` (traced over untraced time), and requires every
deterministic counter to repeat exactly between the two traced passes and to
be nonzero on the workloads it serves.  The last line of the output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--record-reference`` reruns every cell of every workload at the default seed
and rewrites bench/reference.json; do so only when a change is meant to move
the numbers, and say so.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refspeed import REF_LOOP_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"
REFERENCE_SEED = 0  # must match worker.REFERENCE_SEED
SETUP_SAMPLES = 7
CHILD_TIMEOUT = 170.0

# Why each workload is in the benchmark; printed with every run.
WHY = {
    "region-scan": "the only workload where trial, _quad and equilateral do most of the "
                   "work; the no-change control for every fem change",
    "conjecture-grid": "many small ladders (levels 2 to 7, <= 8k nodes) where per-level fixed "
                       "costs dominate and no quadrature runs",
    "soundness": "the fem layer used differently: the second ladder (_raw_upper_bound, "
                 "decided-early stop) runs on certified cells only",
    "deep-ladder": "tight-tolerance ladders to level 8 (33k nodes): large sparse "
                   "factorisation, iteration count and peak memory dominate",
}

# Per-layer counters that must read nonzero on the workloads they serve.
SERVES = {
    "region-scan": (
        "quad.triangle_cells", "quad.segment_cells", "quad.integrate_s",
        "trial.sector_bound_s", "trial.transplant_s", "trial.constant_s", "trial.condition_s",
        "equilateral.solve_calls", "equilateral.solve_s", "equilateral.norms_s",
        "equilateral.l2_cache_hit_ratio", "scan.self_s", "scan.emit_csv_s",
    ),
    "soundness": (
        "quad.triangle_cells", "quad.integrate_s",
        "trial.transplant_s", "trial.constant_s", "trial.condition_s",
        "equilateral.solve_calls", "equilateral.solve_s", "equilateral.norms_s",
        "equilateral.l2_cache_hit_ratio", "scan.self_s",
    ),
}
_FEM = ("fem.build_mesh_s", "fem.build_mesh_calls", "fem.assemble_s", "fem.factorisations",
        "fem.inertia_factorisations", "fem.factor_s", "fem.iterate_s", "fem.iterations",
        "fem.levels_per_cell", "fem.nodes_solved", "fem.ladder_s")
SERVES["soundness"] += _FEM
SERVES["conjecture-grid"] = _FEM + ("fem.unconverged_cells",)
SERVES["deep-ladder"] = _FEM + ("fem.unconverged_cells",)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name == "trace_overhead":
        return "ratio"
    if name == "fem.levels_per_cell":
        return "levels/cell"
    return "count"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # One BLAS/OpenMP thread: on 2 cores a second OpenBLAS thread spins after
    # each call, which slowed 33k-node ladders from 1.5-1.7 s to 1.9-2.0 s and
    # slows the reference loop that runs after each unit (bench/refspeed.py).
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(env: dict[str, str]) -> tuple[list[float], list[float]]:
    """Fresh interpreter start to ``import robintri`` done, several times.

    Returns (wall seconds, reference seconds) per sample; each child scales
    its own sample with the reference loop, run right after the import on the
    core the import ran on.
    """
    code = ("import time, robintri; t = time.perf_counter(); "
            "from refspeed import loop_seconds; "
            "print(repr(t), repr(loop_seconds() + loop_seconds()))")
    env = {**env, "PYTHONPATH": os.pathsep.join((str(SRC), str(BENCH)))}
    wall, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()  # CLOCK_MONOTONIC: shared with the child
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=True)
        t_import, loops = (float(x) for x in proc.stdout.split())
        wall.append(t_import - t0)
        scaled.append(wall[-1] * REF_LOOP_S / (0.5 * loops))
    return wall, scaled


def run_worker(env, workload: str, seed: int, mode: str, seconds: float = 0.0) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", repr(seconds),
           "--out-dir", str(OUT / workload)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {workload}/{mode} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(env, args) -> tuple[dict, dict]:
    setup_wall, setup = measure_setup(env)
    res = run_worker(env, args.workload, args.seed, "timed", args.seconds)
    per_unit = res["cells_per_unit"]
    cells = [t / per_unit for t in res["unit_ref_s"] for _ in range(per_unit)]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cells_per_s": (res["cells"] / sum(res["unit_ref_s"]), "1/s"),
        "cell_s_p50": (percentile(cells, 50), "s"),
        "cell_s_p90": (percentile(cells, 90), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    wall = sum(res["unit_wall_s"])
    print(f"{res['cells']} cells in {len(res['unit_wall_s'])} units of {per_unit}; "
          f"times below are reference seconds (bench/refspeed.py) over {len(cells)} cells")
    samples = ", ".join(f"{v:.4f}" for v in setup_wall)
    print(f"wall clock: {wall:.2f} s, cells_per_s {res['cells'] / wall:.6g}, "
          f"setup_s {statistics.median(setup_wall):.4f} (samples {samples})")
    return res, metrics


def per_layer(env, args) -> tuple[dict, dict, list[str]]:
    plain = run_worker(env, args.workload, args.seed, "fixed")
    first = run_worker(env, args.workload, args.seed, "traced")
    second = run_worker(env, args.workload, args.seed, "traced")
    problems = []
    for key, value in first["layers"].items():
        if _unit(key) != "s" and value != second["layers"][key]:
            problems.append(f"counter {key} differs between two traced passes: "
                            f"{value} vs {second['layers'][key]}")
    for key in SERVES[args.workload]:
        if not first["layers"][key] > 0:
            problems.append(f"counter {key} reads zero on {args.workload}, which it serves")
    traced, untraced = sum(first["unit_ref_s"]), sum(plain["unit_ref_s"])
    # layer times on the same reference-seconds scale as the end-to-end times
    scale = traced / sum(first["unit_wall_s"])
    layers = {k: v * scale if _unit(k) == "s" else v for k, v in first["layers"].items()}
    layers["trace_overhead"] = traced / untraced
    metrics = {k: (v, _unit(k)) for k, v in layers.items()}
    print(f"traced pass: {first['cells']} cells, {traced:.2f} s traced / {untraced:.2f} s "
          f"untraced (reference seconds; layer times scaled by {scale:.4f})")
    for level, times in first["level_solves"].items():
        print(f"solve_at_level {level}: {len(times)} solves, "
              f"median {statistics.median(times):.4f} s wall clock")
    first["failed"] += plain["failed"] + second["failed"]
    first["failures"] += plain["failures"] + second["failures"]
    first["cells"] += plain["cells"] + second["cells"]
    return first, metrics, problems


def record_reference(env) -> int:
    data = {}
    for name in WHY:
        t0 = time.perf_counter()
        data[name] = run_worker(env, name, REFERENCE_SEED, "reference")["reference"]
        print(f"{name}: {len(data[name])} cells in {time.perf_counter() - t0:.1f} s")
    REFERENCE.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WHY))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)

    if not (SRC / "robintri" / "__init__.py").is_file():
        sys.stderr.write(f"no robintri source tree under {SRC}; run from a robintri checkout\n")
        return 2
    env = child_env()
    if args.record_reference:
        return record_reference(env)
    if args.workload is None:
        p.error("--workload is required")

    print(f"workload {args.workload}, seed {args.seed}, closed loop, one caller, "
          f"{args.seconds:g} s")
    print(f"why: {WHY[args.workload]}")
    problems: list[str] = []
    if args.trace:
        res, metrics, problems = per_layer(env, args)
    else:
        res, metrics = end_to_end(env, args)
    print(f"inputs: {res['inputs']}")
    nproc = len(os.sched_getaffinity(0))
    print("env: " + json.dumps({**res["env"], "nproc": nproc, "seed": args.seed}))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_frac = {res['failed'] / res['cells']:.6g} ({res['failed']}/{res['cells']} cells)")
    for line in res["failures"] + problems:
        print(f"FAIL {line}")
    print(json.dumps({
        "correct": res["failed"] == 0 and not problems,
        "attempted": res["cells"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
