"""The package names and counters the benchmark in bench/ relies on.

bench/layers.py wraps package functions by name, bench/worker.py reads the
norm cache's statistics, and bench/run.py requires every counter a workload
serves to read nonzero.  These checks import the three scripts unchanged and
run a small traced unit of each workload that has such counters (soundness:
its fixed pass), so a change that breaks the benchmark fails here first.
"""

import sys
from pathlib import Path

import pytest

from robintri import equilateral, fem

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    """The bench scripts, imported the way they import each other and
    without writing bytecode next to them."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    import run
    import worker
    return layers, worker, run


def _traced(layers, unit):
    """(layer_metrics, tracer) of one traced call of unit, from a cold norm cache."""
    equilateral._l2_norm_sq_cached.cache_clear()
    tracer = layers.Tracer()
    tracer.install()
    try:
        before = equilateral._l2_norm_sq_cached.cache_info()
        unit()
        after = equilateral._l2_norm_sq_cached.cache_info()
    finally:
        tracer.uninstall()
    return (layers.layer_metrics(tracer, after.hits - before.hits, after.misses - before.misses),
            tracer)


def test_every_wrapped_name_exists(bench):
    layers, _, _ = bench
    tracer = layers.Tracer()
    try:
        tracer.install()  # raises if a wrapped name is gone
    finally:
        tracer.uninstall()
    assert callable(equilateral._l2_norm_sq_cached.cache_info)


def test_region_scan_counters_read_nonzero(bench, tmp_path):
    """Every counter the workload serves reads nonzero, and so does the
    evaluators' scan.cells time.  scan.self_s is entry time less that time,
    so it would stay positive if _plan bound the evaluators before the
    wrappers were installed."""
    layers, worker, run = bench
    metrics, tracer = _traced(layers, lambda: worker.RegionScan(0, tmp_path).run_unit(0))
    assert {k for k in run.SERVES["region-scan"] if not metrics[k] > 0} == set()
    assert tracer.times["scan.cells"] > 0


def test_soundness_counters_read_nonzero(bench, tmp_path):
    """Over the bench's own fixed soundness pass (every cell of the seed-0
    grid), the data run.py's gate reads: a single certified cell may decide
    below level 7 and so call no SuperLU (fem.factorisations reads 0 there)."""
    layers, worker, run = bench
    sweep = worker.Soundness(0, tmp_path)

    def fixed_pass():
        for index in range(sweep.fixed_units):
            sweep.run_unit(index)

    metrics, tracer = _traced(layers, fixed_pass)
    assert {k for k in run.SERVES["soundness"] if not metrics[k] > 0} == set()
    assert tracer.times["scan.cells"] > 0


def test_iteration_counter_reads_the_solve_count(bench, tmp_path):
    """layers.py adds up the third value _power_iterate returns; on a traced
    conjecture-grid unit that sum is the unit's EigenResult.iterations."""
    layers, worker, _ = bench
    cells = []
    metrics, _ = _traced(layers,
                         lambda: cells.extend(worker.ConjectureGrid(0, tmp_path).run_unit(0)))
    ((_, (_, res)),) = cells
    assert metrics["fem.iterations"] == res.iterations > 0


def test_one_factorisation_per_sparse_level(bench, tmp_path):
    """Each sparse level (more than fem._DENSE_NODES nodes: levels 5 and up)
    certifies the first shift it tries, so over the traced conjecture-grid
    pass fem.inertia_factorisations equals the number of sparse levels
    solved, and fem.factorisations, which counts SuperLU's, the number of
    those above fem._BAND_NODES nodes and up to fem._SPLU_NODES: SuperLU
    factors level 7 only.  A band-factored level (5 or 6) or a
    front-factored one (8 and up) that certifies calls no SuperLU, and the
    grid's ladders stop at level 7.  A wasted factorisation fails here."""
    layers, worker, _ = bench
    grid, cells = worker.ConjectureGrid(0, tmp_path), []

    def traced_pass():
        for index in range(grid.fixed_units):
            cells.extend(grid.run_unit(index))

    metrics, _ = _traced(layers, traced_pass)
    sparse = superlu = 0
    for _, (_, res) in cells:
        skipped = {level for level, _ in res.skipped}
        for level in range(2, res.level + 1):
            nodes = (2**level + 1) * (2**level + 2) // 2
            if level not in skipped and nodes > fem._DENSE_NODES:
                sparse += 1
                superlu += fem._BAND_NODES < nodes <= fem._SPLU_NODES
    assert metrics["fem.inertia_factorisations"] == sparse > superlu
    assert metrics["fem.factorisations"] == superlu > 0
