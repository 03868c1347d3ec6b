"""The batched adaptive quadrature loop against the per-cell loop it replaced.

The oracle below is the earlier depth-first loop: one rule call per child
cell, one cell popped at a time.  Batching changes neither the subdivision
nor, beyond summation order, the arithmetic, so both loops must split the
same number of cells and agree to 1e-14 relative.
"""

import math
import warnings

import numpy as np
import pytest
from oracles import corner_exponential, ground_state, reference_vertices

from robintri import _quad
from robintri.equilateral import _l2_norm_sq_cached, solve_equilateral
from robintri.errors import NumericError
from robintri.geometry import make_triangle

S_THIRD = 1.0 / math.sqrt(3.0)


# -- oracle: the per-cell depth-first loop ------------------------------------

def _triangle_rule_one(f, verts, n):
    ref_pts, ref_wts = _quad.duffy_rule(n)
    p0, p1, p2 = verts
    e1, e2 = p1 - p0, p2 - p0
    jac = abs(e1[0] * e2[1] - e1[1] * e2[0])
    pts = p0 + np.outer(ref_pts[:, 0], e1) + np.outer(ref_pts[:, 1], e2)
    vals = np.asarray(f(pts), dtype=float).reshape(len(pts), -1)
    return jac * (ref_wts @ vals)


def _segment_rule_one(f, seg, n):
    p0, p1 = seg
    x, w = _quad._gauss01(n)
    pts = p0 + np.outer(x, p1 - p0)
    vals = np.asarray(f(pts), dtype=float).reshape(len(pts), -1)
    return float(np.hypot(*(p1 - p0))) * (w @ vals)


def _children_one(verts):
    p0, p1, p2 = verts
    m01, m12, m20 = 0.5 * (p0 + p1), 0.5 * (p1 + p2), 0.5 * (p2 + p0)
    return [np.array(c) for c in ([p0, m01, m20], [m01, p1, m12], [m20, m12, p2], [m01, m12, m20])]


def _halves_one(seg):
    a, b = seg
    mid = 0.5 * (a + b)
    return [(a, mid), (mid, b)]


def _oracle(rule, split, cell, tol, max_depth):
    """(integral, cells split) from the per-cell depth-first loop."""
    coarse0 = rule(cell)
    total = np.zeros_like(coarse0)
    scale = np.maximum(np.abs(coarse0), 1e-300)
    stack = [(cell, coarse0, 0)]
    cells = 0
    while stack:
        cell, coarse, depth = stack.pop()
        cells += 1
        kids = split(cell)
        fine_parts = [rule(k) for k in kids]
        fine = sum(fine_parts)
        scale = np.maximum(scale, np.abs(fine))
        if depth >= max_depth or np.all(np.abs(fine - coarse) <= tol * scale):
            total += fine
        else:
            stack.extend((k, part, depth + 1) for k, part in zip(kids, fine_parts))
    return total, cells


def _oracle_triangle(f, verts, n, tol, max_depth=26):
    return _oracle(lambda v: _triangle_rule_one(f, v, n), _children_one,
                   np.asarray(verts, dtype=float), tol, max_depth)


def _oracle_segment(f, p0, p1, n, tol, max_depth=40):
    return _oracle(lambda s: _segment_rule_one(f, s, n), _halves_one,
                   (np.asarray(p0, dtype=float), np.asarray(p1, dtype=float)), tol, max_depth)


# -- helpers -------------------------------------------------------------------

def _counting_split(monkeypatch, name):
    """Wrap _quad.<name> so the cells the batched loop splits are counted."""
    counter = {"cells": 0}
    orig = getattr(_quad, name)

    def split(cells):
        counter["cells"] += len(cells)
        return orig(cells)

    monkeypatch.setattr(_quad, name, split)
    return counter


def _close(new, old, rel=1e-14):
    new, old = np.atleast_1d(new), np.atleast_1d(old)
    assert new.shape == old.shape
    assert np.all(np.abs(new - old) <= rel * np.abs(old)), (new, old)


def _sector_cases(n_cases=12):
    rng = np.random.default_rng(20261018)
    for _ in range(n_cases):
        tri = make_triangle(rng.uniform(-2, 2), rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.5))
        alpha = -float(rng.uniform(0.1, 40.0))
        yield tri, corner_exponential(tri, alpha)[1]


def _sector_moments(field):
    def moments(pts):
        vals, grads = field(pts)
        return np.column_stack([vals**2, grads[:, 0] ** 2 + grads[:, 1] ** 2])
    return moments


# a bound of 2**9 points leaves two triangle cells per batch, so stack
# chunks are split and joined on nearly every pass
_POINT_BOUNDS = (_quad._MAX_POINTS, 2**9)


# -- the batched loop equals the oracle ---------------------------------------

class TestAgainstPerCellLoop:
    @pytest.mark.parametrize("max_points", _POINT_BOUNDS)
    def test_sector_moments(self, monkeypatch, max_points):
        monkeypatch.setattr(_quad, "_MAX_POINTS", max_points)
        counter = _counting_split(monkeypatch, "_children")
        for tri, field in _sector_cases():
            verts = tri.vertex_array()
            old, old_cells = _oracle_triangle(_sector_moments(field), verts, n=8, tol=1e-12)
            counter["cells"] = 0
            new = _quad.triangle_integrate(_sector_moments(field), verts, n=8, tol=1e-12)
            assert counter["cells"] == old_cells
            _close(new, old)

    @pytest.mark.parametrize("alpha", [-0.01, -1.0, -50.0, -150.0])
    def test_ground_state_square(self, monkeypatch, alpha):
        """The u0^2 integral behind equilateral._l2_norm_sq_cached (n=24)."""
        counter = _counting_split(monkeypatch, "_children")
        field = ground_state(solve_equilateral(alpha, S_THIRD))
        verts = reference_vertices(S_THIRD)
        f = lambda p: field(p)[0] ** 2  # noqa: E731
        old, old_cells = _oracle_triangle(f, verts, n=24, tol=1e-13)
        new = _quad.triangle_integrate(f, verts, n=24, tol=1e-13)
        assert counter["cells"] == old_cells
        _close(new, old)

    @pytest.mark.parametrize("max_points", _POINT_BOUNDS)
    def test_sector_boundary_segments(self, monkeypatch, max_points):
        monkeypatch.setattr(_quad, "_MAX_POINTS", max_points)
        counter = _counting_split(monkeypatch, "_halves")
        for tri, field in _sector_cases():
            verts = tri.vertex_array()
            f = lambda p: field(p)[0] ** 2  # noqa: E731
            for i, j in ((0, 1), (0, 2), (1, 2)):
                old, old_cells = _oracle_segment(f, verts[i], verts[j], n=10, tol=1e-12)
                counter["cells"] = 0
                new = _quad.segment_integrate(f, verts[i], verts[j], n=10, tol=1e-12)
                assert counter["cells"] == old_cells
                _close(new, old)


# -- bounds and failures ---------------------------------------------------------

class TestBatchBounds:
    @pytest.mark.parametrize("domain,n,budget", [("triangle", 8, 1000), ("triangle", 24, 300),
                                                 ("segment", 10, 10_000)])
    def test_no_rule_call_exceeds_the_point_bound(self, monkeypatch, domain, n, budget):
        """A rough integrand keeps every batch full until it exhausts the cell
        budget; no batch holds more than _MAX_POINTS evaluation points."""
        monkeypatch.setattr(_quad, "_MAX_CELLS", budget)
        sizes = []

        def rough(p):
            sizes.append(len(p))
            return np.sign(np.sin(1e9 * p[:, 0]))

        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(NumericError, match="exceeded"):
            if domain == "triangle":
                _quad.triangle_integrate(rough, verts, n=n)
            else:
                _quad.segment_integrate(rough, verts[0], verts[1], n=n)
        assert _quad._MAX_POINTS // 2 < max(sizes) <= _quad._MAX_POINTS

    def test_non_finite_integrand_fails_fast(self):
        """exp(1/(1 - x - y)) overflows only next to the hypotenuse: the loop
        refines toward it and raises at the first rule call that reaches inf,
        not after splitting its way to the cell budget."""
        calls = []

        def f(p):
            calls.append(len(p))
            with np.errstate(over="ignore"):
                return np.exp(1.0 / (1.0 - p[:, 0] - p[:, 1]))

        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(NumericError, match="not finite"):
            _quad.triangle_integrate(f, verts, n=6, tol=1e-12)
        assert 2 < len(calls) <= 20
        calls.clear()

        def nan_everywhere(p):
            calls.append(len(p))
            return np.full(len(p), np.nan)

        with pytest.raises(NumericError, match="not finite"):
            _quad.segment_integrate(nan_everywhere, np.zeros(2), np.array([1.0, 0.0]))
        assert len(calls) == 1

    def test_overflowing_ground_state_norm_fails_fast(self, monkeypatch):
        """u0^2 overflows at alpha = -190; the norm raises on its first rule
        call (it used to split its way to the cell budget for minutes), and
        without a numpy overflow warning.  The rule is looked up at call time,
        so a wrapper on _quad sees the call."""
        calls = []
        rule = _quad.triangle_apply

        def counted(*args, **kwargs):
            calls.append(1)
            return rule(*args, **kwargs)

        monkeypatch.setattr(_quad, "triangle_apply", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="not finite"):
                _l2_norm_sq_cached(-190.0, S_THIRD)
        assert len(calls) == 1
