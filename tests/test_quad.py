"""The batched adaptive quadrature loop against the per-cell loop it replaced.

The oracle below is the earlier depth-first loop: one rule call per child
cell, one cell popped at a time.  Batching changes neither the subdivision
nor, beyond summation order, the arithmetic, so both loops must split the
same number of cells and agree to 1e-14 relative.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from oracles import corner_exponential, exp_side_norm, ground_state, reference_vertices

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
    """(tri, rate, field) of the corner exponential at random cells."""
    rng = np.random.default_rng(20261018)
    for _ in range(n_cases):
        tri = make_triangle(rng.uniform(-2, 2), rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.5))
        alpha = -float(rng.uniform(0.1, 40.0))
        yield (tri, *corner_exponential(tri, alpha))


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
        for tri, _, field in _sector_cases():
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
        for tri, _, field in _sector_cases():
            verts = tri.vertex_array()
            f = lambda p: field(p)[0] ** 2  # noqa: E731
            for i, j in ((0, 1), (0, 2), (1, 2)):
                old, old_cells = _oracle_segment(f, verts[i], verts[j], n=10, tol=1e-12)
                counter["cells"] = 0
                new = _quad.segment_integrate(f, verts[i], verts[j], n=10, tol=1e-12)
                assert counter["cells"] == old_cells
                _close(new, old)


# -- a stack of segments is one integral -------------------------------------

_SIDES = ((0, 1), (0, 2), (1, 2))


def _rough_segments(n_cases=12):
    """Two-component oscillatory integrands on three random segments each:
    many open cells per segment, and magnitudes that differ between the
    segments, so that the stack's cells fill several batches."""
    rng = np.random.default_rng(20261019)
    for _ in range(n_cases):
        w = float(rng.uniform(5.0, 60.0))

        def f(p, w=w):
            return np.column_stack([np.sin(w * p[:, 0]) ** 2 + np.exp(3.0 * p[:, 1]),
                                    np.cos(w * p[:, 0] * p[:, 1])])

        p0 = rng.normal(size=(3, 2))
        yield f, p0, p0 + rng.normal(size=(3, 2)) * rng.uniform(0.1, 5.0, size=(3, 1))


def _exponential_stacks():
    """(f, p0, p1, exact): exp(k.x) on three segments, and the sum of the
    exact side norms |e| exp[zi, zj], zi = k.pi.  First the sides of the
    sector cases' triangles and of a flat one at alpha = -4, whose two long
    sides each hold half the mass in a layer 1.4e-4 wide at the apex (against
    one running magnitude for the stack, the loop found it on one side only);
    then two stacks whose masses differ by about 1e200 (exp(2x) near x =
    -230, 0 and 230), in both orders."""
    flat = make_triangle(12.0, 1.25, 0.2)
    for tri, rate, field in (*_sector_cases(), (flat, *corner_exponential(flat, -4.0))):
        _, _, apex, bisector = tri.corners[tri.apex_index]
        k, verts = 2.0 * rate * np.asarray(bisector), tri.vertex_array()
        z = ((verts - np.asarray(apex)) @ k).tolist()
        exact = sum(exp_side_norm(math.dist(verts[i], verts[j]), z[i], z[j]) for i, j in _SIDES)
        yield (lambda p, field=field: field(p)[0] ** 2), verts[[0, 0, 1]], verts[[1, 2, 2]], exact
    ends = np.array([[-231.0, 0.0], [-230.0, 0.5], [0.0, 0.0], [1.0, 0.3], [229.5, 0.0],
                     [230.0, -0.5]])
    for order in ([0, 2, 4], [4, 2, 0]):
        p0, p1 = ends[order], ends[[i + 1 for i in order]]
        exact = sum(exp_side_norm(math.dist(a, b), 2.0 * a[0], 2.0 * b[0])
                    for a, b in zip(p0.tolist(), p1.tolist()))
        yield (lambda p: np.exp(2.0 * p[:, 0])), p0, p1, exact


class TestStackedSegments:
    # 2**4 points leave one cell of n = 10 per batch, so every pass pops one
    # cell and the stack's chunks are split on nearly every pass
    @pytest.mark.parametrize("max_points", _POINT_BOUNDS + (2**4,))
    def test_triangle_sides_equal_single_sides(self, monkeypatch, max_points):
        """One stacked call over three sides returns their total, a float,
        within 1e-12 relative of the sum of the exact side norms and of the
        three single-side integrals; also where one side's mass is 1e200
        times another's, which then counts for nothing in the total."""
        monkeypatch.setattr(_quad, "_MAX_POINTS", max_points)
        for f, p0, p1, exact in _exponential_stacks():
            stacked = _quad.segment_integrate(f, p0, p1, n=10, tol=1e-12)
            assert np.shape(stacked) == ()
            single = sum(float(_quad.segment_integrate(f, a, b, n=10, tol=1e-12))
                         for a, b in zip(p0, p1))
            assert abs(stacked - exact) <= 1e-12 * exact, (stacked, exact)
            assert abs(stacked - single) <= 1e-12 * exact, (stacked, single)

    @pytest.mark.parametrize("max_points", _POINT_BOUNDS)
    def test_rough_vector_integrands(self, monkeypatch, max_points):
        """A stack of vector-valued integrands gives one total per component,
        and each agrees with the sum of the single-segment integrals to 1e-12
        of the sum of their sizes."""
        monkeypatch.setattr(_quad, "_MAX_POINTS", max_points)
        for f, p0, p1 in _rough_segments():
            stacked = _quad.segment_integrate(f, p0, p1, n=8, tol=1e-12)
            single = np.array([_quad.segment_integrate(f, a, b, n=8, tol=1e-12)
                               for a, b in zip(p0, p1)])
            assert stacked.shape == (2,)
            assert np.all(np.abs(stacked - single.sum(axis=0))
                          <= 1e-12 * np.abs(single).sum(axis=0)), (stacked, single)

    def test_cell_budget_counts_the_whole_stack(self, monkeypatch):
        """The _MAX_CELLS budget is one for the stack: three rough segments
        raise "exceeded" having split no more cells than the budget, where
        one segment alone splits more than half of it; and a triangle's three
        sides, which split more cells together than any one of them alone,
        raise once the budget is one cell short of what they split together."""
        monkeypatch.setattr(_quad, "_MAX_CELLS", 1000)
        counter = _counting_split(monkeypatch, "_halves")
        rough = lambda p: np.sign(np.sin(1e9 * p[:, 0]))  # noqa: E731
        ends = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(NumericError, match="exceeded 1000 cells"):
            _quad.segment_integrate(rough, ends[0], ends[1])
        alone, counter["cells"] = counter["cells"], 0
        with pytest.raises(NumericError, match="exceeded 1000 cells"):
            _quad.segment_integrate(rough, ends[[0, 0, 0]], ends[[1, 1, 1]])
        assert 500 < alone <= 1000 and 0 < counter["cells"] <= 1000

        tri, _, field = next(_sector_cases())
        verts = tri.vertex_array()
        f = lambda p: field(p)[0] ** 2  # noqa: E731
        per_side = []
        for i, j in _SIDES:
            counter["cells"] = 0
            _quad.segment_integrate(f, verts[i], verts[j], n=10, tol=1e-12)
            per_side.append(counter["cells"])
        counter["cells"] = 0
        _quad.segment_integrate(f, verts[[0, 0, 1]], verts[[1, 2, 2]], n=10, tol=1e-12)
        together = counter["cells"]
        assert together > max(per_side)
        monkeypatch.setattr(_quad, "_MAX_CELLS", together)
        _quad.segment_integrate(f, verts[[0, 0, 1]], verts[[1, 2, 2]], n=10, tol=1e-12)
        monkeypatch.setattr(_quad, "_MAX_CELLS", together - 1)
        with pytest.raises(NumericError, match="exceeded"):
            _quad.segment_integrate(f, verts[[0, 0, 1]], verts[[1, 2, 2]], n=10, tol=1e-12)

    @pytest.mark.parametrize("p0,p1", [
        (np.zeros((3, 2)), np.ones((2, 2))),
        (np.zeros((3, 2)), np.ones(2)),
        (np.zeros((3, 3)), np.ones((3, 3))),
        (np.zeros((2, 2, 2)), np.ones((2, 2, 2))),
        (np.zeros((0, 2)), np.ones((0, 2))),
        (np.zeros(3), np.ones(3)),
        (0.0, 1.0),
    ], ids=["unequal-length", "stack-and-point", "three-columns", "three-axes", "empty",
            "three-coordinates", "scalars"])
    def test_bad_endpoint_shapes_are_refused_before_any_rule_call(self, monkeypatch, p0, p1):
        def refuse(*args, **kwargs):
            raise AssertionError("rule called on endpoints of a bad shape")

        monkeypatch.setattr(_quad, "segment_apply", refuse)
        with pytest.raises(ValueError, match="segment endpoints"):
            _quad.segment_integrate(refuse, p0, p1)


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

    @pytest.mark.parametrize("extra", [-1, 36])
    def test_integrand_of_the_wrong_length_is_refused(self, extra):
        """An integrand must return one value (or one row) per point.  One
        value short would fail to reshape; 72 values for 36 points would read
        as two components per point.  Both raise before any weighting."""
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match=rf"integrand returned shape \({36 + extra},\) "
                                             r"for 36 points"):
            _quad.triangle_integrate(lambda p: np.ones(len(p) + extra), verts, n=6)

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


# -- the Gauss-Legendre rule against 40 digits -----------------------------------

def _mp_gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1] at 40
    digits: each root of P_n by Newton's method from cos(pi (i - 1/4) /
    (n + 1/2)), and its weight 2 / ((1 - x^2) P_n'(x)^2)."""
    with mp.workdps(40):
        def derivative(x):
            return n * (x * mp.legendre(n, x) - mp.legendre(n - 1, x)) / (x * x - 1)

        roots = []
        for i in range(1, n + 1):
            x = mp.cos(mp.pi * (i - mp.mpf(1) / 4) / (n + mp.mpf(1) / 2))
            for _ in range(100):
                step = mp.legendre(n, x) / derivative(x)
                x -= step
                if abs(step) < mp.mpf(10) ** -38:
                    break
            roots.append(x)
        roots.sort()
        return roots, [2 / ((1 - x * x) * derivative(x) ** 2) for x in roots]


@pytest.mark.parametrize("n", [8, 10, 24, 40])
def test_gauss_weights_match_40_digits(n):
    """_gauss01's weights agree with 40-digit ones to 5e-14 relative, and its
    nodes are NumPy's to 1e-15; NumPy's own weights are 1.2e-13 off at n = 24
    and 7e-13 at n = 40."""
    x, w = _quad._gauss01(n)
    roots, weights = _mp_gauss_legendre(n)
    with mp.workdps(40):
        assert max(abs(xi - (r + 1) / 2) for xi, r in zip(x.tolist(), roots)) <= 1e-15
        assert max(abs(wi - v / 2) / (v / 2) for wi, v in zip(w.tolist(), weights)) <= 5e-14
