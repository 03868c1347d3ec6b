"""Tests for the trial-function upper bounds and their certificates."""

import math
import re
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from oracles import (closed_lower_bound, constant, corner_exponential, edge_stretch_weights,
                     exact_sector_quotient, ground_state, inverse_metric, side_integrals,
                     transported_form)

from robintri import _quad, geometry, trial
from robintri.equilateral import lambda0, solve_equilateral
from robintri.errors import DomainError, NumericError
from robintri.fem import eigenvalue_converged
from robintri.geometry import b0, c0, make_triangle
from robintri.scan import ScanConfig, run_scan
from robintri.trial import (
    _exp_divided_difference,
    constant_bound,
    delta_transplant,
    lambda0_lower_bound,
    sector_bound,
    sector_closed_upper,
    sector_condition,
    shape_coefficient,
    small_coupling_functions,
    strictly_below,
    transplant_verdict,
)

S_THIRD = 1.0 / math.sqrt(3.0)
SQRT3 = math.sqrt(3.0)


def mp_exp_divided_difference(points):
    """exp[z0, ..., zn] by the divided-difference recursion in mpmath, with
    the confluent limit exp(z) / n! where all points coincide."""
    def rec(p):
        if p[0] == p[-1]:
            return mp.exp(p[0]) / mp.factorial(len(p) - 1)
        return (rec(p[1:]) - rec(p[:-1])) / (p[-1] - p[0])

    return rec(sorted(mp.mpf(z) for z in points))


def mp_sector_rayleigh(alpha, tri, vertex):
    """rate^2 + alpha * ||u||^2_bdry / ||u||^2 at 40 digits from the float
    corner data: the volume norm by Hermite-Genocchi and each side as
    |e| exp[z_i, z_j]."""
    theta, _, apex, bisector = tri.corners[vertex]
    with mp.workdps(40):
        verts = [(mp.mpf(x), mp.mpf(y)) for x, y in tri.vertices]
        (px, py), (bx, by) = [tuple(map(mp.mpf, v)) for v in (apex, bisector)]
        rate = alpha / mp.sin(mp.mpf(theta) / 2)
        z = [2 * rate * ((x - px) * bx + (y - py) * by) for x, y in verts]
        (x0, y0), (x1, y1), (x2, y2) = verts
        area = abs((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)) / 2
        l2 = 2 * area * mp_exp_divided_difference(z)
        bdry = sum(mp.hypot(verts[j][0] - verts[i][0], verts[j][1] - verts[i][1])
                   * mp_exp_divided_difference([z[i], z[j]])
                   for i, j in ((0, 1), (0, 2), (1, 2)))
        return rate * rate + alpha * bdry / l2


class TestExpDividedDifference:
    """The scalar exp[z0, z1, z2] against a 50-digit mpmath recursion."""

    @staticmethod
    def worst_error(point_sets):
        worst = 0.0
        with mp.workdps(50):
            for z in point_sets:
                ref = mp_exp_divided_difference(z)
                worst = max(worst, float(abs(_exp_divided_difference(*z) - ref) / ref))
        return worst

    def test_seeded_point_sets(self):
        """{0, -s u1, -s u2} with s from 1e-8 to 1e5, on both sides of the
        spread-1 switch between series and recursion."""
        rng = np.random.default_rng(20261018)
        sets = [(0.0, -s * u1, -s * u2)
                for s, u1, u2 in zip(10.0 ** rng.uniform(-8.0, 5.0, 3000),
                                     rng.uniform(0.0, 1.0, 3000), rng.uniform(0.0, 1.0, 3000))]
        spreads = [-min(z) for z in sets]
        assert sum(sp <= 1.0 for sp in spreads) > 500 and sum(sp > 1.0 for sp in spreads) > 500
        assert self.worst_error(sets) <= 2e-15

    def test_shifted_point_sets(self):
        """A common offset t scales the value by e^t, whichever point is largest."""
        rng = np.random.default_rng(7)
        sets = []
        for t, s, u1, u2 in zip(rng.uniform(-20.0, 20.0, 300), 10.0 ** rng.uniform(-6.0, 3.0, 300),
                                rng.uniform(-1.0, 1.0, 300), rng.uniform(-1.0, 1.0, 300)):
            sets.append((t - s * u1, t, t + s * u2))
        assert self.worst_error(sets) <= 2e-15

    def test_switch_and_confluent_points(self):
        """Spreads just either side of 1, two points equal and all three equal."""
        sets = [(0.0, -1.0 + d, -0.3) for d in (-1e-13, 0.0, 1e-13)]
        sets += [(0.0, -s, -s) for s in (1e-9, 0.5, 1.0, 2.0, 40.0)]
        sets += [(0.0, 0.0, -s) for s in (1e-9, 0.5, 1.0, 2.0, 40.0)]
        sets += [(z, z, z) for z in (0.0, -3.0, 2.5)]
        assert self.worst_error(sets) <= 2e-15
        for z in (0.0, -3.0, 2.5):
            assert _exp_divided_difference(z, z, z) == pytest.approx(math.exp(z) / 2.0, rel=2e-16)

    def test_no_overflow_or_warning_at_large_spread(self):
        """Exponents down to -1e6 give finite values and raise nothing."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z in [(0.0, -1e6, -1e6), (0.0, -5e5, -1e6), (0.0, -1e-3, -1e6), (0.0, 0.0, -1e6),
                      (-1e6, -1e6, -1e6), (-1e6, -1e6 + 0.5, -1e6 + 1.0)]:
                value = _exp_divided_difference(*z)
                assert math.isfinite(value) and value >= 0.0
            assert _exp_divided_difference(0.0, -1e6, -1e6) == pytest.approx(1e-12, rel=1e-5)


class TestStrictlyBelow:
    def test_clear_separation(self):
        assert strictly_below(0.0, 1.0)
        assert strictly_below(-1e-9, 0.0)
        assert not strictly_below(1.0, 1.0)

    def test_margin_blocks_ties(self):
        """Values inside the relative safety band do not count as below."""
        assert not strictly_below(1.0 - 1e-12, 1.0)
        assert not strictly_below(-1e-11, 0.0)


class TestFormHat:
    """The transported form of a reference field, integrated by the oracle."""

    def test_constant_field_reproduces_perimeter_quotient(self, rng):
        """On the constant field the form is alpha*perimeter and the norm is S."""
        for _ in range(15):
            alpha = -float(rng.uniform(0.05, 5.0))
            tri = make_triangle(rng.uniform(-2, 2), rng.uniform(0.3, 2), rng.uniform(0.3, 2))
            gradient, boundary, l2 = transported_form(alpha, tri, constant)
            assert abs(gradient) < 1e-12
            assert abs(boundary - alpha * tri.perimeter) < 1e-10 * abs(alpha * tri.perimeter)
            assert abs(l2 - tri.S) < 1e-10 * tri.S
            bound, _ = constant_bound(alpha, tri)
            assert abs((gradient + boundary) / l2 - bound) < 1e-10 * abs(bound)

    def test_ground_state_recovers_lambda0_at_equilateral(self):
        """With the identity map the transported Rayleigh quotient is lambda0."""
        for alpha in (-0.3, -1.0, -4.0):
            sol = solve_equilateral(alpha, S_THIRD)
            gradient, boundary, l2 = transported_form(
                alpha, make_triangle(0.0, c0(S_THIRD), S_THIRD), ground_state(sol))
            assert abs((gradient + boundary) / l2 - sol.lambda0) < 1e-9 * abs(sol.lambda0)


def _affine_matrix(tri):
    """M = [[c/c0, a/b0], [0, b/b0]], the map from the reference onto Omega_{a,c}."""
    S = tri.S
    return np.array([[tri.c / c0(S), tri.a / b0(S)], [0.0, tri.b / b0(S)]])


class TestInverseMetric:
    def test_maps_reference_onto_triangle(self, rng):
        """M takes the vertices of the equilateral triangle of area S onto
        those of make_triangle(a, c, S), label by label."""
        for _ in range(25):
            a, c, S = rng.uniform(-3, 3), rng.uniform(0.2, 3), rng.uniform(0.3, 3)
            m = _affine_matrix(make_triangle(a, c, S))
            ref = make_triangle(0.0, c0(S), S).vertex_array()
            assert np.allclose(ref @ m.T, make_triangle(a, c, S).vertex_array(), atol=1e-12)

    def test_determinant_one(self, rng):
        """M preserves area, so M^T M and its inverse both have determinant one."""
        for _ in range(25):
            tri = make_triangle(rng.uniform(-3, 3), rng.uniform(0.2, 3), rng.uniform(0.3, 3))
            assert abs(np.linalg.det(_affine_matrix(tri)) - 1.0) < 1e-12
            g11, g12, g22 = inverse_metric(tri)
            assert abs(g11 * g22 - g12 * g12 - 1.0) < 1e-10 * g11 * g22

    def test_inverts_the_metric_of_the_affine_map(self, rng):
        """inverse_metric is the exact inverse of M^T M, and its trace minus 2
        is the shape coefficient."""
        for _ in range(25):
            tri = make_triangle(rng.uniform(-3, 3), rng.uniform(0.2, 3), rng.uniform(0.3, 3))
            m = _affine_matrix(tri)
            g11, g12, g22 = inverse_metric(tri)
            assert np.allclose(m.T @ m @ [[g11, g12], [g12, g22]], np.eye(2), atol=1e-10)
            assert shape_coefficient(tri) == g11 + g22 - 2.0


class TestEdgeWeights:
    def test_equilateral_weights_are_unity(self):
        w = edge_stretch_weights(make_triangle(0.0, c0(2.0), 2.0))
        assert np.allclose(w, [1.0, 1.0, 1.0], atol=1e-12)

    def test_sum_identity(self, rng):
        """The weights sum to sqrt(sqrt(3)/S) * perimeter / 2."""
        for _ in range(25):
            tri = make_triangle(rng.uniform(-3, 3), rng.uniform(0.2, 3), rng.uniform(0.3, 3))
            w = edge_stretch_weights(tri)
            expected = math.sqrt(SQRT3 / tri.S) * tri.perimeter / 2.0
            assert abs(sum(w) - expected) < 1e-12 * expected


class TestTransplant:
    def test_delta_matches_quadrature(self, rng):
        """The closed-form excess equals the transported-form difference."""
        for _ in range(12):
            alpha = -float(rng.uniform(0.1, 4.0))
            S = float(rng.uniform(0.4, 1.5))
            a = float(rng.uniform(-1.5, 1.5))
            c = float(rng.uniform(0.4, 1.6)) * c0(S)
            psi = ground_state(solve_equilateral(alpha, S))
            raw_shape = sum(transported_form(alpha, make_triangle(a, c, S), psi)[:2])
            raw_eq = sum(transported_form(alpha, make_triangle(0.0, c0(S), S), psi)[:2])
            delta = delta_transplant(alpha, make_triangle(a, c, S))
            scale = max(abs(raw_shape), abs(raw_eq), 1e-8)
            assert abs(delta - (raw_shape - raw_eq)) < 1e-8 * scale

    def test_zero_at_equilateral(self):
        assert abs(delta_transplant(-1.0, make_triangle(0.0, c0(0.7), 0.7))) < 1e-12

    def test_shape_coefficient_positive_off_equilateral(self, rng):
        assert abs(shape_coefficient(make_triangle(0.0, c0(1.3), 1.3))) < 1e-14
        for _ in range(20):
            S = float(rng.uniform(0.3, 2.0))
            a = float(rng.uniform(-2, 2))
            c = float(rng.uniform(0.3, 2.0))
            tri = make_triangle(a, c, S)
            if abs(a) > 0.02 or abs(c - c0(S)) > 0.02:
                assert shape_coefficient(tri) > 0.0

    def test_verdict_tracks_sign(self):
        """Weak coupling certifies a moderate shape; strong coupling does not."""
        tri = make_triangle(1.0, S_THIRD, S_THIRD)
        delta_weak, ok_weak = transplant_verdict(-0.1, tri)
        assert ok_weak and delta_weak < 0.0
        delta_strong, ok_strong = transplant_verdict(-8.0, tri)
        assert not ok_strong and delta_strong > 0.0

    def test_reflection_symmetry(self, rng):
        for _ in range(10):
            alpha = -float(rng.uniform(0.1, 5.0))
            a = float(rng.uniform(0.1, 2.0))
            d_plus = delta_transplant(alpha, make_triangle(a, 0.8, 1.0))
            d_minus = delta_transplant(alpha, make_triangle(-a, 0.8, 1.0))
            assert abs(d_plus - d_minus) < 1e-12 * max(1.0, abs(d_plus))

    def test_small_coupling_split_consistent(self, rng):
        """g1 <= z exactly when delta <= 0 (away from the boundary case)."""
        for _ in range(25):
            alpha = -float(rng.uniform(0.05, 3.0))
            a = float(rng.uniform(-2, 2))
            c = float(rng.uniform(0.4, 1.8)) * c0(1.0)
            tri = make_triangle(a, c, 1.0)
            if shape_coefficient(tri) < 1e-10:
                continue
            z, f1, g1 = small_coupling_functions(alpha, tri)
            delta = delta_transplant(alpha, tri)
            if abs(delta) < 1e-10:
                continue
            assert (g1 <= z) == (delta <= 0.0)
            assert f1 >= 3.0  # perimeter is smallest at the equilateral shape

    @pytest.mark.parametrize("alpha,value", [(-100.0, "nan"), (-50.0, "inf")])
    def test_excess_past_float64_is_a_numeric_error(self, alpha, value):
        """On the needle (0, 1e-150, 1) the shape coefficient is near 1e300, so
        the excess leaves float64: inf at alpha = -50, inf - inf = nan at -100.
        A NumericError, never a verdict read off it."""
        tri = make_triangle(0.0, 1e-150, 1.0)
        for entry in (delta_transplant, transplant_verdict):
            with pytest.raises(NumericError, match=f"excess leaves float64 at alpha = {alpha:g}: "
                                                   f"{value}"):
                entry(alpha, tri)


class TestConstantBound:
    def test_certifies_weak_coupling_far_shapes(self):
        bound, ok = constant_bound(-0.05, make_triangle(2.0, S_THIRD, S_THIRD))
        assert ok and bound < lambda0(-0.05, S_THIRD)

    def test_never_certifies_equilateral(self):
        bound, ok = constant_bound(-1.0, make_triangle(0.0, c0(1.0), 1.0))
        assert not ok
        assert bound > lambda0(-1.0, 1.0)

    def test_bound_past_float64_is_a_numeric_error(self):
        """alpha * perimeter / area overflows at alpha = -1e10 on the area 1e-300:
        a NumericError, not a certified verdict built from -inf."""
        with pytest.raises(NumericError, match="bound leaves float64 at alpha = -1e\\+10: -inf"):
            constant_bound(-1e10, make_triangle(0.0, 1.0, 1e-300))


class TestSectorBound:
    def test_rayleigh_below_closed(self, rng):
        """The exact quotient never exceeds the infinite-sector closed form."""
        for _ in range(18):
            alpha = -float(rng.uniform(0.2, 8.0))
            a = float(rng.uniform(-2.5, 2.5))
            c = float(rng.uniform(0.3, 2.0))
            S = float(rng.uniform(0.3, 1.5))
            tri = make_triangle(a, c, S)
            ray, closed = sector_bound(alpha, tri)
            assert ray <= closed + 1e-11 * max(1.0, abs(closed))

    @pytest.mark.parametrize("alpha,a,volume,width,resolved", [
        (-10.0, 100.0, "4.99438e-15", "4.99813e-06", 20.0),
        (-1.0, 100.0, "4.99438e-13", "4.99813e-05", 50.0)], ids=["alpha-10", "alpha-1"])
    def test_underflowing_field_is_a_numeric_error(self, alpha, a, volume, width, resolved):
        """On a flat triangle at strong coupling no side quadrature node lands
        in the boundary layer, 1/|2 rate| wide, so the boundary norm reads 0
        while the exact volume norm is positive: a typed NumericError, not a
        quotient built from a norm the quadrature missed.  The 40-point side
        rule finds the layer of the flat cell (resolved, 0.5, 1) at the same
        alpha, and reads the exact quotient there."""
        with pytest.raises(NumericError) as err:
            sector_bound(alpha, make_triangle(a, 0.5, 1.0))
        assert str(err.value) == (
            f"sector field at alpha = {alpha:g}: volume norm {volume}, boundary norm 0; "
            f"the side quadrature found no mass in the boundary layer of width {width}")
        tri = make_triangle(resolved, 0.5, 1.0)
        exact = exact_sector_quotient(alpha, tri)
        assert abs(sector_bound(alpha, tri)[0] - exact) <= 1e-13 * abs(exact)

    def test_error_names_the_norm_that_failed(self):
        """At a smallest angle of 2e-200 the exact volume norm underflows to 0
        and the error says so; on the flat strong-coupling triangle (100, 0.5,
        1) the volume norm is fine and the side quadrature is what missed the
        layer.  The flatter cells (20, 0.5, 1) at -10 and (50, 0.5, 1) at -1
        resolve to the exact quotient."""
        with pytest.raises(NumericError, match="exact volume norm") as underflow:
            sector_bound(-2.0, make_triangle(0.0, 1e-100, 1.0))
        assert "side quadrature" not in str(underflow.value)
        with pytest.raises(NumericError, match="side quadrature found no mass"):
            sector_bound(-10.0, make_triangle(100.0, 0.5, 1.0))
        for alpha, a in ((-10.0, 20.0), (-1.0, 50.0)):
            tri = make_triangle(a, 0.5, 1.0)
            exact = exact_sector_quotient(alpha, tri)
            assert abs(sector_bound(alpha, tri)[0] - exact) <= 1e-13 * abs(exact), (alpha, a)

    def test_overflowing_exponents_leak_no_warning(self):
        """On the needle (0, 1e-150, 1) the smallest angle is near 2e-300, the
        rate near -1e290, and the exponents k.(v - apex) leave float64: the
        exact volume norm is refused, and no RuntimeWarning escapes first."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="exact volume norm"):
                sector_bound(-1e-10, make_triangle(0.0, 1e-150, 1.0))

    def test_reads_the_corners_make_triangle_stored(self, monkeypatch):
        """With corner() made to raise once the triangles are built, every
        anchor gives the values it gave before: sector_bound reads tri.corners
        and computes no corner again."""
        tris = [make_triangle(1.3, 0.6, 0.9), make_triangle(-2.0, 0.4, 1.2),
                make_triangle(0.0, c0(0.8), 0.8)]
        anchors = (None, 0, 1, 2)
        expected = [sector_bound(-2.0, tri, anchor_vertex=v) for tri in tris for v in anchors]

        def refuse(*args, **kwargs):
            raise AssertionError("corner recomputed after make_triangle")

        original = geometry.corner
        for name, module in list(sys.modules.items()):
            if name.startswith("robintri") and getattr(module, "corner", None) is original:
                monkeypatch.setattr(module, "corner", refuse)
        assert [sector_bound(-2.0, tri, anchor_vertex=v) for tri in tris for v in anchors] == expected

    @pytest.mark.parametrize("vertex", [0, 1, 2])
    def test_matches_mpmath_formula(self, rng, vertex):
        """The quotient agrees with a 40-digit evaluation of the same formula."""
        cells = [(-8.615666666666666, 3.384615384615385, 0.3, S_THIRD)]
        for _ in range(30):
            cells.append((-float(10.0 ** rng.uniform(-2.0, 1.1)), float(rng.uniform(-3.0, 6.0)),
                          float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.3, 1.5))))
        for alpha, a, c, S in cells:
            tri = make_triangle(a, c, S)
            ray, _ = sector_bound(alpha, tri, anchor_vertex=vertex)
            ref = mp_sector_rayleigh(alpha, tri, vertex)
            assert float(abs(ray - ref) / abs(ref)) <= 1e-12, (alpha, a, c, S)

    @pytest.mark.parametrize("alpha, a, c, S, vertex", [
        (-10.0, 20.0, 0.5, 1.0, None), (-1.0, 50.0, 0.5, 1.0, None),
        (-2.0, 1.3, 0.6, 0.9, 0), (-0.3, -2.0, 0.4, 1.2, 1), (-8.0, 3.0, 0.45, S_THIRD, 2),
    ], ids=["flat-10", "flat-1", "v0", "v1", "v2"])
    def test_exact_oracle_matches_mpmath(self, alpha, a, c, S, vertex):
        """tests/oracles.py's exact sector quotient against the 40-digit
        formula, also on the two flat cells where sector_bound's side
        quadrature finds no mass (the first is (20, 0.5, 1) at alpha -10)."""
        tri = make_triangle(a, c, S)
        ref = mp_sector_rayleigh(alpha, tri, tri.apex_index if vertex is None else vertex)
        exact = exact_sector_quotient(alpha, tri, vertex)
        assert float(abs(exact - ref) / abs(ref)) <= 1e-13, (exact, ref)

    @pytest.mark.parametrize("anchor_vertex", [None, 0], ids=["apex", "left"])
    def test_agrees_with_exact_side_norms_on_the_bench_grid(self, anchor_vertex):
        """On the region-scan benchmark's 7x7 grid (alpha -10 to -0.01, a 0 to
        5, c = c0(S), S = 1/sqrt(3)) at both anchors of the sector-region
        scan, the side quadrature's quotient is the exact one to 1e-12."""
        worst = 0.0
        for alpha in np.linspace(-10.0, -0.01, 7).tolist():
            for a in np.linspace(0.0, 5.0, 7).tolist():
                tri = make_triangle(a, c0(S_THIRD), S_THIRD)
                ray, _ = sector_bound(alpha, tri, anchor_vertex=anchor_vertex)
                exact = exact_sector_quotient(alpha, tri, anchor_vertex)
                worst = max(worst, abs(ray - exact) / abs(exact))
        assert worst <= 1e-12

    def test_stays_off_triangle_quadrature(self, monkeypatch):
        """The sector certificate and its region scan integrate exp(k.(x - apex))
        over the triangle exactly: with 2-D quadrature disabled they give the
        same values and rows."""
        tri = make_triangle(1.2, 0.5, S_THIRD)
        cfg = ScanConfig(mode="sector-region", alpha_range=(-6.0, -0.5, 3), a_range=(-1.0, 3.0, 3))
        expected = [sector_bound(-2.0, tri, anchor_vertex=v) for v in (None, 0, 1, 2)]
        rows = run_scan(cfg).rows

        def refuse(*args, **kwargs):
            raise AssertionError("triangle quadrature on the sector path")

        monkeypatch.setattr(_quad, "triangle_integrate", refuse)
        assert [sector_bound(-2.0, tri, anchor_vertex=v) for v in (None, 0, 1, 2)] == expected
        assert run_scan(cfg).rows == rows

    @pytest.mark.parametrize("vertex", [3, -1])
    def test_rejects_anchor_outside_the_vertices(self, vertex):
        """Neither an IndexError nor Python's negative indexing: a DomainError."""
        with pytest.raises(DomainError, match="anchor_vertex"):
            sector_bound(-2.0, make_triangle(1.2, 0.5, S_THIRD), anchor_vertex=vertex)

    def test_anchored_variant(self):
        tri = make_triangle(1.5, 0.6, 0.8)
        for vertex in (0, 1, 2):
            ray, closed = sector_bound(-2.0, tri, anchor_vertex=vertex)
            assert ray <= closed + 1e-11 * abs(closed)

    def test_anchor_at_apex_is_the_default(self, rng):
        """Anchoring explicitly at the apex gives the same bound, bitwise."""
        for _ in range(200):
            tri = make_triangle(rng.uniform(-3.0, 3.0), rng.uniform(0.2, 2.0), rng.uniform(0.3, 2.0))
            assert sector_bound(-2.0, tri, anchor_vertex=tri.apex_index) == sector_bound(-2.0, tri)

    @pytest.mark.parametrize("vertex", [0, 1, 2])
    def test_equals_two_column_quotient(self, rng, vertex):
        """The quotient rate^2 + alpha*bdry/l2 equals (grad + alpha*bdry)/l2
        with |grad u|^2 integrated as its own column."""
        for alpha in (-0.2, -0.7, -2.0, -5.0, -12.0):
            tri = make_triangle(rng.uniform(-2, 2), rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.5))
            _, field = corner_exponential(tri, alpha, vertex=vertex)
            verts = tri.vertex_array()

            def moments(pts):
                vals, grads = field(pts)
                return np.column_stack([vals**2, grads[:, 0] ** 2 + grads[:, 1] ** 2])

            l2, grad = _quad.triangle_integrate(moments, verts, n=8, tol=1e-12)
            bdry = sum(side_integrals(lambda p: field(p)[0] ** 2, verts, n=10, tol=1e-12))
            expected = (float(grad) + alpha * bdry) / float(l2)
            ray, _ = sector_bound(alpha, tri, anchor_vertex=vertex)
            assert abs(ray - expected) <= 1e-13 * abs(expected)

    @pytest.mark.parametrize("vertex", [None, 0, 1, 2])
    def test_quotient_sums_the_sides_one_at_a_time(self, rng, vertex):
        """The three sides, integrated as one adaptive quadrature, give the
        quotient of tests/oracles.py's exact_sector_quotient, which sums the
        exact side norms |e| exp[zi, zj] one at a time, to 1e-12 relative.
        The first cell is flat: at its apex both long sides hold half the
        boundary mass, in a layer 1.4e-4 wide."""
        cells = [(-4.0, make_triangle(12.0, 1.25, 0.2))]
        for _ in range(15):
            tri = make_triangle(rng.uniform(-2, 2), rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.5))
            cells.append((-float(rng.uniform(0.1, 40.0)), tri))
        for alpha, tri in cells:
            ray, _ = sector_bound(alpha, tri, anchor_vertex=vertex)
            exact = exact_sector_quotient(alpha, tri, vertex)
            assert abs(ray - exact) <= 1e-12 * abs(exact), (alpha, tri.a, tri.c, tri.S)

    def test_never_below_the_exact_quotient(self):
        """On 400 seeded cells, flat ones and strong coupling among them
        (alpha = -10^U(-4, 2), a ~ U(-6, 40), c = 10^U(-1.5, 0.6), S =
        10^U(-2, 2)), a quotient that is not a NumericError lies no more than
        1e-13 relative below the exact one: the side quadrature may miss
        boundary mass, never add it.  Nor does it certify a cell the exact
        quotient does not."""
        gen = np.random.default_rng(20261020)
        resolved = 0
        for _ in range(400):
            alpha = -float(10.0 ** gen.uniform(-4.0, 2.0))
            a, c, S = (float(gen.uniform(-6.0, 40.0)), float(10.0 ** gen.uniform(-1.5, 0.6)),
                       float(10.0 ** gen.uniform(-2.0, 2.0)))
            tri = make_triangle(a, c, S)
            try:
                ray, _ = sector_bound(alpha, tri)
            except NumericError:
                continue
            resolved += 1
            exact = exact_sector_quotient(alpha, tri)
            assert ray >= exact - 1e-13 * abs(exact), (alpha, a, c, S, ray, exact)
            lam0 = lambda0(alpha, S)
            assert strictly_below(exact, lam0) or not strictly_below(ray, lam0), (alpha, a, c, S)
        assert resolved >= 300

    def test_keeps_the_certificate_of_a_flat_strong_coupling_cell(self):
        """At (alpha, a, c, S) = (-31.41, 7.508, 2.068, 0.2475) the exponents
        k.x of absolute coordinates lost the boundary layer's mass to rounding
        and the quotient read -6.2e-5, above lambda0 = -3946.35, without an
        error.  Apex-relative exponents read the exact -4.37e7."""
        tri = make_triangle(7.508, 2.068, 0.2475)
        ray, _ = sector_bound(-31.41, tri)
        exact = exact_sector_quotient(-31.41, tri)
        assert abs(ray - exact) <= 1e-13 * abs(exact), (ray, exact)
        assert strictly_below(ray, lambda0(-31.41, 0.2475))

    def test_side_rule_calls_on_the_bench_grid(self, monkeypatch):
        """On the region-scan benchmark's 7x7 sector grid (alpha -10 to -0.01,
        a 0 to 5, c = c0(S), S = 1/sqrt(3)) the side quadrature makes at most
        170 rule calls over the 49 cells, 3.47 per sector_bound: the count the
        40-point rule measured.  The 10-point rule made 329 (6.71)."""
        calls = []
        rule = _quad.segment_apply

        def counted(*args, **kwargs):
            calls.append(1)
            return rule(*args, **kwargs)

        monkeypatch.setattr(_quad, "segment_apply", counted)
        for alpha in np.linspace(-10.0, -0.01, 7).tolist():
            for a in np.linspace(0.0, 5.0, 7).tolist():
                sector_bound(alpha, make_triangle(a, c0(S_THIRD), S_THIRD))
        assert len(calls) <= 170

    def test_closed_form_monotone_in_l_prime(self):
        """Extending the truncated sides can only improve the closed bound."""
        vals = [sector_closed_upper(-2.0, 0.5, lp) for lp in (0.3, 0.6, 1.2, 2.4)]
        assert all(vals[i + 1] <= vals[i] + 1e-14 for i in range(3))

    def test_condition_rejects_equilateral(self):
        with pytest.raises(DomainError):
            sector_condition(-2.0, make_triangle(0.0, c0(1.0), 1.0))

    def test_zero_angle_is_a_domain_error(self):
        """Once the smallest angle rounds to 0 the sector rate alpha/sin(theta/2)
        does not exist: both sector certificates refuse it, typed."""
        tri = make_triangle(1e17, 0.5, 1.0)
        assert tri.theta_star == 0.0
        for check in (lambda: sector_bound(-2.0, tri), lambda: sector_condition(-2.0, tri),
                      lambda: sector_closed_upper(-2.0, 0.0, 1.0)):
            with pytest.raises(DomainError, match="positive corner angle"):
                check()

    @pytest.mark.parametrize("theta", [math.pi, 4.0, math.inf, math.nan])
    def test_angle_of_pi_or_more_is_a_domain_error(self, theta):
        """No corner has an angle of pi or more: the closed form would return a
        positive 'upper bound' at 4.0 and fail inside math.tan at inf."""
        with pytest.raises(DomainError, match=f"positive corner angle below pi, got {theta:g}"):
            sector_closed_upper(-1.0, theta, 1.0)

    def test_overflowing_rate_square_is_a_domain_error(self):
        """At c = 1e-100 the smallest angle is 2e-200: positive, but the
        squared rate (alpha/sin(theta/2))^2 overflows float64, typed."""
        tri = make_triangle(0.0, 1e-100, 1.0)
        assert 0.0 < tri.theta_star < 1e-150
        for check in (lambda: sector_condition(-2.0, tri),
                      lambda: sector_closed_upper(-2.0, tri.theta_star, tri.L_prime)):
            with pytest.raises(DomainError, match="overflows float64"):
                check()

    def test_condition_fires_only_at_strong_coupling(self):
        tri = make_triangle(3.0, S_THIRD, S_THIRD)
        assert sector_condition(-8.0, tri)
        assert not sector_condition(-0.1, tri)

    def test_condition_compares_the_pair_it_is_given(self):
        """Given the pair (closed sector bound, lower bound) it would compute,
        the condition reads the same verdict off it; a given pair is what it
        compares, and the equilateral triangle is refused with a pair too."""
        tri = make_triangle(3.0, S_THIRD, S_THIRD)
        for alpha in (-8.0, -0.1):
            pair = (sector_closed_upper(alpha, tri.theta_star, tri.L_prime),
                    lambda0_lower_bound(alpha, S_THIRD))
            assert sector_condition(alpha, tri, bounds=pair) == sector_condition(alpha, tri)
        assert sector_condition(-0.1, tri, bounds=(-2.0, -1.0))
        with pytest.raises(DomainError, match="equilateral"):
            sector_condition(-2.0, make_triangle(0.0, c0(1.0), 1.0), bounds=(-2.0, -1.0))

    def test_sector_certificates_accept_params(self):
        """Like every other certificate, sector_bound refuses anything but the
        record make_triangle builds."""
        with pytest.raises(DomainError):
            sector_bound(-1.0, (0.5, 0.6, S_THIRD))


class TestLowerBound:
    def test_dominated_by_lambda0(self, rng):
        for _ in range(30):
            alpha = -float(rng.uniform(0.05, 12.0))
            S = float(rng.uniform(0.2, 3.0))
            assert lambda0_lower_bound(alpha, S) <= lambda0(alpha, S)

    def test_rejects_bad_domain(self):
        with pytest.raises(DomainError):
            lambda0_lower_bound(0.5, 1.0)
        with pytest.raises(DomainError):
            lambda0_lower_bound(-1.0, -1.0)

    @pytest.mark.parametrize("alpha,S,text", [(-1.0, 1e-320, "alpha = -1, S = 9.99989e-321"),
                                              (-1e160, 1.0, "alpha = -1e+160, S = 1")])
    def test_bound_past_float64_is_a_numeric_error(self, alpha, S, text):
        """Every input rule passes but 36/(sqrt(3) S) or 4 alpha^2 overflows:
        a NumericError naming the coupling and the area, not -inf."""
        with pytest.raises(NumericError, match=re.escape(f"overflows float64 at {text}")):
            lambda0_lower_bound(alpha, S)



class TestClosedLowerBound:
    """The oracle closed_lower_bound: alpha P/S - alpha^2/sin^2(theta_min/2)."""

    @pytest.mark.parametrize("S", [0.3, 1.0 / math.sqrt(3.0), 4.0])
    @pytest.mark.parametrize("alpha", [-1e-6, -0.5, -8.0, -100.0])
    def test_below_lambda0_at_the_equilateral_point(self, alpha, S):
        assert closed_lower_bound(alpha, make_triangle(0.0, c0(S), S)) < lambda0(alpha, S)

    def test_package_bound_is_the_oracle(self, rng):
        """trial.closed_lower_bound, the bound fem.walk_levels checks every
        level value against, agrees with the oracle to 4 ulps on seeded cells."""
        for _ in range(200):
            tri = make_triangle(rng.uniform(-5.0, 5.0), math.exp(rng.uniform(-2.0, 2.0)),
                                math.exp(rng.uniform(-3.0, 3.0)))
            alpha = -math.exp(rng.uniform(-10.0, 5.0))
            want = closed_lower_bound(alpha, tri)
            assert abs(trial.closed_lower_bound(alpha, tri) - want) <= 4 * math.ulp(want)

    def test_level_values_and_certificates_lie_above_it(self, rng):
        """Every level value of a coarse ladder (a conforming upper bound),
        the constant field's bound and both sector bounds at each anchor lie
        at or above the bound, on four flat cells at S = 1 and
        on seeded cells.  With the largest angle in place of the smallest the
        check fails on all but one of these cells."""
        cells = [(0.0, 2.0, 1.0, -4.0), (2.5, 0.8, 1.0, -4.0), (1.5, 0.4, 1.0, -8.0),
                 (0.0, 2.0, 1.0, -0.5)]
        for _ in range(16):
            S = math.exp(rng.uniform(-1.5, 1.5))
            root = math.sqrt(S)
            cells.append((root * rng.uniform(-3.0, 3.0), root * math.exp(rng.uniform(-1.5, 1.5)),
                          S, -math.exp(rng.uniform(math.log(0.01), math.log(30.0))) / root))
        for a, c, S, alpha in cells:
            tri = make_triangle(a, c, S)
            values = [*eigenvalue_converged(tri, alpha, rel_tol=1e-3, max_level=5).history,
                      constant_bound(alpha, tri)[0]]
            for vertex in range(3):
                values += sector_bound(alpha, tri, anchor_vertex=vertex)
            bound = closed_lower_bound(alpha, tri)
            assert min(values) >= bound - 1e-12 * abs(bound), (a, c, S, alpha)


_ALPHA_ENTRIES = {
    "closed_lower_bound": trial.closed_lower_bound,
    "constant_bound": constant_bound,
    "sector_bound": sector_bound,
    "sector_condition": sector_condition,
    "lambda0_lower_bound": lambda al, tri: lambda0_lower_bound(al, tri.S),
    "delta_transplant": delta_transplant,
    "transplant_verdict": transplant_verdict,
    "small_coupling_functions": small_coupling_functions,
}


class TestCouplingCheck:
    @pytest.mark.parametrize("alpha", [-math.inf, math.nan, 0.0])
    @pytest.mark.parametrize("entry", sorted(_ALPHA_ENTRIES))
    def test_every_entry_rejects_a_bad_coupling(self, entry, alpha):
        """One check, one message: -inf and nan are domain errors like alpha >= 0."""
        with pytest.raises(DomainError, match="alpha must be finite and strictly negative"):
            _ALPHA_ENTRIES[entry](alpha, make_triangle(1.2, 0.5, S_THIRD))
