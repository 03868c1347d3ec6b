"""Tests for the trial-function upper bounds and their certificates."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from robintri import _quad
from robintri.equilateral import ground_state, lambda0, solve_equilateral
from robintri.errors import DomainError, NumericError
from robintri.geometry import TriangleParams, c0, equilateral_params, make_triangle
from robintri.scan import ScanConfig, run_scan
from robintri.trial import (
    ConstantOne,
    SectorExponential,
    _exp_divided_difference,
    constant_bound,
    delta_transplant,
    form_hat,
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
    field = SectorExponential.from_triangle(tri, alpha, vertex=vertex)
    with mp.workdps(40):
        verts = [(mp.mpf(x), mp.mpf(y)) for x, y in tri.vertex_array().tolist()]
        (px, py), (bx, by) = [tuple(map(mp.mpf, v)) for v in (field.apex, field.bisector)]
        rate = alpha / mp.sin(mp.mpf(field.theta_star) / 2)
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
    def test_constant_field_reproduces_perimeter_quotient(self, rng):
        """On the constant field the form is alpha*perimeter and the norm is S."""
        for _ in range(15):
            alpha = -float(rng.uniform(0.05, 5.0))
            tri = make_triangle(rng.uniform(-2, 2), rng.uniform(0.3, 2), rng.uniform(0.3, 2))
            fv = form_hat(alpha, tri, ConstantOne())
            assert abs(fv.gradient_term) < 1e-12
            assert abs(fv.boundary_term - alpha * tri.perimeter) < 1e-10 * abs(
                alpha * tri.perimeter
            )
            assert abs(fv.l2_norm_sq - tri.params.S) < 1e-10 * tri.params.S
            bound, _ = constant_bound(alpha, tri)
            assert abs(fv.rayleigh - bound) < 1e-10 * abs(bound)

    def test_ground_state_recovers_lambda0_at_equilateral(self):
        """With the identity map the transported Rayleigh quotient is lambda0."""
        for alpha in (-0.3, -1.0, -4.0):
            sol = solve_equilateral(alpha, S_THIRD)
            fv = form_hat(alpha, equilateral_params(S_THIRD), ground_state(sol))
            assert abs(fv.rayleigh - sol.lambda0) < 1e-9 * abs(sol.lambda0)

    def test_rejects_sector_field_and_bad_alpha(self):
        tri = make_triangle(0.5, 0.8, 1.0)
        with pytest.raises(DomainError):
            form_hat(-1.0, tri, SectorExponential.from_triangle(tri, -1.0))
        with pytest.raises(DomainError):
            form_hat(0.0, tri, ConstantOne())


class TestTransplant:
    def test_delta_matches_quadrature(self, rng):
        """The closed-form excess equals the transported-form difference."""
        for _ in range(12):
            alpha = -float(rng.uniform(0.1, 4.0))
            S = float(rng.uniform(0.4, 1.5))
            a = float(rng.uniform(-1.5, 1.5))
            c = float(rng.uniform(0.4, 1.6)) * c0(S)
            sol = solve_equilateral(alpha, S)
            psi = ground_state(sol)
            raw_shape = form_hat(alpha, TriangleParams(a, c, S), psi).raw
            raw_eq = form_hat(alpha, equilateral_params(S), psi).raw
            delta = delta_transplant(alpha, TriangleParams(a, c, S))
            scale = max(abs(raw_shape), abs(raw_eq), 1e-8)
            assert abs(delta - (raw_shape - raw_eq)) < 1e-8 * scale

    def test_zero_at_equilateral(self):
        assert abs(delta_transplant(-1.0, equilateral_params(0.7))) < 1e-12

    def test_shape_coefficient_positive_off_equilateral(self, rng):
        assert abs(shape_coefficient(equilateral_params(1.3))) < 1e-14
        for _ in range(20):
            S = float(rng.uniform(0.3, 2.0))
            a = float(rng.uniform(-2, 2))
            c = float(rng.uniform(0.3, 2.0))
            params = TriangleParams(a, c, S)
            if abs(a) > 0.02 or abs(c - c0(S)) > 0.02:
                assert shape_coefficient(params) > 0.0

    def test_verdict_tracks_sign(self):
        """Weak coupling certifies a moderate shape; strong coupling does not."""
        tri = TriangleParams(1.0, S_THIRD, S_THIRD)
        delta_weak, ok_weak = transplant_verdict(-0.1, tri)
        assert ok_weak and delta_weak < 0.0
        delta_strong, ok_strong = transplant_verdict(-8.0, tri)
        assert not ok_strong and delta_strong > 0.0

    def test_reflection_symmetry(self, rng):
        for _ in range(10):
            alpha = -float(rng.uniform(0.1, 5.0))
            a = float(rng.uniform(0.1, 2.0))
            d_plus = delta_transplant(alpha, TriangleParams(a, 0.8, 1.0))
            d_minus = delta_transplant(alpha, TriangleParams(-a, 0.8, 1.0))
            assert abs(d_plus - d_minus) < 1e-12 * max(1.0, abs(d_plus))

    def test_small_coupling_split_consistent(self, rng):
        """g1 <= z exactly when delta <= 0 (away from the boundary case)."""
        for _ in range(25):
            alpha = -float(rng.uniform(0.05, 3.0))
            a = float(rng.uniform(-2, 2))
            c = float(rng.uniform(0.4, 1.8)) * c0(1.0)
            params = TriangleParams(a, c, 1.0)
            if shape_coefficient(params) < 1e-10:
                continue
            z, f1, g1 = small_coupling_functions(alpha, params)
            delta = delta_transplant(alpha, params)
            if abs(delta) < 1e-10:
                continue
            assert (g1 <= z) == (delta <= 0.0)
            assert f1 >= 3.0  # perimeter is smallest at the equilateral shape


class TestConstantBound:
    def test_certifies_weak_coupling_far_shapes(self):
        bound, ok = constant_bound(-0.05, TriangleParams(2.0, S_THIRD, S_THIRD))
        assert ok and bound < lambda0(-0.05, S_THIRD)

    def test_never_certifies_equilateral(self):
        bound, ok = constant_bound(-1.0, equilateral_params(1.0))
        assert not ok
        assert bound > lambda0(-1.0, 1.0)


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

    @pytest.mark.parametrize("alpha,a", [(-10.0, 20.0), (-1.0, 50.0)])
    def test_underflowing_field_is_a_numeric_error(self, alpha, a):
        """On a flat triangle at strong coupling no side quadrature node lands
        in the boundary layer, 1/|2 rate| wide, so the boundary norm reads 0
        while the exact volume norm is positive: a typed NumericError, not a
        quotient built from a norm the quadrature missed."""
        with pytest.raises(NumericError, match="volume norm"):
            sector_bound(alpha, make_triangle(a, 0.5, 1.0))

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

    def test_stays_off_triangle_quadrature(self, monkeypatch):
        """The sector certificate and its region scan integrate exp(k.(x - apex))
        themselves: with 2-D quadrature disabled and SectorExponential refusing
        to build or evaluate, they give the same values and rows."""
        tri = make_triangle(1.2, 0.5, S_THIRD)
        cfg = ScanConfig(mode="sector-region", alpha_range=(-6.0, -0.5, 3), a_range=(-1.0, 3.0, 3))
        expected = [sector_bound(-2.0, tri, anchor_vertex=v) for v in (None, 0, 1, 2)]
        rows = run_scan(cfg).rows

        def refuse(*args, **kwargs):
            raise AssertionError("triangle quadrature or SectorExponential on the sector path")

        monkeypatch.setattr(_quad, "triangle_integrate", refuse)
        monkeypatch.setattr(SectorExponential, "from_triangle", refuse)
        monkeypatch.setattr(SectorExponential, "values_and_grads", refuse)
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
        """Anchoring explicitly at the apex reads the same corner data, bitwise."""
        for k in range(200):
            tri = make_triangle(rng.uniform(-3.0, 3.0), rng.uniform(0.2, 2.0), rng.uniform(0.3, 2.0))
            anchored = SectorExponential.from_triangle(tri, -2.0, vertex=tri.apex_index)
            assert anchored == SectorExponential.from_triangle(tri, -2.0)
            if k < 4:
                assert sector_bound(-2.0, tri, anchor_vertex=tri.apex_index) == sector_bound(-2.0, tri)

    def test_gradient_identity(self, rng):
        """|grad u|^2 integrates to (alpha/sin(theta/2))^2 times the L2 norm."""
        for _ in range(10):
            alpha = -float(rng.uniform(0.3, 6.0))
            tri = make_triangle(rng.uniform(-2, 2), rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.5))
            field = SectorExponential.from_triangle(tri, alpha)
            verts = tri.vertex_array()

            def moments(pts):
                vals, grads = field.values_and_grads(pts)
                return np.column_stack(
                    [vals**2, grads[:, 0] ** 2 + grads[:, 1] ** 2]
                )

            l2, grad = _quad.triangle_integrate(moments, verts, n=10, tol=1e-13)
            rate = alpha / math.sin(0.5 * field.theta_star)
            assert abs(float(grad) - rate * rate * float(l2)) < 1e-10 * abs(
                rate * rate * float(l2)
            )

    @pytest.mark.parametrize("vertex", [0, 1, 2])
    def test_equals_two_column_quotient(self, rng, vertex):
        """The quotient rate^2 + alpha*bdry/l2 equals (grad + alpha*bdry)/l2
        with |grad u|^2 integrated as its own column."""
        for alpha in (-0.2, -0.7, -2.0, -5.0, -12.0):
            tri = make_triangle(rng.uniform(-2, 2), rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.5))
            field = SectorExponential.from_triangle(tri, alpha, vertex=vertex)
            verts = tri.vertex_array()

            def moments(pts):
                vals, grads = field.values_and_grads(pts)
                return np.column_stack([vals**2, grads[:, 0] ** 2 + grads[:, 1] ** 2])

            l2, grad = _quad.triangle_integrate(moments, verts, n=8, tol=1e-12)
            bdry = sum(
                float(_quad.segment_integrate(lambda p: field.values_and_grads(p)[0] ** 2,
                                              verts[i], verts[j], n=10, tol=1e-12))
                for i, j in ((0, 1), (0, 2), (1, 2))
            )
            expected = (float(grad) + alpha * bdry) / float(l2)
            ray, _ = sector_bound(alpha, tri, anchor_vertex=vertex)
            assert abs(ray - expected) <= 1e-13 * abs(expected)

    def test_closed_form_monotone_in_l_prime(self):
        """Extending the truncated sides can only improve the closed bound."""
        vals = [sector_closed_upper(-2.0, 0.5, lp) for lp in (0.3, 0.6, 1.2, 2.4)]
        assert all(vals[i + 1] <= vals[i] + 1e-14 for i in range(3))

    def test_condition_rejects_equilateral(self):
        with pytest.raises(DomainError):
            sector_condition(-2.0, make_triangle(0.0, c0(1.0), 1.0))

    def test_condition_fires_only_at_strong_coupling(self):
        tri = make_triangle(3.0, S_THIRD, S_THIRD)
        assert sector_condition(-8.0, tri)
        assert not sector_condition(-0.1, tri)

    def test_sector_certificates_accept_params(self):
        """Like every other certificate, both take TriangleParams or TriangleGeometry."""
        params = TriangleParams(0.5, 0.6, S_THIRD)
        tri = make_triangle(0.5, 0.6, S_THIRD)
        for alpha in (-1.0, -8.0):
            assert sector_bound(alpha, params) == sector_bound(alpha, tri)
            assert sector_bound(alpha, params, anchor_vertex=0) == sector_bound(
                alpha, tri, anchor_vertex=0)
            assert sector_condition(alpha, params) == sector_condition(alpha, tri)
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


_ALPHA_ENTRIES = {
    "form_hat": lambda al, tri: form_hat(al, tri, ConstantOne()),
    "constant_bound": constant_bound,
    "sector_bound": sector_bound,
    "sector_condition": sector_condition,
    "lambda0_lower_bound": lambda al, tri: lambda0_lower_bound(al, tri.params.S),
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
