"""Tests for the trial-function upper bounds and their certificates."""

import math

import numpy as np
import pytest

from robintri import _quad
from robintri.equilateral import ground_state, lambda0, solve_equilateral
from robintri.errors import DomainError
from robintri.geometry import TriangleParams, c0, equilateral_params, make_triangle
from robintri.trial import (
    ConstantOne,
    SectorExponential,
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
