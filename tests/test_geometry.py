"""Tests for the triangle parameterisation and perimeter normalisation."""

import math
import re

import numpy as np
import pytest
from oracles import numpy_corner

from robintri.errors import DomainError, NumericError
from robintri.geometry import (
    b0,
    c0,
    corner,
    make_triangle,
    perimeter_min_over_a,
    perimeter_normalizer,
)

SQRT3 = math.sqrt(3.0)


def shoelace(verts):
    x, y = np.asarray(verts).T
    return 0.5 * abs(
        x[0] * (y[1] - y[2]) + x[1] * (y[2] - y[0]) + x[2] * (y[0] - y[1])
    )


class TestParams:
    def test_equilateral_closure(self):
        """c0 and b0 satisfy the defining identities of the equilateral triangle."""
        for S in (0.25, 1.0 / SQRT3, 1.0, 7.3):
            assert abs(SQRT3 * c0(S) ** 2 - S) < 1e-14 * S
            assert abs(b0(S) * c0(S) - S) < 1e-14 * S
            eq = make_triangle(0.0, c0(S), S)
            assert eq.a == 0.0
            assert abs(eq.b - b0(S)) < 1e-14 * b0(S)

    def test_apex_height(self):
        p = make_triangle(0.4, 2.0, 3.0)
        assert abs(p.b - 1.5) < 1e-15

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            make_triangle(0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            make_triangle(0.0, -1.0, 1.0)
        with pytest.raises(DomainError):
            make_triangle(0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            make_triangle(math.inf, 1.0, 1.0)
        with pytest.raises(DomainError):
            make_triangle(math.nan, 1.0, 1.0)


class TestMakeTriangle:
    def test_vertices_and_area(self, rng):
        """Vertices sit at (-c,0), (c,0), (a, S/c) and enclose area S."""
        for _ in range(50):
            a = rng.uniform(-4.0, 4.0)
            c = rng.uniform(0.1, 4.0)
            S = rng.uniform(0.2, 5.0)
            tri = make_triangle(a, c, S)
            v = tri.vertex_array()
            assert np.allclose(v[0], [-c, 0.0])
            assert np.allclose(v[1], [c, 0.0])
            assert np.allclose(v[2], [a, S / c])
            assert abs(shoelace(v) - S) < 1e-12 * S

    def test_angles_sum_to_pi(self, rng):
        for _ in range(50):
            tri = make_triangle(rng.uniform(-4, 4), rng.uniform(0.1, 4), rng.uniform(0.2, 5))
            angles = [cn[0] for cn in tri.corners]
            assert abs(sum(angles) - math.pi) < 1e-12

    def test_perimeter_matches_sides(self, rng):
        for _ in range(30):
            tri = make_triangle(rng.uniform(-3, 3), rng.uniform(0.2, 3), rng.uniform(0.3, 3))
            assert abs(tri.perimeter - sum(tri.side_lengths)) < 1e-12 * tri.perimeter
            assert tri.perimeter == sum(tri.side_lengths)

    def test_theta_star_is_clamped_smallest_angle(self):
        tri = make_triangle(2.5, 0.7, 0.9)
        angles = [cn[0] for cn in tri.corners]
        assert abs(tri.theta_star - min(angles)) < 1e-15
        eq = make_triangle(0.0, c0(1.0), 1.0)
        assert eq.theta_star <= math.pi / 3.0 + 1e-15

    def test_l_prime_is_shorter_adjacent_side(self):
        """L' equals the shorter of the two sides meeting the smallest angle."""
        tri = make_triangle(1.8, 0.6, 0.8)
        i = tri.apex_index
        v = tri.vertex_array()
        d1 = np.linalg.norm(v[(i + 1) % 3] - v[i])
        d2 = np.linalg.norm(v[(i + 2) % 3] - v[i])
        assert abs(tri.L_prime - min(d1, d2)) < 1e-12

    def test_bisector_is_unit_and_inward(self):
        tri = make_triangle(1.3, 0.8, 1.1)
        _, _, apex, bis = tri.corners[tri.apex_index]
        bis = np.asarray(bis)
        assert abs(np.linalg.norm(bis) - 1.0) < 1e-12
        # a short step along the bisector stays inside the triangle
        inside = np.asarray(apex) + 1e-3 * bis
        assert shoelace([tri.vertices[0], tri.vertices[1], inside]) < tri.S

    def test_overflowing_side_products_are_a_domain_error(self):
        """At a = 1e200 the side vectors' dot product overflows: a typed error,
        not a warning and an angle read off inf.  At a = 1e150 the products
        are finite; the smallest angle rounds to 0, which the sector
        certificates refuse in turn."""
        with pytest.raises(DomainError, match="overflow"):
            make_triangle(1e200, 0.5, 1.0)
        assert make_triangle(1e150, 0.5, 1.0).theta_star == 0.0

    def test_reflection_swaps_slanted_sides(self, rng):
        """a -> -a mirrors the triangle: same perimeter/angles, sides 1 and 2 swap."""
        for _ in range(20):
            a = rng.uniform(0.1, 3.0)
            c = rng.uniform(0.2, 2.0)
            S = rng.uniform(0.3, 2.0)
            t1 = make_triangle(a, c, S)
            t2 = make_triangle(-a, c, S)
            assert abs(t1.perimeter - t2.perimeter) < 1e-12 * t1.perimeter
            assert abs(t1.side_lengths[1] - t2.side_lengths[2]) < 1e-12
            assert abs(t1.side_lengths[2] - t2.side_lengths[1]) < 1e-12
            assert abs(t1.theta_star - t2.theta_star) < 1e-12

    def test_apex_data_is_the_corner_at_the_apex(self, rng):
        """The stored corners are corner() at each vertex, bitwise; the apex
        index is the first smallest angle and theta*, L' and the apex come from
        its corner; the bisector sector_bound reads there is a unit vector."""
        for _ in range(200):
            tri = make_triangle(rng.uniform(-3.0, 3.0), rng.uniform(0.2, 2.0), rng.uniform(0.3, 2.0))
            assert tri.corners == tuple(corner(tri.vertices, tri.side_lengths, i)
                                        for i in range(3))
            angles = [cn[0] for cn in tri.corners]
            assert tri.apex_index == int(np.argmin(angles))
            assert tri.theta_star == min(angles[tri.apex_index], math.pi / 3.0)
            _, l_prime, vertex, bis = tri.corners[tri.apex_index]
            assert (l_prime, vertex) == (tri.L_prime, tri.vertices[tri.apex_index])
            assert abs(math.hypot(*bis) - 1.0) < 1e-14

    def test_corners_match_the_numpy_reference(self):
        """10,000 seeded triangles, a in [-4, 4], c and S log-uniform over
        e^-3..e^3, one in ten exactly equilateral: each stored corner's angle,
        L', vertex and bisector match the numpy form to 1e-15 relative, and the
        apex index matches off the equilateral triangles, whose three angles
        tie up to rounding."""
        rng = np.random.default_rng(20261019)
        for n in range(10_000):
            S = math.exp(rng.uniform(-3.0, 3.0))
            equilateral = n % 10 == 0
            a, c = (0.0, c0(S)) if equilateral else (rng.uniform(-4.0, 4.0),
                                                     math.exp(rng.uniform(-3.0, 3.0)))
            tri = make_triangle(a, c, S)
            ref = [numpy_corner(tri.vertex_array(), tri.side_lengths, i) for i in range(3)]
            for got, want in zip(tri.corners, ref):
                values = [got[0], got[1], *got[2], *got[3]]
                wanted = [want[0], want[1], *want[2], *want[3]]
                assert np.allclose(values, wanted, rtol=1e-15, atol=0.0), (a, c, S)
            if not equilateral:
                assert tri.apex_index == int(np.argmin([cn[0] for cn in ref])), (a, c, S)

    @pytest.mark.parametrize("a,c,S", [(0.0, 1e100, 1e-300), (0.5, 1e10, 1e-320)])
    def test_apex_height_that_underflows_is_a_domain_error(self, a, c, S):
        """S/c rounds to 0: the vertices are collinear, and the corner at the
        apex has no bisector (0/0).  Refused, never a record with theta* = 0."""
        with pytest.raises(DomainError, match="apex height S/c underflows"):
            make_triangle(a, c, S)

    def test_unit_sides_that_cancel_are_a_domain_error(self):
        """At (0, 1e30, 1e-270) the apex height 1e-300 is positive, but its
        ratio to the slanted sides underflows: the two unit sides at the apex
        cancel exactly, so there is no bisector to divide by its norm."""
        with pytest.raises(DomainError, match="too flat for a bisector at vertex 2"):
            make_triangle(0.0, 1e30, 1e-270)


class TestPerimeter:
    def test_minimum_over_a_at_zero(self, rng):
        """For fixed (c, S) the perimeter is smallest at a = 0."""
        for _ in range(20):
            c = rng.uniform(0.2, 3.0)
            S = rng.uniform(0.3, 3.0)
            base = perimeter_min_over_a(c, S)
            assert abs(make_triangle(0.0, c, S).perimeter - base) < 1e-12 * base
            for a in rng.uniform(-3.0, 3.0, size=8):
                assert make_triangle(a, c, S).perimeter >= base - 1e-12 * base

    def test_rejects_nonpositive_arguments(self):
        with pytest.raises(DomainError):
            perimeter_min_over_a(0.0, 1.0)
        with pytest.raises(DomainError):
            perimeter_min_over_a(1.0, -2.0)

    @pytest.mark.parametrize("c,S", [(1e-200, 1e200), (1e-200, 1e-200), (1.0, 1e200),
                                     (1e200, 1.0)])
    def test_perimeter_past_float64_is_a_numeric_error(self, c, S):
        """c^2 or S^2/c^2 leaves float64: a NumericError naming c and S, never
        an untyped ZeroDivisionError (c^2 rounds to 0) or an infinite perimeter."""
        with pytest.raises(NumericError, match=re.escape(f"float64 at c = {c:g}, S = {S:g}")):
            perimeter_min_over_a(c, S)

    def test_normalizer_is_one_only_at_equilateral(self, rng):
        S = 0.8
        eq = make_triangle(0.0, c0(S), S)
        assert abs(perimeter_normalizer(eq) - 1.0) < 1e-12
        for _ in range(25):
            a = rng.uniform(-2.0, 2.0)
            c = rng.uniform(0.2, 2.0)
            tri = make_triangle(a, c, S)
            gamma = perimeter_normalizer(tri)
            assert 0.0 < gamma <= 1.0
            if abs(a) > 0.05 or abs(c - c0(S)) > 0.05:
                assert gamma < 1.0
            # the rescaled triangle really has the equilateral perimeter
            scaled = make_triangle(gamma * a, gamma * c, gamma * gamma * S)
            if gamma < 1.0:
                assert abs(scaled.perimeter - 6.0 * c0(S)) < 1e-10
