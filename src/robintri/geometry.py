"""Triangle parameterisation, perimeter normalisation and angle data.

A triangle of area S is described by (a, c): vertices V0 = (-c, 0),
V1 = (c, 0), V2 = (a, b) with b = S/c.  The reference triangle of the same
area is the equilateral one, a = 0, c = c0(S) = sqrt(S/sqrt(3)), apex height
b0 = sqrt(sqrt(3)*S).  Boundary sides carry fixed labels:

    side 0: V0-V1 (the base, length 2c)
    side 1: V0-V2
    side 2: V1-V2

which is the labelling every boundary-weighted form in this package uses.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DomainError, NumericError, check_area, check_finite, check_length


def c0(S: float) -> float:
    """Half-base of the equilateral triangle of area S."""
    check_area(S)
    return math.sqrt(S / math.sqrt(3.0))


def b0(S: float) -> float:
    """Apex height of the equilateral triangle of area S."""
    check_area(S)
    return math.sqrt(math.sqrt(3.0) * S)


class TriangleGeometry(namedtuple("TriangleGeometry", (
        "a", "c", "S", "vertices", "side_lengths", "perimeter", "theta_star", "L_prime",
        "apex_index", "corners"))):
    """Omega_{a,c} of area S and the data derived from it, built by make_triangle.

    a, c, S, perimeter, theta_star and L_prime are floats and apex_index an
    int.  vertices holds the three (x, y) float pairs, side_lengths the three
    lengths in label order, and corners[i] is corner(vertices, side_lengths,
    i); theta_star is the smallest angle (at vertex apex_index, the first
    minimum) clamped to pi/3, and L_prime the shorter side there.
    """

    __slots__ = ()

    @property
    def b(self) -> float:
        """Apex height S/c."""
        return self.S / self.c

    def vertex_array(self):
        """The vertices as a 3 x 2 float array.  NumPy is imported here, on
        first use, so that make_triangle and the closed forms never load it."""
        import numpy as np

        return np.asarray(self.vertices, dtype=float)


def perimeter_min_over_a(c: float, S: float) -> float:
    """Minimum of the perimeter over a at fixed (c, S), attained at a = 0;
    NumericError when c^2 or S^2/c^2 leaves float64."""
    check_length("c", c)
    check_area(S)
    cc = c * c
    perimeter = 2.0 * c + 2.0 * math.sqrt(cc + S * S / cc) if cc > 0.0 else math.inf
    if not math.isfinite(perimeter):
        raise NumericError(f"the minimal perimeter overflows float64 at c = {c:g}, S = {S:g}")
    return perimeter


def corner(
    verts: tuple[tuple[float, float], ...], sides: tuple[float, float, float], i: int
) -> tuple[float, float, tuple[float, float], tuple[float, float]]:
    """(angle, shorter adjacent side, vertex, inward unit bisector) at vertex i.

    verts holds the three vertices as (x, y) float pairs and sides the side
    lengths in label order; the side joining vertices j and k carries label
    j + k - 1.  DomainError when the side vectors' products overflow, or when
    the triangle is so flat that the two unit sides at vertex i cancel.
    """
    j, k = (i + 1) % 3, (i + 2) % 3
    x, y = verts[i]
    x1, y1 = verts[j][0] - x, verts[j][1] - y
    x2, y2 = verts[k][0] - x, verts[k][1] - y
    cross, dot = abs(x1 * y2 - y1 * x2), x1 * x2 + y1 * y2
    if not (math.isfinite(cross) and math.isfinite(dot)):
        raise DomainError(f"the side vectors at vertex {i} are too long to multiply "
                          "without overflow")
    n1, n2 = sides[i + j - 1], sides[i + k - 1]
    bx, by = x1 / n1 + x2 / n2, y1 / n1 + y2 / n2
    nb = math.hypot(bx, by)
    if nb == 0.0:
        raise DomainError(f"the triangle is too flat for a bisector at vertex {i}")
    # atan2 form stays accurate for very thin triangles where arccos loses digits
    return math.atan2(cross, dot), min(n1, n2), (x, y), (bx / nb, by / nb)


def make_triangle(a: float, c: float, S: float) -> TriangleGeometry:
    """Build the geometry record for Omega_{a,c} with area S.

    DomainError unless c and S are positive and finite, a is finite and the
    apex height S/c does not underflow to 0.
    """
    check_length("c", c)
    check_area(S)
    check_finite("a", a)
    a, c, S = float(a), float(c), float(S)
    b = S / c
    if not b > 0.0:
        raise DomainError(f"the apex height S/c underflows to 0 at c = {c:g}, S = {S:g}")
    verts = ((-c, 0.0), (c, 0.0), (a, b))
    sides = (2.0 * c, math.hypot(a + c, b), math.hypot(a - c, b))
    corners = tuple(corner(verts, sides, i) for i in range(3))
    apex = min(range(3), key=lambda i: corners[i][0])
    return TriangleGeometry(
        a=a,
        c=c,
        S=S,
        vertices=verts,
        side_lengths=sides,
        perimeter=sum(sides),
        theta_star=min(corners[apex][0], math.pi / 3.0),
        L_prime=corners[apex][1],
        apex_index=apex,
        corners=corners,
    )


def as_geometry(tri) -> TriangleGeometry:
    """tri itself when it is a TriangleGeometry; DomainError for anything else."""
    if not isinstance(tri, TriangleGeometry):
        raise DomainError(f"expected a TriangleGeometry from make_triangle, got {type(tri)!r}")
    return tri


def perimeter_normalizer(tri) -> float:
    """Scale factor gamma in (0, 1] making gamma*Omega match the equilateral perimeter."""
    tri = as_geometry(tri)
    gamma = 6.0 * c0(tri.S) / tri.perimeter
    return min(gamma, 1.0)

