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
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, check_area, check_finite, check_length


def c0(S: float) -> float:
    """Half-base of the equilateral triangle of area S."""
    check_area(S)
    return math.sqrt(S / math.sqrt(3.0))


def b0(S: float) -> float:
    """Apex height of the equilateral triangle of area S."""
    check_area(S)
    return math.sqrt(math.sqrt(3.0) * S)


@dataclass(frozen=True)
class TriangleGeometry:
    """Omega_{a,c} of area S and the data derived from it, built by make_triangle.

    side_lengths are in label order; theta_star is the smallest angle (at
    vertex apex_index) clamped to pi/3, and L_prime the shorter side there.
    """

    a: float
    c: float
    S: float
    vertices: tuple[tuple[float, float], ...]
    side_lengths: tuple[float, float, float]
    perimeter: float
    theta_star: float
    L_prime: float
    apex_index: int

    @property
    def b(self) -> float:
        """Apex height S/c."""
        return self.S / self.c

    def vertex_array(self) -> np.ndarray:
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
    verts: np.ndarray, sides: tuple[float, float, float], i: int
) -> tuple[float, float, tuple[float, float], tuple[float, float]]:
    """(angle, shorter adjacent side, vertex, inward unit bisector) at vertex i.

    verts is the (3, 2) vertex array and sides the side lengths in label
    order; the side joining vertices j and k carries label j + k - 1.
    """
    at = verts[i]
    j, k = (i + 1) % 3, (i + 2) % 3
    d1 = verts[j] - at
    d2 = verts[k] - at
    (x1, y1), (x2, y2) = d1.tolist(), d2.tolist()
    cross = abs(x1 * y2 - y1 * x2)
    if not (math.isfinite(cross) and math.isfinite(x1 * x2 + y1 * y2)):
        raise DomainError(f"the side vectors at vertex {i} are too long to multiply "
                          "without overflow")
    # atan2 form stays accurate for very thin triangles where arccos loses digits
    angle = math.atan2(cross, float(d1 @ d2))
    n1, n2 = sides[i + j - 1], sides[i + k - 1]
    bx = d1[0] / n1 + d2[0] / n2
    by = d1[1] / n1 + d2[1] / n2
    nb = math.hypot(bx, by)
    return angle, min(n1, n2), (float(at[0]), float(at[1])), (float(bx / nb), float(by / nb))


def make_triangle(a: float, c: float, S: float) -> TriangleGeometry:
    """Build the geometry record for Omega_{a,c} with area S.

    DomainError unless c and S are positive and finite and a is finite.
    """
    check_length("c", c)
    check_area(S)
    check_finite("a", a)
    a, c, S = float(a), float(c), float(S)
    b = S / c
    verts = np.array([[-c, 0.0], [c, 0.0], [a, b]])
    sides = (2.0 * c, math.hypot(a + c, b), math.hypot(a - c, b))
    corners = [corner(verts, sides, i) for i in range(3)]
    angles = [cn[0] for cn in corners]
    apex = int(np.argmin(angles))
    return TriangleGeometry(
        a=a,
        c=c,
        S=S,
        vertices=tuple((float(x), float(y)) for x, y in verts),
        side_lengths=sides,
        perimeter=sum(sides),
        theta_star=min(angles[apex], math.pi / 3.0),
        L_prime=corners[apex][1],
        apex_index=apex,
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

