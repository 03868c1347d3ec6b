"""Trial-function upper bounds for the lowest Robin eigenvalue.

All bounds evaluate the Rayleigh quotient of an explicit field.  Two of them
live on the equilateral reference triangle and are transported through the
area-preserving affine map (so only the quadratic-form coefficients change):

  * the equilateral ground state u0 (equilateral.ground_state);
  * ConstantOne -- the constant field.

The third, SectorExponential, lives on the physical triangle: u(x) =
exp(rate * x') with rate = alpha / sin(theta*/2) and x' the coordinate along
the bisector of the smallest angle.  Its gradient has |grad u| = |rate| u
pointwise, so its Rayleigh quotient is rate^2 + alpha * ||u||^2_bdry / ||u||^2
and only u^2 = exp(k.(x - apex)), k = 2 rate bisector, is integrated: exactly
over the triangle (Hermite-Genocchi), by quadrature on the sides.  Replacing
the triangle by the infinite sector gives a closed upper bound.

Verdicts certify strict inequalities and therefore include a small safety
margin: a bound counts only when it clears its target by 1e-10 relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _quad
from .equilateral import closed_form_norms, solve_equilateral
from .errors import DomainError, NumericError
from .geometry import (
    TriangleGeometry,
    TriangleParams,
    as_geometry,
    b0,
    c0,
    corner,
    edge_stretch_weights,
    inverse_metric,
    perimeter,
)

_SQRT3 = math.sqrt(3.0)
_MARGIN = 1e-10
_EXP_FLOOR = -700.0
#: terms of the centred series in _exp_divided_difference
_SERIES_TERMS = 25


def _check_alpha(alpha: float) -> None:
    """The coupling check every certificate shares."""
    if not (math.isfinite(alpha) and alpha < 0.0):
        raise DomainError(f"alpha must be finite and strictly negative, got {alpha}")


def strictly_below(value: float, target: float) -> bool:
    """value < target with a 1e-10 relative safety margin."""
    return value < target - _MARGIN * max(1.0, abs(target))


@dataclass(frozen=True)
class FormValue:
    """Pieces of the Robin quadratic form evaluated on one trial field."""

    gradient_term: float
    boundary_term: float
    l2_norm_sq: float

    @property
    def raw(self) -> float:
        return self.gradient_term + self.boundary_term

    @property
    def rayleigh(self) -> float:
        return self.raw / self.l2_norm_sq


class ConstantOne:
    """The constant trial field."""

    def values_and_grads(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = np.asarray(pts).shape[0]
        return np.ones(n), np.zeros((n, 2))


@dataclass(frozen=True)
class SectorExponential:
    """exp(alpha x'/sin(theta/2)) anchored at `apex`, decaying along `bisector`."""

    theta_star: float
    L_prime: float
    apex: tuple[float, float]
    bisector: tuple[float, float]
    alpha: float

    @classmethod
    def from_triangle(cls, tri: TriangleGeometry, alpha: float, vertex: int | None = None) -> "SectorExponential":
        """Anchor at the smallest angle (tri.apex_index), or at an explicit vertex index."""
        index = tri.apex_index if vertex is None else vertex
        return cls(*corner(tri.vertex_array(), tri.side_lengths, index), alpha)

    def values_and_grads(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pts = np.asarray(pts, dtype=float)
        rel = pts - np.asarray(self.apex)
        proj = rel @ np.asarray(self.bisector)
        rate = self.alpha / math.sin(0.5 * self.theta_star)
        vals = np.exp(np.maximum(rate * proj, _EXP_FLOOR))
        grads = (rate * vals)[:, None] * np.asarray(self.bisector)[None, :]
        return vals, grads


def form_hat(alpha: float, tri, psi) -> FormValue:
    """Transported Robin form of a reference-triangle field psi on Omega_{a,c}.

    gradient term:  integral of (inverse metric) grad psi . grad psi
    boundary term:  alpha * sum_k (side stretch factor_k) * ||psi||^2 on side k
    both over the equilateral reference of the same area.
    """
    if isinstance(psi, SectorExponential):
        raise DomainError("SectorExponential lives on the physical triangle; use sector_bound")
    _check_alpha(alpha)
    params = as_geometry(tri).params
    cc, bb = c0(params.S), b0(params.S)
    verts = np.array([[-cc, 0.0], [cc, 0.0], [0.0, bb]])

    def moments(pts: np.ndarray) -> np.ndarray:
        vals, grads = psi.values_and_grads(pts)
        return np.column_stack(
            [grads[:, 0] ** 2, grads[:, 1] ** 2, grads[:, 0] * grads[:, 1], vals**2]
        )

    A1, A2, A12, L2 = _quad.triangle_integrate(moments, verts, n=8, tol=1e-12)
    g11, g12, g22 = inverse_metric(params)
    gradient = g11 * A1 + 2.0 * g12 * A12 + g22 * A2

    w = edge_stretch_weights(params)
    edges = ((verts[0], verts[1]), (verts[0], verts[2]), (verts[1], verts[2]))
    boundary = 0.0
    for wk, (p0, p1) in zip(w, edges):
        ek = _quad.segment_integrate(lambda p: psi.values_and_grads(p)[0] ** 2, p0, p1, n=10, tol=1e-12)
        boundary += wk * float(ek)
    return FormValue(gradient_term=float(gradient), boundary_term=alpha * boundary, l2_norm_sq=float(L2))


def shape_coefficient(params: TriangleParams) -> float:
    """Trace of the inverse metric minus 2; zero exactly at the equilateral shape."""
    g11, _, g22 = inverse_metric(params)
    return g11 + g22 - 2.0


def delta_transplant(alpha: float, tri) -> float:
    """Closed-form excess of the transported form of u0 over its equilateral value.

    delta <= 0 certifies lambda(alpha, a, c) <= lambda0(alpha, S); built from
    the closed-form norms, so no quadrature is involved.
    """
    params = as_geometry(tri).params
    sol = solve_equilateral(alpha, params.S)
    d1, bdry, _ = closed_form_norms(sol)
    f1 = sum(edge_stretch_weights(params))
    return shape_coefficient(params) * d1 + alpha * (f1 - 3.0) * bdry / 3.0


def transplant_verdict(alpha: float, tri) -> tuple[float, bool]:
    """(delta, certified) with the strict safety margin on the delta scale."""
    geom = as_geometry(tri)
    sol = solve_equilateral(alpha, geom.params.S)
    _, bdry, _ = closed_form_norms(sol)
    delta = delta_transplant(alpha, geom)
    scale = abs(alpha) * bdry
    return delta, delta < -_MARGIN * scale


def constant_bound(alpha: float, tri) -> tuple[float, bool]:
    """Rayleigh quotient of the constant field, alpha * perimeter / area.

    The verdict is True when this upper bound lies strictly below lambda0,
    i.e. when perimeter/area alone already certifies the inequality.
    """
    _check_alpha(alpha)
    params = as_geometry(tri).params
    bound = alpha * perimeter(params) / params.S
    lam0 = solve_equilateral(alpha, params.S).lambda0
    return bound, strictly_below(bound, lam0)


def lambda0_lower_bound(alpha: float, S: float) -> float:
    """-4 alpha^2 + 24 alpha / sqrt(sqrt(3) S) - 36/(sqrt(3) S), a bound below lambda0."""
    _check_alpha(alpha)
    if not (S > 0.0):
        raise DomainError(f"lambda0_lower_bound needs S > 0, got {S}")
    root = math.sqrt(_SQRT3 * S)
    return -4.0 * alpha * alpha + 24.0 * alpha / root - 36.0 / (root * root)


def sector_closed_upper(alpha: float, theta: float, l_prime: float) -> float:
    """-(alpha/sin(theta/2))^2 (1 - 2 exp(2 alpha L' cot(theta/2)))."""
    half = 0.5 * theta
    expo = 2.0 * alpha * l_prime / math.tan(half)
    tail = 2.0 * math.exp(max(expo, _EXP_FLOOR))
    return -(alpha / math.sin(half)) ** 2 * (1.0 - tail)


def _exp_divided_difference(z0: float, z1: float, z2: float) -> float:
    """Second divided difference exp[z0, z1, z2] of the exponential.

    By Hermite-Genocchi, 2|T| exp[k.v0, k.v1, k.v2] is the integral of
    exp(k.x) over the triangle T with vertices v0, v1, v2 (C. de Boor,
    "Divided differences", Surveys in Approximation Theory 1, 2005).  The
    points are shifted by the largest, so every exponential is at most 1.
    Past a spread of 1 the three-point difference is the recursion on two-point
    ones, each formed as e^b (-expm1(a - b)) / (b - a) with a <= b <= 0 so
    that nothing overflows, and the recursion's subtraction loses at most a
    bit or two.  Below a spread of 1 it would cancel, and the centred series
    e^zbar sum_k h_k(z - zbar) / (k + 2)! takes over.
    """
    a, b, top = sorted((z0, z1, z2))
    a -= top
    b -= top
    if -a > 1.0:
        def two(lo: float, hi: float) -> float:
            gap = hi - lo
            return math.exp(hi) * (-math.expm1(-gap) / gap if gap > 0.0 else 1.0)
        return math.exp(top) * ((two(b, 0.0) - two(a, b)) / -a)
    mean = (a + b) / 3.0
    x, y, z = a - mean, b - mean, -mean
    # h_k(x, y, z), the complete homogeneous symmetric polynomials, one
    # variable at a time; h_1 is 0 after centring, so no term ends the sum
    h = [x**k for k in range(_SERIES_TERMS)]
    for w in (y, z):
        for k in range(1, _SERIES_TERMS):
            h[k] += w * h[k - 1]
    total, fact = 0.0, 2.0
    for k in range(_SERIES_TERMS):
        total += h[k] / fact
        fact *= k + 3
    return math.exp(top) * math.exp(mean) * total


def sector_bound(alpha: float, tri, anchor_vertex: int | None = None) -> tuple[float, float]:
    """(rayleigh_upper, closed_upper) for the sector exponential.

    rayleigh_upper is the exact Rayleigh quotient on the triangle, the quotient
    rate^2 + alpha * ||u||^2_bdry / ||u||^2 that |grad u|^2 = rate^2 u^2 gives.
    One exponent k = 2 rate bisector gives u^2 = exp(k.(x - apex)) for both
    norms: the volume norm is 2|T| exp[z0, z1, z2] with z_i = k.(v_i - apex),
    and the side norms integrate the same exponential by adaptive quadrature
    (the benchmark contract still counts its cells on the region scans).
    closed_upper replaces the volume norm by the infinite-sector integral and
    the boundary norm by the two adjacent sides truncated at L', so
    rayleigh_upper <= closed_upper always.  The field anchors at the smallest
    angle, or at anchor_vertex 0, 1 or 2 with that vertex's angle data.  A
    norm that is not positive and finite raises NumericError: on flat
    triangles at strong coupling no side quadrature node lands in the
    boundary layer, 1/|2 rate| wide, and the side norms read 0.
    """
    _check_alpha(alpha)
    if anchor_vertex not in (None, 0, 1, 2):
        raise DomainError(f"anchor_vertex must be None, 0, 1 or 2, got {anchor_vertex!r}")
    tri = as_geometry(tri)
    verts = tri.vertex_array()
    index = tri.apex_index if anchor_vertex is None else int(anchor_vertex)
    theta, l_prime, apex, bisector = corner(verts, tri.side_lengths, index)
    rate = alpha / math.sin(0.5 * theta)
    apex, k = np.asarray(apex), 2.0 * rate * np.asarray(bisector)
    l2 = 2.0 * tri.params.S * _exp_divided_difference(*((verts - apex) @ k).tolist())

    def square(pts: np.ndarray) -> np.ndarray:
        return np.exp((pts - apex) @ k)

    bdry = sum(float(_quad.segment_integrate(square, verts[i], verts[j], n=10, tol=1e-12))
               for i, j in ((0, 1), (0, 2), (1, 2)))
    if not (math.isfinite(l2) and l2 > 0.0 and math.isfinite(bdry) and bdry > 0.0):
        raise NumericError(f"sector field at alpha = {alpha:g}: volume norm {l2:g}, "
                           f"boundary norm {bdry:g}; the side quadrature found no mass "
                           f"in the boundary layer of width {1.0 / abs(2.0 * rate):g}")
    rayleigh = rate * rate + alpha * bdry / l2
    closed = sector_closed_upper(alpha, theta, l_prime)
    return rayleigh, closed


def sector_condition(alpha: float, tri) -> bool:
    """True when the closed sector bound drops below the closed lower bound for lambda0.

    This is the fully closed-form certificate chain; it is vacuous for the
    equilateral triangle, which is rejected as a domain error.
    """
    tri = as_geometry(tri)
    if tri.theta_star >= math.pi / 3.0 - 1e-12:
        raise DomainError("sector condition is undefined for the equilateral triangle")
    closed = sector_closed_upper(alpha, tri.theta_star, tri.L_prime)
    lower = lambda0_lower_bound(alpha, tri.params.S)
    return strictly_below(closed, lower)


def small_coupling_functions(alpha: float, tri) -> tuple[float, float, float]:
    """(z, f1, g1) controlling the transplant certificate at weak coupling.

    f1 is the stretch-weight sum (half the scaled perimeter), z divides the
    boundary excess by the gradient excess, and g1 is the coupling-dependent
    threshold 3||grad psi0||^2 / (-2 alpha ||psi0||^2_bdry); g1 <= z is
    equivalent to delta_transplant <= 0.  z is NaN at the equilateral shape
    where both excesses vanish.
    """
    params = as_geometry(tri).params
    f1 = sum(edge_stretch_weights(params))
    coef = shape_coefficient(params)
    z = (f1 - 3.0) / coef if coef > 1e-14 else float("nan")
    sol = solve_equilateral(alpha, params.S)
    _, bdry, l2 = closed_form_norms(sol)
    b = bdry / l2
    grad_sq = sol.lambda0 - alpha * b
    g1 = 3.0 * grad_sq / (-2.0 * alpha * b)
    return z, f1, g1
