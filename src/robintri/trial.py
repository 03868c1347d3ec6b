"""Trial-function upper bounds for the lowest Robin eigenvalue.

Each certificate is the Rayleigh quotient of one explicit field, in closed
form or exactly:

  * the transplanted equilateral ground state u0: carried onto Omega_{a,c} by
    the area-preserving affine map, only the form's coefficients change (the
    inverse metric on the gradient term, one stretch weight per side on the
    boundary term), so delta_transplant and transplant_verdict need only the
    closed-form norms of u0;
  * the constant field: constant_bound, alpha * perimeter / area;
  * the corner exponential u(x) = exp(rate * x') with rate =
    alpha / sin(theta*/2) and x' the coordinate along the bisector of the
    smallest angle.  Its gradient has |grad u| = |rate| u pointwise, so its
    Rayleigh quotient is rate^2 + alpha * ||u||^2_bdry / ||u||^2 and only
    u^2 = exp(k.(x - apex)), k = 2 rate bisector, is integrated: exactly over
    the triangle (Hermite-Genocchi), by quadrature on the sides (sector_bound).
    Replacing the triangle by the infinite sector gives a closed upper bound
    (sector_closed_upper, sector_condition).

closed_lower_bound is the one bound from below for any triangle, which every
FEM level value must clear (fem.walk_levels).

Verdicts certify strict inequalities and therefore include a small safety
margin: a bound counts only when it clears its target by 1e-10 of |target|,
with no absolute floor, so a dilated problem gets the same verdicts.
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache

from .equilateral import _normalised_ground_state, closed_form_norms, solve_equilateral
from .errors import DomainError, NumericError, check_area, check_coupling, check_length
from .geometry import TriangleGeometry, as_geometry, c0

_SQRT3 = math.sqrt(3.0)
_MARGIN = 1e-10
_EXP_FLOOR = -700.0
#: terms of the centred series in _exp_divided_difference
_SERIES_TERMS = 25
#: Gauss points per cell of sector_bound's side quadrature.  Rule calls per
#: side norm on the benchmark's 7x7 sector grid: 6.71, 4.88, 3.47, 2.86 and
#: 2.31 at n = 10, 20, 40, 60 and 100, and the 49 cells took about 12, 8.3,
#: 5.9, 5.0 and 4.2 ms on one core of a 2-core machine.  40 is the knee, and
#: the largest of these orders whose weights (_quad._gauss01) hold 5e-14
#: relative: 6e-14 at 60, 1.4e-13 at 100.
_SIDE_RULE = 40


def _check_angle(theta: float) -> None:
    """The sector field's rate alpha/sin(theta/2) needs a corner angle in
    (0, pi); on a triangle so flat that its smallest angle rounds to 0 it has
    none, and an angle of pi or more, or one that is not finite, is no corner."""
    if not 0.0 < theta < math.pi:
        raise DomainError(f"the sector field needs a positive corner angle below pi, "
                          f"got {theta:g}")


def strictly_below(value: float, target: float) -> bool:
    """value < target - 1e-10 |target|; a target of 0, which has no scale, is a DomainError."""
    if target == 0.0:
        raise DomainError("strictly_below needs a nonzero target to scale its margin")
    return value < target - _MARGIN * abs(target)


def shape_coefficient(tri: TriangleGeometry) -> float:
    """tr (M^T M)^-1 - 2 for the area-preserving map M = [[c/c0, a/b0], [0, b/b0]] from
    the equilateral reference onto Omega_{a,c}; zero exactly at the equilateral shape."""
    a, c, S = tri.a, tri.c, tri.S
    return a * a / (_SQRT3 * S) + S / (_SQRT3 * c * c) + _SQRT3 * c * c / S - 2.0


def _stretch_sum(tri: TriangleGeometry) -> float:  # sum |side_k| / (2 c0(S)), 3 if equilateral
    return sum(s / (2.0 * c0(tri.S)) for s in tri.side_lengths)


def delta_transplant(alpha: float, tri) -> float:
    """Closed-form excess of the transported form of u0 over its equilateral value.

    delta <= 0 certifies lambda(alpha, a, c) <= lambda0(alpha, S); built from
    the closed-form norms, so no quadrature is involved.  NumericError when
    delta leaves float64.
    """
    tri = as_geometry(tri)
    sol = solve_equilateral(alpha, tri.S)
    d1, bdry, _ = closed_form_norms(sol)
    f1 = _stretch_sum(tri)
    delta = shape_coefficient(tri) * d1 + alpha * (f1 - 3.0) * bdry / 3.0
    if not math.isfinite(delta):
        raise NumericError(f"the transplant excess leaves float64 at alpha = {alpha:g}: {delta:g}")
    return delta


def transplant_verdict(alpha: float, tri) -> tuple[float, bool]:
    """(delta, certified) with the strict safety margin on the delta scale."""
    tri = as_geometry(tri)
    sol = solve_equilateral(alpha, tri.S)
    _, bdry, _ = closed_form_norms(sol)
    delta = delta_transplant(alpha, tri)
    scale = abs(alpha) * bdry
    return delta, delta < -_MARGIN * scale


def constant_bound(alpha: float, tri) -> tuple[float, bool]:
    """Rayleigh quotient of the constant field, alpha * perimeter / area.

    The verdict is True when this upper bound lies strictly below lambda0,
    i.e. when perimeter/area alone already certifies the inequality.
    NumericError when the bound leaves float64.
    """
    check_coupling("alpha", alpha)
    tri = as_geometry(tri)
    bound = alpha * tri.perimeter / tri.S
    if not math.isfinite(bound):
        raise NumericError(f"the constant-field bound leaves float64 at alpha = {alpha:g}: "
                           f"{bound:g}")
    lam0 = solve_equilateral(alpha, tri.S).lambda0
    return bound, strictly_below(bound, lam0)


def lambda0_lower_bound(alpha: float, S: float) -> float:
    """-4 alpha^2 + 24 alpha / sqrt(sqrt(3) S) - 36/(sqrt(3) S), a bound below lambda0;
    NumericError when it leaves float64 (an area near 1e-320 or |alpha| near 1e154)."""
    check_coupling("alpha", alpha)
    check_area(S)
    root = math.sqrt(_SQRT3 * S)
    bound = -4.0 * alpha * alpha + 24.0 * alpha / root - 36.0 / (root * root)
    if not math.isfinite(bound):
        raise NumericError(f"the lambda0 lower bound overflows float64 at alpha = {alpha:g}, "
                           f"S = {S:g}")
    return bound


def closed_lower_bound(alpha: float, tri) -> float:
    """alpha P/S - alpha^2 / sin^2(theta*/2), a lower bound for the lowest Robin
    eigenvalue of the triangle at every coupling alpha < 0.

    With I the incentre and r = 2S/P the inradius, F = (x - I)/r has F.n = 1
    on every side, div F = P/S and |F| <= 1/sin(theta*/2); the divergence
    theorem bounds the boundary term by the volume and gradient norms, and
    the bound is the least Rayleigh quotient that leaves.  It is -inf where
    its second term leaves float64: alpha^2 overflows, or the angle is so
    small that sin^2 underflows.
    """
    check_coupling("alpha", alpha)
    tri = as_geometry(tri)
    half = math.sin(0.5 * tri.theta_star)
    rate = alpha / half if half > 0.0 else -math.inf
    return alpha * tri.perimeter / tri.S - rate * rate


def sector_closed_upper(alpha: float, theta: float, l_prime: float) -> float:
    """-(alpha/sin(theta/2))^2 (1 - 2 exp(2 alpha L' cot(theta/2))).

    A DomainError refuses a bad coupling or L' (errors' rules), an angle outside
    (0, pi), or one so small that the rate's square overflows float64.
    """
    check_coupling("alpha", alpha)
    check_length("l_prime", l_prime)
    _check_angle(theta)
    half = 0.5 * theta
    expo = 2.0 * alpha * l_prime / math.tan(half)
    tail = 2.0 * math.exp(max(expo, _EXP_FLOOR))
    try:
        rate_sq = (alpha / math.sin(half)) ** 2
    except OverflowError:
        raise DomainError(f"the sector rate's square overflows float64 at corner angle "
                          f"{theta:g}") from None
    return -rate_sq * (1.0 - tail)


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


@lru_cache(maxsize=256)
def _sector_frame(tri: TriangleGeometry, index: int) -> tuple:
    """(rel, p0, p1, bisector) of the sector field anchored at vertex index:
    the vertices relative to that apex (3, 2), the three sides' endpoint
    stacks p0 -> p1 (3, 2) in label order, and the unit bisector (2,).
    Geometry only, so one frame serves every coupling; read-only arrays,
    since the cache hands the same ones to every caller."""
    import numpy as np

    _, _, apex, bisector = tri.corners[index]
    rel = tri.vertex_array() - np.asarray(apex)
    frame = (rel, rel[[0, 0, 1]], rel[[1, 2, 2]], np.asarray(bisector))
    for array in frame:
        array.flags.writeable = False
    return frame


def sector_bound(alpha: float, tri, anchor_vertex: int | None = None) -> tuple[float, float]:
    """(rayleigh_upper, closed_upper) for the sector exponential.

    rayleigh_upper is the exact Rayleigh quotient on the triangle, the quotient
    rate^2 + alpha * ||u||^2_bdry / ||u||^2 that |grad u|^2 = rate^2 u^2 gives.
    One exponent k = 2 rate bisector gives u^2 = exp(k.(x - apex)) for both
    norms: the volume norm is 2|T| exp[z0, z1, z2] with z_i = k.(v_i - apex),
    and the boundary norm integrates exp(k.p) over the three sides, in
    apex-relative coordinates p = x - apex, as one adaptive quadrature of
    _SIDE_RULE-point Gauss cells.  Exponents of x - apex formed from absolute
    coordinates would carry rounding of |k| eps |x| and lose a thin layer's
    mass; relative ones carry eps |k.p|.  Each side is exactly
    |e| exp[z_i, z_j]; the norm stays quadrature because the benchmark
    contract still counts its cells on the region scans.
    closed_upper replaces the volume norm by the infinite-sector integral and
    the boundary norm by the two adjacent sides truncated at L', so
    rayleigh_upper <= closed_upper always.  The field anchors at the smallest
    angle, or at anchor_vertex 0, 1 or 2 (an integer, not a bool) with that
    vertex's angle data; an angle that rounds to 0 raises DomainError.  The
    anchor's geometry comes from _sector_frame's cache, which a refused angle
    never reaches, so a cell computes only k, its exponents and the norms.  A norm that is not positive
    and finite raises NumericError naming it: the volume norm underflows at
    angles near 1e-200, and on flat triangles at strong coupling no side
    quadrature node lands in the boundary layer, 1/|2 rate| wide.  NumPy and
    the side quadrature load on the first call.
    """
    import numpy as np

    from . import _quad

    check_coupling("alpha", alpha)
    if not (anchor_vertex is None or (isinstance(anchor_vertex, numbers.Integral)
                                      and not isinstance(anchor_vertex, bool)
                                      and 0 <= anchor_vertex <= 2)):
        raise DomainError(f"anchor_vertex must be None, 0, 1 or 2, got {anchor_vertex!r}")
    tri = as_geometry(tri)
    index = tri.apex_index if anchor_vertex is None else int(anchor_vertex)
    theta, l_prime, _, _ = tri.corners[index]
    _check_angle(theta)
    rate = alpha / math.sin(0.5 * theta)
    rel, p0, p1, bisector = _sector_frame(tri, index)
    k = 2.0 * rate * bisector

    def square(pts: np.ndarray) -> np.ndarray:
        return np.exp(pts @ k)

    # an exponent past float64 reads as -inf or nan, which the norm checks refuse
    with np.errstate(over="ignore", invalid="ignore"):
        l2 = 2.0 * tri.S * _exp_divided_difference(*(rel @ k).tolist())
        if not (math.isfinite(l2) and l2 > 0.0):
            raise NumericError(f"sector field at alpha = {alpha:g}: the exact volume norm "
                               f"2|T| exp[z0, z1, z2] = {l2:g} is not a positive float64")
        bdry = float(_quad.segment_integrate(square, p0, p1, n=_SIDE_RULE, tol=1e-12))
    if not (math.isfinite(bdry) and bdry > 0.0):
        raise NumericError(f"sector field at alpha = {alpha:g}: volume norm {l2:g}, "
                           f"boundary norm {bdry:g}; the side quadrature found no mass "
                           f"in the boundary layer of width {1.0 / abs(2.0 * rate):g}")
    rayleigh = rate * rate + alpha * bdry / l2
    closed = sector_closed_upper(alpha, theta, l_prime)
    return rayleigh, closed


def sector_condition(alpha: float, tri,
                     bounds: tuple[float, float] | None = None) -> bool:
    """True when the closed sector bound drops below the closed lower bound for lambda0.

    This is the fully closed-form certificate chain; it is vacuous for the
    equilateral triangle, which is rejected as a domain error, and so is a
    triangle whose smallest angle rounds to 0.  bounds, the pair
    (sector_closed_upper, lambda0_lower_bound) a caller has already computed
    for this alpha and triangle, is compared instead of computed again.
    """
    tri = as_geometry(tri)
    if tri.theta_star >= math.pi / 3.0 - 1e-12:
        raise DomainError("sector condition is undefined for the equilateral triangle")
    if bounds is None:
        bounds = (sector_closed_upper(alpha, tri.theta_star, tri.L_prime),
                  lambda0_lower_bound(alpha, tri.S))
    return strictly_below(*bounds)


def small_coupling_functions(alpha: float, tri) -> tuple[float, float, float]:
    """(z, f1, g1) controlling the transplant certificate at weak coupling.

    f1 is the stretch-weight sum (half the scaled perimeter), z divides the
    boundary excess by the gradient excess, and g1 is the coupling-dependent
    threshold 3||grad psi0||^2 / (-2 alpha ||psi0||^2_bdry); g1 <= z is
    equivalent to delta_transplant <= 0.  z is NaN at the equilateral shape
    where both excesses vanish.
    """
    tri = as_geometry(tri)
    f1 = _stretch_sum(tri)
    coef = shape_coefficient(tri)
    z = (f1 - 3.0) / coef if coef > 1e-14 else float("nan")
    b, grad_sq = _normalised_ground_state(alpha, tri.S)
    g1 = 3.0 * grad_sq / (-2.0 * alpha * b)
    return z, f1, g1
