"""Lowest Robin eigenvalue on the equilateral triangle, in closed form.

For coupling alpha < 0 and area S the lowest eigenvalue is

    lambda0 = -4 K^2 / (sqrt(3) S),

where K = arctanh(t) + arctanh(t/2) and t in (0, 1) is the unique root of

    t * (arctanh(t) + arctanh(t/2)) = beta,   beta = -alpha * sqrt(sqrt(3) S).

One solve serves every coupling: the unknown is y = log(1 - t), found by one
safeguarded Newton loop that starts on the equation's weak- or strong-coupling
asymptote and keeps the bracket [-2 beta - 10, 0].  Writing
t = -expm1(y) and arctanh(t) = (log1p(t) - y)/2 loses no digits at weak
coupling (y near 0), and at strong coupling 1 - t = e^y may underflow while y
itself, kept as log_one_minus_t, stays exact.

The corresponding positive eigenfunction, in coordinates where the triangle
has vertices (-c0, 0), (c0, 0), (0, b_0) and with hatted coordinates measured
in units of b0 = sqrt(sqrt(3) S), is

    u0(x, y) = cosh(L + 2K yh) + 2 cosh(M - K yh) cosh(sqrt(3) K xh),

with M = arctanh(t) > 0 and L = -arctanh(t/2) < 0 (so K = M - L).  It solves
-Laplace(u0) = lambda0 * u0 exactly; the Robin condition on the base is
equivalent to tanh(M) = t together with tanh(L) = -t/2, and on the slanted
sides to tanh(M) + 2 tanh(L) = 0.

The module also carries the small-coupling optimality thresholds built from

    g(t) = t/(1-t^2) + t/(2 (1 - t^2/4)) - 4 arctanh(t) - 4 arctanh(t/2),

whose sign decides whether the boundary-norm Hessian correction beats the
gradient term.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from .errors import NumericError, check_area, check_coupling, check_unit_interval
from .geometry import b0, c0

_SQRT3 = math.sqrt(3.0)

#: closed-form threshold sqrt(9 - sqrt(33))/2 where the crude sufficient
#: condition 3 t^2 (2 - t^2) < ... changes sign
T0 = math.sqrt(9.0 - math.sqrt(33.0)) / 2.0


class EquilateralSolution(namedtuple("EquilateralSolution",
                                       ("alpha", "S", "t", "K", "L", "M", "lambda0",
                                        "log_one_minus_t"))):
    """Solved transcendental data for one (alpha, S), every field a float.

    log_one_minus_t is log(1 - t), kept separately because 1 - t underflows
    float64 once beta = -alpha*sqrt(sqrt(3) S) grows past ~350.
    """

    __slots__ = ()

    @property
    def beta(self) -> float:
        return -self.alpha * math.sqrt(_SQRT3 * self.S)


def _bigK(t: float) -> float:
    return math.atanh(t) + math.atanh(0.5 * t)


def _slope_A(t: float) -> float:
    """A(t) = t * dK/dt = t/(1-t^2) + t/(2 - t^2/2)."""
    return t / (1.0 - t * t) + t / (2.0 - 0.5 * t * t)


def _psi(y: float, beta: float) -> tuple[float, float]:
    """(psi, dpsi/dy) for psi = t * K - beta written in y = log(1 - t).
    expm1/log1p keep every digit of t and K as y -> 0, and the derivative
    stays finite when e^y underflows (limit -1/2)."""
    s = math.exp(y)
    t = -math.expm1(y)
    k = 0.5 * (math.log1p(t) - y) + math.atanh(0.5 * t)
    # s * A(t) expanded so the 1/(1-t^2) pole cancels the factor s analytically
    s_times_A = t / (1.0 + t) + s * t / (2.0 - 0.5 * t * t)
    return t * k - beta, -(s * k + s_times_A)


def _solve_t(beta: float) -> tuple[float, float]:
    """Root of t K(t) = beta in y = log(1 - t); returns (t, y).

    Safeguarded Newton from the asymptote, t K ~ 3 t^2/2 (weak coupling) or
    y ~ log 2 + 2 atanh(1/2) - 2 beta (strong), which lies inside the bracket
    [-2 beta - 10, 0] (psi changes sign on it for every beta > 0, so its ends
    are not evaluated); a step that leaves it bisects it.  The loop stops once
    a step no longer lowers |psi| or moves y by two ulps or less, and the root
    must reach |psi| <= 1e-11 beta.
    """
    if not 0.0 < beta < math.inf:
        raise NumericError(f"coupling strength beta = {beta:g} is not a positive float64")
    lo, hi = -2.0 * beta - 10.0, 0.0
    weak = math.sqrt(beta / 1.5)
    y = math.log1p(-weak) if weak < 0.9 else math.log(2.0) + 2.0 * math.atanh(0.5) - 2.0 * beta
    best_y, best_f = y, math.inf
    for _ in range(50):
        f, slope = _psi(y, beta)
        if not abs(f) < abs(best_f):
            break
        best_y, best_f = y, f
        if f == 0.0:
            break
        lo, hi = (y, hi) if f > 0.0 else (lo, y)
        y_next = y - f / slope
        if not (lo < y_next < hi):
            y_next = 0.5 * (lo + hi)
        if abs(y_next - y) <= 2.0 * math.ulp(y):
            break
        y = y_next
    if not abs(best_f) <= 1e-11 * beta:
        raise NumericError(f"log-space solve stalled at y={best_y}, residual={best_f:g}")
    return -math.expm1(best_y), best_y


def solve_equilateral(alpha: float, S: float) -> EquilateralSolution:
    """Solve the coupling equation and package (t, K, L, M, lambda0).

    Raises DomainError unless alpha < 0 and S > 0, NumericError if beta or
    lambda0 leaves float64 or the root search misses its tolerance.  The
    inputs are checked on every call; the solve itself is memoised per
    (float(alpha), float(S)) in a process-wide cache of the last 256 pairs
    (the size of _l2_norm_sq_cached's), and a solve that raises is not cached.
    """
    check_coupling("alpha", alpha)
    check_area(S)
    return _solve(float(alpha), float(S))


@lru_cache(maxsize=256)
def _solve(alpha: float, S: float) -> EquilateralSolution:
    """solve_equilateral for inputs already checked and converted to float."""
    beta = -alpha * math.sqrt(_SQRT3 * S)
    t, y = _solve_t(beta)
    M = 0.5 * (math.log1p(t) - y)
    L = -math.atanh(0.5 * t)
    K = M - L
    lam = -4.0 * K * K / (_SQRT3 * S)
    if not math.isfinite(lam):
        raise NumericError(f"lambda0 overflows float64 at beta = {beta:g}")
    return EquilateralSolution(
        alpha=alpha, S=S, t=t, K=K, L=L, M=M,
        lambda0=lam, log_one_minus_t=y,
    )


def lambda0(alpha: float, S: float) -> float:
    """Lowest Robin eigenvalue of the equilateral triangle of area S."""
    return solve_equilateral(alpha, S).lambda0


def _K_over_A(sol: EquilateralSolution) -> float:
    """x = K/A with A = t dK/dt, assembled from log(1-t) so the 1/(1-t^2)
    pole of A never forms; positive whenever K > 0, t > 0 and log(1-t) is
    finite, and it underflows to 0 only with 1 - t^2."""
    t, s = sol.t, math.exp(sol.log_one_minus_t)
    q = s * (2.0 - s)  # 1 - t^2
    inv_A = q / (t * (1.0 + q / (2.0 - 0.5 * t * t))) if t > 0 else math.inf
    return sol.K * inv_A


def coupling_elasticity(sol: EquilateralSolution) -> float:
    """k(alpha) = (alpha/K) dK/dalpha = A / (K + A), computed pole-free.

    Written as 1/(1 + K/A) so the value tends to 1 cleanly in the
    strong-coupling limit.
    """
    return 1.0 / (1.0 + _K_over_A(sol))


def _area_derivative(sol: EquilateralSolution) -> float:
    """d lambda0 / dS = (|lambda0|/S) (1 - k) at fixed alpha, by scaling.

    1 - k is formed as x/(1 + x) with x = K/A: the complement
    1 - coupling_elasticity rounds to 0 from alpha ~ -24 at S = 1/sqrt(3),
    while x/(1 + x) keeps its digits until 1 - t^2 underflows.
    """
    x = _K_over_A(sol)
    return (-sol.lambda0 / sol.S) * (x / (1.0 + x))


#: the 8-point Gauss-Legendre rule on [-1, 1] as (node, weight) for the nodes
#: +-node, to 22 digits
_GAUSS8 = ((0.1834346424956498049394761, 0.3626837833783619829651504),
           (0.5255324099163289858177390, 0.3137066458778872873379622),
           (0.7966664774136267395915539, 0.2223810344533744705443560),
           (0.9602898564975362316835609, 0.1012285362903762591525314))


def _lambda0_drop(low: EquilateralSolution, high: EquilateralSolution) -> float:
    """lambda0(alpha, low.S) - lambda0(alpha, high.S) for low.S <= high.S at
    one alpha: never positive, and free of the cancellation of the two rounded
    values, which agree to the last bit at strong coupling (both near
    -4 alpha^2) while the true drop is exponentially small.

    lambda0 = -4 alpha^2 / t^2 and t = 1 - e^y, so the drop is
    -4 alpha^2 (t_h - t_l)(t_h + t_l) / (t_l t_h)^2 with
    t_h - t_l = -e^{y_l} expm1(y_h - y_l), formed from the two roots
    y = log(1 - t) without overflow.  The difference of roots keeps about
    eps |y| / (y_l - y_h) relative error, so for close areas (y_l - y_h <= 1
    and high.S / low.S <= e^(1/2)) the drop is -integral of d lambda0 / dS
    over [low.S, high.S] instead: 8-point Gauss-Legendre in log S on
    _area_derivative, whose terms are all positive.  Either way the drop is
    within 3e-13 relative of a converged composite Gauss rule over alpha
    from -1e-12 to -300, S from 0.01 to 100 and low.S / high.S from 1e-3 to 1.
    """
    if low.S == high.S:
        return 0.0
    dy = low.log_one_minus_t - high.log_one_minus_t
    span = math.log(high.S / low.S)
    if dy > 1.0 or span > 0.5:
        rise = -math.exp(low.log_one_minus_t) * math.expm1(-dy)  # t_h - t_l
        return -4.0 * (low.alpha / low.t) * (low.alpha / high.t) * (rise / low.t) * (
            (low.t + high.t) / high.t)
    half = 0.5 * span
    mid = math.log(high.S) - half
    terms = []
    for x, w in _GAUSS8:
        for s in (math.exp(mid - half * x), math.exp(mid + half * x)):
            terms.append(w * s * _area_derivative(solve_equilateral(low.alpha, s)))
    return -half * math.fsum(terms)


# ---------------------------------------------------------------------------
# norms of the (unnormalised) ground state


def _d1_norm_sq_unit(K: float, M: float) -> float:
    """integral of (d/dx u0)^2 over the unit-height reference triangle.

    Obtained by integrating 4 sqrt(3) K^2 cosh^2(L + K s)[sinh(2Ks)/(2K) - s]
    over s in (0,1); validated against adaptive quadrature to 1e-12.
    """
    return (_SQRT3 / 8.0) * (
        -4.0
        - 8.0 * K * K
        + 4.0 * math.cosh(2.0 * K)
        + math.cosh(2.0 * K + 2.0 * M)
        + 4.0 * math.cosh(2.0 * M)
        - 5.0 * math.cosh(2.0 * K - 2.0 * M)
        - 8.0 * K * math.sinh(2.0 * M)
        + 4.0 * K * math.sinh(2.0 * K - 2.0 * M)
    )


def _boundary_norm_sq_unit(K: float, L: float, M: float) -> float:
    """integral of u0^2 over the full boundary, unit-height triangle.

    Three times the base-edge integral, since u0 restricted to each side is
    the same profile by the triangle's dihedral symmetry.
    """
    return (_SQRT3 / K) * (
        3.0 * K
        + K * math.cosh(2.0 * L)
        + 2.0 * K * math.cosh(2.0 * M)
        + 8.0 * math.cosh(L) * math.cosh(M) * math.sinh(K)
        + 2.0 * math.cosh(M) ** 2 * math.sinh(2.0 * K)
    )


@lru_cache(maxsize=256)
def _l2_norm_sq_cached(alpha: float, S: float) -> float:
    """||u0||^2 over the reference triangle by adaptive quadrature of u0^2.

    The only array code of this module: NumPy and the quadrature load on the
    first miss, so the closed forms alone never import them.
    """
    import numpy as np

    from . import _quad

    sol = solve_equilateral(alpha, S)
    K, L, M = sol.K, sol.L, sol.M
    cc, bb = c0(S), b0(S)
    verts = np.array([[-cc, 0.0], [cc, 0.0], [0.0, bb]])

    def u0_squared(pts: np.ndarray) -> np.ndarray:
        xh, yh = pts[:, 0] / bb, pts[:, 1] / bb
        return (np.cosh(L + 2.0 * K * yh)
                + 2.0 * np.cosh(M - K * yh) * np.cosh(_SQRT3 * K * xh)) ** 2

    # u0^2 overflows at strong coupling; the quadrature raises NumericError on the inf
    with np.errstate(over="ignore"):
        val = _quad.triangle_integrate(u0_squared, verts, n=24, tol=1e-13)
    return float(val)


def closed_form_norms(sol: EquilateralSolution) -> tuple[float, float, float]:
    """(||d1 u0||^2, ||u0||^2 on the boundary, ||u0||^2) for the raw field.

    The first two come from closed forms on the unit-height triangle and the
    dilation rules (gradient-component norm invariant, boundary norm scales
    with the height, volume norm with its square); the volume norm itself is
    evaluated by high-order quadrature.  Raises NumericError once the raw
    field's norms leave float64 (beta past about 175).
    """
    try:
        d1 = _d1_norm_sq_unit(sol.K, sol.M)
        bdry = b0(sol.S) * _boundary_norm_sq_unit(sol.K, sol.L, sol.M)
    except OverflowError:
        d1 = bdry = math.inf
    if not math.isfinite(d1 + bdry):
        raise NumericError(f"ground-state norms overflow float64 at beta = {sol.beta:.6g}")
    l2 = _l2_norm_sq_cached(sol.alpha, sol.S)
    return d1, bdry, l2


# ---------------------------------------------------------------------------
# small-coupling thresholds


def g_threshold(t: float) -> float:
    """Sign function deciding concavity of the eigenvalue at the equilateral point."""
    check_unit_interval("g_threshold's t", t)
    return _slope_A(t) - 4.0 * _bigK(t)


@lru_cache(maxsize=1)
def g_root() -> float:
    """Unique root of g in (0.9, 0.99), bisected to 1e-10 and cached."""
    lo, hi = 0.9, 0.99
    g_lo, g_hi = g_threshold(lo), g_threshold(hi)
    if not (g_lo < 0.0 < g_hi):
        raise NumericError("g changed its expected bracketing on [0.9, 0.99]")
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if g_threshold(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def local_optimality_alpha_bound(S: float) -> tuple[float, float]:
    """Coupling thresholds below which (in magnitude) both Hessian bounds are negative.

    Returns (simple, improved): the simple threshold is the closed-form
    -0.92/sqrt(S); the improved one is the exact coupling at which the solved
    t crosses the g-root, -t~ K(t~) / sqrt(sqrt(3) S).
    """
    check_area(S)
    simple = -0.92 / math.sqrt(S)
    tr = g_root()
    improved = -tr * _bigK(tr) / math.sqrt(_SQRT3 * S)
    return simple, improved


class HessianBounds(namedtuple("HessianBounds", ("bound_aa", "bound_cc"))):
    """Upper bounds for the diagonal second derivatives at the equilateral point,
    both floats."""

    __slots__ = ()


def _normalised_ground_state(alpha: float, S: float) -> tuple[float, float]:
    """(||psi0||^2_bdry, ||grad psi0||^2) of the L2-normalised ground state psi0.

    The gradient norm comes from the eigenvalue identity
    ||grad psi0||^2 = lambda0 - alpha ||psi0||^2_bdry.
    """
    sol = solve_equilateral(alpha, S)
    _, bdry, l2 = closed_form_norms(sol)
    b = bdry / l2
    return b, sol.lambda0 - alpha * b


def hessian_upper_bounds(alpha: float, S: float) -> HessianBounds:
    """Bounds (1/(sqrt(3)S)) (||grad psi0||^2 + (3 alpha/8)||psi0||^2_bdry) and 12x it.

    psi0 is the L2-normalised ground state (_normalised_ground_state).  A
    bound that leaves float64 (at an area near 1e-300) raises NumericError.
    """
    b, grad_sq = _normalised_ground_state(alpha, S)
    bound_aa = (grad_sq + 0.375 * alpha * b) / (_SQRT3 * S)
    bound_cc = 12.0 * bound_aa
    if not math.isfinite(bound_cc):
        raise NumericError(f"Hessian bounds overflow float64 at alpha = {alpha:g}, "
                           f"S = {S:g}")
    return HessianBounds(bound_aa=bound_aa, bound_cc=bound_cc)
