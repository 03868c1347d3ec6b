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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _quad
from .errors import DomainError, NumericError
from .geometry import b0, c0

_SQRT3 = math.sqrt(3.0)

#: closed-form threshold sqrt(9 - sqrt(33))/2 where the crude sufficient
#: condition 3 t^2 (2 - t^2) < ... changes sign
T0 = math.sqrt(9.0 - math.sqrt(33.0)) / 2.0


@dataclass(frozen=True)
class EquilateralSolution:
    """Solved transcendental data for one (alpha, S)."""

    alpha: float
    S: float
    t: float
    K: float
    L: float
    M: float
    lambda0: float
    #: log(1 - t); kept separately because 1 - t underflows float64 once
    #: beta = -alpha*sqrt(sqrt(3) S) grows past ~350
    log_one_minus_t: float

    @property
    def beta(self) -> float:
        return -self.alpha * math.sqrt(_SQRT3 * self.S)


def _bigK(t: float) -> float:
    return math.atanh(t) + math.atanh(0.5 * t)


def _slope_A(t: float) -> float:
    """A(t) = t * dK/dt = t/(1-t^2) + t/(2 - t^2/2)."""
    return t / (1.0 - t * t) + t / (2.0 - 0.5 * t * t)


def _t_and_K(y: float) -> tuple[float, float]:
    """(t, K) at y = log(1 - t); expm1/log1p keep every digit as y -> 0."""
    t = -math.expm1(y)
    return t, 0.5 * (math.log1p(t) - y) + math.atanh(0.5 * t)


def _psi(y: float, beta: float) -> float:
    """t * K - beta written in y = log(1 - t)."""
    t, k = _t_and_K(y)
    return t * k - beta


def _psi_prime(y: float) -> float:
    """d/dy of _psi; stays finite when e^y underflows (limit -1/2)."""
    s = math.exp(y)
    t, k = _t_and_K(y)
    # s * A(t) expanded so the 1/(1-t^2) pole cancels the factor s analytically
    s_times_A = t / (1.0 + t) + s * t / (2.0 - 0.5 * t * t)
    return -(s * k + s_times_A)


def _solve_t(beta: float) -> tuple[float, float]:
    """Root of t K(t) = beta in y = log(1 - t); returns (t, y).

    Safeguarded Newton from the asymptote, t K ~ 3 t^2/2 (weak coupling) or
    y ~ log 2 + 2 atanh(1/2) - 2 beta (strong), which lies inside the bracket
    [-2 beta - 10, 0]; a step that leaves the bracket bisects it.  The loop
    stops once a step no longer lowers |psi| or moves y by two ulps or less,
    and the root must reach |psi| <= 1e-11 beta.
    """
    lo, hi = -2.0 * beta - 10.0, 0.0
    if not (_psi(lo, beta) > 0.0 > _psi(hi, beta)):
        raise NumericError(f"log-space bracket failed for beta={beta}")
    weak = math.sqrt(beta / 1.5)
    y = math.log1p(-weak) if weak < 0.9 else math.log(2.0) + 2.0 * math.atanh(0.5) - 2.0 * beta
    best_y, best_f = y, math.inf
    for _ in range(50):
        f = _psi(y, beta)
        if not abs(f) < abs(best_f):
            break
        best_y, best_f = y, f
        if f == 0.0:
            break
        lo, hi = (y, hi) if f > 0.0 else (lo, y)
        y_next = y - f / _psi_prime(y)
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

    Raises DomainError unless alpha < 0 and S > 0, NumericError if the root
    search fails to reach residual tolerance.
    """
    if not (math.isfinite(alpha) and alpha < 0.0):
        raise DomainError(f"alpha must be finite and strictly negative, got {alpha}")
    if not (math.isfinite(S) and S > 0.0):
        raise DomainError(f"S must be finite and strictly positive, got {S}")
    beta = -alpha * math.sqrt(_SQRT3 * S)
    t, y = _solve_t(beta)
    M = 0.5 * (math.log1p(t) - y)
    L = -math.atanh(0.5 * t)
    K = M - L
    lam = -4.0 * K * K / (_SQRT3 * S)
    return EquilateralSolution(
        alpha=float(alpha), S=float(S), t=t, K=K, L=L, M=M,
        lambda0=lam, log_one_minus_t=y,
    )


def lambda0(alpha: float, S: float) -> float:
    """Lowest Robin eigenvalue of the equilateral triangle of area S."""
    return solve_equilateral(alpha, S).lambda0


def coupling_elasticity(sol: EquilateralSolution) -> float:
    """k(alpha) = (alpha/K) dK/dalpha = A / (K + A), computed pole-free.

    Written as 1/(1 + K/A) with K/A assembled from log(1-t) so the value
    tends to 1 cleanly in the strong-coupling limit.
    """
    t, K = sol.t, sol.K
    q = math.exp(sol.log_one_minus_t) * (2.0 - math.exp(sol.log_one_minus_t))  # 1 - t^2
    inv_A = q / (t * (1.0 + q / (2.0 - 0.5 * t * t))) if t > 0 else math.inf
    return 1.0 / (1.0 + K * inv_A)


# ---------------------------------------------------------------------------
# ground-state field


class GroundStateField:
    """Positive eigenfunction on the equilateral reference triangle.

    Vectorised evaluators return values, gradients and Laplacians at (n, 2)
    point arrays; scalar __call__ additionally enforces the triangle domain.
    """

    def __init__(self, solution: EquilateralSolution):
        self.solution = solution
        self._h = b0(solution.S)
        self._c0 = c0(solution.S)

    def values_and_grads(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sol = self.solution
        h = self._h
        xh = np.asarray(pts, dtype=float)[:, 0] / h
        yh = np.asarray(pts, dtype=float)[:, 1] / h
        K, L, M = sol.K, sol.L, sol.M
        ch_b = np.cosh(L + 2.0 * K * yh)
        sh_b = np.sinh(L + 2.0 * K * yh)
        ch_m = np.cosh(M - K * yh)
        sh_m = np.sinh(M - K * yh)
        ch_x = np.cosh(_SQRT3 * K * xh)
        sh_x = np.sinh(_SQRT3 * K * xh)
        vals = ch_b + 2.0 * ch_m * ch_x
        gx = (2.0 * _SQRT3 * K / h) * ch_m * sh_x
        gy = (2.0 * K / h) * (sh_b - sh_m * ch_x)
        return vals, np.column_stack([gx, gy])

    def values(self, pts: np.ndarray) -> np.ndarray:
        return self.values_and_grads(pts)[0]

    def laplacian(self, pts: np.ndarray) -> np.ndarray:
        sol = self.solution
        vals = self.values_and_grads(pts)[0]
        return (4.0 * sol.K * sol.K / (self._h * self._h)) * vals

    def _inside(self, x: float, y: float, fuzz: float) -> bool:
        slack = fuzz * self._h
        return (
            y >= -slack
            and x / self._c0 + y / self._h <= 1.0 + fuzz
            and -x / self._c0 + y / self._h <= 1.0 + fuzz
        )

    def __call__(self, x: float, y: float) -> float:
        if not self._inside(float(x), float(y), 1e-12):
            raise DomainError(f"point ({x}, {y}) lies outside the reference triangle")
        return float(self.values(np.array([[x, y]]))[0])


def ground_state(solution: EquilateralSolution) -> GroundStateField:
    return GroundStateField(solution)


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
    sol = solve_equilateral(alpha, S)
    field = GroundStateField(sol)
    cc, bb = c0(S), b0(S)
    verts = np.array([[-cc, 0.0], [cc, 0.0], [0.0, bb]])
    # u0^2 overflows at strong coupling; the quadrature raises NumericError on the inf
    with np.errstate(over="ignore"):
        val = _quad.triangle_integrate(
            lambda p: field.values(p) ** 2, verts, n=24, tol=1e-13
        )
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
    if not (0.0 < t < 1.0):
        raise DomainError(f"g_threshold needs t in (0, 1), got {t}")
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
    if not (S > 0.0):
        raise DomainError(f"S must be positive, got {S}")
    simple = -0.92 / math.sqrt(S)
    tr = g_root()
    improved = -tr * _bigK(tr) / math.sqrt(_SQRT3 * S)
    return simple, improved


@dataclass(frozen=True)
class HessianBounds:
    """Upper bounds for the diagonal second derivatives at the equilateral point."""

    bound_aa: float
    bound_cc: float
    f_value: float


def hessian_upper_bounds(alpha: float, S: float) -> HessianBounds:
    """Bounds (1/(sqrt(3)S)) (||grad psi0||^2 + (3 alpha/8)||psi0||^2_bdry) and 12x it.

    psi0 is the L2-normalised ground state; its gradient norm comes from the
    eigenvalue identity ||grad psi0||^2 = lambda0 - alpha ||psi0||^2_bdry.
    f_value = ||grad psi0||^2/3 + alpha ||psi0||^2_bdry / 8 shares the sign of
    both bounds.
    """
    sol = solve_equilateral(alpha, S)
    _, bdry, l2 = closed_form_norms(sol)
    b = bdry / l2
    grad_sq = sol.lambda0 - alpha * b
    bound_aa = (grad_sq + 0.375 * alpha * b) / (_SQRT3 * S)
    bound_cc = 12.0 * bound_aa
    f_value = grad_sq / 3.0 + alpha * b / 8.0
    return HessianBounds(bound_aa=bound_aa, bound_cc=bound_cc, f_value=f_value)
