"""Tests for the transcendental equilateral solver and its closed forms.

The solver anchors are checked three ways: frozen values for a handful of
couplings, a high-precision mpmath bisection as an independent oracle, and
pointwise PDE/boundary-condition residuals of the reconstructed field.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from oracles import ground_state, reference_vertices

from robintri import _quad, equilateral
from robintri.equilateral import (
    T0,
    closed_form_norms,
    coupling_elasticity,
    g_root,
    g_threshold,
    hessian_upper_bounds,
    lambda0,
    local_optimality_alpha_bound,
    solve_equilateral,
)
from robintri.errors import DomainError, NumericError
from robintri.geometry import b0, c0, make_triangle, perimeter_min_over_a
from robintri.trial import lambda0_lower_bound

SQRT3 = math.sqrt(3.0)
S_THIRD = 1.0 / SQRT3


def mp_reference(alpha, S, dps=60):
    """Independent high-precision solve of t*(atanh t + atanh t/2) = beta.

    Bisects in u = log(1 - t), writing atanh(t) = (log(2 - e^u) - u)/2, so the
    strong-coupling regime (1 - t down to e^(-2 beta)) never degrades.
    """
    with mp.workdps(dps):
        beta = -mp.mpf(alpha) * mp.sqrt(mp.sqrt(3) * mp.mpf(S))

        def parts(u):
            delta = mp.e**u
            t = 1 - delta
            K = (mp.log(2 - delta) - u) / 2 + mp.atanh(t / 2)
            return t, K

        lo = -(2 * beta + 40)  # t so close to 1 that t*K > beta
        hi = mp.mpf("-1e-30")  # t near 0, t*K ~ 0 < beta
        for _ in range(260):
            mid = (lo + hi) / 2
            t, K = parts(mid)
            if t * K - beta > 0:
                lo = mid
            else:
                hi = mid
        t, K = parts((lo + hi) / 2)
        lam = -4 * K * K / (mp.sqrt(3) * mp.mpf(S))
        return float(t), float(K), float(lam)


class TestSolver:
    def test_frozen_anchor_weak(self):
        sol = solve_equilateral(-0.5, S_THIRD)
        assert abs(sol.t - 0.5523306325211694) < 1e-14
        assert abs(sol.K - 0.9052548791612356) < 1e-14
        assert abs(sol.L - (-0.28352599238723836)) < 1e-14
        assert abs(sol.M - 0.6217288867739972) < 1e-14
        assert abs(sol.lambda0 - (-3.277945584980893)) < 1e-12

    def test_frozen_anchor_family(self):
        """Eigenvalues frozen after cross-validation against mpmath and FEM."""
        cases = {
            (-1.0, S_THIRD): -7.251687898118236,
            (-4.0, S_THIRD): -64.25342508128621,
            (-8.0, S_THIRD): -256.0003457042441,
            (-0.5, 1.0): -2.567665225539846,
            (-4.0, 1.0): -64.0205161444838,
        }
        for (alpha, S), expected in cases.items():
            lam = lambda0(alpha, S)
            assert abs(lam - expected) < 1e-11 * abs(expected)

    def test_against_mpmath_oracle(self, rng):
        """Solver t and lambda0 match a 50-digit bisection across regimes."""
        alphas = [-0.05, -0.3, -1.7, -5.0, -12.0, -40.0]
        areas = [0.3, S_THIRD, 1.0, 2.5]
        picks = [(a, s) for a in alphas for s in rng.choice(areas, size=2, replace=False)]
        for alpha, S in picks:
            t_ref, K_ref, lam_ref = mp_reference(alpha, float(S))
            sol = solve_equilateral(alpha, float(S))
            assert abs(sol.lambda0 - lam_ref) < 1e-12 * abs(lam_ref)
            if t_ref < 0.999:
                assert abs(sol.t - t_ref) < 1e-12

    def test_lambda0_to_two_ulps_across_couplings(self):
        """One log-space solve gives lambda0 to 2e-15 of a 50-digit bisection for
        beta in [1e-10, 30], densely around beta = 5."""
        betas = list(np.geomspace(1e-10, 30.0, 25)) + list(np.linspace(4.8, 5.2, 41))
        for beta in betas:
            alpha = -float(beta)
            _, _, lam_ref = mp_reference(alpha, S_THIRD, dps=50)
            lam = lambda0(alpha, S_THIRD)
            assert abs(lam - lam_ref) <= 2e-15 * abs(lam_ref), beta

    @pytest.mark.parametrize("S", [S_THIRD, 1.0, 2.5])
    def test_weak_coupling_limit_to_machine_precision(self, S):
        """For beta in [1e-300, 1e-20], lambda0 = alpha P/S (1 + O(beta)), so it
        equals the constant field's quotient alpha P/S to rounding."""
        scale = math.sqrt(SQRT3 * S)
        for beta in np.geomspace(1e-300, 1e-20, 200):
            alpha = -float(beta) / scale
            expected = alpha * make_triangle(0.0, c0(S), S).perimeter / S
            assert abs(lambda0(alpha, S) - expected) <= 1e-15 * abs(expected), beta

    def test_one_newton_loop_is_short(self, monkeypatch):
        """Started on the coupling equation's asymptote, the solve evaluates psi
        at most 5 times at every coupling; the bracket ends are never evaluated."""
        calls = []
        psi = equilateral._psi

        def counted(y, beta):
            calls.append(y)
            return psi(y, beta)

        monkeypatch.setattr(equilateral, "_psi", counted)
        for beta in np.geomspace(1e-12, 1e5, 3000):
            calls.clear()
            equilateral._solve_t(float(beta))
            assert len(calls) <= 5, beta

    @pytest.mark.parametrize("y", [-1e-6, -0.5, -3.0, -40.0])
    def test_psi_returns_its_derivative(self, y):
        """_psi(y, beta) is (t K - beta, d(t K)/dy) with t = 1 - e^y and
        K = atanh t + atanh(t/2), both to 1e-13 relative of mpmath's values.
        beta = 1e-300 leaves t K unrounded by the subtraction."""
        beta = 1e-300
        with mp.workdps(50):
            def tK(yy):
                t = 1 - mp.exp(yy)
                return t * (mp.atanh(t) + mp.atanh(t / 2))

            value, slope = tK(mp.mpf(y)), mp.diff(tK, mp.mpf(y))
        f, dfdy = equilateral._psi(y, beta)
        assert abs(f - float(value)) <= 1e-13 * abs(float(value))
        assert abs(dfdy - float(slope)) <= 1e-13 * abs(float(slope))

    def test_system_relations(self, rng):
        """K = M - L, t = beta/K, M = atanh t and L = -atanh(t/2) hold exactly."""
        for _ in range(20):
            alpha = -float(rng.uniform(0.05, 20.0))
            S = float(rng.uniform(0.2, 3.0))
            sol = solve_equilateral(alpha, S)
            assert abs(sol.K - (sol.M - sol.L)) < 1e-12 * sol.K
            assert abs(sol.t * sol.K - sol.beta) < 1e-10 * max(1.0, sol.beta)
            if sol.t < 0.9999:
                assert abs(sol.M - math.atanh(sol.t)) < 1e-12
            assert abs(sol.L + math.atanh(0.5 * sol.t)) < 1e-12

    def test_strong_coupling_asymptote(self):
        """lambda0 approaches -4 alpha^2 with exponentially small error."""
        sol = solve_equilateral(-100.0, 1.0)
        assert abs(sol.lambda0 / (-4.0 * 100.0**2) - 1.0) < 1e-10
        assert sol.log_one_minus_t < -200.0

    @pytest.mark.parametrize("beta", [1e17, 1e50, 1e150])
    def test_strong_coupling_limit_past_the_bracket_rounding(self, beta):
        """Past beta ~ 7.3e16 psi(-2 beta - 10) rounds to 0 in float64, so the
        bracket's sign cannot be checked by evaluating it; the Newton loop lands
        on the strong-coupling limit K = beta, lambda0 = -4 beta^2/(sqrt(3) S)."""
        S = 1.0 / math.sqrt(3.0)
        sol = solve_equilateral(-beta / math.sqrt(math.sqrt(3.0) * S), S)
        limit = -4.0 * sol.beta**2 / (math.sqrt(3.0) * S)
        assert abs(sol.K / sol.beta - 1.0) <= 1e-15
        assert abs(sol.lambda0 / limit - 1.0) <= 1e-15

    @pytest.mark.parametrize("alpha,S", [(-1e300, 1e300), (-1e155, 1.0 / math.sqrt(3.0)),
                                         (-1e-200, 1e-300)],
                             ids=["beta-inf", "lambda0-overflow", "beta-underflow"])
    def test_couplings_past_float64_are_a_numeric_error(self, alpha, S):
        """beta = inf (or rounded to 0) and a lambda0 whose K^2 overflows raise
        NumericError instead of returning a non-finite or zero solution."""
        with pytest.raises(NumericError, match="beta"):
            solve_equilateral(alpha, S)

    @pytest.mark.parametrize("beta", [1e-6, 1.0, 1e3])
    def test_stalled_root_search_is_a_numeric_error(self, monkeypatch, beta):
        """psi evaluated with a residual floor of 1e-9 beta, a hundred times
        the root's tolerance, never settles: the solve raises NumericError at
        its best y instead of returning an unsettled root."""
        psi = equilateral._psi

        def floored(y, beta):
            f, slope = psi(y, beta)
            return f + math.copysign(1e-9 * beta, f), slope

        monkeypatch.setattr(equilateral, "_psi", floored)
        alpha = -beta / math.sqrt(SQRT3 * S_THIRD)
        with pytest.raises(NumericError, match="log-space solve stalled"):
            solve_equilateral(alpha, S_THIRD)

    def test_extreme_coupling_does_not_overflow(self):
        sol = solve_equilateral(-1e4, 1.0)
        assert math.isfinite(sol.lambda0)
        assert sol.lambda0 < -3.9e8

    def test_rejects_bad_domain(self):
        with pytest.raises(DomainError):
            solve_equilateral(0.0, 1.0)
        with pytest.raises(DomainError):
            solve_equilateral(1.5, 1.0)
        with pytest.raises(DomainError):
            solve_equilateral(-1.0, 0.0)
        with pytest.raises(DomainError):
            solve_equilateral(-1.0, -2.0)

    def test_lower_bound_brackets(self, rng):
        for _ in range(25):
            alpha = -float(rng.uniform(0.05, 10.0))
            S = float(rng.uniform(0.3, 3.0))
            assert lambda0_lower_bound(alpha, S) <= lambda0(alpha, S) < 0.0


class TestGroundState:
    def test_robin_condition_on_base(self):
        """du/dn + alpha u = 0 on the base edge y = 0 (outward normal -e_y)."""
        sol = solve_equilateral(-0.8, S_THIRD)
        cc = c0(S_THIRD)
        pts = np.column_stack([np.linspace(-0.9 * cc, 0.9 * cc, 7), np.zeros(7)])
        vals, grads = ground_state(sol)(pts)
        residual = -grads[:, 1] + sol.alpha * vals
        assert np.max(np.abs(residual)) < 1e-10 * np.max(vals)

    def test_robin_condition_on_slanted_side(self):
        sol = solve_equilateral(-1.3, 1.0)
        cc, bb = c0(1.0), b0(1.0)
        s = np.linspace(0.1, 0.9, 7)[:, None]
        pts = (1 - s) * np.array([[cc, 0.0]]) + s * np.array([[0.0, bb]])
        normal = np.array([bb, cc]) / math.hypot(bb, cc)
        vals, grads = ground_state(sol)(pts)
        residual = grads @ normal + sol.alpha * vals
        assert np.max(np.abs(residual)) < 1e-10 * np.max(vals)

    def test_eigenfunction_equation_by_finite_differences(self):
        """A 5-point numerical Laplacian reproduces lambda0 * u at interior points."""
        sol = solve_equilateral(-0.7, S_THIRD)
        field = ground_state(sol)
        h = 1e-4
        centers = np.array([[0.0, 0.3], [0.1, 0.2], [-0.15, 0.25]])
        for cx, cy in centers:
            pts = np.array(
                [[cx, cy], [cx + h, cy], [cx - h, cy], [cx, cy + h], [cx, cy - h]]
            )
            v = field(pts)[0]
            lap = (v[1] + v[2] + v[3] + v[4] - 4.0 * v[0]) / (h * h)
            assert abs(-lap - sol.lambda0 * v[0]) < 1e-4 * abs(sol.lambda0 * v[0])

    def test_positive_inside(self, rng):
        field = ground_state(solve_equilateral(-2.0, 1.0))
        pts = rng.dirichlet(np.ones(3), size=200) @ reference_vertices(1.0)
        assert np.min(field(pts)[0]) > 0.0


class TestClosedFormNorms:
    def test_frozen_half_t_anchor(self):
        """Anchor with t = 0.5 exactly (coupling chosen so beta = K(1/2)/2)."""
        alpha = -0.5 * (math.atanh(0.5) + math.atanh(0.25))
        sol = solve_equilateral(alpha, S_THIRD)
        assert abs(sol.t - 0.5) < 1e-13
        d1, bdry, l2 = closed_form_norms(sol)
        assert abs(d1 - 0.6247978060985534) < 1e-12
        assert abs(bdry - 45.07466512839959) < 1e-10
        assert abs(l2 - 6.5192007676152235) < 1e-10

    @pytest.mark.parametrize("S", [0.3, S_THIRD, 2.0])
    def test_l2_norm_is_the_quadrature_of_the_oracle_field(self, S):
        """The volume norm integrates u0 as written in equilateral.py; the same
        rule (n=24, tol=1e-13) on the oracle field's values gives the same
        float, so the two copies of u0 cannot drift apart."""
        verts = reference_vertices(S)
        for alpha in (-0.01, -0.5, -3.0, -40.0):
            field = ground_state(solve_equilateral(alpha, S))
            quad = float(_quad.triangle_integrate(lambda p: field(p)[0] ** 2, verts,
                                                  n=24, tol=1e-13))
            assert equilateral._l2_norm_sq_cached(alpha, S) == quad

    def test_eigenvalue_identity(self, rng):
        """2*d1 + alpha*bdry = lambda0 * l2.

        The field is invariant under the triangle's dihedral group, so the
        averaged gradient outer product is isotropic and each derivative
        component carries exactly half of the squared gradient norm.
        """
        for _ in range(10):
            alpha = -float(rng.uniform(0.1, 6.0))
            S = float(rng.uniform(0.3, 2.0))
            sol = solve_equilateral(alpha, S)
            d1, bdry, l2 = closed_form_norms(sol)
            lhs = 2.0 * d1 + alpha * bdry
            assert abs(lhs - sol.lambda0 * l2) < 1e-9 * abs(sol.lambda0 * l2)

    def test_dilation_rules(self):
        """Under x -> gamma x (area gamma^2 S, coupling alpha/gamma) the norms
        scale as: d1 invariant, boundary ~ gamma, volume ~ gamma^2."""
        alpha, S, gamma = -1.1, 0.9, 0.7
        sol = solve_equilateral(alpha, S)
        scaled = solve_equilateral(alpha / gamma, gamma * gamma * S)
        assert abs(scaled.t - sol.t) < 1e-12
        d1, bdry, l2 = closed_form_norms(sol)
        d1_s, bdry_s, l2_s = closed_form_norms(scaled)
        assert abs(d1_s - d1) < 1e-10 * abs(d1)
        assert abs(bdry_s - gamma * bdry) < 1e-9 * abs(bdry)
        assert abs(l2_s - gamma * gamma * l2) < 1e-9 * abs(l2)


class TestThresholds:
    def test_t0_closed_form(self):
        assert T0 == math.sqrt(9.0 - math.sqrt(33.0)) / 2.0
        # equivalently the positive root of 16 t^4 - 72 t^2 + 48 = 0
        assert abs(T0**4 - 4.5 * T0**2 + 3.0) < 1e-15

    def test_g_root_value_and_sign_change(self):
        r = g_root()
        assert abs(r - 0.9428705917904152) < 1e-9
        assert g_threshold(r - 1e-4) < 0.0 < g_threshold(r + 1e-4)

    def test_g_root_refuses_a_lost_bracket(self, monkeypatch):
        """A g that does not change sign from - to + on [0.9, 0.99] raises
        NumericError before any bisection; the cache holds no root from it."""
        g_root.cache_clear()
        try:
            monkeypatch.setattr(equilateral, "g_threshold", lambda t: -g_threshold(t))
            with pytest.raises(NumericError, match="expected bracketing"):
                g_root()
        finally:
            g_root.cache_clear()

    def test_g_domain(self):
        with pytest.raises(DomainError):
            g_threshold(0.0)
        with pytest.raises(DomainError):
            g_threshold(1.0)

    def test_alpha_thresholds(self):
        simple, improved = local_optimality_alpha_bound(1.0)
        assert simple == -0.92
        assert abs(improved - (-1.6300252549706291)) < 1e-12
        # scale rule: both thresholds go like 1/sqrt(S)
        s4, i4 = local_optimality_alpha_bound(4.0)
        assert abs(s4 - simple / 2.0) < 1e-15
        assert abs(i4 - improved / 2.0) < 1e-12

    def test_hessian_bounds_anchor(self):
        hb = hessian_upper_bounds(-0.5, S_THIRD)
        assert abs(hb.bound_aa - (-1.0360320625982549)) < 1e-12
        assert abs(hb.bound_cc - (-12.432384751179058)) < 1e-11
        assert abs(hb.bound_cc - 12.0 * hb.bound_aa) < 1e-12 * abs(hb.bound_cc)

    def test_norms_past_float64_are_a_numeric_error(self):
        """beta = 300 overflows the raw field's closed-form norms (OverflowError
        from math.cosh); the norms and every consumer raise NumericError instead."""
        with pytest.raises(NumericError, match="beta = 300"):
            closed_form_norms(solve_equilateral(-300.0, S_THIRD))
        with pytest.raises(NumericError):
            hessian_upper_bounds(-300.0, S_THIRD)
        assert all(map(math.isfinite, closed_form_norms(solve_equilateral(-170.0, S_THIRD))))

    def test_hessian_bounds_past_float64_are_a_numeric_error(self):
        """At S = 1e-300 every input rule passes but (grad + 3 alpha b/8)/(sqrt(3) S)
        overflows: a NumericError naming the coupling and the area, not -inf."""
        with pytest.raises(NumericError, match="alpha = -1, S = 1e-300"):
            hessian_upper_bounds(-1.0, 1e-300)

    def test_hessian_bounds_sign_flip(self):
        """Bounds are negative above the improved threshold and positive well below."""
        simple, improved = local_optimality_alpha_bound(S_THIRD)
        assert hessian_upper_bounds(0.9 * simple, S_THIRD).bound_aa < 0.0
        assert hessian_upper_bounds(1.5 * improved, S_THIRD).bound_aa > 0.0

    def test_elasticity_limits(self):
        assert abs(coupling_elasticity(solve_equilateral(-1e-4, 1.0)) - 0.5) < 1e-3
        assert coupling_elasticity(solve_equilateral(-50.0, 1.0)) > 0.999
        k = coupling_elasticity(solve_equilateral(-1.0, 1.0))
        assert 0.5 < k < 1.0


class TestQuadratureHelpers:
    def test_triangle_rule_polynomial_exactness(self):
        """The Duffy rule integrates x^2 y^3 exactly on a known triangle."""
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        val = _quad.triangle_integrate(
            lambda p: (p[:, 0] ** 2 * p[:, 1] ** 3)[:, None], verts, n=6, tol=1e-14
        )
        # integral of x^2 y^3 over the unit right triangle = B(3,5)/4 = 1/420
        assert abs(float(val) - 1.0 / 420.0) < 1e-15

    def test_rough_segment_integrand_exhausts_the_cell_budget(self, monkeypatch):
        monkeypatch.setattr(_quad, "_MAX_CELLS", 1000)
        with pytest.raises(NumericError):
            _quad.segment_integrate(
                lambda p: np.sign(np.sin(1e9 * p[:, 0])), np.zeros(2), np.array([1.0, 0.0])
            )

    def test_segment_rule(self):
        val = _quad.segment_integrate(
            lambda p: np.exp(p[:, 0]), np.array([0.0, 0.0]), np.array([1.0, 0.0]),
            n=10, tol=1e-13,
        )
        assert abs(float(val) - (math.e - 1.0)) < 1e-12


@pytest.mark.parametrize("call", [
    lambda S: lambda0_lower_bound(-1.0, S),
    lambda S: local_optimality_alpha_bound(S),
    lambda S: perimeter_min_over_a(1.0, S),
], ids=["lambda0_lower_bound", "local_optimality_alpha_bound", "perimeter_min_over_a"])
def test_closed_forms_refuse_an_infinite_area(call):
    """solve_equilateral and make_triangle refuse an infinite area; so does
    every closed form that takes one."""
    with pytest.raises(DomainError):
        call(math.inf)
