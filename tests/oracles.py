"""Quadrature oracles for the closed-form certificates (not a test module).

A field is a callable pts -> (values, gradients) on (n, 2) point arrays, e.g.
ground_state(sol).  transported_form integrates the Robin form of a
reference-triangle field carried onto Omega_{a,c} with the affine map's
inverse metric and edge stretch weights; the constant and
corner-exponential fields are the other two trial functions of the paper.
exact_sector_quotient is the corner exponential's Rayleigh quotient with
every norm in closed form (exp_side_norm for each side), and
closed_lower_bound a closed lower bound for the eigenvalue of any triangle.
"""

import math

import numpy as np

from robintri import _quad
from robintri.geometry import as_geometry, b0, c0
from robintri.trial import _exp_divided_difference


def reference_vertices(S):
    """The equilateral reference triangle of area S, vertices in label order."""
    return np.array([[-c0(S), 0.0], [c0(S), 0.0], [0.0, b0(S)]])


def inverse_metric(tri):
    """Entries (g11, g12, g22) of the inverse metric (M^T M)^-1.

    M = [[c/c0, a/b0], [0, b/b0]] is the area-preserving affine map (det M =
    c b / (c0 b0) = 1) taking the equilateral reference onto Omega_{a,c}.
    """
    a, c, S = tri.a, tri.c, tri.S
    s3 = math.sqrt(3.0)
    return a * a / (s3 * S) + S / (s3 * c * c), -a * c / S, s3 * c * c / S


def edge_stretch_weights(tri):
    """Per-side length ratios |side_k(a,c)| / |side_k(equilateral)|.

    These are the boundary weights of the transported Robin form; they sum to
    sqrt(sqrt(3)/S) * perimeter / 2.
    """
    base = 2.0 * c0(tri.S)
    return tuple(s / base for s in tri.side_lengths)


def side_integrals(f, verts, n, tol):
    """Adaptive quadrature of the scalar f over sides 0, 1 and 2 of verts."""
    return [float(_quad.segment_integrate(f, verts[i], verts[j], n=n, tol=tol))
            for i, j in ((0, 1), (0, 2), (1, 2))]


def transported_form(alpha, tri, field):
    """(gradient, boundary, l2) of the reference field transported onto tri.

    gradient:  integral of (inverse metric) grad psi . grad psi
    boundary:  alpha * sum_k (side stretch weight_k) * ||psi||^2 on side k
    both over the equilateral reference of the same area, as is l2.
    """
    tri = as_geometry(tri)
    verts = reference_vertices(tri.S)

    def moments(pts):
        vals, grads = field(pts)
        gx, gy = grads[:, 0], grads[:, 1]
        return np.column_stack([gx**2, gy**2, gx * gy, vals**2])

    A1, A2, A12, l2 = _quad.triangle_integrate(moments, verts, n=8, tol=1e-12)
    g11, g12, g22 = inverse_metric(tri)
    sides = side_integrals(lambda p: field(p)[0] ** 2, verts, n=10, tol=1e-12)
    boundary = sum(w * e for w, e in zip(edge_stretch_weights(tri), sides))
    return float(g11 * A1 + 2.0 * g12 * A12 + g22 * A2), alpha * boundary, float(l2)


def ground_state(sol):
    """The field of u0 = cosh(L + 2K yh) + 2 cosh(M - K yh) cosh(sqrt(3) K xh),
    hatted coordinates in units of b0(S), for the solved sol; points off the
    reference triangle are evaluated too."""
    h = b0(sol.S)
    K, L, M = sol.K, sol.L, sol.M
    s3 = math.sqrt(3.0)

    def field(pts):
        pts = np.asarray(pts, dtype=float)
        xh, yh = pts[:, 0] / h, pts[:, 1] / h
        ch_b, sh_b = np.cosh(L + 2.0 * K * yh), np.sinh(L + 2.0 * K * yh)
        ch_m, sh_m = np.cosh(M - K * yh), np.sinh(M - K * yh)
        ch_x, sh_x = np.cosh(s3 * K * xh), np.sinh(s3 * K * xh)
        gx = (2.0 * s3 * K / h) * ch_m * sh_x
        gy = (2.0 * K / h) * (sh_b - sh_m * ch_x)
        return ch_b + 2.0 * ch_m * ch_x, np.column_stack([gx, gy])

    return field


def constant(pts):
    """The constant field 1."""
    n = np.asarray(pts).shape[0]
    return np.ones(n), np.zeros((n, 2))


def corner_exponential(tri, alpha, vertex=None):
    """(rate, field) for exp(rate x'), rate = alpha / sin(theta/2) and x' the
    coordinate along the inward bisector of the corner at vertex (default the
    smallest angle, tri.apex_index), measured from that vertex."""
    index = tri.apex_index if vertex is None else vertex
    theta, _, apex, bisector = tri.corners[index]
    rate = alpha / math.sin(0.5 * theta)
    apex, bisector = np.asarray(apex), np.asarray(bisector)

    def field(pts):
        proj = (np.asarray(pts, dtype=float) - apex) @ bisector
        vals = np.exp(np.maximum(rate * proj, -700.0))
        return vals, (rate * vals)[:, None] * bisector[None, :]

    return rate, field


def numpy_corner(verts, sides, i):
    """(angle, shorter adjacent side, vertex, inward unit bisector) at vertex i,
    formed with numpy on the (3, 2) vertex array: the reference for the corners
    make_triangle stores."""
    verts = np.asarray(verts, dtype=float)
    at = verts[i]
    j, k = (i + 1) % 3, (i + 2) % 3
    d1 = verts[j] - at
    d2 = verts[k] - at
    (x1, y1), (x2, y2) = d1.tolist(), d2.tolist()
    angle = math.atan2(abs(x1 * y2 - y1 * x2), float(d1 @ d2))
    n1, n2 = sides[i + j - 1], sides[i + k - 1]
    bx = d1[0] / n1 + d2[0] / n2
    by = d1[1] / n1 + d2[1] / n2
    nb = math.hypot(bx, by)
    return angle, min(n1, n2), (float(at[0]), float(at[1])), (float(bx / nb), float(by / nb))


def exact_sector_quotient(alpha, tri, vertex=None):
    """rate^2 + alpha ||u||^2_bdry / ||u||^2 for the corner exponential at
    vertex (default the smallest angle), every norm exact in plain floats.

    u^2 = exp(z) with z = k.(x - apex), k = 2 rate bisector, is linear in z,
    so each side has its exp_side_norm, and the volume norm is 2|T|
    exp[z0, z1, z2], trial's divided difference.  The sides are summed in
    label order (0, 1), (0, 2), (1, 2).
    """
    index = tri.apex_index if vertex is None else vertex
    theta, _, (px, py), (bx, by) = tri.corners[index]
    rate = alpha / math.sin(0.5 * theta)
    kx, ky = 2.0 * rate * bx, 2.0 * rate * by
    verts = tri.vertices
    z = [kx * (x - px) + ky * (y - py) for x, y in verts]
    bdry = sum(exp_side_norm(math.dist(verts[i], verts[j]), z[i], z[j])
               for i, j in ((0, 1), (0, 2), (1, 2)))
    return rate * rate + alpha * bdry / (2.0 * tri.S * _exp_divided_difference(*z))


def exp_side_norm(length, za, zb):
    """|e| exp[za, zb]: the integral of exp(z) along a side of that length on
    which z runs linearly from za to zb, |e| e^b (-expm1(a - b)) / (b - a) with
    a <= b the two end values (|e| e^b where they agree)."""
    a, b = sorted((za, zb))
    return length * math.exp(b) * (-math.expm1(a - b) / (b - a) if b > a else 1.0)


def closed_lower_bound(alpha, tri):
    """alpha P/S - alpha^2 / sin^2(theta_min/2), a lower bound for the lowest
    Robin eigenvalue of the triangle at every coupling alpha < 0.

    With I the incentre and r = 2S/P the inradius, F(x) = (x - I)/r has
    F.n = 1 on every side and div F = P/S, and |F| <= 1/sin(theta_min/2) on
    the triangle, whose farthest point from I is the vertex of the smallest
    angle.  The divergence theorem gives ||u||^2_bdry <= (P/S)||u||^2 +
    (2/sin(theta_min/2)) ||u|| ||grad u||, and the bound is the minimum over
    ||grad u||/||u|| of the Rayleigh quotient this leaves.
    """
    theta_min = min(c[0] for c in as_geometry(tri).corners)
    return alpha * tri.perimeter / tri.S - (alpha / math.sin(0.5 * theta_min)) ** 2
