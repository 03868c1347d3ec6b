"""Quadrature helpers for triangles and segments.

Everything here is built on Gauss-Legendre nodes from numpy.  Triangle rules
use the Duffy (collapsed square) construction: a tensor rule on [0,1]^2 mapped
by (u, v) -> (u*(1-v), u*v) with Jacobian u, which integrates bivariate
polynomials of total degree <= 2n-2 exactly when each factor uses n nodes.
The default n=6 therefore handles degree 10.

Integrands are vector-valued callables f(pts) -> (npts, m) so that several
moments (|grad|^2 components, u^2, ...) share one set of evaluations.  One
adaptive loop serves both domains: it splits a triangle into four congruent
children (a segment into two halves) and accepts when coarse and fine answers
agree componentwise; this is what resolves the boundary-layer exponentials at
strong coupling without hand-tuned meshes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NumericError

#: cells one adaptive integral may split before it gives up
_MAX_CELLS = 400_000


@lru_cache(maxsize=None)
def _gauss01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights transplanted from [-1,1] to [0,1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=None)
def duffy_rule(n: int = 6) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature rule on the reference triangle {x,y >= 0, x+y <= 1}.

    Returns (points (n*n, 2), weights (n*n,)); weights sum to 1/2.
    """
    u, wu = _gauss01(n)
    v, wv = _gauss01(n)
    U, V = np.meshgrid(u, v, indexing="ij")
    WU, WV = np.meshgrid(wu, wv, indexing="ij")
    pts = np.column_stack([(U * (1.0 - V)).ravel(), (U * V).ravel()])
    wts = (WU * WV * U).ravel()
    return pts, wts


def _map_to_triangle(verts: np.ndarray, ref_pts: np.ndarray) -> tuple[np.ndarray, float]:
    """Map reference-triangle points into the physical triangle `verts` (3,2)."""
    p0, p1, p2 = verts
    e1 = p1 - p0
    e2 = p2 - p0
    jac = abs(e1[0] * e2[1] - e1[1] * e2[0])
    pts = p0 + np.outer(ref_pts[:, 0], e1) + np.outer(ref_pts[:, 1], e2)
    return pts, jac


def triangle_apply(f, verts: np.ndarray, n: int = 6) -> np.ndarray:
    """One-shot rule on a single triangle; returns the vector of integrals."""
    ref_pts, ref_wts = duffy_rule(n)
    pts, jac = _map_to_triangle(np.asarray(verts, dtype=float), ref_pts)
    vals = np.atleast_2d(np.asarray(f(pts), dtype=float))
    if vals.shape[0] != pts.shape[0]:
        vals = vals.T
    return jac * (ref_wts @ vals)


def _children(verts: np.ndarray) -> list[np.ndarray]:
    """Uniform 4-way split through edge midpoints."""
    p0, p1, p2 = verts
    m01 = 0.5 * (p0 + p1)
    m12 = 0.5 * (p1 + p2)
    m20 = 0.5 * (p2 + p0)
    return [
        np.array([p0, m01, m20]),
        np.array([m01, p1, m12]),
        np.array([m20, m12, p2]),
        np.array([m01, m12, m20]),
    ]


def _adaptive(rule, split, cell, tol: float, max_depth: int, what: str) -> np.ndarray:
    """Shared subdivision loop: split each popped cell, accept when the coarse
    rule and the summed children agree to `tol` relative to the running
    magnitude of each component, else push the children.  Raises NumericError
    once _MAX_CELLS cells have been split."""
    coarse0 = np.atleast_1d(rule(cell))
    total = np.zeros_like(coarse0)
    scale = np.maximum(np.abs(coarse0), 1e-300)
    stack = [(cell, coarse0, 0)]
    cells = 0
    while stack:
        cell, coarse, depth = stack.pop()
        cells += 1
        if cells > _MAX_CELLS:
            raise NumericError(
                f"adaptive {what} quadrature exceeded {_MAX_CELLS} cells "
                f"(tol={tol:g}); integrand too rough for this tolerance"
            )
        kids = split(cell)
        fine_parts = [np.atleast_1d(rule(k)) for k in kids]
        fine = sum(fine_parts)
        scale = np.maximum(scale, np.abs(fine))
        err = np.abs(fine - coarse)
        if depth >= max_depth or np.all(err <= tol * np.maximum(scale, 1e-300)):
            total += fine
        else:
            stack.extend((k, part, depth + 1) for k, part in zip(kids, fine_parts))
    return total if total.size > 1 else total[0]


def triangle_integrate(f, verts, n: int = 6, tol: float = 1e-12, max_depth: int = 26) -> np.ndarray:
    """Adaptive integral of a vector-valued integrand over one triangle."""
    return _adaptive(lambda cell: triangle_apply(f, cell, n), _children,
                     np.asarray(verts, dtype=float), tol, max_depth, "triangle")


def segment_apply(f, p0, p1, n: int = 8) -> np.ndarray:
    """One-shot Gauss rule on the segment p0 -> p1 for vector integrands."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    x, w = _gauss01(n)
    pts = p0 + np.outer(x, p1 - p0)
    length = float(np.hypot(*(p1 - p0)))
    vals = np.atleast_2d(np.asarray(f(pts), dtype=float))
    if vals.shape[0] != pts.shape[0]:
        vals = vals.T
    return length * (w @ vals)


def _halves(seg):
    a, b = seg
    mid = 0.5 * (a + b)
    return [(a, mid), (mid, b)]


def segment_integrate(f, p0, p1, n: int = 8, tol: float = 1e-12, max_depth: int = 40) -> np.ndarray:
    """Adaptive bisection counterpart of segment_apply."""
    seg = (np.asarray(p0, dtype=float), np.asarray(p1, dtype=float))
    return _adaptive(lambda s: segment_apply(f, s[0], s[1], n), _halves,
                     seg, tol, max_depth, "segment")
