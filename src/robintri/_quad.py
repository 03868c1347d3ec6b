"""Quadrature helpers for triangles and segments.

Everything here is built on Gauss-Legendre nodes from numpy.  Triangle rules
use the Duffy (collapsed square) construction: a tensor rule on [0,1]^2 mapped
by (u, v) -> (u*(1-v), u*v) with Jacobian u, which integrates bivariate
polynomials of total degree <= 2n-2 exactly when each factor uses n nodes.
The default n=6 therefore handles degree 10.

Integrands are vector-valued callables f(pts) -> (npts,) or (npts, m) so that
several moments (|grad|^2 components, u^2, ...) share one set of evaluations.
The rules are batched: triangle_apply takes a stack of triangles and
segment_apply stacks of endpoints, and each calls f once on the points of
every cell in the stack.

One adaptive loop serves both domains, vectorised over open cells in the
manner of Shampine's quadgk (J. Comput. Appl. Math. 211, 2008).  The cells it
is given, its roots (one triangle, or segment_integrate's m segments), start
one integral with one total and one cell budget.  Each pass pops a batch of
cells off a LIFO stack, splits every one of them (a triangle into four
congruent children, a segment into two halves), evaluates all the children
with one rule call and accepts a cell when its coarse and fine answers agree
componentwise; the children of the cells that fail go back on the stack as
one chunk.  A batch is bounded by evaluation points, not cells, so a
high-order rule costs no more memory per call than a low-order one.  This is
what resolves the boundary-layer exponentials at strong coupling without
hand-tuned meshes.  With 40-point cells the sector field's three side norms,
one integral that shares its rule calls, take 3.5 calls on the benchmark's
grid and 5.8 on average over a survey of 6000 flat and strong-coupling
cells.  Such a call evaluates a few hundred points, so a pass costs its
small array operations more than its arithmetic: a pass whose open cells are
one chunk within the batch takes that chunk as it stands, one whose cells all
converge pushes nothing, and segment nodes are formed coordinate by
coordinate.  On that grid the side norms take about 100 of a sector cell's
115 us on one core of a 2-core machine.  Each root keeps its own running
magnitude: on a flat triangle the Gauss nodes of one long side can miss a
layer 1e-4 wide that the other side has found, and against that side's mass
the miss would pass for converged.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NumericError

#: cells one adaptive integral may split before it gives up
_MAX_CELLS = 400_000
#: subdivision depth at which a triangle / segment cell is accepted as is
_MAX_DEPTH_TRIANGLE = 26
_MAX_DEPTH_SEGMENT = 40
#: evaluation points one batched rule call of the adaptive loop may use (a
#: batch always takes at least one cell)
_MAX_POINTS = 2**15


@lru_cache(maxsize=None)
def _gauss01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights transplanted from [-1,1] to [0,1].

    The nodes are NumPy's.  NumPy's weights lose about n^2 eps (7e-13
    relative at n = 40), so each weight is formed again as
    2 / ((1 - x)(1 + x) P_n'(x)^2), with P_n' from the three-term recurrence
    (N. Hale and A. Townsend, SIAM J. Sci. Comput. 35, 2013): 3e-14 at n = 40.
    """
    x, _ = np.polynomial.legendre.leggauss(n)
    p_prev, p = np.ones_like(x), x
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    one_minus_sq = (1.0 - x) * (1.0 + x)
    dp = n * (p_prev - x * p) / one_minus_sq
    return 0.5 * (x + 1.0), 1.0 / (one_minus_sq * dp * dp)


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


def _weighted_sums(f, pts: np.ndarray, wts: np.ndarray) -> np.ndarray:
    """Evaluate f once on points (m, k, 2); return the wts-weighted sum per row, (m, c)."""
    m, k, _ = pts.shape
    vals = np.asarray(f(pts.reshape(m * k, 2)), dtype=float)
    if vals.shape[0] != m * k:
        raise ValueError(f"integrand returned shape {vals.shape} for {m * k} points")
    return np.einsum("k,mkc->mc", wts, vals.reshape(m, k, -1))


def triangle_apply(f, cells: np.ndarray, n: int = 6) -> np.ndarray:
    """Duffy rule on each triangle of the stack `cells` (m, 3, 2), with one
    call of f on all m*n*n points; returns the integrals as (m, c)."""
    ref_pts, ref_wts = duffy_rule(n)
    cells = np.asarray(cells, dtype=float)
    p0 = cells[:, None, 0]
    e1 = cells[:, None, 1] - p0
    e2 = cells[:, None, 2] - p0
    jac = np.abs(e1[:, 0, 0] * e2[:, 0, 1] - e1[:, 0, 1] * e2[:, 0, 0])
    pts = p0 + ref_pts[:, 0, None] * e1 + ref_pts[:, 1, None] * e2
    return jac[:, None] * _weighted_sums(f, pts, ref_wts)


def segment_apply(f, p0, p1, n: int = 8) -> np.ndarray:
    """Gauss rule on each segment p0[i] -> p1[i] of two endpoint stacks (m, 2),
    with one call of f on all m*n points; returns the integrals as (m, c)."""
    p0 = np.asarray(p0, dtype=float)
    d = np.asarray(p1, dtype=float) - p0
    x, w = _gauss01(n)
    # the nodes one coordinate at a time, (m, 2, n), so that each product runs
    # along n; f gets them as the points (m, n, 2) of the transposed view
    pts = np.multiply.outer(d, x)
    pts += p0[:, :, None]
    return np.hypot(d[:, 0], d[:, 1])[:, None] * _weighted_sums(f, pts.transpose(0, 2, 1), w)


def _children(cells: np.ndarray) -> np.ndarray:
    """Uniform 4-way split of each triangle (m, 3, 2) through its edge
    midpoints; the four children of a cell are consecutive in (4m, 3, 2)."""
    p0, p1, p2 = cells[:, 0], cells[:, 1], cells[:, 2]
    m01 = 0.5 * (p0 + p1)
    m12 = 0.5 * (p1 + p2)
    m20 = 0.5 * (p2 + p0)
    kids = np.stack([p0, m01, m20, m01, p1, m12, m20, m12, p2, m01, m12, m20], axis=1)
    return kids.reshape(-1, 3, 2)


def _halves(segs: np.ndarray) -> np.ndarray:
    """Bisect each segment (m, 2, 2); the two halves of a cell are consecutive."""
    mid = 0.5 * (segs[:, 0] + segs[:, 1])
    halves = segs.repeat(2, axis=0)
    halves[0::2, 1] = mid
    halves[1::2, 0] = mid
    return halves


def _finite(vals: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(vals).all():
        raise NumericError(f"adaptive {what} quadrature: the integrand is not finite")
    return vals


def _pop(stack: list, size: int) -> tuple[np.ndarray, ...]:
    """Take up to `size` cells, with their coarse values, depths and roots,
    off the top of a stack of (cells, coarse, depth, root) chunks: the cells a
    stack of single cells would pop one at a time, in that order."""
    taken = []
    while stack and size > 0:
        chunk = stack.pop()
        if len(chunk[0]) > size:
            stack.append(tuple(a[:-size] for a in chunk))
            chunk = tuple(a[-size:] for a in chunk)
        taken.append(chunk)
        size -= len(chunk[0])
    if len(taken) == 1:
        return taken[0]
    return tuple(np.concatenate(parts) for parts in zip(*taken))


def _adaptive(rule, split, roots: np.ndarray, batch: int, tol: float, max_depth: int,
              what: str):
    """Shared subdivision loop: the integral of f over the union of the cells
    `roots`, as a float for a scalar integrand and (c,) for c components.

    Each pass pops up to `batch` open cells off the LIFO stack and evaluates
    all their children with one rule call.  A cell is accepted when its
    coarse value and the sum of its children agree to `tol` relative to its
    root's running magnitude of each component (the largest |value| of any
    cell of that root so far), or at max_depth; the children of the other
    cells are pushed.  Raises NumericError as soon as a rule value is not
    finite, and once more than _MAX_CELLS cells, counted over all the roots,
    would split."""
    coarse0 = _finite(rule(roots), what)
    total = np.zeros(coarse0.shape[1])
    scale = np.maximum(np.abs(coarse0), 1e-300)
    stack = [(roots, coarse0, np.zeros(len(roots), dtype=int), np.arange(len(roots)))]
    cells = passes = 0
    while stack:
        if len(stack) == 1 and len(stack[0][0]) <= batch:
            cell, coarse, depth, root = stack.pop()
        else:
            cell, coarse, depth, root = _pop(stack, batch)
        cells += len(cell)
        if cells > _MAX_CELLS:
            raise NumericError(
                f"adaptive {what} quadrature exceeded {_MAX_CELLS} cells "
                f"(tol={tol:g}); integrand too rough for this tolerance"
            )
        kids = split(cell)
        parts = _finite(rule(kids), what)
        fine = parts.reshape(len(cell), -1, parts.shape[1]).sum(axis=1)
        np.maximum.at(scale, root, np.abs(fine))
        done = (np.abs(fine - coarse) <= tol * scale[root]).all(axis=1)
        # a cell of pass p has depth <= p, so no cell reaches max_depth sooner
        if passes >= max_depth:
            done |= depth >= max_depth
        passes += 1
        if done.all():
            total += fine.sum(axis=0)
            continue
        total += fine[done].sum(axis=0)
        per_cell, left = len(kids) // len(cell), ~done
        keep = left.repeat(per_cell)
        stack.append((kids[keep], parts[keep], (depth[left] + 1).repeat(per_cell),
                      root[left].repeat(per_cell)))
    return total if len(total) > 1 else total[0]


def triangle_integrate(f, verts, n: int = 6, tol: float = 1e-12) -> np.ndarray:
    """Adaptive integral of a vector-valued integrand over one triangle."""
    return _adaptive(lambda cells: triangle_apply(f, cells, n), _children,
                     np.asarray(verts, dtype=float)[None], max(1, _MAX_POINTS // (4 * n * n)),
                     tol, _MAX_DEPTH_TRIANGLE, "triangle")


def segment_integrate(f, p0, p1, n: int = 8, tol: float = 1e-12) -> np.ndarray:
    """Adaptive bisection counterpart of segment_apply.

    p0 and p1 are one pair of endpoints (2,), or two stacks (m, 2) of the m
    segments p0[i] -> p1[i]; a stack gives the integral over all m segments
    as one adaptive integral, a float or (c,) like one segment's.  ValueError,
    before f is called, for endpoints of any other shape."""
    p0, p1 = np.asarray(p0, dtype=float), np.asarray(p1, dtype=float)
    if not (p0.shape == p1.shape and p0.shape[-1:] == (2,) and p0.ndim in (1, 2)
            and p0.size > 0):
        raise ValueError(f"segment endpoints must be two points (2,) or two stacks (m, 2) "
                         f"of equal length m >= 1, got shapes {p0.shape} and {p1.shape}")
    return _adaptive(lambda segs: segment_apply(f, segs[:, 0], segs[:, 1], n), _halves,
                     np.concatenate((p0, p1), axis=-1).reshape(-1, 2, 2),
                     max(1, _MAX_POINTS // (2 * n)), tol, _MAX_DEPTH_SEGMENT, "segment")
