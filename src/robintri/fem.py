"""P1 finite elements for the Robin eigenvalue on a triangle.

Structured meshes: refinement level n slices the triangle into 4^n congruent
affine copies ((2^n+1)(2^n+2)/2 nodes), so Richardson extrapolation in the
mesh size is clean and the discrete ground energy decreases monotonically
toward the true one from above (conforming elements).  Every triangle shares
one lattice per level: its topology, unit coordinates and the scatter map of
the element matrices onto one CSR pattern are built once per process, and
only the node coordinates are mapped affinely onto each triangle.

Each mesh level costs one sparse factorisation.  The shift starts at a warm
value from the coarser level (or the cold guess -2 alpha^2/sin^2(theta*/2) - 1)
and moves down until the factorisation's inertia certifies that no
eigenvalue lies below it.  Shift-invert Lanczos (ARPACK) on that same
factorisation then returns the two lowest eigenpairs, and the ground value's
residual is measured in the M^{-1} norm.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, LinearOperator, cg, eigsh, splu

from .equilateral import lambda0
from .errors import DomainError, NumericError, PrecisionError, ResourceError
from .geometry import TriangleGeometry, TriangleParams, c0, make_triangle

MAX_LEVEL = 10


@dataclass(frozen=True)
class FemMesh:
    nodes: np.ndarray          # (N, 2)
    elements: np.ndarray       # (M, 3) int
    boundary_edges: np.ndarray  # (E, 2) int, node pairs
    boundary_labels: np.ndarray  # (E,) int in {0, 1, 2}
    refinement_level: int


@dataclass(frozen=True)
class FemSystem:
    stiffness: sp.csr_matrix
    boundary_mass: sp.csr_matrix
    mass: sp.csr_matrix
    alpha: float


@dataclass(frozen=True)
class EigenResult:
    lambda1: float
    eigenvector: np.ndarray | None
    iterations: int
    residual: float
    lambda2: float | None = None
    converged: bool = True
    level: int | None = None
    history: tuple[float, ...] = ()
    skipped: tuple[tuple[int, str], ...] = ()  # (level, error text) per skipped level


def _as_geometry(tri) -> TriangleGeometry:
    if isinstance(tri, TriangleGeometry):
        return tri
    if isinstance(tri, TriangleParams):
        return make_triangle(tri.a, tri.c, tri.S)
    raise DomainError(f"expected TriangleParams or TriangleGeometry, got {type(tri)!r}")


@dataclass(frozen=True)
class _Scatter:
    """Where each element and boundary-edge matrix entry lands in one CSR pattern.

    The pattern is the union of the element and boundary couplings, so the
    stiffness, mass and boundary-mass matrices all share it.
    """

    indptr: np.ndarray
    indices: np.ndarray
    element_slots: np.ndarray  # (9 M,) pattern position of each element entry
    edge_slots: np.ndarray     # (4 E,) pattern position of each edge entry

    @classmethod
    def build(cls, elements: np.ndarray, edges: np.ndarray, n: int) -> _Scatter:
        elements = np.asarray(elements, dtype=np.int64)
        edges = np.asarray(edges, dtype=np.int64)
        keys = np.concatenate([
            np.repeat(elements, 3, axis=1).ravel() * n + np.tile(elements, (1, 3)).ravel(),
            np.repeat(edges, 2, axis=1).ravel() * n + np.tile(edges, (1, 2)).ravel(),
        ])
        uniq, slots = np.unique(keys, return_inverse=True)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(uniq // n, minlength=n), out=indptr[1:])
        split = 9 * len(elements)
        return cls(indptr, (uniq % n).astype(np.int32), slots[:split], slots[split:])

    def matrix(self, values: np.ndarray, slots: np.ndarray) -> sp.csr_matrix:
        """Sum per-entry values into the pattern (entries outside stay explicit zeros)."""
        n = len(self.indptr) - 1
        data = np.bincount(slots, weights=values, minlength=len(self.indices))
        return sp.csr_matrix((data, self.indices.copy(), self.indptr.copy()), shape=(n, n))


@dataclass(frozen=True)
class _Lattice:
    """Topology of the level-n mesh in unit lattice coordinates (read-only arrays)."""

    unit: np.ndarray            # (N, 2) lattice coordinates (i/n, j/n)
    elements: np.ndarray
    boundary_edges: np.ndarray
    boundary_labels: np.ndarray
    scatter: _Scatter


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=None)
def _lattice(level: int) -> _Lattice:
    """Lattice node (i, j), i + j <= n, numbered row by row in j; built on first use."""
    n = 2**level
    row_len = n + 1 - np.arange(n + 1)
    offset = np.concatenate([[0], np.cumsum(row_len)])
    jn = np.repeat(np.arange(n + 1), row_len)
    i_n = np.arange(len(jn)) - offset[jn]

    def ids(i, j):
        return offset[j] + i

    # cells (i, j) with i + j <= n - 1: an upward element each, and a downward
    # one unless the cell touches the slanted side; kept interleaved per cell
    jc = np.repeat(np.arange(n), n - np.arange(n))
    ic = np.arange(len(jc)) - (jc * n - jc * (jc - 1) // 2)
    up = np.stack([ids(ic, jc), ids(ic + 1, jc), ids(ic, jc + 1)], axis=1)
    down = np.stack([ids(ic + 1, jc), ids(ic + 1, jc + 1), ids(ic, jc + 1)], axis=1)
    keep = np.stack([np.ones(len(jc), dtype=bool), ic + jc <= n - 2], axis=1)
    elements = np.stack([up, down], axis=1)[keep].astype(np.int64)

    k = np.arange(n)
    edges = np.concatenate([
        np.stack([ids(k, 0), ids(k + 1, 0)], axis=1),
        np.stack([ids(0, k), ids(0, k + 1)], axis=1),
        np.stack([ids(n - k, k), ids(n - k - 1, k + 1)], axis=1),
    ]).astype(np.int64)
    labels = np.repeat(np.arange(3, dtype=np.int64), n)
    unit = np.stack([i_n / n, jn / n], axis=1)
    return _Lattice(
        unit=_frozen(unit),
        elements=_frozen(elements),
        boundary_edges=_frozen(edges),
        boundary_labels=_frozen(labels),
        scatter=_Scatter.build(elements, edges, len(unit)),
    )


def build_mesh(tri, level: int) -> FemMesh:
    """Structured level-`level` mesh; raises ResourceError above MAX_LEVEL.

    The topology arrays are the cached lattice's own (read-only); the nodes
    are its unit coordinates mapped to v0 + xi (v1 - v0) + eta (v2 - v0).
    """
    geom = _as_geometry(tri)
    if level < 0:
        raise DomainError(f"refinement level must be >= 0, got {level}")
    if level > MAX_LEVEL:
        raise ResourceError(
            f"refinement level {level} exceeds the cap {MAX_LEVEL} "
            f"({(2**level + 1) * (2**level + 2) // 2} nodes)"
        )
    lat = _lattice(level)
    v = geom.vertex_array()
    nodes = v[0] + lat.unit[:, :1] * (v[1] - v[0]) + lat.unit[:, 1:] * (v[2] - v[0])
    return FemMesh(
        nodes=nodes,
        elements=lat.elements,
        boundary_edges=lat.boundary_edges,
        boundary_labels=lat.boundary_labels,
        refinement_level=level,
    )


def dump_mesh(mesh: FemMesh, path: str) -> None:
    """Plain-text node / element / boundary-edge listing for debugging."""
    with open(path, "w") as fh:
        fh.write(f"# level {mesh.refinement_level}\n")
        fh.write(f"nodes {len(mesh.nodes)}\n")
        for x, y in mesh.nodes:
            fh.write(f"{x:.17g} {y:.17g}\n")
        fh.write(f"elements {len(mesh.elements)}\n")
        for tri in mesh.elements:
            fh.write(f"{tri[0]} {tri[1]} {tri[2]}\n")
        fh.write(f"boundary_edges {len(mesh.boundary_edges)}\n")
        for (i, j), lab in zip(mesh.boundary_edges, mesh.boundary_labels):
            fh.write(f"{i} {j} {lab}\n")


def _scatter_for(mesh: FemMesh) -> _Scatter:
    """The cached lattice map when the mesh carries the lattice's topology."""
    if 0 <= mesh.refinement_level <= MAX_LEVEL:
        lat = _lattice(mesh.refinement_level)
        if mesh.elements is lat.elements and mesh.boundary_edges is lat.boundary_edges:
            return lat.scatter
    return _Scatter.build(mesh.elements, mesh.boundary_edges, len(mesh.nodes))


def assemble(mesh: FemMesh, alpha: float) -> FemSystem:
    """Assemble stiffness, boundary mass and mass matrices (CSR, one shared pattern)."""
    if not (math.isfinite(alpha) and alpha < 0.0):
        raise DomainError(f"alpha must be finite and strictly negative, got {alpha}")
    pts = mesh.nodes
    el = mesh.elements
    p0, p1, p2 = pts[el[:, 0]], pts[el[:, 1]], pts[el[:, 2]]
    det = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (p2[:, 0] - p0[:, 0]) * (
        p1[:, 1] - p0[:, 1]
    )
    area = 0.5 * np.abs(det)
    total = float(area.sum())
    if np.any(area < 1e-14 * total):
        raise NumericError(
            f"degenerate element: min area {area.min():g} vs total {total:g}"
        )

    # hat-function gradients via the opposite-edge normals
    bvec = np.stack(
        [p1[:, 1] - p2[:, 1], p2[:, 1] - p0[:, 1], p0[:, 1] - p1[:, 1]], axis=1
    )
    cvec = np.stack(
        [p2[:, 0] - p1[:, 0], p0[:, 0] - p2[:, 0], p1[:, 0] - p0[:, 0]], axis=1
    )
    scatter = _scatter_for(mesh)
    ke = (
        bvec[:, :, None] * bvec[:, None, :] + cvec[:, :, None] * cvec[:, None, :]
    ) / (4.0 * area)[:, None, None]
    stiff = scatter.matrix(ke.ravel(), scatter.element_slots)

    me = np.tile(np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0, (len(el), 1, 1))
    me *= area[:, None, None]
    mass = scatter.matrix(me.ravel(), scatter.element_slots)

    be = mesh.boundary_edges
    q0, q1 = pts[be[:, 0]], pts[be[:, 1]]
    lengths = np.hypot(*(q1 - q0).T)
    edge_local = np.tile(np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0, (len(be), 1, 1))
    edge_local *= lengths[:, None, None]
    bmass = scatter.matrix(edge_local.ravel(), scatter.edge_slots)

    return FemSystem(stiffness=stiff, boundary_mass=bmass, mass=mass, alpha=float(alpha))


def _power_iterate(lu, A, M, x0, sigma: float):
    """Shift-invert Lanczos on the factorisation lu of A - sigma*M.

    Returns the two eigenvalues of the pencil (A, M) nearest sigma in
    ascending order, their M-orthonormal eigenvectors as columns, and the
    number of lu.solve calls.  ARPACK runs at full precision (tol=0): a
    looser tolerance can return a wrong second eigenvalue.
    """
    n = A.shape[0]
    if n <= 3:  # ARPACK needs k < n - 1
        vals, vecs = scipy.linalg.eigh(A.toarray(), M.toarray())
        return vals[:2], vecs[:, :2], 0
    solves = 0

    def solve(b):
        nonlocal solves
        solves += 1
        return lu.solve(b)

    try:
        vals, vecs = eigsh(A, k=2, M=M, sigma=sigma, v0=x0, tol=0,
                           OPinv=LinearOperator((n, n), matvec=solve, dtype=float))
    except ArpackError as exc:
        raise NumericError(f"shift-invert Lanczos failed at shift {sigma:g}: {exc}") from exc
    order = np.argsort(vals)
    return vals[order], vecs[:, order], solves


def _factor_counting(A, M, sigma: float):
    """Factor A - sigma*M without row pivoting and read off its inertia.

    With symmetric-mode elimination the U diagonal carries the pivot signs,
    so the number of negative entries equals the number of eigenvalues of the
    pencil below sigma.  That gives a certificate that a shift sits under the
    whole spectrum (count zero), which the ground-state solve needs.  The
    count is an inertia only under a symmetric permutation, so any other
    factorisation raises NumericError.
    """
    lu = splu(
        (A - sigma * M).tocsc(),
        diag_pivot_thresh=0.0,
        permc_spec="MMD_AT_PLUS_A",
        options=dict(SymmetricMode=True),
    )
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise NumericError(
            f"factorisation at shift {sigma:g} pivoted off the diagonal; "
            "its U-diagonal signs are not an inertia count"
        )
    return lu, int((lu.U.diagonal() < 0.0).sum())


def _minv_norm(M, r: np.ndarray) -> float:
    """sqrt(r^T M^{-1} r) for the SPD mass matrix, by Jacobi-preconditioned CG."""
    z, info = cg(M, r, rtol=1e-13, atol=0.0, M=sp.diags(1.0 / M.diagonal()))
    if info != 0:
        raise NumericError(f"mass-matrix solve for the residual did not converge (info {info})")
    return math.sqrt(max(float(r @ z), 0.0))


def lowest_eigenpair(system: FemSystem, tri, sigma0: float | None = None) -> EigenResult:
    """Ground eigenpair, and lambda2, of K + alpha*B against M on the assembled mesh.

    The shift starts at -2 alpha^2/sin^2(theta*/2) - 1 (callers that already
    know the eigenvalue from a coarser mesh pass a warm sigma0 instead) and
    moves down until the factorisation's inertia count shows no eigenvalue
    below it.  Shift-invert Lanczos on that one certified factorisation
    converges onto the lowest eigenvalues, which matters on flat triangles
    where corner-localised ground and excited states are both nearly positive
    and sign inspection cannot tell them apart.
    """
    geom = _as_geometry(tri)
    alpha = system.alpha
    A = (system.stiffness + alpha * system.boundary_mass).tocsc()
    M = system.mass.tocsr()
    n = A.shape[0]
    sigma = sigma0 if sigma0 is not None else (
        -2.0 * (alpha / math.sin(0.5 * geom.theta_star)) ** 2 - 1.0
    )
    ones = np.ones(n)
    # Start vector: constant plus a fixed asymmetric ripple.  The ripple keeps
    # a usable overlap with antisymmetric ground states (symmetric meshes of
    # isosceles triangles produce them), which a pure constant start misses.
    x0 = ones + 0.01 * (np.arange(n) % 11 - 5.0)
    # Rayleigh quotient of the constant vector (it lies in the P1 space): an
    # exact upper bound on the discrete ground value at every level, so a
    # shift at or above it cannot be certified.
    ub = float(ones @ (A @ ones)) / float(ones @ (M @ ones))
    if sigma >= ub:
        sigma = ub - 0.05 * max(1.0, abs(ub))
    for _ in range(80):
        try:
            lu, neg = _factor_counting(A, M, sigma)
            if neg == 0:
                break
        except NumericError:
            raise
        except RuntimeError:
            pass  # singular factorisation: sigma sits on an eigenvalue
        sigma = 2.0 * sigma - 1.0
    else:
        raise NumericError(f"no shift below the spectrum found (last {sigma:g})")
    vals, vecs, solves = _power_iterate(lu, A, M, x0, sigma)
    lam, vec = float(vals[0]), vecs[:, 0]
    if float(vec.sum()) < 0.0:
        vec = -vec
    return EigenResult(
        lambda1=lam,
        eigenvector=vec,
        iterations=solves,
        residual=_minv_norm(M, A @ vec - lam * (M @ vec)),
        lambda2=float(vals[1]),
        level=None,
    )


def solve_at_level(tri, alpha: float, level: int, sigma0: float | None = None) -> EigenResult:
    geom = _as_geometry(tri)
    mesh = build_mesh(geom, level)
    system = assemble(mesh, alpha)
    res = lowest_eigenpair(system, geom, sigma0=sigma0)
    return replace(res, level=level)


def walk_levels(tri, alpha: float, min_level: int, max_level: int,
                skipped: list[tuple[int, str]]):
    """Yield the certified solve of each level from min_level to max_level.

    Each level starts from a warm shift a bit below the value just found,
    padded by the observed level-to-level movement.  A level whose solve
    raises NumericError (tight but not-yet-degenerate pairs do this on very
    flat triangles) is appended to ``skipped`` as (level, error text), and
    the next level starts from the cold shift again.  Callers stop the walk
    by leaving the loop.
    """
    geom = _as_geometry(tri)
    sigma0 = None
    prev = None
    for level in range(min_level, max_level + 1):
        try:
            res = solve_at_level(geom, alpha, level, sigma0=sigma0)
        except NumericError as exc:
            skipped.append((level, str(exc)))
            sigma0 = None
            continue
        yield res
        lam = res.lambda1
        drop = 2.0 * abs(lam - prev) if prev is not None else 0.1 * abs(lam)
        sigma0 = lam - drop - 0.02 * abs(lam) - 1.0
        prev = lam


def eigenvalue_converged(
    tri,
    alpha: float,
    rel_tol: float = 1e-6,
    abs_tol: float | None = None,
    min_level: int = 2,
    max_level: int = 9,
) -> EigenResult:
    """Refine until the Richardson-extrapolated eigenvalue settles.

    lambda1 carries the extrapolated value, residual its error estimate (the
    change in the extrapolation over the last refinement), lambda2 the finest
    level's second eigenvalue.  If the level cap is hit first the best value
    is returned with converged=False.  Levels that fail to certify are listed
    in ``skipped``; the extrapolation then spans the level gap with the
    matching 4^gap factor.
    """
    if rel_tol < 1e-8:
        raise DomainError(f"rel_tol below the supported floor 1e-8: {rel_tol}")
    if max_level > MAX_LEVEL:
        raise ResourceError(f"max_level {max_level} exceeds cap {MAX_LEVEL}")
    vals: list[float] = []
    lev_ids: list[int] = []
    extrs: list[float] = []
    skipped: list[tuple[int, str]] = []
    iters = 0
    res = None
    converged = False
    for res in walk_levels(tri, alpha, min_level, max_level, skipped):
        iters += res.iterations
        vals.append(res.lambda1)
        lev_ids.append(res.level)
        if len(vals) < 2:
            continue
        span = 4.0 ** (lev_ids[-1] - lev_ids[-2]) - 1.0
        extrs.append(vals[-1] + (vals[-1] - vals[-2]) / span)
        if len(extrs) < 2:
            continue
        err = abs(extrs[-1] - extrs[-2])
        converged = err <= abs_tol if abs_tol is not None else err <= rel_tol * abs(extrs[-1])
        if converged:
            break
    if len(vals) < 2:
        raise NumericError(
            f"fewer than two mesh levels certified up to level {max_level}"
        )
    return EigenResult(
        lambda1=extrs[-1],
        eigenvector=res.eigenvector,
        iterations=iters,
        residual=abs(extrs[-1] - extrs[-2]) if len(extrs) >= 2 else float("inf"),
        lambda2=res.lambda2,
        converged=converged,
        level=res.level if converged else max_level,
        history=tuple(vals),
        skipped=tuple(skipped),
    )


@dataclass(frozen=True)
class FdDerivatives:
    """Central differences of the FEM eigenvalue around the equilateral point."""

    grad_a: float
    grad_c: float
    hess_aa: float
    hess_cc: float
    hess_ac: float
    lambda_center: float
    h: float
    fem_error_estimate: float


def fd_derivatives_at_equilateral(
    alpha: float,
    S: float,
    h: float | None = None,
    rel_tol: float = 1e-8,
    max_level: int = 9,
) -> FdDerivatives:
    """Gradient and Hessian of (a, c) -> lambda1 at (0, c0(S)) by 3x3 stencil.

    Each eigenvalue is converged in absolute terms to a small fraction of the
    h^2 scale; if that cannot be certified the PrecisionError names the
    achieved estimate so the caller can enlarge h or the level cap.
    """
    cc = c0(S)
    if h is None:
        h = 1e-3 * cc
    if not (0.0 < h < 0.5 * cc):
        raise DomainError(f"stencil width h={h} out of range for c0={cc}")
    lam0 = lambda0(alpha, S)
    guard = 0.01 * h * h * abs(lam0)
    vals: dict[tuple[int, int], float] = {}
    worst = 0.0
    for ia in (-1, 0, 1):
        for ic in (-1, 0, 1):
            tri = TriangleParams(ia * h, cc + ic * h, S)
            res = eigenvalue_converged(
                tri, alpha, rel_tol=rel_tol, abs_tol=guard / 4.0, max_level=max_level
            )
            worst = max(worst, res.residual)
            if not res.converged or res.residual > guard:
                raise PrecisionError(
                    f"FEM error estimate {res.residual:g} exceeds the stencil "
                    f"guard {guard:g} at offset ({ia}, {ic}); refine further or "
                    f"enlarge h"
                )
            vals[(ia, ic)] = res.lambda1
    f = vals
    grad_a = (f[(1, 0)] - f[(-1, 0)]) / (2.0 * h)
    grad_c = (f[(0, 1)] - f[(0, -1)]) / (2.0 * h)
    hess_aa = (f[(1, 0)] - 2.0 * f[(0, 0)] + f[(-1, 0)]) / (h * h)
    hess_cc = (f[(0, 1)] - 2.0 * f[(0, 0)] + f[(0, -1)]) / (h * h)
    hess_ac = (f[(1, 1)] - f[(1, -1)] - f[(-1, 1)] + f[(-1, -1)]) / (4.0 * h * h)
    return FdDerivatives(
        grad_a=grad_a,
        grad_c=grad_c,
        hess_aa=hess_aa,
        hess_cc=hess_cc,
        hess_ac=hess_ac,
        lambda_center=f[(0, 0)],
        h=h,
        fem_error_estimate=worst,
    )
