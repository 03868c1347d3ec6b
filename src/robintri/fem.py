"""P1 finite elements for the Robin eigenvalue on a triangle.

Structured meshes: refinement level n slices the triangle into 4^n congruent
affine copies ((2^n+1)(2^n+2)/2 nodes), so Richardson extrapolation in the
mesh size is clean and the discrete ground energy decreases monotonically
toward the true one from above (conforming elements).  Every mesh of a level
is an affine image of one unit lattice, so assembly is a weighted sum of
reference matrices built once per level (see assemble), and the weights'
(a, c)-derivatives give exact eigenvalue derivatives (Nelson's method).

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

from .errors import DomainError, NumericError, ResourceError
from .geometry import TriangleParams, as_geometry, c0

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


@dataclass(frozen=True)
class _Lattice:
    """The level-n mesh in unit lattice coordinates and its reference matrices
    as data over one CSR pattern, the union of the element and boundary
    couplings.  The arrays are read-only."""

    unit: np.ndarray            # (N, 2) lattice coordinates (i/n, j/n)
    elements: np.ndarray
    boundary_edges: np.ndarray
    boundary_labels: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    stiffness: np.ndarray       # (3, nnz) K_xixi, K_xieta + K_etaxi, K_etaeta
    mass: np.ndarray            # (nnz,) M_lat, the P1 mass in lattice coordinates
    sides: sp.csc_matrix        # (nnz, 3) B_k, side k's 1-D P1 mass in its unit parameter

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        n = len(self.indptr) - 1
        return sp.csr_matrix((data, self.indices.copy(), self.indptr.copy()), shape=(n, n))


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

    # pattern slot of every element and edge entry; only the sums are kept
    size = len(unit)
    keys = np.concatenate([
        np.repeat(elements, 3, axis=1).ravel() * size + np.tile(elements, (1, 3)).ravel(),
        np.repeat(edges, 2, axis=1).ravel() * size + np.tile(edges, (1, 2)).ravel(),
    ])
    uniq, slots = np.unique(keys, return_inverse=True)
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(np.bincount(uniq // size, minlength=size), out=indptr[1:])
    element_slots, edge_slots = np.split(slots.ravel(), [9 * len(elements)])

    def summed(values):
        return np.bincount(element_slots, weights=values.ravel(), minlength=len(uniq))

    # hat gradients via the opposite-edge normals b, c (integer lattice
    # coordinates); K_e = (b b^T + c c^T) / (4 area) with area 1/2
    p = unit[elements] * n
    b = np.roll(p[..., 1], -1, axis=1) - np.roll(p[..., 1], 1, axis=1)
    c = np.roll(p[..., 0], 1, axis=1) - np.roll(p[..., 0], -1, axis=1)
    bc = b[:, :, None] * c[:, None, :]
    stiffness = 0.5 * np.stack([summed(b[:, :, None] * b[:, None, :]),
                                summed(bc + bc.transpose(0, 2, 1)),
                                summed(c[:, :, None] * c[:, None, :])])
    mass = summed(np.tile(np.eye(3) + 1.0, (len(elements), 1))) / (24.0 * n * n)

    entries = np.tile([2.0, 1.0, 1.0, 2.0], len(edges)) / (6.0 * n)
    sides = sp.csc_matrix((entries, (edge_slots, np.repeat(labels, 4))), shape=(len(uniq), 3))
    return _Lattice(
        unit=_frozen(unit),
        elements=_frozen(elements),
        boundary_edges=_frozen(edges),
        boundary_labels=_frozen(labels),
        indptr=_frozen(indptr),
        indices=_frozen((uniq % size).astype(np.int32)),
        stiffness=_frozen(stiffness),
        mass=_frozen(mass),
        sides=sides,
    )


def build_mesh(tri, level: int) -> FemMesh:
    """Structured level-`level` mesh; raises ResourceError above MAX_LEVEL.

    The topology arrays are the cached lattice's own (read-only); the nodes
    are its unit coordinates mapped to v0 + xi (v1 - v0) + eta (v2 - v0).
    """
    geom = as_geometry(tri)
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


# jet rows: value, d/da, d/dc, d2/da2, d2/dadc, d2/dc2; row 3 + k
# differentiates along the first-derivative rows _SECOND[k]
_SECOND = ((1, 1), (1, 2), (2, 2))


def _invariant_jet(a: float, c: float, S: float) -> np.ndarray:
    """Jet (6, 4) of (|e1|^2, |e2|^2, |e2 - e1|^2, e1.e2) for Omega_{a,c}, where
    e1 = v1 - v0 = (2c, 0), e2 = v2 - v0 = (a + c, S/c) and |det J| = 2S is fixed."""
    t, tc, tcc = (S / c) ** 2, -2.0 * S * S / c**3, 6.0 * S * S / c**4  # b^2 and its c-derivatives
    return np.array([
        [4.0 * c * c, (a + c) ** 2 + t, (a - c) ** 2 + t, 2.0 * c * (a + c)],
        [0.0, 2.0 * (a + c), 2.0 * (a - c), 2.0 * c],
        [8.0 * c, 2.0 * (a + c) + tc, -2.0 * (a - c) + tc, 2.0 * a + 4.0 * c],
        [0.0, 2.0, 2.0, 0.0],
        [0.0, 2.0, -2.0, 2.0],
        [8.0, 2.0 + tcc, 2.0 + tcc, 4.0],
    ])


def _weights(jet: np.ndarray, det: float) -> tuple[np.ndarray, np.ndarray]:
    """Jets of the stiffness weights (H11, H12, H22) and of the side lengths.

    H = |det J| J^-1 J^-T = [[|e2|^2, -e1.e2], [-e1.e2, |e1|^2]] / |det J|, and
    side k (label order) has length sqrt(q_k), q_k the k-th invariant.
    """
    h = np.column_stack([jet[:, 1], -jet[:, 3], jet[:, 0]]) / det
    q = jet[:, :3]
    ell = np.sqrt(q[0])
    second = [q[3 + k] / (2.0 * ell) - q[x] * q[y] / (4.0 * ell**3)
              for k, (x, y) in enumerate(_SECOND)]
    return h, np.array([ell, q[1] / (2.0 * ell), q[2] / (2.0 * ell), *second])


def assemble(mesh: FemMesh, alpha: float) -> FemSystem:
    """Stiffness, boundary mass and mass (CSR, one shared pattern) of a lattice mesh:
    K = H11 K_xixi + H12 (K_xieta + K_etaxi) + H22 K_etaeta, M = |det J| M_lat and
    B = sum_k l_k B_k, with J = [v1 - v0, v2 - v0] and the side lengths l_k read
    from the corner nodes (lattice ids 0, 2^level and the last node).  A mesh whose
    topology is not the lattice's, or whose nodes are not its image, raises DomainError.
    """
    if not (math.isfinite(alpha) and alpha < 0.0):
        raise DomainError(f"alpha must be finite and strictly negative, got {alpha}")
    level = mesh.refinement_level
    lat = _lattice(level) if 0 <= level <= MAX_LEVEL else None
    if lat is None or len(mesh.nodes) != len(lat.unit) or not all(
            np.array_equal(getattr(mesh, f), getattr(lat, f))
            for f in ("elements", "boundary_edges", "boundary_labels")):
        raise DomainError(f"mesh topology is not that of the level-{level} lattice; "
                          "assemble only meshes from build_mesh")
    v0, v1, v2 = mesh.nodes[[0, 2**level, -1]]
    e1, e2 = v1 - v0, v2 - v0
    if np.abs(v0 + lat.unit @ np.stack([e1, e2]) - mesh.nodes).max() > (
            1e-12 * np.abs(mesh.nodes).max()):
        raise DomainError("mesh nodes are not an affine image of the lattice")
    det = abs(float(e1[0] * e2[1] - e1[1] * e2[0]))
    if not det > 1e-14 * float(e1 @ e1 + e2 @ e2):
        raise NumericError(f"degenerate triangle: |det J| = {det:g}")
    jet = np.zeros((6, 4))
    jet[0] = (e1 @ e1, e2 @ e2, (e2 - e1) @ (e2 - e1), e1 @ e2)
    h, ell = _weights(jet, det)
    return FemSystem(
        stiffness=lat.matrix(h[0] @ lat.stiffness),
        boundary_mass=lat.matrix(lat.sides @ ell[0]),
        mass=lat.matrix(det * lat.mass),
        alpha=float(alpha),
    )


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
    geom = as_geometry(tri)
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
    geom = as_geometry(tri)
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
    geom = as_geometry(tri)
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


def _settle(results, measure, settled):
    """Richardson-extrapolate measure(res) over the solved levels (4^gap - 1
    across skipped ones) until settled(previous, latest) holds.  Returns the
    solved levels, their measures, the extrapolations and whether they settled.
    """
    done, vals, extrs = [], [], []
    for res in results:
        done.append(res)
        vals.append(measure(res))
        if len(done) > 1:
            gap = done[-1].level - done[-2].level
            extrs.append(vals[-1] + (vals[-1] - vals[-2]) / (4.0**gap - 1.0))
            if len(extrs) > 1 and settled(extrs[-2], extrs[-1]):
                return done, vals, extrs, True
    if len(done) < 2:
        raise NumericError("fewer than two mesh levels certified")
    return done, vals, extrs, False


def eigenvalue_converged(
    tri,
    alpha: float,
    rel_tol: float = 1e-6,
    max_level: int = 9,
) -> EigenResult:
    """Refine from level 2 until the Richardson-extrapolated eigenvalue settles.

    lambda1 carries the extrapolated value, residual its error estimate (the
    change in the extrapolation over the last refinement), lambda2 the finest
    level's second eigenvalue.  If the level cap is hit first the best value
    is returned with converged=False.  Levels that fail to certify are listed
    in ``skipped``; the extrapolation then spans the level gap with the
    matching 4^gap factor.
    """
    if not (math.isfinite(rel_tol) and rel_tol >= 1e-8):
        raise DomainError(f"rel_tol must be finite and >= 1e-8, got {rel_tol}")
    if max_level > MAX_LEVEL:
        raise ResourceError(f"max_level {max_level} exceeds cap {MAX_LEVEL}")
    skipped: list[tuple[int, str]] = []
    done, vals, extrs, converged = _settle(
        walk_levels(tri, alpha, 2, max_level, skipped), lambda res: res.lambda1,
        lambda old, new: abs(new - old) <= rel_tol * abs(new))
    res = done[-1]
    return EigenResult(
        lambda1=extrs[-1],
        eigenvector=res.eigenvector,
        iterations=sum(r.iterations for r in done),
        residual=abs(extrs[-1] - extrs[-2]) if len(extrs) >= 2 else float("inf"),
        lambda2=res.lambda2,
        converged=converged,
        level=res.level if converged else max_level,
        history=tuple(vals),
        skipped=tuple(skipped),
    )


@dataclass(frozen=True)
class ShapeDerivatives:
    """Gradient and Hessian of (a, c) -> lambda1 at the equilateral point in
    jet-row order, extrapolated over mesh levels; converged says whether
    lambda1, hess_aa and hess_cc settled before the level cap."""

    lambda1: float
    grad_a: float
    grad_c: float
    hess_aa: float
    hess_ac: float
    hess_cc: float
    converged: bool
    skipped: tuple[tuple[int, str], ...] = ()


def _level_derivatives(lat: _Lattice, u: np.ndarray, alpha: float,
                       h: np.ndarray, ell: np.ndarray, det: float) -> np.ndarray:
    """Jet of one level's ground eigenvalue, given its eigenvector u.

    A(a, c) = sum_j h_j K_j + alpha sum_k l_k B_k and M is fixed, so with
    u^T M u = 1: lambda_x = u^T A_x u, and lambda_xy = u^T A_xy u + 2 u^T A_x u_y,
    where u_y solves the bordered system [[A - lambda M, M u], [u^T M, 0]]
    [u_y; mu] = [-(A_y - lambda_y M) u; 0] (Nelson, AIAA J. 14, 1976).
    """
    mass = lat.matrix(det * lat.mass)
    u = u / math.sqrt(float(u @ (mass @ u)))
    forms = [lat.matrix(h[k] @ lat.stiffness + alpha * (lat.sides @ ell[k])) for k in range(6)]
    au = [f @ u for f in forms]
    mu = mass @ u
    lam, lam_a, lam_c = (float(u @ au[k]) for k in range(3))
    bordered = sp.bmat([[forms[0] - lam * mass, mu[:, None]], [mu[None, :], None]], format="csc")
    rhs = np.vstack([np.outer(mu, [lam_a, lam_c]) - np.column_stack(au[1:3]), np.zeros(2)])
    du = splu(bordered).solve(rhs)[:-1]
    second = [float(u @ au[3 + k] + 2.0 * au[x] @ du[:, y - 1])
              for k, (x, y) in enumerate(_SECOND)]
    return np.array([lam, lam_a, lam_c, *second])


def shape_derivatives_at_equilateral(alpha: float, S: float) -> ShapeDerivatives:
    """Exact discrete gradient and Hessian of lambda1 in (a, c) at (0, c0(S)).

    One ladder, levels 2 to 8, differentiates each level's eigenvalue and
    extrapolates the jets like lambda1 until lambda1, hess_aa and hess_cc
    settle to 1e-6 relative.
    """
    cc = c0(S)
    h, ell = _weights(_invariant_jet(0.0, cc, S), 2.0 * S)
    watched = [0, 3, 5]  # lambda1, hess_aa, hess_cc
    skipped: list[tuple[int, str]] = []
    _, _, extrs, converged = _settle(
        walk_levels(TriangleParams(0.0, cc, S), alpha, 2, 8, skipped),
        lambda res: _level_derivatives(_lattice(res.level), res.eigenvector, alpha,
                                       h, ell, 2.0 * S),
        lambda old, new: bool(np.all(np.abs(new - old)[watched] <= 1e-6 * np.abs(new[watched]))))
    return ShapeDerivatives(*map(float, extrs[-1]), converged, tuple(skipped))
