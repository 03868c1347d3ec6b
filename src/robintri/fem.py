"""P1 finite elements for the Robin eigenvalue on a triangle.

Structured meshes: refinement level n slices the triangle into 4^n congruent
affine copies ((2^n+1)(2^n+2)/2 nodes), so Richardson extrapolation in the
mesh size is clean and the discrete ground energy decreases monotonically
toward the true one from above (conforming elements).  Every mesh of a level
is an affine image of one unit lattice, so assembly is a weighted sum of
reference matrices built once per level (see assemble), and the weights'
(a, c)-derivatives give exact eigenvalue derivatives (Nelson's method).

A mesh of at most 153 nodes (levels 0 to 4) is solved by dense LAPACK, which
needs no shift.  Every larger level costs one sparse factorisation: the shift
starts at a warm value from the coarser level (or the cold guess
-2 alpha^2/sin^2(theta*/2) - 1) and moves down until the factorisation's
inertia certifies that no eigenvalue lies below it, and shift-invert Lanczos
(ARPACK, a 10-vector basis) on that same factorisation returns the ground
eigenpair.  On both paths the level's value is the Rayleigh quotient of the
returned vector.  The shifted pencil is arithmetic on the data vectors of the
one symmetric CSR pattern that assemble gives K, B and M, so no sparse add or
format conversion runs per level or per shift.  _settle is the one Richardson
loop of all three ladders: eigenvalue_converged,
shape_derivatives_at_equilateral and the soundness oracle scan._raw_upper_bound.
A level's residual in the M^{-1} norm costs a mass-matrix solve that no ladder
reads, so it is computed only on demand, by mass_residual.
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
# Meshes up to this many nodes (levels 0 to 4) are solved by dense LAPACK.  One
# warm solve with one BLAS thread on a 2-core Xeon VM: level 4 takes 3.0 ms
# dense against 5.3 ms sparse, level 5 (561 nodes) 61 ms against 7.7 ms.
_DENSE_NODES = 153
# Lanczos basis size of the sparse solve (ARPACK's default for k = 1 is 20).
_NCV = 10
_MIN_REL_TOL = 1e-8  # smallest ladder rel_tol; the DomainError texts spell it 1e-8


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
    """A ground eigenvalue and how it was found.

    lambda1: the level's Rayleigh quotient (one level) or the Richardson
      extrapolation over the ladder (eigenvalue_converged).
    eigenvector: the M-normalised ground vector of the finest solved level.
    iterations: shift-invert solves spent (0 on a dense level).
    residual: the ladder's error estimate, the change of the extrapolation
      over the last refinement; nan on a one-level result (no estimate).  The
      M^{-1}-norm residual of a vector is mass_residual's.
    converged: whether the ladder settled before its level cap.
    level: the finest solved level.
    history: the ladder's per-level values, coarsest first.
    skipped: (level, error text) per level that failed to certify.
    """

    lambda1: float
    eigenvector: np.ndarray | None
    iterations: int
    residual: float
    converged: bool = True
    level: int | None = None
    history: tuple[float, ...] = ()
    skipped: tuple[tuple[int, str], ...] = ()


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


def _pencil(system: FemSystem) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """A = K + alpha*B and M on the one canonical CSR pattern of the system.

    A is computed on the data vectors, so no sparse add runs.  A system whose
    three matrices do not share that pattern (as assemble's do) raises
    DomainError.
    """
    K, B, M = system.stiffness, system.boundary_mass, system.mass
    shared = K.format == "csr" and all(
        X.format == "csr" and np.array_equal(X.indptr, K.indptr)
        and np.array_equal(X.indices, K.indices) for X in (B, M))
    if not (shared and K.has_canonical_format):
        raise DomainError("stiffness, boundary mass and mass must share one canonical "
                          "CSR pattern, as assemble's do")
    A = sp.csr_matrix((K.data + system.alpha * B.data, K.indices, K.indptr), shape=K.shape)
    return A, M


def _power_iterate(lu, A, M, x0, sigma: float):
    """Shift-invert Lanczos on the factorisation lu of A - sigma*M.

    Returns the eigenvalue of the pencil (A, M) nearest sigma as a length-1
    array, its M-normalised eigenvector as the one column of an (n, 1) array,
    and the number of lu.solve calls.  With sigma certified below the
    spectrum that is the ground pair.  The Lanczos basis holds _NCV = 10
    vectors: shift-invert needs only 2k + 1 of them for k wanted pairs
    (Ericsson & Ruhe, Math. Comp. 35, 1980).  From a warm shift that takes
    about 16 solves per level, where ARPACK's default basis of 20 vectors
    for k = 1 takes about 21.  ARPACK runs at full precision
    (tol=0): the value feeds level-to-level Richardson differences, and a
    looser stop can leave the Ritz vector mixed with a near-degenerate
    excited state.
    """
    n = A.shape[0]
    solves = 0

    def solve(b):
        nonlocal solves
        solves += 1
        return lu.solve(b)

    try:
        vals, vecs = eigsh(A, k=1, M=M, sigma=sigma, v0=x0, ncv=_NCV, tol=0,
                           OPinv=LinearOperator((n, n), matvec=solve, dtype=float))
    except ArpackError as exc:
        raise NumericError(f"shift-invert Lanczos failed at shift {sigma:g}: {exc}") from exc
    return vals, vecs, solves


def _factor_counting(A, M, sigma: float):
    """Factor A - sigma*M without row pivoting and read off its inertia.

    With symmetric-mode elimination the U diagonal carries the pivot signs,
    so the number of negative entries equals the number of eigenvalues of the
    pencil below sigma.  That gives a certificate that a shift sits under the
    whole spectrum (count zero), which the ground-state solve needs.  The
    count is an inertia only under a symmetric permutation, so any other
    factorisation raises NumericError.  A and M share one CSR pattern
    (_pencil), so A - sigma*M is computed on their data vectors, and as the
    matrix is symmetric its CSR arrays are its CSC arrays: SuperLU reads them
    with no conversion.
    """
    lu = splu(
        sp.csc_matrix((A.data - sigma * M.data, A.indices, A.indptr), shape=A.shape),
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


def mass_residual(system: FemSystem, x: np.ndarray) -> float:
    """sqrt(r^T M^{-1} r / x^T M x) for r = A x - rho M x, where A = K + alpha*B
    and rho = x^T A x / x^T M x is the Rayleigh quotient of x.

    Some eigenvalue of the pencil (A, M) lies within this distance of rho.
    The mass-matrix solve is Jacobi-preconditioned CG to rtol 1e-13; no
    ladder calls this, so only a caller that reports the residual pays for it.
    """
    A, M = _pencil(system)
    ax, mx = A @ x, M @ x
    xmx = float(x @ mx)
    r = ax - (float(x @ ax) / xmx) * mx
    z, info = cg(M, r, rtol=1e-13, atol=0.0, M=sp.diags(1.0 / M.diagonal()))
    if info != 0:
        raise NumericError(f"mass-matrix solve for the residual did not converge (info {info})")
    return math.sqrt(max(float(r @ z), 0.0) / xmx)


def lowest_eigenpair(system: FemSystem, tri, sigma0: float | None = None) -> EigenResult:
    """Ground eigenpair of K + alpha*B against M on the assembled mesh.

    A mesh of at most _DENSE_NODES = 153 nodes (levels 0 to 4) is solved by
    dense LAPACK, which returns the exact lowest pair with no shift to
    certify.  On a larger mesh the shift starts at -2 alpha^2/sin^2(theta*/2) - 1
    (callers that already know the eigenvalue from a coarser mesh pass a warm
    sigma0 instead) and moves down until the factorisation's inertia count
    shows no eigenvalue below it.  Shift-invert Lanczos with a _NCV = 10
    vector basis on that one certified factorisation converges onto the
    lowest eigenvalue, which matters on flat triangles where corner-localised
    ground and excited states are both nearly positive and sign inspection
    cannot tell them apart.  On both paths lambda1 is the Rayleigh quotient
    x^T A x / x^T M x of the returned vector; one level gives no error
    estimate, so residual is nan (mass_residual measures the vector's).
    A system whose matrices do not share one CSR pattern raises DomainError.
    """
    geom = as_geometry(tri)
    alpha = system.alpha
    A, M = _pencil(system)
    n = A.shape[0]
    if n <= _DENSE_NODES:
        vecs = scipy.linalg.eigh(A.toarray(), M.toarray(), subset_by_index=[0, 0])[1]
        solves = 0
    else:
        sigma = sigma0 if sigma0 is not None else (
            -2.0 * (alpha / math.sin(0.5 * geom.theta_star)) ** 2 - 1.0
        )
        # Start vector: constant plus a fixed asymmetric ripple.  The ripple keeps
        # a usable overlap with antisymmetric ground states (symmetric meshes of
        # isosceles triangles produce them), which a pure constant start misses.
        x0 = 1.0 + 0.01 * (np.arange(n) % 11 - 5.0)
        # Rayleigh quotient of the constant vector (it lies in the P1 space),
        # 1^T A 1 / 1^T M 1: an exact upper bound on the discrete ground value
        # at every level, so a shift at or above it cannot be certified.
        ub = float(A.data.sum()) / float(M.data.sum())
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
        _, vecs, solves = _power_iterate(lu, A, M, x0, sigma)
    vec = vecs[:, 0]
    if float(vec.sum()) < 0.0:
        vec = -vec
    av, mv = A @ vec, M @ vec
    lam = float(vec @ av) / float(vec @ mv)
    return EigenResult(
        lambda1=lam,
        eigenvector=vec,
        iterations=solves,
        residual=math.nan,
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
    """The one Richardson loop of all three ladders (module docstring): extrapolate
    measure(res) over the solved levels (4^gap - 1 across skipped ones) until
    settled(vals, extrs), asked after every extrapolation, holds.  Returns the
    solved levels, their measures, the extrapolations and whether they settled;
    fewer than two solved levels raise NumericError."""
    done, vals, extrs = [], [], []
    for res in results:
        done.append(res)
        vals.append(measure(res))
        if len(done) > 1:
            gap = done[-1].level - done[-2].level
            extrs.append(vals[-1] + (vals[-1] - vals[-2]) / (4.0 ** gap - 1.0))
            if settled(vals, extrs):
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
    change in the extrapolation over the last refinement), eigenvector and
    level the finest solved level's.  If the level cap is hit first the best
    value is returned with converged=False.  Levels that fail to certify are
    listed in ``skipped``; the extrapolation then spans the level gap with the
    matching 4^gap factor.  max_level below 4 leaves too few levels for two
    extrapolations to compare and raises DomainError.
    """
    if not (math.isfinite(rel_tol) and rel_tol >= _MIN_REL_TOL):
        raise DomainError(f"rel_tol must be finite and >= 1e-8, got {rel_tol}")
    if max_level < 4:
        raise DomainError(f"max_level must be >= 4 for two extrapolations to compare, "
                          f"got {max_level}")
    if max_level > MAX_LEVEL:
        raise ResourceError(f"max_level {max_level} exceeds cap {MAX_LEVEL}")
    skipped: list[tuple[int, str]] = []
    done, vals, extrs, converged = _settle(
        walk_levels(tri, alpha, 2, max_level, skipped), lambda res: res.lambda1,
        lambda _, x: len(x) > 1 and abs(x[-1] - x[-2]) <= rel_tol * abs(x[-1]))
    res = done[-1]
    return EigenResult(
        lambda1=extrs[-1],
        eigenvector=res.eigenvector,
        iterations=sum(r.iterations for r in done),
        residual=abs(extrs[-1] - extrs[-2]) if len(extrs) >= 2 else float("inf"),
        converged=converged,
        level=res.level,
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
        lambda _, x: len(x) > 1 and bool(np.all(
            np.abs(x[-1] - x[-2])[watched] <= 1e-6 * np.abs(x[-1][watched]))))
    return ShapeDerivatives(*map(float, extrs[-1]), converged, tuple(skipped))
