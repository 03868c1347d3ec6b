"""P1 finite elements for the Robin eigenvalue on a triangle.

Structured meshes: refinement level n slices the triangle into 4^n congruent
affine copies ((2^n+1)(2^n+2)/2 nodes), so Richardson extrapolation in the
mesh size is clean and the discrete ground energy decreases monotonically
toward the true one from above (conforming elements).  Every mesh of a level
is an affine image of one unit lattice, so assembly is a weighted sum of
reference matrices built once per level, weighted by the value row of one jet
(_invariant_jet, see assemble) whose (a, c)-derivative rows give exact
eigenvalue derivatives (Nelson's method).

solve_at_level is the one solve of a mesh level, on the pencil it assembles
itself.  A mesh of at most 153 nodes (levels 0 to 4) is solved by dense
LAPACK, which needs no shift.  Every larger level costs one sparse
factorisation at a shift that the factorisation's inertia certifies to lie
below every eigenvalue, and a thick-restart shift-invert Lanczos loop
(_power_iterate, a 10-vector basis) on that same factorisation returns the
ground eigenpair; its solve count grows with the shift's distance below the
value (Ericsson & Ruhe).  A ladder (walk_levels) predicts the next level's
drop from its last observed drop ratio and shifts a twentieth of that drop
below the predicted value (no measured drop exceeded its prediction by more
than 1.4%); until two drops above rounding are known, as at weak coupling,
it shifts conservatively, lam - 2 |drop| - 0.02 |lam| - 1/S, and a rejected
prediction steps to that conservative shift.  With no warm shift the cold
guess is -2 alpha^2/sin^2(theta*/2) - 1/S, and a rejected shift sigma steps
to 2 sigma - 1/S: every rule is relative to 1/S, so a dilated problem tries
the same shifts, scaled.  A ladder starts that loop from the coarser level's
ground vector: the lattices are nested, so interpolated onto the finer one it
is the coarse eigenfunction itself (_prolongate).  On both paths the level's
value is the Rayleigh quotient of the returned vector, with the stiffness
applied to the vector less its mean, which does not cancel at weak coupling.
The shifted pencil is
arithmetic on the data vectors of the one symmetric CSR pattern that assemble
gives A = K + alpha B and M, so no sparse add or format conversion runs per
level or per shift.  Each lattice numbers its nodes in the level's
minimum-degree elimination order, computed once when the lattice is built,
so every pencil is factored in natural order and solved in its own numbering.
_settle is the one Richardson loop of all three ladders:
eigenvalue_converged, shape_derivatives and the soundness oracle
scan._raw_upper_bound.
A level's residual in the M^{-1} norm costs a mass-matrix solve that no ladder
reads, so it is computed only on demand, by mass_residual.
The factorisation is SuperLU's at panel width 2 (_PANEL), which fits the
narrow supernodes of the ordered lattice pencils: a level-8 factorisation
takes about three quarters of the default width's time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import cg, spilu, splu

from .errors import (DomainError, NumericError, ResourceError, check_coupling, check_finite,
                     check_level, check_rel_tol)
from .geometry import TriangleGeometry, as_geometry
from .trial import closed_lower_bound

MAX_LEVEL = 10
# Meshes up to this many nodes (levels 0 to 4) are solved by dense LAPACK.  One
# warm solve with one BLAS thread on a 2-core Xeon VM, panel width _PANEL,
# medians on three triangles: level 4 takes 2.1-2.2 ms dense against 2.3-5.1 ms
# sparse, level 5 (561 nodes) 39-40 ms against 6.5-7.2 ms.
_DENSE_NODES = 153
# Lanczos basis size of the sparse solve (shift-invert needs 2k + 1 vectors for
# k wanted pairs, Ericsson & Ruhe, Math. Comp. 35, 1980), the Ritz vectors a
# restart keeps (flat triangles carry three corner states that nearly tie),
# and the solve budget before the loop gives up.
_NCV = 10
_KEEP = 3
_MAX_SOLVES = 100 * _NCV
# SuperLU's panel width in _factor_counting.  The default suits wide
# supernodes (Demmel, Eisenstat, Gilbert, Li & Liu, SIAM J. Matrix Anal. Appl.
# 20, 1999); the MMD-ordered lattice pencils have narrow ones.
_PANEL = 2
_EPS = float(np.finfo(float).eps)
# A ladder's predicted shift sits this many predicted drops below the value
# just found (walk_levels): a twentieth of the predicted drop below the
# predicted value.  Over 747 predicted sparse levels (the benchmark's
# conjecture grid, deep ladders and soundness grid, and 150 random ladders)
# the actual drop over the predicted one was at most 1.0134, median 0.86.
_MARGIN = 1.05


@dataclass(frozen=True)
class FemMesh:
    """The level-`refinement_level` lattice mesh of tri (ResourceError above MAX_LEVEL):
    the cached lattice's read-only topology arrays, and nodes computed when read,
    v0 + xi (v1 - v0) + eta (v2 - v0) at the lattice's unit coordinates (xi, eta).
    Nodes are numbered in the level's elimination order (_lattice), not row by
    row; so are assemble's pencils and the eigenvectors of this level."""

    tri: TriangleGeometry
    refinement_level: int

    def __post_init__(self) -> None:
        level = self.refinement_level
        as_geometry(self.tri)
        check_level("refinement level", level)
        if level > MAX_LEVEL:
            raise ResourceError(f"refinement level {level} exceeds the cap {MAX_LEVEL} "
                                f"({(2**level + 1) * (2**level + 2) // 2} nodes)")

    @property
    def nodes(self) -> np.ndarray:  # (N, 2)
        v, unit = self.tri.vertex_array(), _lattice(self.refinement_level).unit
        return v[0] + unit[:, :1] * (v[1] - v[0]) + unit[:, 1:] * (v[2] - v[0])

    @property
    def elements(self) -> np.ndarray:  # (M, 3) int
        return _lattice(self.refinement_level).elements

    @property
    def boundary_edges(self) -> np.ndarray:  # (E, 2) int, node pairs
        return _lattice(self.refinement_level).boundary_edges

    @property
    def boundary_labels(self) -> np.ndarray:  # (E,) int in {0, 1, 2}
        return _lattice(self.refinement_level).boundary_labels


@dataclass(frozen=True)
class FemSystem:
    """A mesh's pencil at coupling alpha, as assemble builds it: form
    A = K + alpha B and mass M on one canonical CSR pattern."""

    form: sp.csr_matrix
    mass: sp.csr_matrix


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
    couplings, all in the level's elimination order.  The arrays are
    read-only."""

    unit: np.ndarray            # (N, 2) lattice coordinates (i/n, j/n)
    elements: np.ndarray
    boundary_edges: np.ndarray
    boundary_labels: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    stiffness: np.ndarray       # (3, nnz) int8: twice K_xixi, K_xieta + K_etaxi, K_etaeta
    mass: np.ndarray            # (nnz,) M_lat, the P1 mass in lattice coordinates
    sides: sp.csc_matrix        # (nnz, 3) B_k, side k's 1-D P1 mass in its unit parameter

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        """data on the lattice's pattern; the matrix shares the read-only index
        arrays, so a SciPy routine that wrote into them would raise."""
        n = len(self.indptr) - 1
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(n, n))

    def form(self, h: np.ndarray, ell: np.ndarray, alpha: float) -> sp.csr_matrix:
        """sum_j h_j K_j + alpha sum_k l_k B_k, for stiffness weights h and side lengths ell."""
        return self.matrix((0.5 * h) @ self.stiffness + alpha * (self.sides @ ell))

    def boundary(self, ell: np.ndarray, u: np.ndarray) -> float:
        """u^T (sum_k l_k B_k) u, summed over the boundary edges: an edge of
        side k has length l_k / n, and there are 3 n edges."""
        p, q = u[self.boundary_edges].T
        return float(ell[self.boundary_labels] @ (p * p + p * q + q * q)) / len(p)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _elimination_order(elements: np.ndarray, size: int) -> np.ndarray:
    """SuperLU's minimum-degree order of A^T + A on the pattern of the element
    couplings (every boundary edge is an element edge), as new with node i
    at position new[i].  The order depends on the pattern alone, and an
    incomplete factorisation that drops every entry returns the one a
    complete factorisation would choose, at about a third of its cost."""
    rows, cols = np.repeat(elements, 3, axis=1).ravel(), np.tile(elements, (1, 3)).ravel()
    pattern = sp.csc_matrix(((rows == cols) + 1.0, (rows, cols)), shape=(size, size))
    return spilu(pattern, drop_tol=1.0, permc_spec="MMD_AT_PLUS_A",
                 options=dict(SymmetricMode=True)).perm_c.astype(np.int64)


@functools.lru_cache(maxsize=None)
def _lattice(level: int) -> _Lattice:
    """Lattice node (i, j), i + j <= n, numbered in the level's elimination
    order (_elimination_order), in which _factor_counting factors every
    pencil; built on first use."""
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
    elements = np.stack([up, down], axis=1)[keep]

    k = np.arange(n)
    edges = np.concatenate([
        np.stack([ids(k, 0), ids(k + 1, 0)], axis=1),
        np.stack([ids(0, k), ids(0, k + 1)], axis=1),
        np.stack([ids(n - k, k), ids(n - k - 1, k + 1)], axis=1),
    ])
    labels = np.repeat(np.arange(3, dtype=np.int64), n)

    # the ids above run row by row in j; the lattice keeps the ordered ones
    size = len(jn)
    new = _elimination_order(elements, size)
    elements, edges = new[elements], new[edges]
    unit = np.empty((size, 2))
    unit[new] = np.stack([i_n / n, jn / n], axis=1)

    # pattern slot of every element and edge entry; only the sums are kept
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
    # stored doubled: integers of modulus at most 4, exact as int8 at an
    # eighth of float64's memory (form halves the weights, exactly)
    stiffness = np.stack([summed(b[:, :, None] * b[:, None, :]),
                          summed(bc + bc.transpose(0, 2, 1)),
                          summed(c[:, :, None] * c[:, None, :])]).astype(np.int8)
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


@functools.lru_cache(maxsize=None)
def _parents(level: int) -> np.ndarray:
    """(2, N) ids on the level - 1 lattice of the two coarse nodes whose
    midpoint each level-`level` node is: lattice node (i, j) lies halfway
    between coarse nodes (ceil(i/2), floor(j/2)) and (floor(i/2), ceil(j/2)),
    one node twice when i and j are even.  Read-only, built on first use."""
    m = 2 ** (level - 1)
    coarse = np.rint(_lattice(level - 1).unit * m).astype(np.int64)
    ids = np.empty((m + 1, m + 1), dtype=np.int64)  # coarse id by (i, j)
    ids[coarse[:, 0], coarse[:, 1]] = np.arange(len(coarse))
    i, j = np.rint(_lattice(level).unit * (2 * m)).astype(np.int64).T
    return _frozen(np.stack([ids[(i + 1) // 2, j // 2], ids[i // 2, (j + 1) // 2]]))


def _prolongate(u: np.ndarray, level: int) -> np.ndarray:
    """The P1 function with nodal values u on lattice level `level - 1`, at the
    nodes of level `level`.  The coarse space is nested in the fine one, so
    this is the same function, and so are its Rayleigh quotients."""
    m = 2 ** (level - 1)
    if level == 0 or u.ndim != 1 or len(u) != (m + 1) * (m + 2) // 2:
        raise DomainError(f"a start vector for a level-{level} mesh must be a 1-D array of the "
                          f"nodal values of the next coarser lattice level, got shape {u.shape}")
    parent = _parents(level)
    return 0.5 * (u[parent[0]] + u[parent[1]])


def build_mesh(tri, level: int) -> FemMesh:
    """Structured level-`level` mesh of tri (FemMesh); raises ResourceError above MAX_LEVEL."""
    return FemMesh(tri, level)


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
    """Jet (6, 4) of (|e1|^2, |e2|^2, |e2 - e1|^2, e1.e2) for Omega_{a,c}, where e1 = v1 - v0 =
    (2c, 0), e2 = v2 - v0 = (a + c, S/c), |det J| = 2S fixed; NumericError past float64."""
    try:  # b^2 = (S/c)^2 and its c-derivatives
        t, tc, tcc = (S / c) ** 2, -2.0 * S * S / c**3, 6.0 * S * S / c**4
        jet = np.array([
            [4.0 * c * c, (a + c) ** 2 + t, (a - c) ** 2 + t, 2.0 * c * (a + c)],
            [0.0, 2.0 * (a + c), 2.0 * (a - c), 2.0 * c],
            [8.0 * c, 2.0 * (a + c) + tc, -2.0 * (a - c) + tc, 2.0 * a + 4.0 * c],
            [0.0, 2.0, 2.0, 0.0],
            [0.0, 2.0, -2.0, 2.0],
            [8.0, 2.0 + tcc, 2.0 + tcc, 4.0],
        ])
        if np.isfinite(jet).all():
            return jet
    except (OverflowError, ZeroDivisionError):
        pass
    raise NumericError(f"the invariant jet at a = {a:g}, c = {c:g}, S = {S:g} leaves float64")


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
    """The pencil of a lattice mesh at coupling alpha (CSR, one shared pattern):
    A = K + alpha B with K = H11 K_xixi + H12 (K_xieta + K_etaxi) + H22 K_etaeta
    and B = sum_k l_k B_k, and M = |det J| M_lat, with J = [v1 - v0, v2 - v0],
    |det J| = 2S, and H and the side lengths l_k the value row of _weights on
    the triangle's _invariant_jet.  A degenerate triangle, or a coupling so
    strong that A leaves float64, raises NumericError.
    """
    check_coupling("alpha", alpha)
    tri, lat = mesh.tri, _lattice(mesh.refinement_level)
    det, jet = 2.0 * tri.S, _invariant_jet(tri.a, tri.c, tri.S)
    if not det > 1e-14 * float(jet[0, 0] + jet[0, 1]):
        raise NumericError(f"degenerate triangle: |det J| = {det:g}")
    h, ell = _weights(jet, det)
    with np.errstate(over="ignore", invalid="ignore"):
        form = lat.form(h[0], ell[0], float(alpha))
    if not np.isfinite(form.data).all():
        raise NumericError(f"the pencil at alpha = {alpha:g} leaves float64")
    return FemSystem(form, lat.matrix(det * lat.mass))


def _power_iterate(lu, M, x0, sigma: float):
    """Thick-restart shift-invert Lanczos on the factorisation lu of A - sigma*M.

    Returns the eigenvalue of the pencil (A, M) nearest sigma, its
    M-normalised eigenvector and the number of lu.solve calls.  With sigma
    certified below the spectrum that is the ground pair: the largest
    eigenvalue nu of OP = (A - sigma*M)^{-1} M, which is self-adjoint in the
    M inner product, and lambda = sigma + 1/nu.

    The basis holds at most _NCV = 10 M-orthonormal vectors q_k, stored with
    M q_k beside them (Q and MQ, twice the memory of the basis alone).  Each
    step is one solve, whose right-hand side is the newest M q_k, full
    Gram-Schmidt against the basis with coefficients (M Q) w, and a second
    pass, with the same coefficients, when the first one cancels more than
    half of |w|_M^2 (Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30,
    1976), and the eigenproblem of the projected matrix, at most 10 x 10.  M
    is applied once per step, to the orthogonalised vector: that product
    gives its norm and the next right-hand side, and a second pass updates it
    from M Q.  A full basis restarts (_restart) on the _KEEP = 3 largest Ritz vectors plus the
    residual direction (Wu & Simon, SIAM J. Matrix Anal. Appl. 22, 2000):
    flat triangles carry three corner states that nearly tie, and a restart
    on fewer loses them.

    The stop is ARPACK's at tol=0, a Ritz residual beta |s_last| <= eps nu:
    the value feeds level-to-level Richardson differences, and a looser stop
    can leave the vector mixed with a near-degenerate excited state.  It is
    tested after every solve, not only once the basis is full, so a start
    vector that is already close, the coarser level's prolongated
    eigenvector, ends the loop early.
    """
    Q, MQ = np.empty((_NCV + 1, len(x0))), np.empty((_NCV + 1, len(x0)))
    QM = (Q, MQ)
    T = np.zeros((_NCV, _NCV))  # upper triangle: the projection Q M OP Q^T
    z = M @ x0
    norm = math.sqrt(float(x0 @ z))
    np.divide(x0, norm, out=Q[0])
    np.divide(z, norm, out=MQ[0])
    j = 0
    for solves in range(1, _MAX_SOLVES + 1):
        basis, mbasis = Q[:j + 1], MQ[:j + 1]
        w = lu.solve(MQ[j])
        h = mbasis @ w
        w -= h @ basis
        z = M @ w
        beta2 = float(w @ z)
        if beta2 < float(h @ h):  # |w|_M^2 = beta2 + |h|^2: more than half cancelled (DGKS)
            extra = mbasis @ w
            w -= extra @ basis
            z -= extra @ mbasis
            h += extra
            beta2 = float(w @ z)
        beta = math.sqrt(max(beta2, 0.0))
        T[:j + 1, j] = h
        theta, s = np.linalg.eigh(T[:j + 1, :j + 1], UPLO="U")
        if not (math.isfinite(beta) and theta[-1] > 0.0):
            raise NumericError(f"shift-invert Lanczos broke down at shift {sigma:g}")
        if beta * abs(s[j, -1]) <= _EPS * theta[-1]:
            return sigma + 1.0 / theta[-1], s[:, -1] @ basis, solves
        np.divide(w, beta, out=Q[j + 1])
        np.divide(z, beta, out=MQ[j + 1])
        j += 1
        if j == _NCV:
            _restart(QM, T, theta, s)
            j = _KEEP
    raise NumericError(f"shift-invert Lanczos did not converge in {_MAX_SOLVES} solves "
                       f"at shift {sigma:g}")


def _restart(QM, T, theta, s) -> None:
    """Thick restart of a full basis, in place: the basis and M times it
    (QM = (Q, MQ)) keep the _KEEP largest Ritz vectors, then the residual
    direction, and T their projection, diagonal in the Ritz values."""
    for V in QM:
        V[:_KEEP] = s[:, -_KEEP:].T @ V[:_NCV]
        V[_KEEP] = V[_NCV]
    T[:] = 0.0
    T[range(_KEEP), range(_KEEP)] = theta[-_KEEP:]


def _factor_counting(A, M, sigma: float):
    """Factor A - sigma*M without row pivoting and read off its inertia.

    With symmetric-mode elimination the U diagonal carries the pivot signs,
    so the number of negative entries equals the number of eigenvalues of the
    pencil below sigma.  That gives a certificate that a shift sits under the
    whole spectrum (count zero), which the ground-state solve needs.  The
    count is an inertia only under a symmetric permutation, so any other
    factorisation raises NumericError.  A and M share one CSR pattern
    (assemble's), so A - sigma*M is computed on their data vectors, and as the
    matrix is symmetric its CSR arrays are its CSC arrays: SuperLU reads them
    with no conversion.

    The pencil comes in its lattice's numbering, the level's minimum-degree
    elimination order (_lattice), so it is factored in natural order: the
    fill of a minimum-degree factorisation, without computing the order per
    factorisation.  The panel width is _PANEL = 2, not SuperLU's default: the
    default is sized for wide supernodes, and the ordered lattice pencils
    have narrow ones.  A level-8 factorisation (33k nodes) takes about three
    quarters of the default's time; the inertia count is the same, and a
    solve through the factor differs by rounding only.
    """
    lu = splu(
        sp.csc_matrix((A.data - sigma * M.data, A.indices, A.indptr), shape=A.shape),
        diag_pivot_thresh=0.0,
        permc_spec="NATURAL",
        panel_size=_PANEL,
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
    A non-finite, all-zero or wrongly sized x raises DomainError.  A is
    applied to x itself, not to x - mean(x) as in the level values: on a
    returned ground vector the reading is that vector's own rounding floor,
    not the quotient's cancellation.  At the equilateral triangle (S =
    1/sqrt(3)) it reads about 4e-12 at level 6 and 7e-11 at level 8 for every
    alpha from -1e-9 to -8, and the centred product moves it by under 10%.
    """
    A, M = system.form, system.mass
    x = np.asarray(x, dtype=float)
    if x.shape != (A.shape[0],) or not x.any() or not np.isfinite(x).all():
        raise DomainError(f"x must be a nonzero vector of the system's {A.shape[0]} nodal "
                          f"values, got shape {x.shape}")
    ax, mx = A @ x, M @ x
    xmx = float(x @ mx)
    r = ax - (float(x @ ax) / xmx) * mx
    z, info = cg(M, r, rtol=1e-13, atol=0.0, M=sp.diags(1.0 / M.diagonal()))
    if info != 0:
        raise NumericError(f"mass-matrix solve for the residual did not converge (info {info})")
    return math.sqrt(max(float(r @ z), 0.0) / xmx)


def solve_at_level(tri, alpha: float, level: int,
                   sigma0: float | tuple[float, ...] | None = None,
                   start: np.ndarray | None = None) -> EigenResult:
    """Ground eigenpair of K + alpha*B against M on the level-`level` mesh of tri.

    A mesh of at most _DENSE_NODES = 153 nodes (levels 0 to 4) is solved by
    dense LAPACK, which returns the exact lowest pair with no shift to
    certify.  On a larger mesh the shift must certify, by the factorisation's
    inertia count, that no eigenvalue lies below it.  The shifts tried are
    sigma0, one warm shift or several in order (a ladder passes its
    predicted shift, then its conservative one; see walk_levels), or else the
    cold -2 alpha^2/sin^2(theta*/2) - 1/S.  A rejected shift sigma steps to
    the next given shift if that lies lower, else to 2 sigma - 1/S.  A shift
    at or above ub, the Rayleigh quotient of the constant vector, is moved to
    ub - 0.05 max(1/S, |ub|).  Every rule is relative to 1/S, which scales
    with the spectrum when the triangle is dilated and alpha S^(1/2) held
    fixed, so a problem and its dilated copy try the same shifts, scaled.
    The thick-restart shift-invert Lanczos
    loop of _power_iterate on that one certified factorisation converges onto
    the lowest eigenvalue, which matters on flat triangles where
    corner-localised ground and excited states are both nearly positive and
    sign inspection cannot tell them apart.  It starts from the constant plus
    a 1% ripple, or, given start (the ground vector of level - 1), from that
    vector interpolated onto this mesh plus the same ripple.  At every level
    a sigma0 that is not a finite real or a tuple of them, or a start that is
    not a finite nonzero 1-D array of level - 1's nodal values, raises
    DomainError before any factorisation; dense levels need no start and do
    not use it.  On both paths lambda1 is the Rayleigh quotient of the
    returned vector x, (v^T K v + alpha x^T B x) / x^T M x with v = x -
    mean(x): K 1 = 0, so that is x^T A x / x^T M x, but the stiffness rows no
    longer cancel on a nearly constant x (weak coupling), where x^T A x
    rounds to an error that scales with |K|, not |lambda|, and can put the
    value below the discrete one.  One level gives no error estimate, so
    residual is nan (mass_residual measures the vector's).
    """
    system = assemble(build_mesh(tri, level), alpha)
    A, M = system.form, system.mass
    shifts = () if sigma0 is None else sigma0 if isinstance(sigma0, tuple) else (sigma0,)
    for shift in shifts:
        check_finite("sigma0", shift)
    if start is not None:
        start = _prolongate(np.asarray(start, dtype=float), level)
        peak = float(np.abs(start).max())
        if not (math.isfinite(peak) and peak > 0.0):
            raise DomainError("a start vector must be finite and nonzero")
    n = A.shape[0]
    if n <= _DENSE_NODES:
        vecs = scipy.linalg.eigh(A.toarray(), M.toarray(), subset_by_index=[0, 0])[1]
        if vecs.shape[1] == 0:
            raise NumericError(f"the dense eigensolver returned no vector at alpha = {alpha:g}")
        vec, solves = vecs[:, 0], 0
    else:
        unit = 1.0 / tri.S
        if not shifts:
            try:
                shifts = (-2.0 * (float(alpha) / math.sin(0.5 * tri.theta_star)) ** 2 - unit,)
            except OverflowError:
                shifts = (-math.inf,)
            if not math.isfinite(shifts[0]):
                raise NumericError(f"the cold shift overflows float64 at alpha = {alpha:g}")
        # Start vector: the constant, or the coarser level's ground vector
        # prolongated and scaled to peak 1, plus a fixed asymmetric ripple.  The
        # ripple keeps a usable overlap with antisymmetric ground states
        # (symmetric meshes of isosceles triangles produce them) and with
        # corner states that overtake the coarse ground state on refinement.
        x0 = 0.01 * (np.arange(n) % 11 - 5.0)
        x0 += 1.0 if start is None else start / peak
        # Rayleigh quotient of the constant vector (it lies in the P1 space),
        # 1^T A 1 / 1^T M 1: an exact upper bound on the discrete ground value
        # at every level, so a shift at or above it cannot be certified.
        ub = float(A.data.sum()) / float(M.data.sum())
        shifts = [s if s < ub else ub - 0.05 * max(unit, abs(ub)) for s in shifts]
        sigma = shifts[0]
        for attempt in range(1, 81):
            try:
                lu, neg = _factor_counting(A, M, sigma)
                if neg == 0:
                    break
            except NumericError:
                raise
            except RuntimeError:
                pass  # singular factorisation: sigma sits on an eigenvalue
            # the next given shift if it lies lower, else a doubling step
            nxt = shifts[attempt] if attempt < len(shifts) else sigma
            sigma = nxt if nxt < sigma else 2.0 * sigma - unit
        else:
            raise NumericError(f"no shift below the spectrum found (last {sigma:g})")
        _, vec, solves = _power_iterate(lu, M, x0, sigma)
    if float(vec.sum()) < 0.0:
        vec = -vec
    # v^T K v = v^T A v - alpha v^T B v; B from the boundary edges, not a second matrix
    lat, ell, v = _lattice(level), np.array(tri.side_lengths), vec - vec.mean()
    edge_terms = lat.boundary(ell, vec) - lat.boundary(ell, v)
    lam = (float(v @ (A @ v)) + alpha * edge_terms) / float(vec @ (M @ vec))
    return EigenResult(lambda1=lam, eigenvector=vec, iterations=solves, residual=math.nan,
                       level=level)


def walk_levels(tri, alpha: float, min_level: int, max_level: int,
                skipped: list[tuple[int, str]]):
    """Yield the certified solve of each level from min_level to max_level.

    Each level starts its Lanczos loop from the ground vector just found,
    interpolated onto the finer lattice (see _power_iterate), and its shift
    search from the ladder's own convergence.  With Delta the last
    level-to-level drop and r = Delta / (the drop before it) the last observed
    drop ratio (2^-p for an observed order p), the next drop is predicted as
    r Delta, and the predicted shift lam - _MARGIN r Delta = lam - 1.05 r Delta
    sits a twentieth of that drop below the predicted value.  No measured drop
    exceeded r Delta by more than 1.4% (see _MARGIN), so the shift certifies
    while it stays close below the value, where the Lanczos loop needs the
    fewest solves.  It needs two drops since the last cold start, each above
    the monotone check's rounding allowance (below); otherwise, as at weak
    coupling where the drops are rounding noise, the shift is the
    conservative lam - 2 |Delta| - 0.02 |lam| - 1/S (0.1 |lam| for 2 |Delta|
    on the first level).  A predicted shift goes
    to solve_at_level with the conservative one after it, so a prediction that
    the inertia count rejects costs one more factorisation (when the
    conservative shift lies lower; else the search doubles down).  A level whose
    solve raises NumericError (tight but not-yet-degenerate pairs do this on
    very flat triangles) is appended to ``skipped`` as (level, error text), as
    is a level above the last solved one by more than rounding (1e-12 relative
    plus eps times 4 n sum|e_k|^2 / S^2, about the n-node pencil's top
    eigenvalue), which nested P1 spaces cannot give, and a level below
    trial.closed_lower_bound by more than 1e-12 relative, which no upper bound
    of the eigenvalue can be (where that bound leaves float64 it reads -inf,
    and every level passes).  The next level starts from the cold shift and the
    constant vector again.  Callers stop the walk by leaving the loop.
    """
    sigma0 = start = prev = None
    drops: list[float] = []  # since the last cold start, each above rounding
    q, unit = math.hypot(*tri.side_lengths) / tri.S, 1.0 / tri.S
    bound = closed_lower_bound(alpha, tri)
    floor = bound - 1e-12 * abs(bound)  # -inf where the bound leaves float64
    for level in range(min_level, max_level + 1):
        try:
            res = solve_at_level(tri, alpha, level, sigma0=sigma0, start=start)
            lam = res.lambda1
            if lam < floor:
                raise NumericError(f"the level-{level} value {lam:.12g} lies below the closed "
                                   f"lower bound alpha P/S - alpha^2/sin^2(theta*/2) = "
                                   f"{bound:.12g}")
            if prev is not None:
                allowance = 1e-12 * abs(prev) + 4.0 * _EPS * q * q * len(res.eigenvector)
                if lam > prev + allowance:
                    raise NumericError(f"the level-{level} value {lam:.12g} lies above the "
                                       f"last solved level's {prev:.12g}")
        except NumericError as exc:
            skipped.append((level, str(exc)))
            sigma0 = start = None
            drops = []
            continue
        yield res
        if start is not None and prev - lam > allowance:  # a drop from the level below
            drops.append(prev - lam)
        else:
            drops = []
        start = res.eigenvector
        pad = 2.0 * abs(lam - prev) if prev is not None else 0.1 * abs(lam)
        shifts = (lam - pad - 0.02 * abs(lam) - unit,)
        if len(drops) > 1:  # the predicted shift first
            shifts = (lam - _MARGIN * drops[-1] / drops[-2] * drops[-1],) + shifts
        sigma0 = tuple(s for s in shifts if math.isfinite(s)) or None  # past float64: go cold
        prev = lam


def _settle(results, measure, settled):
    """The one Richardson loop of all three ladders (module docstring): extrapolate
    measure(res) over the solved levels (4^gap - 1 across skipped ones) until
    settled(vals, extrs), asked after every extrapolation, holds.  Returns the
    solved levels, their measures, the extrapolations and whether they settled;
    fewer than two solved levels or a non-finite extrapolation raise NumericError."""
    done, vals, extrs = [], [], []
    for res in results:
        done.append(res)
        vals.append(measure(res))
        if len(done) > 1:
            gap = done[-1].level - done[-2].level
            extrs.append(vals[-1] + (vals[-1] - vals[-2]) / (4.0 ** gap - 1.0))
            if not np.isfinite(extrs[-1]).all():
                raise NumericError(f"the extrapolation to level {done[-1].level} leaves float64")
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
    check_rel_tol("rel_tol", rel_tol)
    check_level("max_level", max_level)
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
    """Gradient and Hessian of (a, c) -> lambda1 at one triangle in jet-row
    order, extrapolated over mesh levels; converged says whether lambda1,
    hess_aa and hess_cc settled before the level cap."""

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
    Each A_x u is K_x v + alpha B_x u with v = u - mean(u), as K_x 1 = 0: the
    stiffness rows do not cancel on a nearly constant u (see solve_at_level).
    """
    mass = lat.matrix(det * lat.mass)
    u = u / math.sqrt(float(u @ (mass @ u)))
    v = u - u.mean()
    au = [lat.matrix((0.5 * h[k]) @ lat.stiffness) @ v
          + alpha * (lat.matrix(lat.sides @ ell[k]) @ u) for k in range(6)]
    mu = mass @ u
    lam, lam_a, lam_c = (float(u @ au[k]) for k in range(3))
    bordered = sp.bmat([[lat.form(h[0], ell[0], alpha) - lam * mass, mu[:, None]],
                        [mu[None, :], None]], format="csc")
    rhs = np.vstack([np.outer(mu, [lam_a, lam_c]) - np.column_stack(au[1:3]), np.zeros(2)])
    du = splu(bordered).solve(rhs)[:-1]
    second = [float(u @ au[3 + k] + 2.0 * au[x] @ du[:, y - 1])
              for k, (x, y) in enumerate(_SECOND)]
    return np.array([lam, lam_a, lam_c, *second])


def shape_derivatives(tri, alpha: float) -> ShapeDerivatives:
    """Exact discrete gradient and Hessian of lambda1 in (a, c) at tri, at fixed area.

    One ladder, levels 2 to 8, differentiates each level's eigenvalue and
    extrapolates the jets like lambda1 until lambda1, hess_aa and hess_cc
    settle to 1e-6 relative.
    """
    tri = as_geometry(tri)
    h, ell = _weights(_invariant_jet(tri.a, tri.c, tri.S), 2.0 * tri.S)
    watched = [0, 3, 5]  # lambda1, hess_aa, hess_cc
    skipped: list[tuple[int, str]] = []
    _, _, extrs, converged = _settle(
        walk_levels(tri, alpha, 2, 8, skipped),
        lambda res: _level_derivatives(_lattice(res.level), res.eigenvector, alpha,
                                       h, ell, 2.0 * tri.S),
        lambda _, x: len(x) > 1 and bool(np.all(
            np.abs(x[-1] - x[-2])[watched] <= 1e-6 * np.abs(x[-1][watched]))))
    return ShapeDerivatives(*map(float, extrs[-1]), converged, tuple(skipped))
