"""Tests for the P1 finite-element solver.

The eigenvalue path is validated against dense eigensolves on coarse meshes,
including the factorisation-based counting that certifies a shift sits below
the whole spectrum — the part that keeps shift-invert iteration honest on
nearly-degenerate problems.
"""

import dataclasses
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg
from oracles import closed_lower_bound
from scipy.linalg import eigh
from scipy.sparse.linalg import splu

import robintri
from robintri import fem, scan, trial
from robintri.equilateral import lambda0
from robintri.errors import DomainError, NumericError, ResourceError
from robintri.fem import (
    _factor_counting,
    assemble,
    build_mesh,
    dump_mesh,
    eigenvalue_converged,
    mass_residual,
    solve_at_level,
    walk_levels,
)
from robintri.geometry import c0, make_triangle

S_THIRD = 1.0 / math.sqrt(3.0)


def dense_spectrum(tri, alpha, level):
    mesh = build_mesh(tri, level)
    system = assemble(mesh, alpha)
    return eigh(system.form.toarray(), system.mass.toarray(), eigvals_only=True)


def dense_minimum(tri, alpha, level):
    """The lowest value of dense_spectrum, computed alone."""
    system = assemble(build_mesh(tri, level), alpha)
    return eigh(system.form.toarray(), system.mass.toarray(), eigvals_only=True,
                subset_by_index=[0, 0])[0]


def split_form(mesh, alpha):
    """K and B of a mesh, from its forms A = K + t B at t = alpha and 2 alpha:
    K = 2 A(alpha) - A(2 alpha), B = (A(2 alpha) - A(alpha)) / alpha, on the
    shared pattern.  Where B has no entry the two forms agree exactly, so B's
    zeros are exact."""
    once, twice = assemble(mesh, alpha).form, assemble(mesh, 2.0 * alpha).form
    assert np.array_equal(once.indptr, twice.indptr)
    assert np.array_equal(once.indices, twice.indices)
    stiffness, boundary_mass = once.copy(), once.copy()
    stiffness.data = 2.0 * once.data - twice.data
    boundary_mass.data = (twice.data - once.data) / alpha
    return stiffness, boundary_mass


def loop_mesh(tri, level):
    """Per-node loop construction of the structured mesh (reference for the cache)."""
    n = 2**level
    v = tri.vertex_array()
    ids = {}
    coords = []
    for j in range(n + 1):
        for i in range(n + 1 - j):
            ids[(i, j)] = len(coords)
            coords.append(v[0] + (i / n) * (v[1] - v[0]) + (j / n) * (v[2] - v[0]))
    elems = []
    for j in range(n):
        for i in range(n - j):
            elems.append((ids[(i, j)], ids[(i + 1, j)], ids[(i, j + 1)]))
            if i + j <= n - 2:
                elems.append((ids[(i + 1, j)], ids[(i + 1, j + 1)], ids[(i, j + 1)]))
    edges = [(ids[(i, 0)], ids[(i + 1, 0)]) for i in range(n)]
    edges += [(ids[(0, j)], ids[(0, j + 1)]) for j in range(n)]
    edges += [(ids[(n - j, j)], ids[(n - j - 1, j + 1)]) for j in range(n)]
    return SimpleNamespace(
        nodes=np.asarray(coords),
        elements=np.asarray(elems, dtype=np.int64),
        boundary_edges=np.asarray(edges, dtype=np.int64),
        boundary_labels=np.repeat(np.arange(3), n),
        refinement_level=level,
        ids=ids,
    )


def loop_ids(ref):
    """The loop_mesh id of each lattice node of ref's level, matched by the
    node's lattice coordinates (i, j)."""
    n = 2**ref.refinement_level
    ij = np.rint(fem._lattice(ref.refinement_level).unit * n).astype(int)
    return np.array([ref.ids[i, j] for i, j in ij.tolist()])


def permuted(X, new):
    """The sparse matrix X with node k moved to new[k], in CSR."""
    X = X.tocoo()
    return sp.csr_matrix((X.data, (new[X.row], new[X.col])), shape=X.shape)


def coo_assemble(mesh):
    """Stiffness, mass and boundary mass through COO -> CSR conversion (reference)."""
    pts, el, be = mesh.nodes, mesh.elements, mesh.boundary_edges
    n = len(pts)
    p0, p1, p2 = pts[el[:, 0]], pts[el[:, 1]], pts[el[:, 2]]
    area = 0.5 * np.abs((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
                        - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1]))
    b = np.stack([p1[:, 1] - p2[:, 1], p2[:, 1] - p0[:, 1], p0[:, 1] - p1[:, 1]], axis=1)
    c = np.stack([p2[:, 0] - p1[:, 0], p0[:, 0] - p2[:, 0], p1[:, 0] - p0[:, 0]], axis=1)
    rows, cols = np.repeat(el, 3, axis=1).ravel(), np.tile(el, (1, 3)).ravel()
    ke = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (4.0 * area)[:, None, None]
    me = (np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0) * area[:, None, None]
    lengths = np.hypot(*(pts[be[:, 1]] - pts[be[:, 0]]).T)
    bl = (np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0) * lengths[:, None, None]
    brows, bcols = np.repeat(be, 2, axis=1).ravel(), np.tile(be, (1, 2)).ravel()

    def csr(vals, r, cc):
        return sp.coo_matrix((vals.ravel(), (r, cc)), shape=(n, n)).tocsr()

    return csr(ke, rows, cols), csr(me, rows, cols), csr(bl, brows, bcols)


def assert_same_matrix(new, old, same_pattern=True):
    """Values to 1e-14 of the largest entry; the stored pattern itself if asked."""
    new, old = new.tocsr(), old.tocsr()
    if same_pattern:
        assert np.array_equal(new.indptr, old.indptr)
        assert np.array_equal(new.indices, old.indices)
    scale = float(np.abs(old.data).max())
    assert abs(new - old).max() <= 1e-14 * scale


class TestMesh:
    def test_counts(self):
        tri = make_triangle(0.4, 0.9, 1.1)
        for level in (0, 1, 2, 3, 4):
            n = 2**level
            mesh = build_mesh(tri, level)
            assert len(mesh.nodes) == (n + 1) * (n + 2) // 2
            assert len(mesh.elements) == n * n
            assert len(mesh.boundary_edges) == 3 * n
            assert mesh.refinement_level == level

    def test_element_areas_sum_to_s(self, rng):
        for _ in range(10):
            S = float(rng.uniform(0.3, 2.0))
            tri = make_triangle(rng.uniform(-2, 2), rng.uniform(0.3, 2.0), S)
            mesh = build_mesh(tri, 3)
            p = mesh.nodes[mesh.elements]
            areas = 0.5 * np.abs(
                (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
            )
            assert abs(areas.sum() - S) < 1e-12 * S
            # uniform splitting: every element has the same area
            assert np.ptp(areas) < 1e-12 * areas[0]

    def test_boundary_edge_lengths(self):
        tri = make_triangle(0.7, 0.8, 1.0)
        mesh = build_mesh(tri, 4)
        seg = mesh.nodes[mesh.boundary_edges]
        lengths = np.linalg.norm(seg[:, 1] - seg[:, 0], axis=1)
        total = lengths.sum()
        assert abs(total - tri.perimeter) < 1e-12 * tri.perimeter
        for side in range(3):
            mask = mesh.boundary_labels == side
            assert abs(lengths[mask].sum() - tri.side_lengths[side]) < 1e-12

    def test_level_cap(self):
        with pytest.raises(ResourceError):
            build_mesh(make_triangle(0.0, 1.0, 1.0), 99)
        with pytest.raises(DomainError):
            build_mesh(make_triangle(0.0, 1.0, 1.0), -1)

    def test_dump_roundtrip(self, tmp_path):
        mesh = build_mesh(make_triangle(0.2, 0.5, 0.4), 2)
        path = tmp_path / "mesh.txt"
        dump_mesh(mesh, str(path))
        text = path.read_text().splitlines()
        assert text[0] == "# level 2"
        assert text[1] == f"nodes {len(mesh.nodes)}"
        x0, y0 = map(float, text[2].split())
        assert abs(x0 - mesh.nodes[0, 0]) == 0.0 and abs(y0 - mesh.nodes[0, 1]) == 0.0


class TestAssembly:
    def test_constant_vector_identities(self, rng):
        """Constants lie in the stiffness kernel; the boundary and interior
        mass matrices integrate them to perimeter and area, exactly in P1."""
        for _ in range(10):
            alpha = -float(rng.uniform(0.1, 5.0))
            tri = make_triangle(rng.uniform(-2, 2), rng.uniform(0.3, 2), rng.uniform(0.3, 2))
            mesh = build_mesh(tri, 3)
            system = assemble(mesh, alpha)
            stiffness, boundary_mass = split_form(mesh, alpha)
            ones = np.ones(system.mass.shape[0])
            quad_k = float(ones @ (stiffness @ ones))
            quad_b = float(ones @ (boundary_mass @ ones))
            quad_m = float(ones @ (system.mass @ ones))
            scale = float(np.abs(stiffness.data).max())
            assert abs(quad_k) < 1e-12 * scale
            assert abs(quad_b - tri.perimeter) < 1e-12 * tri.perimeter
            assert abs(quad_m - tri.S) < 1e-12 * tri.S
            form = float(ones @ (system.form @ ones))
            assert abs(form - alpha * tri.perimeter) < 1e-10 * abs(alpha * tri.perimeter)

    def test_symmetry(self):
        mesh = build_mesh(make_triangle(0.9, 0.7, 0.8), 3)
        system = assemble(mesh, -1.5)
        a = split_form(mesh, -1.5)[0].toarray()
        m = system.mass.toarray()
        assert np.max(np.abs(a - a.T)) < 1e-14 * np.max(np.abs(a))
        assert np.max(np.abs(m - m.T)) < 1e-15
        # mass matrix is positive definite
        assert np.min(np.linalg.eigvalsh(m)) > 0.0

    def test_rejects_nonnegative_alpha(self):
        with pytest.raises(DomainError):
            assemble(build_mesh(make_triangle(0.0, 1.0, 1.0), 2), 0.0)


class TestLatticeCache:
    def test_matches_loop_mesh_and_coo_assembly(self, rng):
        """The lattice numbers its nodes in elimination order, loop_mesh row by
        row: matched by lattice coordinates, the two numberings are one
        bijection, under which nodes, elements, edges and the assembled
        matrices agree."""
        for level in range(7):
            tri = make_triangle(rng.uniform(-2, 2), rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0))
            mesh, ref = build_mesh(tri, level), loop_mesh(tri, level)
            to_ref = loop_ids(ref)
            assert np.array_equal(np.sort(to_ref), np.arange(len(ref.nodes)))
            to_mesh = np.argsort(to_ref)
            scale = float(np.abs(ref.nodes).max())
            assert np.abs(mesh.nodes - ref.nodes[to_ref]).max() <= 1e-15 * scale
            assert np.array_equal(mesh.elements, to_mesh[ref.elements])
            assert np.array_equal(mesh.boundary_edges, to_mesh[ref.boundary_edges])
            assert np.array_equal(mesh.boundary_labels, ref.boundary_labels)
            k_ref, m_ref, b_ref = (permuted(X, to_mesh) for X in coo_assemble(ref))
            # two couplings pin the stiffness and the boundary mass separately
            for alpha in (-1.5, -0.25):
                system = assemble(mesh, alpha)
                assert_same_matrix(system.form, k_ref + alpha * b_ref)
            assert_same_matrix(system.mass, m_ref)
            # the boundary mass is stored on the shared pattern, zeros included
            _, boundary_mass = split_form(mesh, -1.5)
            assert_same_matrix(boundary_mass, b_ref, same_pattern=False)
            assert np.array_equal(boundary_mass.indptr, system.mass.indptr)
            assert np.array_equal(boundary_mass.indices, system.mass.indices)
            assert np.count_nonzero(boundary_mass.data) == (b_ref != 0).sum()

    def test_interleaved_triangles_match_fresh_calls(self):
        tris = [(make_triangle(0.4, 0.9, 1.1), -1.0), (make_triangle(-1.3, 0.5, 0.7), -3.0)]
        fresh = []
        for tri, alpha in tris:
            fem._lattice.cache_clear()
            fresh.append(solve_at_level(tri, alpha, 4).lambda1)
        for _ in range(2):
            for (tri, alpha), lam in zip(tris, fresh):
                assert solve_at_level(tri, alpha, 4).lambda1 == lam

    def test_degenerate_triangle_is_refused(self):
        """A triangle whose |det J| is rounding-small against its edges is
        refused, not assembled."""
        mesh = build_mesh(make_triangle(1e8, 1.0, 1.0), 4)
        with pytest.raises(NumericError, match="degenerate"):
            assemble(mesh, -2.0)

    @pytest.mark.parametrize("c,S", [(1e-85, 1e-170), (1e80, 1e160)])
    def test_jet_past_float64_is_refused(self, c, S):
        """c^4 rounds to 0 below c ~ 1e-81 and S^2 overflows past S ~ 1e154: the
        invariant jet's c-derivative rows leave float64, so assemble and the
        shape derivatives, which read the same jet, raise NumericError."""
        tri = make_triangle(0.0, c, S)
        with pytest.raises(NumericError, match="invariant jet .* leaves float64"):
            assemble(build_mesh(tri, 2), -1.0)
        with pytest.raises(NumericError, match="invariant jet .* leaves float64"):
            fem.shape_derivatives(tri, -1.0)

    def test_lattice_is_read_only(self):
        mesh = build_mesh(make_triangle(0.0, 1.0, 1.0), 2)
        with pytest.raises(ValueError):
            mesh.elements[0, 0] = 1

    def test_pencils_share_the_read_only_pattern(self):
        """assemble's form and mass carry no copy of the lattice's index
        arrays but the arrays themselves, read-only, so a write raises."""
        lat = fem._lattice(5)
        system = assemble(build_mesh(make_triangle(0.3, 0.8, 1.0), 5), -1.0)
        for matrix in (system.form, system.mass):
            assert matrix.indptr is lat.indptr and np.shares_memory(matrix.indices, lat.indices)
            with pytest.raises(ValueError, match="read-only"):
                matrix.indices[0] = 0

    def test_import_builds_no_lattice(self):
        src = os.path.dirname(os.path.dirname(robintri.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import robintri; print(robintri.fem._lattice.cache_info().currsize)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip() == "0"


class TestFactorCounting:
    def test_counts_match_dense_inertia(self, rng):
        """The no-pivot factorisation counts pencil eigenvalues below any shift."""
        for _ in range(25):
            tri = make_triangle(rng.uniform(-2.5, 2.5), rng.uniform(0.3, 2.0), S_THIRD)
            alpha = -float(rng.uniform(0.2, 8.0))
            level = int(rng.integers(2, 4))
            mesh = build_mesh(tri, level)
            system = assemble(mesh, alpha)
            form, mass = system.form, system.mass
            spec = eigh(form.toarray(), mass.toarray(), eigvals_only=True)
            lo, hi = spec[0], spec[min(4, len(spec) - 1)]
            sigma = float(rng.uniform(lo - 0.5 * abs(lo) - 1.0, hi))
            if np.min(np.abs(spec - sigma)) < 1e-8 * max(1.0, abs(sigma)):
                continue
            try:
                _, neg = _factor_counting(form, mass, sigma)
            except RuntimeError:
                continue  # exactly singular shift; the solver retries elsewhere
            assert neg == int(np.sum(spec < sigma))

    def test_counts_match_dense_inertia_at_a_sparse_level(self, rng):
        """Level 5 (561 nodes), the first sparse level, spans many panels of
        width _PANEL: shifts in the widest gap of each window of the spectrum
        count every eigenvalue below them."""
        for _ in range(2):
            tri = make_triangle(rng.uniform(-2.5, 2.5), rng.uniform(0.3, 2.0), S_THIRD)
            alpha = -float(rng.uniform(0.2, 8.0))
            system = assemble(build_mesh(tri, 5), alpha)
            form, mass = system.form, system.mass
            spec = eigh(form.toarray(), mass.toarray(), eigvals_only=True)
            for lo, hi in ((1, 4), (5, 20), (40, 120)):
                k = lo + int(np.argmax(np.diff(spec[lo - 1:hi])))
                assert _factor_counting(form, mass, 0.5 * (spec[k - 1] + spec[k]))[1] == k

    def test_panel_width_moves_values_by_rounding_only(self, monkeypatch):
        """Levels 5 to 7 give the same value, to 1e-12 relative, through a
        factorisation at SuperLU's default panel width; every sparse solve
        passes panel_size=_PANEL."""
        cases = [(make_triangle(0.5, c0(S_THIRD), S_THIRD), -8.0),
                 (make_triangle(2.4, 0.3, S_THIRD), -2.0)]
        panel = [solve_at_level(tri, alpha, level).lambda1
                 for tri, alpha in cases for level in (5, 6, 7)]
        widths = []

        def default_width(*args, panel_size=None, **kwargs):
            widths.append(panel_size)
            return splu(*args, **kwargs)

        monkeypatch.setattr(fem, "splu", default_width)
        default = [solve_at_level(tri, alpha, level).lambda1
                   for tri, alpha in cases for level in (5, 6, 7)]
        assert widths and set(widths) == {fem._PANEL}
        np.testing.assert_allclose(panel, default, rtol=1e-12, atol=0.0)

    def test_every_factorisation_keeps_the_lattice_order(self, monkeypatch):
        """Every pencil factorisation of a ladder to level 8 passes NATURAL and
        keeps perm_r == perm_c.  At levels 5 to 8 its fill equals that of a
        minimum-degree factorisation of the same pencil numbered row by row:
        the lattice's numbering is that order (the row-by-row numbering
        factored in natural order fills far more).  Minimum degree run on the
        ordered numbering itself breaks its ties otherwise and fills 2 to 15%
        more, so it is no reference."""
        specs, first = [], {}

        def recording(A, **kwargs):
            lu = splu(A, **kwargs)
            specs.append((kwargs["permc_spec"], np.array_equal(lu.perm_r, lu.perm_c)))
            if A.shape[0] not in first:
                first[A.shape[0]] = A.copy(), lu.L.nnz + lu.U.nnz
            return lu

        monkeypatch.setattr(fem, "splu", recording)
        tri = make_triangle(0.5, 0.8, S_THIRD)
        assert [res.level for res in walk_levels(tri, -2.0, 2, 8, [])] == list(range(2, 9))
        assert len(specs) >= 4 and set(specs) == {("NATURAL", True)}
        for level in (5, 6, 7, 8):
            pencil, fill = first[(2**level + 1) * (2**level + 2) // 2]
            rows = permuted(pencil, loop_ids(loop_mesh(tri, level))).tocsc()
            mmd = splu(rows, diag_pivot_thresh=0.0, permc_spec="MMD_AT_PLUS_A",
                       panel_size=fem._PANEL, options=dict(SymmetricMode=True))
            assert mmd.L.nnz + mmd.U.nnz == fill

    def test_unsymmetric_permutation_is_refused(self, monkeypatch):
        """The U-diagonal sign count is an inertia only when perm_r == perm_c."""
        tri = make_triangle(0.3, 0.8, 1.0)
        system = assemble(build_mesh(tri, 5), -1.0)
        form, mass = system.form, system.mass
        n = form.shape[0]

        class Pivoted:
            perm_c = np.arange(n)
            perm_r = np.roll(np.arange(n), 1)
            U = sp.identity(n, format="csc")

        calls = []

        def fake_splu(*args, **kwargs):
            calls.append(1)
            return Pivoted()

        monkeypatch.setattr(fem, "splu", fake_splu)
        with pytest.raises(NumericError, match="inertia"):
            _factor_counting(form, mass, -10.0)
        with pytest.raises(NumericError, match="inertia"):
            solve_at_level(tri, -1.0, 5)
        assert len(calls) == 2  # the solver does not retry other shifts

    def test_shift_above_the_ground_value_is_moved_down(self):
        """A warm shift between lambda1 and lambda2, nearer lambda2, counts one
        eigenvalue below it; only a count of zero is accepted, so the solve still
        returns lambda1 and not the pair nearest the shift."""
        tri = make_triangle(0.5, 0.8, S_THIRD)
        spec = dense_spectrum(tri, -2.0, 5)
        sigma0 = spec[1] - 0.1 * (spec[1] - spec[0])
        res = solve_at_level(tri, -2.0, 5, sigma0=sigma0)
        assert abs(res.lambda1 - spec[0]) < 1e-10 * abs(spec[0])

    @pytest.mark.parametrize("alpha,level,text", [
        (-1e307, 3, "dense eigensolver returned no vector"),
        (-1e200, 5, "cold shift overflows float64"),
    ])
    def test_coupling_near_float64_range_is_a_numeric_error(self, alpha, level, text):
        """Every input rule passes, but a dense level (3) gets no vector back and
        a sparse level's cold shift (5) overflows: both raise NumericError,
        which walk_levels records as a skipped level."""
        tri = make_triangle(0.3, 0.6, 0.5)
        with pytest.raises(NumericError, match=text):
            solve_at_level(tri, alpha, level)
        skipped = []
        assert list(walk_levels(tri, alpha, level, level, skipped)) == []
        assert [lev for lev, _ in skipped] == [level] and text in skipped[0][1]

    def test_shift_that_is_not_finite_is_refused_before_factoring(self, monkeypatch):
        """A shift of -inf or nan never certifies (each attempt costs a
        factorisation, 80 in all), so it is refused before the first one,
        also as one of several shifts."""
        factored = []
        monkeypatch.setattr(fem, "splu", lambda *a, **k: factored.append(1))
        for sigma0 in (-math.inf, math.nan, (-10.0, math.nan)):
            with pytest.raises(DomainError, match="sigma0 must be finite"):
                solve_at_level(make_triangle(0.3, 0.6, 0.5), -1.0, 5, sigma0=sigma0)
        assert factored == []


class TestLowestEigenpair:
    def test_matches_dense_solution(self, rng):
        for _ in range(8):
            tri = make_triangle(rng.uniform(-2, 2), rng.uniform(0.4, 1.8), S_THIRD)
            alpha = -float(rng.uniform(0.3, 6.0))
            res = solve_at_level(tri, alpha, 5)
            spec = dense_spectrum(tri, alpha, 5)
            assert abs(res.lambda1 - spec[0]) < 1e-9 * max(1.0, abs(spec[0]))

    def test_coarsest_levels_match_dense_solution(self, monkeypatch):
        """Levels 0 to 4 (at most 153 nodes) are solved by dense LAPACK: no
        sparse factorisation, no Lanczos solve.  Level 5 (561 nodes) is the
        smallest Lanczos solve.  Every level returns the dense minimum."""
        tri = make_triangle(0.3, 0.7, S_THIRD)
        factored = []

        def counting_splu(*args, **kwargs):
            factored.append(1)
            return splu(*args, **kwargs)

        monkeypatch.setattr(fem, "splu", counting_splu)
        for level in range(6):
            res = solve_at_level(tri, -1.5, level)
            lam = dense_spectrum(tri, -1.5, level)[0]
            assert abs(res.lambda1 - lam) < 1e-12 * max(1.0, abs(lam))
            assert (res.iterations > 0) == (level == 5)
            assert bool(factored) == (level == 5)

    @pytest.mark.parametrize("level", [4, 5])
    def test_residual_is_the_mass_inverse_norm(self, rng, level):
        """mass_residual of a dense (level 4) and a Lanczos (level 5) solve; the
        one-level result itself carries no error estimate."""
        for _ in range(4):
            tri = make_triangle(rng.uniform(-2, 2), rng.uniform(0.4, 1.8), S_THIRD)
            alpha = -float(rng.uniform(0.3, 6.0))
            system = assemble(build_mesh(tri, level), alpha)
            res = solve_at_level(tri, alpha, level)
            assert math.isnan(res.residual)
            # the plain quotient on both sides: a converged vector's residual is
            # so small that lambda1's own rounding would move it past 1e-10
            x = res.eigenvector
            ax, mx = system.form @ x, system.mass @ x
            r = ax - (float(x @ ax) / float(x @ mx)) * mx
            want = math.sqrt(float(r @ splu(system.mass.tocsc()).solve(r)))
            assert abs(mass_residual(system, res.eigenvector) - want) <= 1e-10 * want
            # the vector's scale does not enter (checked off the rounding floor)
            ones = np.ones(len(res.eigenvector))
            once = mass_residual(system, ones)
            assert abs(mass_residual(system, -3.0 * ones) - once) <= 1e-12 * once

    def test_value_is_the_rayleigh_quotient(self):
        """lambda1 is the Rayleigh quotient (x^T K x + alpha x^T B x) / x^T M x
        of the returned vector, here summed in long double from the lattice's
        reference forms; at level 7 the Lanczos loop's Ritz value sigma +
        1/theta sits about 2.5e-13 off it."""
        tri, alpha, ld = make_triangle(1.8, 1.32, S_THIRD), -0.5, np.longdouble
        res = solve_at_level(tri, alpha, 7)
        lat, x = fem._lattice(7), res.eigenvector.astype(ld)
        h, ell = fem._weights(fem._invariant_jet(tri.a, tri.c, tri.S), 2.0 * tri.S)
        rows = np.repeat(np.arange(len(x)), np.diff(lat.indptr))

        def quadratic(data):
            return (data * x[rows] * x[lat.indices]).sum()

        kxx = quadratic((0.5 * h[0]).astype(ld) @ lat.stiffness.astype(ld))
        bxx = quadratic(lat.sides.toarray().astype(ld) @ ell[0].astype(ld))
        mxx = quadratic(lat.mass.astype(ld) * ld(2.0 * tri.S))
        quotient = float((kxx + ld(alpha) * bxx) / mxx)
        assert abs(res.lambda1 - quotient) <= 1e-14 * abs(quotient)

    def test_eigenvector_is_signed_consistently(self):
        tri = make_triangle(0.5, 0.8, 1.0)
        res = solve_at_level(tri, -2.0, 4)
        # ground state of the discrete pencil keeps one sign
        assert np.min(res.eigenvector) > -1e-10 * np.max(res.eigenvector)
        assert res.eigenvector.sum() > 0.0

    def test_gap_computation(self):
        tri = make_triangle(1.0, 1.0, S_THIRD)
        res = solve_at_level(tri, -2.0, 5)
        spec = dense_spectrum(tri, -2.0, 5)
        assert abs(res.lambda1 - spec[0]) < 1e-8 * abs(spec[0])

    def test_near_degenerate_pair(self):
        """Flat isosceles at strong coupling: two corner states almost tie, and
        the solve returns the lower of the two."""
        tri = make_triangle(0.0, 3.0, S_THIRD)
        res = solve_at_level(tri, -8.0, 5)
        spec = dense_spectrum(tri, -8.0, 5)
        assert spec[1] - spec[0] < 1e-2 * abs(spec[0])
        assert abs(res.lambda1 - spec[0]) < 1e-10 * abs(spec[0])

    @pytest.mark.parametrize("alpha", [-0.5, -2.0, -8.0, -16.0])
    @pytest.mark.parametrize("a,c", [(0.0, 3.0), (0.0, 2.5), (0.05, 3.0), (2.7, 3.0), (3.0, 0.2)])
    def test_ground_state_of_flat_triangles(self, a, c, alpha):
        """Flat triangles at strong coupling carry corner states that tie or
        nearly tie.  Along a ladder with warm shifts and start vectors, as
        eigenvalue_converged walks it, the one Lanczos pair is the dense
        minimum at level 5, and at level 6 too for the strongest couplings; so
        is the cold solve."""
        tri = make_triangle(a, c, S_THIRD)
        top = 6 if alpha <= -8.0 else 5
        skipped = []
        warm = [res for res in walk_levels(tri, alpha, 2, top, skipped) if res.level >= 5]
        assert not skipped and len(warm) == top - 4
        lowest = {level: dense_minimum(tri, alpha, level) for level in range(5, top + 1)}
        for res in [solve_at_level(tri, alpha, 5)] + warm:
            lam = lowest[res.level]
            assert abs(res.lambda1 - lam) <= 1e-10 * max(1.0, abs(lam))

    def test_frozen_flat_anchor(self):
        """Level-2 value on the flat strong-coupling triangle, frozen from a
        dense reference solve."""
        res = solve_at_level(make_triangle(0.0, 3.0, S_THIRD), -8.0, 2)
        assert abs(res.lambda1 - (-643.710077702709)) < 1e-9 * 643.7

    def test_lanczos_past_its_solve_budget_is_a_numeric_error(self, monkeypatch):
        monkeypatch.setattr(fem, "_MAX_SOLVES", 2)
        with pytest.raises(NumericError, match="Lanczos did not converge in 2 solves"):
            solve_at_level(make_triangle(0.3, 0.7, S_THIRD), -1.5, 5)

    def test_no_certified_shift_is_a_numeric_error(self, monkeypatch):
        """Every shift tried leaves an eigenvalue below it: after the 80th
        attempt the solve gives up, typed."""
        tried = []

        def one_below(A, M, sigma):
            tried.append(sigma)
            return None, 1

        monkeypatch.setattr(fem, "_factor_counting", one_below)
        with pytest.raises(NumericError, match="no shift below the spectrum found"):
            solve_at_level(make_triangle(0.3, 0.7, S_THIRD), -1.5, 5)
        assert len(tried) == 80 and all(b < a for a, b in zip(tried, tried[1:]))

    def test_singular_factorisation_steps_to_a_lower_shift(self, monkeypatch):
        """SuperLU raises RuntimeError on a shift that sits on an eigenvalue:
        the search steps to 2 sigma - 1/S, certifies it, and the solve returns
        the value it returns with no singular shift."""
        tri = make_triangle(0.3, 0.7, S_THIRD)
        want = solve_at_level(tri, -1.5, 5).lambda1
        factor = fem._factor_counting
        tried = []

        def singular_once(A, M, sigma):
            tried.append(sigma)
            if len(tried) == 1:
                raise RuntimeError("Factor is exactly singular")
            return factor(A, M, sigma)

        monkeypatch.setattr(fem, "_factor_counting", singular_once)
        res = solve_at_level(tri, -1.5, 5)
        assert tried[1:] == [2.0 * tried[0] - 1.0 / tri.S]
        assert abs(res.lambda1 - want) <= 1e-12 * abs(want)

    def test_lanczos_breakdown_is_a_numeric_error(self, monkeypatch):
        """A factor whose solves come back negated is not positive definite
        below the spectrum: its first Ritz value is negative, and the Lanczos
        loop stops, typed, instead of returning sigma + 1/theta."""
        factor = fem._factor_counting

        def negated(A, M, sigma):
            lu, neg = factor(A, M, sigma)
            return SimpleNamespace(solve=lambda b: -lu.solve(b)), neg

        monkeypatch.setattr(fem, "_factor_counting", negated)
        with pytest.raises(NumericError, match="Lanczos broke down at shift"):
            solve_at_level(make_triangle(0.3, 0.7, S_THIRD), -1.5, 5)

    def test_mass_solve_that_does_not_converge_is_a_numeric_error(self, monkeypatch):
        """CG cut to one iteration misses rtol 1e-13; mass_residual raises
        with CG's info instead of returning the unconverged norm."""
        tri = make_triangle(0.3, 0.7, S_THIRD)
        system = assemble(build_mesh(tri, 4), -1.5)
        x = solve_at_level(tri, -1.5, 4).eigenvector
        cg = fem.cg
        monkeypatch.setattr(fem, "cg", lambda *args, **kwargs: cg(*args, **kwargs, maxiter=1))
        with pytest.raises(NumericError, match=r"did not converge \(info 1\)"):
            mass_residual(system, x)

    def test_reflection_symmetry(self):
        plus = solve_at_level(make_triangle(0.8, 0.7, 1.0), -1.5, 3)
        minus = solve_at_level(make_triangle(-0.8, 0.7, 1.0), -1.5, 3)
        assert abs(plus.lambda1 - minus.lambda1) < 1e-11 * abs(plus.lambda1)


FLAT_CELLS = [(0.0, 3.0), (0.0, 2.5), (0.05, 3.0), (2.7, 3.0), (3.0, 0.2)]


class CountingLU:
    """A factorisation that counts its solve calls."""

    def __init__(self, lu):
        self.lu, self.calls = lu, 0

    def solve(self, b):
        self.calls += 1
        return self.lu.solve(b)


class TestWarmStart:
    """Each ladder level starts its Lanczos solve from the coarser level's
    ground vector, interpolated onto the finer lattice."""

    def test_prolongation_is_exact(self, rng):
        """The P1 spaces are nested: the interpolated coarse ground vector is
        the same function, so its Rayleigh quotient on the fine pencil is the
        coarse level's value (fine levels 3 to 8)."""
        for _ in range(2):
            tri = make_triangle(rng.uniform(-2, 2), rng.uniform(0.4, 1.8), S_THIRD)
            alpha = -float(rng.uniform(0.3, 6.0))
            fine_levels = []
            for coarse in walk_levels(tri, alpha, 2, 7, []):
                level = coarse.level + 1
                system = assemble(build_mesh(tri, level), alpha)
                form, mass = system.form, system.mass
                u = fem._prolongate(coarse.eigenvector, level)
                quotient = float(u @ (form @ u)) / float(u @ (mass @ u))
                assert abs(quotient - coarse.lambda1) <= 1e-12 * abs(coarse.lambda1)
                fine_levels.append(level)
            assert fine_levels == list(range(3, 9))

    def test_start_is_the_previous_level_only(self, monkeypatch):
        """The first level and the level after a skipped one start cold; every
        other level gets the ground vector of the level just below it."""
        solve = fem.solve_at_level
        starts = {}

        def recording(tri, alpha, level, sigma0=None, start=None):
            if level == 4:
                raise NumericError("forced failure")
            starts[level] = None if start is None else len(start)
            return solve(tri, alpha, level, sigma0=sigma0, start=start)

        monkeypatch.setattr(fem, "solve_at_level", recording)
        list(walk_levels(make_triangle(0.5, 0.9, S_THIRD), -2.0, 2, 6, []))
        assert starts == {2: None, 3: 15, 5: None, 6: 561}

    def test_start_of_the_wrong_level_is_refused(self):
        tri = make_triangle(0.5, 0.9, S_THIRD)
        with pytest.raises(DomainError, match="coarser lattice level"):
            solve_at_level(tri, -2.0, 5, start=np.ones(561))
        with pytest.raises(DomainError, match="nonzero"):
            solve_at_level(tri, -2.0, 5, start=np.zeros(153))

    @pytest.mark.parametrize("level", range(6))
    def test_start_is_checked_at_every_level(self, level):
        """Dense levels (0 to 4) do not use a start but refuse a bad one as
        level 5 does: a column array, a vector of another length, a zero
        vector.  Level 0 has no coarser level, so it refuses every start."""
        tri = make_triangle(0.5, 0.9, S_THIRD)
        coarse = len(build_mesh(tri, level - 1).nodes) if level else 1
        bad = [np.ones((coarse, 1)), np.ones(coarse + 1)] + ([np.ones(1)] if level == 0 else [])
        for start in bad:
            with pytest.raises(DomainError, match="1-D array"):
                solve_at_level(tri, -2.0, level, start=start)
        if level:
            with pytest.raises(DomainError, match="nonzero"):
                solve_at_level(tri, -2.0, level, start=np.zeros(coarse))

    @pytest.mark.parametrize("alpha", [-0.5, -2.0, -8.0, -16.0])
    @pytest.mark.parametrize("a,c", FLAT_CELLS)
    def test_warm_and_cold_starts_find_the_minimum(self, a, c, alpha):
        """On the flat-triangle grid of test_ground_state_of_flat_triangles
        (its (0, 3) cell at alpha -8 is test_near_degenerate_pair), the warm
        ladder solve and a cold direct solve agree with each other and with
        the lowest eigenvalue at levels 5 and 6: the dense minimum at level 5,
        and at level 6 an inertia count that finds no eigenvalue 1e-10 below
        the value (a Rayleigh quotient cannot lie below the minimum).  Where
        the lowest pair is well separated (every cell off a = 0), the vectors
        agree too; where it nearly ties, any mix of the pair is a valid
        answer and only the value is pinned."""
        tri = make_triangle(a, c, S_THIRD)
        skipped = []
        warm = {res.level: res for res in walk_levels(tri, alpha, 2, 6, skipped)}
        assert not skipped
        cold = {level: solve_at_level(tri, alpha, level) for level in (5, 6)}
        for level in (5, 6):
            system = assemble(build_mesh(tri, level), alpha)
            form, mass = system.form, system.mass
            if level == 5:
                spec, vecs = eigh(form.toarray(), mass.toarray(), subset_by_index=[0, 1])
                assert abs(warm[5].lambda1 - spec[0]) <= 1e-10 * max(1.0, abs(spec[0]))
            for res in (warm[level], cold[level]):
                pad = 1e-10 * max(1.0, abs(res.lambda1))
                assert abs(res.lambda1 - cold[level].lambda1) <= pad
                _, neg = _factor_counting(form, mass, res.lambda1 - pad)
                assert neg == 0
        if spec[1] - spec[0] > 1e-2 * abs(spec[0]):
            ref = vecs[:, 0] * np.sign(vecs[:, 0].sum())
            pairs = [(warm[5].eigenvector, ref)] + [
                (warm[level].eigenvector, cold[level].eigenvector) for level in (5, 6)]
            for x, y in pairs:
                assert np.abs(x - y).max() <= 1e-10 * np.abs(y).max()

    def test_solves_are_counted(self, monkeypatch):
        """_power_iterate's third value, which EigenResult.iterations carries
        and the benchmark's iteration counter reads, is the number of
        lu.solve calls, cold and warm."""
        counted = []
        factor = fem._factor_counting

        def counting_factor(*args):
            lu, neg = factor(*args)
            counted.append(CountingLU(lu))
            return counted[-1], neg

        monkeypatch.setattr(fem, "_factor_counting", counting_factor)
        tri = make_triangle(0.5, 0.9, S_THIRD)
        coarse = solve_at_level(tri, -2.0, 5)
        assert coarse.iterations == counted[-1].calls > 0
        fine = solve_at_level(tri, -2.0, 6, start=coarse.eigenvector)
        assert fine.iterations == counted[-1].calls > 0
        system = assemble(build_mesh(tri, 5), -2.0)
        form, mass = system.form, system.mass
        lu = CountingLU(factor(form, mass, -500.0)[0])
        _, _, solves = fem._power_iterate(lu, mass, np.ones(form.shape[0]), -500.0)
        assert solves == lu.calls > 0

    def test_restart_keeps_m_times_the_basis(self, monkeypatch):
        """The loop keeps M q_k beside each basis vector q_k and reads its
        Gram-Schmidt coefficients from it, so a thick restart must recombine
        both: after every restart MQ[k] = M Q[k] to 1e-12 of the largest
        entry for the kept vectors.  A cold start far below the spectrum
        restarts several times and still returns the dense minimum."""
        tri = make_triangle(0.3, 0.7, S_THIRD)
        system = assemble(build_mesh(tri, 5), -1.5)
        form, mass = system.form, system.mass
        restart, restarts = fem._restart, []

        def checking(QM, T, theta, s):
            restart(QM, T, theta, s)
            Q, MQ = (V[:fem._KEEP + 1] for V in QM)
            want = (mass @ Q.T).T
            restarts.append(float(np.abs(MQ - want).max() / np.abs(want).max()))

        monkeypatch.setattr(fem, "_restart", checking)
        lu, _ = _factor_counting(form, mass, -500.0)
        lam, _, _ = fem._power_iterate(lu, mass, np.ones(form.shape[0]), -500.0)
        assert len(restarts) > 1 and max(restarts) <= 1e-12
        want = dense_minimum(tri, -1.5, 5)
        assert abs(lam - want) <= 1e-10 * abs(want)

    def test_ladders_run_without_arpack(self, monkeypatch):
        """With ARPACK's eigsh refusing, all three ladders finish: the sparse
        levels are solved by the module's own Lanczos loop."""
        def refuse(*args, **kwargs):
            raise AssertionError("ARPACK called")

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", refuse)
        assert not {"eigsh", "LinearOperator", "ArpackError"} & set(vars(fem))
        tri = make_triangle(1.0, 1.6, S_THIRD)
        res = eigenvalue_converged(tri, -2.0, rel_tol=1e-3, max_level=6)
        assert res.level == 6 and res.iterations > 0
        _, _, settled = scan._raw_upper_bound(tri, -2.0, 1e-3, sound_target=lambda0(-2.0, S_THIRD))
        assert settled
        assert fem.shape_derivatives(make_triangle(0.0, c0(1.0), 1.0), -0.5).converged


def recorded_walk(monkeypatch, tri, alpha, max_level, rewrite=None):
    """walk_levels from level 2, with each level's sigma0 (after rewrite(level,
    sigma0), if given) and the shifts it factored at, keyed by level."""
    solve, factor = fem.solve_at_level, fem._factor_counting
    factored, seen = [], {}

    def counting(A, M, sigma):
        factored.append(sigma)
        return factor(A, M, sigma)

    def recording(tri, alpha, level, sigma0=None, start=None):
        if rewrite is not None:
            sigma0 = rewrite(level, sigma0)
        factored.clear()
        res = solve(tri, alpha, level, sigma0=sigma0, start=start)
        seen[level] = (sigma0, list(factored))
        return res

    skipped = []
    with monkeypatch.context() as m:
        m.setattr(fem, "_factor_counting", counting)
        m.setattr(fem, "solve_at_level", recording)
        results = {res.level: res for res in walk_levels(tri, alpha, 2, max_level, skipped)}
    assert not skipped
    return results, seen


class TestShiftRules:
    """A ladder's warm shift comes from its observed drop ratio, with the
    conservative shift behind it; every shift rule is relative to 1/S."""

    @pytest.mark.parametrize("S", [1e150, 1e-150])
    def test_cold_solve_is_scale_invariant(self, S):
        """Dilating the triangle by sqrt(S) and alpha by 1/sqrt(S) scales the
        spectrum by 1/S, and so does every shift: the cold level-5 solve
        matches the S = 1 problem's, scaled, to 1e-12 (an absolute shift of -1
        swamped the spectrum at S = 1e150 and returned a positive value)."""
        ref = solve_at_level(make_triangle(0.1, 1.0, 1.0), -1.0, 5).lambda1
        r = math.sqrt(S)
        res = solve_at_level(make_triangle(0.1 * r, r, S), -1.0 / r, 5)
        assert abs(res.lambda1 * S - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("a,c,alpha,pre_asymptotic", [
        (0.0, 2.44, -8.0, True),  # the corner layer is not yet resolved
        (0.5, c0(S_THIRD), -16.0, False),  # the deep-ladder cell, drops tending to h^2
    ])
    def test_predicted_shift_certifies_first_time(self, monkeypatch, a, c, alpha,
                                                  pre_asymptotic):
        """From level 5 on each sparse level is handed lam - _MARGIN r Delta, r
        the last observed drop ratio, then the conservative shift, and certifies
        with one factorisation at the predicted shift, whether the drops still
        grow (every r > 1) or shrink toward the h^2 rate (the last r < 1)."""
        results, seen = recorded_walk(monkeypatch, make_triangle(a, c, S_THIRD), alpha, 7)
        lam = {level: res.lambda1 for level, res in results.items()}
        ratios = []
        for level in (5, 6, 7):
            d1, d2 = lam[level - 3] - lam[level - 2], lam[level - 2] - lam[level - 1]
            ratios.append(d2 / d1)
            predicted = lam[level - 1] - fem._MARGIN * ratios[-1] * d2
            (first, conservative), factored = seen[level]
            assert first == pytest.approx(predicted, rel=1e-14) and conservative < first
            assert factored == [first]
        assert min(ratios) > 1.0 if pre_asymptotic else ratios[-1] < 1.0

    def test_margin_covers_the_actual_drop(self, monkeypatch):
        """On 12 seeded cells of the conjecture grid (the acceptance test's
        (a, c) axes at alpha -0.5, -2 and -8, ladders to level 7), every
        sparse level handed a predicted shift drops by at most _MARGIN times
        the predicted drop r Delta, so that shift lies below the level's
        value, and every sparse level certifies with one factorisation."""
        grid = [(alpha, float(a), float(c)) for alpha in (-0.5, -2.0, -8.0)
                for a in np.linspace(0.0, 3.0, 11)[::3] for c in np.linspace(0.2, 3.0, 11)[::2]]
        predicted = 0
        for k in np.random.default_rng(37).choice(len(grid), 12, replace=False):
            alpha, a, c = grid[k]
            results, seen = recorded_walk(monkeypatch, make_triangle(a, c, S_THIRD), alpha, 7)
            lam = {level: res.lambda1 for level, res in results.items()}
            for level in (5, 6, 7):
                sigma0, factored = seen[level]
                assert factored == [sigma0[0]]
                if len(sigma0) == 2:
                    d1, d2 = lam[level - 3] - lam[level - 2], lam[level - 2] - lam[level - 1]
                    assert lam[level - 1] - lam[level] <= fem._MARGIN * (d2 / d1) * d2
                    predicted += 1
        assert predicted > 0

    def test_rejected_prediction_steps_to_the_conservative_shift(self, monkeypatch):
        """A predicted shift above the level's value (here the level-5 value,
        which level 6 lies below) is rejected by the inertia count; the level
        then certifies at the conservative shift, two factorisations in all,
        and its value is the conservative path's."""
        tri = make_triangle(0.5, 0.9, S_THIRD)

        def above(level, sigma0):
            return (plain[5].lambda1, sigma0[1]) if level == 6 else sigma0

        plain, _ = recorded_walk(monkeypatch, tri, -2.0, 7)
        results, seen = recorded_walk(monkeypatch, tri, -2.0, 7, rewrite=above)
        (_, conservative), factored = seen[6]
        assert factored == [plain[5].lambda1, conservative]
        assert all(len(seen[level][1]) == 1 for level in (5, 7))
        direct = solve_at_level(tri, -2.0, 6, sigma0=conservative, start=plain[5].eigenvector)
        for value in (direct.lambda1, plain[6].lambda1):
            assert abs(results[6].lambda1 - value) <= 1e-12 * abs(value)

    def test_drops_below_rounding_keep_the_conservative_shift(self, monkeypatch):
        """At alpha = -1e-9 the level-to-level drops are rounding noise, so no
        drop ratio is formed: every sparse level gets the conservative shift
        alone."""
        _, seen = recorded_walk(monkeypatch, make_triangle(-0.9, 0.15, 1.0), -1e-9, 7)
        assert all(len(seen[level][0]) == 1 for level in (5, 6, 7))

    def test_pencil_past_float64_is_refused(self):
        """At alpha = -1.7e308 the level-2 boundary form overflows: assemble
        raises NumericError rather than hand LAPACK an infinite matrix, and the
        ladder records it, and the finer levels that fail in turn, as skipped."""
        tri = make_triangle(0.0, 0.15, 1.0)
        with pytest.raises(NumericError, match="leaves float64"):
            assemble(build_mesh(tri, 2), -1.7e308)
        skipped = []
        assert list(walk_levels(tri, -1.7e308, 2, 6, skipped)) == []
        assert [lev for lev, _ in skipped] == [2, 3, 4, 5, 6]
        assert "pencil at alpha = -1.7e+308 leaves float64" in skipped[0][1]


class TestConvergence:
    def test_equilateral_history_is_monotone_upper_bounds(self):
        """Nested P1 spaces give a non-increasing eigenvalue ladder above lambda0."""
        lam0 = lambda0(-1.0, S_THIRD)
        res = eigenvalue_converged(make_triangle(0.0, c0(S_THIRD), S_THIRD), -1.0, rel_tol=1e-6)
        assert res.converged
        hist = np.array(res.history)
        assert np.all(np.diff(hist) <= 1e-12 * np.abs(hist[:-1]))
        assert np.all(hist >= lam0)
        assert abs(res.lambda1 - lam0) < 1e-6 * abs(lam0)

    @pytest.mark.parametrize("S", [1e-4, S_THIRD, 1e4])
    @pytest.mark.parametrize("alpha", [-1e-6, -1e-9, -1e-12])
    def test_weak_coupling_levels_lie_above_lambda0(self, S, alpha):
        """Conforming levels are upper bounds in floating point too: at the
        equilateral triangle every level value from 2 to 8 lies at or above
        lambda0, less a slack of 32 ulps of lambda0 (7e-15 relative; a
        long-double evaluation of the same quotients differed by at most 11
        ulps), and at or above the closed lower bound.  A stiffness applied to
        the nearly constant vector itself rounds to errors that scale with |K|,
        not |lambda|: level 8 then reads 2.0e-3 relative below lambda0 at S =
        1/sqrt(3), alpha = -1e-9, and below the closed lower bound too."""
        tri = make_triangle(0.0, c0(S), S)
        lam0, skipped = lambda0(alpha, S), []
        values = [res.lambda1 for res in walk_levels(tri, alpha, 2, 8, skipped)]
        assert not skipped and len(values) == 7
        assert min(values) >= lam0 - 32.0 * math.ulp(lam0)
        assert min(values) >= closed_lower_bound(alpha, tri)

    def test_skewed_triangle_against_closed_form_bound(self):
        """The corner-localised skewed state sits far below the equilateral
        value; raw conforming levels already prove the strict inequality."""
        tri = make_triangle(1.0, 1.0, S_THIRD)
        res = eigenvalue_converged(tri, -2.0, rel_tol=1e-3)
        assert res.converged
        lam0 = lambda0(-2.0, S_THIRD)
        assert res.lambda1 < lam0
        # any single conforming level is an upper bound for the true value
        assert solve_at_level(tri, -2.0, 4).lambda1 < lam0

    def test_large_coupling_sector_rate(self):
        """lambda1/alpha^2 sits on -1/sin^2(theta_star/2) for a fixed scalene
        triangle once the ground state localises at the sharpest corner.

        The continuum correction is exponentially small already at alpha = -4;
        what grows with |alpha| is the mesh error (the corner layer narrows),
        so each ratio is compared directly and the 1/|alpha| extrapolation is
        checked as the sweep's summary value."""
        tri = make_triangle(0.5, c0(S_THIRD), S_THIRD)
        ratios = []
        for alpha in (-4.0, -8.0, -16.0):
            res = eigenvalue_converged(tri, alpha, rel_tol=1e-5)
            ratios.append(res.lambda1 / alpha**2)
        target = -1.0 / math.sin(0.5 * tri.theta_star) ** 2
        for ratio in ratios:
            assert abs(ratio - target) < 1e-2 * abs(target)
        extrapolated = 2.0 * ratios[-1] - ratios[-2]
        assert abs(extrapolated - target) < 1e-2 * abs(target)

    def test_reports_honest_nonconvergence(self):
        """A thin triangle at strong coupling cannot settle by level 4."""
        res = eigenvalue_converged(
            make_triangle(0.0, 3.0, S_THIRD), -8.0, rel_tol=1e-8, max_level=4
        )
        assert not res.converged
        assert res.residual > 0.0

    def test_skipped_level_is_recorded(self, monkeypatch):
        """A level that fails is listed with its error; the next level starts
        cold and the extrapolation spans the gap with 4^2 - 1."""
        tri = make_triangle(0.5, 0.9, S_THIRD)
        solve = fem.solve_at_level
        shifts = {}

        def failing(tri, alpha, level, sigma0=None, **kwargs):
            shifts[level] = sigma0
            if level == 4:
                raise NumericError("forced failure")
            return solve(tri, alpha, level, sigma0=sigma0, **kwargs)

        monkeypatch.setattr(fem, "solve_at_level", failing)
        res = eigenvalue_converged(tri, -2.0, rel_tol=1e-8, max_level=6)
        assert res.skipped == ((4, "forced failure"),)
        assert shifts[5] is None and shifts[3] is not None and shifts[6] is not None
        lam = {lev: solve(tri, -2.0, lev).lambda1 for lev in (2, 3, 5, 6)}
        assert res.history == pytest.approx([lam[2], lam[3], lam[5], lam[6]], rel=1e-12)
        e1 = lam[5] + (lam[5] - lam[3]) / 15.0
        e2 = lam[6] + (lam[6] - lam[5]) / 3.0
        assert res.lambda1 == pytest.approx(e2, rel=1e-12)
        assert res.residual == pytest.approx(abs(e2 - e1), rel=1e-6)
        finest = solve(tri, -2.0, 6).eigenvector
        assert np.abs(res.eigenvector - finest).max() <= 1e-8 * np.abs(finest).max()

    def test_unconverged_level_names_its_eigenvector(self, monkeypatch):
        """With the top levels skipped, level is the finest solved one (5, whose
        mesh has 561 nodes), not the cap: --dump-mesh writes that mesh."""
        solve = fem.solve_at_level

        def failing(tri, alpha, level, sigma0=None, **kwargs):
            if level >= 6:
                raise NumericError("forced failure")
            return solve(tri, alpha, level, sigma0=sigma0, **kwargs)

        monkeypatch.setattr(fem, "solve_at_level", failing)
        tri = make_triangle(1.0, 0.8, S_THIRD)
        res = eigenvalue_converged(tri, -2.0, rel_tol=1e-8, max_level=7)
        assert not res.converged and [lev for lev, _ in res.skipped] == [6, 7]
        assert res.level == 5
        assert res.eigenvector.shape == (561,) == (len(build_mesh(tri, res.level).nodes),)

    def test_level_above_the_last_solved_one_is_skipped(self, monkeypatch):
        """Nested P1 spaces cannot raise the ground value: a level that lies
        above the last solved one by more than rounding is recorded as
        skipped, the next level starts cold, and the ladder reads the rest."""
        tri = make_triangle(0.5, 0.9, S_THIRD)
        solve = fem.solve_at_level
        starts = {}

        def rising(tri, alpha, level, sigma0=None, start=None):
            starts[level] = (sigma0, start)
            res = solve(tri, alpha, level, sigma0=sigma0, start=start)
            if level == 4:
                res = dataclasses.replace(res, lambda1=0.5 * res.lambda1)
            return res

        monkeypatch.setattr(fem, "solve_at_level", rising)
        res = eigenvalue_converged(tri, -2.0, rel_tol=1e-8, max_level=6)
        assert [lev for lev, _ in res.skipped] == [4]
        assert "lies above the last solved level's" in res.skipped[0][1]
        assert starts[5] == (None, None) and starts[6][0] is not None
        lam = {lev: solve(tri, -2.0, lev).lambda1 for lev in (2, 3, 5, 6)}
        assert res.history == pytest.approx([lam[2], lam[3], lam[5], lam[6]], rel=1e-12)

    def test_level_below_the_closed_lower_bound_is_skipped(self, monkeypatch):
        """No upper bound of the eigenvalue lies below alpha P/S -
        alpha^2/sin^2(theta*/2): a level value below it by more than 1e-12
        relative is recorded as skipped, with the bound in its reason, and the
        next level starts cold; a value below it by less (level 6) is kept."""
        tri = make_triangle(0.5, 0.9, S_THIRD)
        bound = closed_lower_bound(-2.0, tri)
        solve = fem.solve_at_level
        starts = {}

        def sinking(tri, alpha, level, sigma0=None, start=None):
            starts[level] = (sigma0, start)
            res = solve(tri, alpha, level, sigma0=sigma0, start=start)
            below = {4: 1e-9, 6: 1e-13}.get(level)
            if below is not None:
                res = dataclasses.replace(res, lambda1=bound - below * abs(bound))
            return res

        monkeypatch.setattr(fem, "solve_at_level", sinking)
        res = eigenvalue_converged(tri, -2.0, rel_tol=1e-8, max_level=6)
        assert [lev for lev, _ in res.skipped] == [4]
        assert f"lies below the closed lower bound alpha P/S - alpha^2/sin^2(theta*/2) = " \
               f"{bound:.12g}" in res.skipped[0][1]
        assert starts[5] == (None, None) and starts[6][0] is not None
        assert res.history[-1] == bound - 1e-13 * abs(bound)

    @pytest.mark.parametrize("alpha,a,c", [(-1e200, 0.5, 0.9), (-2.0, 0.0, 1e-100)],
                             ids=["alpha-squared-overflows", "sine-squared-underflows"])
    def test_ladder_without_a_finite_lower_bound_runs_unchecked(self, alpha, a, c):
        """Where alpha P/S - alpha^2/sin^2(theta*/2) leaves float64, at alpha =
        -1e200 or at a smallest angle of 2e-200, the bound reads -inf and the
        walk runs without the check, raising nothing."""
        tri = make_triangle(a, c, 1.0)
        assert trial.closed_lower_bound(alpha, tri) == -math.inf
        skipped = []
        list(walk_levels(tri, alpha, 2, 4, skipped))
        assert not any("closed lower bound" in text for _, text in skipped)

    @pytest.mark.parametrize("alpha", [-1e-6, -1e-7, -1e-9])
    def test_rounding_at_weak_coupling_skips_no_level(self, alpha):
        """At weak coupling the ground vector is nearly constant and the level
        values, quotients with the stiffness applied to x - mean(x), fall
        monotonically on a flat triangle: no level is skipped, and the ladder
        settles to 1e-8 at level 4, as the drops shrink 4x per level."""
        res = eigenvalue_converged(make_triangle(-0.9, 0.15, 1.0), alpha, rel_tol=1e-8,
                                   max_level=8)
        assert res.skipped == () and res.converged
        assert res.level == 4 and len(res.history) == 3
        assert np.all(np.diff(res.history) < 0.0)
        assert fem.shape_derivatives(make_triangle(0.0, c0(1.0), 1.0), alpha).skipped == ()

    @pytest.mark.parametrize("alpha,texts", [
        (-1e200, ("lies above", "cold shift overflows")),
        (-7e305, ("cold shift overflows", "cold shift overflows")),
    ])
    def test_rising_level_near_float64_range_is_skipped(self, alpha, texts):
        """At alpha = -1e200 the warm level-5 solve lands above level 4 and the
        cold level-6 shift overflows.  At -7e305 the warm shifts below level 4's
        value (the predicted one and the conservative one, about 2.02 lambda4)
        overflow while the extrapolation stays finite, so level 5 goes cold
        instead of raising DomainError, and its cold shift overflows too.  Both
        skip levels 5 and 6, and the history keeps only conforming,
        non-increasing values."""
        res = eigenvalue_converged(make_triangle(0.3, 0.6, 0.5), alpha, max_level=6)
        assert [lev for lev, _ in res.skipped] == [5, 6]
        assert all(t in text for t, (_, text) in zip(texts, res.skipped))
        hist = np.array(res.history)
        assert len(hist) == 3 and np.all(np.diff(hist) <= 0.0)
        assert math.isfinite(res.lambda1) and not res.converged

    def test_extrapolation_past_float64_is_a_numeric_error(self):
        """At alpha = -1e306 every level is finite but the Richardson step
        overflows; the ladder raises instead of returning -inf as converged."""
        with pytest.raises(NumericError, match="extrapolation to level 4 leaves float64"):
            eigenvalue_converged(make_triangle(0.3, 0.6, 0.5), -1e306, max_level=6)

    def test_one_eigenpair_per_level_solve_count(self):
        """Shift-invert Lanczos started from the coarser level's ground vector,
        at the shift predicted from the ladder's drop ratio, converges the
        ground pair alone in 10 factorisation solves per sparse level here
        (levels 5 and 6 take 10 each; levels 2 to 4 are dense and solve
        nothing)."""
        res = eigenvalue_converged(make_triangle(1.0, 1.6, S_THIRD), -2.0,
                                   rel_tol=1e-3, max_level=6)
        assert len(res.history) == 5 and not res.skipped  # levels 2 to 6
        assert res.iterations <= 10 * 2

    def test_ladders_run_no_mass_matrix_solve(self, monkeypatch):
        """No ladder reads a level's M^{-1} residual, so none pays for its CG
        mass solve: with cg and mass_residual refusing, all three ladders finish."""
        def refuse(*args, **kwargs):
            raise AssertionError("mass-matrix solve inside a ladder")

        monkeypatch.setattr(fem, "cg", refuse)
        monkeypatch.setattr(fem, "mass_residual", refuse)
        tri = make_triangle(1.0, 1.6, S_THIRD)
        res = eigenvalue_converged(tri, -2.0, rel_tol=1e-3, max_level=6)
        assert res.level == 6 and not res.skipped  # Lanczos levels 5 and 6 ran
        _, _, settled = scan._raw_upper_bound(tri, -2.0, 1e-3, sound_target=lambda0(-2.0, S_THIRD))
        assert settled
        assert fem.shape_derivatives(make_triangle(0.0, c0(1.0), 1.0), -0.5).converged

    def test_non_finite_tolerance_is_refused(self):
        tri = make_triangle(0.5, 0.6, S_THIRD)
        for tol in (math.inf, math.nan):
            with pytest.raises(DomainError, match="finite"):
                eigenvalue_converged(tri, -1.0, rel_tol=tol)

    def test_needs_two_levels(self):
        for max_level in (-1, 2, 3):
            with pytest.raises(DomainError, match="max_level"):
                eigenvalue_converged(make_triangle(0.0, c0(1.0), 1.0), -1.0, max_level=max_level)


class TestShapeDerivatives:
    """Exact derivatives of each level's eigenvalue in (a, c), at the
    equilateral point unless a triangle is given (Nelson's method on the
    weighted reference matrices)."""

    @staticmethod
    def level_jets(alpha, levels, tri=None):
        tri = tri or make_triangle(0.0, c0(S_THIRD), S_THIRD)
        h, ell = fem._weights(fem._invariant_jet(tri.a, tri.c, tri.S), 2.0 * tri.S)
        for res in fem.walk_levels(tri, alpha, levels[0], levels[-1], []):
            yield res.level, fem._level_derivatives(fem._lattice(res.level), res.eigenvector,
                                                    alpha, h, ell, 2.0 * tri.S)

    @pytest.mark.parametrize("alpha", [-0.1, -0.5, -1.0])
    def test_hessian_matches_central_differences(self, alpha):
        cc = c0(S_THIRD)
        step = 1e-3 * cc
        ((_, jet),) = self.level_jets(alpha, [5])
        lam = {(i, j): solve_at_level(make_triangle(i * step, cc + j * step, S_THIRD),
                                      alpha, 5).lambda1
               for i in (-1, 0, 1) for j in (-1, 0, 1)}
        hess_aa = (lam[1, 0] - 2.0 * lam[0, 0] + lam[-1, 0]) / step**2
        hess_cc = (lam[0, 1] - 2.0 * lam[0, 0] + lam[0, -1]) / step**2
        assert jet[0] == pytest.approx(lam[0, 0], rel=1e-12)
        assert jet[3] == pytest.approx(hess_aa, rel=1e-4)
        assert jet[5] == pytest.approx(hess_cc, rel=1e-4)

    def test_jet_matches_central_differences_away_from_the_equilateral(self):
        """On a scalene triangle neither the gradient nor the mixed derivative
        vanishes, so each of the six entries of the level-5 jet is checked
        against central differences of the level solve: a swapped jet row or
        a dropped 2 u^T A_x u_y term shows here."""
        S, alpha, step = S_THIRD, -2.5, 1e-4
        a, c = 0.7, 0.9 * c0(S)
        ((_, jet),) = self.level_jets(alpha, [5], make_triangle(a, c, S))
        lam = {(i, j): solve_at_level(make_triangle(a + i * step, c + j * step, S),
                                      alpha, 5).lambda1
               for i in (-1, 0, 1) for j in (-1, 0, 1)}
        fd = [lam[0, 0],
              (lam[1, 0] - lam[-1, 0]) / (2.0 * step),
              (lam[0, 1] - lam[0, -1]) / (2.0 * step),
              (lam[1, 0] - 2.0 * lam[0, 0] + lam[-1, 0]) / step**2,
              (lam[1, 1] - lam[1, -1] - lam[-1, 1] + lam[-1, -1]) / (4.0 * step**2),
              (lam[0, 1] - 2.0 * lam[0, 0] + lam[0, -1]) / step**2]
        assert jet == pytest.approx(fd, rel=1e-5, abs=0.0)

    @pytest.mark.parametrize("alpha", [-0.1, -0.5, -1.0])
    def test_symmetry_at_every_level(self, alpha):
        """The lattice mesh of the equilateral triangle has full D3 symmetry:
        the gradient and the mixed derivative vanish, and hess_cc = 12 hess_aa."""
        cc = c0(S_THIRD)
        seen = []
        for level, (lam, grad_a, grad_c, hess_aa, hess_ac, hess_cc) in self.level_jets(
                alpha, [2, 8]):
            seen.append(level)
            assert max(abs(grad_a), abs(grad_c)) <= 1e-9 * abs(lam) / cc
            assert abs(hess_ac) <= 1e-9 * abs(lam) / cc**2
            assert hess_cc == pytest.approx(12.0 * hess_aa, rel=1e-8)
        assert seen == list(range(2, 9))

    def test_weight_jet_matches_central_differences(self):
        """Value row: the inverse-metric weights and side lengths of the
        triangle; derivative rows: central differences of the value row."""
        a, c, S = 0.4, 0.7, 0.9
        b = S / c

        def values(a, c):
            h, ell = fem._weights(fem._invariant_jet(a, c, S), 2.0 * S)
            return np.concatenate([h[0], ell[0]])

        h, ell = fem._weights(fem._invariant_jet(a, c, S), 2.0 * S)
        jet = np.hstack([h, ell])
        assert jet[0, :3] == pytest.approx([(b * b + (a + c) ** 2) / (2.0 * S),
                                            -c * (a + c) / S, 2.0 * c * c / S], rel=1e-14)
        assert jet[0, 3:] == pytest.approx(make_triangle(a, c, S).side_lengths, rel=1e-14)
        step = 1e-4
        d = {(i, j): values(a + i * step, c + j * step)
             for i in (-1, 0, 1) for j in (-1, 0, 1)}
        fd = [
            (d[1, 0] - d[-1, 0]) / (2 * step),
            (d[0, 1] - d[0, -1]) / (2 * step),
            (d[1, 0] - 2 * d[0, 0] + d[-1, 0]) / step**2,
            (d[1, 1] - d[1, -1] - d[-1, 1] + d[-1, -1]) / (4 * step**2),
            (d[0, 1] - 2 * d[0, 0] + d[0, -1]) / step**2,
        ]
        assert np.abs(jet[1:] - np.array(fd)).max() <= 1e-6 * np.abs(jet).max()
