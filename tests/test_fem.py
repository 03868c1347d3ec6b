"""Tests for the P1 finite-element solver.

The eigenvalue path is validated against dense eigensolves on coarse meshes,
including the factorisation-based counting that certifies a shift sits below
the whole spectrum — the part that keeps shift-invert iteration honest on
nearly-degenerate problems.
"""

import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.sparse.linalg import splu

import robintri
from robintri import fem, scan
from robintri.equilateral import lambda0
from robintri.errors import DomainError, NumericError, ResourceError
from robintri.fem import (
    FemMesh,
    _factor_counting,
    _pencil,
    assemble,
    build_mesh,
    dump_mesh,
    eigenvalue_converged,
    lowest_eigenpair,
    mass_residual,
    solve_at_level,
    walk_levels,
)
from robintri.geometry import c0, equilateral_params, make_triangle

S_THIRD = 1.0 / math.sqrt(3.0)


def dense_spectrum(tri, alpha, level):
    mesh = build_mesh(tri, level)
    system = assemble(mesh, alpha)
    form = (system.stiffness + alpha * system.boundary_mass).toarray()
    return eigh(form, system.mass.toarray(), eigvals_only=True)


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
    return FemMesh(
        nodes=np.asarray(coords),
        elements=np.asarray(elems, dtype=np.int64),
        boundary_edges=np.asarray(edges, dtype=np.int64),
        boundary_labels=np.repeat(np.arange(3), n),
        refinement_level=level,
    )


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
            system = assemble(build_mesh(tri, 3), alpha)
            ones = np.ones(system.mass.shape[0])
            quad_k = float(ones @ (system.stiffness @ ones))
            quad_b = float(ones @ (system.boundary_mass @ ones))
            quad_m = float(ones @ (system.mass @ ones))
            scale = float(np.abs(system.stiffness.data).max())
            assert abs(quad_k) < 1e-12 * scale
            assert abs(quad_b - tri.perimeter) < 1e-12 * tri.perimeter
            assert abs(quad_m - tri.params.S) < 1e-12 * tri.params.S
            form = quad_k + alpha * quad_b
            assert abs(form - alpha * tri.perimeter) < 1e-10 * abs(alpha * tri.perimeter)

    def test_symmetry(self):
        system = assemble(build_mesh(make_triangle(0.9, 0.7, 0.8), 3), -1.5)
        a = system.stiffness.toarray()
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
        for level in range(7):
            tri = make_triangle(rng.uniform(-2, 2), rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0))
            mesh, ref = build_mesh(tri, level), loop_mesh(tri, level)
            scale = float(np.abs(ref.nodes).max())
            assert np.abs(mesh.nodes - ref.nodes).max() <= 1e-15 * scale
            for name in ("elements", "boundary_edges", "boundary_labels"):
                assert np.array_equal(getattr(mesh, name), getattr(ref, name))
            system = assemble(mesh, -1.5)
            k_ref, m_ref, b_ref = coo_assemble(ref)
            assert_same_matrix(system.stiffness, k_ref)
            assert_same_matrix(system.mass, m_ref)
            # the boundary mass is stored on the shared pattern, zeros included
            assert_same_matrix(system.boundary_mass, b_ref, same_pattern=False)
            assert np.array_equal(system.boundary_mass.indptr, system.mass.indptr)
            assert np.array_equal(system.boundary_mass.indices, system.mass.indices)
            nonzero = system.boundary_mass.copy()
            nonzero.eliminate_zeros()
            assert (nonzero != 0).sum() == (b_ref != 0).sum()

    def test_interleaved_triangles_match_fresh_calls(self):
        tris = [(make_triangle(0.4, 0.9, 1.1), -1.0), (make_triangle(-1.3, 0.5, 0.7), -3.0)]
        fresh = []
        for tri, alpha in tris:
            fem._lattice.cache_clear()
            fresh.append(solve_at_level(tri, alpha, 4).lambda1)
        for _ in range(2):
            for (tri, alpha), lam in zip(tris, fresh):
                assert solve_at_level(tri, alpha, 4).lambda1 == lam

    def test_permuted_elements(self, rng):
        """Assembly reads the lattice's reference matrices, so a mesh that is
        not the lattice's affine image is refused, not mis-assembled."""
        mesh = build_mesh(make_triangle(0.7, 0.6, 0.9), 4)
        moved = mesh.nodes.copy()
        moved[7] += 1e-3
        for wrong in (
            replace(mesh, elements=mesh.elements[rng.permutation(len(mesh.elements))]),
            replace(mesh, boundary_edges=mesh.boundary_edges[::-1]),
            replace(mesh, refinement_level=3),
            replace(mesh, nodes=moved),
        ):
            with pytest.raises(DomainError):
                assemble(wrong, -2.0)
        with pytest.raises(NumericError, match="degenerate"):
            assemble(replace(mesh, nodes=mesh.nodes * [1.0, 0.0]), -2.0)
        # equal topology arrays that are not the cached ones are accepted
        copied = replace(mesh, elements=mesh.elements.copy())
        assert_same_matrix(assemble(copied, -2.0).stiffness, assemble(mesh, -2.0).stiffness)

    def test_lattice_is_read_only(self):
        mesh = build_mesh(make_triangle(0.0, 1.0, 1.0), 2)
        with pytest.raises(ValueError):
            mesh.elements[0, 0] = 1

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
            form, mass = _pencil(system)
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

    def test_unsymmetric_permutation_is_refused(self, monkeypatch):
        """The U-diagonal sign count is an inertia only when perm_r == perm_c."""
        system = assemble(build_mesh(make_triangle(0.3, 0.8, 1.0), 5), -1.0)
        form, mass = _pencil(system)
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
            lowest_eigenpair(system, make_triangle(0.3, 0.8, 1.0))
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


class TestLowestEigenpair:
    def test_matches_dense_solution(self, rng):
        for _ in range(8):
            tri = make_triangle(rng.uniform(-2, 2), rng.uniform(0.4, 1.8), S_THIRD)
            alpha = -float(rng.uniform(0.3, 6.0))
            mesh = build_mesh(tri, 5)
            system = assemble(mesh, alpha)
            res = lowest_eigenpair(system, tri)
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
            res = lowest_eigenpair(system, tri)
            assert math.isnan(res.residual)
            form = system.stiffness + alpha * system.boundary_mass
            r = form @ res.eigenvector - res.lambda1 * (system.mass @ res.eigenvector)
            want = math.sqrt(float(r @ splu(system.mass.tocsc()).solve(r)))
            assert abs(mass_residual(system, res.eigenvector) - want) <= 1e-10 * want
            # the vector's scale does not enter (checked off the rounding floor)
            ones = np.ones(len(res.eigenvector))
            once = mass_residual(system, ones)
            assert abs(mass_residual(system, -3.0 * ones) - once) <= 1e-12 * once

    def test_matrices_off_the_shared_pattern_are_refused(self):
        """The pencil is arithmetic on one CSR pattern's data: a lumped (diagonal)
        mass matrix or unsorted column indices are refused, not misread."""
        tri = make_triangle(0.3, 0.8, S_THIRD)
        system = assemble(build_mesh(tri, 5), -1.5)
        lumped = sp.diags(np.asarray(system.mass.sum(axis=1)).ravel(), format="csr")
        indptr = system.mass.indptr
        row = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
        flip = indptr[row] + indptr[row + 1] - 1 - np.arange(len(row))  # reverse each row
        unsorted = [sp.csr_matrix((m.data[flip], m.indices[flip], indptr), shape=m.shape)
                    for m in (system.stiffness, system.boundary_mass, system.mass)]
        assert abs(unsorted[2] - system.mass).max() == 0.0
        for wrong in (replace(system, mass=lumped),
                      replace(system, boundary_mass=system.boundary_mass.tocsc()),
                      fem.FemSystem(*unsorted, alpha=-1.5)):
            with pytest.raises(DomainError, match="pattern"):
                lowest_eigenpair(wrong, tri)
            with pytest.raises(DomainError, match="pattern"):
                mass_residual(wrong, np.ones(system.mass.shape[0]))

    def test_value_is_the_rayleigh_quotient(self):
        """lambda1 is x^T A x / x^T M x of the returned vector; at level 7 a
        Lanczos Ritz value sits up to about 2e-13 off it."""
        tri = make_triangle(1.8, 1.32, S_THIRD)
        system = assemble(build_mesh(tri, 7), -0.5)
        res = lowest_eigenpair(system, tri)
        x = res.eigenvector
        form = system.stiffness + system.alpha * system.boundary_mass
        quotient = float(x @ (form @ x)) / float(x @ (system.mass @ x))
        assert abs(res.lambda1 - quotient) <= 1e-14 * abs(quotient)

    def test_eigenvector_is_signed_consistently(self):
        tri = make_triangle(0.5, 0.8, 1.0)
        system = assemble(build_mesh(tri, 4), -2.0)
        res = lowest_eigenpair(system, tri)
        # ground state of the discrete pencil keeps one sign
        assert np.min(res.eigenvector) > -1e-10 * np.max(res.eigenvector)
        assert res.eigenvector.sum() > 0.0

    def test_gap_computation(self):
        tri = make_triangle(1.0, 1.0, S_THIRD)
        system = assemble(build_mesh(tri, 5), -2.0)
        res = lowest_eigenpair(system, tri)
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
        nearly tie.  Along a ladder with warm shifts, as eigenvalue_converged
        walks it, the one Lanczos pair is the dense minimum at level 5, and at
        level 6 too for the strongest couplings; so is the cold-shift solve."""
        tri = make_triangle(a, c, S_THIRD)
        top = 6 if alpha <= -8.0 else 5
        skipped = []
        warm = [res for res in walk_levels(tri, alpha, 2, top, skipped) if res.level >= 5]
        assert not skipped and len(warm) == top - 4
        for res in [solve_at_level(tri, alpha, 5)] + warm:
            lam = dense_spectrum(tri, alpha, res.level)[0]
            assert abs(res.lambda1 - lam) <= 1e-10 * max(1.0, abs(lam))

    def test_frozen_flat_anchor(self):
        """Level-2 value on the flat strong-coupling triangle, frozen from a
        dense reference solve."""
        res = solve_at_level(make_triangle(0.0, 3.0, S_THIRD), -8.0, 2)
        assert abs(res.lambda1 - (-643.710077702709)) < 1e-9 * 643.7

    def test_reflection_symmetry(self):
        plus = solve_at_level(make_triangle(0.8, 0.7, 1.0), -1.5, 3)
        minus = solve_at_level(make_triangle(-0.8, 0.7, 1.0), -1.5, 3)
        assert abs(plus.lambda1 - minus.lambda1) < 1e-11 * abs(plus.lambda1)


class TestConvergence:
    def test_equilateral_history_is_monotone_upper_bounds(self):
        """Nested P1 spaces give a non-increasing eigenvalue ladder above lambda0."""
        lam0 = lambda0(-1.0, S_THIRD)
        res = eigenvalue_converged(equilateral_params(S_THIRD), -1.0, rel_tol=1e-6)
        assert res.converged
        hist = np.array(res.history)
        assert np.all(np.diff(hist) <= 1e-12 * np.abs(hist[:-1]))
        assert np.all(hist >= lam0)
        assert abs(res.lambda1 - lam0) < 1e-6 * abs(lam0)

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

        def failing(tri, alpha, level, sigma0=None):
            shifts[level] = sigma0
            if level == 4:
                raise NumericError("forced failure")
            return solve(tri, alpha, level, sigma0=sigma0)

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

        def failing(tri, alpha, level, sigma0=None):
            if level >= 6:
                raise NumericError("forced failure")
            return solve(tri, alpha, level, sigma0=sigma0)

        monkeypatch.setattr(fem, "solve_at_level", failing)
        tri = make_triangle(1.0, 0.8, S_THIRD)
        res = eigenvalue_converged(tri, -2.0, rel_tol=1e-8, max_level=7)
        assert not res.converged and [lev for lev, _ in res.skipped] == [6, 7]
        assert res.level == 5
        assert res.eigenvector.shape == (561,) == (len(build_mesh(tri, res.level).nodes),)

    def test_one_eigenpair_per_level_solve_count(self):
        """Shift-invert Lanczos with a 10-vector basis converges the ground pair
        alone in about 16 factorisation solves per sparse level (5 and 6 here;
        levels 2 to 4 are dense and solve nothing).  ARPACK's default 20-vector
        basis spends about 21, and a second pair about three times that."""
        res = eigenvalue_converged(make_triangle(1.0, 1.6, S_THIRD), -2.0,
                                   rel_tol=1e-3, max_level=6)
        assert len(res.history) == 5 and not res.skipped  # levels 2 to 6
        assert res.iterations <= 18 * 2

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
        assert fem.shape_derivatives_at_equilateral(-0.5, 1.0).converged

    def test_non_finite_tolerance_is_refused(self):
        tri = make_triangle(0.5, 0.6, S_THIRD)
        for tol in (math.inf, math.nan):
            with pytest.raises(DomainError, match="finite"):
                eigenvalue_converged(tri, -1.0, rel_tol=tol)

    def test_needs_two_levels(self):
        for max_level in (-1, 2, 3):
            with pytest.raises(DomainError, match="max_level"):
                eigenvalue_converged(equilateral_params(1.0), -1.0, max_level=max_level)


class TestShapeDerivatives:
    """Exact derivatives of each level's eigenvalue in (a, c) at the
    equilateral point (Nelson's method on the weighted reference matrices)."""

    @staticmethod
    def level_jets(alpha, levels):
        cc = c0(S_THIRD)
        h, ell = fem._weights(fem._invariant_jet(0.0, cc, S_THIRD), 2.0 * S_THIRD)
        for res in fem.walk_levels(make_triangle(0.0, cc, S_THIRD), alpha,
                                   levels[0], levels[-1], []):
            yield res.level, fem._level_derivatives(fem._lattice(res.level), res.eigenvector,
                                                    alpha, h, ell, 2.0 * S_THIRD)

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
