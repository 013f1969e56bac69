"""Staggered-grid velocity space: adjointness, projection, convection
antisymmetry, the domain constant in the compactness inequality, and the
initial-data smoothing step."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import LinAlgError

from feneflow import (
    build_config_grid,
    build_flow_grid,
    convection_matrix,
    dual_norm_sq,
    poincare_constant,
    smooth_initial_velocity,
)
from feneflow.flowspace import band_storage, banded_solver, stokes_solver
from feneflow.stepping import _transport_csr
from flow_reference import (
    bordered_stokes_solver,
    cell_neumann_stiffness,
    convection_reference,
    loop_convection_matrix,
    loop_flow_operators,
    project_divergence_free,
    scalar_dirichlet_stiffness,
)
from kron_reference import band_layout, band_to_dense

ROOT = Path(__file__).resolve().parents[1]
POINCARE_UNIT_SQUARE = 1.0 / (math.pi * math.sqrt(2.0))  # 1/sqrt(2 pi^2)


def random_faces(grid, rng, scale=1.0):
    return scale * rng.standard_normal(grid.n_u + grid.n_v)


def canonical_csr(M):
    M = M.tocsr(copy=True)
    M.eliminate_zeros()
    M.sort_indices()
    return M


def assert_same_csr(got, want):
    """Bitwise-equal canonical CSR: same pattern, same stored values."""
    got, want = canonical_csr(got), canonical_csr(want)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.data, want.data)


# --------------------------------------------------------------------------
# stencil-written operators against the loop-built reference
# --------------------------------------------------------------------------


@pytest.mark.parametrize("side", [1.0, 0.7])
@pytest.mark.parametrize("N", [4, 5, 8, 12, 16, 32])
def test_operators_match_loop_reference_bitwise(N, side):
    # the direct sparse factorizations depend on the pattern and on every
    # stored bit, so the assembled operators must equal the reference exactly
    grid = build_flow_grid(N, side)
    D, G, K, T = loop_flow_operators(N, side)
    assert_same_csr(grid.D, D)
    assert_same_csr((-grid.D.T).tocsr(), G)
    assert_same_csr(grid.K, K)
    for got, want in zip((grid.grad[k::4] for k in range(4)), T):
        assert_same_csr(got, want)
    rng = np.random.default_rng(N)
    for _ in range(3):
        adv = random_faces(grid, rng)
        adv[rng.random(adv.size) < 0.3] = 0.0   # zero advectors drop entries
        assert_same_csr(convection_matrix(grid, adv), loop_convection_matrix(N, side, adv))


@pytest.mark.parametrize("side", [1.0, 0.7])
@pytest.mark.parametrize("N", [4, 5, 8, 12, 16, 32])
def test_operators_are_stored_canonically(N, side):
    # the bitwise comparison above canonicalizes both sides first; the
    # operators as built must already be canonical (sorted columns, no
    # duplicate) and store no zero, since band_storage reads the half-
    # bandwidths off the stored pattern, zeros included
    grid = build_flow_grid(N, side)
    for M in (grid.D, grid.K, grid.grad, grid.curl):
        assert M.format == "csr" and M.has_canonical_format
        rows = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
        in_row = rows[1:] == rows[:-1]
        assert np.all(np.diff(M.indices.astype(np.int64))[in_row] > 0)
        assert np.count_nonzero(M.data) == M.nnz


def five_point_pattern(*shapes):
    """indptr and indices of the block-diagonal five-point pattern on grids
    of ``shapes``, every in-grid neighbour slot kept, by loops."""
    indptr, indices, start = [0], [], 0
    for n_x, n_y in shapes:
        for i in range(n_x):
            for j in range(n_y):
                for a, b in ((i - 1, j), (i, j - 1), (i, j), (i, j + 1), (i + 1, j)):
                    if 0 <= a < n_x and 0 <= b < n_y:
                        indices.append(start + a * n_y + b)
                indptr.append(len(indices))
        start += n_x * n_y
    return np.array(indptr), np.array(indices)


@pytest.mark.parametrize("N", [4, 5, 8, 16])
def test_per_step_matrices_store_every_in_grid_slot(N):
    # band_storage reads the half-bandwidths off the stored pattern, so the
    # per-step convection and transport matrices must store every in-grid
    # five-point slot, zeros included, even at zero velocity; and, as the
    # operators above, be canonical CSR with int32 indices
    grid = build_flow_grid(N, 0.7)
    faces = random_faces(grid, np.random.default_rng(N))
    faces[::3] = 0.0
    conv = ((N - 1, N), (N, N - 1))
    for u in (faces, np.zeros_like(faces)):
        for M, shapes in ((convection_matrix(grid, u), conv),
                          (_transport_csr(grid, u, 1.0, 0.5)[0], ((N, N),)),
                          (_transport_csr(grid, u, 0.0, 0.0)[0], ((N, N),))):
            indptr, indices = five_point_pattern(*shapes)
            assert M.format == "csr" and M.has_canonical_format
            assert M.indices.dtype == np.int32 and M.indptr.dtype == np.int32
            np.testing.assert_array_equal(M.indptr, indptr)
            np.testing.assert_array_equal(M.indices, indices)
    assert not convection_matrix(grid, np.zeros_like(faces)).data.any()


@pytest.mark.parametrize("N", [4, 5, 8, 16])
def test_cell_stiffness_matches_reference_bitwise(N):
    # the stiffness part of the density-solve band (unit diffusion, no mass,
    # no transport) is bitwise the explicit 1D-stencil reference; it is also
    # h^2 D D^T
    grid = build_flow_grid(N, 0.7)
    S = band_storage(_transport_csr(grid, np.zeros(grid.n_u + grid.n_v), 1.0, 0.0)[0])[0]
    assert S.tobytes(order="F") == band_layout(cell_neumann_stiffness(N)).tobytes(order="F")
    np.testing.assert_allclose((grid.D @ grid.D.T).toarray() * grid.h**2, band_to_dense(S),
                               rtol=1e-14, atol=0.0)


def test_flow_grid_rejects_impossible_geometry():
    # a side that is not positive and finite gives no mesh width, as too
    # few cells give no interior; both are rejected before any arithmetic
    for side in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive finite side"):
            build_flow_grid(8, side=side)
    with pytest.raises(ValueError, match="at least 4 cells"):
        build_flow_grid(3)


# --------------------------------------------------------------------------
# banded direct solves
# --------------------------------------------------------------------------


@pytest.mark.parametrize("kl, ku", [(0, 2), (1, 3), (4, 0), (5, 2), (3, 3)])
def test_band_storage_matches_reference_layout(kl, ku):
    # random sparse banded matrices with unequal half-bandwidths, about a
    # third of the in-band entries dropped but the diagonal and both outer
    # diagonals kept: the band is bitwise the reference layout, with the
    # half-bandwidths read off the pattern and kl zero fill rows on top; the
    # banded LU solves the system
    rng = np.random.default_rng(10 * kl + ku)
    n = 17
    offset = np.subtract.outer(np.arange(n), np.arange(n))
    keep = (offset <= kl) & (offset >= -ku) & (rng.random((n, n)) > 0.3)
    keep |= (offset == 0) | (offset == kl) | (offset == -ku)
    dense = np.where(keep, rng.standard_normal((n, n)), 0.0)
    dense[np.diag_indices(n)] += 2.0 * (kl + ku + 1)
    M = sp.csr_matrix(dense)
    ab, got_kl, got_ku = band_storage(M)
    assert (got_kl, got_ku) == (kl, ku)
    assert ab.flags.f_contiguous and ab.shape == (2 * kl + ku + 1, n)
    assert ab.tobytes(order="F") == band_layout(M).tobytes(order="F")
    assert not ab[:kl].any()
    b = rng.standard_normal(n)
    want = np.linalg.solve(dense, b)
    assert np.abs(banded_solver(*band_storage(M))(b) - want).max() <= 1e-12 * np.abs(want).max()


def test_package_runs_without_sparse_linalg():
    # every direct solve is a banded LAPACK LU, so neither importing the
    # package nor a forced run (stream-function solves and the dual norm)
    # loads scipy.sparse.linalg; checked in a fresh interpreter, since the
    # test references import it here
    code = ("import sys, feneflow\n"
            "feneflow.run_scenario(feneflow.RunConfig(scenario='forced', N_x=8, N_r=10,\n"
            "                                         N_theta=10, dt=0.01, T=0.02))\n"
            "print('scipy.sparse.linalg' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), FENEFLOW_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# --------------------------------------------------------------------------
# discrete calculus structure
# --------------------------------------------------------------------------


def test_gradient_is_negative_divergence_transpose(flow12, rng):
    # -D^T applied to cell pressures is the centre-to-face difference
    # gradient, with no term on the zero normal wall faces; it is orthogonal
    # to every curl field, so pressure does no work on divergence-free fields
    g, N = flow12, flow12.N
    p = rng.standard_normal((N, N))
    grad = -g.D.T @ p.ravel()
    want = np.concatenate([((p[1:, :] - p[:-1, :]) / g.h).ravel(),
                           ((p[:, 1:] - p[:, :-1]) / g.h).ravel()])
    np.testing.assert_allclose(grad, want, rtol=0.0, atol=1e-12 * np.abs(want).max())
    s = rng.standard_normal((N - 1) ** 2)
    u = g.curl @ s
    assert abs(g.ip(u, grad)) <= 1e-12 * g.norm_sq(u) ** 0.5 * g.norm_sq(grad) ** 0.5


@pytest.mark.parametrize("side", [1.0, 0.7])
@pytest.mark.parametrize("N", [4, 5, 8, 16, 32])
def test_divergence_annihilates_curl(N, side):
    # every cell's divergence sums its four corner stream values once with
    # each sign, so D C has no stored entry; C^T C is the nodal 5-point
    # Dirichlet Laplacian, whose smallest eigenvalue (8 / h^2) sin^2(pi / (2N))
    # is positive, so the stream function of a curl is unique
    grid = build_flow_grid(N, side)
    DC = grid.D @ grid.curl
    assert DC.shape == (grid.n_c, (N - 1) ** 2)
    assert abs(DC).max() == 0.0
    lam_min = np.linalg.eigvalsh((grid.curl.T @ grid.curl).toarray())[0]
    assert lam_min == pytest.approx(8.0 / grid.h**2 * math.sin(math.pi / (2 * N)) ** 2,
                                    rel=1e-10)


def test_viscous_form_symmetric_positive(flow12, rng):
    K = flow12.K
    assert abs(K - K.T).max() == 0.0
    for _ in range(10):
        w = random_faces(flow12, rng)
        assert flow12.grad_norm_sq(w) > 0.0


def test_tensor_gradient_trace_is_divergence(flow12, rng):
    w = random_faces(flow12, rng)
    sigma = flow12.cell_velocity_gradient(w)
    np.testing.assert_allclose(sigma[:, 0, 0] + sigma[:, 1, 1],
                               flow12.divergence(w), atol=1e-13)


def test_tensor_gradient_exact_on_linear_fields(flow12):
    # u = (a x + b y, c x - a y) has constant gradient [[a, b], [c, -a]]
    a, b, c = 0.7, -1.3, 0.4
    g = flow12
    w = np.concatenate([a * g.xu + b * g.yu, c * g.xv - a * g.yv])
    sigma = g.cell_velocity_gradient(w)
    # interior cells only: the wall reflection modifies the boundary stencil
    N = g.N
    interior = np.zeros((N, N), dtype=bool)
    interior[1:-1, 1:-1] = True
    idx = interior.reshape(-1)
    np.testing.assert_allclose(sigma[idx, 0, 0], a, atol=1e-12)
    np.testing.assert_allclose(sigma[idx, 0, 1], b, atol=1e-12)
    np.testing.assert_allclose(sigma[idx, 1, 0], c, atol=1e-12)
    np.testing.assert_allclose(sigma[idx, 1, 1], -a, atol=1e-12)


# --------------------------------------------------------------------------
# the divergence-constrained solve
# --------------------------------------------------------------------------


@pytest.mark.parametrize("side", [1.0, 0.7])
@pytest.mark.parametrize("N", [4, 5, 8, 16, 32])
def test_stream_function_solve_matches_bordered_reference(N, side):
    # the stream-function solve and the bordered saddle-point solve with a
    # mean-zero pressure give the same divergence-free velocity to rounding,
    # for the momentum, smoothing and projection operators
    grid = build_flow_grid(N, side)
    rng = np.random.default_rng(N)
    n, h2, dt = grid.n_u + grid.n_v, grid.h**2, 0.01
    I = sp.identity(n, format="csr")
    adv = project_divergence_free(grid, random_faces(grid, rng))
    operators = {
        "momentum": h2 * (I / dt + grid.K + convection_matrix(grid, adv)),
        "smoothing": h2 * (I + dt * grid.K),
        "projection": h2 * I,
    }
    for name, A in operators.items():
        r = h2 * random_faces(grid, rng)
        u = stokes_solver(grid, A)(r)
        ref = bordered_stokes_solver(grid, A)(r)
        assert np.abs(u - ref).max() <= 1e-12 * np.abs(ref).max(), name
        assert np.abs(grid.divergence(u)).max() <= 1e-12 * max(np.abs(u).max(), 1.0), name


def test_stream_function_solve_names_a_singular_operator(flow12):
    # a face operator vanishing on the four faces around interior node 0
    # leaves that node's stream value undetermined: the factorization
    # raises instead of returning a velocity
    g = flow12
    d = np.ones(g.n_u + g.n_v)
    d[g.curl[:, 0].nonzero()[0]] = 0.0
    with pytest.raises(LinAlgError, match="singular"):
        stokes_solver(g, sp.diags(d, format="csr"))


# --------------------------------------------------------------------------
# Helmholtz projection
# --------------------------------------------------------------------------


def test_projection_on_random_fields(flow12, rng):
    for _ in range(100):
        w = random_faces(flow12, rng)
        p = project_divergence_free(flow12, w)
        assert np.abs(flow12.divergence(p)).max() <= 1e-10
        again = project_divergence_free(flow12, p)
        assert np.abs(again - p).max() <= 1e-12 * max(1.0, np.abs(p).max())
        # contraction in the L2 pairing
        assert flow12.norm_sq(p) <= flow12.norm_sq(w) * (1.0 + 1e-12)


def test_projection_annihilates_gradients(flow12, rng):
    for _ in range(20):
        phi = rng.standard_normal(flow12.n_c)
        gphi = -flow12.D.T @ phi
        p = project_divergence_free(flow12, gphi)
        assert np.abs(p).max() <= 1e-10 * max(1.0, np.abs(gphi).max())


def test_projection_is_orthogonal(flow12, rng):
    w = random_faces(flow12, rng)
    p = project_divergence_free(flow12, w)
    # the removed part is L2-orthogonal to every projected field
    z = project_divergence_free(flow12, random_faces(flow12, rng))
    assert abs(flow12.ip(w - p, z)) <= 1e-10 * max(1.0, np.abs(w).max())


# --------------------------------------------------------------------------
# convection
# --------------------------------------------------------------------------


def test_convection_is_skew(flow12, rng):
    for _ in range(10):
        adv = random_faces(flow12, rng)
        C = convection_matrix(flow12, adv)
        assert abs(C + C.T).max() <= 1e-12 * max(1.0, abs(C).max())
        w = random_faces(flow12, rng)
        assert abs(flow12.ip(w, C @ w)) <= 1e-10 * flow12.norm_sq(w)


def test_convection_trilinear_antisymmetry(flow12, rng):
    # t(v; w1, w2) = h^2 w2 . C(v) w1 is skew in (w1, w2)
    adv = random_faces(flow12, rng)
    w1 = random_faces(flow12, rng)
    w2 = random_faces(flow12, rng)
    C = convection_matrix(flow12, adv)
    t12 = flow12.ip(w2, C @ w1)
    t21 = flow12.ip(w1, C @ w2)
    assert t12 == pytest.approx(-t21, abs=1e-11 * max(1.0, abs(t12)))


def test_convection_zero_advector(flow12, rng):
    C = convection_matrix(flow12, np.zeros(flow12.n_u + flow12.n_v))
    assert abs(C).max() == 0.0


@pytest.mark.parametrize("N", [4, 5, 12, 32])
def test_convection_stencil_matches_sparse_assembly(N):
    # the CSR written from the five-point stencil holds the values of the
    # scipy product assembly it replaced, entry for entry (its stored
    # pattern adds explicit zeros: the diagonal, and pairs of resting
    # faces), and C + C^T has no nonzero at all
    grid = build_flow_grid(N, 0.7)
    rng = np.random.default_rng(N)
    zero = np.zeros(grid.n_u + grid.n_v)
    sparse = random_faces(grid, rng)
    sparse[rng.random(sparse.size) < 0.3] = 0.0
    for adv in (random_faces(grid, rng), sparse, zero):
        got, want = convection_matrix(grid, adv), convection_reference(grid, adv)
        assert got.format == "csr" and got.has_sorted_indices
        np.testing.assert_array_equal(got.toarray(), want.toarray())
        assert (got + got.T).count_nonzero() == 0


# --------------------------------------------------------------------------
# domain constant
# --------------------------------------------------------------------------


def test_poincare_constant_unit_square():
    cp, lam1 = poincare_constant(64)
    assert cp == pytest.approx(POINCARE_UNIT_SQUARE, rel=1e-2)
    assert lam1 == pytest.approx(2.0 * math.pi**2, rel=2e-2)


def test_poincare_constant_scales_with_side():
    cp1, _ = poincare_constant(32, side=1.0)
    cp2, _ = poincare_constant(32, side=2.0)
    assert cp2 == pytest.approx(2.0 * cp1, rel=1e-12)


@pytest.mark.parametrize("side", [1.0, 0.7])
@pytest.mark.parametrize("N", [4, 12, 32])
def test_poincare_closed_form_matches_dense_spectrum(N, side):
    # lambda_1 = (8/h^2) sin^2(pi/(2N)) against the smallest eigenvalue of
    # the assembled ghost-reflected Dirichlet stiffness
    dense = np.linalg.eigvalsh(scalar_dirichlet_stiffness(N, side).toarray())[0]
    cp, lam1 = poincare_constant(N, side)
    assert lam1 == pytest.approx(dense, rel=1e-11)
    assert cp == 1.0 / math.sqrt(lam1)


def test_poincare_constant_refines_monotonically():
    values = [poincare_constant(N)[0] for N in (16, 32, 64)]
    assert values[0] > values[1] > values[2] > 0.0
    assert values[2] < POINCARE_UNIT_SQUARE * 1.01


def test_poincare_inequality_on_random_fields(rng):
    # || w || <= (C_P + 1%) || grad w || for zero-boundary cell fields,
    # gradient measured by the Dirichlet form the constant was computed from
    N = 24
    cp, _ = poincare_constant(N)
    S = scalar_dirichlet_stiffness(N)
    h2 = (1.0 / N) ** 2
    for _ in range(200):
        w = rng.standard_normal(N * N)
        norm = math.sqrt(h2 * float(w @ w))
        grad = math.sqrt(float(w @ (S @ w)))
        assert norm <= (cp * 1.01) * grad


# --------------------------------------------------------------------------
# initial-data smoothing
# --------------------------------------------------------------------------


def test_smoothing_zero_is_fixed(flow12):
    u0 = np.zeros(flow12.n_u + flow12.n_v)
    out = smooth_initial_velocity(flow12, u0, dt=1e-2)
    assert np.abs(out).max() == 0.0


def test_smoothing_rejects_a_bad_step(flow12):
    u0 = np.zeros(flow12.n_u + flow12.n_v)
    for dt in (0.0, -1e-2, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive finite dt"):
            smooth_initial_velocity(flow12, u0, dt=dt)


def test_smoothing_energy_bound(flow12, rng):
    # || u^0 ||^2 + dt || grad u^0 ||^2 <= || u_0 ||^2 (+ rounding)
    for _ in range(25):
        u0 = random_faces(flow12, rng)
        out = smooth_initial_velocity(flow12, u0, dt=1e-2)
        lhs = flow12.norm_sq(out) + 1e-2 * flow12.grad_norm_sq(out)
        assert lhs <= flow12.norm_sq(u0) + 1e-8
        assert np.abs(flow12.divergence(out)).max() <= 1e-10


def test_smoothing_approaches_projection(flow12, rng):
    u0 = random_faces(flow12, rng)
    proj = project_divergence_free(flow12, u0)
    gaps = []
    for dt in (1e-2, 1e-3, 1e-4):
        out = smooth_initial_velocity(flow12, u0, dt=dt)
        gaps.append(math.sqrt(flow12.norm_sq(out - proj)))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 0.1 * gaps[0]


# --------------------------------------------------------------------------
# dual norm
# --------------------------------------------------------------------------


def test_dual_norm_duality(flow12, rng):
    # |<f, w>| <= ||f||_* ||grad w|| with equality at the Riesz representer
    f = random_faces(flow12, rng)
    dual = math.sqrt(dual_norm_sq(flow12)(f))
    for _ in range(20):
        w = random_faces(flow12, rng)
        assert abs(flow12.ip(f, w)) <= dual * math.sqrt(flow12.grad_norm_sq(w)) * (1 + 1e-10)


def test_dual_norm_of_gradient_bounded_object(flow12):
    # f = K w represents <f, z> = (grad w, grad z), so ||f||_*^2 = ||grad w||^2
    rng = np.random.default_rng(5)
    w = random_faces(flow12, rng)
    f = flow12.K @ w
    assert dual_norm_sq(flow12)(f) == pytest.approx(flow12.grad_norm_sq(w), rel=1e-10)


@pytest.mark.parametrize("side", [1.0, 0.7])
@pytest.mark.parametrize("N", [4, 5, 8, 16])
def test_dual_norm_matches_dense_solve(N, side):
    # the banded factor of K gives the dense h^2 f . K^{-1} f
    grid = build_flow_grid(N, side)
    rng = np.random.default_rng(N)
    for f in (random_faces(grid, rng), grid.sample_faces(lambda x, y: np.sin(3 * y),
                                                         lambda x, y: x * y)):
        want = grid.h ** 2 * float(f @ np.linalg.solve(grid.K.toarray(), f))
        assert abs(dual_norm_sq(grid)(f) - want) <= 1e-12 * abs(want)


# --------------------------------------------------------------------------
# grids as frozen values
# --------------------------------------------------------------------------


def test_grids_are_frozen_values():
    # every attribute of a grid is a field its builder computes: assignment
    # is refused, and neither a solve nor a weight read caches anything on it
    flow = build_flow_grid(6)
    grid = build_config_grid(4.0, 8, 8)
    for g, name in ((flow, "K"), (flow, "_viscous_solve"), (grid, "w"), (grid, "mass_defect")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(g, name, None)
    f = flow.sample_faces(lambda x, y: np.sin(3 * y), lambda x, y: x * y)
    assert dual_norm_sq(flow)(f) > 0.0
    assert np.all(np.isfinite(stokes_solver(flow, flow.K)(f)))
    assert grid.w.sum() > 0.0 and grid.edge_w.sum() > 0.0
    for g in (flow, grid):
        assert set(vars(g)) == {field.name for field in dataclasses.fields(g)}
