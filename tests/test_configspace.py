"""Configuration-space grid: exact polynomial moments, convergent singular
moments, the weighted Dirichlet form, integration by parts, Kramers stress,
the zero-shear viscosity of the drag/stress pair and operator assembly."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest

import feneflow.configspace as configspace
from edge_reference import (
    csr_stiffness,
    csr_weighted_stiffness,
    edge_lists,
    gather_fisher_q,
    gather_lsi_fisher,
    gather_stress_matrix,
    scatter_drag_rhs,
    scatter_matrix,
)
from entropy_reference import routed_secant_coefficient
from feneflow import (
    ConstructionError,
    CutoffParams,
    InternalConsistencyError,
    assemble_fp_operators,
    build_config_grid,
    build_flow_grid,
    fisher_q,
    grid_metadata,
    kramers_stress,
    lsi_check,
    secant_cutoff_coefficient,
    spectral_gap,
)

# Closed forms used as oracles (beta-function reductions, d = 2):
#   int M U'^2        = (b+2)/(b-2)
#   int M U' qx^2qy^2 = pi b^3 / (4 Z) * B(3, b/2) / 2   -> 1/2 at b = 4
#   int M U'^2 |q|^4  = 16 at b = 4
UPRIME_SQ = {3.0: 5.0, 4.0: 3.0, 8.0: 5.0 / 3.0}


def test_normalizer_on_grid(grid64):
    assert grid64.Z == pytest.approx(4.0 * math.pi / 3.0, abs=1e-8)


def test_mass_and_second_moment(grid64):
    assert abs(np.sum(grid64.w) - 1.0) <= 1e-8
    m2 = (grid64.qx**2 + grid64.qy**2) @ grid64.w
    assert m2 == pytest.approx(1.0, abs=1e-6)
    # the build records its own defects
    assert grid64.mass_defect <= 1e-8 and grid64.moment_defect <= 1e-6


def test_polynomial_moments_are_exact(grid16):
    # integrands of the form (1-|q|^2/b)^{b/2-1} * polynomial match the
    # radial quadrature weight, so these hold to rounding even on a small grid
    g = grid16
    assert (g.uprime * g.qx**2 * g.qy**2) @ g.w == pytest.approx(0.5, abs=1e-12)
    assert g.qy**2 @ g.w == pytest.approx(0.5, abs=1e-12)
    assert np.ones(g.n_nodes) @ g.w == pytest.approx(1.0, abs=1e-12)


def test_elastic_isotropy_identity(grid16):
    # int M U' q_a q_c dq = delta_ac -- the identity behind zero stress at
    # equilibrium; exact for this quadrature
    g = grid16
    coords = (g.qx, g.qy)
    for a in range(2):
        for c in range(2):
            val = (g.uprime * coords[a] * coords[c]) @ g.w
            assert val == pytest.approx(1.0 if a == c else 0.0, abs=1e-10)


@pytest.mark.parametrize("b,tol", [(3.0, 5e-2), (4.0, 1e-3), (8.0, 1e-8)])
def test_singular_moment_converges(b, tol):
    # U'^2 M ~ (1-|q|^2/b)^{b/2-2} is not polynomial against the weight; the
    # defect must shrink under radial refinement and be small at N_r = 64
    # (slower for small b, where the endpoint exponent b/2 - 2 is nearer -1)
    errs = []
    for N_r in (16, 32, 64):
        g = build_config_grid(b, N_r=N_r, N_theta=16)
        errs.append(abs(g.uprime**2 @ g.w - UPRIME_SQ[b]))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] / UPRIME_SQ[b] <= tol


def test_singular_fourth_moment(grid64):
    val = (grid64.uprime**2 * (grid64.qx**2 + grid64.qy**2) ** 2) @ grid64.w
    assert val == pytest.approx(16.0, rel=2e-3)


def test_dirichlet_form_second_order():
    # sum edge_w (dpsi)^2 against int M |grad qx|^2 = int M = 1
    errs = []
    for N in (16, 32, 64):
        g = build_config_grid(4.0, N_r=N, N_theta=N)
        a, b = edge_lists(g)
        val = float(np.sum(g.edge_w * (g.qx[b] - g.qx[a]) ** 2))
        errs.append(abs(val - 1.0))
    assert errs[0] <= 2e-2
    assert errs[0] / errs[1] >= 3.0 and errs[1] / errs[2] >= 3.0


def test_stiffness_assembly_structure(ops16):
    S = csr_stiffness(ops16.grid)
    n = ops16.grid.n_nodes
    assert abs(S - S.T).max() == 0.0
    assert np.abs(S @ np.ones(n)).max() <= 1e-13 * abs(S).max()
    # positive semidefinite: random Rayleigh quotients
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.standard_normal(n)
        assert x @ (S @ x) >= -1e-10 * (x @ x)


def test_spectral_gap_exceeds_one(ops16):
    assert spectral_gap(ops16) > 1.0


def test_eigenbasis_diagonalizes_the_weighted_stiffness(ops16, rng):
    # S Q_nodal = M Q_nodal diag(evals) with Q_nodal = M^{-1/2} Q, and the
    # mode transforms compose to M^{-1} on a mass-weighted right-hand side;
    # Q is assembled from the separable transform as to_modes(M^{1/2})
    S = csr_stiffness(ops16.grid).toarray()
    m = ops16.grid.w
    Q = ops16.to_modes(np.diag(np.sqrt(m)))
    Qn = (1.0 / np.sqrt(m))[:, None] * Q
    scale = np.abs(S).max()
    np.testing.assert_allclose(S @ Qn, (m[:, None] * Qn) * ops16.evals[None, :],
                               atol=1e-10 * scale)
    np.testing.assert_allclose(Q.T @ Q, np.eye(m.size), atol=1e-12)
    x = rng.standard_normal((3, m.size))
    np.testing.assert_allclose(ops16.to_nodes(ops16.to_modes(x * m[None, :])), x, atol=1e-12)
    assert ops16.evals.min() >= 0.0 and np.sum(ops16.evals < 1e-10) == 1


def test_ibp_identity_on_polynomials(grid32):
    # both sides of int M (Bq).grad phi = int M phi U' q^T B q are quadrature
    # exact for polynomial phi, whose gradient is taken in closed form, so the
    # residual is pure rounding
    g = grid32
    B = np.array([[0.3, -1.1], [0.7, -0.3]])
    phi = 1.0 + 0.5 * g.qx + 0.25 * g.qx * g.qy
    grad = np.stack([0.5 + 0.25 * g.qy, 0.25 * g.qx])
    coords = np.stack([g.qx, g.qy])
    Bq = B @ coords
    lhs = np.sum(Bq * grad, axis=0) @ g.w
    rhs = (phi * g.uprime * np.sum(coords * Bq, axis=0)) @ g.w
    assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), abs(rhs))


def test_kramers_stress_vanishes_at_equilibrium(grid16):
    tau = kramers_stress(grid16, np.ones(grid16.n_nodes), k=1.0)
    assert np.abs(tau).max() <= 1e-10


def test_kramers_stress_symmetry_linearity_batching(grid16, rng):
    g = grid16
    psi1 = 1.0 + 0.3 * rng.standard_normal(g.n_nodes)
    psi2 = 1.0 + 0.3 * rng.standard_normal(g.n_nodes)
    t1 = kramers_stress(g, psi1, k=2.0)
    assert t1.shape == (2, 2)
    np.testing.assert_allclose(t1, t1.T, atol=1e-14)
    # linear in psi and in k
    t12 = kramers_stress(g, psi1 + psi2, k=2.0)
    np.testing.assert_allclose(t12, t1 + kramers_stress(g, psi2, k=2.0), atol=1e-12)
    np.testing.assert_allclose(kramers_stress(g, psi1, k=4.0), 2.0 * t1, atol=1e-14)
    batch = kramers_stress(g, np.stack([psi1, psi2]), k=2.0)
    assert batch.shape == (2, 2, 2)
    np.testing.assert_allclose(batch[0], t1, atol=1e-14)
    assert np.array_equal(batch, batch.swapaxes(-1, -2))


def test_drag_stress_pairing_is_exact(ops16, rng):
    # sigma : stress_matrix(dpsi) == drag_rhs(sigma, 1) . psi by construction
    g = ops16.grid
    sigma = rng.standard_normal((2, 2))
    psi = rng.standard_normal(g.n_nodes)
    lhs = float(np.sum(sigma * ops16.stress_matrix(g.edge_pairs(np.subtract, psi))))
    rhs = float(ops16.drag_rhs(sigma, np.ones(g.n_edges)) @ psi)
    assert lhs == pytest.approx(rhs, abs=1e-13 * max(1.0, abs(lhs)))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: the angular edges' drag factor Gamma_e "
                          "carries an extra 1/dtheta")
def test_zero_shear_viscosity_of_the_drag_stress_pair():
    # the steady density under a trace-free sigma with configuration
    # diffusion 1/(2 lam) is 1 + phi, S phi / (2 lam) = drag_rhs(sigma, 1),
    # and its shear stress sigma : stress_matrix(dphi) is the planar
    # dumbbell's zero-shear viscosity lam b/(b+4).  With a consistent angular
    # factor the ratio reads 0.9986, 1.0002 and 1.0003 at N_theta = 8, 16
    # and 32 (N_r = 16); today it reads 1.287, 3.348 and 10.83
    b, lam = 4.0, 0.5
    sigma = np.array([[0.0, 1.0], [0.0, 0.0]])
    ratios = []
    for N_theta in (8, 16, 32):
        ops = assemble_fp_operators(build_config_grid(b, N_r=16, N_theta=N_theta))
        g = ops.grid
        rhs = ops.to_modes(2.0 * lam * ops.drag_rhs(sigma, np.ones(g.n_edges))[None])
        # S^+ in the eigenbasis: the constant mode, S's kernel, is dropped
        modes = np.divide(rhs, ops.evals, out=np.zeros_like(rhs), where=ops.evals != 0.0)
        phi = ops.to_nodes(modes)[0]
        shear = float(np.sum(sigma * ops.stress_matrix(g.edge_pairs(np.subtract, phi))))
        ratios.append(shear / (lam * b / (b + 4.0)))
    assert all(0.998 <= ratio <= 1.001 for ratio in ratios), ratios


def test_drag_rhs_batches_over_cells(ops16, rng):
    # one row per flow cell equals the single-cell functional row by row
    # (drag_rhs overwrites the coefficients it is given, so each call gets
    # a copy)
    n_e = ops16.grid.n_edges
    sigma = rng.standard_normal((5, 2, 2))
    coeff = rng.uniform(0.5, 2.0, (5, n_e))
    batch = ops16.drag_rhs(sigma, coeff.copy())
    assert batch.shape == (5, ops16.grid.n_nodes)
    for row in range(5):
        np.testing.assert_allclose(batch[row], ops16.drag_rhs(sigma[row], coeff[row].copy()),
                                   rtol=0.0, atol=1e-14 * np.abs(batch).max())


def test_drag_rhs_annihilates_constants(ops16, rng):
    sigma = rng.standard_normal((2, 2))
    coeff = rng.uniform(0.5, 2.0, ops16.grid.n_edges)
    v = ops16.drag_rhs(sigma, coeff)
    # columns sum to zero: total mass is untouched by the drag
    assert abs(float(v.sum())) <= 1e-12 * np.abs(v).max()


@pytest.mark.parametrize("N_r,N_theta", [(8, 12), (12, 8)])
def test_edge_lists_follow_the_polar_slice_layout(N_r, N_theta):
    # the layout contract of ConfigGrid: node (m, n) is m N_theta + n, the
    # radial edges (m, n) -> (m+1, n) come first, then the angular edges
    # (m, n) -> (m, n+1 mod N_theta), each family in tail node order; the
    # reference lists are built from that formula
    g = build_config_grid(4.0, N_r=N_r, N_theta=N_theta)
    edges_a, edges_b = edge_lists(g)
    assert g.n_edges == edges_a.size == edges_b.size == g.edge_gamma.shape[0]
    assert g.n_edges == (N_r - 1) * N_theta + N_r * N_theta
    # edge_pairs reads the same endpoints off slices of the (N_r, N_theta)
    # view: on the node numbers, head + tail and head - tail are exact
    index = np.arange(g.n_nodes, dtype=float)
    total, diff = g.edge_pairs(np.add, index), g.edge_pairs(np.subtract, index)
    np.testing.assert_array_equal((total + diff) / 2, edges_b)
    np.testing.assert_array_equal((total - diff) / 2, edges_a)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("N_r,N_theta", [(8, 8), (8, 12), (12, 8), (16, 16), (40, 40)])
def test_edge_paths_match_gather_and_scatter_reference_bitwise(N_r, N_theta):
    # the slice paths give the bits of the fancy-index gathers and of the
    # CSR incidence product they replace: secant coefficient, stress
    # matrix, drag functional, configuration Fisher information and the
    # log-Sobolev Fisher term
    ops = assemble_fp_operators(build_config_grid(4.0, N_r, N_theta))
    g = ops.grid
    edges_a, edges_b = edge_lists(g)
    scatter = scatter_matrix(g)
    rng = np.random.default_rng(N_r * 100 + N_theta)
    L, delta = 5.0, 1e-4

    def field(lead, lo=-1.0, hi=8.0):
        # every other column of a wider array (non-contiguous), with exact
        # zeros, equal angular neighbours and neighbours whose increment
        # sits between half and all of the secant's rounding threshold
        wide = rng.uniform(lo, hi, lead + (2 * g.n_nodes,))
        out = wide[..., ::2]
        out[..., 3::11] = 0.0
        i = np.arange(4, g.n_nodes - 1, 7)
        out[..., i + 1] = out[..., i]
        i = np.arange(1, g.n_nodes - 1, 9)
        out[..., i + 1] = out[..., i] + 0.75e-12 * (2.0 * np.abs(out[..., i]) + 1.0)
        return out

    # (144,) and (256,) are the cell counts of the benchmark's fine-grid and
    # N = 16 runs, where the stress product runs through BLAS at run size
    for lead in [(), (5,), (3, 4), (144,), (256,)]:
        for psi in (field(lead), np.ascontiguousarray(field(lead))):
            _same_bits(secant_cutoff_coefficient(psi, g, CutoffParams(L, delta)),
                       routed_secant_coefficient(psi, edges_a, edges_b, L, delta))
            _same_bits(ops.stress_matrix(g.edge_pairs(np.subtract, psi)),
                       gather_stress_matrix(g, psi))
        sigma = rng.standard_normal(lead + (2, 2))
        coeff = rng.uniform(delta, L, lead + (2 * g.n_edges,))[..., ::2]
        # every edge at every fifth node carries a zero coefficient, so
        # (sigma : Gamma_e) c_e holds signed zeros and those nodes sum only
        # zeros: the sums must start from +0 as the sparse product's do
        quiet = np.arange(g.n_nodes) % 5 == 0
        coeff[..., quiet[edges_a] | quiet[edges_b]] = 0.0
        want = scatter_drag_rhs(g, scatter, sigma.reshape(-1, 2, 2),
                                coeff.reshape(-1, g.n_edges)).reshape(lead + (g.n_nodes,))
        assert np.all(want[..., quiet] == 0.0)
        _same_bits(ops.drag_rhs(sigma, coeff), want)

    flow = build_flow_grid(4)
    psi = field((flow.N * flow.N,), 0.0)
    _same_bits(fisher_q(flow, g, psi), gather_fisher_q(flow.h, g, np.sqrt(psi)))
    row = field((), 0.0)
    _same_bits(lsi_check(g, row).fisher_term,
               2.0 * gather_lsi_fisher(g, np.sqrt(row)))


@pytest.mark.parametrize("N_r,N_theta", [(8, 12), (16, 16), (40, 40)])
def test_drag_pass_keeps_the_layout_and_the_exact_pairing(N_r, N_theta):
    # the drag pass works in the layout of the density it is given: a
    # C-ordered (cells x nodes) field and the same field stored node-major
    # give the same bits, and the batched pairing is exact.  A single row
    # goes through a BLAS matrix-vector product where a batch goes through
    # a matrix product, which round differently, so the stress and the drag
    # of a row equal the batch's row to rounding; the secant, which takes
    # no product, to the bit
    ops = assemble_fp_operators(build_config_grid(4.0, N_r, N_theta))
    g = ops.grid
    rng = np.random.default_rng(10 * N_r + N_theta)
    n_c, cutoff = 12, CutoffParams(5.0, 1e-4)
    psi = rng.uniform(-0.5, 8.0, (n_c, g.n_nodes))
    sigma = rng.standard_normal((n_c, 2, 2))
    coeff = secant_cutoff_coefficient(psi, g, cutoff)
    stress = ops.stress_matrix(g.edge_pairs(np.subtract, psi))
    drag = ops.drag_rhs(sigma, coeff.copy())
    assert coeff.flags.c_contiguous and drag.flags.c_contiguous

    lhs = float(np.sum(sigma * stress))
    rhs = float(np.sum(ops.drag_rhs(sigma, np.ones((n_c, g.n_edges))) * psi))
    assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))

    def node_major(field):
        # the same values with the last axis slowest in memory
        return np.moveaxis(np.ascontiguousarray(np.moveaxis(field, -1, 0)), 0, -1)

    psi_nm, coeff_nm = node_major(psi), node_major(coeff)
    assert not psi_nm.flags.c_contiguous and not coeff_nm.flags.c_contiguous
    _same_bits(secant_cutoff_coefficient(psi_nm, g, cutoff), coeff)
    _same_bits(ops.stress_matrix(g.edge_pairs(np.subtract, psi_nm)), stress)
    _same_bits(ops.drag_rhs(sigma, coeff_nm), drag)

    for row in range(n_c):
        _same_bits(secant_cutoff_coefficient(psi[row], g, cutoff), coeff[row])
        np.testing.assert_allclose(ops.stress_matrix(g.edge_pairs(np.subtract, psi[row])),
                                   stress[row],
                                   rtol=0.0, atol=1e-13 * np.abs(stress[row]).max())
        np.testing.assert_allclose(ops.drag_rhs(sigma[row], coeff[row].copy()), drag[row],
                                   rtol=0.0, atol=1e-14 * np.abs(drag[row]).max())


@pytest.mark.parametrize("node_major", [False, True])
def test_drag_rhs_multiplies_into_the_coefficients_it_is_given(ops16, rng, node_major):
    # the hand-over contract: drag_rhs overwrites the coefficient buffer it
    # is given with the edge values (sigma : Gamma_e) c_e, one edge family
    # at a time, with the bits of the one-product form, in either layout,
    # and returns their edge divergence
    g = ops16.grid
    sigma = rng.standard_normal((6, 2, 2))
    coeff = rng.uniform(0.5, 2.0, (6, g.n_edges))
    want = (sigma.reshape(6, 4) @ g.edge_gamma.T) * coeff
    buf = np.asfortranarray(coeff) if node_major else coeff.copy()
    got = ops16.drag_rhs(sigma, buf)
    assert buf.flags.f_contiguous == node_major
    assert np.array_equal(buf, want)
    _same_bits(got, g.edge_divergence(want))


@pytest.mark.parametrize("N_r,N_theta", [(8, 8), (10, 12), (40, 40)])
def test_mode_transforms_read_either_layout_and_write_node_major(N_r, N_theta):
    # the run's density is node-major (its transpose C-contiguous): to_modes
    # reads it in place and gives the C-ordered field's modes bit for bit,
    # to_nodes writes node-major, and to_nodes(to_modes(R)) = R M^{-1} from
    # either layout
    ops = assemble_fp_operators(build_config_grid(4.0, N_r, N_theta))
    w = ops.grid.w
    R = np.random.default_rng(N_r * N_theta).standard_normal((37, w.size))
    R_nm = np.asfortranarray(R)
    assert R_nm.T.flags.c_contiguous and not R_nm.flags.c_contiguous
    modes = ops.to_modes(R)
    assert modes.flags.c_contiguous
    _same_bits(ops.to_modes(R_nm), modes)
    nodes = ops.to_nodes(modes)
    assert nodes.shape == R.shape and nodes.T.flags.c_contiguous
    for field in (R, R_nm):
        np.testing.assert_allclose(ops.to_nodes(ops.to_modes(field)), R / w,
                                   rtol=0.0, atol=1e-12 * np.abs(R / w).max())

    def peak(field):
        ops.to_modes(field)
        tracemalloc.start()
        try:
            ops.to_modes(field)
            return tracemalloc.get_traced_memory()[1] / field.nbytes
        finally:
            tracemalloc.stop()

    # the angular stage and the modes, each the field's size; a copy of
    # the field would be a third
    assert peak(R) <= 2.1 and peak(R_nm) <= 2.1


@pytest.mark.parametrize("b", [4.0, 10.0])
@pytest.mark.parametrize("N_r,N_theta",
                         [(8, 8), (8, 12), (12, 8), (10, 10), (16, 16), (9, 31), (40, 40)])
def test_stiffness_and_eigenbasis_match_csr_reference_bitwise(b, N_r, N_theta):
    # the per-radius weights the separable assembly reads carry the bits of
    # the edge-wise CSR stiffness's off-diagonal entries and of the node
    # masses; its eigenpairs are those of the dense mass-weighted CSR matrix
    g = build_config_grid(b, N_r, N_theta)
    omega, a, c = g.w_r, g.edge_w_r, g.edge_w_t
    S = csr_stiffness(g)
    node = np.arange(g.n_nodes).reshape(N_r, N_theta)

    def entries(tails, heads):
        return -np.asarray(S[tails.ravel(), heads.ravel()]).ravel()

    _same_bits(entries(node[:-1], node[1:]), np.repeat(a, N_theta))
    _same_bits(entries(node, np.roll(node, -1, axis=1)), np.repeat(c, N_theta))
    _same_bits(np.repeat(omega, N_theta), g.w)

    ops = assemble_fp_operators(g)
    S_hat = csr_weighted_stiffness(g)
    want = np.linalg.eigh(S_hat)[0]
    top = want.max()
    assert np.abs(np.sort(ops.evals) - want).max() <= 1e-13 * top
    Q = ops.to_modes(np.diag(np.sqrt(g.w)))
    assert np.abs(Q.T @ Q - np.eye(g.n_nodes)).max() <= 1e-13
    assert np.abs(Q.T @ S_hat @ Q - np.diag(ops.evals)).max() <= 1e-13 * top


def test_weights_are_stored_once_per_radius():
    # w and edge_w repeat the per-radius fields along the angle, are built
    # once per grid and cannot be written, so no weight varies with angle
    g = build_config_grid(4.0, 8, 12)
    assert g.w is g.w and g.edge_w is g.edge_w
    rad, ang = g.edge_w[:7 * 12].reshape(7, 12), g._angular(g.edge_w)
    for field, per_radius in ((g._polar(g.w), g.w_r), (rad, g.edge_w_r), (ang, g.edge_w_t)):
        _same_bits(field, np.repeat(per_radius[:, None], 12, axis=1))
    for field in (g.w, g.edge_w):
        with pytest.raises(ValueError, match="read-only"):
            field[0] = 0.0


def _defect_message(grid):
    with pytest.raises(InternalConsistencyError) as err:
        assemble_fp_operators(grid)
    return str(err.value)


def test_assembly_rejects_stiffness_that_moves_constants(monkeypatch):
    # doubling the first diagonal entry of the radial form keeps it
    # symmetric but gives its first row a nonzero sum: constants leave the
    # kernel of the wavenumber-0 block
    radial = configspace._radial_stiffness

    def spoiled(a):
        diag, off = radial(a)
        diag[0] *= 2.0
        return diag, off

    g = build_config_grid(4.0, 8, 8)
    d = radial(g.edge_w_r)[0]
    monkeypatch.setattr(configspace, "_radial_stiffness", spoiled)
    msg = _defect_message(g)
    kernel = float(re.search(r"kernel (\S+)", msg).group(1))
    assert kernel == pytest.approx(d[0] / max(2.0 * d[0], d[1:].max()), rel=1e-2)


def test_build_validation():
    with pytest.raises(ValueError):
        build_config_grid(4.0, N_r=4, N_theta=16)
    with pytest.raises(ValueError):
        build_config_grid(4.0, N_r=16, N_theta=4)


def test_build_self_check_trips(monkeypatch):
    monkeypatch.setattr(configspace, "MASS_TOL", 0.0)
    with pytest.raises(ConstructionError, match="mass defect"):
        build_config_grid(4.0, N_r=16, N_theta=16)


def test_grids_past_the_jacobi_range_fail_their_own_checks():
    # the grid builds up to about b = 2000; past that the Jacobi rule's
    # weight scale overflows and a defect is nan, which a plain "defect >
    # tol" test lets through.  Every finite b must end in a built grid or a
    # ConstructionError, with no RuntimeWarning (the suite turns those
    # into errors) and no other exception.
    assert build_config_grid(2000.0, N_r=12, N_theta=12).mass_defect <= configspace.MASS_TOL
    with pytest.raises(ConstructionError, match="mass defect nan"):
        build_config_grid(1e4, N_r=12, N_theta=12)
    for b in [2100.0, 1e6, 1e16, 1e17, 1e20, 1e155, 1e200, 1e300, 1.7e308]:
        with pytest.raises(ConstructionError):
            build_config_grid(b, N_r=12, N_theta=12)


def test_metadata_round_trip(grid16):
    meta = grid_metadata(grid16)
    assert meta["kind"] == "fene-config-grid" and meta["n_nodes"] == grid16.n_nodes
    assert meta["N_r"] == grid16.N_r and meta["N_theta"] == grid16.N_theta
    assert meta["Z"] == grid16.Z
    assert meta["mass_defect"] == grid16.mass_defect
    # sorted keys, so a checkpoint's JSON text does not depend on the
    # order they are written in; the JSON round trip is exact
    assert list(meta) == sorted(meta)
    assert json.loads(json.dumps(meta)) == meta
