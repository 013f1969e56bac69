"""Coupled stepper: the equilibrium fixed point, mass conservation, the
discrete energy identities, the initial-data smoothing contract, the step
schedule and checkpointing."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import LinAlgError

from feneflow import (
    ConstructionError,
    CoupledStepper,
    CutoffParams,
    StepParams,
    SystemState,
    assemble_fp_operators,
    build_config_grid,
    build_flow_grid,
    decay_energy,
    entropy_F,
    entropy_FLdelta,
    fisher_q,
    fisher_x,
    grid_metadata,
    load_checkpoint,
    momentum_energy_residual,
    project_divergence_free,
    relative_entropy,
    save_checkpoint,
    smooth_initial_density,
    spectral_gap,
)
from feneflow import ConfigError, RunConfig, run_scenario, stepping
from feneflow.flowspace import band_storage
from feneflow.stepping import _DensitySystem, _kron_solve, _transport_csr
from edge_reference import DenseBasis, csr_weighted_stiffness
from kron_reference import (band_layout, band_to_dense, loop_kron_solve, transport_matrix,
                            upwind_advection)


@pytest.fixture(scope="module")
def small():
    """A deliberately small coupled system so every test is cheap."""
    flow = build_flow_grid(10)
    grid = build_config_grid(4.0, N_r=12, N_theta=12)
    params = StepParams(dt=0.01, nu=1.0, k=1.0, lam=0.5, eps=0.1,
                        cutoff=CutoffParams(L=5.0, delta=1e-4))
    ops = assemble_fp_operators(grid)
    return flow, ops, params, CoupledStepper(flow, ops, params)


def equilibrium_state(flow, ops):
    return SystemState(u=np.zeros(flow.n_u + flow.n_v),
                       psi=np.ones((flow.n_c, ops.grid.n_nodes)), t=0.0, n=0)


def edges_of(ops, psi):
    """The edge differences the momentum map and the stress take."""
    return ops.grid.edge_pairs(np.subtract, psi)


def perturbed_state(flow, ops, rng, amp=0.3):
    u = project_divergence_free(flow, amp * rng.standard_normal(flow.n_u + flow.n_v))
    psi = 1.0 + amp * ops.grid.qx[None, :] / math.sqrt(ops.grid.b) \
        * (1.0 + 0.2 * rng.standard_normal(flow.n_c))[:, None]
    return SystemState(u=u, psi=psi, t=0.0, n=0)


# --------------------------------------------------------------------------
# fixed point and conservation
# --------------------------------------------------------------------------


def test_equilibrium_is_one_iteration_fixed_point(small):
    flow, ops, params, stepper = small
    state, report = stepper.coupled_step(equilibrium_state(flow, ops))
    assert report.iterations == 1
    assert report.final_du <= 1e-12 and report.final_dpsi <= 1e-12
    assert np.abs(state.u).max() <= 1e-13
    assert np.abs(state.psi - 1.0).max() <= 1e-12
    assert state.n == 1 and state.t == pytest.approx(params.dt)


def test_equilibrium_stays_put_over_many_steps(small):
    flow, ops, _, stepper = small
    state = equilibrium_state(flow, ops)
    for _ in range(5):
        state, _ = stepper.coupled_step(state)
    assert np.abs(state.u).max() <= 1e-12
    assert np.abs(state.psi - 1.0).max() <= 1e-11


def test_density_equation_residual(small, rng):
    # summing the density solve over configuration nodes with unit weights
    # must reproduce the cell advection-diffusion equation for rho exactly
    flow, ops, params, stepper = small
    u = project_divergence_free(flow, rng.standard_normal(flow.n_u + flow.n_v))
    psi_prev = 1.0 + 0.4 * rng.random((flow.n_c, ops.grid.n_nodes))
    psi_new = stepper.fokker_planck_step(psi_prev, u, stepper.density_operator(u), psi_prev)
    rho_prev = psi_prev @ ops.grid.w
    rho_new = psi_new @ ops.grid.w
    h2 = flow.h**2
    Kx = transport_matrix(flow, u, params.eps, h2 / params.dt).toarray()
    residual = Kx @ rho_new - (h2 / params.dt) * rho_prev
    assert np.abs(residual).max() <= 1e-10


def test_uniform_density_is_transparent_to_flow(small, rng):
    # rho == 1 solves its own equation for any divergence-free transport
    flow, ops, _, stepper = small
    u = project_divergence_free(flow, rng.standard_normal(flow.n_u + flow.n_v))
    ones = np.ones((flow.n_c, ops.grid.n_nodes))
    psi_new = stepper.fokker_planck_step(ones, u, stepper.density_operator(u), ones)
    rho = psi_new @ ops.grid.w
    assert np.abs(rho - 1.0).max() <= 1e-8


def test_total_mass_conserved(small, rng):
    flow, ops, _, stepper = small
    state = perturbed_state(flow, ops, rng)
    total0 = flow.h**2 * float((state.psi @ ops.grid.w).sum())
    for _ in range(3):
        state, _ = stepper.coupled_step(state)
    total = flow.h**2 * float((state.psi @ ops.grid.w).sum())
    assert abs(total - total0) <= 1e-10 * abs(total0)


def test_density_stays_essentially_nonnegative(small, rng):
    flow, ops, _, stepper = small
    state = perturbed_state(flow, ops, rng, amp=0.5)
    state.psi = np.clip(state.psi, 0.0, None)
    for _ in range(3):
        state, _ = stepper.coupled_step(state)
    assert state.psi.min() >= -1e-8


# --------------------------------------------------------------------------
# energy structure
# --------------------------------------------------------------------------


def free_energy_of(flow, ops, state, k, cutoff=None):
    # F^L_delta with a cut-off pair, F without
    psi = np.maximum(state.psi, 0.0)
    ent_nodes = entropy_F(psi) if cutoff is None else entropy_FLdelta(psi, cutoff)[0]
    ent = flow.h**2 * float((ent_nodes @ ops.grid.w).sum())
    return flow.norm_sq(state.u) + 2.0 * k * ent


def test_free_energy_monotone_regularized(small, rng):
    # || u ||^2 + 2 k int M F^L_delta(psi) never increases without forcing
    flow, ops, params, stepper = small
    state = perturbed_state(flow, ops, rng, amp=0.5)
    state.psi = np.clip(state.psi, 0.0, None)
    prev = free_energy_of(flow, ops, state, params.k, params.cutoff)
    for _ in range(6):
        state, _ = stepper.coupled_step(state)
        cur = free_energy_of(flow, ops, state, params.k, params.cutoff)
        assert cur <= prev * (1.0 + 1e-12) + 1e-12
        prev = cur


def test_free_energy_monotone_unregularized_in_the_bulk(small, rng):
    # when the density stays inside (delta, L) the plain-entropy functional
    # decreases as well (both entropies agree there)
    flow, ops, params, stepper = small
    state = perturbed_state(flow, ops, rng, amp=0.3)
    prev = free_energy_of(flow, ops, state, params.k)
    for _ in range(6):
        state, _ = stepper.coupled_step(state)
        assert state.psi.min() > params.cutoff.delta
        assert state.psi.max() < params.cutoff.L
        cur = free_energy_of(flow, ops, state, params.k)
        assert cur <= prev * (1.0 + 1e-12) + 1e-12
        prev = cur


def test_momentum_energy_identity(small, rng):
    flow, ops, params, stepper = small
    state = perturbed_state(flow, ops, rng, amp=0.4)
    u_new = stepper.momentum_map(state.u)(edges_of(ops, state.psi))
    C_hat = ops.stress_matrix(edges_of(ops, state.psi))
    sigma = flow.cell_velocity_gradient(u_new)
    pairing = flow.h**2 * float(np.sum(C_hat * sigma))
    res = momentum_energy_residual(flow, state.u, u_new, pairing,
                                   params.dt, params.nu, params.k)
    assert res <= 1e-10 * max(1.0, flow.norm_sq(state.u))


@pytest.mark.parametrize("amp", [0.4, 4.0])
def test_momentum_energy_identity_at_n32(small, wide, rng, amp):
    # the stream-function matrix C^T A C conditions like a biharmonic, so
    # the identity is also checked at the largest benchmark grid, N_x = 32,
    # under strong convection
    flow, ops = wide
    params = small[2]
    stepper = CoupledStepper(flow, ops, params)
    state = perturbed_state(flow, ops, rng, amp=amp)
    u_new = stepper.momentum_map(state.u)(edges_of(ops, state.psi))
    C_hat = ops.stress_matrix(edges_of(ops, state.psi))
    sigma = flow.cell_velocity_gradient(u_new)
    pairing = flow.h**2 * float(np.sum(C_hat * sigma))
    res = momentum_energy_residual(flow, state.u, u_new, pairing,
                                   params.dt, params.nu, params.k)
    assert res <= 1e-10 * max(1.0, flow.norm_sq(state.u))
    assert np.abs(flow.divergence(u_new)).max() <= 1e-10


def test_stress_force_linear_in_k(small, rng):
    flow, ops, params, stepper = small
    import dataclasses
    state = perturbed_state(flow, ops, rng, amp=0.4)
    dpsi = edges_of(ops, state.psi)
    base = stepper.momentum_map(state.u)(dpsi)
    free = CoupledStepper(flow, ops, dataclasses.replace(params, k=0.0)) \
        .momentum_map(state.u)(dpsi)
    double = CoupledStepper(flow, ops, dataclasses.replace(params, k=2.0)) \
        .momentum_map(state.u)(dpsi)
    np.testing.assert_allclose(double - free, 2.0 * (base - free), atol=1e-12)


@pytest.mark.parametrize("N", [12, 32])
def test_stress_force_is_the_adjoint_of_the_velocity_gradient(N, small, monkeypatch):
    # (w, F(psi)) = -k h^2 sum_cells sigma(w) : C_hat(psi) in the face inner
    # product, F being the stress part of the momentum right-hand side: mapped
    # from u_prev = 0 (no data term) with the identity for the solve, the
    # momentum map returns F itself
    flow = build_flow_grid(N)
    ops = assemble_fp_operators(build_config_grid(4.0, N_r=8, N_theta=8))
    params = dataclasses.replace(small[2], k=2.5)
    stepper = CoupledStepper(flow, ops, params)
    monkeypatch.setattr(stepping, "stokes_solver", lambda grid, A: lambda r: r)
    momentum = stepper.momentum_map(np.zeros(flow.n_u + flow.n_v))
    rng = np.random.default_rng(N)
    for _ in range(3):
        w = rng.standard_normal(flow.n_u + flow.n_v)
        psi = rng.uniform(0.2, 3.0, (flow.n_c, ops.grid.n_nodes))
        dpsi = edges_of(ops, psi)
        force = momentum(dpsi)
        want = -params.k * flow.h ** 2 * float(
            np.sum(flow.cell_velocity_gradient(w) * ops.stress_matrix(dpsi)))
        assert abs(flow.ip(w, force) - want) <= 1e-13 * abs(want)


def test_beta_saturation_inactive_for_moderate_data(small, rng):
    # the one-sided cut-off never engages when the density stays below L
    flow, ops, params, stepper = small
    state = perturbed_state(flow, ops, rng, amp=0.3)
    new_state, _ = stepper.coupled_step(state)
    assert new_state.psi.max() < params.cutoff.L


# --------------------------------------------------------------------------
# transport band and Kronecker solve
# --------------------------------------------------------------------------


@pytest.mark.parametrize("N", [4, 5, 8, 16])
def test_transport_band_matches_reference(N):
    # the band read off the CSR written straight from the face velocities is
    # bitwise the band laid out from the assembled CSR reference, for the
    # density step
    # (random projected transport with ~30% of faces zeroed, and none) and
    # for the smoothing step (unit diffusion, no transport)
    grid = build_flow_grid(N, 0.7)
    rng = np.random.default_rng(N)
    n = grid.n_u + grid.n_v
    h2, dt, eps = grid.h ** 2, 0.01, 0.1
    u = project_divergence_free(grid, rng.standard_normal(n))
    u[rng.random(n) < 0.3] = 0.0
    for faces, diffusion in ((u, eps), (np.zeros(n), eps), (np.zeros(n), 1.0)):
        got, kl, ku = band_storage(_transport_csr(grid, faces, diffusion, h2 / dt)[0])
        want = band_layout(transport_matrix(grid, faces, diffusion, h2 / dt))
        assert kl == ku == N
        assert got.flags.f_contiguous and got.shape == (3 * N + 1, N * N)
        assert got.tobytes(order="F") == want.tobytes(order="F")

    # the upwind part alone, where the order in which each cell sums its
    # outflows shows in the last bit (compared up to the sign of zero: with
    # no diffusion, an off-diagonal entry that no flux reaches is -0.0);
    # each flux sits +/- in its donor's column, so the columns sum to zero
    # up to that rounding
    upwind = band_storage(_transport_csr(grid, u, 0.0, 0.0)[0])[0]
    assert np.array_equal(upwind, band_layout(upwind_advection(grid, u)))
    assert np.abs(band_to_dense(upwind).sum(axis=0)).max() <= 1e-15 * grid.h * np.abs(u).max()


def test_cell_stiffness_annihilates_constants():
    # the stiffness part of the band (unit diffusion, no mass, no transport)
    # is symmetric and maps constants to zero exactly
    for N in (4, 5, 8, 16):
        grid = build_flow_grid(N, 0.7)
        S = band_to_dense(band_storage(
            _transport_csr(grid, np.zeros(grid.n_u + grid.n_v), 1.0, 0.0)[0])[0])
        assert np.abs(S @ np.ones(N * N)).max() == 0.0
        assert np.abs(S - S.T).max() == 0.0


def test_kron_solve_matches_solve_banded_loop(small, rng):
    # the direct banded LU on the band of the step's CSR runs the same LAPACK
    # steps, factor then solve, as the per-mode solve_banded loop on the
    # reference CSR, so the two agree bit for bit
    flow, ops, params, stepper = small
    h2 = flow.h * flow.h
    n = flow.n_u + flow.n_v
    transport = project_divergence_free(flow, rng.standard_normal(n))
    cases = [
        (np.zeros(n), params.eps, stepper._cq * h2),
        (transport, params.eps, stepper._cq * h2),
        (np.zeros(n), 1.0, h2),   # the smoothing operator
    ]
    for u, diffusion, shift_scale in cases:
        K = _transport_csr(flow, u, diffusion, h2 / params.dt)[0]
        Kx = transport_matrix(flow, u, diffusion, h2 / params.dt)
        R = rng.standard_normal((flow.n_c, ops.grid.n_nodes))
        got = _kron_solve(K, shift_scale * ops.evals, ops, ops.to_modes(R))
        assert np.array_equal(got, loop_kron_solve(Kx, shift_scale, ops, R))


def test_kron_solve_names_a_singular_mode(small, rng):
    # a K_x whose first row and column are empty has a zero diagonal entry;
    # mode 0 (the constants, whose eigenvalue the assembly sets to exactly 0)
    # is then singular while every shifted mode is not
    flow, ops, params, stepper = small
    K = _transport_csr(flow, np.zeros(flow.n_u + flow.n_v), params.eps,
                       flow.h ** 2 / params.dt)[0]
    K.data[K.indices == 0] = 0.0                     # column 0
    K.data[K.indptr[0]:K.indptr[1]] = 0.0            # row 0
    dense = K.toarray()
    assert not dense[0].any() and not dense[:, 0].any()
    assert ops.evals[0] == 0.0
    R = rng.standard_normal((flow.n_c, ops.grid.n_nodes))
    with pytest.raises(LinAlgError, match=r"^configuration mode 0: .*singular matrix"):
        _kron_solve(K, stepper._cq * flow.h ** 2 * ops.evals, ops, ops.to_modes(R))


def test_transport_csr_matches_reference_matrix(small, rng):
    # the stepper's per-step CSR K_x, applied to all modes at once, is the
    # assembled CSR reference applied column by column, for zero, projected
    # and random (not divergence-free) face velocities
    flow, ops, params, stepper = small
    n = flow.n_u + flow.n_v
    h2 = flow.h * flow.h
    X = rng.standard_normal((flow.n_c, ops.grid.n_nodes))
    for u in (np.zeros(n), project_divergence_free(flow, rng.standard_normal(n)),
              rng.standard_normal(n)):
        got = stepper.density_operator(u)[0] @ X
        want = transport_matrix(flow, u, params.eps, h2 / params.dt) @ X
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_upwind_part_is_the_transport_difference_and_conserves_mass(small, rng):
    # the pair's upwind part -Adv(u) is -(K(u) - K(0)) to rounding, holds the
    # diagonal and at most one entry per face, and its columns sum to zero
    # to rounding, which is what keeps every update of the density solve
    # mass-conserving; for zero, projected and random face velocities
    flow, ops, params, stepper = small
    N, n = flow.N, flow.n_u + flow.n_v
    K0 = stepper.density_operator(np.zeros(n))[0].toarray()
    for u in (np.zeros(n), project_divergence_free(flow, rng.standard_normal(n)),
              rng.standard_normal(n)):
        K, neg_upwind = stepper.density_operator(u)
        assert neg_upwind.nnz <= N * N + 2 * N * (N - 1)
        K = K.toarray()
        got = neg_upwind.toarray()
        assert np.abs(got + (K - K0)).max() <= 1e-14 * np.abs(K).max()
        assert np.abs(got.sum(axis=0)).max() <= 1e-15 * flow.h * max(np.abs(u).max(), 1.0)


def density_solve(flow, u, diffusion, mass, shift_scale, ops, R, guess):
    """One solve of ``Kx Psi M_q + shift_scale * Psi S_q = R`` from
    ``guess`` on an operator built for it alone."""
    system = _DensitySystem(flow, ops, diffusion, mass, shift_scale)
    return system.solve(_transport_csr(flow, u, diffusion, mass), ops.to_modes(R), guess)


def count_fallbacks(monkeypatch):
    """Spy on the direct solve the iteration falls back to."""
    calls = []

    def spy(*args):
        calls.append(args)
        return _kron_solve(*args)

    monkeypatch.setattr(stepping, "_kron_solve", spy)
    return calls


def count_residuals(monkeypatch):
    """Spy on the iteration's residual products, one per residual: each is
    one product of a transport CSR matrix with the mode coefficients."""
    calls = []
    product = sp.csr_matrix.__matmul__

    def spy(A, X):
        calls.append(1)
        return product(A, X)

    monkeypatch.setattr(sp.csr_matrix, "__matmul__", spy)
    return calls


def density_cases(flow, params, stepper, rng):
    """(u, diffusion, shift_scale) of the density step with no transport
    and with projected transport, and of the smoothing step."""
    h2 = flow.h * flow.h
    n = flow.n_u + flow.n_v
    transport = project_divergence_free(flow, rng.standard_normal(n))
    return [(np.zeros(n), params.eps, stepper._cq * h2),
            (transport, params.eps, stepper._cq * h2),
            (np.zeros(n), 1.0, h2)]


def test_density_solve_matches_kron_solve(small, rng, monkeypatch):
    # the preconditioned iteration converges, cold and from a nearby guess,
    # to the direct per-mode solve's answer
    flow, ops, params, stepper = small
    fallbacks = count_fallbacks(monkeypatch)
    mass = flow.h ** 2 / params.dt
    for u, diffusion, shift_scale in density_cases(flow, params, stepper, rng):
        R = mass * (1.0 + 0.5 * rng.random((flow.n_c, ops.grid.n_nodes))) * ops.grid.w
        want = _kron_solve(_transport_csr(flow, u, diffusion, mass)[0],
                           shift_scale * ops.evals, ops, ops.to_modes(R))
        for guess in (np.zeros_like(R), want * (1.0 + 1e-3 * rng.standard_normal(want.shape))):
            got = density_solve(flow, u, diffusion, mass, shift_scale, ops, R, guess)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert fallbacks == []


def test_separable_solves_match_the_dense_eigenbasis(small, rng, monkeypatch):
    # the iterative and the direct solve in the separable eigenbasis give the
    # direct solve in the dense eigh basis the package used before, and the
    # spectral gap is that basis's smallest positive eigenvalue
    flow, ops, params, stepper = small
    dense = DenseBasis(ops.grid)
    fallbacks = count_fallbacks(monkeypatch)
    mass = flow.h ** 2 / params.dt
    for u, diffusion, shift_scale in density_cases(flow, params, stepper, rng):
        R = mass * (1.0 + 0.5 * rng.random((flow.n_c, ops.grid.n_nodes))) * ops.grid.w
        K = _transport_csr(flow, u, diffusion, mass)[0]
        want = _kron_solve(K, shift_scale * dense.evals, dense, dense.to_modes(R))
        for got in (density_solve(flow, u, diffusion, mass, shift_scale, ops, R,
                                  np.zeros_like(R)),
                    _kron_solve(K, shift_scale * ops.evals, ops, ops.to_modes(R))):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert fallbacks == []
    # the dense eigh is accurate to a few eps * max eval, 1.5e-13 of the gap
    # here; the Rayleigh quotient of its eigenvector is accurate to rounding
    q = dense.Q[:, np.argmax(dense.evals > 1e-10 * dense.evals.max())]
    gap = q @ csr_weighted_stiffness(ops.grid) @ q
    assert spectral_gap(ops) == pytest.approx(gap, rel=1e-13, abs=0.0)


def test_kernel_eigenpair_is_exact(rng):
    # the constants are the one mode whose eigenvalue is bitwise 0.0, so a
    # density solve with no transport leaves that mode unshifted and keeps
    # the mass
    ops = assemble_fp_operators(build_config_grid(4.0, 40, 40))
    zero = ops.evals[ops.evals == 0.0]
    assert zero.tobytes() == np.zeros(1).tobytes()
    flow = build_flow_grid(6)
    mass = flow.h ** 2 / 0.01
    R = mass * (1.0 + 0.5 * rng.random((flow.n_c, ops.grid.n_nodes))) * ops.grid.w
    got = density_solve(flow, np.zeros(flow.n_u + flow.n_v), 0.1, mass, flow.h ** 2, ops, R,
                        np.zeros_like(R))
    total = mass * float((got @ ops.grid.w).sum())
    assert abs(total - R.sum()) <= 1e-14 * abs(R.sum())


def test_density_solve_conserves_mass(small, rng, monkeypatch):
    # columns of Adv sum to zero and S_cell, S_q annihilate constants, so
    # the exact solve has mass(Psi) = sum(R) / mass; the iterate keeps it
    flow, ops, params, stepper = small
    fallbacks = count_fallbacks(monkeypatch)
    mass = flow.h ** 2 / params.dt
    for u, diffusion, shift_scale in density_cases(flow, params, stepper, rng):
        R = mass * (1.0 + 0.5 * rng.random((flow.n_c, ops.grid.n_nodes))) * ops.grid.w
        guess = R / (mass * ops.grid.w) * (1.0 + 1e-2 * rng.standard_normal(R.shape))
        got = density_solve(flow, u, diffusion, mass, shift_scale, ops, R, guess)
        total = mass * float((got @ ops.grid.w).sum())
        assert abs(total - R.sum()) <= 1e-12 * abs(R.sum())
    assert fallbacks == []


@pytest.fixture(scope="module")
def wide():
    """N_x = 32 under an 8 x 8 configuration grid: with unit diffusion,
    ``diffusion / mass = dt / h^2`` is about 10 at ``dt = 0.01``, and the
    density solve's residual rounds to above 1e-14 of ``max|B|``."""
    return build_flow_grid(32), assemble_fp_operators(build_config_grid(4.0, N_r=8, N_theta=8))


def test_density_solve_stops_at_its_rounding_floor(wide, rng, monkeypatch):
    # the density step of a decay run at eps = 1: the stop rule's floor
    # 4 eps_mach (1 + 8 diffusion / mass) accepts the stalled residual, with
    # and without transport, instead of falling back to the direct solve
    flow, ops = wide
    fallbacks = count_fallbacks(monkeypatch)
    h2, n = flow.h ** 2, flow.n_u + flow.n_v
    mass = h2 / 0.01
    for u in (np.zeros(n), project_divergence_free(flow, rng.standard_normal(n))):
        R = mass * (1.0 + 0.5 * rng.random((flow.n_c, ops.grid.n_nodes))) * ops.grid.w
        guess = R / (mass * ops.grid.w) * (1.0 + 1e-2 * rng.standard_normal(R.shape))
        got = density_solve(flow, u, 1.0, mass, h2, ops, R, guess)
        want = _kron_solve(_transport_csr(flow, u, 1.0, mass)[0], h2 * ops.evals, ops,
                           ops.to_modes(R))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert fallbacks == []


def count_preconditions(monkeypatch):
    """Spy on the iteration's preconditioner applications."""
    calls = []
    precondition = _DensitySystem.precondition
    monkeypatch.setattr(_DensitySystem, "precondition",
                        lambda *args: calls.append(1) or precondition(*args))
    return calls


def test_density_solve_exit_residual_is_the_true_residual(small, wide, rng, monkeypatch):
    # the residual after a step is found by recurrence, -Adv D; at exit the
    # true residual B - (K X + X diag(shifts)), formed afresh from the modes
    # the solve returns, meets the stop rule, cold and warm, on the density
    # and smoothing steps and on the wide fixture, where the rule's
    # rounding floor decides
    flow, ops, params, stepper = small
    wflow, wops = wide
    n = wflow.n_u + wflow.n_v
    cases = [(flow, ops, u, diffusion, shift_scale)
             for u, diffusion, shift_scale in density_cases(flow, params, stepper, rng)]
    cases += [(wflow, wops, u, 1.0, wflow.h ** 2)
              for u in (np.zeros(n), project_divergence_free(wflow, rng.standard_normal(n)))]
    exits = []
    for basis in (ops, wops):
        to_nodes = basis.to_nodes
        monkeypatch.setattr(basis, "to_nodes",
                            lambda X, to_nodes=to_nodes: exits.append(X) or to_nodes(X))
    fallbacks = count_fallbacks(monkeypatch)
    for fg, basis, u, diffusion, shift_scale in cases:
        mass = fg.h ** 2 / 0.01
        system = _DensitySystem(fg, basis, diffusion, mass, shift_scale)
        transport = _transport_csr(fg, u, diffusion, mass)
        K = transport[0]
        R = mass * (1.0 + 0.5 * rng.random((fg.n_c, basis.grid.n_nodes))) * basis.grid.w
        B = basis.to_modes(R)
        warm = R / (mass * basis.grid.w) * (1.0 + 1e-2 * rng.standard_normal(R.shape))
        for guess in (np.zeros_like(R), warm):
            exits.clear()
            system.solve(transport, B, guess)
            [X] = exits
            true = B - (K @ X + X * system.shifts)
            assert np.abs(true).max() <= system.rtol * np.abs(B).max()
    assert fallbacks == []


def test_density_solve_returns_a_start_that_meets_the_stop_rule(small, rng, monkeypatch):
    # a solve started from its own answer, or from the uniform density that
    # solves a uniform right-hand side under any projected transport, finds
    # its first residual within the stop rule: it returns that start itself
    # and applies no preconditioner
    flow, ops, params, stepper = small
    mass = flow.h ** 2 / params.dt
    ones = np.ones((flow.n_c, ops.grid.n_nodes))
    for u, diffusion, shift_scale in density_cases(flow, params, stepper, rng):
        system = _DensitySystem(flow, ops, diffusion, mass, shift_scale)
        transport = _transport_csr(flow, u, diffusion, mass)
        R = mass * (1.0 + 0.5 * rng.random(ones.shape)) * ops.grid.w
        B = ops.to_modes(R)
        answer = system.solve(transport, B, np.zeros_like(R))
        preconditions = count_preconditions(monkeypatch)
        assert system.solve(transport, B, answer) is answer
        assert system.solve(transport, ops.to_modes(mass * ones * ops.grid.w), ones) is ones
        assert preconditions == []
        monkeypatch.undo()


def test_density_solve_falls_back_under_strong_advection(small, rng, monkeypatch):
    # at cell CFL ~ 100 the upwind part the preconditioner drops dominates,
    # the iteration does not reach its tolerance in 30 residuals, and the
    # answer is the direct solve's, bit for bit
    flow, ops, params, stepper = small
    n = flow.n_u + flow.n_v
    u = project_divergence_free(flow, rng.standard_normal(n))
    u *= 100.0 * flow.h / (params.dt * np.abs(u).max())
    h2 = flow.h * flow.h
    mass, shift_scale = h2 / params.dt, stepper._cq * h2
    R = mass * (1.0 + 0.5 * rng.random((flow.n_c, ops.grid.n_nodes))) * ops.grid.w
    residuals = count_residuals(monkeypatch)
    fallbacks = count_fallbacks(monkeypatch)
    got = density_solve(flow, u, params.eps, mass, shift_scale, ops, R, R / (mass * ops.grid.w))
    assert len(residuals) == stepping._MAX_ITERATIONS and len(fallbacks) == 1
    want = _kron_solve(_transport_csr(flow, u, params.eps, mass)[0], shift_scale * ops.evals,
                       ops, ops.to_modes(R))
    assert got.tobytes() == want.tobytes()


def test_density_operator_serves_every_sweep_of_a_step(small, rng, monkeypatch):
    # one step's operator through right-hand sides that change like a coupled
    # step's sweeps, each solve started from the previous one's answer: every
    # answer is the direct solve's, keeps the mass and is bitwise that of an
    # operator built for it alone, also after a forced fallback in the middle
    flow, ops, params, stepper = small
    n = flow.n_u + flow.n_v
    u = project_divergence_free(flow, rng.standard_normal(n))
    h2 = flow.h * flow.h
    mass, shift_scale = h2 / params.dt, stepper._cq * h2
    K = _transport_csr(flow, u, params.eps, mass)[0]
    operator = stepper.density_operator(u)
    system = stepper._density
    base = mass * (1.0 + 0.5 * rng.random((flow.n_c, ops.grid.n_nodes))) * ops.grid.w
    drag = rng.standard_normal(base.shape) * ops.grid.w
    fallbacks = count_fallbacks(monkeypatch)
    guess = base / (mass * ops.grid.w)
    for sweep in range(6):
        if sweep == 3:
            monkeypatch.setattr(stepping, "_MAX_ITERATIONS", 0)
        R = base + 10.0 ** -sweep * drag
        got = system.solve(operator, ops.to_modes(R), guess)
        fresh = system.solve(stepper.density_operator(u), ops.to_modes(R), guess)
        monkeypatch.setattr(stepping, "_MAX_ITERATIONS", 30)
        assert got.tobytes() == fresh.tobytes()
        want = _kron_solve(K, shift_scale * ops.evals, ops, ops.to_modes(R))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        total = mass * float((got @ ops.grid.w).sum())
        assert abs(total - R.sum()) <= 1e-12 * abs(R.sum())
        guess = got
    # the forced fallback ran for the reused and for the fresh operator
    assert len(fallbacks) == 2


def test_one_operator_per_step_and_one_preconditioner_per_stepper(small, rng, monkeypatch):
    # the CSR K_x and the momentum factorization are built once per coupled
    # step whatever its sweep count, and the fast-diagonalization scaling
    # once per stepper
    flow, ops, params, _ = small
    stencils, scalings, factorizations = [], [], []
    stencil, system = stepping._transport_csr, stepping._DensitySystem
    solver = stepping.stokes_solver
    monkeypatch.setattr(stepping, "stokes_solver",
                        lambda *args: factorizations.append(1) or solver(*args))
    monkeypatch.setattr(stepping, "_transport_csr",
                        lambda *args: stencils.append(1) or stencil(*args))
    monkeypatch.setattr(stepping, "_DensitySystem",
                        lambda *args: scalings.append(1) or system(*args))
    fallbacks = count_fallbacks(monkeypatch)
    stepper = CoupledStepper(flow, ops, params)
    state, sweeps = perturbed_state(flow, ops, rng), []
    for _ in range(2):
        state, report = stepper.coupled_step(state)
        sweeps.append(report.iterations)
    assert min(sweeps) > 1 and fallbacks == []
    assert len(stencils) == 2 and len(scalings) == 1
    assert len(factorizations) == 2


def test_a_sweep_forms_its_iterate_edge_differences_once(small, rng, monkeypatch):
    # the stress and the secant share one edge_pairs(np.subtract, psi_it)
    # per sweep, and the coupled step is bitwise that of a stepper whose
    # secant forms its own (the stress takes the differences alone)
    import feneflow.configspace as configspace

    flow, ops, params, stepper = small
    state = perturbed_state(flow, ops, rng)
    iterates, differenced = [], []
    edge_pairs, fp_step = configspace.ConfigGrid.edge_pairs, CoupledStepper.fokker_planck_step

    def recording_pairs(self, op, field, *args, **kwargs):
        if op is np.subtract:
            differenced.append(field)
        return edge_pairs(self, op, field, *args, **kwargs)

    def recording_step(self, psi_prev, u, transport, coeff_field, *args):
        iterates.append(coeff_field)
        return fp_step(self, psi_prev, u, transport, coeff_field, *args)

    monkeypatch.setattr(configspace.ConfigGrid, "edge_pairs", recording_pairs)
    monkeypatch.setattr(CoupledStepper, "fokker_planck_step", recording_step)
    got, report = stepper.coupled_step(state)
    assert len(iterates) == report.iterations > 1
    assert [sum(field is psi for field in differenced) for psi in iterates] \
        == [1] * report.iterations
    monkeypatch.undo()

    # the same step with the secant forming its own
    def own_step(self, psi_prev, u, transport, coeff_field, edges=None):
        return fp_step(self, psi_prev, u, transport, coeff_field)

    monkeypatch.setattr(CoupledStepper, "fokker_planck_step", own_step)
    want, _ = CoupledStepper(flow, ops, params).coupled_step(state)
    assert got.u.tobytes() == want.u.tobytes() and got.psi.tobytes() == want.psi.tobytes()


# --------------------------------------------------------------------------
# fixed-point robustness
# --------------------------------------------------------------------------


# peak traced memory, in (n_c, n_nodes) arrays, of one density solve, of
# one step's ledger calls and of the initial-data smoothing on a fine
# configuration grid: the values this code measures with NumPy 2.4
# (NumPy's ufunc buffers included), against 6.01, 2.98 and 5.98 before each
# phase handed its buffers on to the next (11.22 and 6.05 for the first two
# before the drag pass and the ledger kept their arrays' layout)
FP_STEP_PEAK = 5.02
LEDGER_PEAK = 2.98
SMOOTHING_PEAK = 4.07


def test_density_step_and_ledger_allocate_few_density_arrays():
    rng = np.random.default_rng(6)
    flow = build_flow_grid(6)
    ops = assemble_fp_operators(build_config_grid(4.0, N_r=24, N_theta=24))
    stepper = CoupledStepper(flow, ops, StepParams(dt=0.01, nu=1.0, k=1.0, lam=0.5, eps=0.1,
                                                   cutoff=CutoffParams(L=5.0, delta=1e-4)))
    u = project_divergence_free(flow, rng.standard_normal(flow.n_u + flow.n_v))
    psi_c = rng.uniform(0.5, 2.0, (flow.n_c, ops.grid.n_nodes))
    operator = stepper.density_operator(u)

    def step(psi):
        stepper.fokker_planck_step(psi, u, operator, psi)

    def ledger(psi):
        g = ops.grid
        fisher_x(flow, g, psi, neg_tol=math.inf)
        fisher_q(flow, g, psi, neg_tol=math.inf)
        decay_energy(flow, g, u, psi, 1.0)
        relative_entropy(flow, g, psi, neg_tol=math.inf)

    def smoothing(psi):
        smooth_initial_density(flow, ops, psi, 0.01, 5.0)

    # C-ordered, and node-major as the run stores it
    for psi in (psi_c, np.asfortranarray(psi_c)):
        assert traced_peak(step, psi) / psi.nbytes <= FP_STEP_PEAK
        assert traced_peak(ledger, psi) / psi.nbytes <= LEDGER_PEAK
        assert traced_peak(smoothing, psi) / psi.nbytes <= SMOOTHING_PEAK


def traced_peak(call, *args):
    """Peak traced memory in bytes that ``call(*args)`` allocates above what
    is allocated on entry, measured on a second call after an untraced
    first one."""
    call(*args)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


# peak traced memory of one whole run (equilibrium, N_x = 12, 24 x 24
# configuration nodes, three steps), in (n_c, n_nodes) arrays: this code
# measures 6.89 with NumPy 2.4, set in the first sweep's density solve while
# it forms the guess's modes; a run that holds the raw density, or a phase
# that holds its buffers past their last use, reads 8 or more
RUN_PEAK = 7.0


def test_a_run_holds_few_density_arrays():
    cfg = RunConfig(scenario="equilibrium", N_x=12, N_r=24, N_theta=24, dt=0.01, T=0.03)
    density = cfg.N_x ** 2 * cfg.N_r * cfg.N_theta * 8
    assert traced_peak(run_scenario, cfg) / density <= RUN_PEAK


def test_phases_leave_what_their_callers_read_unchanged(small, rng, monkeypatch):
    # every phase hands its own temporaries on to the next phase, and only
    # those: the smoothing leaves its raw density as it was, a density step
    # its previous density, transport velocity and coefficient field, and a
    # coupled step the state it advances and every sweep's iterate, on the
    # flat equilibrium state, a perturbed one, and a step whose every
    # density solve falls back to the direct solve
    flow, ops, params, stepper = small

    def kept(*arrays):
        return [(a, a.tobytes()) for a in arrays]

    def unchanged(held):
        return all(a.tobytes() == b for a, b in held)

    psi0 = 1.0 + rng.random((flow.n_c, ops.grid.n_nodes))
    for raw in (psi0, np.asfortranarray(psi0), 10.0 * psi0):
        held = kept(raw)
        smooth_initial_density(flow, ops, raw, 0.01, 5.0)
        assert unchanged(held)

    iterates = []
    fp_step = CoupledStepper.fokker_planck_step

    def checked_step(self, psi_prev, u, transport, coeff_field, edges=None):
        held = kept(psi_prev, u, coeff_field)
        out = fp_step(self, psi_prev, u, transport, coeff_field, edges)
        iterates.append(unchanged(held))
        return out

    monkeypatch.setattr(CoupledStepper, "fokker_planck_step", checked_step)
    fallbacks = count_fallbacks(monkeypatch)
    for state in (equilibrium_state(flow, ops), perturbed_state(flow, ops, rng)):
        held = kept(state.u, state.psi)
        stepper.coupled_step(state)
        assert unchanged(held)
    monkeypatch.setattr(stepping, "_MAX_ITERATIONS", 1)
    state = perturbed_state(flow, ops, rng)
    held = kept(state.u, state.psi)
    _, report = stepper.coupled_step(state)
    assert unchanged(held)
    assert len(fallbacks) == report.iterations > 1
    assert len(iterates) > 3 and all(iterates)


def test_non_finite_input_is_detected(small):
    flow, ops, _, stepper = small
    psi = np.ones((flow.n_c, ops.grid.n_nodes))
    psi[0, 0] = np.nan
    with pytest.raises(FloatingPointError):
        u = np.zeros(flow.n_u + flow.n_v)
        stepper.fokker_planck_step(psi, u, stepper.density_operator(u), psi)
    # a NaN in the forcing is reported by the momentum solve it enters, not
    # by the density solve that consumes the resulting velocity
    f = np.zeros(flow.n_u + flow.n_v)
    f[0] = np.nan
    with pytest.raises(FloatingPointError, match="^momentum solve produced non-finite values$"):
        stepper.coupled_step(equilibrium_state(flow, ops), f)


def test_fixed_point_stall_raises(small, rng):
    flow, ops, params, _ = small
    impatient = dataclasses.replace(params, fp_max_iter=1, fp_tol=1e-16)
    stepper = CoupledStepper(flow, ops, impatient)
    with pytest.raises(RuntimeError, match="stalled"):
        stepper.coupled_step(perturbed_state(flow, ops, rng, amp=0.5))


def test_fixed_point_driver_on_fake_sweeps(small, rng):
    # the driver alone, on sweeps that solve nothing: a contraction by 1/2
    # towards (u0, 0) stops at its first increment within fp_tol, each
    # increment half the one before; a 2-cycle never settles and stalls
    flow, ops, params, stepper = small
    u0 = project_divergence_free(flow, rng.standard_normal(flow.n_u + flow.n_v))
    psi0 = 1e-3 * rng.standard_normal((flow.n_c, ops.grid.n_nodes))
    state = SystemState(u=u0, psi=psi0, t=0.0, n=0)
    u, psi, report = stepper._fixed_point(lambda psi_it: (u0, 0.5 * psi_it), state)
    inc = report.increments
    assert report.iterations == len(inc) > 2
    assert inc[-1] <= params.fp_tol < inc[-2]
    np.testing.assert_allclose(np.array(inc[1:]) / inc[:-1], 0.5, rtol=1e-6)
    assert u is u0 and np.array_equal(psi, psi0 / 2 ** report.iterations)

    c = 3.0 * np.ones_like(psi0)
    with pytest.raises(RuntimeError, match=f"stalled after {params.fp_max_iter} iterations"):
        stepper._fixed_point(lambda psi_it: (u0, c - psi_it), equilibrium_state(flow, ops))


def test_step_params_validation():
    good = dict(dt=0.01, nu=1.0, k=1.0, lam=0.5, eps=0.1,
                cutoff=CutoffParams(L=5.0, delta=1e-4))
    StepParams(**good)
    for key, bad in [("dt", 0.0), ("nu", 0.0), ("k", -1.0), ("lam", 0.0), ("eps", -0.1),
                     # each of these got past the constructor and failed in
                     # the first coupled step, or stalled there after 80 sweeps
                     ("k", math.nan), ("k", math.inf), ("fp_max_iter", 0),
                     ("fp_max_iter", -1), ("fp_tol", 0.0), ("fp_tol", -1e-12),
                     ("fp_tol", math.nan),
                     # every coupled step accepted its first sweep
                     ("fp_tol", math.inf),
                     # range() in the first coupled step needs an integer
                     ("fp_max_iter", 2.5), ("fp_max_iter", True)]:
        with pytest.raises(ValueError):
            StepParams(**{**good, key: bad})


# --------------------------------------------------------------------------
# initial-data smoothing
# --------------------------------------------------------------------------


def test_smoothing_contract(small, rng):
    flow, ops, _, _ = small
    psi0 = 1.0 + 0.8 * rng.random((flow.n_c, ops.grid.n_nodes))
    zeta, report = smooth_initial_density(flow, ops, psi0, dt=0.01, clip_level=5.0)
    assert report.min_value >= -1e-8
    assert report.entropy_after <= report.entropy_before + 1e-8
    assert report.fisher_budget <= report.entropy_before + 1e-8
    assert report.mass_drift <= 1e-10
    assert zeta.shape == psi0.shape


def test_the_run_density_is_node_major(small, rng, tmp_path):
    # the smoothing writes the density node-major (every node's cells one
    # contiguous row) and each coupled step keeps it so; a checkpoint
    # stores it C-ordered, the bytes of the C-ordered copy's checkpoint
    flow, ops, params, stepper = small
    raw = perturbed_state(flow, ops, rng)
    assert raw.psi.flags.c_contiguous
    zeta, _ = smooth_initial_density(flow, ops, raw.psi, dt=params.dt, clip_level=5.0)
    assert zeta.T.flags.c_contiguous and not zeta.flags.c_contiguous
    state = SystemState(u=raw.u, psi=zeta, t=0.0, n=0)
    for _ in range(3):
        state, report = stepper.coupled_step(state)
        assert report.iterations > 1 and state.psi.T.flags.c_contiguous
    paths = [str(tmp_path / name) for name in ("node_major.npz", "c_ordered.npz")]
    for path, psi in zip(paths, (state.psi, np.ascontiguousarray(state.psi))):
        save_checkpoint(path, dataclasses.replace(state, psi=psi), params, flow, ops)
    with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
        assert a.read() == b.read()
    restored, _ = load_checkpoint(paths[0])
    assert restored.psi.flags.c_contiguous and np.array_equal(restored.psi, state.psi)


def test_smoothing_clips_at_the_level(small):
    flow, ops, _, _ = small
    psi0 = np.ones((flow.n_c, ops.grid.n_nodes))
    psi0[:, 0] = 100.0   # a spike far above the clip level
    zeta, _ = smooth_initial_density(flow, ops, psi0, dt=0.01, clip_level=5.0)
    assert zeta.max() <= 5.0 + 1e-12


def test_smoothing_equilibrium_passthrough(small):
    flow, ops, _, _ = small
    psi0 = np.ones((flow.n_c, ops.grid.n_nodes))
    zeta, report = smooth_initial_density(flow, ops, psi0, dt=0.01, clip_level=5.0)
    np.testing.assert_allclose(zeta, 1.0, atol=1e-11)
    assert report.fisher_budget <= 1e-10


def test_smoothing_rejects_bad_input(small):
    flow, ops, _, _ = small
    ones = np.ones((flow.n_c, ops.grid.n_nodes))
    with pytest.raises(ValueError):
        smooth_initial_density(flow, ops, -ones, dt=0.01, clip_level=5.0)
    with pytest.raises(ValueError):
        smooth_initial_density(flow, ops, ones, dt=0.0, clip_level=5.0)
    with pytest.raises(ValueError):
        smooth_initial_density(flow, ops, ones, dt=0.01, clip_level=0.5)
    # every comparison with NaN is false, so each bound is checked as
    # "positive and finite" rather than by its negation
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            smooth_initial_density(flow, ops, ones, dt=bad, clip_level=5.0)
        with pytest.raises(ValueError, match="finite"):
            smooth_initial_density(flow, ops, ones, dt=0.01, clip_level=bad)
        psi0 = ones.copy()
        psi0[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            smooth_initial_density(flow, ops, psi0, dt=0.01, clip_level=5.0)


def test_smoothing_is_one_exact_solve(wide, monkeypatch):
    # decay data at N_x = 32: the smoothing step has no transport, so one
    # fast-diagonalization inverse is its exact solve; neither the iteration
    # nor the direct solve runs, and the output is the direct solve's
    flow, ops = wide
    fallbacks = count_fallbacks(monkeypatch)
    iterations = count_residuals(monkeypatch)
    dt, h2 = 0.01, flow.h ** 2
    psi0 = np.tile(1.0 + 0.1 * ops.grid.qx / math.sqrt(ops.grid.b), (flow.n_c, 1))
    zeta, _ = smooth_initial_density(flow, ops, psi0, dt=dt, clip_level=5.0)
    assert fallbacks == [] and iterations == []
    want = _kron_solve(_transport_csr(flow, np.zeros(flow.n_u + flow.n_v), 1.0, h2 / dt)[0],
                       h2 * ops.evals, ops, ops.to_modes((h2 / dt) * psi0 * ops.grid.w))
    assert np.abs(zeta - want).max() <= 1e-12 * np.abs(want).max()


def test_smoothing_failure_is_construction_error():
    assert issubclass(ConstructionError, RuntimeError)


# --------------------------------------------------------------------------
# step schedule: the cut-off step rule of RunConfig.schedule with dt = None
# --------------------------------------------------------------------------


def ruled_schedule(L, C0, T):
    dt, n, notes = RunConfig(dt=None, L=L, C0=C0, T=T).schedule()
    assert notes == []
    return dt, n


def test_dt_schedule_exact_division():
    dt, n = ruled_schedule(L=math.e**2, C0=2.0 * math.e**2, T=3.0)
    assert dt == 1.0 and n == 3


def test_dt_schedule_frozen_case():
    # dt_max = 1 / (100 log 100) = 0.002171472409516259 -> 461 steps over [0, 1]
    dt, n = ruled_schedule(L=100.0, C0=1.0, T=1.0)
    assert n == 461
    assert dt == pytest.approx(1.0 / 461.0, abs=1e-18)
    assert dt <= 0.002171472409516259
    assert n * dt == 1.0


def test_dt_schedule_monotone_in_cutoff():
    dts = [ruled_schedule(L, 1.0, 1.0)[0] for L in (3.0, 10.0, 100.0, 1000.0)]
    assert all(a >= b for a, b in zip(dts, dts[1:]))


def test_dt_schedule_errors():
    with pytest.raises(ConfigError, match="needs L > e"):
        ruled_schedule(L=2.0, C0=1.0, T=1.0)
    with pytest.raises(ConfigError, match="C0 and the horizon must be positive"):
        ruled_schedule(L=100.0, C0=-1.0, T=1.0)
    with pytest.raises(ConfigError, match="below the floor"):
        ruled_schedule(L=100.0, C0=1e-12, T=1.0)
    # a step bound that underflows to zero, or a horizon / step ratio that
    # overflows, is reported rather than raised from the arithmetic
    with pytest.raises(ConfigError, match="no finite step count"):
        ruled_schedule(L=100.0, C0=5e-324, T=1.0)
    with pytest.raises(ConfigError, match="no finite step count"):
        ruled_schedule(L=100.0, C0=1e-300, T=1e300)


# --------------------------------------------------------------------------
# checkpoints
# --------------------------------------------------------------------------


def test_checkpoint_round_trip(small, rng, tmp_path):
    flow, ops, params, stepper = small
    state = perturbed_state(flow, ops, rng)
    state, _ = stepper.coupled_step(state)
    path = str(tmp_path / "state.npz")
    save_checkpoint(path, state, params, flow, ops)
    restored, meta = load_checkpoint(path, flow=flow, ops=ops)
    assert np.array_equal(restored.u, state.u)          # bit-exact
    assert np.array_equal(restored.psi, state.psi)
    assert restored.t == state.t and restored.n == state.n
    assert meta["params"]["dt"] == params.dt
    assert meta["params"]["fp_tol"] == params.fp_tol
    assert meta["params"]["fp_max_iter"] == params.fp_max_iter
    assert meta["config"]["n_nodes"] == ops.grid.n_nodes
    assert meta["config"] == grid_metadata(ops.grid)


def test_checkpoint_refuses_another_format_version(small, tmp_path):
    flow, ops, params, _ = small
    path = str(tmp_path / "state.npz")
    save_checkpoint(path, equilibrium_state(flow, ops), params, flow, ops)
    with np.load(path) as data:
        arrays = dict(data)
    meta = json.loads(bytes(arrays["meta"]).decode())
    assert meta["version"] == 1
    for version in (2, 0, "1", None):
        arrays["meta"] = np.frombuffer(json.dumps(dict(meta, version=version)).encode(),
                                       dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=f"is a version {version!r} checkpoint; "
                                             f"this release reads version 1"):
            load_checkpoint(path, flow=flow, ops=ops)


def test_checkpoint_grid_mismatch(small, rng, tmp_path):
    flow, ops, params, _ = small
    state = equilibrium_state(flow, ops)
    path = str(tmp_path / "state.npz")
    save_checkpoint(path, state, params, flow, ops)
    other = build_flow_grid(12)
    with pytest.raises(ValueError, match="does not match"):
        load_checkpoint(path, flow=other)


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = str(tmp_path / "other.npz")
    np.savez(path, u=np.zeros(3), psi=np.zeros((2, 2)),
             meta=np.frombuffer(b'{"kind": "something"}', dtype=np.uint8))
    with pytest.raises(ValueError, match="checkpoint"):
        load_checkpoint(path)
    # a checkpoint's meta with one of the three arrays missing
    arrays = dict(u=np.zeros(3), psi=np.zeros((2, 2)),
                  meta=np.frombuffer(b'{"kind": "fene-coupled-state"}', dtype=np.uint8))
    for missing in arrays:
        path = str(tmp_path / f"no_{missing}.npz")
        np.savez(path, **{k: v for k, v in arrays.items() if k != missing})
        with pytest.raises(ValueError, match="is not a coupled-state checkpoint"):
            load_checkpoint(path)
    # all three arrays, but a meta that is not a checkpoint's JSON object
    full = json.loads(bytes(arrays["meta"]).decode()) | {
        "version": 1, "t": 0.0, "n": 0, "flow": {"N": 4, "side": 1.0}, "config": {}}
    bad_metas = [b"[1, 2]", b'"text"', b"null", b"\xff\xfe{", b"{not json",
                 b'{"kind": "fene-coupled-state"}']
    bad_metas += [json.dumps({k: v for k, v in full.items() if k != key}).encode()
                  for key in ("version", "t", "n", "flow", "config")]
    bad_metas += [json.dumps(dict(full, flow=flow)).encode()
                  for flow in ({"N": 4}, {"side": 1.0}, [4, 1.0])]
    bad_metas += [json.dumps(dict(full, t="later")).encode(),
                  json.dumps(dict(full, n=None)).encode()]
    for i, meta in enumerate(bad_metas):
        path = str(tmp_path / f"bad_meta_{i}.npz")
        np.savez(path, u=arrays["u"], psi=arrays["psi"],
                 meta=np.frombuffer(meta, dtype=np.uint8))
        with pytest.raises(ValueError, match="is not a coupled-state checkpoint"):
            load_checkpoint(path)
    # the well-formed meta those were cut from loads
    path = str(tmp_path / "good_meta.npz")
    np.savez(path, u=arrays["u"], psi=arrays["psi"],
             meta=np.frombuffer(json.dumps(full).encode(), dtype=np.uint8))
    assert load_checkpoint(path)[0].n == 0
    # files that are no .npz archive at all: a bare .npy array, text, an
    # empty file and a checkpoint cut in half
    np.save(str(tmp_path / "array.npy"), np.zeros(3))
    (tmp_path / "notes.txt").write_text("not a checkpoint\n")
    (tmp_path / "empty.npz").write_bytes(b"")
    whole = (tmp_path / "good_meta.npz").read_bytes()
    (tmp_path / "truncated.npz").write_bytes(whole[: len(whole) // 2])
    for name in ("array.npy", "notes.txt", "empty.npz", "truncated.npz"):
        with pytest.raises(ValueError, match="is not a coupled-state checkpoint"):
            load_checkpoint(str(tmp_path / name))
    with pytest.raises(FileNotFoundError):
        load_checkpoint(str(tmp_path / "missing.npz"))
