"""Acceptance gate: one test per advertised guarantee of the coupled solver,
at the stated grids and tolerances.  Run with ``pytest -v`` to get one
pass/fail line per criterion."""

import math
import time

import numpy as np
import pytest

from feneflow import (
    CoupledStepper,
    CutoffParams,
    StepParams,
    SystemState,
    assemble_fp_operators,
    build_config_grid,
    build_flow_grid,
    convection_matrix,
    csiszar_kullback_check,
    energy_inequality_check,
    lsi_check,
    maxwellian_normalizer,
    project_divergence_free,
    smooth_initial_density,
)


def test_criterion_01_equilibrium_preservation():
    """(u=0, psi=1) is a discrete steady state: 50 steps on the production
    grids change nothing beyond 1e-10 per step, in minutes of runtime."""
    flow = build_flow_grid(32)
    grid = build_config_grid(4.0, N_r=32, N_theta=32)
    params = StepParams(dt=1e-2, nu=1.0, k=1.0, lam=0.5, eps=0.1,
                        cutoff=CutoffParams(L=5.0, delta=1e-4))
    ops = assemble_fp_operators(grid)
    stepper = CoupledStepper(flow, ops, params)
    state = SystemState(u=np.zeros(flow.n_u + flow.n_v),
                        psi=np.ones((flow.n_c, grid.n_nodes)), t=0.0, n=0)
    worst = 0.0
    start = time.perf_counter()
    for _ in range(50):
        new_state, report = stepper.coupled_step(state)
        change = max(np.abs(new_state.u - state.u).max(),
                     np.abs(new_state.psi - state.psi).max())
        worst = max(worst, change)
        state = new_state
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10, f"worst per-step change {worst:.3e}"
    assert elapsed <= 600.0, f"equilibrium run took {elapsed:.0f}s"


def test_criterion_02_mass_conservation(reference_decay):
    """The local configuration mass stays pinned at 1 (to 1e-8) at every
    cell of every step of the relaxation run."""
    led = reference_decay.ledger
    assert len(led) >= 101          # at least 100 recorded steps
    assert np.abs(led.column("rho_min") - 1.0).max() <= 1e-8
    assert np.abs(led.column("rho_max") - 1.0).max() <= 1e-8


def test_criterion_03_discrete_energy_inequality(reference_decay,
                                                 decay_eps_variants):
    """Accumulated energy (kinetic + dissipation history + entropy + Fisher
    history) never exceeds the data functional B^2, with 1e-6 B^2 slack."""
    for result in [reference_decay, *decay_eps_variants.values()]:
        ok, worst = energy_inequality_check(result.ledger)
        assert ok, f"worst relative violation {worst:.3e}"


def test_criterion_04_exponential_decay_bound(reference_decay,
                                              decay_eps_variants):
    """E(T) <= exp(-gamma0 T) (|u0|^2 + 2k Ent(psi0)) (1 + 1e-3) at the
    reference parameters, and identically for the other diffusion levels."""
    assert reference_decay.gamma0 == pytest.approx(1.0, abs=1e-12)
    runs = {0.1: reference_decay, **decay_eps_variants}
    for eps, result in runs.items():
        v = result.decay
        assert v is not None and v.satisfied, (
            f"eps={eps}: E(T)={v.final_energy:.6e} bound={v.bound_at_final_time:.6e}")
        assert result.gamma0 == pytest.approx(1.0, abs=1e-12)  # rate is eps-free


def test_criterion_05_quadrature_oracles(grid64):
    """Normalizer, second moment and the elastic isotropy identity hit their
    closed forms on the production quadrature."""
    assert maxwellian_normalizer(4.0) == pytest.approx(4.0 * math.pi / 3.0,
                                                          abs=1e-8)
    assert grid64.Z == pytest.approx(4.0 * math.pi / 3.0, abs=1e-8)
    m2 = (grid64.qx**2 + grid64.qy**2) @ grid64.w
    assert m2 == pytest.approx(1.0, abs=1e-6)
    coords = (grid64.qx, grid64.qy)
    for a in range(2):
        for c in range(2):
            val = (grid64.uprime * coords[a] * coords[c]) @ grid64.w
            assert val == pytest.approx(1.0 if a == c else 0.0, abs=1e-6)


def _edge_ibp_refinement(grid32, grid64, rng, trace_free):
    """Worst relative residual on the 64 x 64 grid and slowest 32 -> 64
    refinement ratio of the drag's edge form against the Maxwellian
    integration by parts, ``sum_e (sigma : Gamma_e) dphi_e = int M phi (U'
    q^T sigma q - tr sigma)``, over 20 smooth non-polynomial fields, with
    ``sigma`` a random trace-free matrix or the identity."""
    ops = [assemble_fp_operators(g) for g in (grid32, grid64)]

    def residual(op, sigma, c):
        g = op.grid
        phi = (np.exp(c[0] * g.qx + c[1] * g.qy)
               + c[2] * np.sin(g.qx) * np.cos(g.qy) + c[3] * g.qx * g.qy)
        q = np.stack([g.qx, g.qy])
        lhs = float(op.drag_rhs(sigma, np.ones(g.n_edges)) @ phi)
        rhs = float(g.w @ (phi * (g.uprime * np.sum(q * (sigma @ q), axis=0)
                                  - np.trace(sigma))))
        return abs(lhs - rhs) / max(abs(lhs), abs(rhs))

    worst, ratios = 0.0, []
    for _ in range(20):
        B = rng.standard_normal((2, 2))
        B[1, 1] = -B[0, 0]
        c = rng.uniform(0.2, 0.8, 4)
        coarse, fine = (residual(op, B if trace_free else np.eye(2), c) for op in ops)
        worst = max(worst, fine)
        ratios.append(coarse / max(fine, 1e-300))
    return worst, min(ratios)


def test_criterion_06_integration_by_parts(grid32, grid64, rng):
    """The drag's edge form meets the Maxwellian integration by parts for
    sigma = I to 1e-4 on smooth non-polynomial fields, improving at second
    order (worst 9.1e-5 at 64 x 64, ratios 3.86-3.87 from 32 x 32)."""
    worst, slowest = _edge_ibp_refinement(grid32, grid64, rng, trace_free=False)
    assert worst <= 1e-4, f"relative residual {worst:.3e}"
    assert slowest >= 3.8, f"slowest refinement ratio {slowest:.2f}"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: the angular edges' drag factor Gamma_e "
                          "carries an extra 1/dtheta")
def test_criterion_06_integration_by_parts_trace_free(grid32, grid64, rng):
    """The same for random trace-free sigma, to 1e-3 at second order; with
    a consistent angular factor the worst residual is 7.9e-4 at 64 x 64 and
    the ratios 4.00, where today they read 0.82 and 0.81."""
    worst, slowest = _edge_ibp_refinement(grid32, grid64, rng, trace_free=True)
    assert worst <= 1e-3, f"relative residual {worst:.3e}"
    assert slowest >= 3.8, f"slowest refinement ratio {slowest:.2f}"


def test_criterion_07_log_sobolev_sweep(grid16, rng):
    """Entropy is dominated by Fisher information (rate 2/kappa, kappa=1)
    for 500 random nonnegative configuration fields."""
    for _ in range(500):
        field = rng.random(grid16.n_nodes) * rng.uniform(0.2, 3.0) + 1e-4
        assert lsi_check(grid16, field).satisfied


def test_criterion_08_csiszar_kullback_sweep(grid16, rng):
    """The L1 distance to equilibrium is controlled by the entropy, both
    pointwise in x and integrated, for 200 random mass-one fields."""
    flow = build_flow_grid(6)
    for _ in range(200):
        g = rng.random((flow.n_c, grid16.n_nodes)) + 0.05
        psi = g / (g @ grid16.w)[:, None]       # unit mass in every cell
        res = csiszar_kullback_check(flow, grid16, psi)
        assert res.satisfied
        assert res.worst_pointwise_margin >= -1e-12
        assert res.integrated_margin >= -1e-12


def test_criterion_09_initial_smoothing_contract(grid16, rng):
    """One clip-and-mollify step never raises the entropy and its Fisher
    budget stays below the entropy of the data (slack -1e-8), for 50 random
    admissible initial densities."""
    flow = build_flow_grid(6)
    for _ in range(50):
        g = rng.random((flow.n_c, grid16.n_nodes)) + 1e-3
        mass = rng.uniform(0.3, 1.0, flow.n_c)
        psi0 = g * (mass / (g @ grid16.w))[:, None]
        zeta, report = smooth_initial_density(flow, assemble_fp_operators(grid16),
                                              psi0, dt=0.01, clip_level=5.0)
        scale = max(abs(report.entropy_before), 1.0)
        assert report.entropy_after - report.entropy_before <= 1e-8 * scale
        assert report.fisher_budget - report.entropy_before <= 1e-8 * scale
        assert zeta.min() >= -1e-8


def test_criterion_10_delta_robustness(decay_delta_pair):
    """Shrinking the regularization level by 10x moves the final state by
    less than 10x the coarser level, in the weighted L2 metric."""
    coarse = decay_delta_pair[1e-3]
    fine = decay_delta_pair[1e-4]
    flow = build_flow_grid(coarse.config.N_x, side=coarse.config.side)
    grid = build_config_grid(coarse.config.b,
                             N_r=coarse.config.N_r, N_theta=coarse.config.N_theta)
    du_sq = flow.norm_sq(coarse.state.u - fine.state.u)
    dpsi = coarse.state.psi - fine.state.psi
    dpsi_sq = flow.h**2 * float(((dpsi * dpsi) @ grid.w).sum())
    diff = math.sqrt(du_sq + dpsi_sq)
    assert diff <= 10.0 * 1e-3, f"final states differ by {diff:.3e}"


def test_criterion_11_skew_symmetry_and_projection(rng):
    """Projection produces divergence-free fields idempotently and the
    convection form is exactly antisymmetric, across 100 random fields."""
    flow = build_flow_grid(16)
    n = flow.n_u + flow.n_v
    for _ in range(100):
        w = rng.standard_normal(n)
        p = project_divergence_free(flow, w)
        assert np.abs(flow.divergence(p)).max() <= 1e-10
        again = project_divergence_free(flow, p)
        assert np.abs(again - p).max() <= 1e-12 * max(1.0, np.abs(p).max())
        C = convection_matrix(flow, rng.standard_normal(n))
        assert abs(C + C.T).max() <= 1e-12 * max(1.0, abs(C).max())
        assert abs(flow.ip(p, C @ p)) <= 1e-12 * max(1.0, flow.norm_sq(p))
