"""Coupled stepper: the equilibrium fixed point, mass conservation, the
discrete energy identities, the initial-data smoothing contract, the step
schedule and checkpointing."""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.linalg import LinAlgError

from feneflow import (
    ConstructionError,
    CoupledStepper,
    CutoffParams,
    ScheduleError,
    StepParams,
    SystemState,
    assemble_fp_operators,
    build_config_grid,
    build_flow_grid,
    dt_schedule,
    entropy_F,
    entropy_FLdelta,
    load_checkpoint,
    momentum_energy_residual,
    project_divergence_free,
    save_checkpoint,
    smooth_initial_density,
)
from feneflow.stepping import _kron_solve, _transport_band
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
    assert report.converged and report.iterations == 1
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
    psi_new = stepper.fokker_planck_step(psi_prev, u, u)
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
    psi_new = stepper.fokker_planck_step(np.ones((flow.n_c, ops.grid.n_nodes)), u, u)
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
    ent_nodes = (entropy_F(psi) if cutoff is None
                 else entropy_FLdelta(psi, cutoff.L, cutoff.delta))[0]
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
    u_new = stepper.momentum_step(state.u, state.psi)
    C_hat = ops.stress_matrix(state.psi)
    sigma = flow.cell_velocity_gradient(u_new)
    pairing = flow.h**2 * float(np.sum(C_hat * sigma))
    res = momentum_energy_residual(flow, state.u, u_new, pairing,
                                   params.dt, params.nu, params.k)
    assert res <= 1e-10 * max(1.0, flow.norm_sq(state.u))


def test_stress_force_linear_in_k(small, rng):
    flow, ops, params, stepper = small
    import dataclasses
    state = perturbed_state(flow, ops, rng, amp=0.4)
    base = stepper.momentum_step(state.u, state.psi)
    free = CoupledStepper(flow, ops, dataclasses.replace(params, k=0.0)) \
        .momentum_step(state.u, state.psi)
    double = CoupledStepper(flow, ops, dataclasses.replace(params, k=2.0)) \
        .momentum_step(state.u, state.psi)
    np.testing.assert_allclose(double - free, 2.0 * (base - free), atol=1e-12)


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
    # the band written straight from the face velocities is bitwise the
    # band laid out from the assembled CSR reference, for the density step
    # (random projected transport with ~30% of faces zeroed, and none) and
    # for the smoothing step (unit diffusion, no transport)
    grid = build_flow_grid(N, 0.7)
    rng = np.random.default_rng(N)
    n = grid.n_u + grid.n_v
    h2, dt, eps = grid.h ** 2, 0.01, 0.1
    u = project_divergence_free(grid, rng.standard_normal(n))
    u[rng.random(n) < 0.3] = 0.0
    for faces, diffusion in ((u, eps), (np.zeros(n), eps), (np.zeros(n), 1.0)):
        got = _transport_band(grid, faces, diffusion, h2 / dt)
        want = band_layout(transport_matrix(grid, faces, diffusion, h2 / dt))
        assert got.flags.f_contiguous and got.shape == (3 * N + 1, N * N)
        assert got.tobytes(order="F") == want.tobytes(order="F")

    # the upwind part alone, where the order in which each cell sums its
    # outflows shows in the last bit (compared up to the sign of zero: with
    # no diffusion, an off-diagonal entry that no flux reaches is -0.0);
    # each flux sits +/- in its donor's column, so the columns sum to zero
    # up to that rounding
    upwind = _transport_band(grid, u, 0.0, 0.0)
    assert np.array_equal(upwind, band_layout(upwind_advection(grid, u)))
    assert np.abs(band_to_dense(upwind).sum(axis=0)).max() <= 1e-15 * grid.h * np.abs(u).max()


def test_cell_stiffness_annihilates_constants():
    # the stiffness part of the band (unit diffusion, no mass, no transport)
    # is symmetric and maps constants to zero exactly
    for N in (4, 5, 8, 16):
        grid = build_flow_grid(N, 0.7)
        S = band_to_dense(_transport_band(grid, np.zeros(grid.n_u + grid.n_v), 1.0, 0.0))
        assert np.abs(S @ np.ones(N * N)).max() == 0.0
        assert np.abs(S - S.T).max() == 0.0


def test_kron_solve_matches_solve_banded_loop(small, rng):
    # the direct dgbsv on the reused band runs the same LAPACK routine as the
    # per-mode solve_banded loop on the reference CSR, so the two agree bit
    # for bit
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
        ab = _transport_band(flow, u, diffusion, h2 / params.dt)
        Kx = transport_matrix(flow, u, diffusion, h2 / params.dt)
        R = rng.standard_normal((flow.n_c, ops.grid.n_nodes))
        got = _kron_solve(ab, shift_scale, ops, R)
        assert np.array_equal(got, loop_kron_solve(Kx, shift_scale, ops, R))


def test_kron_solve_names_a_singular_mode(small, rng):
    # a K_x whose first row and column are empty has a zero diagonal entry;
    # with the lowest eigenvalue clipped to exactly 0 (as eigenvalue round-off
    # below zero is), mode 0 is singular while every shifted mode is not
    flow, ops, params, stepper = small
    N = flow.N
    ab = _transport_band(flow, np.zeros(flow.n_u + flow.n_v), params.eps,
                         flow.h ** 2 / params.dt)
    ab[:, 0] = 0.0                                   # column 0
    ab[2 * N - np.arange(N + 1), np.arange(N + 1)] = 0.0   # row 0
    dense = band_to_dense(ab)
    assert not dense[0].any() and not dense[:, 0].any()
    evals = ops.evals.copy()
    evals[0] = 0.0
    clipped = dataclasses.replace(ops, evals=evals)
    R = rng.standard_normal((flow.n_c, ops.grid.n_nodes))
    with pytest.raises(LinAlgError, match=r"^configuration mode 0: .*singular matrix"):
        _kron_solve(ab, stepper._cq * flow.h ** 2, clipped, R)


# --------------------------------------------------------------------------
# fixed-point robustness
# --------------------------------------------------------------------------


def test_non_finite_input_is_detected(small):
    flow, ops, _, stepper = small
    psi = np.ones((flow.n_c, ops.grid.n_nodes))
    psi[0, 0] = np.nan
    with pytest.raises(FloatingPointError):
        stepper.fokker_planck_step(psi, np.zeros(flow.n_u + flow.n_v),
                                   np.zeros(flow.n_u + flow.n_v))
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


def test_step_params_validation():
    good = dict(dt=0.01, nu=1.0, k=1.0, lam=0.5, eps=0.1,
                cutoff=CutoffParams(L=5.0, delta=1e-4))
    StepParams(**good)
    for key, bad in [("dt", 0.0), ("nu", 0.0), ("k", -1.0), ("lam", 0.0), ("eps", -0.1)]:
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


def test_smoothing_failure_is_construction_error():
    assert issubclass(ConstructionError, RuntimeError)


# --------------------------------------------------------------------------
# step schedule
# --------------------------------------------------------------------------


def test_dt_schedule_exact_division():
    dt, n = dt_schedule(L=math.e**2, C0=2.0 * math.e**2, horizon=3.0)
    assert dt == 1.0 and n == 3


def test_dt_schedule_frozen_case():
    # dt_max = 1 / (100 log 100) = 0.002171472409516259 -> 461 steps over [0, 1]
    dt, n = dt_schedule(L=100.0, C0=1.0, horizon=1.0)
    assert n == 461
    assert dt == pytest.approx(1.0 / 461.0, abs=1e-18)
    assert dt <= 0.002171472409516259
    assert n * dt == 1.0


def test_dt_schedule_monotone_in_cutoff():
    dts = [dt_schedule(L, 1.0, 1.0)[0] for L in (3.0, 10.0, 100.0, 1000.0)]
    assert all(a >= b for a, b in zip(dts, dts[1:]))


def test_dt_schedule_errors():
    with pytest.raises(ScheduleError, match="needs L > e"):
        dt_schedule(L=2.0, C0=1.0, horizon=1.0)
    with pytest.raises(ScheduleError):
        dt_schedule(L=100.0, C0=-1.0, horizon=1.0)
    with pytest.raises(ScheduleError, match="below the floor"):
        dt_schedule(L=100.0, C0=1e-12, horizon=1.0)
    # a step bound that underflows to zero, or a horizon / step ratio that
    # overflows, is reported rather than raised from the arithmetic
    with pytest.raises(ScheduleError, match="no finite step count"):
        dt_schedule(L=100.0, C0=5e-324, horizon=1.0)
    with pytest.raises(ScheduleError, match="no finite step count"):
        dt_schedule(L=100.0, C0=1e-300, horizon=1e300)


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
        "t": 0.0, "n": 0, "flow": {"N": 4, "side": 1.0}, "config": {}}
    bad_metas = [b"[1, 2]", b'"text"', b"null", b"\xff\xfe{", b"{not json",
                 b'{"kind": "fene-coupled-state"}']
    bad_metas += [json.dumps({k: v for k, v in full.items() if k != key}).encode()
                  for key in ("t", "n", "flow", "config")]
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
