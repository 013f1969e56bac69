"""Observables and verdicts: entropy and Fisher functionals, the run ledger,
the energy-inequality / log-Sobolev / distance-to-equilibrium / decay checks."""

import math

import numpy as np
import pytest

from feneflow import (
    LEDGER_COLUMNS,
    EnergyLedger,
    RunConfig,
    build_config_grid,
    build_flow_grid,
    decay_energy,
    decay_verdict,
    energy_inequality_check,
    entropy_F,
    fisher_q,
    fisher_x,
    gamma0,
    relative_entropy,
    run_scenario,
)
from flow_reference import momentum_energy_residual
from inequality_reference import csiszar_kullback_check, lsi_check

# int int M F(1 + 0.1 qx / sqrt(b)) over the unit square at b = 4,
# frozen from adaptive quadrature (the grid functional reproduces it to
# rounding because the quadrature integrates the smooth integrand exactly
# to machine precision at these orders)
ENT_TILTED_01 = 0.0006253130222333259


@pytest.fixture(scope="module")
def flow8():
    return build_flow_grid(8)


def tilted(flow, grid, a):
    return 1.0 + a * np.tile(grid.qx / math.sqrt(grid.b), (flow.n_c, 1))


# --------------------------------------------------------------------------
# functionals
# --------------------------------------------------------------------------


def test_relative_entropy_zero_at_equilibrium(flow8, grid16):
    psi = np.ones((flow8.n_c, grid16.n_nodes))
    assert relative_entropy(flow8, grid16, psi) == pytest.approx(0.0, abs=1e-15)


def test_relative_entropy_frozen_value(flow8, grid16):
    ent = relative_entropy(flow8, grid16, tilted(flow8, grid16, 0.1))
    assert ent == pytest.approx(ENT_TILTED_01, abs=1e-15)


def test_equilibrium_run_reports_entropy_at_rounding_level():
    # psi stays within ~1e-13 of 1, where F(psi) ~ (psi - 1)^2 / 2; a form
    # of F that cancels near 1 reports ~1e-18 here instead
    cfg = RunConfig(scenario="equilibrium", N_x=8, N_r=10, N_theta=10, dt=0.01, T=0.05)
    entropy = run_scenario(cfg).ledger.column("entropy")
    assert np.abs(entropy).max() <= 1e-25


def test_relative_entropy_is_entropy_F_near_equilibrium(flow8, grid16, rng):
    # within 1e-9 of psi = 1, F(psi) ~ 5e-19: the ledger's entropy keeps
    # entropy_F's cancellation-free form there (s log s - s + 1 would carry
    # 1e-16 absolute error per node)
    psi = 1.0 + 1e-9 * rng.standard_normal((flow8.n_c, grid16.n_nodes))
    want = flow8.h * flow8.h * float((entropy_F(psi) @ grid16.w).sum())
    assert relative_entropy(flow8, grid16, psi) == pytest.approx(want, rel=1e-15, abs=0.0)
    # zeros, clamped dips and subnormals take F(max(psi, 0)) exactly
    psi[0, :6] = [0.0, -0.0, -1e-11, 5e-324, 1e-310, 1e-300]
    want = flow8.h * flow8.h * float((entropy_F(np.maximum(psi, 0.0)) @ grid16.w).sum())
    assert relative_entropy(flow8, grid16, psi) == want


def test_relative_entropy_rejects_negative(flow8, grid16):
    psi = np.ones((flow8.n_c, grid16.n_nodes))
    psi[0, 0] = -1e-6
    with pytest.raises(ValueError, match="negative"):
        relative_entropy(flow8, grid16, psi)
    # a dip within the tolerance is clamped, not fatal
    psi[0, 0] = -1e-12
    assert relative_entropy(flow8, grid16, psi) >= 0.0


def test_density_functionals_reject_nan(flow8, grid16):
    # a NaN density fails the nonnegativity check at any finite tolerance;
    # neg_tol = inf checks nothing
    psi = np.ones((flow8.n_c, grid16.n_nodes))
    psi[3, 5] = math.nan
    for functional in (relative_entropy, fisher_x, fisher_q):
        for tol in (1e-10, 1e300):
            with pytest.raises(ValueError, match="NaN"):
                functional(flow8, grid16, psi, neg_tol=tol)
        assert math.isnan(functional(flow8, grid16, psi, neg_tol=math.inf))
    with pytest.raises(ValueError, match="mass"):
        csiszar_kullback_check(flow8, grid16, psi)


def test_fisher_terms_vanish_on_flat_states(flow8, grid16):
    psi = 2.0 * np.ones((flow8.n_c, grid16.n_nodes))
    assert fisher_x(flow8, grid16, psi) == 0.0
    assert fisher_q(flow8, grid16, psi) == 0.0


def test_fisher_x_sees_only_x_variation(flow8, grid16, rng):
    # x-constant but q-dependent: no x-term; and vice versa
    psi_q = np.tile(1.0 + 0.5 * rng.random(grid16.n_nodes), (flow8.n_c, 1))
    assert fisher_x(flow8, grid16, psi_q) == 0.0
    assert fisher_q(flow8, grid16, psi_q) > 0.0
    psi_x = np.repeat(1.0 + 0.5 * rng.random(flow8.n_c)[:, None],
                      grid16.n_nodes, axis=1)
    assert fisher_q(flow8, grid16, psi_x) == 0.0
    assert fisher_x(flow8, grid16, psi_x) > 0.0


def test_fisher_x_reads_either_layout(flow8, grid16, rng):
    # the cell differences are shifts along the node-major root: a
    # C-ordered density and the same one node-major give the same bits,
    # the squared cell differences' sum up to its summation order
    psi = rng.uniform(0.0, 2.0, (flow8.n_c, grid16.n_nodes))
    got = fisher_x(flow8, grid16, psi)
    assert fisher_x(flow8, grid16, np.asfortranarray(psi)) == got
    cube = np.sqrt(psi).reshape(flow8.N, flow8.N, grid16.n_nodes)
    want = 4.0 * sum(float((np.diff(cube, axis=axis) ** 2).sum(axis=(0, 1)) @ grid16.w)
                     for axis in (0, 1))
    assert abs(got - want) <= 1e-14 * want


def test_fisher_quadratic_in_small_amplitude(flow8, grid16):
    # sqrt(1 + a g) - 1 ~ a g / 2, so the functional scales like a^2
    f4 = fisher_q(flow8, grid16, tilted(flow8, grid16, 4e-3))
    f2 = fisher_q(flow8, grid16, tilted(flow8, grid16, 2e-3))
    assert f4 / f2 == pytest.approx(4.0, rel=1e-2)


def test_free_and_decay_energy_at_equilibrium(flow8, grid16):
    psi = np.ones((flow8.n_c, grid16.n_nodes))
    u = np.zeros(flow8.n_u + flow8.n_v)
    assert decay_energy(flow8, grid16, u, psi, k=1.0) == 0.0


def test_decay_energy_combines_kinetic_and_l1(flow8, grid16, rng):
    u = rng.standard_normal(flow8.n_u + flow8.n_v)
    psi = tilted(flow8, grid16, 0.3)
    e = decay_energy(flow8, grid16, u, psi, k=2.0)
    assert e > flow8.norm_sq(u)
    assert decay_energy(flow8, grid16, u, psi, k=0.0) == pytest.approx(
        flow8.norm_sq(u))


def test_gamma0_rate():
    # nu / C_P^2 = 2 pi^2 dominates, the configuration rate 1 wins
    assert gamma0(1.0, 1.0 / (math.pi * math.sqrt(2.0)), 0.5) == \
        pytest.approx(1.0, abs=1e-12)
    assert gamma0(0.01, 1.0 / (math.pi * math.sqrt(2.0)), 0.5) == \
        pytest.approx(0.01 * 2.0 * math.pi**2, rel=1e-12)


# --------------------------------------------------------------------------
# ledger
# --------------------------------------------------------------------------


def ledger_row(t, lhs=1.0, b2=2.0):
    row = {name: 0.0 for name in LEDGER_COLUMNS}
    row.update(t=t, energy_lhs=lhs, B2=b2, fp_iters=3,
               rho_min=1.0, rho_max=1.0, psi_min=0.5)
    return row


def test_ledger_round_trip_is_byte_identical(tmp_path):
    led = EnergyLedger()
    led.append(**ledger_row(0.0))
    led.append(**ledger_row(0.5, lhs=0.123456789123456789))
    text = led.to_text()
    again = EnergyLedger.from_text(text)
    assert again.to_text() == text
    path = tmp_path / "ledger.tsv"
    led.write(str(path))
    assert EnergyLedger.read(str(path)).to_text() == text
    assert path.read_text() == text


def test_ledger_rejects_wrong_columns():
    led = EnergyLedger()
    with pytest.raises(ValueError):
        led.append(t=0.0)  # missing columns
    row = ledger_row(0.0)
    row["extra"] = 1.0
    with pytest.raises(ValueError):
        led.append(**row)


def test_ledger_rejects_foreign_text():
    with pytest.raises(ValueError):
        EnergyLedger.from_text("no header\n0\t1\n")
    with pytest.raises(ValueError, match="no column line"):
        EnergyLedger.from_text("# feneflow-energy-ledger v1\n")
    led = EnergyLedger()
    led.append(**ledger_row(0.0))
    mangled = led.to_text().replace("energy_lhs", "energy_loss")
    with pytest.raises(ValueError):
        EnergyLedger.from_text(mangled)


def test_ledger_column_access():
    led = EnergyLedger()
    for i in range(4):
        led.append(**ledger_row(0.1 * i, lhs=float(i)))
    np.testing.assert_allclose(led.column("t"), [0.0, 0.1, 0.2, 0.3])
    np.testing.assert_allclose(led.column("energy_lhs"), [0, 1, 2, 3])
    assert len(led) == 4
    with pytest.raises(KeyError):
        led.column("nonexistent")


def test_energy_inequality_check_verdicts():
    led = EnergyLedger()
    for i in range(5):
        led.append(**ledger_row(0.1 * i, lhs=1.9 - 0.1 * i, b2=2.0))
    ok, worst = energy_inequality_check(led)
    assert ok and worst < 0.0
    led.append(**ledger_row(0.5, lhs=2.5, b2=2.0))   # a genuine violation
    ok, worst = energy_inequality_check(led)
    assert not ok and worst == pytest.approx(0.25)


def test_energy_inequality_degenerate_zero_data():
    # zero right side with rounding-level left side must still pass
    led = EnergyLedger()
    led.append(**ledger_row(0.0, lhs=1e-17, b2=0.0))
    ok, worst = energy_inequality_check(led)
    assert ok


# --------------------------------------------------------------------------
# pointwise verdicts
# --------------------------------------------------------------------------


def test_lsi_check_equilibrium_and_random_rows(grid16, rng):
    eq = lsi_check(grid16, np.ones(grid16.n_nodes))
    assert eq.satisfied and eq.entropy_term == pytest.approx(0.0, abs=1e-14)
    for _ in range(50):
        row = rng.random(grid16.n_nodes) + 1e-3
        res = lsi_check(grid16, row)
        assert res.satisfied
    with pytest.raises(ValueError):
        lsi_check(grid16, np.zeros(grid16.n_nodes))


def test_csiszar_kullback_requires_unit_mass(flow8, grid16):
    with pytest.raises(ValueError, match="mass"):
        csiszar_kullback_check(flow8, grid16, 2.0 * np.ones((flow8.n_c,
                                                             grid16.n_nodes)))


def test_csiszar_kullback_rejects_a_negative_density(grid16):
    # a row dipping to -0.51 at one node, renormalized to unit mass, meets
    # the mass precondition; it was taken as F(0) = 1 there and passed
    flow = build_flow_grid(4)
    psi = np.ones((flow.n_c, grid16.n_nodes))
    psi[0, 5] = -0.51
    psi[0] /= psi[0] @ grid16.w
    with pytest.raises(ValueError, match="negative"):
        csiszar_kullback_check(flow, grid16, psi)


def test_csiszar_kullback_margins(flow8, grid16, rng):
    eq = csiszar_kullback_check(flow8, grid16,
                                np.ones((flow8.n_c, grid16.n_nodes)))
    assert eq.satisfied
    # mass-one perturbations: 1 + a * (mean-zero node function)
    for _ in range(25):
        a = rng.uniform(0.05, 0.6)
        psi = tilted(flow8, grid16, a)
        res = csiszar_kullback_check(flow8, grid16, psi)
        assert res.satisfied
        assert res.worst_pointwise_margin >= -1e-12
        assert res.integrated_margin >= -1e-12


# --------------------------------------------------------------------------
# decay verdict
# --------------------------------------------------------------------------


def test_decay_verdict_on_synthetic_exponential():
    t = np.linspace(0.0, 2.0, 41)
    e = 3.0 * np.exp(-2.0 * t)
    v = decay_verdict(t, e, initial_budget=3.0, rate=1.0, predicted_rate=2.0)
    assert v.satisfied
    assert v.predicted_rate == 2.0
    assert v.fitted_rate == pytest.approx(2.0, rel=1e-10)
    assert v.bound_at_final_time == pytest.approx(3.0 * math.exp(-2.0) * 1.001)


def test_decay_verdict_detects_slow_decay():
    t = np.linspace(0.0, 2.0, 41)
    e = 3.0 * np.exp(-0.5 * t)
    v = decay_verdict(t, e, initial_budget=3.0, rate=1.0, predicted_rate=2.0)
    assert not v.satisfied


def test_decay_verdict_input_validation():
    with pytest.raises(ValueError):
        decay_verdict([0.0], [1.0], 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        decay_verdict([0.0, 1.0], [1.0], 1.0, 1.0, 1.0)


def test_momentum_energy_residual_trivial_case(flow8):
    z = np.zeros(flow8.n_u + flow8.n_v)
    assert momentum_energy_residual(flow8, z, z, 0.0, 0.01, 1.0, 1.0) == 0.0
