"""The decay rate as an exact discrete oracle.

With no body force the velocity decays, and after it each backward-Euler
step divides the slowest configuration mode by ``1 + dt g / (2 lam)``,
``g = spectral_gap(ops)``.  The relative entropy is quadratic in that mode
near ``M``, so the late ratio of successive ``entropy`` rows of the ledger
is ``(1 + dt g / (2 lam))^-2`` whatever the centre-of-mass diffusion, the
initial data or the coupling ``k``, and at each extensibility ``b`` with its
own ``g``.  The run reports that rate, ``2 log(1 + dt g / (2 lam)) / dt``,
as the decay verdict's ``predicted_rate``."""

import math

import pytest

from feneflow import RunConfig, run_scenario

# each bound is MARGIN times the relative error measured for that config
# (N_x = 8, 10 x 10 configuration grid, lam = 0.5, dt = 0.02, T = 4 unless
# overridden): room for another rounding of the late entropies, which sit
# near 4e-10 (3e-7 at b = 20), while a wrong rate misses by percents
MARGIN = 10.0
# the one datum whose density passes the cut-off L = 5: in 3 ledger rows,
# with beta_saturation_fraction up to 1.4e-2; every other case stays below L
REACHES_L = dict(amplitude=1.0, stream_amplitude=2.0)
CASES = [
    (dict(), 2.2e-11),
    (dict(eps=0.01), 2.8e-7),
    (dict(k=0.0), 2.3e-11),
    (dict(b=20.0, dt=0.05, T=3.0), 1.9e-8),
    (dict(eps=0.2), 2.1e-11),
    (dict(amplitude=0.5), 4.4e-10),
    (dict(amplitude=1.0), 1.8e-9),
    (dict(stream_amplitude=0.5), 2.7e-11),
    (dict(stream_amplitude=1.0), 4.6e-11),
    (REACHES_L, 1.8e-9),
]


@pytest.mark.parametrize("overrides, measured", CASES,
                         ids=["as_given", "eps_0.01", "k_0", "b_20", "eps_0.2", "amplitude_0.5",
                              "amplitude_1", "stream_0.5", "stream_1", "reaches_L"])
def test_late_entropy_ratio_is_the_backward_euler_factor(overrides, measured):
    cfg = RunConfig(**dict(dict(scenario="decay", N_x=8, N_r=10, N_theta=10, lam=0.5,
                                dt=0.02, T=4.0), **overrides))
    result = run_scenario(cfg)
    ledger = result.ledger
    assert ledger.column("beta_saturation_fraction").any() == (overrides is REACHES_L)
    ent = ledger.column("entropy")
    factor = math.exp(-result.decay.predicted_rate * cfg.dt)
    assert factor < 0.97                    # a rate the ratio can tell from 1
    assert abs(ent[-1] / ent[-2] / factor - 1.0) <= MARGIN * measured
