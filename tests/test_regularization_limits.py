"""The paper's regularization limits, ``L -> inf`` and ``delta -> 0``.

The scheme regularizes the entropy and the drag coefficient by the cut-off
pair ``(delta, L)`` of ``beta^L_delta`` and ``F^L_delta``.  Where the
density stays inside ``(delta, L)`` the cut-off is inactive: the secant
coefficient and every ledger entry take their in-range form, and a
different inactive pair must change no bit of the run.  Where the cut-off
L acts, the run must approach the run without it as L grows."""

import math

import numpy as np
import pytest

from feneflow import SCENARIOS, RunConfig, run_scenario

# the golden configs of tests/golden; every density of these runs stays in
# (1e-4, 5), so each pair below is inactive
GOLDEN = dict(N_x=8, N_r=10, N_theta=10, dt=0.01, T=0.05)
REFERENCE = dict(L=5.0, delta=1e-4)
INACTIVE = [dict(L=L, delta=1e-4) for L in (10.0, 50.0, 500.0)] + [
    dict(L=5.0, delta=delta) for delta in (1e-6, 1e-8)]


def run_outputs(scenario, cutoff):
    result = run_scenario(RunConfig(scenario=scenario, **GOLDEN, **cutoff))
    return result.ledger, (result.state.u.tobytes(), result.state.psi.tobytes(),
                           result.ledger.to_text())


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_inactive_cutoffs_change_no_output_bit(scenario):
    # guards the in-range secant path against a cut-off that leaks into it
    ledger, want = run_outputs(scenario, REFERENCE)
    assert ledger.column("psi_min").min() > REFERENCE["delta"]
    assert not ledger.column("beta_saturation_fraction").any()
    for cutoff in INACTIVE:
        assert run_outputs(scenario, cutoff)[1] == want, cutoff


# decay in strong flow: its accepted densities reach max psi = 13.505 by
# T = 0.05, and the iterates inside the fixed point reach 34.4, so the
# cut-off L acts on this run up to L of about 34.4
STRONG = dict(scenario="decay", amplitude=1.0, stream_amplitude=2.0, N_x=8, N_r=10,
              N_theta=10, dt=0.01, T=0.05)
LADDER = (5.0, 10.0, 20.0, 50.0)


def strong_state(**over):
    return run_scenario(RunConfig(**dict(STRONG, **over))).state


# the final psi's max-norm distance to the L = 500 run reads 3.518, 0.7744,
# 1.456e-2 and 0 at L = 5, 10, 20 and 50: it still moves at L = 20, above
# every accepted density, because the iterates pass 20; from L = 35 on the
# run is bitwise the L = 500 run
def test_strong_flow_converges_as_the_cutoff_grows():
    reference = strong_state(L=500.0)
    assert reference.psi.max() < LADDER[2]
    states = [strong_state(L=L) for L in LADDER]
    distances = [float(np.abs(s.psi - reference.psi).max()) for s in states]
    assert all(a > b for a, b in zip(distances, distances[1:])), distances
    assert (states[-1].u.tobytes(), states[-1].psi.tobytes()) \
        == (reference.u.tobytes(), reference.psi.tobytes())


# the paper pairs the step with the cut-off, dt <= C0 / (L log L); this C0
# gives dt = 0.01 at L = 5, and 0.0033 at L = 10, where step 1 stalls today
C0_AT_DT = 0.01 * 5.0 * math.log(5.0)


@pytest.mark.xfail(strict=True, raises=RuntimeError,
                   reason="ROADMAP item 9: the coupled fixed point stalls in a period-2 "
                          "cycle once the step rule shrinks dt below 0.01 in strong flow")
def test_strong_flow_converges_as_the_cutoff_grows_at_fixed_C0():
    states = [strong_state(L=L, dt=None, C0=C0_AT_DT) for L in LADDER]
    distances = [float(np.abs(s.psi - states[-1].psi).max()) for s in states[:-1]]
    assert all(a > b for a, b in zip(distances, distances[1:])), distances
