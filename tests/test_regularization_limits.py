"""The paper's regularization limits, ``L -> inf`` and ``delta -> 0``.

The scheme regularizes the entropy and the drag coefficient by the cut-off
pair ``(delta, L)`` of ``beta^L_delta`` and ``F^L_delta``.  Where the
density stays inside ``(delta, L)`` the cut-off is inactive: the secant
coefficient and every ledger entry take their in-range form, and a
different inactive pair must change no bit of the run."""

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
