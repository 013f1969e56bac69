"""Coupled oracles: closed forms of the continuous model that the coupled run
must approach.

Steady Couette flow of the dilute solution.  A body force drives a shear
flow, the density relaxes to the steady state of that shear, and the
polymer stress adds the zero-shear viscosity ``k lam b / (b + 4)`` of the
planar FENE dumbbell to the solvent's ``nu``.  So at a weak force the final
velocity with the stress on (``k = 1``) is the one without it (``k = 0``)
times ``nu / (nu + k lam b / (b + 4))``, 0.8 at the parameters below."""

import numpy as np
import pytest

from feneflow import RunConfig, run_scenario

# a weak force, slow centre-of-mass diffusion and a horizon T = 6 at which
# the run is steady
COUETTE = dict(scenario="couette", nu=1.0, lam=0.5, b=4.0, eps=1e-4, force_amplitude=0.5,
               dt=0.02, T=6.0)


def final_speed(**over) -> float:
    return float(np.abs(run_scenario(RunConfig(**dict(COUETTE, **over))).state.u).max())


# each leg's ratio reads, today and with a consistent angular drag factor:
# N_x = 16 on 8 x 8, 0.7628 and 0.8056; N_x = 8 on 16 x 16, 0.5738 and
# 0.8179 (it moves away from 0.8 as the angular grid is refined today)
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: the angular edges' drag factor Gamma_e "
                          "carries an extra 1/dtheta")
@pytest.mark.parametrize("N_x, N, tol", [(16, 8, 0.01), (8, 16, 0.025)],
                         ids=["N_x_16-8x8", "N_x_8-16x16"])
def test_couette_speed_ratio_is_the_zero_shear_viscosity_ratio(N_x, N, tol):
    grid = dict(N_x=N_x, N_r=N, N_theta=N)
    b, lam, nu = COUETTE["b"], COUETTE["lam"], COUETTE["nu"]
    expected = nu / (nu + lam * b / (b + 4.0))
    ratio = final_speed(k=1.0, **grid) / final_speed(k=0.0, **grid)
    assert abs(ratio - expected) <= tol
