"""Coupled oracles: closed forms of the continuous model that the coupled run
must approach, and the orders at which refined runs approach their limit.

Steady Couette flow of the dilute solution.  A body force drives a shear
flow, the density relaxes to the steady state of that shear, and the
polymer stress adds the zero-shear viscosity ``k lam b / (b + 4)`` of the
planar FENE dumbbell to the solvent's ``nu``.  So at a weak force the final
velocity with the stress on (``k = 1``) is the one without it (``k = 0``)
times ``nu / (nu + k lam b / (b + 4))``, 0.8 at the parameters below.

Refinement.  Halving one resolution twice gives three final values of each
ledger column; the ratio of their successive differences tends to ``2^p``
for a discretization of order ``p`` in that resolution."""

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


# decay on a 12 x 12 configuration grid at N_x = 8, dt = 0.01 to T = 0.04;
# each leg overrides one resolution with three successive halvings
REFINE = dict(scenario="decay", N_x=8, N_r=12, N_theta=12, dt=0.01, T=0.04)
COLUMNS = ("kinetic", "entropy", "fisher_q")


def difference_ratios(legs):
    """``(a - b) / (b - c)`` of the final kinetic, entropy and fisher_q of
    the three runs ``legs``."""
    finals = [[run_scenario(RunConfig(**dict(REFINE, **over))).ledger.column(c)[-1]
               for c in COLUMNS] for over in legs]
    return np.array([(a - b) / (b - c) for a, b, c in zip(*finals)])


# the observed orders log2(ratio) that a second-order leg must give
SECOND_ORDER = (1.7, 2.6)


def observed_orders(legs):
    return np.log2(difference_ratios(legs))


# second order in space: the ratios read 4.28, 5.07 and 4.51 (orders 2.10,
# 2.34 and 2.17), where a first-order defect would read about 2
def test_flow_refinement_is_second_order():
    orders = observed_orders([dict(N_x=n) for n in (8, 16, 32)])
    assert ((orders >= SECOND_ORDER[0]) & (orders <= SECOND_ORDER[1])).all(), orders


# N_r = N_theta = 8, 16, 32 at N_x = 8 reads 0.37, 0.38 and 0.31: the
# differences grow as the configuration grid is refined; with a consistent
# angular drag factor they read 3.93, 3.96 and 3.43 (orders 1.98, 1.99, 1.78)
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: the angular edges' drag factor Gamma_e "
                          "carries an extra 1/dtheta")
def test_configuration_refinement_is_second_order():
    orders = observed_orders([dict(N_r=n, N_theta=n) for n in (8, 16, 32)])
    assert ((orders >= SECOND_ORDER[0]) & (orders <= SECOND_ORDER[1])).all(), orders


# dt = 0.01, 0.005, 0.0025.  Both smoothings of the initial data take the
# run's dt, so refining dt moves the smoothed data as well as the steps, and
# at these steps the two do not yet add up to the asymptotic ratio 2 of the
# first-order scheme: entropy and fisher_q read 1.25 and 1.26, kinetic 0.70.
# With both smoothing steps held at 0.01 the three read 2.19, 1.79 and 1.86.
# So kinetic is left unasserted, and the bound on the other two asserts
# that their differences shrink, at today's ratio
def test_time_refinement_shrinks_the_entropy_and_fisher_differences():
    ratios = difference_ratios([dict(dt=dt) for dt in (0.01, 0.005, 0.0025)])[1:]
    assert ((ratios >= 1.15) & (ratios <= 1.4)).all(), ratios
