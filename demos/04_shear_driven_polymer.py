#!/usr/bin/env python3
# Shear-driven polymer stress.  A steady body force f_x = A sin(2 pi y)
# pushes alternating shear bands through the channel; the flow spins up
# until viscosity and polymer drag balance the forcing, and the spring
# distributions tilt into a q_x q_y correlation that shows up as the
# off-diagonal entry of the Kramers stress tensor
#
#   tau = k ( int M psi U' q q^T dq - rho I ).
#
# The script prints the kinetic-energy rise, the developed velocity
# profile across the channel, and the per-band shear rate next to the
# polymer shear stress it induces (same sign pattern, smoothed tails).
#
# Usage: python3 demos/04_shear_driven_polymer.py
import numpy as np

from feneflow import (RunConfig, build_config_grid, build_flow_grid,
                      kramers_stress, run_scenario)

cfg = RunConfig(scenario="couette", T=1.0, dt=0.01, N_x=12, N_r=12,
                N_theta=12, nu=1.0, k=1.0, lam=0.5, eps=0.1,
                force_amplitude=4.0)
result = run_scenario(cfg)
print(f"ran {result.n_steps} steps to t = {result.state.t:.2f}, "
      f"exit status {result.exit_status}")

t = result.ledger.column("t")
ke = result.ledger.column("kinetic")
print("\nkinetic energy |u|^2 spinning up against viscous + polymer drag:")
for i in range(0, len(t), 20):
    bar = "#" * int(round(60 * ke[i] / ke.max()))
    print(f"  t={t[i]:4.1f}  {ke[i]:.4e}  {bar}")

# developed profile: mean of u_x over the streamwise faces at each height
fg = build_flow_grid(cfg.N_x, cfg.side)
N = cfg.N_x
ux = result.state.u[:fg.n_u].reshape(N - 1, N)   # [x-face index, y level]
profile = ux.mean(axis=0)
print("\nmean streamwise velocity by height (forcing ~ sin(2 pi y)):")
for j, val in enumerate(profile):
    pad = int(round(24 + 24 * val / np.abs(profile).max()))
    print(f"  y={(j + 0.5) / N:5.3f}  {val: .4e}  " + " " * pad + "*")

# Kramers stress per cell, compared with the local shear rate
grid = build_config_grid(cfg.b, cfg.N_r, cfg.N_theta)
tau = kramers_stress(grid, result.state.psi, cfg.k)       # (n_c, 2, 2)
gradu = fg.cell_velocity_gradient(result.state.u)          # (n_c, 2, 2)
shear = 0.5 * (gradu[:, 0, 1] + gradu[:, 1, 0])

tau_xy_by_y = tau[:, 0, 1].reshape(N, N).mean(axis=0)      # cells are x-major
shear_by_y = shear.reshape(N, N).mean(axis=0)
print("\nband-averaged shear rate vs polymer shear stress tau_xy:")
print("   y       shear(u)     tau_xy      ratio")
for j in range(N):
    r = tau_xy_by_y[j] / shear_by_y[j]
    print(f"  {(j + 0.5) / N:5.3f}  {shear_by_y[j]: .4e}  "
          f"{tau_xy_by_y[j]: .4e}  {r:7.4f}")

c = (N // 2) * N + N // 2
print(f"\nfull stress tensor at the centre cell (x=y={(N // 2 + 0.5) / N:.3f}):")
for row in tau[c]:
    print("   [" + "  ".join(f"{v: .4e}" for v in row) + "]")
print(f"normal-stress difference tau_xx - tau_yy there: "
      f"{tau[c, 0, 0] - tau[c, 1, 1]: .4e} (second order in the shear)")
