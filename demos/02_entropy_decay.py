#!/usr/bin/env python3
# Free-flight relaxation: start from a swirl of velocity and a tilted
# configuration density, let the coupled system coast (f = 0), and watch
#
#   E(t) = |u|^2 + (k/|Omega|) * (int int M |psi_hat - 1|)^2
#
# fall underneath the exponential envelope  exp(-gamma0 t) * E_budget,
# where gamma0 = min(nu / C_P^2, kappa / (2 lambda)) combines the viscous
# rate (through the domain's Poincare constant) with the configuration-space
# relaxation rate (kappa = 1, the Maxwellian's curvature), and E_budget = |u_0|^2 + 2 k Ent(psi_0) comes from the
# initial data alone. The run also carries the accumulated energy ledger;
# its left side must stay below the data functional B^2 at every step.
#
# Usage: python3 demos/02_entropy_decay.py
import math

from feneflow import KAPPA, RunConfig, energy_inequality_check, run_scenario

cfg = RunConfig(scenario="decay", T=1.0, dt=0.01, N_x=12, N_r=12, N_theta=12,
                nu=1.0, k=1.0, lam=0.5, eps=0.1, amplitude=0.3,
                stream_amplitude=0.4)
result = run_scenario(cfg)

print(f"gamma0 = {result.gamma0:.4f}  (Poincare constant {result.poincare:.5f}, "
      f"curvature kappa = {KAPPA})")
print(f"initial budget |u0|^2 + 2k Ent = {result.initial_budget:.6e}")
print(f"B^2 (adds the forcing history; zero here beyond the data) = {result.B2:.6e}\n")

print("    t        E(t)          envelope      E/envelope")
times, energies = result.ledger.column("t"), result.decay_energies
for i in range(0, len(times), 20):
    env = math.exp(-result.gamma0 * times[i]) * result.initial_budget
    print(f"  {times[i]:5.2f}  {energies[i]:.6e}  {env:.6e}  {energies[i]/env:8.4f}")

v = result.decay
print(f"\nfinal: E(T) = {v.final_energy:.3e} <= bound {v.bound_at_final_time:.3e}"
      f"  ->  {'OK' if v.satisfied else 'VIOLATED'}")
print(f"fitted exponential rate of E: {v.fitted_rate:.2f} "
      f"(guaranteed rate gamma0 = {v.gamma0:.2f})")

ok, worst = energy_inequality_check(result.ledger)
print(f"\nenergy ledger: worst (lhs - B^2)/B^2 over {len(result.ledger)} rows "
      f"= {worst:.2e}  ->  {'OK' if ok else 'VIOLATED'}")
print("verdicts:", ", ".join(f"{k}={v}" for k, v in sorted(result.verdicts.items())))
