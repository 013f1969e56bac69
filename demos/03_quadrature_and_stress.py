#!/usr/bin/env python3
# The configuration-space quadrature in three acts.
#
#   1. Closed-form moments of the FENE Maxwellian M ~ (1 - |q|^2/b)^{b/2}:
#      the normalizer Z, the second moment, and the elastic identity
#      int M U' q_a q_c dq = delta_ac (which is what makes the polymer
#      stress vanish identically at equilibrium).
#   2. The Maxwellian integration-by-parts identity that links the drag
#      term to the stress term, through the drag's edge form
#      sum_e (sigma : Gamma_e) dphi_e = int M phi (U' q^T sigma q - tr sigma):
#      for sigma = I its residual on a smooth test density shrinks at second
#      order under grid refinement; for a trace-free sigma it does not yet,
#      because the angular edges' factor carries an extra 1/dtheta (ROADMAP
#      item 1).
#   3. The Kramers stress of a sheared density: tilt the equilibrium with
#      a q_x q_y correlation and read off the off-diagonal stress it buys.
#
# Usage: python3 demos/03_quadrature_and_stress.py
import math

import numpy as np

from feneflow import (assemble_fp_operators, build_config_grid, kramers_stress,
                      maxwellian_normalizer)

b, d = 4.0, 2        # the planar dumbbell: d = 2 is fixed, b is the only parameter

print(f"FENE spring with b = {b} in d = {d}\n")

# Z = 2 pi int_0^sqrt(b) r (1 - r^2/b)^{b/2} dr by Gauss-Legendre quadrature,
# exact for this degree-5 polynomial integrand at b = 4, against the closed
# form that the package uses
half = 0.5 * math.sqrt(b)                       # maps [-1, 1] onto [0, sqrt(b)]
x, wx = np.polynomial.legendre.leggauss(4)
r = half * (x + 1.0)
Z_quad = 2.0 * math.pi * half * float(wx @ (r * (1.0 - r**2 / b) ** (b / 2)))
Z = maxwellian_normalizer(b)                    # 2 pi b/(b+2) = 4 pi / 3 at b = 4
print(f"normalizer Z: Gauss-Legendre quadrature {Z_quad:.15f}")
print(f"              closed form 2 pi b/(b+2)  {Z:.15f}   "
      f"(diff {abs(Z - Z_quad):.1e})")

grid = build_config_grid(b, N_r=64, N_theta=64)
m2 = (grid.qx**2 + grid.qy**2) @ grid.w
m2_closed = d * b / (b + d + 2.0)
print(f"second moment int M |q|^2: grid {m2:.12f}, closed form {m2_closed} "
      f"(diff {abs(m2 - m2_closed):.1e})")

print("\nelastic identity C(M) = int M U' q q^T dq (want the identity matrix):")
coords = (grid.qx, grid.qy)
for a in range(d):
    row = [(grid.uprime * coords[a] * coords[c]) @ grid.w for c in range(d)]
    print("   [" + "  ".join(f"{v: .2e}" for v in row) + "]")

# --- integration by parts under refinement --------------------------------
B = np.array([[0.3, -0.7], [1.1, -0.3]])        # a trace-free matrix
rng = np.random.default_rng(7)
c = rng.uniform(0.2, 0.8, size=4)

print("\nintegration by parts through the drag's edge form, smooth test density:")
print("   sigma       N      edge form     quadrature    |diff|     ratio")
for name, sigma in (("identity  ", np.eye(2)), ("trace-free", B)):
    prev = None
    for N in (16, 32, 64):
        ops = assemble_fp_operators(build_config_grid(b, N_r=N, N_theta=N))
        g = ops.grid
        phi = (np.exp(c[0] * g.qx + c[1] * g.qy)
               + c[2] * np.sin(g.qx) * np.cos(g.qy) + c[3] * g.qx * g.qy)
        q = np.stack([g.qx, g.qy])
        lhs = float(ops.drag_rhs(sigma, np.ones(g.n_edges)) @ phi)
        rhs = float(g.w @ (phi * (g.uprime * np.sum(q * (sigma @ q), axis=0)
                                  - np.trace(sigma))))
        diff = abs(lhs - rhs)
        ratio = "" if prev is None else f"{prev / diff:7.2f}"
        print(f"   {name}  {N:3d}  {lhs: .8f}  {rhs: .8f}   {diff:.2e}  {ratio}")
        prev = diff

# --- Kramers stress of a sheared density -----------------------------------
# psi_hat = 1 + a q_x q_y is the leading response to a simple shear: mass is
# unchanged (odd moment), the diagonal stays relaxed, and the off-diagonal
# picks up  k a int M U' q_x^2 q_y^2 dq = k a / 2  exactly at b = 4.
a = 0.25
tau_eq = kramers_stress(grid, np.ones(grid.n_nodes), k=1.0)
tau_sh = kramers_stress(grid, 1.0 + a * grid.qx * grid.qy, k=1.0)
print(f"\nKramers stress at equilibrium (max |entry| = {np.abs(tau_eq).max():.1e}):")
for row in tau_eq:
    print("   [" + "  ".join(f"{v: .2e}" for v in row) + "]")
print(f"sheared by psi_hat = 1 + {a} qx qy:")
for row in tau_sh:
    print("   [" + "  ".join(f"{v: .6f}" for v in row) + "]")
print(f"predicted off-diagonal a/2 = {a / 2}, "
      f"measured {tau_sh[0, 1]:.10f} (diff {abs(tau_sh[0, 1] - a / 2):.1e})")
