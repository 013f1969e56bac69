"""The paper's two steps from entropy to the L1 distance, checked on discrete
fields; neither is used by the package.

* :func:`lsi_check` is the log-Sobolev comparison at one spatial point: the
  relative entropy of the row against ``2 / KAPPA`` times its configuration
  Fisher term, the edge form of ``diagnostics.fisher_q``;
* :func:`csiszar_kullback_check` is the Csiszar-Kullback comparison
  ``|psi - 1|_{L1} <= sqrt(2 Ent)``, pointwise in x and integrated.

Each takes the package's own entropy and Fisher forms, so the inequalities
are checked on the numbers the ledger reports.
"""

from dataclasses import dataclass

import numpy as np

from feneflow.diagnostics import NEG_TOL, _check_nonnegative, _root_dirichlet
from feneflow.kinetic import KAPPA, _entropy_F

LSI_TOL = 1.0e-9        # slack of the log-Sobolev comparison, relative to its scale
CK_MASS_TOL = 1.0e-8    # unit local mass the Csiszar-Kullback comparison requires


@dataclass
class LsiResult:
    entropy_term: float
    fisher_term: float
    satisfied: bool


def lsi_check(grid, psi_row) -> LsiResult:
    """Log-Sobolev comparison for a single spatial point:
    ``sum w psi log(psi / rho) <= (2 / KAPPA) sum W_e (d sqrt(psi))^2``
    with ``rho`` the local mass and ``KAPPA = 1`` the Maxwellian's
    curvature, to ``LSI_TOL`` of the right side's scale."""
    psi_row = np.maximum(np.asarray(psi_row, dtype=float), 0.0)
    rho = float(psi_row @ grid.w)
    if rho <= 0.0:
        raise ValueError("log-Sobolev check needs positive local mass")
    # sum w psi log(psi / rho) = rho sum w F(psi / rho), the weights summing to 1
    ent = rho * float(_entropy_F(psi_row / rho) @ grid.w)
    rhs = (2.0 / KAPPA) * float(_root_dirichlet(grid, psi_row))
    scale = max(abs(rhs), 1.0)
    return LsiResult(ent, rhs, ent <= rhs + LSI_TOL * scale)


@dataclass
class CKResult:
    worst_pointwise_margin: float   # min over cells of sqrt(2 F_cell) - |psi-1|_L1(q)
    integrated_margin: float        # 2 |Omega| Ent - |psi-1|_{L1}^2
    satisfied: bool


def csiszar_kullback_check(flow, grid, psi) -> CKResult:
    """Distance-to-equilibrium comparison, pointwise in x and integrated.

    Preconditions: unit local mass, ``|rho(x) - 1| <= CK_MASS_TOL`` in every
    cell (matched mass for the comparison with the constant state), and
    ``psi >= -NEG_TOL``.
    """
    psi = np.asarray(psi, dtype=float)
    rho = psi @ grid.w
    drift = float(np.abs(rho - 1.0).max())
    if not drift <= CK_MASS_TOL:
        raise ValueError(f"local mass deviates from 1 by {drift:.3e} "
                         f"(tolerance {CK_MASS_TOL:.1e})")
    _check_nonnegative(psi, NEG_TOL)
    F_cell = _entropy_F(psi) @ grid.w
    l1_cell = np.abs(psi - 1.0) @ grid.w
    point_margin = float((np.sqrt(2.0 * np.maximum(F_cell, 0.0)) - l1_cell).min())
    h2 = flow.h * flow.h
    ent = h2 * float(F_cell.sum())
    l1_tot = h2 * float(l1_cell.sum())
    area = flow.side * flow.side
    integrated_margin = 2.0 * area * ent - l1_tot * l1_tot
    ok = point_margin >= -1.0e-12 and integrated_margin >= -1.0e-12
    return CKResult(point_margin, integrated_margin, ok)
