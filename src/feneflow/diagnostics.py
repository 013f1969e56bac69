"""Entropy and energy observables, the run ledger, and inequality verdicts.

Conventions used throughout:

* the relative entropy is ``int int M F(psi) dq dx`` with
  ``F(s) = s(log s - 1) + 1`` (zero exactly at ``psi == 1``);
* Fisher information columns store ``4 int M |grad sqrt(psi)|^2`` in the
  matching discrete edge forms (squared jumps of ``sqrt(psi)``), the same
  forms that appear in the discrete dissipation estimates, so bounds that
  are proved for the scheme hold for the reported numbers verbatim;
* ``energy_lhs`` accumulates the left side of the a-priori estimate
  (kinetic + viscous history + weighted entropy + both Fisher histories)
  and ``B2`` its data-only right side, so a run is admissible iff
  ``energy_lhs <= B2`` row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .configspace import ConfigGrid
from .flowspace import FlowGrid
from .kinetic import KAPPA, _entropy_F

__all__ = [
    "LEDGER_COLUMNS",
    "EnergyLedger",
    "relative_entropy",
    "fisher_x",
    "fisher_q",
    "decay_energy",
    "gamma0",
    "energy_inequality_check",
    "DecayVerdict",
    "decay_verdict",
]


# --------------------------------------------------------------------------
# pointwise functionals
# --------------------------------------------------------------------------

NEG_TOL = 1.0e-10       # default slack of the nonnegativity checks below


def _check_nonnegative(psi: np.ndarray, tol: float) -> None:
    """Raise unless ``psi >= -tol``, which a NaN fails; the callers clamp the
    rest at 0, and ``tol = inf`` clamps without a check."""
    if tol < math.inf:
        lo = float(psi.min())
        if not lo >= -tol:
            raise ValueError(f"density has negative or NaN values down to {lo:.3e}")


def relative_entropy(flow: FlowGrid, grid: ConfigGrid, psi: np.ndarray,
                     neg_tol: float = NEG_TOL) -> float:
    """``int int M F(psi)``; requires ``psi >= -neg_tol`` (clamps the rest).

    ``F`` is the form behind :func:`~feneflow.kinetic.entropy_F`, without
    its check, which takes a negative value as ``F(0) = 1``."""
    psi = np.asarray(psi, dtype=float)
    _check_nonnegative(psi, neg_tol)
    return flow.h * flow.h * float((_entropy_F(psi) @ grid.w).sum())


def fisher_x(flow: FlowGrid, grid: ConfigGrid, psi: np.ndarray,
             neg_tol: float = NEG_TOL) -> float:
    """x-direction Fisher information, edge form: 4 sum (d sqrt(psi))^2 w_q.

    The root is :func:`_clamped_root`'s, so each node's cells ``i N + j`` are
    one contiguous row of its transpose, and each cell difference is one
    shift of the whole root: by ``N`` for ``i``, by 1 for ``j``.  The pairs a
    shift forms across two nodes, or across two values of ``i``, are set to
    zero."""
    psi = np.asarray(psi, dtype=float)
    _check_nonnegative(psi, neg_tol)
    N = flow.N
    root = _clamped_root(grid, psi).T
    flat, d = root.reshape(-1), np.empty_like(root)
    acc = 0.0
    for shift, across in ((N, np.s_[:, -N:]), (1, np.s_[:, N - 1::N])):
        np.subtract(flat[shift:], flat[:-shift], out=d.reshape(-1)[:-shift])
        d[across] = 0.0
        d *= d
        acc = acc + d.sum(axis=1)
    return 4.0 * float(acc @ grid.w)


def _clamped_root(grid: ConfigGrid, psi: np.ndarray) -> np.ndarray:
    """``sqrt(max(psi, 0))``, written node-major (the node axis outermost in
    memory), the run's layout, whatever the layout of ``psi``: the one root
    of both Fisher forms."""
    root = np.moveaxis(np.empty((grid.n_nodes,) + psi.shape[:-1]), 0, -1)
    np.maximum(psi, 0.0, out=root)
    return np.sqrt(root, out=root)


def _root_dirichlet(grid: ConfigGrid, psi: np.ndarray) -> np.ndarray:
    """``sum_e W_e (d sqrt(psi))^2`` per row, ``psi`` clamped at 0.

    The root is node-major, so its edge differences come out edge-major and
    their product with ``edge_w`` rounds as the ledger's Fisher columns
    always have, whatever the layout of ``psi``; the same product on a
    C-ordered array rounds differently."""
    d = grid.edge_pairs(np.subtract, _clamped_root(grid, psi))
    d *= d
    return d @ grid.edge_w


def fisher_q(flow: FlowGrid, grid: ConfigGrid, psi: np.ndarray,
             neg_tol: float = NEG_TOL) -> float:
    """configuration Fisher information: 4 h^2 sum_cells W_e (d sqrt(psi))^2."""
    psi = np.asarray(psi, dtype=float)
    _check_nonnegative(psi, neg_tol)
    return 4.0 * flow.h * flow.h * float(_root_dirichlet(grid, psi).sum())


def decay_energy(flow: FlowGrid, grid: ConfigGrid, u: np.ndarray,
                 psi: np.ndarray, k: float) -> float:
    """``|u|^2 + (k/|Omega|) |psi - 1|_{L1 of M}^2`` — the decaying quantity."""
    dev = np.subtract(psi, 1.0)
    l1 = flow.h * flow.h * float((np.abs(dev, out=dev) @ grid.w).sum())
    area = flow.side * flow.side
    return flow.norm_sq(u) + (k / area) * l1 * l1


def gamma0(nu: float, poincare: float, lam: float) -> float:
    """Exponential rate ``min(nu / C_P^2, KAPPA / (2 lam))``, the Rouse
    eigenvalue of the dumbbell being 1 and ``KAPPA = 1`` the Maxwellian's
    curvature."""
    return min(nu / (poincare * poincare), KAPPA / (2.0 * lam))


# --------------------------------------------------------------------------
# the run ledger
# --------------------------------------------------------------------------

LEDGER_COLUMNS: Tuple[str, ...] = (
    "t", "kinetic", "entropy", "fisher_x", "fisher_q", "free_energy",
    "energy_lhs", "B2", "rho_min", "rho_max", "psi_min",
    "fp_iters", "beta_saturation_fraction",
)

_LEDGER_HEADER = "# feneflow-energy-ledger v1"


class EnergyLedger:
    """Append-only table of per-step observables with a fixed column set.

    Text serialization is tab-separated with full-precision floats
    (``repr``), which round-trips byte-identically through read/write.
    """

    def __init__(self):
        self.rows: List[Dict[str, float]] = []

    def append(self, **kw) -> None:
        missing = set(LEDGER_COLUMNS) - set(kw)
        extra = set(kw) - set(LEDGER_COLUMNS)
        if missing or extra:
            raise ValueError(f"ledger row mismatch: missing {sorted(missing)}, "
                             f"unknown {sorted(extra)}")
        self.rows.append({c: kw[c] for c in LEDGER_COLUMNS})

    def column(self, name: str) -> np.ndarray:
        if name not in LEDGER_COLUMNS:
            raise KeyError(name)
        return np.array([row[name] for row in self.rows], dtype=float)

    def __len__(self) -> int:
        return len(self.rows)

    # ---- serialization ----------------------------------------------------

    def to_text(self) -> str:
        lines = [_LEDGER_HEADER, "\t".join(LEDGER_COLUMNS)]
        for row in self.rows:
            cells = []
            for c in LEDGER_COLUMNS:
                v = row[c]
                cells.append(repr(int(v)) if c == "fp_iters" else repr(float(v)))
            lines.append("\t".join(cells))
        return "\n".join(lines) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_text())

    @classmethod
    def from_text(cls, text: str) -> "EnergyLedger":
        lines = text.strip("\n").split("\n")
        if not lines or lines[0] != _LEDGER_HEADER:
            raise ValueError("not an energy ledger (bad header line)")
        if len(lines) < 2:
            raise ValueError("energy ledger has no column line")
        cols = tuple(lines[1].split("\t"))
        if cols != LEDGER_COLUMNS:
            raise ValueError(f"ledger column mismatch: {cols}")
        out = cls()
        for line in lines[2:]:
            parts = line.split("\t")
            if len(parts) != len(LEDGER_COLUMNS):
                raise ValueError(f"malformed ledger row: {line!r}")
            row = {c: (int(p) if c == "fp_iters" else float(p))
                   for c, p in zip(LEDGER_COLUMNS, parts)}
            out.rows.append(row)
        return out

    @classmethod
    def read(cls, path: str) -> "EnergyLedger":
        with open(path) as fh:
            return cls.from_text(fh.read())


# --------------------------------------------------------------------------
# inequality verdicts
# --------------------------------------------------------------------------

ENERGY_TOL = 1.0e-6     # relative slack of energy_lhs <= B2
DECAY_TOL = 1.0e-3      # relative slack of the exponential decay bound


def energy_inequality_check(ledger: EnergyLedger) -> Tuple[bool, float]:
    """Row-wise ``energy_lhs <= B2`` with relative slack ``ENERGY_TOL``;
    returns the worst signed violation ``max (lhs - B2) / scale`` (negative
    means satisfied).

    The scale has an absolute floor so the degenerate zero-data case (B2
    identically 0, left side pure roundoff) is judged at roundoff level.
    """
    lhs = ledger.column("energy_lhs")
    b2 = ledger.column("B2")
    rel = (lhs - b2) / np.maximum(b2, 1.0e-9)
    worst = float(rel.max()) if rel.size else -math.inf
    return worst <= ENERGY_TOL, worst


@dataclass
class DecayVerdict:
    final_energy: float
    bound_at_final_time: float
    gamma0: float
    fitted_rate: float
    satisfied: bool
    predicted_rate: float


def decay_verdict(times: Sequence[float], energies: Sequence[float],
                  initial_budget: float, rate: float, predicted_rate: float) -> DecayVerdict:
    """Check ``E(T) <= exp(-rate T) * initial_budget * (1 + DECAY_TOL)`` and fit
    the observed exponential rate of ``E`` for reporting.

    ``initial_budget`` is the data-only majorant of ``E(0)`` (kinetic plus
    twice the weighted entropy of the raw density).  ``predicted_rate``, the
    scheme's late decay rate of the entropy, is only reported.
    """
    t = np.asarray(times, dtype=float)
    e = np.asarray(energies, dtype=float)
    if t.size < 2 or t.size != e.size:
        raise ValueError("need matching time/energy series of length >= 2")
    bound = math.exp(-rate * float(t[-1])) * initial_budget * (1.0 + DECAY_TOL)
    positive = e > 0.0
    if positive.sum() >= 2:
        fitted = -float(np.polyfit(t[positive], np.log(e[positive]), 1)[0])
    else:
        fitted = math.inf
    return DecayVerdict(float(e[-1]), bound, rate, fitted, float(e[-1]) <= bound, predicted_rate)

