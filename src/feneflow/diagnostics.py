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
from .kinetic import entropy_F

__all__ = [
    "LEDGER_COLUMNS",
    "EnergyLedger",
    "relative_entropy",
    "fisher_x",
    "fisher_q",
    "free_energy",
    "decay_energy",
    "gamma0",
    "energy_inequality_check",
    "LsiResult",
    "lsi_check",
    "CKResult",
    "csiszar_kullback_check",
    "DecayVerdict",
    "decay_verdict",
    "momentum_energy_residual",
]


# --------------------------------------------------------------------------
# pointwise functionals
# --------------------------------------------------------------------------


def _clamped(psi: np.ndarray, tol: float) -> np.ndarray:
    lo = float(psi.min())
    if lo < -tol:
        raise ValueError(f"density has negative values down to {lo:.3e}")
    return np.maximum(psi, 0.0)


def relative_entropy(flow: FlowGrid, grid: ConfigGrid, psi: np.ndarray,
                     neg_tol: float = 1.0e-10) -> float:
    """``int int M F(psi)``; requires ``psi >= -neg_tol`` (clamps the rest)."""
    vals = entropy_F(_clamped(np.asarray(psi), neg_tol))[0]
    return flow.h * flow.h * float((vals @ grid.w).sum())


def fisher_x(flow: FlowGrid, grid: ConfigGrid, psi: np.ndarray,
             neg_tol: float = 1.0e-10) -> float:
    """x-direction Fisher information, edge form: 4 sum (d sqrt(psi))^2 w_q."""
    root = np.sqrt(_clamped(np.asarray(psi), neg_tol))
    cube = root.reshape(flow.N, flow.N, grid.n_nodes)
    acc = (np.diff(cube, axis=0) ** 2).sum(axis=(0, 1)) \
        + (np.diff(cube, axis=1) ** 2).sum(axis=(0, 1))
    return 4.0 * float(acc @ grid.w)


def fisher_q(flow: FlowGrid, grid: ConfigGrid, psi: np.ndarray,
             neg_tol: float = 1.0e-10) -> float:
    """configuration Fisher information: 4 h^2 sum_cells W_e (d sqrt(psi))^2."""
    root = np.sqrt(_clamped(np.asarray(psi), neg_tol))
    d = root[:, grid.edges_b] - root[:, grid.edges_a]
    return 4.0 * flow.h * flow.h * float(((d * d) @ grid.edge_w).sum())


def free_energy(flow: FlowGrid, grid: ConfigGrid, u: np.ndarray,
                psi: np.ndarray, k: float) -> float:
    return 0.5 * flow.norm_sq(u) + k * relative_entropy(flow, grid, psi)


def decay_energy(flow: FlowGrid, grid: ConfigGrid, u: np.ndarray,
                 psi: np.ndarray, k: float) -> float:
    """``|u|^2 + (k/|Omega|) |psi - 1|_{L1 of M}^2`` — the decaying quantity."""
    l1 = flow.h * flow.h * float((np.abs(np.asarray(psi) - 1.0) @ grid.w).sum())
    area = flow.side * flow.side
    return flow.norm_sq(u) + (k / area) * l1 * l1


def gamma0(nu: float, poincare: float, kappa: float, a0: float, lam: float) -> float:
    """Exponential rate ``min(nu / C_P^2, kappa a0 / (2 lam))``."""
    return min(nu / (poincare * poincare), kappa * a0 / (2.0 * lam))


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


def energy_inequality_check(ledger: EnergyLedger, tol: float = 1.0e-6
                            ) -> Tuple[bool, float]:
    """Row-wise ``energy_lhs <= B2`` with relative slack; returns the worst
    signed violation ``max (lhs - B2) / scale`` (negative means satisfied).

    The scale has an absolute floor so the degenerate zero-data case (B2
    identically 0, left side pure roundoff) is judged at roundoff level.
    """
    lhs = ledger.column("energy_lhs")
    b2 = ledger.column("B2")
    rel = (lhs - b2) / np.maximum(b2, 1.0e-9)
    worst = float(rel.max()) if rel.size else -math.inf
    return worst <= tol, worst


@dataclass
class LsiResult:
    entropy_term: float
    fisher_term: float
    satisfied: bool


def lsi_check(grid: ConfigGrid, psi_row: np.ndarray, kappa: float,
              tol: float = 1.0e-9) -> LsiResult:
    """Log-Sobolev comparison for a single spatial point:
    ``sum w psi log(psi / rho) <= (2 / kappa) sum W_e (d sqrt(psi))^2``
    with ``rho`` the local mass."""
    psi_row = np.maximum(np.asarray(psi_row, dtype=float), 0.0)
    rho = float(psi_row @ grid.w)
    if rho <= 0.0:
        raise ValueError("log-Sobolev check needs positive local mass")
    with np.errstate(divide="ignore", invalid="ignore"):
        x = psi_row / rho
        terms = np.where(psi_row > 0.0, psi_row * np.log(np.where(x > 0, x, 1.0)), 0.0)
    ent = float(terms @ grid.w)
    root = np.sqrt(psi_row)
    d = root[grid.edges_b] - root[grid.edges_a]
    fisher = float((d * d) @ grid.edge_w)
    rhs = (2.0 / kappa) * fisher
    scale = max(abs(rhs), 1.0)
    return LsiResult(ent, rhs, ent <= rhs + tol * scale)


@dataclass
class CKResult:
    worst_pointwise_margin: float   # min over cells of sqrt(2 F_cell) - |psi-1|_L1(q)
    integrated_margin: float        # 2 |Omega| Ent - |psi-1|_{L1}^2
    satisfied: bool


def csiszar_kullback_check(flow: FlowGrid, grid: ConfigGrid, psi: np.ndarray,
                           mass_tol: float = 1.0e-8) -> CKResult:
    """Distance-to-equilibrium comparison, pointwise in x and integrated.

    Precondition: unit local mass, ``|rho(x) - 1| <= mass_tol`` for every
    cell (the comparison against the constant state requires matched mass).
    """
    psi = np.asarray(psi, dtype=float)
    rho = psi @ grid.w
    drift = float(np.abs(rho - 1.0).max())
    if drift > mass_tol:
        raise ValueError(f"local mass deviates from 1 by {drift:.3e} "
                         f"(tolerance {mass_tol:.1e})")
    F_cell = entropy_F(np.maximum(psi, 0.0))[0] @ grid.w
    l1_cell = np.abs(psi - 1.0) @ grid.w
    point_margin = float((np.sqrt(2.0 * np.maximum(F_cell, 0.0)) - l1_cell).min())
    h2 = flow.h * flow.h
    ent = h2 * float(F_cell.sum())
    l1_tot = h2 * float(l1_cell.sum())
    area = flow.side * flow.side
    integrated_margin = 2.0 * area * ent - l1_tot * l1_tot
    ok = point_margin >= -1.0e-12 and integrated_margin >= -1.0e-12
    return CKResult(point_margin, integrated_margin, ok)


@dataclass
class DecayVerdict:
    final_energy: float
    bound_at_final_time: float
    gamma0: float
    fitted_rate: float
    satisfied: bool


def decay_verdict(times: Sequence[float], energies: Sequence[float],
                  initial_budget: float, rate: float,
                  tol: float = 1.0e-3) -> DecayVerdict:
    """Check ``E(T) <= exp(-rate T) * initial_budget * (1 + tol)`` and fit
    the observed exponential rate of ``E`` for reporting.

    ``initial_budget`` is the data-only majorant of ``E(0)`` (kinetic plus
    twice the weighted entropy of the raw density).
    """
    t = np.asarray(times, dtype=float)
    e = np.asarray(energies, dtype=float)
    if t.size < 2 or t.size != e.size:
        raise ValueError("need matching time/energy series of length >= 2")
    bound = math.exp(-rate * float(t[-1])) * initial_budget * (1.0 + tol)
    positive = e > 0.0
    if positive.sum() >= 2:
        fitted = -float(np.polyfit(t[positive], np.log(e[positive]), 1)[0])
    else:
        fitted = math.inf
    return DecayVerdict(float(e[-1]), bound, rate, fitted, float(e[-1]) <= bound)


def momentum_energy_residual(flow: FlowGrid, u_prev: np.ndarray, u_new: np.ndarray,
                             stress_pairing: float, dt: float, nu: float,
                             k: float, f_work: float = 0.0) -> float:
    """Absolute defect of the discrete kinetic-energy identity

        |u_n|^2 + |u_n - u_prev|^2 + 2 dt nu |grad u_n|^2
            = |u_prev|^2 - 2 dt k (C_hat : grad u_n) + 2 dt (f, u_n).

    ``stress_pairing`` is ``h^2 sum_cells C_hat : grad u_n``.
    """
    lhs = flow.norm_sq(u_new) + flow.norm_sq(u_new - u_prev) \
        + 2.0 * dt * nu * flow.grad_norm_sq(u_new)
    rhs = flow.norm_sq(u_prev) - 2.0 * dt * k * stress_pairing + 2.0 * dt * f_work
    return abs(lhs - rhs)
