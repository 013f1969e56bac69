"""Discrete-in-time coupled update for the flow/configuration-density system.

One macro time step advances the pair ``(u, psi)`` implicitly:

* momentum: implicit Euler with antisymmetrized convection frozen at the
  previous velocity, viscous term and pressure implicit, and the polymer
  stress assembled as the exact adjoint of the configuration-space drag
  form evaluated on the fixed-point candidate density;
* configuration density: implicit Euler with upwind spatial transport by
  the *previous* velocity, spatial (centre-of-mass) diffusion, weighted
  configuration diffusion, and drag driven by the gradient of the *new*
  velocity, with the drag coefficient truncated through the two-sided
  cutoff and lagged to the previous fixed-point iterate.  The configuration
  diffusion carries ``A_11 / (2 lam) = 1 / (2 lam)``, the dumbbell's Rouse
  matrix being ``A = [1]``.

Every scheme parameter (``dt``, ``nu``, ``k``, ``lam``, ``eps``, the cutoff
and the fixed-point controls) lives on ``StepParams``; the node weights and
eigenbasis live on ``ConfigOperators``.

The two solves are alternated to a fixed point; each inner solve is linear.
The configuration solve exploits the Kronecker structure

    K_x (x) M_q + M_x (x) S_q

in the eigenbasis of the mass-weighted configuration stiffness, which
``ConfigOperators`` carries (computed once per grid): the monolithic system
splits into one small banded x-solve per configuration eigenmode, which
keeps million-unknown steps exact (direct solves) without ever forming the
full operator.  The band of ``K_x`` is written straight from the face
velocities into LAPACK's Fortran band storage, and each solve runs one
direct ``dgbsv`` per mode on a shifted copy of it, in place on a contiguous
row of mode coefficients; no LU factor is kept past its mode, so the
working memory is one band.  The initial-density smoothing step solves in
the same basis.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgbsv

from . import diagnostics as dg
from .kinetic import CutoffParams, secant_cutoff_coefficient
from .configspace import ConfigOperators, grid_metadata_json
from .flowspace import FlowGrid, convection_matrix, stokes_solver

__all__ = [
    "StepParams",
    "SystemState",
    "FixedPointReport",
    "SmoothingReport",
    "CoupledStepper",
    "smooth_initial_density",
    "dt_schedule",
    "ScheduleError",
    "ConstructionError",
    "save_checkpoint",
    "load_checkpoint",
]


class ScheduleError(ValueError):
    """Raised when the cutoff-coupled time-step rule cannot be satisfied."""


class ConstructionError(RuntimeError):
    """Raised when a smoothed initial datum violates its guarantees."""


@dataclass(frozen=True)
class StepParams:
    """Physical and numerical parameters of one run.

    dt: macro time step.
    nu: kinematic viscosity.
    k: polymer stress scale (also weights the entropy in the free energy).
    lam: relaxation time of the chain.
    eps: centre-of-mass diffusion coefficient.
    cutoff: two-sided truncation levels (delta, L) for the drag coefficient.
    fp_tol: relative increment at which the inner fixed point is accepted.
    fp_max_iter: hard cap on inner iterations.
    """

    dt: float
    nu: float
    k: float
    lam: float
    eps: float
    cutoff: CutoffParams
    fp_tol: float = 1.0e-12
    fp_max_iter: int = 80

    def __post_init__(self):
        for name in ("dt", "nu", "lam", "eps"):
            val = getattr(self, name)
            if not (val > 0.0) or not math.isfinite(val):
                raise ValueError(f"{name} must be positive and finite, got {val}")
        if self.k < 0.0:
            raise ValueError(f"stress scale k must be nonnegative, got {self.k}")


@dataclass
class SystemState:
    """Velocity (packed face vector), density (cells x config nodes), clock."""

    u: np.ndarray
    psi: np.ndarray
    t: float
    n: int

    def copy(self) -> "SystemState":
        return SystemState(self.u.copy(), self.psi.copy(), self.t, self.n)


@dataclass
class FixedPointReport:
    iterations: int
    converged: bool
    final_du: float = math.inf
    final_dpsi: float = math.inf
    increments: List[float] = field(default_factory=list)


@dataclass
class SmoothingReport:
    entropy_before: float
    entropy_after: float
    fisher_budget: float          # 4*dt*(fisher_x + fisher_q) of the output
    min_value: float
    mass_drift: float


# --------------------------------------------------------------------------
# x-space operators for the density transport
# --------------------------------------------------------------------------


def _transport_band(grid: FlowGrid, u: np.ndarray, diffusion: float,
                    mass: float) -> np.ndarray:
    """``K_x = mass I + diffusion S_cell + Adv(u)`` in ``dgbsv`` band storage.

    ``S_cell = h^2 D D^T`` is the 5-point cell stiffness with no-flux walls
    (rows sum to 0) and ``Adv(u)`` the donor-cell upwinding, scaled so the
    weak transport term is ``phi . (Adv psi)``.  Cell ``(i, j)`` is number
    ``i N + j``, so ``kl = ku = N``: entry ``(r, c)`` sits in row
    ``2N + r - c`` of the Fortran-ordered ``(3N + 1, N^2)`` array, whose
    first ``N`` rows stay zero for LAPACK's pivoting fill-in.

    Each face flux ``h U`` lives in its donor's column, ``+`` on the
    diagonal and ``-`` in the receiver's row, so columns sum to zero (to
    rounding) and total mass is conserved; rows applied to constants give
    ``h^2`` times the discrete divergence, so uniform densities are
    transported exactly by projected velocities.
    """
    N, h = grid.N, grid.h
    flux_x = h * u[: grid.n_u].reshape(N - 1, N)   # cell (i, j) -> (i+1, j)
    flux_y = h * u[grid.n_u :].reshape(N, N - 1)   # cell (i, j) -> (i, j+1)
    # the donor is the lower cell of a positive flux, the upper one otherwise
    up_x, down_x = np.where(flux_x > 0.0, flux_x, 0.0), np.where(flux_x > 0.0, 0.0, -flux_x)
    up_y, down_y = np.where(flux_y > 0.0, flux_y, 0.0), np.where(flux_y > 0.0, 0.0, -flux_y)
    outflow = np.zeros((N, N))
    outflow[:-1] += up_x
    outflow[1:] += down_x
    outflow[:, :-1] += up_y
    outflow[:, 1:] += down_y
    neighbours = np.full((N, N), 4.0)
    neighbours[[0, -1], :] -= 1.0
    neighbours[:, [0, -1]] -= 1.0

    ab = np.zeros((3 * N + 1, grid.n_c), order="F")
    column = ab.T.reshape(N, N, 3 * N + 1)   # column[i, j]: band column of cell (i, j)
    diag = 2 * N
    column[:, :, diag] = (mass + diffusion * neighbours) + outflow
    column[:-1, :, diag + N] = -diffusion - up_x
    column[1:, :, diag - N] = -diffusion - down_x
    column[:, :-1, diag + 1] = -diffusion - up_y
    column[:, 1:, diag - 1] = -diffusion - down_y
    return ab


# --------------------------------------------------------------------------
# Kronecker solve in the configuration eigenbasis
# --------------------------------------------------------------------------


def _kron_solve(ab: np.ndarray, shift_scale: float, ops: ConfigOperators,
                rhs_nodal: np.ndarray) -> np.ndarray:
    """Solve ``Kx Psi M_q + shift_scale * Psi S_q = R`` for nodal ``Psi``,
    ``ab`` being the band of ``Kx`` from :func:`_transport_band`.

    Mode ``j`` is the banded system ``(Kx + shift_scale * evals[j] I) phi_j =
    r_j``.  Each mode copies the band into one work array, shifts the
    diagonal row and factors and solves in place with ``dgbsv`` (the routine
    ``scipy.linalg.solve_banded`` wraps, so results are bitwise those of
    that call).  The mode coefficients are held mode-major, so each
    right-hand side is a contiguous row that LAPACK overwrites with its
    solution.  No LU factor outlives its mode.
    """
    kl = ku = (ab.shape[0] - 1) // 3
    work = np.empty_like(ab)
    diagonal = work[kl + ku]
    modes = np.ascontiguousarray(ops.to_modes(rhs_nodal).T)
    for jmode, shift in enumerate(shift_scale * ops.evals):
        np.copyto(work, ab)
        diagonal += shift
        info = dgbsv(kl, ku, work, modes[jmode], overwrite_ab=1, overwrite_b=1)[3]
        if info != 0:
            raise LinAlgError(f"configuration mode {jmode}: dgbsv returned info={info} "
                              f"({'singular matrix' if info > 0 else 'illegal argument'})")
    return ops.to_nodes(modes.T)


# --------------------------------------------------------------------------
# the coupled stepper
# --------------------------------------------------------------------------


class CoupledStepper:
    """Advances ``(u, psi)`` one implicit step at a time on fixed grids."""

    def __init__(self, flow: FlowGrid, ops: ConfigOperators, params: StepParams):
        self.flow = flow
        self.ops = ops
        self.params = params
        # coefficient of the configuration diffusion, A_11 / (2 lam) with the
        # dumbbell Rouse matrix A = [1]
        self._cq = 1.0 / (2.0 * params.lam)

    # ---- norms ------------------------------------------------------------

    def psi_norm(self, psi: np.ndarray) -> float:
        """Weighted L2 norm over cells x configuration nodes."""
        h2 = self.flow.h * self.flow.h
        return math.sqrt(h2 * float(((psi * psi) @ self.ops.grid.w).sum()))

    # ---- momentum ---------------------------------------------------------

    def _momentum_solver(self, u_prev: np.ndarray):
        """Factored momentum solve ``r -> u`` for convection frozen at ``u_prev``."""
        fg = self.flow
        n = fg.n_u + fg.n_v
        A = (fg.h * fg.h) * ((1.0 / self.params.dt) * sp.identity(n, format="csr")
                             + self.params.nu * fg.K
                             + convection_matrix(fg, u_prev))
        return stokes_solver(fg, A)

    def _stress_force(self, C_hat: np.ndarray) -> np.ndarray:
        """Weak polymer force ``w -> -k sum_cells h^2 C_hat : grad w``."""
        fg = self.flow
        h2 = fg.h * fg.h
        Txx, Txy, Tyx, Tyy = fg.T
        out = Txx.T @ C_hat[:, 0, 0] + Txy.T @ C_hat[:, 0, 1] \
            + Tyx.T @ C_hat[:, 1, 0] + Tyy.T @ C_hat[:, 1, 1]
        return -self.params.k * h2 * out

    def _momentum_solve(self, solve, u_prev: np.ndarray, psi_candidate: np.ndarray,
                        f: Optional[np.ndarray]) -> np.ndarray:
        fg = self.flow
        h2 = fg.h * fg.h
        rhs = h2 * (u_prev / self.params.dt)
        if f is not None:
            rhs = rhs + h2 * f
        rhs = rhs + self._stress_force(self.ops.stress_matrix(psi_candidate))
        out = solve(rhs)
        if not np.isfinite(out).all():
            raise FloatingPointError("momentum solve produced non-finite values")
        return out

    def momentum_step(self, u_prev: np.ndarray, psi_candidate: np.ndarray,
                      f: Optional[np.ndarray] = None) -> np.ndarray:
        """One implicit momentum solve against a frozen candidate density.

        Satisfies the discrete kinetic-energy identity exactly (to direct-
        solver residual): testing with the new velocity kills convection
        (skew) and pressure (adjoint gradient on a divergence-free field).
        """
        u_prev = np.asarray(u_prev, dtype=float)
        return self._momentum_solve(self._momentum_solver(u_prev), u_prev, psi_candidate, f)

    # ---- configuration density --------------------------------------------

    def _drag_rhs(self, u_candidate: np.ndarray, coeff_field: np.ndarray) -> np.ndarray:
        """Edge-based drag source, one row per cell.

        The per-edge coefficient is the divided difference of the density
        through the regularized entropy derivative, so that testing the
        result with that derivative telescopes to the plain density jump —
        the discrete chain rule behind the exact drag/stress cancellation.
        """
        g = self.ops.grid
        cutoff = self.params.cutoff
        c = secant_cutoff_coefficient(coeff_field, g.edges_a, g.edges_b, cutoff.L, cutoff.delta)
        return self.ops.drag_rhs(self.flow.cell_velocity_gradient(u_candidate), c)

    def fokker_planck_step(self, psi_prev: np.ndarray, u_candidate: np.ndarray,
                           u_transport: np.ndarray,
                           coeff_field: Optional[np.ndarray] = None) -> np.ndarray:
        """One implicit density solve.

        Transport (upwind) uses ``u_transport`` (previous macro step);
        drag uses the gradient of ``u_candidate`` (current candidate) with
        the truncated coefficient evaluated on ``coeff_field`` (previous
        fixed-point iterate; defaults to ``psi_prev``).
        """
        if coeff_field is None:
            coeff_field = psi_prev
        fg = self.flow
        h2 = fg.h * fg.h
        band = _transport_band(fg, np.asarray(u_transport, dtype=float),
                               self.params.eps, h2 / self.params.dt)
        rhs = (h2 / self.params.dt) * psi_prev * self.ops.grid.w[None, :]
        rhs = rhs + h2 * self._drag_rhs(np.asarray(u_candidate, dtype=float), coeff_field)
        out = _kron_solve(band, self._cq * h2, self.ops, rhs)
        if not np.isfinite(out).all():
            raise FloatingPointError("density solve produced non-finite values")
        return out

    # ---- the coupled fixed point -------------------------------------------

    def coupled_step(self, state: SystemState, f: Optional[np.ndarray] = None
                     ) -> Tuple[SystemState, FixedPointReport]:
        """Alternate momentum and density solves to a joint fixed point.

        Both inner solves are linear: the nonlinearities (stress, drag
        coefficient) are evaluated on the previous iterate. At equilibrium
        data the first sweep reproduces the state exactly and the loop
        reports convergence after one iteration with zero increments.
        """
        p = self.params
        solve = self._momentum_solver(state.u)
        u_it = state.u
        psi_it = state.psi
        floor = max(math.sqrt(self.flow.norm_sq(state.u)
                              + self.psi_norm(state.psi) ** 2), 1.0e-12)
        report = FixedPointReport(iterations=0, converged=False)
        for _ in range(p.fp_max_iter):
            u_star = self._momentum_solve(solve, state.u, psi_it, f)
            psi_star = self.fokker_planck_step(state.psi, u_star, state.u, coeff_field=psi_it)
            # both increments are measured against the joint state scale:
            # a component that has relaxed to rounding level around zero must
            # not be judged relative to itself (the ratio of two noise vectors
            # does not contract)
            scale = max(math.sqrt(self.flow.norm_sq(u_star)
                                  + self.psi_norm(psi_star) ** 2), floor)
            du = math.sqrt(self.flow.norm_sq(u_star - u_it)) / scale
            dpsi = self.psi_norm(psi_star - psi_it) / scale
            u_it, psi_it = u_star, psi_star
            report.iterations += 1
            report.increments.append(max(du, dpsi))
            report.final_du, report.final_dpsi = du, dpsi
            if max(du, dpsi) <= p.fp_tol:
                report.converged = True
                break
        if not report.converged:
            raise RuntimeError(
                f"coupled fixed point stalled after {report.iterations} iterations "
                f"(last increment {report.increments[-1]:.3e})")
        return SystemState(u_it, psi_it, state.t + p.dt, state.n + 1), report


# --------------------------------------------------------------------------
# initial-data smoothing
# --------------------------------------------------------------------------


def smooth_initial_density(flow: FlowGrid, ops: ConfigOperators, psi0: np.ndarray,
                           dt: float, clip_level: float,
                           slack: float = 1.0e-8) -> Tuple[np.ndarray, SmoothingReport]:
    """Clip the raw density at ``clip_level`` and take one implicit
    unit-coefficient heat step in both variables.

    Guarantees, each checked and fatal on failure:
      * nonnegativity (the implicit operator is an M-matrix);
      * the weighted entropy does not increase;
      * the dissipation budget ``4 dt (fisher_x + fisher_q)`` of the output
        is bounded by the entropy of the input.
    """
    if dt <= 0.0:
        raise ValueError(f"smoothing step needs dt > 0, got {dt}")
    if clip_level <= 1.0:
        raise ValueError(f"clip level must exceed 1, got {clip_level}")
    psi0 = np.asarray(psi0, dtype=float)
    if psi0.min() < 0.0:
        raise ValueError("raw initial density must be nonnegative")
    zeta0 = np.minimum(psi0, clip_level)

    h2 = flow.h * flow.h
    band = _transport_band(flow, np.zeros(flow.n_u + flow.n_v), 1.0, h2 / dt)
    m = ops.grid.w
    zeta1 = _kron_solve(band, h2, ops, (h2 / dt) * zeta0 * m[None, :])

    # checked before the entropy and Fisher terms, which reject densities
    # below -slack themselves
    min_val = float(zeta1.min())
    if min_val < -slack:
        raise ConstructionError(f"smoothed density dips to {min_val:.3e}")
    g = ops.grid
    ent0 = dg.relative_entropy(flow, g, psi0)
    ent1 = dg.relative_entropy(flow, g, zeta1, neg_tol=slack)
    fisher_budget = dt * (dg.fisher_x(flow, g, zeta1, neg_tol=slack)
                          + dg.fisher_q(flow, g, zeta1, neg_tol=slack))
    mass_drift = abs(h2 * float((zeta1 @ m).sum()) - h2 * float((zeta0 @ m).sum()))
    scale = max(abs(ent0), 1.0)
    if ent1 > ent0 + slack * scale:
        raise ConstructionError(
            f"smoothing raised the entropy: {ent1:.6e} > {ent0:.6e}")
    if fisher_budget > ent0 + slack * scale:
        raise ConstructionError(
            f"dissipation budget {fisher_budget:.6e} exceeds entropy {ent0:.6e}")
    return zeta1, SmoothingReport(ent0, ent1, fisher_budget, min_val, mass_drift)


# --------------------------------------------------------------------------
# time-step schedule and checkpoints
# --------------------------------------------------------------------------


def dt_schedule(L: float, C0: float, horizon: float,
                floor: float = 1.0e-8) -> Tuple[float, int]:
    """Largest admissible step ``dt <= C0 / (L log L)`` dividing the horizon.

    Returns ``(dt, n_steps)`` with ``n_steps * dt == horizon`` exactly.
    Requires ``L > e`` so the rule is monotone (larger cutoff, smaller step).
    """
    if L <= math.e:
        raise ScheduleError(f"the step rule needs L > e (so log L > 1), got L={L}")
    if C0 <= 0.0 or horizon <= 0.0:
        raise ScheduleError("C0 and the horizon must be positive")
    dt_max = C0 / (L * math.log(L))
    n_min = horizon / dt_max if dt_max > 0.0 else math.inf
    if not math.isfinite(n_min):
        raise ScheduleError(
            f"the step rule C0/(L log L) = {dt_max:.3e} gives no finite step count "
            f"for the horizon {horizon}")
    n = max(1, math.ceil(n_min - 1.0e-12))
    dt = horizon / n
    if dt < floor:
        raise ScheduleError(
            f"schedule for L={L} needs dt={dt:.3e} below the floor {floor:.1e}")
    return dt, n


_CHECKPOINT_KIND = "fene-coupled-state"
_CHECKPOINT_VERSION = 1


def save_checkpoint(path: str, state: SystemState, params: StepParams,
                    flow: FlowGrid, ops: ConfigOperators) -> None:
    """Bit-exact state snapshot plus enough metadata to refuse a mismatched
    grid on reload."""
    meta = {
        "kind": _CHECKPOINT_KIND,
        "version": _CHECKPOINT_VERSION,
        "t": state.t,
        "n": state.n,
        "flow": {"N": flow.N, "side": flow.side},
        "config": json.loads(grid_metadata_json(ops.grid)),
        "params": {
            "dt": params.dt, "nu": params.nu, "k": params.k,
            "lam": params.lam, "eps": params.eps,
            "L": params.cutoff.L, "delta": params.cutoff.delta,
            "fp_tol": params.fp_tol, "fp_max_iter": params.fp_max_iter,
        },
    }
    np.savez(path, u=state.u, psi=state.psi,
             meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))


def load_checkpoint(path: str, flow: Optional[FlowGrid] = None,
                    ops: Optional[ConfigOperators] = None
                    ) -> Tuple[SystemState, dict]:
    """Restore a snapshot; verifies grid shapes when grids are supplied.

    A file whose arrays or ``meta`` fields are missing or malformed raises
    ``ValueError("... is not a coupled-state checkpoint")``."""
    with np.load(path) as data:
        try:
            meta = json.loads(bytes(data["meta"]).decode())
            state = SystemState(u=data["u"].copy(), psi=data["psi"].copy(),
                                t=float(meta["t"]), n=int(meta["n"]))
            flow_N, flow_side, config = meta["flow"]["N"], meta["flow"]["side"], meta["config"]
            foreign = meta["kind"] != _CHECKPOINT_KIND
        except (KeyError, TypeError, ValueError, OverflowError):
            foreign = True
    if foreign:
        raise ValueError(f"{path} is not a coupled-state checkpoint")
    if flow is not None and (flow_N != flow.N or flow_side != flow.side):
        raise ValueError("checkpoint flow grid does not match the current grid")
    if ops is not None and json.loads(grid_metadata_json(ops.grid)) != config:
        raise ValueError("checkpoint configuration grid does not match")
    return state, meta
