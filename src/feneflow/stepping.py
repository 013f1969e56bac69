"""Discrete-in-time coupled update for the flow/configuration-density system.

One macro time step advances the pair ``(u, psi)`` implicitly:

* momentum: implicit Euler with antisymmetrized convection frozen at the
  previous velocity and the viscous term implicit, solved for the stream
  function of a divergence-free velocity, and the polymer stress assembled
  as the exact adjoint of the configuration-space drag form evaluated on
  the fixed-point candidate density;
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
A step builds its momentum map ``psi -> u`` and its ``K_x`` once; a sweep
``psi_it -> (u*, psi*)`` is the momentum map at ``psi_it``, then the density
solve driven by ``u*``, and one driver alone owns the increment norms, the
stop test, the ``FixedPointReport`` and the stall error.
The configuration solve exploits the Kronecker structure

    K_x (x) M_q + M_x (x) S_q

in the eigenbasis of the mass-weighted configuration stiffness, which
``ConfigOperators`` carries in separable form (a real Fourier basis in the
angle times one radial eigenbasis per angular wavenumber, computed once per
grid): the monolithic system splits into one x-system per configuration
eigenmode, and neither the full operator nor the dense configuration
stiffness is ever formed.

The density solve's run constants live on one ``_DensitySystem`` per
stepper, a step builds only the transport pair ``(K_x, -Adv)`` of
``_transport_csr``, and ``_DensitySystem.solve`` (all modes at once, its
stop rule) and ``_kron_solve`` (its direct fallback) say how it is solved.

The drag reads the velocity gradient ``FlowGrid.grad @ u`` per cell, and
the stress force is one product with its transpose: exact adjoints.  The
stress is a function of the iterate's edge differences alone, and a sweep
forms them once, for the stress and the drag's secant coefficient both.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass, field
from numbers import Integral
from typing import Callable, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError

from . import diagnostics as dg
from .kinetic import ConstructionError, CutoffParams, secant_cutoff_coefficient
from .configspace import ConfigOperators, grid_metadata
from .flowspace import (FlowGrid, band_storage, banded_solver, convection_matrix, five_point_csr,
                        stokes_solver)

__all__ = [
    "StepParams",
    "SystemState",
    "FixedPointReport",
    "SmoothingReport",
    "CoupledStepper",
    "smooth_initial_density",
    "save_checkpoint",
    "load_checkpoint",
]


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
        if not (self.k >= 0.0) or not math.isfinite(self.k):
            raise ValueError(f"stress scale k must be nonnegative and finite, got {self.k}")
        if not (self.fp_tol > 0.0) or not math.isfinite(self.fp_tol):
            raise ValueError(f"fp_tol must be positive and finite, got {self.fp_tol}")
        if (isinstance(self.fp_max_iter, bool) or not isinstance(self.fp_max_iter, Integral)
                or self.fp_max_iter < 1):
            raise ValueError(f"fp_max_iter must be an integer >= 1, got {self.fp_max_iter!r}")


@dataclass
class SystemState:
    """Velocity (packed face vector), density (cells x config nodes, which a
    run stores node-major), clock."""

    u: np.ndarray
    psi: np.ndarray
    t: float
    n: int


@dataclass
class FixedPointReport:
    """One converged step's fixed point (a stalled one raises instead): per
    sweep ``increments``, ``max(du, dpsi)``, the last at most ``fp_tol``;
    the last sweep's ``final_du`` and ``final_dpsi``; all relative to the
    joint state scale.  ``iterations`` is the sweep count."""

    final_du: float = math.inf
    final_dpsi: float = math.inf
    increments: List[float] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.increments)


@dataclass
class SmoothingReport:
    entropy_before: float
    entropy_after: float
    fisher_x: float               # of the output, as the ledger columns
    fisher_q: float
    fisher_budget: float          # dt*(fisher_x + fisher_q)
    min_value: float
    mass_drift: float


# --------------------------------------------------------------------------
# x-space operators for the density transport
# --------------------------------------------------------------------------


_Transport = Tuple[sp.csr_matrix, sp.csr_matrix]       # (K_x, -Adv(u))


def _transport_csr(grid: FlowGrid, u: np.ndarray, diffusion: float,
                   mass: float) -> _Transport:
    """The pair ``(K_x, -Adv(u))``: ``K_x = mass I + diffusion S_cell +
    Adv(u)`` as a CSR matrix on the cells ``i N + j``, written from its
    five-point stencil, and its upwind part.

    ``S_cell = h^2 D D^T`` is the 5-point cell stiffness with no-flux walls
    (rows sum to 0) and ``Adv(u)`` the donor-cell upwinding, scaled so the
    weak transport term is ``phi . (Adv psi)``.  Each face flux ``h U``
    lives in its donor's column, ``+`` on the diagonal and ``-`` in the
    receiver's row, so columns sum to zero (to rounding) and total mass is
    conserved; rows applied to constants give ``h^2`` times the discrete
    divergence, so uniform densities are transported exactly by projected
    velocities.

    The stencil is written into five slots per cell, which
    :func:`~feneflow.flowspace.five_point_csr` gathers into the CSR arrays
    (those outside the walls left out), so ``K_x X`` is one pass per
    nonzero.  The same pass gives ``-Adv(u)``, a CSR matrix of its nonzeros
    alone (the diagonal and at most one entry per face), for the density
    solve's residual recurrence.
    """
    N, h = grid.N, grid.h
    flux_x = h * u[: grid.n_u].reshape(N - 1, N)   # cell (i, j) -> (i+1, j)
    flux_y = h * u[grid.n_u :].reshape(N, N - 1)   # cell (i, j) -> (i, j+1)
    # the donor is the lower cell of a positive flux, the upper one otherwise
    up_x, down_x = np.where(flux_x > 0.0, flux_x, 0.0), np.where(flux_x > 0.0, 0.0, -flux_x)
    up_y, down_y = np.where(flux_y > 0.0, flux_y, 0.0), np.where(flux_y > 0.0, 0.0, -flux_y)
    flows = np.zeros((N, N, 5))                    # -Adv(u): inflows, and minus the outflow
    flows[1:, :, 0] = up_x
    flows[:, 1:, 1] = up_y
    flows[:-1, :, 2] -= up_x
    flows[1:, :, 2] -= down_x
    flows[:, :-1, 2] -= up_y
    flows[:, 1:, 2] -= down_y
    flows[:, :-1, 3] = down_y
    flows[:-1, :, 4] = down_x
    neighbours = np.full((N, N), 4.0)
    neighbours[[0, -1], :] -= 1.0
    neighbours[:, [0, -1]] -= 1.0
    slots = np.full((N, N, 5), -diffusion)
    slots[:, :, 2] = mass + diffusion * neighbours
    slots -= flows
    neg_upwind = five_point_csr(flows)
    neg_upwind.eliminate_zeros()
    return five_point_csr(slots), neg_upwind


def _cell_dct(N: int) -> Tuple[np.ndarray, np.ndarray]:
    """Orthonormal DCT-II matrix ``C`` and the eigenvalues ``mu_k = 2 - 2
    cos(pi k / N)`` of the 1-D no-flux stiffness that its rows diagonalize,
    so ``S_cell = (C (x) C)^T diag(mu_a + mu_b) (C (x) C)``."""
    k = np.arange(N)
    C = math.sqrt(2.0 / N) * np.cos((math.pi / N) * np.outer(k, k + 0.5))
    C[0] = 1.0 / math.sqrt(N)
    return C, 2.0 - 2.0 * np.cos((math.pi / N) * k)


def _along_cells(C: np.ndarray, X: np.ndarray, work: np.ndarray) -> None:
    """Overwrite ``X`` (shape ``(n_c, n)``, cells row-major) with ``C``
    applied along both cell axes; ``work`` (same shape) is scratch."""
    N = C.shape[0]
    np.matmul(C, X.reshape(N, -1), out=work.reshape(N, -1))
    np.matmul(C, work.reshape(N, N, -1), out=X.reshape(N, N, -1))


# --------------------------------------------------------------------------
# Kronecker solve in the configuration eigenbasis
# --------------------------------------------------------------------------

_MAX_ITERATIONS = 30
_RESIDUAL_RTOL = 1.0e-14


class _DensitySystem:
    """The density solve ``Kx Psi M_q + shift_scale * Psi S_q = R``, ``Kx``
    being :func:`_transport_csr`'s, with all that does not depend on the
    transport velocity computed once: the mode shifts ``shift_scale *
    evals``, the mass term per node ``mass_w = mass * w``, the stop
    tolerance, and ``P = mass + diffusion S_cell + diag(shifts)``, ``Kx``
    without its upwind part, which is ``mass + diffusion (mu_a + mu_b) +
    shifts[j]`` in DCT-II along both cell axes (fast diagonalization), so
    ``P^{-1}`` costs four small matmuls."""

    def __init__(self, grid: FlowGrid, ops: ConfigOperators, diffusion: float, mass: float,
                 shift_scale: float):
        self.grid, self.ops, self.diffusion, self.mass = grid, ops, diffusion, mass
        self.mass_w = mass * ops.grid.w
        self.shifts = shift_scale * ops.evals
        self.rtol = max(_RESIDUAL_RTOL,
                        4.0 * np.finfo(float).eps * (1.0 + 8.0 * diffusion / mass))
        self._dct, mu = _cell_dct(grid.N)
        inv_p = (mass + diffusion * (mu[:, None] + mu[None, :]))[:, :, None] + self.shifts
        self._inv_p = np.divide(1.0, inv_p, out=inv_p).reshape(grid.n_c, -1)

    def precondition(self, R: np.ndarray, work: np.ndarray) -> np.ndarray:
        """Overwrite mode coefficients ``R`` (shape ``(n_c, n_modes)``) with
        ``P^{-1} R``, using ``work`` (same shape) as scratch, and return it."""
        _along_cells(self._dct, R, work)
        R *= self._inv_p
        _along_cells(self._dct.T, R, work)
        return R

    def solve(self, transport: _Transport, B: np.ndarray, guess_nodal: np.ndarray) -> np.ndarray:
        """Nodal ``Psi`` for the right-hand side whose mode coefficients are
        ``B`` (``ops.to_modes`` of the nodal right-hand side), ``transport``
        being the pair ``(K, -Adv)`` of :func:`_transport_csr` with this
        system's diffusion and mass.

        All modes are iterated at once from the modes of ``guess_nodal``,
        ``X <- X + D`` with ``D = P^{-1} R``.  ``P`` is all of ``K`` and the
        shifts but the upwind part ``Adv``, so a step leaves the residual
        ``R <- -Adv D``: only the first residual ``B - (K X + X
        diag(shifts))`` is formed in full, and every later one is one
        sparse product with ``-Adv``.  ``Adv``'s columns sum to zero, so
        every update conserves mass to rounding.  The iteration stops at a
        max-norm residual of ``max(_RESIDUAL_RTOL, 4 eps_mach (1 + 8
        diffusion / mass)) max|B|``, the second term being its rounding
        floor, and a guess whose first residual meets it is returned as it
        is.  The iteration holds ``B``, ``X``, the preconditioner's scratch
        and at most two residuals, and releases the residual and the
        scratch before ``to_nodes``.  One that has not got there after
        ``_MAX_ITERATIONS`` residuals (strong upwinding, cell CFL >> 1) is
        abandoned for the direct :func:`_kron_solve` of ``B``, which is
        left unchanged for it.
        """
        ops, (K, neg_upwind) = self.ops, transport
        tol = self.rtol * max(B.max(), -B.min())          # max|B|, with no |B| temporary
        X = ops.to_modes(guess_nodal * ops.grid.w[None, :])
        work = np.empty_like(B)
        R = K @ X
        R += np.multiply(X, self.shifts, out=work)
        R = np.subtract(B, R, out=R)
        # max|R| <= tol, with no |R| temporary; R.max() alone fails most tests
        if R.max() <= tol and -R.min() <= tol:
            return guess_nodal
        for _ in range(_MAX_ITERATIONS - 1):
            X += self.precondition(R, work)                 # R holds the step D
            R = neg_upwind @ R
            if R.max() <= tol and -R.min() <= tol:
                del R, work                                 # not held through to_nodes
                return ops.to_nodes(X)
        del X, R, work
        return _kron_solve(K, self.shifts, ops, B)


def _kron_solve(K: sp.csr_matrix, shifts: np.ndarray, ops: ConfigOperators,
                B: np.ndarray) -> np.ndarray:
    """Direct fallback of :meth:`_DensitySystem.solve`: solve ``Kx Psi
    M_q + shift_scale * Psi S_q = R`` for nodal ``Psi`` from the mode
    coefficients ``B = ops.to_modes(R)``, ``K`` being the CSR ``Kx`` from
    :func:`_transport_csr` and ``shifts`` the system's ``shift_scale *
    evals``.

    Mode ``j`` is the banded system ``(Kx + shifts[j] I) phi_j = r_j`` on
    the band that ``flowspace.band_storage`` reads off ``K``.  Each mode
    copies the band into one work array, shifts the diagonal row and
    factors it in place by ``flowspace.banded_solver``, whose LU and solve
    are the two LAPACK steps that ``scipy.linalg.solve_banded`` runs, so
    results are bitwise those of that call.  The mode coefficients are held
    mode-major, so each right-hand side is a contiguous row.  No LU factor
    outlives its mode.
    """
    ab, kl, ku = band_storage(K)
    work = np.empty_like(ab)
    diagonal = work[kl + ku]
    modes = np.ascontiguousarray(B.T)
    for jmode, shift in enumerate(shifts):
        np.copyto(work, ab)
        diagonal += shift
        try:
            solve = banded_solver(work, kl, ku)
        except LinAlgError as err:
            raise LinAlgError(f"configuration mode {jmode}: {err}") from None
        modes[jmode] = solve(modes[jmode])
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
        h2 = flow.h * flow.h
        self._density = _DensitySystem(flow, ops, params.eps, h2 / params.dt, self._cq * h2)
        # the velocity-independent part of the momentum operator
        self._momentum_base = ((1.0 / params.dt) * sp.identity(flow.n_u + flow.n_v, format="csr")
                               + params.nu * flow.K)

    # ---- momentum ---------------------------------------------------------

    def momentum_map(self, u_prev: np.ndarray, f: Optional[np.ndarray] = None
                     ) -> Callable[[np.ndarray], np.ndarray]:
        """One step's implicit momentum solve as a map ``dpsi -> u`` from the
        candidate density's edge differences, the operator with convection
        frozen at ``u_prev`` factored and the data ``u_prev / dt + f`` formed
        once.  The new velocity is ``C s`` for the solved stream function
        ``s``, a test function of the solve that kills convection (skew), so
        it satisfies the discrete kinetic-energy identity to direct-solver
        residual."""
        fg, p = self.flow, self.params
        u_prev = np.asarray(u_prev, dtype=float)
        solve = stokes_solver(fg, self._momentum_base + convection_matrix(fg, u_prev))
        data = u_prev / p.dt
        if f is not None:
            data = data + f

        def momentum(dpsi: np.ndarray) -> np.ndarray:
            # the polymer force F, (w, F) = -k sum_cells h^2 C_hat : grad w in
            # the face inner product: one product with the transpose of the
            # drag's velocity gradient
            C_hat = self.ops.stress_matrix(dpsi)
            out = solve(data - p.k * (fg._grad_t @ C_hat.reshape(-1)))
            if not np.isfinite(out).all():
                raise FloatingPointError("momentum solve produced non-finite values")
            return out

        return momentum

    # ---- configuration density --------------------------------------------

    def density_operator(self, u_transport: np.ndarray) -> _Transport:
        """The density solve's CSR pair ``(K_x, -Adv)`` for transport by ``u_transport``."""
        d = self._density
        return _transport_csr(d.grid, np.asarray(u_transport, dtype=float), d.diffusion, d.mass)

    def fokker_planck_step(self, psi_prev: np.ndarray, u_candidate: np.ndarray,
                           transport: _Transport, coeff_field: np.ndarray,
                           edges: Optional[List[np.ndarray]] = None) -> np.ndarray:
        """One implicit density solve.

        Transport (upwind) is ``transport``, ``density_operator(u)`` of the previous
        macro step's velocity, one for all sweeps of a coupled step; drag
        uses the gradient of ``u_candidate`` (current candidate)
        with the truncated coefficient evaluated on ``coeff_field``
        (previous fixed-point iterate), which also starts the iteration.
        The coefficient is the regularized entropy derivative's divided
        difference, so the drag tested with that derivative telescopes to the
        density jump: the discrete chain rule behind the exact drag/stress
        cancellation.  ``edges``, if given, is a list holding
        ``coeff_field``'s edge differences, which the secant reads rather
        than forms; the step takes them out of it and hands them on.

        Each buffer has one owner and is handed on to the next phase: the
        secant may write the coefficient into the edge differences, the
        drag multiplies ``sigma : Gamma_e`` into the coefficient, and the
        nodal right-hand side is released once its modes exist, so no
        phase's buffer is held through the solve.  ``psi_prev``,
        ``u_candidate`` and ``coeff_field`` are only read.
        """
        c = secant_cutoff_coefficient(coeff_field, self.ops.grid, self.params.cutoff,
                                      edges.pop() if edges else None)
        sigma = self.flow.cell_velocity_gradient(np.asarray(u_candidate, dtype=float))
        sigma *= self.flow.h * self.flow.h
        rhs = self.ops.drag_rhs(sigma, c)
        del c, sigma
        rhs += psi_prev * self._density.mass_w
        B = self.ops.to_modes(rhs)
        del rhs
        out = self._density.solve(transport, B, coeff_field)
        if not np.isfinite(out).all():
            raise FloatingPointError("density solve produced non-finite values")
        return out

    # ---- the coupled fixed point -------------------------------------------

    def coupled_step(self, state: SystemState, f: Optional[np.ndarray] = None
                     ) -> Tuple[SystemState, FixedPointReport]:
        """Alternate momentum and density solves to a joint fixed point.

        Both inner solves are linear: the nonlinearities (stress, drag
        coefficient) are evaluated on the previous iterate. At equilibrium
        data the first sweep reproduces the state exactly and the step
        reports convergence after one sweep with zero increments.
        """
        momentum = self.momentum_map(state.u, f)
        transport = self.density_operator(state.u)

        def sweep(psi_it: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            # one edge-difference pass of psi_it, for the stress and the secant
            edges = [self.ops.grid.edge_pairs(np.subtract, psi_it)]
            u_star = momentum(edges[0])
            return u_star, self.fokker_planck_step(state.psi, u_star, transport, psi_it, edges)

        u, psi, report = self._fixed_point(sweep, state)
        return SystemState(u, psi, state.t + self.params.dt, state.n + 1), report

    def _fixed_point(self, sweep: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]],
                     state: SystemState) -> Tuple[np.ndarray, np.ndarray, FixedPointReport]:
        """Run ``sweep: psi_it -> (u*, psi*)`` from ``state`` to an increment
        of at most ``fp_tol``, giving ``(u, psi, report)``; raise
        ``RuntimeError`` after ``fp_max_iter`` sweeps.  Increments are relative
        to the joint state scale: a component relaxed to rounding level around
        zero must not be judged relative to itself (noise ratios do not contract)."""
        p = self.params
        h2, w = self.flow.h * self.flow.h, self.ops.grid.w

        def psi_norm(sq):
            # weighted L2 norm over cells x configuration nodes, from the square
            return math.sqrt(h2 * float((sq @ w).sum()))

        floor = max(math.sqrt(self.flow.norm_sq(state.u)
                              + psi_norm(state.psi * state.psi) ** 2), 1.0e-12)
        u_it, psi_it = state.u, state.psi
        report = FixedPointReport()
        for _ in range(p.fp_max_iter):
            u_star, psi_star = sweep(psi_it)
            # one buffer squares the increment, then psi_star
            sq = psi_star - psi_it
            dpsi = psi_norm(np.multiply(sq, sq, out=sq))
            scale = max(math.sqrt(self.flow.norm_sq(u_star)
                                  + psi_norm(np.multiply(psi_star, psi_star, out=sq)) ** 2), floor)
            del sq  # not held through the next sweep's solves
            du = math.sqrt(self.flow.norm_sq(u_star - u_it)) / scale
            dpsi /= scale
            u_it, psi_it = u_star, psi_star
            report.increments.append(max(du, dpsi))
            report.final_du, report.final_dpsi = du, dpsi
            if max(du, dpsi) <= p.fp_tol:
                return u_it, psi_it, report
        raise RuntimeError(
            f"coupled fixed point stalled after {report.iterations} iterations "
            f"(last increment {report.increments[-1]:.3e})")


# --------------------------------------------------------------------------
# initial-data smoothing
# --------------------------------------------------------------------------

SMOOTHING_SLACK = 1.0e-8


def smooth_initial_density(flow: FlowGrid, ops: ConfigOperators, psi0: np.ndarray,
                           dt: float, clip_level: float) -> Tuple[np.ndarray, SmoothingReport]:
    """Clip the raw density at ``clip_level`` and take one implicit
    unit-coefficient heat step in both variables; with no transport its
    exact solve is one ``P^{-1}`` of a :class:`_DensitySystem` in the
    configuration eigenbasis.

    Guarantees, each checked to ``SMOOTHING_SLACK`` and fatal on failure:
      * nonnegativity (the implicit operator is an M-matrix, and the output
        is its exact solve);
      * the weighted entropy does not increase;
      * the dissipation budget ``dt (fisher_x + fisher_q)`` of the output
        (the Fisher terms carry their factor 4) is bounded by the entropy
        of the input.
    """
    if not (dt > 0.0) or not math.isfinite(dt):
        raise ValueError(f"smoothing step needs a positive finite dt, got {dt}")
    if not (clip_level > 1.0) or not math.isfinite(clip_level):
        raise ValueError(f"clip level must be finite and exceed 1, got {clip_level}")
    psi0 = np.asarray(psi0, dtype=float)
    if not np.isfinite(psi0).all():
        raise ValueError("raw initial density must be finite")
    if psi0.min() < 0.0:
        raise ValueError("raw initial density must be nonnegative")
    h2 = flow.h * flow.h
    m = ops.grid.w
    # each array is released once its successor exists: the clipped copy,
    # whose mass is taken first, is scaled in place into the right-hand side
    # and released once its modes exist; the system (its inverse diagonal)
    # once the modes are preconditioned, before the smoothed density, which
    # outlives this call, is allocated; the modes once they are back on the
    # nodes.  psi0 is only read
    zeta0 = np.minimum(psi0, clip_level)
    mass0 = h2 * float((zeta0 @ m).sum())
    system = _DensitySystem(flow, ops, 1.0, h2 / dt, h2)
    zeta0 *= system.mass_w
    rhs = ops.to_modes(zeta0)
    del zeta0
    rhs = system.precondition(rhs, np.empty_like(rhs))
    del system
    zeta1 = ops.to_nodes(rhs)
    del rhs

    # the one nonnegativity check of both densities (a NaN fails it): the raw
    # one was checked above, so the entropy and Fisher terms only clamp
    min_val = float(zeta1.min())
    if not min_val >= -SMOOTHING_SLACK:
        raise ConstructionError(f"smoothed density dips to {min_val:.3e}")
    g = ops.grid
    ent0 = dg.relative_entropy(flow, g, psi0, neg_tol=math.inf)
    ent1 = dg.relative_entropy(flow, g, zeta1, neg_tol=math.inf)
    fx = dg.fisher_x(flow, g, zeta1, neg_tol=math.inf)
    fq = dg.fisher_q(flow, g, zeta1, neg_tol=math.inf)
    fisher_budget = dt * (fx + fq)
    mass_drift = abs(h2 * float((zeta1 @ m).sum()) - mass0)
    scale = max(abs(ent0), 1.0)
    if ent1 > ent0 + SMOOTHING_SLACK * scale:
        raise ConstructionError(
            f"smoothing raised the entropy: {ent1:.6e} > {ent0:.6e}")
    if fisher_budget > ent0 + SMOOTHING_SLACK * scale:
        raise ConstructionError(
            f"dissipation budget {fisher_budget:.6e} exceeds entropy {ent0:.6e}")
    return zeta1, SmoothingReport(ent0, ent1, fx, fq, fisher_budget, min_val, mass_drift)


# --------------------------------------------------------------------------
# checkpoints
# --------------------------------------------------------------------------

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
        "config": grid_metadata(ops.grid),
        "params": {
            "dt": params.dt, "nu": params.nu, "k": params.k,
            "lam": params.lam, "eps": params.eps,
            "L": params.cutoff.L, "delta": params.cutoff.delta,
            "fp_tol": params.fp_tol, "fp_max_iter": params.fp_max_iter,
        },
    }
    np.savez(path, u=state.u, psi=np.ascontiguousarray(state.psi),
             meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))


def load_checkpoint(path: str, flow: Optional[FlowGrid] = None,
                    ops: Optional[ConfigOperators] = None
                    ) -> Tuple[SystemState, dict]:
    """Restore a snapshot; verifies grid shapes when grids are supplied.

    A file that is not an ``.npz`` archive (a ``.npy`` array, text, an
    empty or truncated file) or whose arrays or ``meta`` fields are missing
    or malformed raises ``ValueError("... is not a coupled-state
    checkpoint")``, and a checkpoint of another format version a
    ``ValueError`` naming both versions; a missing file raises
    ``FileNotFoundError``."""
    try:
        # opened here so it is closed whatever np.load raises
        with open(path, "rb") as fh:
            data = np.load(fh)
            if not isinstance(data, np.lib.npyio.NpzFile):   # a bare .npy array
                raise TypeError("not an .npz archive")
            with data:
                meta = json.loads(bytes(data["meta"]).decode())
                state = SystemState(u=data["u"].copy(), psi=data["psi"].copy(),
                                    t=float(meta["t"]), n=int(meta["n"]))
        flow_N, flow_side, config = meta["flow"]["N"], meta["flow"]["side"], meta["config"]
        foreign, version = meta["kind"] != _CHECKPOINT_KIND, meta["version"]
    except (KeyError, TypeError, ValueError, OverflowError, EOFError, zipfile.BadZipFile):
        foreign = True
    if foreign:
        raise ValueError(f"{path} is not a coupled-state checkpoint")
    if version != _CHECKPOINT_VERSION:
        raise ValueError(f"{path} is a version {version!r} checkpoint; "
                         f"this release reads version {_CHECKPOINT_VERSION}")
    if flow is not None and (flow_N != flow.N or flow_side != flow.side):
        raise ValueError("checkpoint flow grid does not match the current grid")
    if ops is not None and grid_metadata(ops.grid) != config:
        raise ValueError("checkpoint configuration grid does not match")
    return state, meta
