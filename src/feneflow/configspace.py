"""Configuration-space grid and operators for the spring disc ``D = B(0, sqrt(b))``.

Connectors are planar (``d = 2``) and the chain is a single spring (a
dumbbell), the only chain the coupled run discretizes, so a grid is fixed
by the FENE parameter ``b`` and its node counts.  The grid is polar: radii
are mapped Gauss-Jacobi nodes (no node at the origin or on the circle
``|q| = sqrt(b)``), angles are uniform.  The Jacobi weight exponent is chosen as ``b/2 - 1`` so that after
the substitution ``t = 2 r^2 / b - 1`` *both* families of moments that the
solver needs,

    int_D M(q) p(q) dq      and      int_D M(q) U'(|q|^2/2) p(q) dq,

are integrated exactly for polynomial ``p``.  All weighted operators come in
two flavours:

* node quadrature (mass matrix, Kramers stress, entropy integrals), and
* edge differences (Dirichlet stiffness, drag pairing, Fisher information),

where every edge carries a positive weight, so the stiffness is a symmetric
M-matrix whose kernel is exactly the constants.  The assembled operators
carry the eigenbasis of the mass-weighted stiffness, computed once per grid,
which the stepper's Kronecker solves and the spectral gap both read.
Node-wise spectral/4th-order gradients are provided separately for the
integration-by-parts diagnostics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import roots_jacobi

from .kinetic import (
    DomainError,
    InternalConsistencyError,
    fene_potential,
    maxwellian_normalizer,
)

__all__ = [
    "ConfigGrid",
    "ConfigOperators",
    "build_config_grid",
    "weighted_integral",
    "kramers_stress",
    "node_gradient",
    "ibp_residual",
    "IbpResult",
    "assemble_fp_operators",
    "spectral_gap",
    "grid_metadata_json",
    "grid_metadata_from_json",
]

MASS_TOL = 1e-8
MOMENT_TOL = 1e-6


class GridConstructionError(RuntimeError):
    """Raised when a freshly built grid fails its own acceptance checks."""


def _fornberg_weights(x0: float, x: np.ndarray, m: int) -> np.ndarray:
    """Finite-difference weights for the m-th derivative at ``x0`` on nodes ``x``."""
    n = len(x)
    c = np.zeros((n, m + 1))
    c1, c4 = 1.0, x[0] - x0
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2, c5 = 1.0, c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def _radial_diff_matrix(r: np.ndarray, order: int = 4) -> sp.csr_matrix:
    """Sparse d/dr on the nonuniform radial nodes (``order+1``-point Fornberg stencils)."""
    n = len(r)
    width = min(order + 1, n)
    rows, cols, vals = [], [], []
    for i in range(n):
        lo = min(max(i - width // 2, 0), n - width)
        idx = np.arange(lo, lo + width)
        w = _fornberg_weights(r[i], r[idx], 1)
        rows.extend([i] * width)
        cols.extend(idx.tolist())
        vals.extend(w.tolist())
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


@dataclass
class ConfigGrid:
    """Polar quadrature/difference grid for one planar spring.

    Attributes
    ----------
    b:             FENE extensibility parameter, ``b > 2``.
    r, theta:      radial Gauss-Jacobi nodes and uniform angles.
    w:             normalized node weights: ``sum(w * g)`` approximates
                   ``int_D M g dq`` (exactly, for polynomial ``g``).
    uprime:        ``U'(|q|^2/2)`` at the nodes.
    qx, qy:        Cartesian node coordinates, flattened C-order.
    edges_a/b:     endpoint node indices of the difference edges.
    edge_w:        positive Dirichlet weights: ``sum(edge_w * dpsi^2)``
                   approximates ``int_D M |grad psi|^2 dq``.
    edge_gamma:    per-edge ``2 x 2`` geometric factors (flattened) such that
                   ``sum_e (sigma : Gamma_e) * dpsi_e`` approximates
                   ``int_D M (sigma q) . grad psi dq``.
    Z:             Maxwellian normalizer (cross-checked against closed form).
    """

    b: float
    N_r: int
    N_theta: int
    r: np.ndarray
    theta: np.ndarray
    w: np.ndarray
    uprime: np.ndarray
    qx: np.ndarray
    qy: np.ndarray
    edges_a: np.ndarray
    edges_b: np.ndarray
    edge_w: np.ndarray
    edge_gamma: np.ndarray
    Z: float
    mass_defect: float
    moment_defect: float

    @property
    def n_nodes(self) -> int:
        return self.w.size


def _build_polar(b: float, N_r: int, N_theta: int) -> ConfigGrid:
    Z = maxwellian_normalizer(b)

    # Radial rule: t = 2 r^2 / b - 1 turns  int_0^sqrt(b) g Mtilde r dr  into
    # (b/4) 2^{-b/2} int (1-t)^{b/2} g dt; Jacobi(alpha=b/2-1) nodes make both
    # the M- and the M U'-weighted polynomial moments exact.
    t, wt = roots_jacobi(N_r, b / 2.0 - 1.0, 0.0)
    order = np.argsort(t)
    t, wt = t[order], wt[order]
    r = np.sqrt(b * (1.0 + t) / 2.0)
    w_rad = (b / 4.0) * 2.0 ** (-b / 2.0) * wt * (1.0 - t)  # includes Mtilde * r * dr

    theta = 2.0 * math.pi * np.arange(N_theta) / N_theta
    dth = 2.0 * math.pi / N_theta

    w = np.repeat(w_rad, N_theta) * dth / Z
    rr = np.repeat(r, N_theta)
    th = np.tile(theta, N_r)
    qx = rr * np.cos(th)
    qy = rr * np.sin(th)
    _, uprime = fene_potential(0.5 * rr * rr, b)

    def mtil(rad):
        return (1.0 - rad * rad / b) ** (b / 2.0)

    # ---- difference edges -------------------------------------------------
    # radial edges (m, n) -> (m+1, n)
    m_idx = np.repeat(np.arange(N_r - 1), N_theta)
    n_idx = np.tile(np.arange(N_theta), N_r - 1)
    a_r = m_idx * N_theta + n_idx
    b_r = (m_idx + 1) * N_theta + n_idx
    rbar = 0.5 * (r[m_idx] + r[m_idx + 1])
    dr = r[m_idx + 1] - r[m_idx]
    w_edge_r = mtil(rbar) * rbar * dth / (Z * dr)
    er = np.stack([np.cos(theta[n_idx]), np.sin(theta[n_idx])], axis=1)
    qbar_r = rbar[:, None] * er
    gamma_r = (mtil(rbar) * rbar * dth / Z)[:, None] * (
        er[:, :, None] * qbar_r[:, None, :]
    ).reshape(-1, 4)

    # angular edges (m, n) -> (m, n+1 mod N_theta)
    m_idx = np.repeat(np.arange(N_r), N_theta)
    n_idx = np.tile(np.arange(N_theta), N_r)
    a_t = m_idx * N_theta + n_idx
    b_t = m_idx * N_theta + (n_idx + 1) % N_theta
    w_edge_t = w_rad[m_idx] * dth / (Z * r[m_idx] ** 2 * dth**2)
    thbar = theta[n_idx] + dth / 2.0
    et = np.stack([-np.sin(thbar), np.cos(thbar)], axis=1)
    qbar_t = r[m_idx][:, None] * np.stack([np.cos(thbar), np.sin(thbar)], axis=1)
    gamma_t = (w_rad[m_idx] / (Z * r[m_idx] * dth))[:, None] * (
        et[:, :, None] * qbar_t[:, None, :]
    ).reshape(-1, 4)

    edges_a = np.concatenate([a_r, a_t])
    edges_b = np.concatenate([b_r, b_t])
    edge_w = np.concatenate([w_edge_r, w_edge_t])
    edge_gamma = np.concatenate([gamma_r, gamma_t], axis=0)

    grid = ConfigGrid(
        b=b,
        N_r=N_r,
        N_theta=N_theta,
        r=r,
        theta=theta,
        w=w,
        uprime=uprime,
        qx=qx,
        qy=qy,
        edges_a=edges_a,
        edges_b=edges_b,
        edge_w=edge_w,
        edge_gamma=edge_gamma,
        Z=Z,
        mass_defect=0.0,
        moment_defect=0.0,
    )
    return grid


def build_config_grid(b: float, N_r: int, N_theta: int) -> ConfigGrid:
    """Build and self-check the quadrature/difference grid for one planar
    spring with FENE parameter ``b``.

    Raises
    ------
    ValueError
        If a direction has fewer than 8 nodes.
    DomainError
        If ``b <= 2`` (``gamma = b/2`` must exceed 1).
    GridConstructionError
        If the normalized mass misses 1 by more than 1e-8 or the second
        moment misses its closed form ``2b/(b+4)`` by more than 1e-6
        (the raised message reports the measured defect).
    """
    if N_r < 8 or N_theta < 8:
        raise ValueError(f"need at least 8 nodes per direction, got N_r={N_r}, N_theta={N_theta}")
    grid = _build_polar(b, N_r, N_theta)

    mass = float(np.sum(grid.w))
    m2 = float(np.sum(grid.w * (grid.qx**2 + grid.qy**2)))
    m2_exact = 2.0 * b / (b + 4.0)
    grid.mass_defect = abs(mass - 1.0)
    grid.moment_defect = abs(m2 - m2_exact)
    if grid.mass_defect > MASS_TOL:
        raise GridConstructionError(
            f"normalized Maxwellian mass defect {grid.mass_defect:.3e} exceeds {MASS_TOL}"
        )
    if grid.moment_defect > MOMENT_TOL:
        raise GridConstructionError(
            f"second-moment defect {grid.moment_defect:.3e} exceeds {MOMENT_TOL} "
            f"(got {m2!r}, expected {m2_exact!r})"
        )
    return grid


# --------------------------------------------------------------------------
# node quadrature operators
# --------------------------------------------------------------------------


def weighted_integral(grid: ConfigGrid, field: np.ndarray) -> float:
    """``int_D M field dq`` by the grid's exact-moment quadrature."""
    field = np.asarray(field, dtype=float)
    if field.shape[-1] != grid.n_nodes:
        raise ValueError(f"field has {field.shape[-1]} nodes, grid has {grid.n_nodes}")
    return field @ grid.w


def kramers_stress(grid: ConfigGrid, psi_hat: np.ndarray, k: float) -> np.ndarray:
    """Kramers stress ``tau = k (int M psi U' q q^T dq - rho I)`` (symmetric).

    ``psi_hat`` may carry leading axes (e.g. one row per flow cell); the
    result then has shape ``(..., 2, 2)``.
    """
    psi_hat = np.asarray(psi_hat, dtype=float)
    coords = (grid.qx, grid.qy)
    wU = grid.w * grid.uprime
    rho = psi_hat @ grid.w
    tau = np.empty(psi_hat.shape[:-1] + (2, 2))
    for a in range(2):
        for c in range(a, 2):
            moment = psi_hat @ (wU * coords[a] * coords[c])
            tau[..., a, c] = moment
            tau[..., c, a] = moment
    for a in range(2):
        tau[..., a, a] -= rho
    return k * tau


# --------------------------------------------------------------------------
# node gradients and integration by parts
# --------------------------------------------------------------------------


def node_gradient(grid: ConfigGrid, field: np.ndarray) -> np.ndarray:
    """Cartesian gradient of a node field: spectral in the periodic angle,
    fourth-order one-sided-at-the-rim finite differences radially.

    Returns shape ``(2, n_nodes)``.
    """
    field = np.asarray(field, dtype=float)
    F = field.reshape(grid.N_r, grid.N_theta)
    dFr = (_radial_diff_matrix(grid.r) @ F).reshape(-1)
    k = np.fft.rfftfreq(grid.N_theta, d=1.0 / grid.N_theta) * 1j
    dFth = np.fft.irfft(k * np.fft.rfft(F, axis=1), n=grid.N_theta, axis=1).reshape(-1)
    rr = np.repeat(grid.r, grid.N_theta)
    th = np.tile(grid.theta, grid.N_r)
    cs, sn = np.cos(th), np.sin(th)
    gx = cs * dFr - sn * dFth / rr
    gy = sn * dFr + cs * dFth / rr
    return np.stack([gx, gy])


@dataclass(frozen=True)
class IbpResult:
    lhs: float
    rhs: float
    residual: float
    relative: float


def ibp_residual(grid: ConfigGrid, B: np.ndarray, phi_hat: np.ndarray) -> IbpResult:
    """Residual of the Maxwellian integration-by-parts identity.

    Checks ``int_D M (B q) . grad phi dq  =  int_D M phi U' q^T B q dq`` for
    a trace-free matrix ``B`` (both sides evaluated with the grid's own
    quadrature; the left side uses the node gradient).

    Raises
    ------
    DomainError
        If ``trace(B)`` is not numerically zero — the identity only holds
        trace-free (the divergence of ``q -> B q`` must vanish against the
        density part).
    """
    B = np.asarray(B, dtype=float)
    if B.shape != (2, 2):
        raise ValueError(f"B must be 2x2, got {B.shape}")
    if abs(np.trace(B)) > 1e-12 * (1.0 + np.abs(B).max()):
        raise DomainError(f"integration-by-parts identity needs trace(B)=0, got trace {np.trace(B)!r}")
    phi_hat = np.asarray(phi_hat, dtype=float)
    coords = np.stack([grid.qx, grid.qy])
    Bq = np.tensordot(B, coords, axes=1)
    grad = node_gradient(grid, phi_hat)
    lhs = float(np.sum(grid.w * np.sum(Bq * grad, axis=0)))
    qBq = np.sum(coords * Bq, axis=0)
    rhs = float(np.sum(grid.w * phi_hat * grid.uprime * qBq))
    residual = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return IbpResult(lhs=lhs, rhs=rhs, residual=residual, relative=residual / scale)


# --------------------------------------------------------------------------
# assembled operators
# --------------------------------------------------------------------------


@dataclass
class ConfigOperators:
    """Weighted operators used by the coupled stepper.

    grid:         the underlying grid; its node weights ``grid.w`` are the
                  diagonal mass form of ``int_D M . dq``, and its edge
                  arrays drive the drag pairing.
    q_stiffness:  CSR matrix of the Dirichlet form
                  ``psi -> sum_edges edge_w (psi_b - psi_a) (test_b - test_a)``
                  (symmetric positive semidefinite, kernel = constants).
    evals, Q:     eigenpairs ``S_hat = Q diag(evals) Q^T`` of the mass-weighted
                  stiffness ``S_hat = M^{-1/2} S M^{-1/2}`` (evals clipped at 0);
                  in this basis ``K_x Psi M + c M_x Psi S = R`` splits into
                  one x-system per mode.
    inv_sqrt_m:   ``M^{-1/2}`` as a node vector.
    scatter:      (nodes x edges) CSR, +1 at each edge's head, -1 at its tail.
    """

    grid: ConfigGrid
    q_stiffness: sp.csr_matrix
    evals: np.ndarray
    Q: np.ndarray
    inv_sqrt_m: np.ndarray
    scatter: sp.csr_matrix

    def to_modes(self, rhs_nodal: np.ndarray) -> np.ndarray:
        """Rows of a mass-weighted nodal right-hand side ``R`` -> mode
        coefficients ``R M^{-1/2} Q``."""
        return (rhs_nodal * self.inv_sqrt_m[None, :]) @ self.Q

    def to_nodes(self, modes: np.ndarray) -> np.ndarray:
        """Mode coefficients ``Phi`` -> nodal values ``Phi Q^T M^{-1/2}``, so
        ``to_nodes(to_modes(R)) = R M^{-1}``."""
        return (modes @ self.Q.T) * self.inv_sqrt_m[None, :]

    def drag_rhs(self, sigma: np.ndarray, coeff_edges: np.ndarray) -> np.ndarray:
        """Assembled drag functional, batched over leading axes (one row per
        flow cell in the stepper).

        Parameters
        ----------
        sigma : ``(..., 2, 2)`` velocity gradients.
        coeff_edges : ``(..., n_edges)`` per-edge cut-off coefficients.

        Returns ``v`` with ``v . phi = int_D M (sigma q) beta . grad phi dq``
        in edge form, i.e. ``sum_e (sigma : Gamma_e) c_e (phi_b - phi_a)``.
        """
        sigma = np.asarray(sigma, dtype=float)
        sg = sigma.reshape(sigma.shape[:-2] + (4,)) @ self.grid.edge_gamma.T  # sigma : Gamma_e
        return (sg * coeff_edges) @ self.scatter.T                            # +head/-tail

    def stress_matrix(self, psi_hat: np.ndarray) -> np.ndarray:
        """Edge-difference stress ``C_hat`` with ``sigma : C_hat(psi)`` equal to the
        drag form tested on ``[F^L_delta]'(psi)`` (exact discrete pairing).

        Consistent with ``C(M psi)`` up to the integration-by-parts residual
        for trace-free contractions.  ``psi_hat`` may carry leading axes.
        """
        g = self.grid
        psi_hat = np.asarray(psi_hat, dtype=float)
        dpsi = psi_hat[..., g.edges_b] - psi_hat[..., g.edges_a]
        return (dpsi @ g.edge_gamma).reshape(psi_hat.shape[:-1] + (2, 2))


def assemble_fp_operators(grid: ConfigGrid) -> ConfigOperators:
    """Assemble the Maxwellian-weighted stiffness form for one spring, its
    eigenbasis and the edge scatter.

    The stiffness is built edge-wise, so symmetry is structural and constants
    are annihilated exactly; both facts are re-verified here (defect beyond
    1e-12 raises :class:`InternalConsistencyError`).
    """
    n = grid.n_nodes
    a, bidx, wE = grid.edges_a, grid.edges_b, grid.edge_w
    rows = np.concatenate([a, bidx, a, bidx])
    cols = np.concatenate([a, bidx, bidx, a])
    vals = np.concatenate([wE, wE, -wE, -wE])
    S = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    sym_defect = abs(S - S.T).max()
    kernel_defect = np.abs(S @ np.ones(n)).max()
    scale = max(abs(S).max(), 1.0)
    if sym_defect > 1e-12 * scale or kernel_defect > 1e-12 * scale:
        raise InternalConsistencyError(
            f"stiffness defects: symmetry {sym_defect:.2e}, kernel {kernel_defect:.2e}"
        )
    inv_sqrt_m = 1.0 / np.sqrt(grid.w)
    S_hat = S.multiply(inv_sqrt_m[:, None]).multiply(inv_sqrt_m[None, :])
    evals, Q = np.linalg.eigh(S_hat.toarray())
    n_e = a.size
    scatter = sp.coo_matrix(
        (np.concatenate([np.ones(n_e), -np.ones(n_e)]),
         (np.concatenate([bidx, a]), np.concatenate([np.arange(n_e), np.arange(n_e)]))),
        shape=(n, n_e),
    ).tocsr()
    return ConfigOperators(
        grid=grid, q_stiffness=S, evals=np.maximum(evals, 0.0),  # clip eigenvalue roundoff
        Q=np.ascontiguousarray(Q), inv_sqrt_m=inv_sqrt_m, scatter=scatter,
    )


def spectral_gap(ops: ConfigOperators) -> float:
    """Smallest nonzero Rayleigh quotient of (stiffness, mass): the discrete
    configuration-space relaxation rate surrogate."""
    positive = ops.evals[ops.evals > 1e-10 * max(ops.evals.max(), 1.0)]
    if positive.size == 0:
        raise InternalConsistencyError("stiffness has no positive spectrum")
    return float(positive[0])


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------


def grid_metadata_json(grid: ConfigGrid) -> str:
    """Structured-text description of the grid (counts, b, Z, defects, tolerances)."""
    meta = {
        "kind": "fene-config-grid",
        "b": grid.b,
        "N_r": grid.N_r,
        "N_theta": grid.N_theta,
        "n_nodes": grid.n_nodes,
        "Z": grid.Z,
        "mass_defect": grid.mass_defect,
        "moment_defect": grid.moment_defect,
        "mass_tol": MASS_TOL,
        "moment_tol": MOMENT_TOL,
    }
    return json.dumps(meta, indent=2, sort_keys=True)


def grid_metadata_from_json(text: str) -> dict:
    meta = json.loads(text)
    if meta.get("kind") != "fene-config-grid":
        raise ValueError("not a configuration-grid description")
    return meta
