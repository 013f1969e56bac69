"""Bead-spring kinetic theory primitives.

The paper's chains are ``K`` FENE springs in ``d = 2`` or ``3`` space
dimensions; feneflow discretizes the planar dumbbell (one spring, ``d = 2``),
so every primitive here takes just the FENE parameter ``b``.  The spring
connector ``q`` ranges over the open disc ``D = B(0, sqrt(b))`` and carries
the elastic potential

    U(s) = -(b/2) * log(1 - 2 s / b),      s = |q|^2 / 2 in [0, b/2),

whose normalized Boltzmann factor is the Maxwellian

    M(q) = Z^{-1} (1 - |q|^2 / b)^{b/2},   Z = int_D exp(-U) dq.

``M`` satisfies the structural identity ``grad_q M = -M U'(|q|^2/2) q`` on
which every integration-by-parts manipulation in the coupled solver rests,
and ``-log M`` is uniformly convex with Hessian bounded below by the
identity (curvature constant ``kappa = 1``), which is what powers the
logarithmic Sobolev inequality used by the equilibration diagnostics.

The module also provides the relative-entropy integrands: the Boltzmann
function ``F(s) = s (log s - 1) + 1`` (``entropy_F``) and its two-sided
``C^2`` regularization ``F^L_delta`` (``entropy_FLdelta``), the quadratic
Taylor continuation of ``F`` below ``delta`` and above ``L``.  Its second
derivative is the reciprocal of the cut-off
``beta^L_delta(s) = max(min(s, L), delta)``, whose secant form along
configuration-grid edges (``secant_cutoff_coefficient``) is the drag
coefficient of the scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CutoffParams",
    "fene_potential",
    "maxwellian_normalizer",
    "maxwellian_value",
    "entropy_F",
    "entropy_FLdelta",
    "secant_cutoff_coefficient",
    "bakry_emery_kappa",
]


class DomainError(ValueError):
    """Raised when an argument leaves the mathematical domain of an operation."""


class InternalConsistencyError(RuntimeError):
    """Raised when a structural identity fails beyond tolerance at runtime."""


# --------------------------------------------------------------------------
# cut-off parameters
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CutoffParams:
    """Cut-off pair ``0 < delta < 1 < L`` for the regularized drag and entropy."""

    L: float
    delta: float

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0 < self.L):
            raise ValueError(
                f"cut-off parameters must satisfy 0 < delta < 1 < L, got "
                f"delta={self.delta}, L={self.L}"
            )


# --------------------------------------------------------------------------
# potential and Maxwellian
# --------------------------------------------------------------------------


def fene_potential(s, b: float):
    """Evaluate the FENE potential and its derivative.

    Parameters
    ----------
    s : array_like
        Squared-half-extension ``|q|^2 / 2``; must lie in ``[0, b/2)``.
    b : float
        Extensibility parameter, ``b > 2``.

    Returns
    -------
    U, Uprime : ndarray
        ``U(s) = -(b/2) log(1 - 2s/b)`` and ``U'(s) = (1 - 2s/b)^{-1}``.
    """
    s = np.asarray(s, dtype=float)
    if not b > 2.0:
        raise DomainError(f"b={b}: gamma = b/2 must exceed 1")
    arg = 1.0 - 2.0 * s / b
    if np.any(s < 0.0) or np.any(arg <= 0.0):
        raise DomainError("s must lie in [0, b/2) for the FENE potential")
    U = -(b / 2.0) * np.log(arg)
    Uprime = 1.0 / arg
    return U, Uprime


def maxwellian_normalizer(b: float) -> float:
    """Normalizing constant ``Z = int_D (1 - |q|^2/b)^{b/2} dq`` over the disc.

    Uses the exact Beta-function reduction
    ``Z = |S^{d-1}| (b^{d/2}/2) B(d/2, b/2 + 1)`` at ``d = 2`` and
    cross-checks the closed form ``Z = 2 pi b / (b + 2)``, which differs
    from it in the last bits.
    """
    if not b > 2.0:
        raise DomainError(f"b={b}: gamma = b/2 must exceed 1")
    d = 2
    lbeta = math.lgamma(d / 2.0) + math.lgamma(b / 2.0 + 1.0) - math.lgamma(d / 2.0 + b / 2.0 + 1.0)
    Z = 2.0 * math.pi * 0.5 * b ** (d / 2.0) * math.exp(lbeta)
    closed = 2.0 * math.pi * b / (b + 2.0)
    if abs(Z - closed) > 1e-12 * closed:
        raise InternalConsistencyError(
            f"normalizer mismatch: Beta form {Z!r} vs closed form {closed!r}"
        )
    return Z


def maxwellian_value(r, b: float, Z: float):
    """Normalized Maxwellian ``M = Z^{-1} (1 - r^2/b)^{b/2}`` at radius ``r``."""
    r = np.asarray(r, dtype=float)
    return (1.0 - r * r / b) ** (b / 2.0) / Z


# --------------------------------------------------------------------------
# cut-offs
# --------------------------------------------------------------------------


def secant_cutoff_coefficient(psi, edges_a, edges_b, L: float, delta: float):
    """Divided-difference form of ``beta^L_delta`` along grid edges.

    ``[F^L_delta]'`` is evaluated once per node of the field ``psi`` (last
    axis: nodes) and gathered per edge; for edge endpoint values
    ``a = psi[..., edges_a]`` and ``c = psi[..., edges_b]`` the result is

        (c - a) / ( [F^L_delta]'(c) - [F^L_delta]'(a) ),

    which by the mean value theorem equals ``beta^L_delta`` at an
    intermediate value and therefore always lies in ``[delta, L]``.  The
    coincidence limit ``a -> c`` is ``beta^L_delta(a)``.  Using this as the
    edge coefficient of the drag term makes the discrete chain rule

        coeff * ( [F^L_delta]'(c) - [F^L_delta]'(a) ) = c - a

    exact, which is what the discrete free-energy identity needs.
    """
    psi = np.asarray(psi, dtype=float)
    d1 = entropy_FLdelta(psi, L, delta)[1]
    a, c = psi[..., edges_a], psi[..., edges_b]
    dnum = c - a
    dden = d1[..., edges_b] - d1[..., edges_a]
    # tiny increments are dominated by rounding: those edges keep the
    # midpoint, which the final clip turns into beta^L_delta of it
    out = 0.5 * (a + c)
    tiny = np.abs(dnum) <= 1e-12 * (np.abs(a) + np.abs(c) + 1.0)
    np.divide(dnum, dden, out=out, where=~tiny)
    return np.clip(out, delta, L)


# --------------------------------------------------------------------------
# entropy functions
# --------------------------------------------------------------------------


def entropy_F(s):
    """Boltzmann entropy ``F(s) = s(log s - 1) + 1`` and its first two
    derivatives ``log s`` and ``1/s``.

    Requires ``s >= 0``.  At ``s = 0`` the value is ``F(0) = 1`` and the
    derivatives are ``d1 = -inf``, ``d2 = +inf``.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise DomainError("F(s) = s(log s - 1) + 1 requires s >= 0")
    pos = s > 0.0
    safe = np.where(pos, s, 1.0)
    log_s = np.log(safe)
    with np.errstate(over="ignore"):
        val = np.where(pos, s * (log_s - 1.0) + 1.0, 1.0)
        d2 = np.where(pos, 1.0 / safe, np.inf)
    return val, np.where(pos, log_s, -np.inf), d2


def entropy_FLdelta(s, L: float, delta: float):
    """Regularized entropy ``F^L_delta`` and its first two derivatives on
    all of R.

    ``F^L_delta`` is ``F`` on ``[delta, L]`` and the quadratic ``C^2``
    Taylor continuation of ``F`` from the nearer cut-off outside it: with
    ``m = clip(s, delta, L)``,

        F^L_delta(s) = F(m) + log(m) (s - m) + (s - m)^2 / (2 m),

    so ``[F^L_delta]'(s) = log(m) + (s - m)/m`` and
    ``(F^L_delta)''(s) = 1/m = 1 / beta^L_delta(s)``.  The cut-offs must
    satisfy ``0 < delta < 1 < L``.
    """
    CutoffParams(L=L, delta=delta)
    s = np.asarray(s, dtype=float)
    m = np.clip(s, delta, L)
    log_m = np.log(m)
    ds = s - m
    return (m * (log_m - 1.0) + 1.0 + log_m * ds + ds * ds / (2.0 * m),
            log_m + ds / m, 1.0 / m)


# --------------------------------------------------------------------------
# curvature of -log M
# --------------------------------------------------------------------------


def bakry_emery_kappa(b: float, samples: int = 512, tol: float = 1e-9):
    """Curvature constant of the Maxwellian and a sampled verification.

    ``Hess(-log M) = U'(s) I + U''(s) q q^T`` has eigenvalues ``U'`` (in the
    directions orthogonal to ``q``) and ``U' + U'' |q|^2`` (along ``q``);
    for the FENE potential both are ``>= 1``, so ``kappa = 1``.

    Returns
    -------
    kappa : float
        The curvature lower bound (1 for FENE).
    min_eig : float
        Smallest Hessian eigenvalue over a radial sample of the disc
        ``|q| < sqrt(b)``; an :class:`InternalConsistencyError` is raised if
        it drops below ``kappa - tol``.
    """
    if not b > 2.0:
        raise DomainError(f"b={b}: gamma = b/2 must exceed 1")
    kappa = 1.0
    r = np.linspace(0.0, math.sqrt(b), samples + 2)[1:-1]
    s = 0.5 * r * r
    arg = 1.0 - 2.0 * s / b
    Uprime = 1.0 / arg
    Usecond = (2.0 / b) / (arg * arg)
    radial = Uprime + Usecond * r * r
    min_eig = min(float(np.min(Uprime)), float(np.min(radial)))
    if min_eig < kappa - tol:
        raise InternalConsistencyError(
            f"sampled Hessian eigenvalue {min_eig} fell below kappa={kappa}"
        )
    return kappa, min_eig
