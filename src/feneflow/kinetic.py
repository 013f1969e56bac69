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
function ``F(s) = s (log s - 1) + 1`` and its two-sided ``C^2``
regularization ``F^L_delta``, the quadratic Taylor continuation of ``F``
below ``delta`` and above ``L``, together with the cut-off
``beta^L_delta(s) = max(min(s, L), delta) = 1 / (F^L_delta)''(s)`` and the
secant form of that cut-off along configuration-grid edges.
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
    "cutoff_beta_delta",
    "secant_cutoff_coefficient",
    "entropy_eval",
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


def cutoff_beta_delta(s, L: float, delta: float):
    """Two-sided cut-off ``beta^L_delta(s) = max(min(s, L), delta)``.

    Coincides with the reciprocal of ``(F^L_delta)''`` everywhere.
    """
    return np.maximum(np.minimum(np.asarray(s, dtype=float), L), delta)


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
    d1 = entropy_eval("FLdelta", psi, L=L, delta=delta)[1]
    a, c = psi[..., edges_a], psi[..., edges_b]
    dnum = c - a
    dden = d1[..., edges_b] - d1[..., edges_a]
    out = cutoff_beta_delta(0.5 * (a + c), L, delta)
    # guard the coincidence limit: tiny increments are dominated by rounding
    tiny = np.abs(dnum) <= 1e-12 * (np.abs(a) + np.abs(c) + 1.0)
    np.divide(dnum, dden, out=out, where=~tiny)
    return np.clip(out, delta, L)


# --------------------------------------------------------------------------
# entropy functions
# --------------------------------------------------------------------------


def _F(s):
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


def _FLdelta(s, L: float, delta: float):
    """Quadratic Taylor continuation of ``F`` at ``m = clip(s, delta, L)``."""
    s = np.asarray(s, dtype=float)
    m = np.clip(s, delta, L)
    Fm, log_m, _ = _F(m)
    ds = s - m
    return Fm + log_m * ds + ds * ds / (2.0 * m), log_m + ds / m, 1.0 / m


def entropy_eval(which: str, s, L: float | None = None, delta: float | None = None):
    """Evaluate an entropy integrand and its first two derivatives.

    Parameters
    ----------
    which : {"F", "FLdelta"}
        ``F(s) = s(log s - 1) + 1`` with ``F(0) = 1``; ``F^L_delta``
        replaces ``F`` below ``delta`` and above ``L`` by its quadratic
        ``C^2`` Taylor continuation from the nearer cut-off (defined on all
        of R).  Both branches agree in value and first two derivatives at
        the branch points.
    s : array_like
        Evaluation points.  ``F`` requires ``s >= 0``.
    L, delta : float, optional
        Cut-off parameters where the chosen function needs them.

    Returns
    -------
    value, d1, d2 : ndarray
        Function value and derivatives (``d1 = -inf``, ``d2 = +inf`` at the
        ``s = 0`` endpoint of ``F`` where they are undefined).
    """
    if which == "F":
        return _F(s)
    if which == "FLdelta":
        if L is None or delta is None:
            raise ValueError("F^L_delta needs both L and delta")
        CutoffParams(L=L, delta=delta)
        return _FLdelta(s, L, delta)
    raise ValueError(f"unknown entropy function {which!r}")


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
