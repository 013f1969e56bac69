"""Bead-spring kinetic theory primitives.

The paper's chains are ``K`` FENE springs in ``d = 2`` or ``3`` space
dimensions; feneflow discretizes the planar dumbbell (one spring, ``d = 2``),
so every primitive here takes just the FENE parameter ``b``.  The spring
connector ``q`` ranges over the open disc ``D = B(0, sqrt(b))`` and carries
the elastic potential

    U(s) = -(b/2) * log(1 - 2 s / b),      s = |q|^2 / 2 in [0, b/2),

whose normalized Boltzmann factor is the Maxwellian

    M(q) = Z^{-1} (1 - |q|^2 / b)^{b/2},   Z = int_D exp(-U) dq = 2 pi b / (b + 2).

``M`` satisfies the structural identity ``grad_q M = -M U'(|q|^2/2) q`` on
which every integration-by-parts manipulation in the coupled solver rests,
and ``-log M`` is uniformly convex with Hessian bounded below by the
identity: its Bakry-Emery curvature is ``KAPPA = 1``, the constant of the
logarithmic Sobolev inequality used by the equilibration diagnostics.
Each fact about ``M`` has one home here: ``check_extensibility`` (``2 < b < inf``),
``maxwellian_normalizer`` and ``KAPPA`` (closed forms) and ``maxwellian_value``
(the profile).

The module also provides the relative-entropy integrands: the value of
``F(s) = s (log s - 1) + 1`` (``entropy_F``) and its two-sided ``C^2``
regularization ``F^L_delta`` (``entropy_FLdelta``), the quadratic Taylor
continuation of ``F`` beyond ``delta`` and ``L``.  Its second derivative is
the reciprocal of the cut-off ``beta^L_delta(s) = max(min(s, L), delta)``,
whose secant form along configuration-grid edges
(``secant_cutoff_coefficient``) is the drag coefficient of the scheme.  It
forms only ``[F^L_delta]'`` per node and pairs it along the grid's edges,
after three screens read off the field's minimum and maximum: a flat field
(the equilibrium density) has every edge near-coincident and takes only the
midpoints, a field with no near-coincident edge only the two edge
differences, and only another builds the per-edge bounds and midpoints.
Both take the cut-off pair as one :class:`CutoffParams`, the one check of it.
The package's error classes live here too, beside the domain they guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KAPPA",
    "CutoffParams",
    "check_extensibility",
    "fene_potential",
    "maxwellian_normalizer",
    "maxwellian_value",
    "entropy_F",
    "entropy_FLdelta",
    "secant_cutoff_coefficient",
    "DomainError",
    "InternalConsistencyError",
    "ConstructionError",
]


class DomainError(ValueError):
    """Raised when an argument leaves the mathematical domain of an operation."""


class InternalConsistencyError(RuntimeError):
    """Raised when a structural identity fails beyond tolerance at runtime."""


class ConstructionError(RuntimeError):
    """Raised when a freshly built object (a configuration grid, a smoothed
    initial datum) fails its own acceptance check."""


# --------------------------------------------------------------------------
# cut-off parameters
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CutoffParams:
    """Cut-off pair ``0 < delta < 1 < L`` for the regularized drag and entropy."""

    L: float
    delta: float

    def __post_init__(self):
        failed = [msg for ok, msg in (
            (self.L > 1.0, f"cutoff level must exceed 1, got L = {self.L}"),
            (0.0 < self.delta < 1.0, f"regularization level must lie in (0, 1), got {self.delta}"),
        ) if not ok]
        if failed:
            raise ValueError("cut-off pair needs 0 < delta < 1 < L: " + "; ".join(failed))


# --------------------------------------------------------------------------
# potential and Maxwellian
# --------------------------------------------------------------------------


def check_extensibility(b: float) -> None:
    """Raise :class:`DomainError` unless ``2 < b < inf``, where ``M`` has finite entropy moments."""
    if not 2.0 < b < math.inf:
        raise DomainError(f"b={b}: gamma = b/2 must exceed 1, and b must be finite")


def fene_potential(s, b: float):
    """Evaluate the FENE potential and its derivative.

    Parameters
    ----------
    s : array_like
        Squared-half-extension ``|q|^2 / 2``; must lie in ``[0, b/2)``, not NaN.
    b : float
        Extensibility parameter, ``b > 2``.

    Returns
    -------
    U, Uprime : ndarray
        ``U(s) = -(b/2) log(1 - 2s/b)`` and ``U'(s) = (1 - 2s/b)^{-1}``.
    """
    s = np.asarray(s, dtype=float)
    check_extensibility(b)
    arg = 1.0 - 2.0 * s / b
    if not np.all((s >= 0.0) & (arg > 0.0)):
        raise DomainError("s must lie in [0, b/2) for the FENE potential, and not be NaN")
    U = -(b / 2.0) * np.log(arg)
    Uprime = 1.0 / arg
    return U, Uprime


def maxwellian_normalizer(b: float) -> float:
    """Normalizing constant in closed form: with ``t = |q|^2 / b``, ``Z = int_D (1 - |q|^2/b)^{b/2}
    dq = pi b int_0^1 (1 - t)^{b/2} dt = 2 pi b / (b + 2)``."""
    check_extensibility(b)
    return 2.0 * math.pi * b / (b + 2.0)


def maxwellian_value(r, b: float):
    """Normalized Maxwellian ``M = Z^{-1} (1 - r^2/b)^{b/2}`` at radius ``r``,
    ``Z`` from :func:`maxwellian_normalizer`."""
    Z = maxwellian_normalizer(b)                # checks b before any arithmetic
    r = np.asarray(r, dtype=float)
    return (1.0 - r * r / b) ** (b / 2.0) / Z


# Bakry-Emery curvature of M: Hess(-log M) = U'(s) I + U''(s) q q^T has the
# eigenvalues U' (orthogonal to q) and U' + U'' |q|^2 (along q).  For FENE,
# U' = 1 / (1 - 2s/b) >= 1 and U'' = (2/b) U'^2 >= 0, so both are >= 1 for
# every b.
KAPPA = 1.0


# --------------------------------------------------------------------------
# cut-offs
# --------------------------------------------------------------------------

_COINCIDENCE_TOL = 1.0e-12      # edges with |c - a| <= this (|a| + |c| + 1) take the midpoint


def secant_cutoff_coefficient(psi, grid, cutoff: CutoffParams, dpsi=None):
    """Divided-difference form of ``beta^L_delta`` along grid edges.

    ``grid`` is the ``ConfigGrid`` whose edges are paired (its
    ``edge_pairs``), ``cutoff`` the pair ``(L, delta)``.  ``[F^L_delta]'``
    is evaluated once per node of the field ``psi`` (last axis: nodes); for
    edge endpoint values ``a`` (tail) and ``c`` (head) the result is

        (c - a) / ( [F^L_delta]'(c) - [F^L_delta]'(a) ),

    which by the mean value theorem equals ``beta^L_delta`` at an
    intermediate value and therefore always lies in ``[delta, L]``.  The
    coincidence limit ``a -> c`` is ``beta^L_delta(a)``.  Using this as the
    edge coefficient of the drag term makes the discrete chain rule

        coeff * ( [F^L_delta]'(c) - [F^L_delta]'(a) ) = c - a

    exact, which is what the discrete free-energy identity needs.

    Rounding is monotone, so each edge's near-coincidence bound
    ``tol (|a| + |c| + 1)``, ``tol = _COINCIDENCE_TOL = 1e-12``, lies
    between ``tol (2 min|psi| + 1)`` and ``tol (2 max|psi| + 1)``, and
    ``|c - a|`` is at most ``max psi - min psi``.  That gives three
    screens, each decided from ``min psi`` and ``max psi`` alone:

    * a flat field, finite with a spread within the lower bound, has every
      edge near-coincident: it costs one edge sum, a halving and at most one
      clip, and no node pass (the state at equilibrium, where the paper's
      decay leads every long unforced run);
    * a field whose every ``|c - a|`` clears the upper bound has no such
      edge: it costs two edge differences, one division and one clip;
    * only another field builds the per-edge bounds and midpoints.

    Inside ``[delta, L]``, ``[F^L_delta]'`` is ``log m`` alone.  Every
    shortcut keeps every bit of the full form.  ``dpsi``, if given, is
    ``grid.edge_pairs(np.subtract, psi)``, read in place of that pass.  The
    call takes that buffer over: the flat path writes its midpoints, and
    so the result, into it, so a caller that reads the differences
    afterwards passes a copy.
    """
    # node- and edge-sized buffers are reused in place (m, out, and bound on
    # the full path; a given dpsi holds the flat path's result), so a call
    # allocates one array per buffer rather than one per operation, and its
    # peak stays at those few.  Every buffer, and the result, keeps the
    # memory layout of psi, so no pass transposes.
    psi = np.asarray(psi, dtype=float)
    delta, L = cutoff.delta, cutoff.L
    lo, hi = float(psi.min()), float(psi.max())     # Python floats overflow silently
    spread = hi - lo                                # inf or NaN on a field with an inf
    if spread <= (2.0 * max(lo, -hi, 0.0) + 1.0) * _COINCIDENCE_TOL and spread < math.inf:
        # every edge is near-coincident (False on a NaN; an infinite screen
        # would pass an inf, whose edges with equal ends divide to NaN):
        # each edge's coefficient is its midpoint, which lies in [lo, hi]
        out = grid.edge_pairs(np.add, psi, out=dpsi)
        out *= 0.5
        if delta <= lo and hi <= L:
            return out
        return np.clip(out, delta, L, out=out)
    if delta <= lo and hi <= L:
        d1 = np.log(psi)                    # the clip changes no value, and + 0.0 no bit of a log
    else:
        m = np.clip(psi, delta, L)
        d1 = psi - m
        d1 /= m
        d1 += np.log(m, out=m)              # [F^L_delta]' as entropy_FLdelta forms it
    dnum = grid.edge_pairs(np.subtract, psi) if dpsi is None else dpsi
    out = np.abs(dnum)
    if out.min() > (2.0 * max(hi, -lo) + 1.0) * _COINCIDENCE_TOL:     # False on a NaN
        dden = grid.edge_pairs(np.subtract, d1, out=out)
        return np.clip(np.divide(dnum, dden, out=out), delta, L, out=out)
    bound = grid.edge_pairs(np.add, np.abs(psi))
    bound += 1.0
    bound *= _COINCIDENCE_TOL
    tiny = out <= bound
    dden = grid.edge_pairs(np.subtract, d1, out=bound)
    # tiny increments are dominated by rounding: those edges keep the
    # midpoint 0.5 (a + c), which the final clip turns into beta^L_delta of it
    grid.edge_pairs(np.add, psi, out=out)
    out *= 0.5
    np.divide(dnum, dden, out=out, where=np.logical_not(tiny, out=tiny))
    return np.clip(out, delta, L, out=out)


# --------------------------------------------------------------------------
# entropy functions
# --------------------------------------------------------------------------


_SMALLEST_POSITIVE = float(np.nextafter(0.0, 1.0))


def _entropy_F(s):
    """Unchecked ``F(s) = s log s - (s - 1)`` on ``max(s, 5e-324)``, where it
    rounds to ``F(0) = 1`` exactly, so no mask is needed; two arrays the size
    of ``s`` are allocated, one of them the result."""
    s = np.maximum(s, _SMALLEST_POSITIVE)
    vals = np.log(s)
    vals *= s
    s -= 1.0
    vals -= s
    return vals


def entropy_F(s):
    """Boltzmann entropy ``F(s) = s(log s - 1) + 1``.

    The value is evaluated as ``s log s - (s - 1)``: both terms vanish at
    ``s = 1``, so near equilibrium the error stays relative to ``F`` itself
    instead of the ``1e-16`` absolute that rounding ``log s - 1`` costs.
    Requires ``s >= 0``, so a NaN raises; ``F(0) = 1``, and ``F`` overflows
    to ``inf`` for ``s`` near the largest float.
    """
    s = np.asarray(s, dtype=float)
    if not np.all(s >= 0.0):
        raise DomainError("F(s) = s(log s - 1) + 1 requires s >= 0, and not NaN")
    with np.errstate(over="ignore"):
        return _entropy_F(s)


def entropy_FLdelta(s, cutoff: CutoffParams):
    """Regularized entropy ``F^L_delta`` and its first two derivatives on
    all of R.

    ``F^L_delta`` is ``F`` on ``[delta, L]`` and the quadratic ``C^2``
    Taylor continuation of ``F`` from the nearer cut-off outside it: with
    ``m = clip(s, delta, L)``,

        F^L_delta(s) = F(m) + log(m) (s - m) + (s - m)^2 / (2 m),

    with ``F(m)`` from :func:`entropy_F`'s form; so
    ``[F^L_delta]'(s) = log(m) + (s - m)/m`` and
    ``(F^L_delta)''(s) = 1/m = 1 / beta^L_delta(s)``.
    """
    s = np.asarray(s, dtype=float)
    m = np.clip(s, cutoff.delta, cutoff.L)
    log_m = np.log(m)
    ds = s - m
    return (_entropy_F(m) + log_m * ds + ds * ds / (2.0 * m),
            log_m + ds / m, 1.0 / m)
