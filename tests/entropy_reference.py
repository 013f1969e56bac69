"""References for the regularized entropy and the secant cut-off, none used
by the package.

* :func:`routed_FLdelta` evaluates ``F^L_delta`` by routing
  ``m = clip(s, delta, L)`` through ``feneflow.kinetic.entropy_F`` (its
  ``s >= 0`` scan and ``s > 0`` masks) and adding the quadratic Taylor
  terms, their ``log m`` taken directly.
* :func:`cutoff_beta_delta` is ``beta^L_delta(s) = max(min(s, L), delta)``.
* :func:`routed_secant_coefficient` is the secant coefficient built on
  :func:`routed_FLdelta`, starting near-coincident edges from
  ``beta^L_delta`` of the midpoint.

Together they are the oracle that ``feneflow.kinetic.entropy_FLdelta`` and
``secant_cutoff_coefficient`` are checked against bit for bit.
"""

import numpy as np

from feneflow.kinetic import entropy_F


def routed_FLdelta(s, L, delta):
    """Quadratic Taylor continuation of ``F`` at ``m = clip(s, delta, L)``."""
    s = np.asarray(s, dtype=float)
    m = np.clip(s, delta, L)
    Fm, log_m = entropy_F(m), np.log(m)
    ds = s - m
    return Fm + log_m * ds + ds * ds / (2.0 * m), log_m + ds / m, 1.0 / m


def cutoff_beta_delta(s, L, delta):
    """Two-sided cut-off ``beta^L_delta(s) = max(min(s, L), delta)``."""
    return np.maximum(np.minimum(np.asarray(s, dtype=float), L), delta)


def routed_secant_coefficient(psi, edges_a, edges_b, L, delta):
    """``(c - a) / ([F^L_delta]'(c) - [F^L_delta]'(a))`` per edge, with
    ``beta^L_delta`` of the midpoint on near-coincident edges."""
    psi = np.asarray(psi, dtype=float)
    d1 = routed_FLdelta(psi, L, delta)[1]
    a, c = psi[..., edges_a], psi[..., edges_b]
    dnum = c - a
    dden = d1[..., edges_b] - d1[..., edges_a]
    out = cutoff_beta_delta(0.5 * (a + c), L, delta)
    tiny = np.abs(dnum) <= 1e-12 * (np.abs(a) + np.abs(c) + 1.0)
    np.divide(dnum, dden, out=out, where=~tiny)
    return np.clip(out, delta, L)
