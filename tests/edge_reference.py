"""Gather/scatter references for the configuration-edge operators, none used
by the package.

:func:`edge_lists` lists each edge's tail and head node, built from the
layout formula rather than read off the grid.  The references take each edge
difference as a fancy-index gather ``x[..., edges_b] - x[..., edges_a]``
over those lists, the drag's edge divergence as a product with the sparse
incidence matrix and the stiffness as an edge-wise sparse assembly, as the
package did before ``ConfigGrid.edge_pairs`` and ``ConfigGrid.edge_divergence``
took every edge by slices of the polar node layout.  They are the oracle
those slice paths are checked against bit for bit:

* :func:`csr_stiffness` is the CSR Dirichlet form, whose entries carry the
  bits of the per-radius edge weights the separable eigenbasis is built
  from, and :func:`csr_weighted_stiffness` its mass-weighted dense copy
  ``M^{-1/2} S M^{-1/2}``.  :class:`DenseBasis` is the eigenbasis the
  package took from a dense ``eigh`` of that copy before it built one
  radial block per angular wavenumber; the separable basis is checked
  against it to a stated tolerance, not bit for bit;
* :func:`gather_stress_matrix`, :func:`gather_fisher_q` and
  :func:`gather_lsi_fisher` are ``ConfigOperators.stress_matrix``,
  ``diagnostics.fisher_q`` and the Fisher term of
  ``inequality_reference.lsi_check``;
* :func:`scatter_matrix` is the ``(nodes x edges)`` CSR with ``+1`` at each
  edge's head and ``-1`` at its tail, and :func:`scatter_drag_rhs` the drag
  functional ``(sigma : Gamma_e) c_e`` pushed through its transpose;
* :class:`GatherEdges` pairs arbitrary edge lists by gathers, so the secant
  coefficient can be evaluated on edges no polar grid has.
"""

import numpy as np
import scipy.sparse as sp


def edge_lists(grid):
    """``(edges_a, edges_b)``: tail and head node of every edge, in edge
    order.  Node ``(m, n)`` is ``m N_theta + n``; the radial edges
    ``(m, n) -> (m+1, n)`` come first, then the angular edges
    ``(m, n) -> (m, n+1 mod N_theta)``, each family in tail node order."""
    m, n = np.divmod(np.arange(grid.n_nodes), grid.N_theta)
    radial = np.flatnonzero(m < grid.N_r - 1)
    edges_a = np.concatenate([radial, np.arange(grid.n_nodes)])
    edges_b = np.concatenate([radial + grid.N_theta, m * grid.N_theta + (n + 1) % grid.N_theta])
    return edges_a, edges_b


def csr_stiffness(grid):
    """``psi -> sum_e edge_w (psi_b - psi_a) (test_b - test_a)`` assembled
    from duplicate COO entries (summed on conversion to CSR)."""
    a, b = edge_lists(grid)
    wE = grid.edge_w
    rows = np.concatenate([a, b, a, b])
    cols = np.concatenate([a, b, b, a])
    vals = np.concatenate([wE, wE, -wE, -wE])
    return sp.csr_matrix((vals, (rows, cols)), shape=(grid.n_nodes, grid.n_nodes))


def csr_weighted_stiffness(grid):
    inv_sqrt_m = 1.0 / np.sqrt(grid.w)
    S = csr_stiffness(grid)
    return S.multiply(inv_sqrt_m[:, None]).multiply(inv_sqrt_m[None, :]).toarray()


class DenseBasis:
    """Stand-in for ``ConfigOperators`` in the density solves, with the
    eigenbasis of the dense ``eigh`` of :func:`csr_weighted_stiffness`
    (eigenvalue round-off below zero clipped to 0)."""

    def __init__(self, grid):
        self.grid = grid
        evals, self.Q = np.linalg.eigh(csr_weighted_stiffness(grid))
        self.evals = np.maximum(evals, 0.0)
        self.inv_sqrt_m = 1.0 / np.sqrt(grid.w)

    def to_modes(self, rhs_nodal):
        return (rhs_nodal * self.inv_sqrt_m[None, :]) @ self.Q

    def to_nodes(self, modes):
        return (modes @ self.Q.T) * self.inv_sqrt_m[None, :]


class GatherEdges:
    """Stand-in for a ``ConfigGrid`` in ``secant_cutoff_coefficient``:
    ``edge_pairs`` by gathers over the given tail/head lists."""

    def __init__(self, edges_a, edges_b):
        self.edges_a = np.asarray(edges_a)
        self.edges_b = np.asarray(edges_b)

    def edge_pairs(self, op, field, out=None):
        field = np.asarray(field)
        return op(field[..., self.edges_b], field[..., self.edges_a], out=out)


def gather_stress_matrix(grid, psi_hat):
    a, b = edge_lists(grid)
    psi_hat = np.asarray(psi_hat, dtype=float)
    dpsi = psi_hat[..., b] - psi_hat[..., a]
    return (dpsi @ grid.edge_gamma).reshape(psi_hat.shape[:-1] + (2, 2))


def gather_fisher_q(h, grid, root):
    """``4 h^2 sum W_e (d sqrt(psi))^2`` from the clamped square root."""
    a, b = edge_lists(grid)
    d = root[:, b] - root[:, a]
    return 4.0 * h * h * float(((d * d) @ grid.edge_w).sum())


def gather_lsi_fisher(grid, root):
    a, b = edge_lists(grid)
    d = root[b] - root[a]
    return float((d * d) @ grid.edge_w)


def scatter_matrix(grid):
    a, b = edge_lists(grid)
    n_e = a.size
    return sp.coo_matrix(
        (np.concatenate([np.ones(n_e), -np.ones(n_e)]),
         (np.concatenate([b, a]), np.concatenate([np.arange(n_e), np.arange(n_e)]))),
        shape=(grid.n_nodes, n_e),
    ).tocsr()


def scatter_drag_rhs(grid, scatter, sigma, coeff_edges):
    sigma = np.asarray(sigma, dtype=float)
    sg = sigma.reshape(sigma.shape[:-2] + (4,)) @ grid.edge_gamma.T
    return (sg * coeff_edges) @ scatter.T
