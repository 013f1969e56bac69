"""Gather/scatter references for the configuration-edge operators, none used
by the package.

They take each edge difference as a fancy-index gather
``x[..., edges_b] - x[..., edges_a]`` over the grid's edge lists and the
drag's edge divergence as a product with the sparse incidence matrix, as
the package did before ``ConfigGrid.edge_pairs`` and
``ConfigGrid.edge_divergence`` took every edge by slices of the polar node
layout.  They are the oracle those slice paths are checked against bit for
bit:

* :func:`gather_stress_matrix`, :func:`gather_fisher_q` and
  :func:`gather_lsi_fisher` are ``ConfigOperators.stress_matrix``,
  ``diagnostics.fisher_q`` and the Fisher term of
  ``diagnostics.lsi_check``;
* :func:`scatter_matrix` is the ``(nodes x edges)`` CSR with ``+1`` at each
  edge's head and ``-1`` at its tail, and :func:`scatter_drag_rhs` the drag
  functional ``(sigma : Gamma_e) c_e`` pushed through its transpose;
* :class:`GatherEdges` pairs arbitrary edge lists by gathers, so the secant
  coefficient can be evaluated on edges no polar grid has.
"""

import numpy as np
import scipy.sparse as sp


class GatherEdges:
    """Stand-in for a ``ConfigGrid`` in ``secant_cutoff_coefficient``:
    ``edge_pairs`` by gathers over the given tail/head lists."""

    def __init__(self, edges_a, edges_b):
        self.edges_a = np.asarray(edges_a)
        self.edges_b = np.asarray(edges_b)

    @staticmethod
    def node_major(field):
        return np.asarray(field, dtype=float)

    def edge_pairs(self, op, head, tail, out=None):
        return op(np.asarray(head)[..., self.edges_b], np.asarray(tail)[..., self.edges_a],
                  out=out)


def gather_stress_matrix(grid, psi_hat):
    psi_hat = np.asarray(psi_hat, dtype=float)
    dpsi = psi_hat[..., grid.edges_b] - psi_hat[..., grid.edges_a]
    return (dpsi @ grid.edge_gamma).reshape(psi_hat.shape[:-1] + (2, 2))


def gather_fisher_q(h, grid, root):
    """``4 h^2 sum W_e (d sqrt(psi))^2`` from the clamped square root."""
    d = root[:, grid.edges_b] - root[:, grid.edges_a]
    return 4.0 * h * h * float(((d * d) @ grid.edge_w).sum())


def gather_lsi_fisher(grid, root):
    d = root[grid.edges_b] - root[grid.edges_a]
    return float((d * d) @ grid.edge_w)


def scatter_matrix(grid):
    n_e = grid.edges_a.size
    return sp.coo_matrix(
        (np.concatenate([np.ones(n_e), -np.ones(n_e)]),
         (np.concatenate([grid.edges_b, grid.edges_a]),
          np.concatenate([np.arange(n_e), np.arange(n_e)]))),
        shape=(grid.n_nodes, n_e),
    ).tocsr()


def scatter_drag_rhs(grid, scatter, sigma, coeff_edges):
    sigma = np.asarray(sigma, dtype=float)
    sg = sigma.reshape(sigma.shape[:-2] + (4,)) @ grid.edge_gamma.T
    return (sg * coeff_edges) @ scatter.T
