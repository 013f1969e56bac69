"""References for the density transport solve, none used by the package.

* :func:`upwind_advection` and :func:`transport_matrix` assemble ``K_x =
  mass I + diffusion S_cell + Adv(u)`` as CSR, the donor-cell fluxes by
  COO scatter; :func:`band_layout` lays any CSR out in LAPACK band storage
  with half-bandwidths inferred from its sparsity.  Together they are the
  oracle that the band ``feneflow.flowspace.band_storage`` reads off
  ``feneflow.stepping._transport_csr`` is checked against bit for bit.
* :func:`loop_kron_solve` is the per-mode ``solve_banded`` loop that
  ``feneflow.stepping._kron_solve`` is checked against bit for bit: it
  copies the compact band, shifts its diagonal by the mode's eigenvalue and
  hands each mode to ``scipy.linalg.solve_banded``.
"""

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_banded

from flow_reference import cell_neumann_stiffness


def upwind_advection(grid, u):
    """Donor-cell flux matrix, scaled so the weak transport term is
    ``phi . (Adv psi)`` alongside ``h^2/dt`` mass entries.

    Columns sum to zero (each face moves mass between two rows), so total
    mass is conserved; rows applied to constants give ``h^2`` times the
    discrete divergence, which vanishes for projected velocities.
    """
    N, h = grid.N, grid.h
    uu = np.asarray(u[: grid.n_u]).reshape(N - 1, N)
    vv = np.asarray(u[grid.n_u :]).reshape(N, N - 1)

    # vertical faces between cell (i, j) and (i+1, j)
    i, j = np.meshgrid(np.arange(N - 1), np.arange(N), indexing="ij")
    left = (i * N + j).ravel()
    right = ((i + 1) * N + j).ravel()
    U = uu.ravel()
    donor_v = np.where(U > 0.0, left, right)

    # horizontal faces between cell (i, j) and (i, j+1)
    i, j = np.meshgrid(np.arange(N), np.arange(N - 1), indexing="ij")
    bot = (i * N + j).ravel()
    top = (i * N + j + 1).ravel()
    V = vv.ravel()
    donor_h = np.where(V > 0.0, bot, top)

    rows = np.concatenate([left, right, bot, top])
    cols = np.concatenate([donor_v, donor_v, donor_h, donor_h])
    vals = np.concatenate([h * U, -h * U, h * V, -h * V])
    n_c = grid.n_c
    return sp.coo_matrix((vals, (rows, cols)), shape=(n_c, n_c)).tocsr()


def transport_matrix(grid, u, diffusion, mass):
    """``mass I + diffusion S_cell + Adv(u)`` as CSR, summed in that order."""
    return (mass * sp.identity(grid.n_c, format="csr")
            + diffusion * cell_neumann_stiffness(grid.N)
            + upwind_advection(grid, u)).tocsr()


def band_layout(Kx):
    """Fortran-ordered ``(2 kl + ku + 1, n)`` band of ``Kx`` for ``dgbsv``,
    with ``kl``/``ku`` read off the sparsity pattern."""
    coo = Kx.tocoo()
    kl = int((coo.row - coo.col).max())
    ku = int((coo.col - coo.row).max())
    ab = np.zeros((2 * kl + ku + 1, Kx.shape[0]), order="F")
    ab[kl + ku + coo.row - coo.col, coo.col] = coo.data
    return ab


def band_to_dense(ab):
    """Dense matrix of a ``kl = ku`` band in ``dgbsv`` storage."""
    kl = (ab.shape[0] - 1) // 3
    n = ab.shape[1]
    r, c = np.nonzero(np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= kl)
    A = np.zeros((n, n))
    A[r, c] = ab[2 * kl + r - c, c]
    return A


def loop_kron_solve(Kx, shift_scale, ops, rhs_nodal):
    """Solve ``Kx Psi M_q + shift_scale * Psi S_q = R`` for nodal ``Psi``,
    one ``solve_banded`` call per configuration eigenmode."""
    R = ops.to_modes(rhs_nodal)
    Phi = np.empty_like(R)
    coo = Kx.tocoo()
    kl = int((coo.row - coo.col).max())
    ku = int((coo.col - coo.row).max())
    ab = np.zeros((kl + ku + 1, Kx.shape[0]))
    ab[ku + coo.row - coo.col, coo.col] = coo.data
    work = np.empty_like(ab)
    for jmode in range(R.shape[1]):
        np.copyto(work, ab)
        work[ku, :] += shift_scale * ops.evals[jmode]
        Phi[:, jmode] = solve_banded((kl, ku), work, R[:, jmode],
                                     overwrite_ab=True, check_finite=False)
    return ops.to_nodes(Phi)
