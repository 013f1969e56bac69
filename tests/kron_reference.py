"""Per-mode ``solve_banded`` loop: the reference that
``feneflow.stepping._kron_solve`` is checked against bit for bit.  It
copies the compact band, shifts its diagonal by the mode's eigenvalue and
hands each mode to ``scipy.linalg.solve_banded``; it is not used by the
package."""

import numpy as np
from scipy.linalg import solve_banded


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
