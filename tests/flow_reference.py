"""Loop-built staggered-grid operators: the cell-by-cell reference that the
stencil-written operators of ``feneflow.flowspace`` are checked against
entry for entry, and the bordered saddle-point solve with a mean-zero
pressure that the stream-function ``stokes_solver`` is checked against.
Each builder reads as the stencil it encodes; none of them is used by the
package.  :func:`convection_reference` is the scipy assembly of the
convection operator that ``convection_matrix`` replaced by writing its CSR
from the five-point stencil.  :func:`project_divergence_free` is the
L2-orthogonal projection onto divergence-free faces, through the package's
own ``stokes_solver``; the tests draw their divergence-free fields with it.
:func:`momentum_energy_residual` is the defect of the momentum step's
discrete kinetic-energy identity."""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from feneflow.flowspace import stokes_solver


def _u_index(N: int):
    # x-velocity on interior vertical faces: i = 0..N-2 (x=(i+1)h), j = 0..N-1
    return lambda i, j: i * N + j


def _v_index(N: int, n_u: int):
    # y-velocity on interior horizontal faces: i = 0..N-1, j = 0..N-2
    return lambda i, j: n_u + i * (N - 1) + j


def loop_flow_operators(N: int, side: float = 1.0):
    """``(D, G, K, (Txx, Txy, Tyx, Tyy))`` assembled one cell/face at a time."""
    h = side / N
    n_u = (N - 1) * N
    n_v = N * (N - 1)
    n_c = N * N
    uid = _u_index(N)
    vid = _v_index(N, n_u)

    # ---- divergence -------------------------------------------------------
    rows, cols, vals = [], [], []
    for ci in range(N):
        for cj in range(N):
            c = ci * N + cj
            if ci <= N - 2:  # east u-face
                rows.append(c), cols.append(uid(ci, cj)), vals.append(1.0 / h)
            if ci >= 1:  # west u-face
                rows.append(c), cols.append(uid(ci - 1, cj)), vals.append(-1.0 / h)
            if cj <= N - 2:  # north v-face
                rows.append(c), cols.append(vid(ci, cj)), vals.append(1.0 / h)
            if cj >= 1:  # south v-face
                rows.append(c), cols.append(vid(ci, cj - 1)), vals.append(-1.0 / h)
    D = sp.csr_matrix((vals, (rows, cols)), shape=(n_c, n_u + n_v))
    G = (-D.T).tocsr()

    # ---- viscous (minus vector Laplacian, ghost-reflected no-slip) --------
    rows, cols, vals = [], [], []

    def lap_entry(r, c, v):
        rows.append(r), cols.append(c), vals.append(v / (h * h))

    for i in range(N - 1):
        for j in range(N):
            r = uid(i, j)
            diag = 4.0
            if i > 0:
                lap_entry(r, uid(i - 1, j), -1.0)
            if i < N - 2:
                lap_entry(r, uid(i + 1, j), -1.0)
            if j > 0:
                lap_entry(r, uid(i, j - 1), -1.0)
            else:
                diag += 1.0  # ghost u(-h/2) = -u(h/2) across the wall
            if j < N - 1:
                lap_entry(r, uid(i, j + 1), -1.0)
            else:
                diag += 1.0
            lap_entry(r, r, diag)
    for i in range(N):
        for j in range(N - 1):
            r = vid(i, j)
            diag = 4.0
            if j > 0:
                lap_entry(r, vid(i, j - 1), -1.0)
            if j < N - 2:
                lap_entry(r, vid(i, j + 1), -1.0)
            if i > 0:
                lap_entry(r, vid(i - 1, j), -1.0)
            else:
                diag += 1.0
            if i < N - 1:
                lap_entry(r, vid(i + 1, j), -1.0)
            else:
                diag += 1.0
            lap_entry(r, r, diag)
    K = sp.csr_matrix((vals, (rows, cols)), shape=(n_u + n_v, n_u + n_v))

    # ---- cell velocity-gradient tensor ------------------------------------
    rows_xx, cols_xx, vals_xx = [], [], []
    rows_yy, cols_yy, vals_yy = [], [], []
    for ci in range(N):
        for cj in range(N):
            c = ci * N + cj
            if ci <= N - 2:
                rows_xx.append(c), cols_xx.append(uid(ci, cj)), vals_xx.append(1.0 / h)
            if ci >= 1:
                rows_xx.append(c), cols_xx.append(uid(ci - 1, cj)), vals_xx.append(-1.0 / h)
            if cj <= N - 2:
                rows_yy.append(c), cols_yy.append(vid(ci, cj)), vals_yy.append(1.0 / h)
            if cj >= 1:
                rows_yy.append(c), cols_yy.append(vid(ci, cj - 1)), vals_yy.append(-1.0 / h)
    Txx = sp.csr_matrix((vals_xx, (rows_xx, cols_xx)), shape=(n_c, n_u + n_v))
    Tyy = sp.csr_matrix((vals_yy, (rows_yy, cols_yy)), shape=(n_c, n_u + n_v))

    rows_xy, cols_xy, vals_xy = [], [], []
    rows_yx, cols_yx, vals_yx = [], [], []
    for ci in range(N):
        for cj in range(N):
            c = ci * N + cj
            # du/dy at cell: difference of row-averaged u over rows cj+1, cj-1
            for jj, s in ((cj + 1, 1.0), (cj - 1, -1.0)):
                if 0 <= jj <= N - 1:
                    wgt = s / (4.0 * h)
                    refl = 1.0
                else:
                    jj = cj  # ghost row reflects the wall-adjacent row
                    wgt = s / (4.0 * h)
                    refl = -1.0
                for ii in (ci - 1, ci):
                    if 0 <= ii <= N - 2:
                        rows_xy.append(c), cols_xy.append(uid(ii, jj)), vals_xy.append(wgt * refl)
            # dv/dx at cell: difference of column-averaged v over columns ci+1, ci-1
            for ii, s in ((ci + 1, 1.0), (ci - 1, -1.0)):
                if 0 <= ii <= N - 1:
                    wgt = s / (4.0 * h)
                    refl = 1.0
                else:
                    ii = ci
                    wgt = s / (4.0 * h)
                    refl = -1.0
                for jj in (cj - 1, cj):
                    if 0 <= jj <= N - 2:
                        rows_yx.append(c), cols_yx.append(vid(ii, jj)), vals_yx.append(wgt * refl)
    Txy = sp.csr_matrix((vals_xy, (rows_xy, cols_xy)), shape=(n_c, n_u + n_v))
    Tyx = sp.csr_matrix((vals_yx, (rows_yx, cols_yx)), shape=(n_c, n_u + n_v))
    return D, G, K, (Txx, Txy, Tyx, Tyy)


def loop_plain_advection_matrix(N: int, side: float, vfield: np.ndarray) -> sp.csr_matrix:
    """Centred matrix of ``w -> (v . grad) w`` on faces (before antisymmetrization)."""
    h = side / N
    n_u = (N - 1) * N
    n = 2 * n_u
    uid = _u_index(N)
    vid = _v_index(N, n_u)
    u = vfield[:n_u].reshape(N - 1, N)
    v = vfield[n_u:].reshape(N, N - 1)

    rows, cols, vals = [], [], []

    def add(r, c, val):
        if val != 0.0:
            rows.append(r), cols.append(c), vals.append(val)

    # --- u rows: vx = u at the face, vy = average of 4 neighbours ---
    for i in range(N - 1):
        for j in range(N):
            r = uid(i, j)
            vx = u[i, j]
            vy = 0.0
            for jv in (j - 1, j):
                if 0 <= jv <= N - 2:
                    vy += v[i, jv] + v[i + 1, jv]
            vy *= 0.25
            # vx * dw_u/dx (centred; boundary u-faces are zero)
            if i - 1 >= 0:
                add(r, uid(i - 1, j), -vx / (2 * h))
            if i + 1 <= N - 2:
                add(r, uid(i + 1, j), vx / (2 * h))
            # vy * dw_u/dy with ghost reflection at the walls
            if j - 1 >= 0:
                add(r, uid(i, j - 1), -vy / (2 * h))
            else:
                add(r, uid(i, j), vy / (2 * h))
            if j + 1 <= N - 1:
                add(r, uid(i, j + 1), vy / (2 * h))
            else:
                add(r, uid(i, j), -vy / (2 * h))

    # --- v rows: vy = v at the face, vx = average of 4 neighbours ---
    for i in range(N):
        for j in range(N - 1):
            r = vid(i, j)
            vy = v[i, j]
            vx = 0.0
            for iu in (i - 1, i):
                if 0 <= iu <= N - 2:
                    vx += u[iu, j] + u[iu, j + 1]
            vx *= 0.25
            if j - 1 >= 0:
                add(r, vid(i, j - 1), -vy / (2 * h))
            if j + 1 <= N - 2:
                add(r, vid(i, j + 1), vy / (2 * h))
            if i - 1 >= 0:
                add(r, vid(i - 1, j), -vx / (2 * h))
            else:
                add(r, vid(i, j), vx / (2 * h))
            if i + 1 <= N - 1:
                add(r, vid(i + 1, j), vx / (2 * h))
            else:
                add(r, vid(i, j), -vx / (2 * h))

    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def loop_convection_matrix(N: int, side: float, vfield: np.ndarray) -> sp.csr_matrix:
    A = loop_plain_advection_matrix(N, side, np.asarray(vfield, dtype=float))
    return ((A - A.T) * 0.5).tocsr()


def convection_reference(grid, vfield: np.ndarray) -> sp.csr_matrix:
    """``(A - A^T) / 2`` by sparse products: the centred advection stencils
    (``N`` only; between interior faces along each face normal, with ghost
    reflection across it) scaled row-wise by the advecting velocity through
    ``diags`` products, divided by ``2 h`` entry by entry, antisymmetrized."""
    N, n_u = grid.N, grid.n_u
    vfield = np.asarray(vfield, dtype=float)
    u = vfield[:n_u].reshape(N - 1, N)
    v = vfield[n_u:].reshape(N, N - 1)

    def centred(n, ghost):
        C = sp.eye(n, k=1) - sp.eye(n, k=-1)
        if ghost:
            C = C + sp.diags([[1.0] + [0.0] * (n - 2) + [-1.0]], [0], shape=(n, n))
        return C.tocsr()

    def cross_average(w):
        # the four other-family faces around each face; beyond a wall, zero
        pair = np.zeros((w.shape[0] - 1, w.shape[0] + 1))
        pair[:, 1:-1] = w[:-1] + w[1:]
        return (pair[:, :-1] + pair[:, 1:]) * 0.25

    I_c, I_f = sp.identity(N), sp.identity(N - 1)
    C_wall, C_ghost = centred(N - 1, False), centred(N, True)
    du_dx, du_dy = sp.kron(C_wall, I_c), sp.kron(I_f, C_ghost)
    dv_dx, dv_dy = sp.kron(C_ghost, I_f), sp.kron(I_c, C_wall)
    A_u = sp.diags(u.ravel()) @ du_dx + sp.diags(cross_average(v).ravel()) @ du_dy
    A_v = sp.diags(cross_average(u.T).T.ravel()) @ dv_dx + sp.diags(v.ravel()) @ dv_dy
    A = sp.csr_matrix(sp.block_diag([A_u, A_v]), copy=True)
    A.sum_duplicates()
    A.data = A.data / (2 * grid.h)
    A.eliminate_zeros()
    return ((A - A.T) * 0.5).tocsr()


def scalar_dirichlet_stiffness(N: int, side: float = 1.0) -> sp.csr_matrix:
    """Cell-centred scalar minus-Laplacian with ghost-reflected walls."""
    h = side / N
    rows, cols, vals = [], [], []
    for i in range(N):
        for j in range(N):
            r = i * N + j
            diag = 4.0
            for ii, jj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if 0 <= ii < N and 0 <= jj < N:
                    rows.append(r), cols.append(ii * N + jj), vals.append(-1.0 / (h * h))
                else:
                    diag += 1.0
            rows.append(r), cols.append(r), vals.append(diag / (h * h))
    return sp.csr_matrix((vals, (rows, cols)), shape=(N * N, N * N))


def cell_neumann_stiffness(N: int) -> sp.csr_matrix:
    """Unscaled 5-point stiffness on cells with no-flux walls, from the
    explicit 1D stencil: diagonal 1 at the walls, 2 inside, -1 off it."""
    main = np.full(N, 2.0)
    main[0] = main[-1] = 1.0
    S1 = sp.diags([main, -np.ones(N - 1), -np.ones(N - 1)], [0, -1, 1], format="csr")
    I = sp.identity(N, format="csr")
    return (sp.kron(S1, I) + sp.kron(I, S1)).tocsr()


def bordered_stokes_solver(grid, A):
    """The saddle-point solve with a mean-zero pressure, bordered by a dense
    row and column of ones and one multiplier, ``G = -D^T`` being the
    gradient:

        [[A,      h^2 G,   0     ],
         [h^2 D,  0,       h^2 1 ],
         [0,      h^2 1^T, 0     ]]

    returns ``solve(r) -> u``."""
    n = grid.n_u + grid.n_v
    h2 = grid.h * grid.h
    ones = np.ones(grid.n_c)
    lu = spla.splu(sp.bmat(
        [
            [A, -h2 * grid.D.T, None],
            [h2 * grid.D, None, h2 * ones[:, None]],
            [None, h2 * ones[None, :], None],
        ],
        format="csc",
    ))
    constraint_rhs = np.zeros(grid.n_c + 1)

    def solve(r):
        return lu.solve(np.concatenate([r, constraint_rhs]))[:n]

    return solve


def project_divergence_free(grid, w):
    """L2-orthogonal projection onto the discretely divergence-free subspace:
    the constrained solve with ``A = I``, which returns
    ``C (C^T C)^{-1} C^T w``.  Idempotent to rounding; gradients ``-D^T p``
    project to zero, because ``C^T D^T = (D C)^T = 0``."""
    w = np.asarray(w, dtype=float)
    return stokes_solver(grid, sp.identity(grid.n_u + grid.n_v, format="csr"))(w)


def momentum_energy_residual(flow, u_prev: np.ndarray, u_new: np.ndarray,
                             stress_pairing: float, dt: float, nu: float,
                             k: float, f_work: float = 0.0) -> float:
    """Absolute defect of the discrete kinetic-energy identity

        |u_n|^2 + |u_n - u_prev|^2 + 2 dt nu |grad u_n|^2
            = |u_prev|^2 - 2 dt k (C_hat : grad u_n) + 2 dt (f, u_n).

    ``stress_pairing`` is ``h^2 sum_cells C_hat : grad u_n``.
    """
    lhs = flow.norm_sq(u_new) + flow.norm_sq(u_new - u_prev) \
        + 2.0 * dt * nu * flow.grad_norm_sq(u_new)
    rhs = flow.norm_sq(u_prev) - 2.0 * dt * k * stress_pairing + 2.0 * dt * f_work
    return abs(lhs - rhs)
