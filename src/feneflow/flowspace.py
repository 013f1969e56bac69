"""Staggered-grid incompressible flow operators on the square ``(0, S)^2``.

Velocity unknowns live on interior cell faces (MAC layout: x-velocity on
vertical faces, y-velocity on horizontal faces), with strong no-slip walls:
normal boundary faces are identically zero and tangential wall values enter
through ghost reflection.  The discrete divergence ``D`` maps faces to cell
centres, and the discrete curl ``C`` maps a stream function on the interior
grid nodes (zero on the walls) to faces.  ``D C = 0`` holds exactly, entry
for entry, and with no-flux walls every discretely divergence-free velocity
is ``u = C s`` for exactly one ``s`` (Nicolaides, SIAM J. Numer. Anal. 29,
1992).  So a velocity update is solved in the stream-function basis, with
no pressure at all (the null-space method, Benzi, Golub & Liesen, Acta
Numerica 14, 2005, section 6): ``A u = r`` tested with every ``C t`` gives
``C^T A C s = C^T r``, with ``A`` and ``r`` taken as written: a common
factor such as the ``h^2`` face measure cancels, so no caller applies it.
Testing with the solution ``u = C s`` itself gives
``u^T A u = u^T r`` exactly, which is the identity that the pressure's
adjointness gave in the saddle-point form.

Both direct solves, of ``C^T A C`` and (once per grid) of the viscous
operator behind :func:`dual_norm_sq`, are one banded LAPACK LU on the band
that :func:`band_storage` reads off the sparse matrix.

Convection is written in antisymmetrized form, entry by entry from its
five-point stencil, so the trilinear form is exactly skew-symmetric.  The
viscous operator is symmetric positive definite and *defines* the discrete
Dirichlet energy ``|grad u|^2 = <K u, u>``.  With ``D C = 0`` these combine into an exact
per-step kinetic-energy identity for the implicit momentum update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgbtrf, dgbtrs

__all__ = [
    "FlowGrid",
    "build_flow_grid",
    "five_point_csr",
    "band_storage",
    "banded_solver",
    "stokes_solver",
    "project_divergence_free",
    "smooth_initial_velocity",
    "convection_matrix",
    "poincare_constant",
    "dual_norm_sq",
]


@dataclass
class FlowGrid:
    """Operators and index bookkeeping for one staggered grid.

    Attributes:
        N: cells per direction.
        h: mesh width ``S / N``.
        side: domain side length ``S``.
        n_u, n_v, n_c: unknown counts (x-faces, y-faces, cells).
        D: divergence, faces -> cells, entries ``+-1/h``.
        curl: stream function on the ``(N-1)^2`` interior nodes -> faces,
           entries ``+-1/h``; ``D @ curl`` has no stored entry.
        K: vector Dirichlet "stiffness" (minus Laplacian) on faces; SPD.
        grad: cell velocity gradient, faces -> ``4 n_c`` rows, row ``4 c + 2 a
           + b`` holding entry ``(a, b)`` of the tensor at cell ``c``; rows
           ``4 c`` and ``4 c + 3`` sum to the divergence row-for-row.
        xu, yu, xv, yv: face-centre coordinates for sampling analytic data.

    Neither convection nor the cell stiffness ``h^2 D D^T`` is stored: each
    is a five-point stencil per face or cell, written into a CSR matrix by
    :func:`five_point_csr` when it is needed (:func:`convection_matrix`,
    ``stepping._transport_csr``).
    """

    N: int
    h: float
    side: float
    n_u: int
    n_v: int
    n_c: int
    D: sp.csr_matrix
    curl: sp.csr_matrix
    K: sp.csr_matrix
    grad: sp.csr_matrix
    xu: np.ndarray
    yu: np.ndarray
    xv: np.ndarray
    yv: np.ndarray

    @cached_property
    def _viscous_solve(self):  # factored on first use by dual_norm_sq
        return banded_solver(*band_storage(self.K))

    @cached_property
    def _curl_t(self) -> sp.csr_matrix:  # faces -> nodes, for stokes_solver
        return self.curl.T.tocsr()

    @cached_property
    def _grad_t(self) -> sp.csr_matrix:  # cell tensors -> faces, for the stress force
        return self.grad.T.tocsr()

    # ---- inner products ---------------------------------------------------

    def ip(self, a: np.ndarray, c: np.ndarray) -> float:
        """L2 inner product of face fields: ``h^2 * a . c``."""
        return float(self.h * self.h * (a @ c))

    def norm_sq(self, a: np.ndarray) -> float:
        return self.ip(a, a)

    def grad_norm_sq(self, a: np.ndarray) -> float:
        """Discrete ``int |grad a|^2`` induced by the viscous operator."""
        return float(self.h * self.h * (a @ (self.K @ a)))

    def divergence(self, a: np.ndarray) -> np.ndarray:
        return self.D @ a

    def cell_velocity_gradient(self, a: np.ndarray) -> np.ndarray:
        """Velocity-gradient tensor per cell, shape ``(n_c, 2, 2)``;
        the trace equals the discrete divergence row-for-row."""
        return (self.grad @ a).reshape(self.n_c, 2, 2)

    def sample_faces(self, fx: Callable, fy: Callable) -> np.ndarray:
        """Sample an analytic vector field at the face centres."""
        return np.concatenate([fx(self.xu, self.yu), fy(self.xv, self.yv)])


def _slot_csr(columns: np.ndarray, values: np.ndarray, keep: np.ndarray,
              n_cols: int) -> sp.csr_matrix:
    """CSR matrix whose row ``r`` stores ``values[r, k]`` in column
    ``columns[r, k]`` for each slot ``k`` with ``keep[r, k]``, in slot order,
    so the kept columns of each row must ascend."""
    indptr = np.zeros(keep.shape[0] + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    return sp.csr_matrix((values[keep], columns[keep].astype(np.int32), indptr),
                         shape=(keep.shape[0], n_cols))


def _curl(N: int, h: float) -> sp.csr_matrix:
    """``(n_u + n_v, (N-1)^2)`` discrete curl of a stream function ``s`` on
    the interior nodes ``((a+1) h, (b+1) h)``, numbered ``a (N-1) + b``, with
    ``s = 0`` on the walls.  On the nodes ``s[p, q]`` at ``(p h, q h)``,
    ``u[i, j] = (s[i+1, j+1] - s[i+1, j]) / h`` and
    ``v[i, j] = -(s[i+1, j+1] - s[i, j+1]) / h``; a wall node's term is left
    out.  Each cell's divergence then sums the four corner values of ``s``
    once with each sign, so ``D C = 0`` exactly.
    """
    m = N - 1
    n_u = m * N
    i, j = np.divmod(np.arange(n_u), N)          # u faces (i, j)
    a, b = np.divmod(np.arange(N * m), m)        # v faces (a, b)
    # u face: node (i, j-1), node (i, j); v face: node (a-1, b), node (a, b)
    columns = np.concatenate([np.stack([i * m + j - 1, i * m + j], axis=1),
                              np.stack([(a - 1) * m + b, a * m + b], axis=1)])
    keep = np.concatenate([np.stack([j > 0, j < m], axis=1),
                           np.stack([a > 0, a < m], axis=1)])
    signs = np.repeat([[-1.0, 1.0], [1.0, -1.0]], n_u, axis=0)
    return _slot_csr(columns, signs / h, keep, m * m)


def build_flow_grid(N: int, side: float = 1.0) -> FlowGrid:
    """Assemble the divergence, curl, viscous and velocity-gradient operators.

    Face arrays are ordered x-index-major: ``u`` faces as ``(N-1, N)``,
    ``v`` faces as ``(N, N-1)``, cells as ``(N, N)``.  Each operator is
    written into its CSR straight from its per-cell or per-face stencil of
    small integers ``v``, every stored value being ``v / h``, ``v / h^2`` or
    ``v / (4 h)``; no zero is stored and each row's columns ascend.
    """
    if N < 4:
        raise ValueError(f"flow grid needs at least 4 cells per side, got {N}")
    if not (side > 0.0 and math.isfinite(side)):
        raise ValueError(f"flow grid needs a positive finite side, got {side}")
    h = side / N
    n_u = (N - 1) * N
    n_v = N * (N - 1)
    n_c = N * N

    # divergence: cell (ci, cj) differences its u faces (ci-1, cj) and
    # (ci, cj), numbered i N + j, and its v faces (ci, cj-1) and (ci, cj),
    # numbered n_u + i (N-1) + j; a missing face is a zero normal wall face
    c = np.arange(n_c)
    ci, cj = np.divmod(c, N)
    west, east, south, north = ci > 0, ci < N - 1, cj > 0, cj < N - 1
    v_face = n_u + c - ci                       # v face (ci, cj)
    faces = np.stack([c - N, c, v_face - 1, v_face], axis=1)
    sides = np.stack([west, east, south, north], axis=1)
    differences = np.broadcast_to([-1.0, 1.0, -1.0, 1.0], faces.shape) / h
    D = _slot_csr(faces, differences, sides, n_u + n_v)

    # viscous (minus vector Laplacian): no-slip walls are zero normal faces
    # (Dirichlet, a slot beyond the block) and ghost-reflected tangential
    # values, u(-h/2) = -u(h/2), one more on the diagonal per wall
    Ku = np.full((N - 1, N, 5), -1.0)
    Ku[..., 2] = 4.0
    Ku[:, [0, -1], 2] = 5.0
    Kv = np.full((N, N - 1, 5), -1.0)
    Kv[..., 2] = 4.0
    Kv[[0, -1], :, 2] = 5.0
    K = five_point_csr(Ku / (h * h), Kv / (h * h))

    # cell velocity-gradient tensor, entry (a, b) of cell c in row
    # 4 c + 2 a + b: diagonal entries are the exact divergence pieces,
    # off-diagonal ones centred differences across the two rows (du/dy) or
    # columns (dv/dx) of faces around the cell, each summed over its pair of
    # faces; a row beyond a wall is the reflected wall-adjacent row
    low_u, high_u = np.where(south, -1.0, 1.0), np.where(north, 1.0, -1.0)
    low_v, high_v = np.where(west, -1.0, 1.0), np.where(east, 1.0, -1.0)
    v_low, v_high = v_face - west * (N - 1), v_face + east * (N - 1)
    columns = np.stack([faces,
                        np.stack([c - N - south, c - N + north, c - south, c + north], axis=1),
                        np.stack([v_low - 1, v_low, v_high - 1, v_high], axis=1),
                        faces], axis=1)
    values = np.stack([differences,
                       np.stack([low_u, high_u, low_u, high_u], axis=1) / (4.0 * h),
                       np.stack([low_v, low_v, high_v, high_v], axis=1) / (4.0 * h),
                       differences], axis=1)
    keep = np.stack([sides & [True, True, False, False],
                     np.stack([west, west, east, east], axis=1),
                     np.stack([south, north, south, north], axis=1),
                     sides & [False, False, True, True]], axis=1)
    grad = _slot_csr(columns.reshape(-1, 4), values.reshape(-1, 4), keep.reshape(-1, 4),
                     n_u + n_v)

    ih = np.arange(1, N) * h
    jh = (np.arange(N) + 0.5) * h
    xu, yu = np.meshgrid(ih, jh, indexing="ij")
    xv, yv = np.meshgrid(jh, ih, indexing="ij")

    return FlowGrid(
        N=N, h=h, side=side, n_u=n_u, n_v=n_v, n_c=n_c,
        D=D, curl=_curl(N, h), K=K, grad=grad,
        xu=xu.ravel(), yu=yu.ravel(), xv=xv.ravel(), yv=yv.ravel(),
    )


# --------------------------------------------------------------------------
# banded direct solves and the divergence-constrained solve
# --------------------------------------------------------------------------


def five_point_csr(*blocks: np.ndarray) -> sp.csr_matrix:
    """Block-diagonal CSR matrix of five-point stencils.

    Each block is an ``(n_x, n_y, 5)`` array on a grid of unknowns ``(i,
    j)``, numbered ``i n_y + j`` after the unknowns of the blocks before it.
    Row ``(i, j)`` holds its coefficients of ``(i-1, j)``, ``(i, j-1)``,
    ``(i, j)``, ``(i, j+1)`` and ``(i+1, j)``, in that (column) order.  The
    slots of neighbours beyond the block are left out; every other slot is
    stored, zeros included.
    """
    columns, keep, start = [], [], 0
    for slots in blocks:
        n_x, n_y = slots.shape[:2]
        inside = np.ones(slots.shape, dtype=bool)
        inside[0, :, 0] = inside[:, 0, 1] = inside[:, -1, 3] = inside[-1, :, 4] = False
        columns.append(start + np.arange(n_x * n_y)[:, None] + np.array([-n_y, -1, 0, 1, n_y]))
        keep.append(inside.reshape(-1, 5))
        start += n_x * n_y
    values = np.concatenate([slots.reshape(-1, 5) for slots in blocks])
    return _slot_csr(np.concatenate(columns), values, np.concatenate(keep), start)


def band_storage(M: sp.spmatrix) -> Tuple[np.ndarray, int, int]:
    """``M`` (square, no duplicate entries) in LAPACK general-band storage.

    Returns ``(ab, kl, ku)``: the half-bandwidths are read off the stored
    pattern, explicit zeros included, and entry ``(r, c)`` sits in row
    ``kl + ku + r - c`` of the Fortran-ordered ``(2 kl + ku + 1, n)`` array
    ``ab``, whose first ``kl`` rows stay zero for the fill-in of ``dgbtrf``'s
    row pivoting.
    """
    M = M.tocoo()
    offset = M.row - M.col
    kl, ku = max(int(offset.max()), 0), max(int(-offset.min()), 0)
    ab = np.zeros((2 * kl + ku + 1, M.shape[0]), order="F")
    ab[kl + ku + offset, M.col] = M.data
    return ab, kl, ku


def banded_solver(ab: np.ndarray, kl: int, ku: int) -> Callable[[np.ndarray], np.ndarray]:
    """Factor the matrix ``M`` whose band :func:`band_storage` returns as
    ``(ab, kl, ku)`` by LAPACK ``dgbtrf`` (banded LU with partial pivoting),
    and return ``solve(b) -> M^{-1} b``, one ``dgbtrs`` per call.  The
    factor overwrites ``ab``, and ``solve`` reads it there.  A singular
    factor raises ``LinAlgError``."""
    lu, piv, info = dgbtrf(ab, kl, ku, overwrite_ab=1)
    if info != 0:
        raise LinAlgError(f"banded LU: dgbtrf returned info={info} "
                          f"({'singular matrix' if info > 0 else 'illegal argument'})")
    return lambda b: dgbtrs(lu, kl, ku, b, piv)[0]


def stokes_solver(grid: FlowGrid, A: sp.spmatrix) -> Callable[[np.ndarray], np.ndarray]:
    """Factor the velocity update ``A u = r`` restricted to discretely
    divergence-free ``u``, and return ``solve(r) -> u``.

    The update is solved for the stream function: ``u = C s`` with
    ``C^T A C s = C^T r``, where ``C`` is ``grid.curl``.  ``C^T A C`` is
    nonsingular when the symmetric part of ``A`` is positive definite, as
    it is for every caller, because ``C`` has full column rank.  ``D u = 0``
    holds for every ``s``, since ``D C = 0``.

    With the nodes numbered ``a (N-1) + b``, ``C^T A C`` is banded, with
    half-bandwidth ``2 (N-1)`` for the viscous and convective stencils, and
    is factored once by :func:`banded_solver`.
    """
    Ct = grid._curl_t
    solve_nodes = banded_solver(*band_storage(Ct @ (A @ grid.curl)))
    return lambda r: grid.curl @ solve_nodes(Ct @ r)


def project_divergence_free(grid: FlowGrid, w: np.ndarray) -> np.ndarray:
    """L2-orthogonal projection onto the discretely divergence-free subspace:
    the constrained solve with ``A = I``, which returns
    ``C (C^T C)^{-1} C^T w``.  Idempotent to rounding; gradients ``-D^T p``
    project to zero, because ``C^T D^T = (D C)^T = 0``."""
    w = np.asarray(w, dtype=float)
    return stokes_solver(grid, sp.identity(grid.n_u + grid.n_v, format="csr"))(w)


def smooth_initial_velocity(grid: FlowGrid, u0: np.ndarray, dt: float) -> np.ndarray:
    """One implicit Helmholtz step inside the divergence-free subspace:

        (u, v) + dt (grad u, grad v) = (u0, v)   for all div-free v,

    realized as the constrained solve with ``A = I + dt K``.
    Guarantees ``|u|^2 + dt |grad u|^2 <= |u0|^2`` (checked by the caller's
    tests).
    """
    if not (dt > 0.0) or not math.isfinite(dt):
        raise ValueError(f"smoothing step needs a positive finite dt, got {dt}")
    u0 = np.asarray(u0, dtype=float)
    A = sp.identity(grid.n_u + grid.n_v, format="csr") + dt * grid.K
    return stokes_solver(grid, A)(u0)


# --------------------------------------------------------------------------
# convection
# --------------------------------------------------------------------------


def _cross_average(w: np.ndarray) -> np.ndarray:
    """Average of the four other-family faces around each face.

    ``w`` holds the other family as ``(n, n-1)``; the result is ``(n-1, n)``,
    and the faces beyond a wall contribute zero (normal no-slip faces).
    """
    pair = np.zeros((w.shape[0] - 1, w.shape[0] + 1))
    pair[:, 1:-1] = w[:-1] + w[1:]
    return (pair[:, :-1] + pair[:, 1:]) * 0.25


def _skew_stencil(along_x: np.ndarray, along_y: np.ndarray) -> np.ndarray:
    """Five-point slots (for :func:`five_point_csr`) of ``(A - A^T) / 2`` on
    one face family, ``A`` being the centred difference along each axis
    scaled row-wise by ``along_x`` or ``along_y`` (the advecting velocity
    over ``2 h``, one value per face).

    Neighbours ``r`` and ``c`` one face apart along an axis give ``A_rc =
    a_r`` and ``A_cr = -a_c``, so the pair's entries are ``+-(a_r + a_c) /
    2``.  A wall's ghost reflection sits on the diagonal of ``A``, where
    ``A - A^T`` is 0."""
    slots = np.zeros(along_x.shape + (5,))
    pair_x = (along_x[:-1] + along_x[1:]) * 0.5
    pair_y = (along_y[:, :-1] + along_y[:, 1:]) * 0.5
    slots[:-1, :, 4] = pair_x
    slots[1:, :, 0] = -pair_x
    slots[:, :-1, 3] = pair_y
    slots[:, 1:, 1] = -pair_y
    return slots


def convection_matrix(grid: FlowGrid, vfield: np.ndarray) -> sp.csr_matrix:
    """Antisymmetrized convection operator ``C(v) = (A(v) - A(v)^T) / 2``.

    ``A(v)`` is the centred matrix of ``w -> (v . grad) w`` on faces: along
    each face normal between interior faces, across it with ghost
    reflection at the walls, each face row scaled by its advecting
    velocity (the face's own component, and the average of the four
    other-family faces around it for the other).  ``C(v)`` is written
    entry by entry from the face velocities by :func:`five_point_csr`,
    with explicit zeros on the diagonal.  The induced trilinear form
    ``t(v; w1, w2) = h^2 w2 . C(v) w1`` is skew in its last two arguments,
    exactly: the two entries of each pair are each other's negatives.
    """
    N, n_u = grid.N, grid.n_u
    vfield = np.asarray(vfield, dtype=float)
    u = vfield[:n_u].reshape(N - 1, N)
    v = vfield[n_u:].reshape(N, N - 1)
    scale = 2 * grid.h
    return five_point_csr(_skew_stencil(u / scale, _cross_average(v) / scale),
                          _skew_stencil(_cross_average(u.T).T / scale, v / scale))


# --------------------------------------------------------------------------
# Poincare constant and dual norm
# --------------------------------------------------------------------------


def poincare_constant(N: int, side: float = 1.0) -> Tuple[float, float]:
    """Discrete Poincare constant ``C_P = 1/sqrt(lambda_1)`` of the Dirichlet
    Laplacian on the side-``side`` square, together with ``lambda_1``.

    ``lambda_1`` is the smallest eigenvalue of the cell-centred 5-point
    minus-Laplacian with ghost-reflected walls.  Its eigenvectors separate
    into ``sin(k pi (i + 1/2) / N)`` per direction, which vanish on the
    reflected walls, so ``lambda_1 = (8 / h^2) sin^2(pi / (2N))`` exactly.
    """
    h = side / N
    lam1 = 8.0 / (h * h) * math.sin(math.pi / (2 * N)) ** 2
    return 1.0 / math.sqrt(lam1), lam1


def dual_norm_sq(grid: FlowGrid, f: np.ndarray) -> float:
    """Square of the negative-Sobolev norm of a face field:
    ``sup_w (f, w)^2 / |grad w|^2 = h^2 f . K^{-1} f``, with ``K`` factored
    by :func:`banded_solver` once per grid."""
    f = np.asarray(f, dtype=float)
    if not np.any(f):
        return 0.0
    return float(grid.h * grid.h * (f @ grid._viscous_solve(f)))
