"""Configuration-space grid and operators for the spring disc ``D = B(0, sqrt(b))``.

Connectors are planar (``d = 2``) and the chain is a single spring (a
dumbbell), the only chain the coupled run discretizes, so a grid is fixed
by the FENE parameter ``b`` and its node counts.  The grid is polar: radii
are mapped Gauss-Jacobi nodes (no node at the origin or on the circle
``|q| = sqrt(b)``), angles are uniform.  The Jacobi weight exponent is chosen as ``b/2 - 1`` so that after
the substitution ``t = 2 r^2 / b - 1`` *both* families of moments that the
solver needs,

    int_D M(q) p(q) dq      and      int_D M(q) U'(|q|^2/2) p(q) dq,

are integrated exactly for polynomial ``p``.  All weighted operators come in
two flavours:

* node quadrature (mass matrix, Kramers stress, entropy integrals), and
* edge differences (Dirichlet stiffness, drag pairing, Fisher information),

where every edge carries a positive weight, so the stiffness is a symmetric
M-matrix whose kernel is exactly the constants.  Edges join radial and
angular neighbours of the polar node layout, so every edge difference
(``ConfigGrid.edge_pairs``) and its transpose, the drag's edge divergence
(``ConfigGrid.edge_divergence``), are shift and slice operations on a
node field, in whatever memory layout it has, so the secant coefficient,
the drag and the Kramers pairing all run in the density's own layout.
The run's density is node-major, every node's cells one contiguous row
(``psi.T`` C-contiguous), as ``ConfigOperators.to_nodes`` writes it: the
cell axis, along which each of those stencils repeats, is the contiguous
one, and every shift or slice of the node axis is a block of whole rows.
Mode coefficients stay C-ordered, one row per cell.  The
node weights and both edge-weight families depend on the radius alone, so
the mass-weighted stiffness is one symmetric tridiagonal ``N_r x N_r``
radial block per angular wavenumber times a real Fourier basis in the
angle (the tensor-product fast diagonalization of Lynch, Rice & Thomas,
1964).  The assembled operators carry that separable eigenbasis, computed
once per grid without ever forming the ``n_nodes x n_nodes`` stiffness; the
stepper's Kronecker solves and the spectral gap both read it.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .kinetic import (
    ConstructionError,
    InternalConsistencyError,
    fene_potential,
    maxwellian_normalizer,
    maxwellian_value,
)

__all__ = [
    "ConfigGrid",
    "ConfigOperators",
    "build_config_grid",
    "kramers_stress",
    "assemble_fp_operators",
    "spectral_gap",
    "grid_metadata",
]

MASS_TOL = 1e-8
MOMENT_TOL = 1e-6


@contextmanager
def _rows_in_place():
    """Run NumPy ufuncs on strided operands one row at a time.

    NumPy 2 runs a ufunc whose operands' rows are shorter than its buffer
    (8192 elements by default) by copying several rows at a time through
    the buffer, to lengthen the inner loop.  On the run's node-major
    fields every shift is one contiguous block, and only the wrap edges'
    per-radius rows of cells are short: their buffers take no measurable
    time but raise a step's traced peak (``fisher_q`` at 36 cells on the
    24 x 24 grid from 2.98 to 3.10 density arrays).  A 16-element buffer
    is shorter than any row, so every operand stays in place.  Only
    elementwise ufuncs run inside, so no bit changes."""
    size = np.setbufsize(16)
    try:
        yield
    finally:
        np.setbufsize(size)


@dataclass(frozen=True)
class ConfigGrid:
    """Polar quadrature/difference grid for one planar spring.

    Node and edge layout.  Node ``(m, n)`` (radius ``r[m]``, angle
    ``theta[n]``) has index ``m * N_theta + n``, so a node field's last axis
    reshapes to ``(N_r, N_theta)``.  The ``(N_r - 1) * N_theta`` radial
    edges ``(m, n) -> (m + 1, n)`` come first, then the ``N_r * N_theta``
    angular edges ``(m, n) -> (m, n + 1 mod N_theta)``, each family in node
    order of its tail.  No index list is stored: :meth:`edge_pairs` and
    :meth:`edge_divergence` take every edge by shifts along the node axis
    and slices of its ``(N_r, N_theta)`` view, in the memory layout of the
    field they are given.  Every weight depends on the radius alone, so
    each family is stored once per radius (:func:`assemble_fp_operators`
    builds its separable eigenbasis on them).

    Attributes
    ----------
    b:             FENE extensibility parameter, ``b > 2``.
    r, theta:      radial Gauss-Jacobi nodes and uniform angles.
    w_r:           normalized node weight of each radius.
    w:             read-only node weights, ``w_r`` repeated along the angle;
                   ``sum(w * g)`` approximates ``int_D M g dq`` (exactly, for
                   polynomial ``g``).
    uprime:        ``U'(|q|^2/2)`` at the nodes.
    qx, qy:        Cartesian node coordinates, flattened C-order.
    edge_w_r:      positive Dirichlet weight of the radial edges leaving
    edge_w_t:      radius ``m`` and of its angular edges.
    edge_w:        read-only edge weights, both families repeated along the
                   angle in edge order; ``sum(edge_w * dpsi^2)`` approximates
                   ``int_D M |grad psi|^2 dq``.
    edge_gamma:    per-edge ``2 x 2`` geometric factors (flattened) such that
                   ``sum_e (sigma : Gamma_e) * dpsi_e`` approximates
                   ``int_D M (sigma q) . grad psi dq``.
    Z:             Maxwellian normalizer ``2 pi b / (b + 2)``.
    mass_defect:   ``|sum(w) - 1|``, the normalized Maxwellian mass's defect.
    moment_defect: ``|sum(w |q|^2) - 2b/(b+4)|``, the second moment's defect.

    The grid is frozen: every attribute is computed when it is built, and
    :func:`build_config_grid` checks both defects.
    """

    b: float
    N_r: int
    N_theta: int
    r: np.ndarray
    theta: np.ndarray
    w_r: np.ndarray
    w: np.ndarray
    uprime: np.ndarray
    qx: np.ndarray
    qy: np.ndarray
    edge_w_r: np.ndarray
    edge_w_t: np.ndarray
    edge_w: np.ndarray
    edge_gamma: np.ndarray
    Z: float
    mass_defect: float
    moment_defect: float

    @property
    def n_nodes(self) -> int:
        return self.N_r * self.N_theta

    @property
    def n_edges(self) -> int:
        return (2 * self.N_r - 1) * self.N_theta

    def _polar(self, field: np.ndarray) -> np.ndarray:
        """View of a node field's last axis as ``(N_r, N_theta)``."""
        return field.reshape(field.shape[:-1] + (self.N_r, self.N_theta), copy=False)

    def _angular(self, edge_field: np.ndarray) -> np.ndarray:
        """View of an edge field's angular ``(N_r, N_theta)`` block."""
        return self._polar(edge_field[..., (self.N_r - 1) * self.N_theta:])

    def edge_pairs(self, op, field, out: Optional[np.ndarray] = None) -> np.ndarray:
        """``op(field at b, field at a)`` for every edge ``a -> b``, in edge
        order (last axis: edges).

        ``op`` is a binary ufunc and ``field`` a node field (last axis:
        nodes).  The result is written to ``out`` if given, else to a new
        array in the memory layout of ``field``: cell-major for a C-ordered
        field, edge-major for a node-major one such as the run's density,
        whose radial and angular shifts are then one contiguous block each.
        Each entry is one ``op`` of two node values, so its bits do not
        depend on the layout.
        """
        field = np.asarray(field)
        if out is None:
            out = np.empty_like(field, dtype=float, shape=field.shape[:-1] + (self.n_edges,))
        N_theta = self.N_theta
        n_rad = (self.N_r - 1) * N_theta
        x, ang = self._polar(field), self._angular(out)
        with _rows_in_place():
            op(field[..., N_theta:], field[..., :-N_theta], out=out[..., :n_rad])
            # the angular edges (m, n) -> (m, n + 1) as one shift along the
            # nodes; the pairs it forms across two radii are the wrap
            # edges' slots, which the last call overwrites
            op(field[..., 1:], field[..., :-1], out=out[..., n_rad:-1])
            op(x[..., :, :1], x[..., :, -1:], out=ang[..., :, -1:])
        return out

    def edge_divergence(self, values) -> np.ndarray:
        """Transpose of ``edge_pairs(np.subtract, x)``: each node sums
        ``+values`` over the edges it heads and ``-values`` over those it
        tails (last axis of ``values``: edges), in the memory layout of
        ``values``.

        Per node the terms are added to zero in increasing edge index, so
        the sums are bitwise those of the sparse incidence product.
        """
        values = np.asarray(values)
        out = np.zeros_like(values, dtype=float, shape=values.shape[:-1] + (self.n_nodes,))
        N_theta = self.N_theta
        n_rad = (self.N_r - 1) * N_theta
        rad, ang = values[..., :n_rad], values[..., n_rad:]
        y, a = self._polar(out), self._angular(values)
        with _rows_in_place():
            out[..., N_theta:] += rad            # radial edge in
            out[..., :-N_theta] -= rad           # radial edge out
            # at n = 0 the angular out-edge 0 precedes in-edge N_theta - 1;
            # the shifts below add them the other way round, so n = 0 is
            # summed aside
            first = y[..., :, 0] - a[..., :, 0]
            first += a[..., :, -1]
            out[..., 1:] += ang[..., :-1]        # angular edge in ...
            out -= ang                           # ... before angular edge out
            y[..., :, 0] = first
        return out


def _along_angle(N_theta: int, *per_radius) -> np.ndarray:
    """Read-only edge or node field repeating the per-radius values."""
    field = np.repeat(np.concatenate(per_radius), N_theta)
    field.flags.writeable = False
    return field


def _build_polar(b: float, N_r: int, N_theta: int) -> ConfigGrid:
    Z = maxwellian_normalizer(b)

    # Radial rule: t = 2 r^2 / b - 1 turns  int_0^sqrt(b) g Mtilde r dr  into
    # (b/4) 2^{-b/2} int (1-t)^{b/2} g dt; Jacobi(alpha=b/2-1) nodes make both
    # the M- and the M U'-weighted polynomial moments exact.  Golub-Welsch:
    # the nodes are the eigenvalues (ascending) of the Jacobi matrix of the
    # weight (1-t)^a, whose entries are ratios that overflow for no finite b,
    # and the Gauss weights are the weight's mass 2^{a+1}/(a+1) times each
    # eigenvector's first component squared.  That mass times (b/4) 2^{-b/2}
    # is exactly 1/2, so the scale never forms.
    a = b / 2.0 - 1.0
    n = np.arange(N_r)
    s = 2.0 * n + a
    off = 2.0 * n[1:] * ((n[1:] + a) / s[1:]) / (np.sqrt(s[1:] - 1.0) * np.sqrt(s[1:] + 1.0))
    t, v = eigh_tridiagonal(-(a / s) * (a / (s + 2.0)), off)
    if not np.all(np.abs(t) < 1.0):         # its nodes reach -1 from about b = 1e16
        raise ConstructionError(f"no Gauss-Jacobi rule with nodes in (-1, 1) for b={b}")
    r = np.sqrt(b * (1.0 + t) / 2.0)
    w_rad = 0.5 * v[0] ** 2 * (1.0 - t)     # includes Mtilde * r * dr

    theta = 2.0 * math.pi * np.arange(N_theta) / N_theta
    dth = 2.0 * math.pi / N_theta

    rr = np.repeat(r, N_theta)
    th = np.tile(theta, N_r)
    qx = rr * np.cos(th)
    qy = rr * np.sin(th)
    _, uprime = fene_potential(0.5 * rr * rr, b)

    def gamma(coeff, tangent, radius, direction):
        # coeff_m * t_n (x) (radius_m u_n): one (N_theta, 2, 2) block per radius
        qbar = radius[:, None, None] * direction[None]
        return (coeff[:, None, None, None]
                * (tangent[None, :, :, None] * qbar[:, :, None, :])).reshape(-1, 4)

    # ---- difference edges, weights per radius -----------------------------
    # radial edges (m, n) -> (m+1, n)
    rbar = 0.5 * (r[:-1] + r[1:])
    dr = r[1:] - r[:-1]
    er = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    w_edge_r = maxwellian_value(rbar, b) * rbar * dth
    gamma_r = gamma(w_edge_r, er, rbar, er)

    # angular edges (m, n) -> (m, n+1 mod N_theta)
    thbar = theta + dth / 2.0
    et = np.stack([-np.sin(thbar), np.cos(thbar)], axis=1)
    gamma_t = gamma(w_rad / (Z * r * dth), et, r,
                    np.stack([np.cos(thbar), np.sin(thbar)], axis=1))

    w_r = w_rad * dth / Z
    edge_w_r = w_edge_r / dr
    edge_w_t = w_rad * dth / (Z * r ** 2 * dth**2)
    w = _along_angle(N_theta, w_r)
    m2 = float(np.sum(w * (qx**2 + qy**2)))
    return ConfigGrid(b=b, N_r=N_r, N_theta=N_theta, r=r, theta=theta,
                      w_r=w_r, w=w, uprime=uprime, qx=qx, qy=qy,
                      edge_w_r=edge_w_r, edge_w_t=edge_w_t,
                      edge_w=_along_angle(N_theta, edge_w_r, edge_w_t),
                      edge_gamma=np.concatenate([gamma_r, gamma_t], axis=0), Z=Z,
                      mass_defect=abs(float(np.sum(w)) - 1.0),
                      moment_defect=abs(m2 - 2.0 * b / (b + 4.0)))


def build_config_grid(b: float, N_r: int, N_theta: int) -> ConfigGrid:
    """Build and self-check the quadrature/difference grid for one planar
    spring with FENE parameter ``b``.

    Raises
    ------
    ValueError
        If a direction has fewer than 8 nodes.
    DomainError
        If ``b <= 2`` (``gamma = b/2`` must exceed 1) or ``b`` is not finite.
    ConstructionError
        If the normalized mass misses 1 by more than 1e-8 or the second moment
        misses its closed form ``2b/(b+4)`` by more than 1e-6, or either defect
        is not finite (the message reports the defect), or a node of the
        radial rule is not inside ``(-1, 1)``.  Grids build for ``b`` up to
        about 1e9 (``N_r`` from 8 to 64); from about 1e10 the nodes near
        ``t = -1`` lose the digits of ``1 + t`` and the second moment can
        miss its tolerance, and from about 1e16 a node reaches ``-1``.
    """
    if N_r < 8 or N_theta < 8:
        raise ValueError(f"need at least 8 nodes per direction, got N_r={N_r}, N_theta={N_theta}")
    # from about b = 1e15 two radii can round to one, and their edge weight
    # divides by zero, which fails the checks below
    with np.errstate(all="ignore"):
        grid = _build_polar(b, N_r, N_theta)

    if not grid.mass_defect <= MASS_TOL:
        raise ConstructionError(
            f"normalized Maxwellian mass defect {grid.mass_defect:.3e} exceeds {MASS_TOL}"
        )
    if not grid.moment_defect <= MOMENT_TOL:
        raise ConstructionError(
            f"second-moment defect {grid.moment_defect:.3e} exceeds {MOMENT_TOL} "
            f"(expected {2.0 * b / (b + 4.0)!r})"
        )
    return grid


# --------------------------------------------------------------------------
# node quadrature operators
# --------------------------------------------------------------------------


def kramers_stress(grid: ConfigGrid, psi_hat: np.ndarray, k: float) -> np.ndarray:
    """Kramers stress ``tau = k (int M psi U' q q^T dq - rho I)``, exactly
    symmetric, from one product with the moment weights ``w U' (q_x^2,
    q_x q_y, q_y^2)``.  ``psi_hat`` may carry leading axes (e.g. one row per
    flow cell); the result then has shape ``(..., 2, 2)``."""
    psi_hat = np.asarray(psi_hat, dtype=float)
    wU, qx, qy = grid.w * grid.uprime, grid.qx, grid.qy
    moments = psi_hat @ np.stack([wU * qx * qx, wU * qx * qy, wU * qy * qy]).T
    m0, m1, m2 = np.moveaxis(moments, -1, 0)
    rho = psi_hat @ grid.w
    return k * np.stack([np.stack([m0 - rho, m1], -1), np.stack([m1, m2 - rho], -1)], -2)


# --------------------------------------------------------------------------
# assembled operators
# --------------------------------------------------------------------------


@dataclass
class ConfigOperators:
    """Weighted operators used by the coupled stepper.

    grid:         the underlying grid; its node weights ``grid.w`` are the
                  diagonal mass form of ``int_D M . dq``, and its edge
                  pairs and edge divergence drive the drag pairing.
    evals, F:     eigenpairs of the mass-weighted Dirichlet form
                  ``S_hat = M^{-1/2} S M^{-1/2}`` in separable form:
                  ``S_hat = Q diag(evals) Q^T`` with ``Q`` taking mode
                  ``(j, i)`` (Fourier column ``j`` of the orthonormal real
                  Fourier matrix ``F``, radial eigenvector ``V_j[:, i]``)
                  to the node field ``V_j[m, i] F[n, j]``.  ``evals`` is
                  flattened in that ``(j, i)`` order; its one zero, the
                  constants, is exactly ``0.0``.  In this basis
                  ``K_x Psi M + c M_x Psi S = R`` splits into one x-system
                  per mode.
    radial:       ``M^{-1/2} V_j`` per Fourier column ``j`` (``M`` depends
                  on the radius alone), shape ``(N_theta, N_r, N_r)``.
    """

    grid: ConfigGrid
    evals: np.ndarray
    F: np.ndarray
    radial: np.ndarray

    def __post_init__(self):
        # the transpose for to_nodes, contiguous for the batched matmul
        self._radial_t = np.ascontiguousarray(self.radial.transpose(0, 2, 1))

    def to_modes(self, rhs_nodal: np.ndarray) -> np.ndarray:
        """Rows of a mass-weighted nodal right-hand side ``R`` -> mode
        coefficients ``R M^{-1/2} Q``: one product with ``F`` along the
        angle, then one radial product (``M^{-1/2}`` folded in) per Fourier
        column, written straight into the ``(row, j, i)`` layout.

        ``R.T`` is read in place through one reshape: for a node-major ``R``
        (``R.T`` C-contiguous, the run's layout, as :meth:`to_nodes` writes
        it) the angular product runs once per radius on contiguous rows,
        and a C-ordered ``R`` (the smoothing's clipped density) gives the
        same bits.  The modes come out C-ordered."""
        n, (N_theta, N_r) = rhs_nodal.shape[0], self.radial.shape[:2]
        y = np.empty((N_theta, N_r, n))
        np.matmul(self.F.T, rhs_nodal.T.reshape(N_r, N_theta, n), out=y.transpose(1, 0, 2))
        modes = np.empty((n, N_theta, N_r))
        np.matmul(y.transpose(0, 2, 1), self.radial, out=modes.transpose(1, 0, 2))
        return modes.reshape(n, -1)

    def to_nodes(self, modes: np.ndarray) -> np.ndarray:
        """Mode coefficients ``Phi`` -> nodal values ``Phi Q^T M^{-1/2}``, so
        ``to_nodes(to_modes(R)) = R M^{-1}``.

        The result is node-major (its transpose C-contiguous): the radial
        products are written in ``(radius, j, row)`` order, so the angular
        product is one ``F`` product per radius on contiguous rows."""
        n, (N_theta, N_r) = modes.shape[0], self.radial.shape[:2]
        y = np.empty((N_r, N_theta, n))
        np.matmul(modes.reshape(n, N_theta, N_r).transpose(1, 0, 2), self._radial_t,
                  out=y.transpose(1, 2, 0))
        return np.matmul(self.F, y).reshape(-1, n).T

    def drag_rhs(self, sigma: np.ndarray, coeff_edges: np.ndarray) -> np.ndarray:
        """Assembled drag functional, batched over leading axes (one row per
        flow cell in the stepper).

        Parameters
        ----------
        sigma : ``(..., 2, 2)`` velocity gradients.
        coeff_edges : ``(..., n_edges)`` per-edge cut-off coefficients.  The
            call takes this buffer over: it is overwritten with the edge
            values ``(sigma : Gamma_e) c_e``, so a caller that reads the
            coefficients afterwards passes a copy.

        Returns ``v`` with ``v . phi = int_D M (sigma q) beta . grad phi dq``
        in edge form, i.e. ``sum_e (sigma : Gamma_e) c_e (phi_b - phi_a)``.
        ``sigma : Gamma_e`` is formed edge-major, one edge family at a time
        (radial, then angular), and multiplied into the family's block of
        ``coeff_edges``, so no edge-sized array is allocated; each entry has
        the bits of the one-product form.
        """
        sigma = np.asarray(sigma, dtype=float)
        sigma4, gamma = sigma.reshape(-1, 4), self.grid.edge_gamma
        edge_major = np.moveaxis(coeff_edges, -1, 0)
        n_rad = (self.grid.N_r - 1) * self.grid.N_theta
        for family in (slice(None, n_rad), slice(n_rad, None)):
            block = edge_major[family]
            block *= (gamma[family] @ sigma4.T).reshape(block.shape)    # sigma : Gamma_e
        return self.grid.edge_divergence(coeff_edges)

    def stress_matrix(self, dpsi: np.ndarray) -> np.ndarray:
        """Edge-difference stress ``C_hat`` with ``sigma : C_hat(psi)`` equal to the
        drag form tested on ``[F^L_delta]'(psi)`` (exact discrete pairing),
        from the edge differences ``dpsi = grid.edge_pairs(np.subtract, psi)``
        alone.

        Consistent with ``C(M psi)`` up to the integration-by-parts residual
        for trace-free contractions.  ``dpsi`` may carry leading axes.  The
        pairing is taken as ``(Gamma^T dpsi^T)^T`` on the ``(rows, n_edges)``
        view of ``dpsi``, whose transpose is C-contiguous for the run's
        edge-major ``dpsi``: BLAS rounds that product alike for both
        layouts, where ``dpsi @ edge_gamma`` would round a C-ordered
        ``dpsi`` differently.
        """
        g = self.grid
        return (g.edge_gamma.T @ dpsi.reshape(-1, g.n_edges).T).T.reshape(dpsi.shape[:-1] + (2, 2))


def _radial_stiffness(a: np.ndarray):
    """Diagonal and off-diagonal of the radial Dirichlet form ``x . T y =
    sum_m a_m (x_{m+1} - x_m) (y_{m+1} - y_m)``, tridiagonal."""
    diag = np.zeros(a.size + 1)
    diag[:-1] += a
    diag[1:] += a
    return diag, -a


def _real_fourier(N_theta: int):
    """Orthonormal real Fourier matrix ``F`` and the wavenumber of each
    column: the constant, a cos/sin pair per ``k = 1 .. (N_theta - 1) // 2``,
    then ``(-1)^n`` when ``N_theta`` is even.  Column ``j`` is an
    eigenvector of the periodic second difference with eigenvalue
    ``2 - 2 cos(2 pi k_j / N_theta)``."""
    pairs = np.arange(1, (N_theta - 1) // 2 + 1)
    phase = (2.0 * math.pi / N_theta) * (np.outer(np.arange(N_theta), pairs) % N_theta)
    F = np.empty((N_theta, N_theta))
    F[:, 0] = 1.0 / math.sqrt(N_theta)
    F[:, 1:2 * pairs.size + 1:2] = math.sqrt(2.0 / N_theta) * np.cos(phase)
    F[:, 2:2 * pairs.size + 1:2] = math.sqrt(2.0 / N_theta) * np.sin(phase)
    wavenumber = np.concatenate([[0], np.repeat(pairs, 2)])
    if N_theta % 2 == 0:
        F[:, -1] = np.where(np.arange(N_theta) % 2 == 0, 1.0, -1.0) / math.sqrt(N_theta)
        wavenumber = np.append(wavenumber, N_theta // 2)
    return F, wavenumber


def assemble_fp_operators(grid: ConfigGrid) -> ConfigOperators:
    """Assemble the eigenbasis of the Maxwellian-weighted stiffness form for
    one spring.

    The form is ``T (x) I + diag(c) (x) L_theta`` with ``T`` the radial
    tridiagonal Dirichlet form and ``L_theta`` the periodic second
    difference, against the mass ``diag(omega) (x) I``.  So ``F`` splits it
    into the blocks ``Omega^{-1/2} (T + lambda_k diag(c)) Omega^{-1/2}``,
    ``k = 0 .. N_theta // 2``, which one batched ``eigh`` diagonalizes.
    Block 0's kernel is set to exactly ``sqrt(omega) / |sqrt(omega)|`` with
    eigenvalue ``0.0``, so the constant mode carries no shift at all.

    The weights are stored per radius, so the split is exact by
    construction; that ``T`` annihilates constants is re-verified here (a
    defect beyond 1e-12 of scale raises :class:`InternalConsistencyError`).
    """
    omega, c = grid.w_r, grid.edge_w_t
    diag, off = _radial_stiffness(grid.edge_w_r)
    row_sums = diag.copy()
    row_sums[:-1] += off
    row_sums[1:] += off
    kernel = float(np.abs(row_sums).max() / np.abs(diag).max())
    if kernel > 1e-12:
        raise InternalConsistencyError(
            f"radial stiffness defect: kernel {kernel:.2e} (relative to scale)")

    F, wavenumber = _real_fourier(grid.N_theta)
    k = np.arange(grid.N_theta // 2 + 1)
    lam = 2.0 - 2.0 * np.cos((2.0 * math.pi / grid.N_theta) * k)
    root = np.sqrt(omega)
    m = np.arange(grid.N_r)
    blocks = np.zeros((k.size, grid.N_r, grid.N_r))
    blocks[:, m, m] = (diag + lam[:, None] * c) / omega
    blocks[:, m[1:], m[:-1]] = blocks[:, m[:-1], m[1:]] = off / (root[:-1] * root[1:])
    evals, V = np.linalg.eigh(blocks)
    V[0, :, 0] = root / np.linalg.norm(root)
    evals[0, 0] = 0.0
    return ConfigOperators(grid=grid, evals=evals[wavenumber].ravel(), F=F,
                           radial=V[wavenumber] * (1.0 / root)[:, None])


def spectral_gap(ops: ConfigOperators) -> float:
    """Smallest nonzero Rayleigh quotient of (stiffness, mass): the discrete
    configuration-space relaxation rate surrogate."""
    positive = ops.evals[ops.evals > 1e-10 * max(ops.evals.max(), 1.0)]
    if positive.size == 0:
        raise InternalConsistencyError("stiffness has no positive spectrum")
    return float(positive.min())


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------


def grid_metadata(grid: ConfigGrid) -> dict:
    """The grid's description (counts, b, Z, defects, tolerances), keys in
    sorted order; a checkpoint stores it and compares it on reload."""
    meta = {
        "kind": "fene-config-grid",
        "b": grid.b,
        "N_r": grid.N_r,
        "N_theta": grid.N_theta,
        "n_nodes": grid.n_nodes,
        "Z": grid.Z,
        "mass_defect": grid.mass_defect,
        "moment_defect": grid.moment_defect,
        "mass_tol": MASS_TOL,
        "moment_tol": MOMENT_TOL,
    }
    return dict(sorted(meta.items()))
