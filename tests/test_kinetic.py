"""Closed-form facts about the FENE potential, Maxwellian, cut-offs and
entropy functions, cross-checked against adaptive quadrature where a second
independent route exists."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from feneflow import (
    CutoffParams,
    DomainError,
    bakry_emery_kappa,
    build_config_grid,
    entropy_F,
    entropy_FLdelta,
    fene_potential,
    maxwellian_normalizer,
    maxwellian_value,
    secant_cutoff_coefficient,
)
from entropy_reference import routed_FLdelta, routed_secant_coefficient

# Frozen reference values, computed independently (closed forms and adaptive
# quadrature) before the implementation existed.
Z_ORACLE = {3.0: 6.0 * math.pi / 5.0,        # 2 pi b / (b + 2)
            4.0: 4.0 * math.pi / 3.0,
            8.0: 16.0 * math.pi / 10.0}
SECOND_MOMENT_ORACLE = {3.0: 6.0 / 7.0,      # d b / (b + d + 2), d = 2
                        4.0: 1.0,
                        8.0: 4.0 / 3.0}
U_AT_ONE_B4 = 1.3862943611198906             # 2 log 2
FL_AT_2L_L2 = 2.772588722239781              # 4 log 2


# --------------------------------------------------------------------------
# potential
# --------------------------------------------------------------------------


def test_potential_closed_form_values():
    U, Up = fene_potential(1.0, 4.0)
    assert U == pytest.approx(U_AT_ONE_B4, abs=1e-14)
    assert Up == pytest.approx(2.0, abs=1e-14)
    U0, Up0 = fene_potential(0.0, 4.0)
    assert U0 == 0.0 and Up0 == 1.0


def test_potential_near_cap_blowup():
    # s -> b/2 with 1 - 2s/b = 1e-6: U' = 1e6, U = -(b/2) log(1e-6); rounding
    # in forming 1 - 2s/b caps the achievable agreement near the pole
    b = 4.0
    s = (b / 2.0) * (1.0 - 1e-6)
    U, Up = fene_potential(s, b)
    assert Up == pytest.approx(1e6, rel=1e-9)
    assert U == pytest.approx(27.631021115871036, rel=1e-10)


def test_potential_domain_errors():
    with pytest.raises(DomainError):
        fene_potential(-0.1, 4.0)
    with pytest.raises(DomainError):
        fene_potential(2.0, 4.0)  # s = b/2 hits the cap
    with pytest.raises(DomainError):
        fene_potential(0.5, 2.0)  # b must exceed 2


def test_potential_derivative_is_consistent():
    # central differences of U against the returned U'
    s = np.linspace(0.05, 1.8, 40)
    h = 1e-6
    Up_fd = (fene_potential(s + h, 4.0)[0] - fene_potential(s - h, 4.0)[0]) / (2 * h)
    np.testing.assert_allclose(fene_potential(s, 4.0)[1], Up_fd, rtol=1e-8)


# --------------------------------------------------------------------------
# Maxwellian
# --------------------------------------------------------------------------


@pytest.mark.parametrize("b", [3.0, 4.0, 8.0])
def test_normalizer_matches_closed_form(b):
    assert maxwellian_normalizer(b) == pytest.approx(Z_ORACLE[b], abs=1e-12)


@pytest.mark.parametrize("b", [3.0, 4.0, 8.0])
def test_normalizer_against_quadrature(b):
    # independent route: Z = 2 pi int_0^sqrt(b) (1 - r^2/b)^{b/2} r dr
    val, err = quad(lambda r: (1.0 - r * r / b) ** (b / 2.0) * r, 0.0, math.sqrt(b))
    assert 2.0 * math.pi * val == pytest.approx(maxwellian_normalizer(b), abs=1e-10)


@pytest.mark.parametrize("b", [3.0, 4.0, 8.0])
def test_maxwellian_second_moment(b):
    Z = maxwellian_normalizer(b)
    val, _ = quad(lambda r: maxwellian_value(r, b, Z) * r ** 3, 0.0, math.sqrt(b))
    assert 2.0 * math.pi * val == pytest.approx(SECOND_MOMENT_ORACLE[b], abs=1e-9)


def test_maxwellian_integrates_to_one():
    b = 4.0
    Z = maxwellian_normalizer(b)
    val, _ = quad(lambda r: maxwellian_value(r, b, Z) * r, 0.0, math.sqrt(b))
    assert 2.0 * math.pi * val == pytest.approx(1.0, abs=1e-10)


def test_normalizer_rejects_bad_input():
    with pytest.raises(DomainError):
        maxwellian_normalizer(2.0)


# --------------------------------------------------------------------------
# spring parameter
# --------------------------------------------------------------------------


def test_geometry_validation_messages():
    # the dumbbell is fixed by b alone; b <= 2 is rejected where the grid
    # first needs the Maxwellian normalizer
    with pytest.raises(DomainError, match="gamma = b/2 must exceed 1"):
        build_config_grid(2.0, N_r=16, N_theta=16)


@pytest.mark.parametrize("b", [3.0, 4.0, 8.0])
def test_curvature_constant(b):
    kappa, min_eig = bakry_emery_kappa(b)
    assert kappa == 1.0
    assert min_eig >= 1.0 - 1e-9


# --------------------------------------------------------------------------
# entropy functions
# --------------------------------------------------------------------------


def test_entropy_F_special_points():
    for s, expected in [(0.0, 1.0), (1.0, 0.0), (math.e, 1.0)]:
        val, _, _ = entropy_F(s)
        assert val == pytest.approx(expected, abs=1e-14)


def test_entropy_F_rejects_negative():
    with pytest.raises(DomainError):
        entropy_F(-1e-3)


def test_entropy_FL_quadratic_branch():
    # above L, F^L_delta is the quadratic continuation of F from L
    val, d1, d2 = entropy_FLdelta(4.0, 2.0, 1e-3)
    assert val == pytest.approx(FL_AT_2L_L2, abs=1e-14)
    assert d1 == pytest.approx(4.0 / 2.0 + math.log(2.0) - 1.0, abs=1e-14)
    assert d2 == pytest.approx(0.5, abs=1e-15)


def test_entropy_c2_matching_at_L():
    L = 3.0
    h = 1e-7
    for col in range(3):
        below = entropy_FLdelta(L - h, L, 1e-3)[col]
        above = entropy_FLdelta(L + h, L, 1e-3)[col]
        assert abs(above - below) < 1e-5


def test_entropy_c2_matching_at_delta():
    delta = 1e-2
    h = 1e-9
    for col in range(3):
        below = entropy_FLdelta(delta - h, 3.0, delta)[col]
        above = entropy_FLdelta(delta + h, 3.0, delta)[col]
        assert abs(above - below) < 1e-5


def test_entropy_FLdelta_second_derivative_branches():
    L, delta = 3.0, 1e-2
    s = np.array([-1.0, 0.5 * delta, 0.1, 1.0, 10.0])
    _, _, d2 = entropy_FLdelta(s, L, delta)
    np.testing.assert_allclose(d2, [1 / delta, 1 / delta, 10.0, 1.0, 1 / L], rtol=1e-13)
    # and the reciprocal is the two-sided cut-off max(min(s, L), delta)
    np.testing.assert_allclose(1.0 / d2, [delta, delta, 0.1, 1.0, L], rtol=1e-13)


def _FLdelta_branches(s, L, delta):
    """The explicit three-branch formulas of ``F^L_delta``: ``F`` on
    ``(delta, L)`` and the quadratic continuations beyond either cut-off."""
    s = np.asarray(s, dtype=float)
    mid = np.clip(s, delta, L)
    val = mid * (np.log(mid) - 1.0) + 1.0
    d1 = np.log(mid)
    d2 = 1.0 / mid
    lower = s <= delta
    upper = s >= L
    val = np.where(lower, (s * s - delta * delta) / (2.0 * delta) + s * (math.log(delta) - 1.0) + 1.0, val)
    d1 = np.where(lower, s / delta + math.log(delta) - 1.0, d1)
    d2 = np.where(lower, 1.0 / delta, d2)
    val = np.where(upper, (s * s - L * L) / (2.0 * L) + s * (math.log(L) - 1.0) + 1.0, val)
    d1 = np.where(upper, s / L + math.log(L) - 1.0, d1)
    d2 = np.where(upper, 1.0 / L, d2)
    return val, d1, d2


@pytest.mark.parametrize("L,delta", [(5.0, 1e-4), (3.0, 1e-2), (50.0, 0.5)])
def test_entropy_FLdelta_matches_branch_formulas(L, delta):
    rng = np.random.default_rng(11)
    below = np.concatenate([[-3.0, 0.0, delta], rng.uniform(-2.0, delta, 50)])
    inside = np.concatenate([[1.0, np.nextafter(delta, 1.0), np.nextafter(L, 0.0)],
                             rng.uniform(delta, L, 200)])
    above = np.concatenate([[L, 2.0 * L, 1e3], rng.uniform(L, 4.0 * L, 50)])
    for s in (below, inside, above):
        got = entropy_FLdelta(s, L, delta)
        want = _FLdelta_branches(s, L, delta)
        for g, w in zip(got, want):
            assert np.all(np.abs(g - w) <= 1e-13 * np.maximum(np.abs(w), 1.0))
    # inside (delta, L) the Taylor form adds exact zeros to F
    for g, w in zip(entropy_FLdelta(inside, L, delta),
                    _FLdelta_branches(inside, L, delta)):
        np.testing.assert_array_equal(g, w)


def test_entropy_kind_validation():
    # F^L_delta needs a cut-off pair with 0 < delta < 1 < L
    for L, delta in [(0.5, 1e-4), (5.0, 1.5), (5.0, 0.0), (3.0, -1e-3)]:
        with pytest.raises(ValueError, match="0 < delta < 1 < L"):
            entropy_FLdelta(1.0, L, delta)


# --------------------------------------------------------------------------
# cut-offs
# --------------------------------------------------------------------------


def test_cutoff_params_validation():
    CutoffParams(L=5.0, delta=1e-4)
    with pytest.raises(ValueError):
        CutoffParams(L=0.5, delta=1e-4)
    with pytest.raises(ValueError):
        CutoffParams(L=5.0, delta=1.5)
    with pytest.raises(ValueError):
        CutoffParams(L=5.0, delta=0.0)


def edge_coefficient(a, c, L, delta):
    """Secant coefficient on the edges ``(a[i], c[i])`` of a node field that
    holds the values ``a`` followed by ``c``."""
    a, c = np.atleast_1d(a), np.atleast_1d(c)
    n = a.size
    return secant_cutoff_coefficient(np.concatenate([a, c]), np.arange(n),
                                     np.arange(n, 2 * n), L, delta)


def test_secant_coefficient_chain_rule_exact():
    # coeff * ([F^L_d]'(c) - [F^L_d]'(a)) == c - a, the identity the
    # free-energy estimate rests on
    rng = np.random.default_rng(7)
    a = rng.uniform(1e-6, 8.0, size=200)
    c = rng.uniform(1e-6, 8.0, size=200)
    L, delta = 5.0, 1e-4
    coeff = edge_coefficient(a, c, L, delta)
    d1a = entropy_FLdelta(a, L, delta)[1]
    d1c = entropy_FLdelta(c, L, delta)[1]
    np.testing.assert_allclose(coeff * (d1c - d1a), c - a, atol=1e-10)


def test_secant_coefficient_gathers_node_field_per_edge():
    # a (cells, nodes) field on a triangle of edges: every cell row is the
    # pairwise coefficient of its own endpoint values
    rng = np.random.default_rng(3)
    psi = rng.uniform(-0.5, 8.0, size=(4, 3))
    ea, eb = np.array([0, 1, 2]), np.array([1, 2, 0])
    coeff = secant_cutoff_coefficient(psi, ea, eb, 5.0, 1e-4)
    assert coeff.shape == (4, 3)
    for row, p in zip(coeff, psi):
        np.testing.assert_array_equal(row, edge_coefficient(p[ea], p[eb], 5.0, 1e-4))


def test_secant_coefficient_coincidence_limit():
    coeff = edge_coefficient(0.7, 0.7, 5.0, 1e-4)
    assert coeff == pytest.approx(0.7, abs=1e-14)
    # saturated endpoints collapse to the cut-off values
    assert edge_coefficient(9.0, 9.0, 5.0, 1e-4) == 5.0
    assert edge_coefficient(0.0, 0.0, 5.0, 1e-4) == pytest.approx(1e-4)


@settings(max_examples=200, deadline=None)
@given(a=st.floats(-1.0, 10.0), c=st.floats(-1.0, 10.0))
def test_secant_coefficient_stays_in_band(a, c):
    coeff = float(edge_coefficient(a, c, 5.0, 1e-4)[0])
    assert 1e-4 <= coeff <= 5.0


def test_entropy_and_secant_match_routed_reference_bitwise(grid16):
    # a decay_n16-shaped field (256 flow cells on the 16 x 16 grid's edges)
    # drawing from every branch: negative, below delta, inside (delta, L),
    # above L, plus equal and adjacent-float neighbours along edges
    L, delta = 5.0, 1e-4
    ea, eb = grid16.edges_a, grid16.edges_b
    rng = np.random.default_rng(16)
    lo = np.array([-2.0, 0.0, delta, L])
    hi = np.array([0.0, delta, L, 4.0 * L])
    branch = rng.integers(0, 4, size=(256, grid16.w.size))
    psi = lo[branch] + (hi - lo)[branch] * rng.random(branch.shape)
    psi[:4] = lo[:, None] + 0.5 * (hi - lo)[:, None]       # constant rows
    equal = rng.random(ea.size) < 0.2
    psi[:, eb[equal]] = psi[:, ea[equal]]
    adjacent = rng.random(ea.size) < 0.05
    psi[:, eb[adjacent]] = np.nextafter(psi[:, ea[adjacent]], np.inf)
    a, c = psi[:, ea], psi[:, eb]
    mid = 0.5 * (a + c)
    assert np.any((a == c) & (mid < delta)) and np.any((a == c) & (mid > L))
    for got, want in zip(entropy_FLdelta(psi, L, delta), routed_FLdelta(psi, L, delta)):
        assert got.tobytes() == want.tobytes()
    got = secant_cutoff_coefficient(psi, ea, eb, L, delta)
    assert got.tobytes() == routed_secant_coefficient(psi, ea, eb, L, delta).tobytes()


@settings(max_examples=200, deadline=None)
@given(s=st.floats(0.0, 50.0), t=st.floats(0.0, 50.0))
def test_entropy_FLdelta_is_convex(s, t):
    # monotone first derivative is the workable convexity statement here
    d1s = float(entropy_FLdelta(s, 5.0, 1e-4)[1])
    d1t = float(entropy_FLdelta(t, 5.0, 1e-4)[1])
    if s < t:
        assert d1s <= d1t + 1e-12
    val = float(entropy_FLdelta(s, 5.0, 1e-4)[0])
    assert val >= -1e-12


@settings(max_examples=100, deadline=None)
@given(s=st.floats(0.0, 100.0))
def test_entropy_F_nonnegative(s):
    assert float(entropy_F(s)[0]) >= -1e-15
