"""Closed-form facts about the FENE potential, Maxwellian, cut-offs and
entropy functions, cross-checked against adaptive quadrature where a second
independent route exists."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from feneflow import (
    KAPPA,
    CutoffParams,
    DomainError,
    RunConfig,
    assemble_fp_operators,
    build_config_grid,
    check_extensibility,
    entropy_F,
    entropy_FLdelta,
    fene_potential,
    maxwellian_normalizer,
    maxwellian_value,
    secant_cutoff_coefficient,
)
from edge_reference import GatherEdges, edge_lists, gather_stress_matrix
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


def test_fene_potential_rejects_nan():
    # s in [0, b/2) is the domain, and a NaN compares false against both ends
    with pytest.raises(DomainError):
        fene_potential(np.nan, 4.0)
    with pytest.raises(DomainError):
        fene_potential(np.array([0.5, np.nan]), 4.0)


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
    val, _ = quad(lambda r: maxwellian_value(r, b) * r ** 3, 0.0, math.sqrt(b))
    assert 2.0 * math.pi * val == pytest.approx(SECOND_MOMENT_ORACLE[b], abs=1e-9)


def test_maxwellian_integrates_to_one():
    b = 4.0
    val, _ = quad(lambda r: maxwellian_value(r, b) * r, 0.0, math.sqrt(b))
    assert 2.0 * math.pi * val == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=300, deadline=None)
@example(1.7e3)
@example(2.1e3)
@example(1e6)
@example(1e300)
@given(st.floats(min_value=2.0, max_value=1e300, exclude_min=True))
def test_normalizer_is_the_closed_form_for_every_b(b):
    # Z is 2 pi b / (b + 2) bitwise and raises nothing for any b > 2, large
    # b included, where a cross-check of two routes would cancel badly
    assert maxwellian_normalizer(b) == 2 * math.pi * b / (b + 2)


def test_every_b_check_is_check_extensibility():
    # one function owns the rule 2 < b < inf and its message; the kinetic
    # primitives and the run configuration all report it word for word
    for b in (2.0, 1.0, -3.0, math.inf, math.nan):
        with pytest.raises(DomainError) as want:
            check_extensibility(b)
        for call in (lambda: fene_potential(0.5, b), lambda: maxwellian_normalizer(b),
                     lambda: maxwellian_value(0.0, b)):
            with pytest.raises(DomainError) as got:
                call()
            assert str(got.value) == str(want.value)
        if math.isfinite(b):
            assert str(want.value) in RunConfig(b=b).validate()
    check_extensibility(2.0 + 1e-12)


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


def test_infinite_extensibility_is_a_domain_error():
    # b = inf passes b > 2, but the Maxwellian and the Jacobi rule are not
    # defined there; every entry point that checks b rejects it before any
    # arithmetic (a RuntimeWarning would fail the suite)
    b = math.inf
    for call in (lambda: build_config_grid(b, N_r=16, N_theta=16),
                 lambda: maxwellian_normalizer(b),
                 lambda: fene_potential(0.5, b),
                 lambda: maxwellian_value(0.0, b)):
        with pytest.raises(DomainError, match="must be finite"):
            call()


@pytest.mark.parametrize("b", [2.0 + 1e-6, 3.0, 4.0, 8.0, 50.0, 2000.0])
def test_curvature_constant(b):
    # Hess(-log M) = U' I + U'' q q^T has the eigenvalues U' (orthogonal to
    # q) and U' + U'' |q|^2 (along q), U'' = (2/b) U'^2; on 512 radii of the
    # open disc neither falls below KAPPA, and U' near q = 0 shows that no
    # larger constant holds
    assert KAPPA == 1.0
    r = np.linspace(0.0, math.sqrt(b), 514)[1:-1]
    _, Uprime = fene_potential(0.5 * r * r, b)
    radial = Uprime + (2.0 / b) * Uprime * Uprime * r * r
    assert min(Uprime.min(), radial.min()) >= KAPPA - 1e-9
    assert Uprime.min() <= KAPPA + 1e-5


# --------------------------------------------------------------------------
# entropy functions
# --------------------------------------------------------------------------


def test_entropy_F_special_points():
    for s, expected in [(0.0, 1.0), (1.0, 0.0), (math.e, 1.0)]:
        val = entropy_F(s)
        assert val == pytest.approx(expected, abs=1e-14)


def test_entropy_F_is_one_array_exactly_one_at_zero():
    assert entropy_F(0.0) == 1.0
    assert entropy_F(np.array([0.0, 1.0, 2.0])).shape == (3,)


def test_entropy_F_overflows_to_inf_without_a_warning():
    # s log s overflows above about 2.5e305 (1e300 log 1e300 is still a
    # finite 6.9e302); the value is inf and no overflow warning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert entropy_F(1e300) == pytest.approx(1e300 * math.log(1e300) - 1e300)
        assert entropy_F(1e307) == math.inf
        assert entropy_F(np.finfo(float).max) == math.inf


def test_entropy_F_rejects_negative():
    with pytest.raises(DomainError):
        entropy_F(-1e-3)


def test_entropy_F_rejects_nan():
    # a NaN is not a density: it raises instead of taking the value F(0) = 1
    for s in (math.nan, np.array([1.0, math.nan, 0.0])):
        with pytest.raises(DomainError):
            entropy_F(s)


def test_entropy_FL_quadratic_branch():
    # above L, F^L_delta is the quadratic continuation of F from L
    val, d1, d2 = entropy_FLdelta(4.0, CutoffParams(2.0, 1e-3))
    assert val == pytest.approx(FL_AT_2L_L2, abs=1e-14)
    assert d1 == pytest.approx(4.0 / 2.0 + math.log(2.0) - 1.0, abs=1e-14)
    assert d2 == pytest.approx(0.5, abs=1e-15)


def test_entropy_c2_matching_at_L():
    L = 3.0
    h = 1e-7
    for col in range(3):
        below = entropy_FLdelta(L - h, CutoffParams(L, 1e-3))[col]
        above = entropy_FLdelta(L + h, CutoffParams(L, 1e-3))[col]
        assert abs(above - below) < 1e-5


def test_entropy_c2_matching_at_delta():
    delta = 1e-2
    h = 1e-9
    for col in range(3):
        below = entropy_FLdelta(delta - h, CutoffParams(3.0, delta))[col]
        above = entropy_FLdelta(delta + h, CutoffParams(3.0, delta))[col]
        assert abs(above - below) < 1e-5


def test_entropy_FLdelta_second_derivative_branches():
    L, delta = 3.0, 1e-2
    s = np.array([-1.0, 0.5 * delta, 0.1, 1.0, 10.0])
    _, _, d2 = entropy_FLdelta(s, CutoffParams(L, delta))
    np.testing.assert_allclose(d2, [1 / delta, 1 / delta, 10.0, 1.0, 1 / L], rtol=1e-13)
    # and the reciprocal is the two-sided cut-off max(min(s, L), delta)
    np.testing.assert_allclose(1.0 / d2, [delta, delta, 0.1, 1.0, L], rtol=1e-13)


def _FLdelta_branches(s, L, delta):
    """The explicit three-branch formulas of ``F^L_delta``: ``F`` on
    ``(delta, L)`` and the quadratic continuations beyond either cut-off."""
    s = np.asarray(s, dtype=float)
    mid = np.clip(s, delta, L)
    val = mid * np.log(mid) - (mid - 1.0)
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
        got = entropy_FLdelta(s, CutoffParams(L, delta))
        want = _FLdelta_branches(s, L, delta)
        for g, w in zip(got, want):
            assert np.all(np.abs(g - w) <= 1e-13 * np.maximum(np.abs(w), 1.0))
    # inside (delta, L) the Taylor form adds exact zeros to F
    for g, w in zip(entropy_FLdelta(inside, CutoffParams(L, delta)),
                    _FLdelta_branches(inside, L, delta)):
        np.testing.assert_array_equal(g, w)


def test_entropy_kind_validation():
    # F^L_delta needs a cut-off pair with 0 < delta < 1 < L, checked where
    # the pair is built
    for L, delta in [(0.5, 1e-4), (5.0, 1.5), (5.0, 0.0), (3.0, -1e-3)]:
        with pytest.raises(ValueError, match="0 < delta < 1 < L"):
            entropy_FLdelta(1.0, CutoffParams(L, delta))


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


def test_cutoff_params_report_every_failed_bound_in_one_message():
    # the one check of 0 < delta < 1 < L names each bound that fails, and the
    # run configuration records that message instead of restating the rule
    with pytest.raises(ValueError) as err:
        CutoffParams(L=0.5, delta=1.5)
    text = str(err.value)
    assert "0 < delta < 1 < L" in text
    assert "cutoff level must exceed 1, got L = 0.5" in text
    assert "regularization level must lie in (0, 1), got 1.5" in text
    for L, delta, bound in [(0.5, 1e-4, "cutoff level"), (5.0, 0.0, "regularization level")]:
        with pytest.raises(ValueError) as one:
            CutoffParams(L=L, delta=delta)
        assert bound in str(one.value) and "; " not in str(one.value)
        assert [str(one.value)] == [m for m in RunConfig(L=L, delta=delta).validate()
                                    if "0 < delta < 1 < L" in m]


def edge_coefficient(a, c, L, delta):
    """Secant coefficient on the edges ``(a[i], c[i])`` of a node field that
    holds the values ``a`` followed by ``c``."""
    a, c = np.atleast_1d(a), np.atleast_1d(c)
    n = a.size
    return secant_cutoff_coefficient(np.concatenate([a, c]),
                                     GatherEdges(np.arange(n), np.arange(n, 2 * n)),
                                     CutoffParams(L, delta))


def test_secant_coefficient_chain_rule_exact():
    # coeff * ([F^L_d]'(c) - [F^L_d]'(a)) == c - a, the identity the
    # free-energy estimate rests on
    rng = np.random.default_rng(7)
    a = rng.uniform(1e-6, 8.0, size=200)
    c = rng.uniform(1e-6, 8.0, size=200)
    L, delta = 5.0, 1e-4
    coeff = edge_coefficient(a, c, L, delta)
    d1a = entropy_FLdelta(a, CutoffParams(L, delta))[1]
    d1c = entropy_FLdelta(c, CutoffParams(L, delta))[1]
    np.testing.assert_allclose(coeff * (d1c - d1a), c - a, atol=1e-10)


def test_secant_coefficient_gathers_node_field_per_edge():
    # a (cells, nodes) field on a triangle of edges: every cell row is the
    # pairwise coefficient of its own endpoint values
    rng = np.random.default_rng(3)
    psi = rng.uniform(-0.5, 8.0, size=(4, 3))
    ea, eb = np.array([0, 1, 2]), np.array([1, 2, 0])
    coeff = secant_cutoff_coefficient(psi, GatherEdges(ea, eb), CutoffParams(5.0, 1e-4))
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
    ea, eb = edge_lists(grid16)
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
    got = entropy_FLdelta(psi, CutoffParams(L, delta))
    for got, want in zip(got, routed_FLdelta(psi, L, delta)):
        assert got.tobytes() == want.tobytes()
    got = secant_cutoff_coefficient(psi, grid16, CutoffParams(L, delta))
    assert got.tobytes() == routed_secant_coefficient(psi, ea, eb, L, delta).tobytes()


def _at_own_bound():
    """``(a, c) = (0, c)`` with ``c - a`` equal to the edge's near-coincidence
    bound ``1e-12 (|a| + |c| + 1)``, as floats: the fixed point of
    ``c -> (c + 1) 1e-12``, which rounding makes stationary in a few steps."""
    c = 0.0
    for _ in range(10):
        c = ((0.0 + c) + 1.0) * 1e-12
    return 0.0, c


def _at_screen():
    """``(lo, hi)`` inside ``(delta, L)`` whose spread ``hi - lo = 2**-39``
    equals the flat screen ``(2 lo + 1) 1e-12`` as floats: ``lo`` is chosen
    so that the screen rounds to that power of two, which ``lo`` adds exactly."""
    lo = (2.0 ** -39 / 1e-12 - 1.0) / 2.0
    return lo, lo + 2.0 ** -39


FLAT_KINDS = ["flat_one", "flat_below_delta", "flat_negative", "at_screen"]


def _decay_n16_field(grid16, kind):
    """A 256-row field on the 16 x 16 grid's nodes that takes the secant's
    flat path (``kind`` in ``FLAT_KINDS``, every edge near-coincident), its
    screened path (``in_range`` or ``out_of_range``, no edge
    near-coincident) or its full path (``equal_pair``, ``own_bound``,
    ``near_max``, ``nan``, ``huge``, ``above_screen``); returns the field
    and the cut-off pair."""
    L, delta = 5.0, 1e-4
    ea, eb = edge_lists(grid16)
    rng = np.random.default_rng(28)
    shape = (256, grid16.w.size)
    psi = delta + (L - delta) * rng.random(shape)
    flat_at = {"flat_one": 1.0, "flat_below_delta": 0.5 * delta, "flat_negative": -1.0}
    if kind in flat_at:                               # flat_one: the equilibrium density
        psi = flat_at[kind] + 1e-13 * rng.random(shape)
    elif kind in ("at_screen", "above_screen"):
        lo, hi = _at_screen()
        assert hi - lo == (2.0 * lo + 1.0) * 1e-12 and delta < lo < hi < L
        if kind == "above_screen":
            hi = np.nextafter(hi, np.inf)
        psi = np.where(rng.random(shape) < 0.5, lo, hi)
    elif kind == "out_of_range":
        psi = rng.uniform(-2.0, 4.0 * L, psi.shape)
        assert psi.min() < 0.0 and psi.max() > L
    elif kind == "equal_pair":
        psi[7, eb[100]] = psi[7, ea[100]]
    elif kind == "own_bound":
        psi[3, ea[40]], psi[3, eb[40]] = a, c = _at_own_bound()
        assert c - a == ((abs(a) + abs(c)) + 1.0) * 1e-12
        assert np.abs(psi).max() > 1.0                # max|psi| sits elsewhere
    elif kind == "near_max":
        # a pair at max|psi| = L, closer than its own bound but not than
        # half the screen 1e-12 (2 max|psi| + 1)
        psi[5, ea[60]], psi[5, eb[60]] = L, L - 8e-12
    elif kind == "nan":
        psi[200, 17] = np.nan
    elif kind == "huge":
        psi[9, 30] = 1.5e308                          # the screen overflows to inf
    return psi, L, delta


@pytest.mark.parametrize("kind", ["in_range", "out_of_range", "equal_pair", "own_bound",
                                  "near_max", "nan", *FLAT_KINDS, "above_screen"])
def test_secant_paths_match_routed_reference_bitwise(grid16, kind):
    psi, L, delta = _decay_n16_field(grid16, kind)
    ea, eb = edge_lists(grid16)
    got = secant_cutoff_coefficient(psi, grid16, CutoffParams(L, delta))
    if kind == "nan":
        # the reference's entropy rejects a NaN; every edge but the four at
        # the NaN node depends only on its own endpoints, so those are
        # checked against the reference on the field with the NaN filled in
        at_nan = np.zeros(got.shape, dtype=bool)
        at_nan[200] = (ea == 17) | (eb == 17)
        assert np.count_nonzero(at_nan) == 4 and np.isnan(got[at_nan]).all()
        want = routed_secant_coefficient(np.nan_to_num(psi, nan=1.0), ea, eb, L, delta)
        assert got[~at_nan].tobytes() == want[~at_nan].tobytes()
        return
    want = routed_secant_coefficient(psi, ea, eb, L, delta)
    assert got.tobytes() == want.tobytes()
    if kind == "own_bound":
        # the edge at its own bound is near-coincident: beta of the midpoint
        assert got[3, 40] == delta


@pytest.mark.parametrize("kind", ["flat_one", "in_range", "out_of_range", "equal_pair"])
def test_stress_and_secant_from_shared_edge_differences(grid16, kind):
    # a sweep forms its iterate's edge differences once; the stress from
    # them is bitwise the gathered reference's, and the secant then takes
    # them over and is bitwise what it forms on its own, on the flat, the
    # two screened (inside [delta, L] and not) and the full path; the flat
    # path writes its result into the differences it was handed
    psi, L, delta = _decay_n16_field(grid16, kind)
    ops = assemble_fp_operators(grid16)
    dpsi = grid16.edge_pairs(np.subtract, psi)
    cutoff = CutoffParams(L, delta)
    assert ops.stress_matrix(dpsi).tobytes() == gather_stress_matrix(grid16, psi).tobytes()
    got = secant_cutoff_coefficient(psi, grid16, cutoff, dpsi)
    assert got.tobytes() == secant_cutoff_coefficient(psi, grid16, cutoff).tobytes()
    assert (got is dpsi) == (kind == "flat_one")


@pytest.mark.parametrize("kind", ["in_range", "equal_pair", "near_max", "flat_one", "at_screen"])
def test_secant_in_range_takes_no_node_sized_clip(grid16, kind, monkeypatch):
    # inside [delta, L] the clip of psi changes no value, so no path clips a
    # node-sized array (edge-sized clips of the result remain); the result is
    # bitwise the routed reference's
    psi, L, delta = _decay_n16_field(grid16, kind)
    assert delta <= psi.min() and psi.max() <= L
    shapes, clip = [], np.clip
    monkeypatch.setattr(np, "clip", lambda a, *args, **kwargs:
                        shapes.append(np.shape(a)) or clip(a, *args, **kwargs))
    got = secant_cutoff_coefficient(psi, grid16, CutoffParams(L, delta))
    monkeypatch.undo()
    assert psi.shape not in shapes
    assert got.tobytes() == routed_secant_coefficient(psi, *edge_lists(grid16), L,
                                                      delta).tobytes()


class CountingEdges(GatherEdges):
    """``GatherEdges`` that counts its ``edge_pairs`` calls."""

    calls = 0

    def edge_pairs(self, op, field, out=None):
        self.calls += 1
        return super().edge_pairs(op, field, out=out)


@pytest.mark.parametrize("kind, passes", [("in_range", 2), ("out_of_range", 2),
                                          ("equal_pair", 4), ("own_bound", 4), ("near_max", 4),
                                          ("nan", 4), ("huge", 4), ("above_screen", 4),
                                          *((kind, 1) for kind in FLAT_KINDS)])
def test_secant_screen_skips_bound_and_midpoint_passes(grid16, kind, passes):
    # a field whose spread is within 1e-12 (2 min|psi| + 1) needs only the
    # edge sums for its midpoints; one whose every |c - a| clears
    # 1e-12 (2 max|psi| + 1) only the two edge differences; any other builds
    # the bound and the midpoints too.  No kind warns (warnings fail the
    # suite), not even where 2 max|psi| overflows and no edge's own bound does
    psi, L, delta = _decay_n16_field(grid16, kind)
    edges = CountingEdges(*edge_lists(grid16))
    secant_cutoff_coefficient(psi, edges, CutoffParams(L, delta))
    assert edges.calls == passes


def test_flat_screen_refuses_a_field_with_an_inf(grid16):
    # at min|psi| = 1e308 the flat screen 1e-12 (2 min|psi| + 1) overflows
    # to inf, which an infinite spread would pass; yet an edge with both
    # ends inf is not near-coincident (inf - inf is NaN), and its
    # coefficient is NaN, not the clipped midpoint L
    L, delta = 5.0, 1e-4
    ea, eb = edge_lists(grid16)
    psi = np.full((4, grid16.w.size), 1e308)
    psi[1, :40] = np.inf
    edges = CountingEdges(ea, eb)
    with np.errstate(over="ignore", invalid="ignore"):
        got = secant_cutoff_coefficient(psi, edges, CutoffParams(L, delta))
        want = routed_secant_coefficient(psi, ea, eb, L, delta)
    assert edges.calls == 4
    assert np.isnan(got[1]).any() and got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(s=st.floats(0.0, 50.0), t=st.floats(0.0, 50.0))
def test_entropy_FLdelta_is_convex(s, t):
    # monotone first derivative is the workable convexity statement here
    d1s = float(entropy_FLdelta(s, CutoffParams(5.0, 1e-4))[1])
    d1t = float(entropy_FLdelta(t, CutoffParams(5.0, 1e-4))[1])
    if s < t:
        assert d1s <= d1t + 1e-12
    val = float(entropy_FLdelta(s, CutoffParams(5.0, 1e-4))[0])
    assert val >= -1e-12


@settings(max_examples=100, deadline=None)
@given(s=st.floats(0.0, 100.0))
def test_entropy_F_nonnegative(s):
    assert float(entropy_F(s)) >= -1e-15


def test_entropy_F_is_cancellation_free_near_one():
    # F(1 + d) = d^2/2 - d^3/6 + d^4/12 - ...; with d = s - 1 exact, the
    # value keeps a relative error of a few ulp of d, where the form
    # s (log s - 1) + 1 loses about 1e-16 absolute to cancellation
    mags = np.logspace(-12.0, -4.0, 81)
    s = 1.0 + np.concatenate([mags, -mags])
    d = s - 1.0
    series = d * d / 2.0 - d ** 3 / 6.0 + d ** 4 / 12.0
    err = np.abs(entropy_F(s) - series)
    assert np.all(err <= 4e-16 * np.abs(d))
