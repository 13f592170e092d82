import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from blobflow.convex_energy import (
    ConvergenceError,
    EnergyFamily,
    RegularizedEnergy,
    energy_value,
    h1_density_quadrature,
    moreau_value,
    prox,
    reg_conjugate,
    reg_conjugate_derivative,
    reg_derivative,
    reg_value,
    _newton_bisect,
    _stationary,
)

HEAT = EnergyFamily.heat()
PME2 = EnergyFamily.porous_medium(2.0)
PME3 = EnergyFamily.porous_medium(3.0)
FD = EnergyFamily.fast_diffusion(0.5)
HEIGHT = EnergyFamily.height_constraint()

ALL = (HEAT, PME2, PME3, FD, HEIGHT)
SMOOTH = (HEAT, PME2, PME3, FD)

family_strategy = st.sampled_from(ALL)
delta_strategy = st.floats(min_value=1e-3, max_value=1.0)


def make_reg(family, delta):
    return RegularizedEnergy(family=family, delta=delta)


# ---------------------------------------------------------------------------
# base energy values


def test_energy_values_match_formulas():
    a = np.array([0.0, 0.3, 1.0, 2.5])
    # heat uses the a log a - a normalization, so f'(a) = log a
    expect_heat = np.where(a > 0, a * np.log(np.maximum(a, 1e-300)) - a, 0.0)
    np.testing.assert_allclose(energy_value(HEAT, a), expect_heat)
    np.testing.assert_allclose(energy_value(PME2, a), a**2)
    np.testing.assert_allclose(energy_value(FD, a), -2.0 * np.sqrt(a))
    assert energy_value(HEIGHT, 0.7) == 0.0
    assert energy_value(HEIGHT, 1.0) == 0.0
    assert energy_value(HEIGHT, 1.0 + 1e-12) == np.inf


def test_energy_value_negative_is_infinite():
    for fam in ALL:
        assert energy_value(fam, -0.1) == np.inf


def test_pme_general_exponent():
    a = np.linspace(0.1, 4.0, 7)
    np.testing.assert_allclose(energy_value(PME3, a), a**3 / 2.0)


# ---------------------------------------------------------------------------
# proximal map: independent grid-minimization oracle


def _prox_oracle(family, delta, a, width=6.0, n=200_001):
    """Brute-force argmin of f(b) + (b - a)^2 / (2 delta) on a dense grid."""
    hi = max(a + 1.0, a * 1.5 + 1.0, 2.0)
    grid = np.linspace(0.0, hi, n)
    with np.errstate(all="ignore"):
        vals = np.asarray(energy_value(family, grid)) + (grid - a) ** 2 / (2 * delta)
    vals = np.where(np.isfinite(vals), vals, np.inf)
    return grid[int(np.argmin(vals))], hi / (n - 1)


@pytest.mark.parametrize("family", ALL, ids=lambda f: f.kind)
@pytest.mark.parametrize("delta", [0.05, 0.3, 1.0])
def test_prox_against_grid_minimization(family, delta):
    for a in (0.0, 0.2, 1.0, 3.7):
        expected, step = _prox_oracle(family, delta, a)
        got = prox(family, delta, a)
        assert abs(got - expected) <= 2 * step, (family.kind, delta, a)


def test_prox_closed_form_pme_m2():
    # b + 2 delta b = a for f = a^2
    delta = 0.37
    a = np.linspace(0.0, 5.0, 11)
    np.testing.assert_allclose(prox(PME2, delta, a), a / (1 + 2 * delta), rtol=1e-12)


def test_prox_height_is_clip():
    delta = 0.25
    a = np.array([-1.0, 0.0, 0.4, 1.0, 2.5])
    np.testing.assert_allclose(prox(HEIGHT, delta, a), np.clip(a, 0.0, 1.0))


def test_prox_heat_stationarity():
    # delta log b + b = a at the minimizer
    delta = 0.2
    a = np.linspace(0.0, 6.0, 13)
    b = np.asarray(prox(HEAT, delta, a))
    np.testing.assert_allclose(delta * np.log(b) + b, a, atol=1e-10)


@pytest.mark.parametrize("delta", [0.01, 1.0])
def test_prox_heat_far_below_zero(delta):
    # the root of b + delta log b = a is about exp(a / delta): below 2^-200
    # once a / delta < -138, and below the smallest double once it is < -745
    ratio = -np.geomspace(1e-3, 1e3, 2001)[::-1]
    b = np.asarray(prox(HEAT, delta, ratio * delta))
    assert np.isfinite(b).all() and (b >= 0.0).all()
    assert (np.diff(b) >= 0.0).all()
    assert (b[ratio > -740.0] > 0.0).all()
    # y = log b is the fixed point of y = a / delta - exp(y) / delta
    y = ratio.copy()
    for _ in range(200):
        y = ratio - np.exp(y) / delta
    normal = (np.exp(y) > 1e-300) & (np.exp(y) < 0.5 * delta)
    np.testing.assert_allclose(b[normal], np.exp(y[normal]), rtol=1e-12, atol=0.0)


def test_prox_pme3_converges_at_any_density():
    # the root of b + c b^2 = a sits near sqrt(a / c), far below a: Newton
    # from the top of [0, a] only halves its iterate, for about as many
    # steps as its budget once a passes 1e120
    delta = 0.01
    a = np.geomspace(1e20, 1e300, 29)
    b = np.asarray(prox(PME3, delta, a))
    np.testing.assert_allclose(b + 1.5 * delta * b**2, a, rtol=1e-11, atol=0.0)


def test_newton_falls_back_to_bisection_on_infinite_and_nan_candidates():
    # g = (x - 2)^3 - 1/2 on [0, 4]: at the first midpoint g' = 0, so the
    # Newton candidate is +inf on lane 0; lane 1 reports g' = NaN there
    seen = []

    def g_and_gp(x):
        seen.append(x.copy())
        gp = 3.0 * (x - 2.0) ** 2
        return (x - 2.0) ** 3 - 0.5, np.where((x == 2.0) & [False, True], np.nan, gp)

    root = _newton_bisect(g_and_gp, [0.0, 0.0], [4.0, 4.0], 1.0)
    np.testing.assert_array_equal(seen[0], [2.0, 2.0])
    np.testing.assert_array_equal(seen[1], [3.0, 3.0])  # the midpoint of [2, 4]
    np.testing.assert_allclose(root, 2.0 + 0.5 ** (1.0 / 3.0), rtol=1e-12)


@pytest.mark.parametrize("family", ALL, ids=lambda f: f.kind)
def test_prox_skips_zero_lanes_with_the_same_bits(family):
    # zero lanes take the once-solved J_delta(0); every lane, zero or not,
    # holds the bits of its own one-lane solve and of a solve over all lanes
    delta = 0.3
    a = np.array([0.0, 0.7, 0.0, 1e-9, 2.5, 0.0, 40.0, 0.0])
    got = np.asarray(prox(family, delta, a))
    np.testing.assert_array_equal(got, [prox(family, delta, x) for x in a])
    if family is not HEIGHT:
        np.testing.assert_array_equal(got, _stationary(family, 1.0, delta, a))
    zeros = np.asarray(prox(family, delta, np.zeros(3)))
    np.testing.assert_array_equal(zeros, np.full(3, prox(family, delta, 0.0)))
    # an input without zero lanes takes the same path, with the same bits
    full = a[a != 0.0]
    got = np.asarray(prox(family, delta, full))
    np.testing.assert_array_equal(got, [prox(family, delta, x) for x in full])
    if family is not HEIGHT:
        np.testing.assert_array_equal(got, _stationary(family, 1.0, delta, full))


@pytest.mark.parametrize(
    "family, most", [(HEAT, 12.0), (FD, 14.29), (PME2, 15.31)], ids=["heat", "fd", "pme"]
)
def test_prox_runs_in_a_fixed_set_of_lane_buffers(family, most):
    # a stage's call: 200k lanes, a tenth of them empty grid nodes, and the
    # prox point written into a caller's array. The peak is counted in
    # lane-sized arrays. With a fresh array for every temporary of every
    # Newton iteration it reached 14.40 (heat), 14.29 (fd) and 15.30 (pme):
    # heat's bound lies below that, the power laws' bounds at it, rounded up
    n = 200_000
    rng = np.random.default_rng(0)
    a = 3.0 * rng.random(n)
    a[rng.random(n) < 0.1] = 0.0
    reg = make_reg(family, 0.05)
    j = np.empty_like(a)
    reg.derivative_at_zero  # solves and caches J_delta(0), which the call reads
    tracemalloc.start()
    try:
        q = reg_derivative(reg, a, j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= most * a.nbytes
    np.testing.assert_array_equal(j, prox(family, 0.05, a))
    np.testing.assert_array_equal(q, reg_derivative(reg, a))


def test_newton_names_how_many_lanes_missed():
    # x + shift has no root in [0, 1] on lane 2: its bracket halves towards
    # 0 and never closes to relative resolution in 200 steps
    shift = np.array([-0.3, -0.7, 10.0])
    with pytest.raises(ConvergenceError, match=r"on 1 lane\(s\) after 200 iterations"):
        _newton_bisect(lambda x: (x + shift, np.ones_like(x)), np.zeros(3), np.ones(3), 1.0)


@given(family=family_strategy, delta=delta_strategy, data=st.data())
def test_prox_monotone_and_nonexpansive(family, delta, data):
    a1 = data.draw(st.floats(min_value=0.0, max_value=10.0))
    a2 = data.draw(st.floats(min_value=0.0, max_value=10.0))
    lo, hi = sorted((a1, a2))
    b_lo = prox(family, delta, lo)
    b_hi = prox(family, delta, hi)
    assert b_hi - b_lo >= -1e-12
    assert (b_hi - b_lo) <= (hi - lo) + 1e-10


def test_moreau_envelope_properties():
    for fam in ALL:
        delta = 0.3
        a = np.linspace(0.0, 3.0, 31)
        env = np.asarray(moreau_value(fam, delta, a))
        f = np.asarray(energy_value(fam, a))
        assert np.all(env <= f + 1e-12)
        # envelope value via its own minimizer
        b = np.asarray(prox(fam, delta, a))
        direct = np.asarray(energy_value(fam, b)) + (b - a) ** 2 / (2 * delta)
        np.testing.assert_allclose(env, direct, atol=1e-12)


# ---------------------------------------------------------------------------
# regularized energy


def test_reg_value_zero_at_origin():
    for fam in ALL:
        reg = make_reg(fam, 0.3)
        assert reg_value(reg, 0.0) == 0.0


def test_reg_value_negative_rejected():
    reg = make_reg(HEAT, 0.3)
    assert reg_value(reg, -0.5) == np.inf
    with pytest.raises(ValueError):
        reg_derivative(reg, -0.5)


def test_reg_derivative_is_derivative():
    for fam in ALL:
        reg = make_reg(fam, 0.4)
        a = np.linspace(0.1, 4.0, 23)
        h = 1e-6
        fd = (np.asarray(reg_value(reg, a + h)) - np.asarray(reg_value(reg, a - h))) / (
            2 * h
        )
        np.testing.assert_allclose(np.asarray(reg_derivative(reg, a)), fd, atol=1e-7)


@given(family=family_strategy, delta=delta_strategy, data=st.data())
def test_reg_derivative_lipschitz_sandwich(family, delta, data):
    a1 = data.draw(st.floats(min_value=0.0, max_value=10.0))
    a2 = data.draw(st.floats(min_value=0.0, max_value=10.0))
    lo, hi = sorted((a1, a2))
    reg = make_reg(family, delta)
    gap = reg_derivative(reg, hi) - reg_derivative(reg, lo)
    width = hi - lo
    assert gap >= delta * width - 1e-9 * max(1.0, width)
    assert gap <= (delta + 1.0 / delta) * width + 1e-9 * max(1.0, width)


@given(family=family_strategy, delta=delta_strategy, a=st.floats(min_value=0.0, max_value=10.0))
def test_fenchel_young_identity(family, delta, a):
    reg = make_reg(family, delta)
    q = reg_derivative(reg, a)
    lhs = a * q
    rhs = reg_value(reg, a) + reg_conjugate(reg, q)
    assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))


def test_conjugate_nonnegative_and_zero_at_base_slope():
    for fam in ALL:
        reg = make_reg(fam, 0.35)
        b = reg.derivative_at_zero + np.linspace(0.0, 5.0, 21)
        vals = np.asarray(reg_conjugate(reg, b))
        assert np.all(vals >= 0.0)
        assert reg_conjugate(reg, reg.derivative_at_zero) == pytest.approx(0.0, abs=1e-12)


def _conjugate_derivative_bisect_oracle(reg, b):
    """Literal bisection of f_reg'(a) = b on [0, (b - f_reg'(0)) / delta + 1]."""
    lo = 0.0
    hi = (b - reg.derivative_at_zero) / reg.delta + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if reg_derivative(reg, mid) > b:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("family", SMOOTH, ids=lambda f: f.kind)
def test_conjugate_derivative_matches_bisection_oracle(family):
    rng = np.random.default_rng(7)
    for delta in (0.05, 0.3, 0.9):
        reg = make_reg(family, delta)
        a = rng.uniform(0.0, 8.0, size=24)
        b = np.asarray(reg_derivative(reg, a))
        got = np.asarray(reg_conjugate_derivative(reg, b))
        expect = np.array([_conjugate_derivative_bisect_oracle(reg, bb) for bb in b])
        np.testing.assert_allclose(got, expect, atol=1e-10, rtol=1e-10)


def test_conjugate_derivative_height_piecewise():
    reg = make_reg(HEIGHT, 0.5)
    # below delta the inverse is b/delta; above, (delta b + 1)/(delta^2 + 1)
    assert reg_conjugate_derivative(reg, 0.2) == pytest.approx(0.4, rel=1e-12)
    assert reg_conjugate_derivative(reg, 2.0) == pytest.approx(
        (0.5 * 2.0 + 1) / (0.25 + 1), rel=1e-12
    )
    assert reg_conjugate_derivative(reg, -3.0) == 0.0


@given(family=family_strategy, delta=delta_strategy, a=st.floats(min_value=0.0, max_value=10.0))
def test_conjugate_derivative_inverts_derivative(family, delta, a):
    reg = make_reg(family, delta)
    back = reg_conjugate_derivative(reg, reg_derivative(reg, a))
    assert back == pytest.approx(a, abs=1e-8, rel=1e-8)


def test_curvature_sandwich_finite_differences(rng):
    for fam in ALL:
        for delta in (0.05, 0.4, 1.0):
            reg = make_reg(fam, delta)
            a = rng.uniform(0.05, 6.0, size=200)
            h = 1e-4
            f2 = (
                np.asarray(reg_value(reg, a + h))
                - 2 * np.asarray(reg_value(reg, a))
                + np.asarray(reg_value(reg, a - h))
            ) / h**2
            tol = 1e-3 * (delta + 1.0 / delta)
            assert np.all(f2 >= delta - tol)
            assert np.all(f2 <= delta + 1.0 / delta + tol)


# ---------------------------------------------------------------------------
# dual-Sobolev density e


def test_h1_density_quadrature_agrees():
    a = np.linspace(0.05, 4.0, 25)
    closed = {HEAT: a**2 / 2.0}
    closed.update({fam: a ** (fam.m + 1.0) / (fam.m + 1.0) for fam in (PME2, PME3, FD)})
    for fam in SMOOTH:
        num = np.array([h1_density_quadrature(fam, x) for x in a])
        np.testing.assert_allclose(num, closed[fam], rtol=1e-9)
    heights = np.array([h1_density_quadrature(HEIGHT, x) for x in np.linspace(0, 1, 11)])
    np.testing.assert_allclose(heights, 0.0, atol=1e-14)


def test_h1_quadrature_definition_vs_slope_integral():
    # a f(a) - 2 int_0^a f  ==  int_0^a e'(s) ds, e'(s) = s f'(s) - f(s) = s^m
    fam = PME3
    for a in (0.5, 1.7, 3.2):
        direct = h1_density_quadrature(fam, a)
        slope_integral, _ = quad(lambda s: s**fam.m, 0.0, a, limit=200)
        assert direct == pytest.approx(slope_integral, rel=1e-8)


# ---------------------------------------------------------------------------
# construction validation


def test_family_validation():
    with pytest.raises(ValueError):
        EnergyFamily.porous_medium(1.0)
    with pytest.raises(ValueError, match=r"fast_diffusion requires m in \(0, 1\)"):
        EnergyFamily.fast_diffusion(1.0)
    with pytest.raises(ValueError, match=r"fast_diffusion requires m in \(0, 1\)"):
        EnergyFamily.fast_diffusion(0.0)
    # the d-dependent floor 1 - 2/(d + 2) is checked by whoever knows d
    with pytest.raises(ValueError, match=r"m in \(0.33333333333333337, 1\) for d=1"):
        EnergyFamily.fast_diffusion(0.2).check_dimension(1)
    EnergyFamily.fast_diffusion(0.6).check_dimension(2)
    with pytest.raises(ValueError, match=r"m in \(0.5, 1\) for d=2"):
        EnergyFamily.fast_diffusion(0.5).check_dimension(2)  # bound is exclusive
    EnergyFamily.heat().check_dimension(3)
    for d in (0, 1.0, None):
        with pytest.raises(ValueError, match="dimension must be a positive integer"):
            EnergyFamily.heat().check_dimension(d)
    with pytest.raises(ValueError):
        RegularizedEnergy(family=HEAT, delta=0.0)
