import math

import numpy as np
import pytest
from scipy import stats

from blobflow import reference
from blobflow.convex_energy import ConvergenceError, EnergyFamily
from blobflow.ensemble import prepare_initial_particles, quantiles_from_cdf
from blobflow.mollifier import QuadratureGrid
from blobflow.reference import (
    DeltaSchedule,
    barenblatt,
    barenblatt_constant,
    barenblatt_reference,
    base_conjugate_prime,
    gaussian_reference,
    heat_kernel_reference,
    steady_state,
    uniform_reference,
)


def quad_potential(p):
    return 0.5 * np.einsum("ij,ij->i", p, p)


BOX1 = (np.array([-8.0]), np.array([8.0]))


# ---------------------------------------------------------------------------
# heat kernel


def test_heat_kernel_matches_normal_pdf():
    t = 0.37
    xs = np.linspace(-4, 4, 101)[:, None]
    np.testing.assert_allclose(
        heat_kernel_reference(1, t).pdf(xs),
        stats.norm.pdf(xs[:, 0], scale=np.sqrt(2 * t)),
        rtol=1e-12,
    )


def test_heat_kernel_reference_cdf():
    ref = heat_kernel_reference(1, 0.5)
    xs = np.linspace(-3, 3, 41)
    np.testing.assert_allclose(ref.cdf(xs), stats.norm.cdf(xs), atol=1e-12)


def test_heat_kernel_2d_mass():
    t = 0.25
    s = np.linspace(0, 8, 40001)
    vals = heat_kernel_reference(2, t).pdf(np.column_stack([s, np.zeros_like(s)]))
    mass = np.trapezoid(2 * np.pi * s * vals, s)
    assert mass == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# Barenblatt profiles


def test_barenblatt_constant_closed_forms():
    # m=2, d=1: C = 3^(1/3)/4 ; m=1/2, d=1: C = (sqrt(3) pi / 2)^(2/3)
    assert barenblatt_constant(2.0, 1) == pytest.approx(3 ** (1 / 3) / 4, rel=1e-12)
    assert barenblatt_constant(0.5, 1) == pytest.approx(
        (np.sqrt(3.0) * np.pi / 2.0) ** (2.0 / 3.0), rel=1e-10
    )


@pytest.mark.parametrize(
    "m,d", [(2.0, 1), (3.0, 1), (0.5, 1), (0.4, 1), (2.0, 2), (0.6, 2), (1.5, 3), (0.75, 3)]
)
def test_barenblatt_constant_against_quadrature(m, d):
    # unit mass of t^-alpha (C - k|y|^2 t^-2beta)_+^p fixes C through the
    # radial integral of the unit profile, here by adaptive quadrature
    from scipy.integrate import quad

    alpha = d / (d * (m - 1) + 2)
    k = alpha * (m - 1) / (2 * d * m)
    p = 1 / (m - 1)
    if m > 1:
        radial, _ = quad(lambda s: s ** (d - 1) * (1 - s * s) ** p, 0, 1, epsabs=0)
    else:
        radial, _ = quad(lambda s: s ** (d - 1) * (1 + s * s) ** p, 0, np.inf, limit=200)
    area = 2 * np.pi ** (d / 2) / math.gamma(d / 2)
    expect = (abs(k) ** (d / 2) / (area * radial)) ** (1 / (p + d / 2))
    assert barenblatt_constant(m, d) == pytest.approx(expect, rel=1e-13)


@pytest.mark.parametrize("m,d", [(2.0, 1), (3.0, 1), (2.0, 2), (0.5, 1)])
def test_barenblatt_mass_is_one(m, d):
    # over the reference box: past the support edge for m > 1, 200 profile
    # scales of the fat tails for m < 1
    t = 0.8
    rad = barenblatt_reference(m, d, t).box[1][0]
    s = np.linspace(0.0, rad, 400_001)
    pts = np.zeros((s.size, d))
    pts[:, 0] = s
    vals = barenblatt(m, d, t, pts)
    if d == 1:
        mass = 2 * np.trapezoid(vals, s)
    else:
        mass = np.trapezoid(2 * np.pi * s * vals, s)
    assert mass == pytest.approx(1.0, abs=5e-5)


def test_barenblatt_solves_the_pde():
    # rho_t = (rho^m)_xx away from the free boundary
    m, d, t = 2.0, 1, 1.0
    xs = np.linspace(-0.5, 0.5, 9)[:, None]
    ht, hx = 1e-5, 1e-4
    rho_t = (barenblatt(m, d, t + ht, xs) - barenblatt(m, d, t - ht, xs)) / (2 * ht)
    lap = (
        barenblatt(m, d, t, xs + hx) ** m
        - 2 * barenblatt(m, d, t, xs) ** m
        + barenblatt(m, d, t, xs - hx) ** m
    ) / hx**2
    np.testing.assert_allclose(rho_t, lap, atol=1e-5)


def test_barenblatt_self_similar_rescaling():
    # t^alpha rho(t, t^beta y) is independent of t
    m, d = 2.0, 1
    alpha = d / (d * (m - 1) + 2)
    beta = alpha / d
    y = np.linspace(-0.6, 0.6, 25)[:, None]
    t1, t2 = 0.7, 2.9
    a = t1**alpha * barenblatt(m, d, t1, t1**beta * y)
    b = t2**alpha * barenblatt(m, d, t2, t2**beta * y)
    np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-12)


def test_barenblatt_support_m_greater_one():
    # the box reaches 1.05 times past the support edge
    m, d, t = 2.0, 1, 0.5
    r = barenblatt_reference(m, d, t).box[1][0]
    inside = np.array([[0.0], [0.9 * r]])
    outside = np.array([[r], [1.01 * r], [5.0]])
    assert np.all(barenblatt(m, d, t, inside) > 0)
    np.testing.assert_array_equal(barenblatt(m, d, t, outside), 0.0)


@pytest.mark.parametrize("m", [2.0, 0.5])
def test_barenblatt_reference_cdf_matches_quadrature(m):
    ref = barenblatt_reference(m, 1, 0.75)
    lo, hi = ref.box[0][0], ref.box[1][0]
    xs = np.linspace(lo, hi, 2_000_001)
    pdf = ref.pdf(xs[:, None])
    cdf_quad = np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(xs))
    probe = np.linspace(lo * 0.5, hi * 0.5, 17)
    got = ref.cdf(probe)
    expect = np.interp(probe, xs[1:], cdf_quad)
    np.testing.assert_allclose(got, expect, atol=3e-7)


@pytest.mark.parametrize("b", [1 + 1e-7, 1.05, 1.5, 2.5, 10.0, 100.0, 1e3, 1e4])
def test_half_beta_matches_betainc(b):
    # the fast-diffusion CDF's I_x(1/2, b) against scipy, imported here only
    from scipy.special import betainc

    edges = [0.0, 1e-300, 1 - 1e-12, 1 - 2.0**-53, 1.0]
    xs = np.concatenate([np.linspace(0.0, 1.0, 20_001)[1:-1], edges])
    got = reference._half_beta(b, xs)
    want = betainc(0.5, b, xs)
    assert got[-5] == 0.0 and got[-1] == 1.0
    np.testing.assert_allclose(got, want, rtol=1e-14 if b <= 100 else 1e-13, atol=0)
    # betainc loses a subnormal x (11% low at 5e-324); below 1e-300 the value
    # is 2 sqrt(x) / B(1/2, b) to rounding, so it scales exactly as sqrt(x)
    tiny = reference._half_beta(b, np.array([5e-324]))[0]
    assert tiny == pytest.approx(betainc(0.5, b, 2.0**-1000) * 2.0**-37, rel=1e-14)
    # each lane's value is what it would be alone
    alone = [reference._half_beta(b, xs[i : i + 1])[0] for i in range(0, xs.size, 1999)]
    np.testing.assert_array_equal(alone, got[::1999])


def test_half_beta_raises_on_a_lane_that_cannot_converge():
    with pytest.raises(ConvergenceError):
        reference._half_beta(1.5, np.array([0.25, np.nan, 0.75]))


@pytest.mark.parametrize("n", [64, 128, 512])
def test_fast_diffusion_start_keeps_the_betainc_cloud(n):
    # the golden fast_diffusion case (N = 128), the fd_tails benchmark (512)
    # and the dynamics tests (64) start from this cloud: the numpy CDF must
    # bisect to the same bits as scipy's
    from scipy.special import betainc

    m, t = 0.5, 0.5
    ref = barenblatt_reference(m, 1, t)
    alpha = 1 / (m + 1)
    edge = math.sqrt(barenblatt_constant(m, 1) / (alpha * (1 - m) / (2 * m))) * t**alpha
    b = -1 / (m - 1) - 0.5

    def betainc_cdf(xs):
        u = np.asarray(xs, dtype=float) / edge
        return 0.5 * (1.0 + np.sign(u) * betainc(0.5, b, u * u / (1.0 + u * u)))

    levels = (np.arange(n) + 0.5) / n
    want = quantiles_from_cdf(betainc_cdf, ref.box[0][0], ref.box[1][0], levels)
    got = prepare_initial_particles(ref, n).positions[:, 0]
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# schedule


def test_delta_schedule_bound_and_values():
    s = DeltaSchedule(beta=0.5, effective_r=4.0, dimension=1)
    assert s.upper_bound == pytest.approx(1.0)
    assert s.delta_of(0.04) == pytest.approx(0.2)
    s2 = DeltaSchedule(beta=0.5, effective_r=5.0, dimension=2)
    assert s2.upper_bound == pytest.approx(0.75)
    # unset, r is d + 3
    assert DeltaSchedule(0.5).upper_bound == pytest.approx(1.0)
    assert DeltaSchedule(0.5, dimension=2).upper_bound == pytest.approx(0.75)
    assert DeltaSchedule(0.5, effective_r=4.0, dimension=2).upper_bound == pytest.approx(2.0 / 3.0)


def test_delta_schedule_rejects_bad_parameters():
    with pytest.raises(ValueError):
        DeltaSchedule(beta=0.8, effective_r=5.0, dimension=2)  # bound 0.75
    with pytest.raises(ValueError):
        DeltaSchedule(beta=0.5, effective_r=2.0, dimension=1)  # needs r > 2
    with pytest.raises(ValueError):
        DeltaSchedule(beta=0.0, effective_r=4.0, dimension=1)
    with pytest.raises(ValueError):
        DeltaSchedule(beta=0.5, effective_r=4.0, dimension=1).delta_of(-0.1)


# ---------------------------------------------------------------------------
# base conjugate derivative


def test_base_conjugate_prime_inverts_slope():
    heat = EnergyFamily.heat()
    pme = EnergyFamily.porous_medium(2.0)
    fd = EnergyFamily.fast_diffusion(0.5)
    b = np.linspace(-2.0, 2.0, 9)
    np.testing.assert_allclose(base_conjugate_prime(heat, b), np.exp(b), rtol=1e-12)
    # f' = 2a for m=2, so the inverse is b/2 on b > 0 and 0 below
    np.testing.assert_allclose(
        base_conjugate_prime(pme, b), np.maximum(b, 0.0) / 2.0, rtol=1e-12
    )
    neg = np.array([-4.0, -1.0, -0.25])
    # f'(a) = -a^(-1/2) for m=1/2, inverse a = b^(-2)
    np.testing.assert_allclose(base_conjugate_prime(fd, neg), neg**-2.0, rtol=1e-12)
    assert base_conjugate_prime(fd, np.array([0.5]))[0] == np.inf
    height = EnergyFamily.height_constraint()
    np.testing.assert_array_equal(
        base_conjugate_prime(height, np.array([-1.0, 0.0, 0.3])), [0.0, 0.0, 1.0]
    )


# ---------------------------------------------------------------------------
# steady states


def test_steady_state_heat_is_standard_normal():
    ss = steady_state(EnergyFamily.heat(), quad_potential, BOX1)
    assert ss.z == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-6)
    xs = np.linspace(-3, 3, 61)[:, None]
    np.testing.assert_allclose(ss.reference.pdf(xs), stats.norm.pdf(xs[:, 0]), atol=1e-6)


def test_steady_state_pme_parabola():
    ss = steady_state(EnergyFamily.porous_medium(2.0), quad_potential, BOX1)
    assert ss.z == pytest.approx(0.5 * 3 ** (2 / 3), abs=1e-6)
    xs = np.linspace(-3, 3, 801)[:, None]
    expect = np.maximum(ss.z - 0.5 * xs[:, 0] ** 2, 0.0) / 2.0
    np.testing.assert_allclose(ss.reference.pdf(xs), expect, atol=1e-9)
    mass = np.trapezoid(ss.reference.pdf(xs), xs[:, 0])
    assert mass == pytest.approx(1.0, abs=1e-5)


def test_steady_state_height_patch():
    # unit-mass patch {x^2/2 < Z} has length 2 sqrt(2Z) = 1, so Z = 1/8; the
    # indicator mass is grid-quantized, so resolve finely
    ss = steady_state(
        EnergyFamily.height_constraint(), quad_potential, BOX1, resolution=65536
    )
    assert ss.z == pytest.approx(0.125, abs=1e-4)
    xs = np.array([[-0.6], [-0.4], [0.0], [0.4], [0.6]])
    np.testing.assert_allclose(ss.reference.pdf(xs), [0.0, 1.0, 1.0, 1.0, 0.0], atol=1e-9)


def test_steady_state_fast_diffusion_exists():
    # m = 1/2 gives density (Z - V)^{-2} on {V > Z}; mass is finite for Z < 0
    # and sweeps (0, inf) as Z rises to min V, so a unit-mass level exists
    ss = steady_state(EnergyFamily.fast_diffusion(0.5), quad_potential, BOX1)
    assert ss.z < 0.0
    xs = np.linspace(BOX1[0][0], BOX1[1][0], 40001)[:, None]
    mass = np.trapezoid(ss.reference.pdf(xs), xs[:, 0])
    assert mass == pytest.approx(1.0, abs=2e-3)
    np.testing.assert_allclose(
        ss.reference.pdf(np.array([[0.0]])), (0.0 - ss.z) ** -2, rtol=1e-12
    )


def test_steady_state_mass_shortfall_is_reported():
    # a height patch can hold at most the box volume; on a half-width-1/4
    # box the target mass 1 is unreachable
    tiny = (np.array([-0.25]), np.array([0.25]))
    with pytest.raises(ValueError, match="never reaches"):
        steady_state(
            EnergyFamily.height_constraint(), quad_potential, tiny, margin=0.01
        )


def test_steady_state_needs_confinement():
    flat = lambda p: np.zeros(p.shape[0])
    with pytest.raises(ValueError):
        steady_state(EnergyFamily.heat(), flat, BOX1)


def _z_after_200_bisections(family, box, resolution):
    """Z of steady_state on a 1d box by all 200 steps of its bisection."""
    grid = QuadratureGrid(box[0], box[1], (resolution,))
    v = quad_potential(grid.nodes)

    def mass(z):
        with np.errstate(all="ignore"):
            total = float(np.sum(base_conjugate_prime(family, z - v)) * grid.cell)
        return total if np.isfinite(total) else np.inf

    z_lo, z_hi = float(v.min()) - 10.0, float(v.max()) + 10.0
    for _ in range(200):
        mid = 0.5 * (z_lo + z_hi)
        if mass(mid) < 1.0:
            z_lo = mid
        else:
            z_hi = mid
    return 0.5 * (z_lo + z_hi)


@pytest.mark.parametrize(
    "family",
    [
        EnergyFamily.heat(),
        EnergyFamily.porous_medium(2.0),
        EnergyFamily.fast_diffusion(0.5),
        EnergyFamily.height_constraint(),
    ],
    ids=lambda f: f.kind,
)
def test_steady_state_bisection_stops_at_its_fixed_point(family, monkeypatch):
    # the box and resolution of every steady_state reference of the CLI
    calls = []
    profile = reference.base_conjugate_prime
    monkeypatch.setattr(
        reference, "base_conjugate_prime", lambda *a: calls.append(1) or profile(*a)
    )
    z = steady_state(family, quad_potential, BOX1, resolution=4096).z
    assert z == _z_after_200_bisections(family, BOX1, 4096)
    # two bracket checks and well under 200 bisection steps
    assert len(calls) < 100


def test_steady_state_reference_has_cdf():
    ss = steady_state(EnergyFamily.heat(), quad_potential, BOX1)
    ref = ss.reference
    xs = np.linspace(-3, 3, 21)
    np.testing.assert_allclose(ref.cdf(xs), stats.norm.cdf(xs), atol=1e-5)


# ---------------------------------------------------------------------------
# simple references


def test_gaussian_and_uniform_references():
    g = gaussian_reference(1, 2.0, center=1.0)
    xs = np.linspace(-6, 8, 29)
    np.testing.assert_allclose(
        g.pdf(xs[:, None]), stats.norm.pdf(xs, loc=1.0, scale=2.0), rtol=1e-12
    )
    np.testing.assert_allclose(g.cdf(xs), stats.norm.cdf(xs, loc=1.0, scale=2.0), atol=1e-12)
    u = uniform_reference(1, 0.5, center=0.25)
    np.testing.assert_allclose(
        u.pdf(np.array([[0.0], [0.25], [0.8]])), [1.0, 1.0, 0.0]
    )
