import dataclasses
import itertools
from math import gamma

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blobflow.ensemble import ParticleEnsemble
from blobflow.mollifier import (
    _PANEL_NODES,
    _PANEL_WEIGHTS,
    _amplitude,
    GridWindow,
    MollifierKernel,
    QuadratureGrid,
    kernel_gradient,
    kernel_norms,
    kernel_value,
    mollified_density,
    radial_profile,
)


def test_panel_rule_is_leggauss_bit_for_bit():
    # the frozen table replaces leggauss(40), which only this test imports
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(40)
    assert np.array_equal(_PANEL_NODES, nodes)
    assert np.array_equal(_PANEL_WEIGHTS, weights)


def test_gaussian_norms_match_closed_forms_1d():
    eps = 0.17
    n = kernel_norms(MollifierKernel.gaussian(eps), 1)
    assert n.sup == pytest.approx(1.0 / (np.sqrt(2 * np.pi) * eps), rel=1e-9)
    assert n.grad_l1 == pytest.approx(np.sqrt(2.0 / np.pi) / eps, rel=1e-9)
    # |phi''| integrates to 4 |phi'(eps)| = 4 phi_1(1) / eps^2
    phi1_at_1 = np.exp(-0.5) / np.sqrt(2 * np.pi)
    assert n.hess_l1 == pytest.approx(4.0 * phi1_at_1 / eps**2, rel=1e-8)
    assert n.grad_w11 == pytest.approx(n.grad_l1 + n.hess_l1, rel=1e-15)


def test_gaussian_sup_2d():
    eps = 0.2
    n = kernel_norms(MollifierKernel.gaussian(eps), 2)
    assert n.sup == pytest.approx(1.0 / (2 * np.pi * eps**2), rel=1e-9)


@pytest.mark.parametrize(
    "k",
    [
        MollifierKernel.gaussian(0.17),
        MollifierKernel.bump(0.17, order=3),
        MollifierKernel.bump(0.17, order=4),
        MollifierKernel.bump(0.17, order=6),
    ],
    ids=["gaussian", "bump3", "bump4", "bump6"],
)
def test_norms_match_exact_values_1d(k):
    # in d = 1, g' <= 0 on the support and g'' changes sign once, at s0,
    # where g' is least: both L1 norms are differences of g and g'
    g, g1, _ = radial_profile(k, 1)
    rad = k.support_radius
    s0 = k.epsilon if k.kind == "gaussian" else k.epsilon / np.sqrt(2 * k.order - 1)
    n = kernel_norms(k, 1)
    assert n.grad_l1 == pytest.approx(2 * (g(0.0) - g(rad)), rel=1e-13)
    assert n.hess_l1 == pytest.approx(2 * (g1(rad) - 2 * g1(s0)), rel=1e-13)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("order", [3, 4, 6])
def test_bump_amplitude_against_quadrature(d, order):
    from scipy.integrate import quad

    radial, _ = quad(lambda r: r ** (d - 1) * (1 - r * r) ** order, 0, 1, epsabs=0)
    area = 2 * np.pi ** (d / 2) / gamma(d / 2)
    peak = kernel_value(MollifierKernel.bump(1.0, order), np.zeros(d))
    assert peak * area * radial == pytest.approx(1.0, rel=1e-13)


def test_norms_scale_like_inverse_powers():
    for d in (1, 2):
        a = kernel_norms(MollifierKernel.gaussian(0.1), d)
        b = kernel_norms(MollifierKernel.gaussian(0.2), d)
        assert a.sup == pytest.approx(b.sup * 2.0**d, rel=1e-9)
        assert a.grad_l1 == pytest.approx(b.grad_l1 * 2.0, rel=1e-9)
        assert a.hess_l1 == pytest.approx(b.hess_l1 * 4.0, rel=1e-8)


def test_norms_cached_per_kernel():
    k = MollifierKernel.gaussian(0.15)
    assert kernel_norms(k, 1) is kernel_norms(k, 1)


@pytest.mark.parametrize("kind", ["gaussian", "bump"])
@pytest.mark.parametrize("d", [1, 2])
def test_normalization_by_quadrature(kind, d):
    k = (
        MollifierKernel.gaussian(0.21)
        if kind == "gaussian"
        else MollifierKernel.bump(0.21)
    )
    rad = k.support_radius
    xs = np.linspace(-rad, rad, 20001)
    if d == 1:
        mass = np.trapezoid(kernel_value(k, xs[:, None]), xs)
    else:
        g, _, _ = radial_profile(k, d)
        s = np.linspace(0.0, rad, 20001)
        mass = np.trapezoid(2 * np.pi * s * g(s), s)
    assert mass == pytest.approx(1.0, abs=5e-8)


@pytest.mark.parametrize("kind", ["gaussian", "bump"])
@pytest.mark.parametrize("d", [1, 2])
def test_radial_profile_derivatives_match_central_differences(kind, d):
    # g'' feeds kernel_norms' hess_l1 and so the Lipschitz estimate
    eps = 0.2
    k = (
        MollifierKernel.gaussian(eps)
        if kind == "gaussian"
        else MollifierKernel.bump(eps)
    )
    g, g1, g2 = radial_profile(k, d)
    # inside the support, clear of the bump edge and the Gaussian cutoff
    s = np.linspace(0.02, 0.9, 45) * min(k.support_radius, 4.0 * eps)
    h = 1e-5 * eps
    for f, df in ((g, g1), (g1, g2)):
        central = (f(s + h) - f(s - h)) / (2.0 * h)
        exact = df(s)
        assert np.max(np.abs(central - exact)) <= 1e-7 * np.max(np.abs(exact))


def test_kernel_even_and_gradient_odd():
    for kind in ("gaussian", "bump"):
        for d in (1, 2):
            k = getattr(MollifierKernel, kind)(0.3)
            rng = np.random.default_rng(5)
            x = rng.uniform(-0.3, 0.3, size=(64, d))
            np.testing.assert_array_equal(kernel_value(k, x), kernel_value(k, -x))
            np.testing.assert_array_equal(kernel_gradient(k, x), -kernel_gradient(k, -x))


def test_gradient_consistent_with_value():
    for kind in ("gaussian", "bump"):
        k = (
            MollifierKernel.gaussian(0.25)
            if kind == "gaussian"
            else MollifierKernel.bump(0.25)
        )
        rng = np.random.default_rng(11)
        x = rng.uniform(-0.2, 0.2, size=(32, 2))
        h = 1e-6
        grad = kernel_gradient(k, x)
        for ax in range(2):
            shift = np.zeros(2)
            shift[ax] = h
            fd = (kernel_value(k, x + shift) - kernel_value(k, x - shift)) / (2 * h)
            np.testing.assert_allclose(grad[:, ax], fd, atol=2e-3 * np.max(np.abs(grad)))


def test_compact_support_is_exact():
    k = MollifierKernel.bump(0.2)
    assert k.support_radius == 0.2
    xs = np.array([[0.2], [0.25], [3.0], [-0.2001]])
    np.testing.assert_array_equal(kernel_value(k, xs), 0.0)
    np.testing.assert_array_equal(kernel_gradient(k, xs), 0.0)
    kg = MollifierKernel.gaussian(0.2)
    assert kg.support_radius == pytest.approx(1.6)
    assert kernel_value(kg, np.array([[1.7]])) == 0.0


def test_gaussian_support_is_the_cube_in_2d():
    # the truncated Gaussian is cut at max_a |x_a| <= R, so that it factors
    # over the axes: (0.9R, 0.9R) lies outside the ball but inside the cube
    k = MollifierKernel.gaussian(0.2)
    rad = k.support_radius
    corner = np.array([[0.9 * rad, 0.9 * rad], [-0.9 * rad, 0.9 * rad]])
    assert np.all(kernel_value(k, corner) > 0.0)
    assert np.all(kernel_gradient(k, corner) != 0.0)
    past = rad * (1.0 + 1e-9)
    outside = np.array([[past, 0.0], [0.5 * rad, -past], [-past, 0.9 * rad]])
    np.testing.assert_array_equal(kernel_value(k, outside), 0.0)
    np.testing.assert_array_equal(kernel_gradient(k, outside), 0.0)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("kind", ["gaussian", "bump"])
@pytest.mark.parametrize("d", [1, 2])
def test_kernel_at_the_edge_inf_and_nan_matches_the_select_form(kind, d):
    # the profile zeroes the outside of the support in place; it must give
    # the bits of the select np.where(inside, v, 0.0), which sends NaN to 0
    eps = 0.2
    if kind == "gaussian":
        k = MollifierKernel.gaussian(eps)
    else:
        k = MollifierKernel.bump(eps)
    rad = k.support_radius
    coords = [0.0, 0.5 * rad, rad, -rad, np.nextafter(rad, 0.0), np.nextafter(rad, np.inf)]
    coords += [np.inf, -np.inf, np.nan]
    x = np.array(list(itertools.product(coords, repeat=d)))
    r2 = np.einsum("ij,ij->i", x, x)
    amp, eps2 = _amplitude(k, d), eps * eps
    with np.errstate(invalid="ignore"):
        if kind == "gaussian":
            val = np.where((x * x).max(axis=1) <= rad * rad, amp * np.exp(-0.5 * r2 / eps2), 0.0)
            fac = -val / eps2
        else:
            q, u2 = k.order, r2 / eps2
            core = np.where(u2 < 1.0, 1.0 - u2, 0.0)
            val, fac = amp * core**q, amp * q * core ** (q - 1) * (-2.0 / eps2)
        grad = x * fac[:, None]
        assert _same_bits(kernel_value(k, x), val)
        assert _same_bits(kernel_gradient(k, x), grad)
    assert np.all(val[np.isnan(r2)] == 0.0) and np.any(val > 0.0)


def test_bump_order_floor():
    with pytest.raises(ValueError):
        MollifierKernel.bump(0.2, order=2)


@given(
    scale=st.floats(min_value=0.25, max_value=4.0),
    x=st.floats(min_value=-1.0, max_value=1.0),
)
def test_value_scaling_law_1d(scale, x):
    base = MollifierKernel.gaussian(0.2)
    scaled = MollifierKernel.gaussian(0.2 * scale)
    v0 = kernel_value(base, np.array([[x]]))[0]
    v1 = kernel_value(scaled, np.array([[x * scale]]))[0]
    assert v1 * scale == pytest.approx(v0, rel=1e-12, abs=1e-300)


def test_mollified_density_mass_and_dense_agreement():
    rng = np.random.default_rng(2)
    pos = rng.normal(size=(37, 1))
    e = ParticleEnsemble(positions=pos, time=0.0, seed=0)
    k = MollifierKernel.gaussian(0.15)
    lo = pos.min() - 6 * 0.15
    hi = pos.max() + 6 * 0.15
    n = 2048
    hgrid = (hi - lo) / n
    nodes = (lo + hgrid * (np.arange(n) + 0.5))[:, None]
    mu = mollified_density(e, k, nodes)
    assert float(mu.sum() * hgrid) == pytest.approx(1.0, abs=1e-8)
    dense = kernel_value(k, nodes[:, None, :] - pos[None, :, :]).mean(axis=1)
    np.testing.assert_allclose(mu, dense, rtol=1e-13, atol=1e-18)


def _window_case(kind, d, cloud="shell"):
    """A kernel, a grid with unequal spacings, its C-ordered nodes, and a
    cloud with particles inside the 2 eps shell at every box face and on
    both corners of the box. With cloud = "blocks", the d = 2 cloud has 250
    particles, four separable blocks with the last one partial, and an
    outlier at each end of each axis. With cloud = "far", particles also
    lie 1.5 and 4 windows past each end of every axis, alone and at every
    corner, so their window starts are clamped into the halo."""
    rng = np.random.default_rng(10 * d + len(kind) + (7 if cloud == "blocks" else 0))
    eps = 0.1 if d == 1 else 0.25
    k = (
        MollifierKernel.gaussian(eps)
        if kind == "gaussian"
        else MollifierKernel.bump(eps)
    )
    if cloud == "blocks":
        pos = np.vstack([rng.normal(scale=0.4, size=(236, d)), 1.8 * np.eye(d), -1.8 * np.eye(d)])
    else:
        pos = rng.normal(scale=0.6, size=(40, d))
    lo = pos.min(axis=0) - 6.0 * eps
    hi = pos.max(axis=0) + 6.0 * eps
    counts = np.ceil((hi - lo) / (eps * np.array([0.25, 0.2][:d]))).astype(int)
    axes = [lo[a] + (hi[a] - lo[a]) / counts[a] * (np.arange(counts[a]) + 0.5) for a in range(d)]
    nodes = np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])
    shell = rng.uniform(0.0, 2.0 * eps, size=(8, d))
    pos = np.vstack([pos, lo + shell[:4], hi - shell[4:], lo, hi])
    if cloud == "far":
        reach = 2.0 * k.support_radius + 4.0 * ((hi - lo) / counts).max()
        far = [lo - 1.5 * reach, hi + 1.5 * reach, lo - 4.0 * reach, hi + 4.0 * reach]
        mid = 0.5 * (lo + hi)
        pos = np.vstack([pos] + far + [np.where(np.eye(d, dtype=bool), x, mid) for x in far])
    return k, QuadratureGrid(lo, hi, counts), nodes, pos


WINDOW_CASES = pytest.mark.parametrize(
    "d, cloud",
    [(1, "shell"), (2, "shell"), (2, "blocks"), (1, "far"), (2, "far")],
    ids=["1", "2", "2-blocks", "1-far", "2-far"],
)


@pytest.mark.parametrize("kind", ["gaussian", "bump"])
@WINDOW_CASES
def test_window_scatter_matches_dense_density(kind, d, cloud):
    k, grid, nodes, pos = _window_case(kind, d, cloud)
    window = GridWindow(k, pos, grid)
    assert all(w < n for w, n in zip(window.widths, window.shape))
    np.testing.assert_allclose(
        window.scatter(), mollified_density(pos, k, nodes), rtol=1e-13, atol=0.0
    )


@pytest.mark.parametrize("kind", ["gaussian", "bump"])
@WINDOW_CASES
def test_window_gather_matches_dense_sum(kind, d, cloud):
    k, grid, nodes, pos = _window_case(kind, d, cloud)
    weights = np.random.default_rng(5).normal(size=nodes.shape[0])
    terms = kernel_gradient(k, pos[None, :, :] - nodes[:, None, :]) * weights[:, None, None]
    dense = terms.sum(axis=0)
    # signed terms cancel, so the error is measured against sum |term|
    scale = np.abs(terms).sum(axis=0)
    got = GridWindow(k, pos, grid).gather(weights)
    assert np.all(np.abs(got - dense) <= 1e-13 * scale)
    assert np.abs(dense).max() > 1e-3 * scale.max()


def test_window_blocks_case_covers_the_block_loop():
    # the separable path sorts particles by axis-0 window start and cuts
    # them into blocks of 64; the last is partial and the outliers' bands
    # are clipped at the grid edge
    k, grid, _, pos = _window_case("gaussian", 2, "blocks")
    window = GridWindow(k, pos, grid)
    sizes = [len(rows) for rows, *_ in window._parts]
    assert len(sizes) >= 4 and sizes[:-1] == [64] * (len(sizes) - 1) and 0 < sizes[-1] < 64
    clipped = [
        a
        for _, bands, *_ in window._parts
        for a, band in enumerate(bands)
        if band.start == 0 or band.stop == window.shape[a]
    ]
    assert set(clipped) == {0, 1}


@pytest.mark.parametrize("kind, d", [("gaussian", 1), ("bump", 2)], ids=["1-gaussian", "2-bump"])
def test_window_layout_never_crosses_grids(kind, d):
    # windows share the layout of their grid and kernel; two clouds on one
    # grid in either order, a grid of the same shape shifted by half a cell
    # and a wider kernel on the shared grid must each give the bits of a
    # window on a freshly built equal grid
    k, grid, _, pos = _window_case(kind, d)
    wide = dataclasses.replace(k, epsilon=1.5 * k.epsilon)
    clouds = [pos, 0.8 * pos[::-1] + 0.05]
    half = 0.5 * grid.spacing
    weights = np.random.default_rng(4).normal(size=grid.node_count)

    def outputs(window):
        return window.scatter(), window.gather(weights)

    def fresh(kernel, cloud, shift):
        equal = QuadratureGrid(grid.lo + shift, grid.hi + shift, grid.shape)
        return outputs(GridWindow(kernel, cloud, equal))

    for order in (clouds, clouds[::-1]):
        shared = QuadratureGrid(grid.lo, grid.hi, grid.shape)
        shifted = QuadratureGrid(grid.lo + half, grid.hi + half, grid.shape)
        cases = [(k, c, 0.0, shared) for c in order] + [(k, c, half, shifted) for c in order]
        cases += [(wide, c, 0.0, shared) for c in order]
        windows = [GridWindow(kernel, c, g) for kernel, c, _, g in cases]
        assert windows[0]._layout is windows[1]._layout
        assert windows[2]._layout is not windows[0]._layout
        assert windows[4]._layout is not windows[0]._layout
        # every window is built before any is read
        for window, (kernel, c, shift, _) in zip(windows, cases):
            for got, want in zip(outputs(window), fresh(kernel, c, shift)):
                assert _same_bits(got, want)


def test_window_rejects_mismatched_inputs():
    k = MollifierKernel.gaussian(0.2)
    grid = QuadratureGrid(-1.0, 1.0, (9,))
    with pytest.raises(ValueError):
        GridWindow(k, np.zeros((3, 2)), grid)
    with pytest.raises(ValueError):
        GridWindow(k, np.zeros((3, 1)), grid).gather(np.zeros(8))


def test_quadrature_grid_rejects_degenerate_boxes():
    with pytest.raises(ValueError):
        QuadratureGrid(np.array([0.0, -1.0]), np.array([0.0, 1.0]), (4, 4))
    with pytest.raises(ValueError):
        QuadratureGrid(np.array([-1.0, -1.0]), np.array([1.0, 1.0]), (4,))
    with pytest.raises(ValueError):
        QuadratureGrid(np.array([-1.0]), np.array([1.0, 1.0]), (4,))


def test_positions_duck_typing():
    k = MollifierKernel.gaussian(0.2)
    bare = np.array([[0.0], [1.0]])
    wrapped = ParticleEnsemble(positions=bare.copy(), time=0.0, seed=0)
    pts = np.linspace(-1, 2, 7)[:, None]
    np.testing.assert_array_equal(
        mollified_density(bare, k, pts), mollified_density(wrapped, k, pts)
    )
