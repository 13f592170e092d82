"""End-to-end acceptance gate.

Fourteen behavioral checks, one test each, at fixed tolerances and runtime
budgets. Convergence is proved only in the joint limit eps -> 0,
delta = eps^beta -> 0, so at a fixed eps the particles are held to what
their own (eps, delta) promises: the magnitude checks (heat final error,
sampling final error, second-moment growth) compare the cloud with the
delta-regularized target, computed here without the particles (a
finite-volume solve of the regularized equation, the regularized
equilibrium, the regularized pressure mass). Each check then asserts
separately that its delta-target approaches the continuum target as
delta -> 0. Failure messages print the distance to the delta-target and
that target's continuum bias.
"""

import math
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from blobflow import cli, dynamics
from blobflow.convex_energy import (
    EnergyFamily,
    RegularizedEnergy,
    h1_density_quadrature,
    reg_conjugate,
    reg_conjugate_derivative,
    reg_derivative,
    reg_value,
)
from blobflow.dynamics import build_grid, compute_fields, exchange_residual
from blobflow.ensemble import ReferenceDensity, w1_vs_density
from blobflow.reference import heat_kernel_reference

FAMILIES = (
    EnergyFamily.heat(),
    EnergyFamily.porous_medium(2.0),
    EnergyFamily.porous_medium(3.0),
    EnergyFamily.fast_diffusion(0.5),
    EnergyFamily.height_constraint(),
)


# ---------------------------------------------------------------------------
# run protocols (module-scoped; each executes once and feeds several tests)


def _config(text: str) -> cli.SimConfig:
    return cli.parse_config_text(text)


RUN4_TEXT = """
[family]
kind = heat
[kernel]
kind = gaussian
[flow]
epsilon = 0.2, 0.1, 0.05
beta = 0.5
t_final = 0.2
dt = 0.002
[particles]
n = 512
seed = 0
[velocity]
kind = none
[initial]
kind = heat_kernel
t0 = 0.05
[reference]
kind = self_similar
"""

RUN5_TEXT = """
[family]
kind = porous_medium
m = 2.0
[kernel]
kind = gaussian
[flow]
epsilon = 0.2, 0.1, 0.05
beta = 0.5
t_final = 0.5
dt = 0.002
[particles]
n = 512
seed = 0
[velocity]
kind = none
[initial]
kind = barenblatt
t0 = 0.5
[reference]
kind = self_similar
"""

RUN6_TEXT = """
[family]
kind = fast_diffusion
m = 0.5
[kernel]
kind = gaussian
[flow]
epsilon = 0.2, 0.1, 0.05
beta = 0.5
t_final = 0.5
dt = 0.001
[particles]
n = 512
seed = 0
[velocity]
kind = none
[initial]
kind = barenblatt
t0 = 0.5
[reference]
kind = self_similar
"""

RUN7_TEXT = """
[family]
kind = height_constraint
[kernel]
kind = gaussian
[flow]
epsilon = 0.05
beta = 0.5
t_final = 3.0
dt = 0.002
record_every = 10
[particles]
n = 400
seed = 0
[velocity]
kind = quadratic
[initial]
kind = gaussian
sigma = 0.1
[reference]
kind = steady_state
"""

RUN8_TEXT = """
[family]
kind = heat
[kernel]
kind = gaussian
[flow]
epsilon = 0.05
beta = 0.5
t_final = 5.0
dt = 0.002
record_every = 10
[particles]
n = 1000
seed = 0
[velocity]
kind = quadratic
[initial]
kind = gaussian
sigma = 0.5
[reference]
kind = steady_state
"""


class Run(NamedTuple):
    summary: dict
    trajectory: dynamics.Trajectory
    clouds: list  # every recorded cloud, in record order
    dir: Path


def _execute(cfg, eps, out_dir):
    """One CLI run. The recorded clouds are collected by wrapping
    dynamics.run so that the CLI's own on_record is chained."""
    clouds = []
    run = dynamics.run

    def collecting_run(spec, on_record=None):
        def record(rec, ensemble):
            clouds.append(ensemble)
            on_record(rec, ensemble)

        return run(spec, on_record=record)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "run", collecting_run)
        summary, trajectory = cli._execute_run(cfg, eps, str(out_dir), quiet=True)
    return Run(summary, trajectory, clouds, out_dir)


def _execute_all(cfg, out_root):
    """One simulation per configured epsilon; returns eps -> Run."""
    return {eps: _execute(cfg, eps, out_root / f"eps_{eps:g}") for eps in cfg.epsilons}


@pytest.fixture(scope="module")
def heat_runs(tmp_path_factory):
    cfg = _config(RUN4_TEXT)
    return cfg, _execute_all(cfg, tmp_path_factory.mktemp("heat"))


@pytest.fixture(scope="module")
def pme_runs(tmp_path_factory):
    cfg = _config(RUN5_TEXT)
    return cfg, _execute_all(cfg, tmp_path_factory.mktemp("pme"))


@pytest.fixture(scope="module")
def fd_runs(tmp_path_factory):
    cfg = _config(RUN6_TEXT)
    return cfg, _execute_all(cfg, tmp_path_factory.mktemp("fd"))


@pytest.fixture(scope="module")
def height_run(tmp_path_factory):
    cfg = _config(RUN7_TEXT)
    return cfg, _execute_all(cfg, tmp_path_factory.mktemp("height"))


@pytest.fixture(scope="module")
def sampling_run(tmp_path_factory):
    cfg = _config(RUN8_TEXT)
    return cfg, _execute_all(cfg, tmp_path_factory.mktemp("sampling"))


def _snapshot_fields(spec, ensemble):
    grid = build_grid(
        ensemble,
        spec.kernel.epsilon,
        padding=spec.grid_padding,
        spacing_fraction=spec.grid_spacing_fraction,
    )
    return compute_fields(ensemble, spec.reg, spec.kernel, grid)


def _finals(results):
    return [
        results[eps].summary["final"]["w1_to_reference"] for eps in sorted(results, reverse=True)
    ]


def _total_wall(results):
    return sum(results[eps].summary["wall_time_s"] for eps in results)


def _decreasing(values):
    return all(b < a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# delta-targets: what a fixed (eps, delta) promises, computed without particles


def _w1_between(a, b, resolution=4096):
    """W1 between two 1d densities: the integral of |F_a - F_b| over the
    hull of their boxes."""
    lo = min(a.box[0][0], b.box[0][0])
    hi = max(a.box[1][0], b.box[1][0])
    xs = np.linspace(lo, hi, resolution)
    return float(np.trapezoid(np.abs(np.asarray(a.cdf(xs)) - np.asarray(b.cdf(xs))), xs))


def _regularized_equilibrium(reg, resolution):
    """rho_delta = (f_reg*)'(Z - V), V = x^2/2, at unit mass: the minimizer of
    the energy the flow at this delta descends. Z is fixed by bisection on
    the [-8, 8] box at the midpoint resolution cli._reference gives the
    unregularized steady state."""
    lo, hi = -8.0, 8.0
    xs = lo + (hi - lo) * (np.arange(resolution) + 0.5) / resolution
    potential = 0.5 * xs * xs

    def mass(z):
        return float(np.sum(reg_conjugate_derivative(reg, z - potential)) * (hi - lo) / resolution)

    z_lo, z_hi = float(potential.min()) - 10.0, float(potential.max()) + 10.0
    for _ in range(100):
        mid = 0.5 * (z_lo + z_hi)
        z_lo, z_hi = (mid, z_hi) if mass(mid) < 1.0 else (z_lo, mid)
    z = 0.5 * (z_lo + z_hi)

    def pdf(pts):
        v = 0.5 * np.einsum("ij,ij->i", pts, pts)
        return np.asarray(reg_conjugate_derivative(reg, z - v))

    box = (np.array([lo]), np.array([hi]))
    return ReferenceDensity(f"rho_delta(delta={reg.delta:.3g})", 1, pdf, box)


def _regularized_heat_flow(reg, t0, t_final, cells=400, half_width=4.0):
    """The regularized local equation d_t rho = d_x(rho d_x f_reg'(rho)),
    solved from the heat kernel at t0 for t_final by a conservative explicit
    finite-volume scheme: cell averages on [-half_width, half_width],
    face densities by the arithmetic mean, zero-flux ends, dt <= 0.2 dx^2.
    Returns the density at t0 + t_final, piecewise constant on the cells."""
    edges = np.linspace(-half_width, half_width, cells + 1)
    dx = edges[1] - edges[0]
    rho = np.diff(heat_kernel_reference(1, t0).cdf(edges)) / dx
    steps = math.ceil(t_final / (0.2 * dx * dx) - 1e-9)
    dt = t_final / steps
    flux = np.zeros(cells + 1)
    for _ in range(steps):
        q = np.asarray(reg_derivative(reg, rho))
        flux[1:-1] = -0.5 * (rho[1:] + rho[:-1]) * np.diff(q) / dx
        rho = rho - dt / dx * np.diff(flux)
    cum = np.concatenate([[0.0], np.cumsum(rho * dx)])

    def pdf(pts):
        x = np.asarray(pts, dtype=float)[:, 0]
        cell = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, cells - 1)
        return np.where((x >= edges[0]) & (x <= edges[-1]), rho[cell], 0.0)

    def cdf(xs):
        return np.interp(xs, edges, cum / cum[-1], left=0.0, right=1.0)

    box = (edges[:1], edges[-1:])
    return ReferenceDensity(f"fv(delta={reg.delta:.3g})", 1, pdf, box, cdf)


def _pressure_mass(reg, ref, resolution=8192):
    """int zeta_delta(rho) dx with zeta_delta(rho) = rho f_reg'(rho) - f_reg(rho),
    by the midpoint rule on the reference's box."""
    lo, hi = ref.box[0][0], ref.box[1][0]
    xs = lo + (hi - lo) * (np.arange(resolution) + 0.5) / resolution
    rho = np.asarray(ref.pdf(xs[:, None]))
    zeta = rho * np.asarray(reg_derivative(reg, rho)) - np.asarray(reg_value(reg, rho))
    return float(np.sum(np.maximum(zeta, 0.0)) * (hi - lo) / resolution)


def _reg_at(family, delta):
    return RegularizedEnergy(family, delta)


# ---------------------------------------------------------------------------
# 1-3: convex-analysis closed forms and identities


def test_dual_energy_density_closed_forms():
    started = time.perf_counter()
    a = np.linspace(0.1, 10.0, 100)
    heat = h1_density_quadrature(EnergyFamily.heat(), a)
    np.testing.assert_allclose(heat, a**2 / 2.0, rtol=1e-9)
    for m in (2.0, 3.0):
        pme = h1_density_quadrature(EnergyFamily.porous_medium(m), a)
        np.testing.assert_allclose(pme, a ** (m + 1.0) / (m + 1.0), rtol=1e-9)
    assert time.perf_counter() - started < 1.0


def test_fenchel_young_identity_randomized():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        family = FAMILIES[rng.integers(len(FAMILIES))]
        delta = float(10.0 ** rng.uniform(-3, 0))
        a = float(rng.uniform(0.0, 10.0))
        reg = RegularizedEnergy(family, delta)
        q = float(reg_derivative(reg, a))
        lhs = float(reg_conjugate(reg, q)) + float(reg_value(reg, a))
        rhs = a * q
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    assert worst <= 1e-8, f"worst relative Fenchel-Young residual {worst:.3e}"
    assert time.perf_counter() - started < 5.0


def test_regularized_curvature_sandwich():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    h = 1e-5
    for _ in range(1000):
        family = FAMILIES[rng.integers(len(FAMILIES))]
        delta = float(10.0 ** rng.uniform(-3, 0))
        a = float(rng.uniform(0.01, 10.0))
        reg = RegularizedEnergy(family, delta)
        vals = np.asarray(reg_value(reg, np.array([a - h, a, a + h])))
        second = float((vals[0] - 2.0 * vals[1] + vals[2]) / h**2)
        hi = delta + 1.0 / delta
        tol = 1e-3 * hi
        assert delta - tol <= second <= hi + tol, (
            f"f'' = {second:.6g} outside [{delta:.3g}, {hi:.3g}] "
            f"(delta = {delta:.3g}, a = {a:.3g}, {family.kind})"
        )
    assert time.perf_counter() - started < 5.0


# ---------------------------------------------------------------------------
# 4-8: trend reproduction runs


def test_heat_epsilon_convergence(heat_runs):
    cfg, results = heat_runs
    finals = _finals(results)
    assert all(b < a for a, b in zip(finals, finals[1:])), (
        f"W1 finals not strictly decreasing: {finals}"
    )
    assert _total_wall(results) <= 300.0

    # the particles against the regularized flow at their own delta
    heat = heat_kernel_reference(1, cfg.initial_t0 + cfg.t_final)
    to_flow, bias, deltas = [], [], []
    for eps in sorted(results, reverse=True):
        spec = cli.build_runspec(cfg, eps)
        flow = _regularized_heat_flow(spec.reg, cfg.initial_t0, cfg.t_final)
        cloud = results[eps].trajectory.final
        to_flow.append(w1_vs_density(cloud, flow, spec.w1_resolution))
        bias.append(_w1_between(flow, heat))
        deltas.append(spec.reg.delta)
    report = ", ".join(
        f"eps {eps:g}: W1 to FV_delta {w:.4f}, FV_delta to heat kernel {b:.4f}"
        for eps, w, b in zip(sorted(results, reverse=True), to_flow, bias)
    )
    assert _decreasing(to_flow), f"W1 to the delta-flow not strictly decreasing ({report})"
    assert to_flow[-1] <= 0.05, (
        f"final W1 to the delta = {deltas[-1]:.3f} flow is {to_flow[-1]:.4f} > 0.05; "
        f"that flow lies {bias[-1]:.4f} from the heat kernel ({report})"
    )

    # continuum target: the regularized flow tends to the heat kernel
    family = cli.build_runspec(cfg, min(results)).reg.family
    limit = (deltas[-1], 0.05, 0.01)
    to_heat = [
        _w1_between(
            _regularized_heat_flow(_reg_at(family, d), cfg.initial_t0, cfg.t_final), heat
        )
        for d in limit
    ]
    trend = ", ".join(f"delta {d:g}: {w:.4f}" for d, w in zip(limit, to_heat))
    assert _decreasing(to_heat), f"W1(FV_delta, heat kernel) not decreasing in delta ({trend})"
    assert to_heat[-1] <= 0.05, f"W1(FV_delta, heat kernel) {to_heat[-1]:.4f} > 0.05 ({trend})"


def test_porous_medium_barenblatt_convergence(pme_runs):
    _, results = pme_runs
    finals = _finals(results)
    assert all(b < a for a, b in zip(finals, finals[1:])), (
        f"W1 finals not strictly decreasing: {finals}"
    )
    assert finals[-1] <= 0.05, f"final W1 {finals[-1]:.4f} > 0.05"
    assert _total_wall(results) <= 300.0


def test_fast_diffusion_convergence_trend(fd_runs):
    _, results = fd_runs
    finals = _finals(results)
    assert all(b < a for a, b in zip(finals, finals[1:])), (
        f"W1 finals not strictly decreasing: {finals}"
    )
    assert _total_wall(results) <= 300.0


def test_height_constraint_saturation(height_run):
    cfg, results = height_run
    (eps,) = cfg.epsilons
    summary = results[eps].summary
    spec = cli.build_runspec(cfg, eps)

    start = _snapshot_fields(spec, spec.initial)
    assert float(start.mu.max()) > 2.0  # the bump really is oversaturated

    end = _snapshot_fields(spec, results[eps].trajectory.final)
    peak = float(end.mu.max())
    assert peak <= 1.1, f"final density peak {peak:.4f} > 1.1"
    w1 = summary["final"]["w1_to_reference"]
    assert w1 <= 0.1, f"final W1 to the unit patch {w1:.4f} > 0.1"
    assert summary["wall_time_s"] <= 120.0


def test_confined_sampling_relaxation(sampling_run):
    cfg, results = sampling_run
    (eps,) = cfg.epsilons
    summary = results[eps].summary
    records = results[eps].trajectory.records
    w1 = [r.w1_to_reference for r in records]
    tail = [(r.t, v) for r, v in zip(records, w1) if r.t >= 1.0]
    jitter_ok = all(b <= 1.1 * a for (_, a), (_, b) in zip(tail, tail[1:]))
    assert jitter_ok, "W1 series rises by more than 10% after t = 1"
    assert summary["wall_time_s"] <= 180.0

    # the cloud against the equilibrium of the energy it descends at this delta
    spec = cli.build_runspec(cfg, eps)
    normal = spec.reference(0.0)
    target = _regularized_equilibrium(spec.reg, cfg.w1_resolution)
    cloud = results[eps].trajectory.final
    to_target = w1_vs_density(cloud, target, spec.w1_resolution)
    bias = _w1_between(target, normal)
    assert to_target <= 0.05, (
        f"final W1 to rho_delta (delta = {spec.reg.delta:.3f}) is {to_target:.4f} > 0.05; "
        f"rho_delta lies {bias:.4f} from the normal, the cloud {w1[-1]:.4f}"
    )

    # continuum target: rho_delta tends to the normal
    limit = (spec.reg.delta, 0.05, 0.01, 0.001)
    to_normal = [
        _w1_between(_regularized_equilibrium(_reg_at(spec.reg.family, d), cfg.w1_resolution), normal)
        for d in limit
    ]
    trend = ", ".join(f"delta {d:g}: {w:.4f}" for d, w in zip(limit, to_normal))
    assert _decreasing(to_normal), f"W1(rho_delta, normal) not decreasing in delta ({trend})"
    assert to_normal[-1] <= 0.05, f"W1(rho_delta, normal) {to_normal[-1]:.4f} > 0.05 ({trend})"


# ---------------------------------------------------------------------------
# 9-13: structural identities along the recorded runs


def test_energy_dissipation_and_residual_halving(heat_runs, pme_runs, fd_runs, tmp_path):
    for cfg, results in (heat_runs, pme_runs, fd_runs):
        for eps, run in results.items():
            records = run.trajectory.records
            f = np.array([r.f_eps for r in records])
            slack = 10.0 * cfg.dt**2 * abs(f[0])
            assert np.all(np.diff(f) <= slack), (
                f"energy not monotone at eps = {eps} ({cfg.family_kind})"
            )

    cfg4, results4 = heat_runs
    r_full = abs(results4[0.2].trajectory.records[-1].diss_residual)
    _, halved = cli._execute_run(
        cli.replace(cfg4, dt=cfg4.dt / 2.0), 0.2, str(tmp_path / "halved"), quiet=True
    )
    r_half = abs(halved.records[-1].diss_residual)
    assert r_full / r_half >= 3.0, (
        f"dissipation residual only shrank {r_full / r_half:.2f}x on halving dt"
    )


def test_entropy_cross_term_sign(heat_runs, pme_runs, fd_runs, height_run, sampling_run):
    for cfg, results in (heat_runs, pme_runs, fd_runs, height_run, sampling_run):
        for eps, run in results.items():
            spec = cli.build_runspec(cfg, eps)
            for ensemble in run.clouds:
                f = _snapshot_fields(spec, ensemble)
                dot = np.einsum("gi,gi->g", f.grad_mu, f.grad_q)
                prod = np.linalg.norm(f.grad_mu, axis=1) * np.linalg.norm(
                    f.grad_q, axis=1
                )
                floor = -1e-10 * max(float(prod.max()), 1e-300)
                assert float(dot.min()) >= floor, (
                    f"cross term {dot.min():.3e} below {floor:.3e} at "
                    f"t = {ensemble.time:g}, eps = {eps} ({cfg.family_kind})"
                )


def test_gradient_sandwich_on_snapshots(heat_runs):
    cfg, results = heat_runs
    for eps, run in results.items():
        spec = cli.build_runspec(cfg, eps)
        lip = spec.reg.lipschitz_of_derivative
        for ensemble in run.clouds:
            f = _snapshot_fields(spec, ensemble)
            gq = np.linalg.norm(f.grad_q, axis=1)
            gm = np.linalg.norm(f.grad_mu, axis=1)
            assert np.all(gq <= lip * gm * (1.0 + 1e-3) + 1e-12), (
                f"|grad q| exceeds {lip:.3f}|grad mu| at t = {ensemble.time:g}, "
                f"eps = {eps}"
            )


def test_second_moment_growth(heat_runs):
    cfg, results = heat_runs
    eps = 0.05
    spec = cli.build_runspec(cfg, eps)
    records = results[eps].trajectory.records
    growth = records[-1].m2 - records[0].m2
    d = spec.initial.dim

    # dM2/dt = 2d int zeta dx + O(eps^2) for this flow, zeta = f_reg*(q) the
    # regularized pressure; the heat equation's 2dT is its delta -> 0 limit
    pressure = []
    for ensemble in results[eps].clouds:
        f = _snapshot_fields(spec, ensemble)
        pressure.append(float(np.sum(f.zeta) * f.grid.cell))
    target = 2.0 * d * float(np.trapezoid(pressure, [r.t for r in records]))
    continuum = 2.0 * d * cfg.t_final
    assert abs(growth - target) <= 0.1 * target, (
        f"M2 grew by {growth:.4f}, 2d int int zeta = {target:.4f} +- 10% "
        f"(gap {growth / target - 1:+.1%}); at delta = {spec.reg.delta:.3f} that "
        f"target lies {target / continuum - 1:+.1%} from the heat equation's 2dT = {continuum:g}"
    )

    # continuum target: the pressure mass of the heat kernel tends to its mass
    limit = (spec.reg.delta, 0.05, 0.01, 0.001)
    for t in (cfg.initial_t0, cfg.initial_t0 + cfg.t_final):
        heat = heat_kernel_reference(1, t)
        masses = [_pressure_mass(_reg_at(spec.reg.family, dl), heat) for dl in limit]
        trend = ", ".join(f"delta {dl:g}: {m:.4f}" for dl, m in zip(limit, masses))
        assert all(b > a for a, b in zip(masses, masses[1:])), (
            f"pressure mass of the heat kernel at t = {t:g} not increasing as delta falls ({trend})"
        )
        assert abs(masses[-1] - 1.0) <= 0.1, (
            f"pressure mass of the heat kernel at t = {t:g} is {masses[-1]:.4f}, "
            f"not within 10% of its mass 1 ({trend})"
        )


def test_mollifier_exchange_trend(heat_runs):
    cfg, results = heat_runs
    residuals = []
    for eps in sorted(results, reverse=True):
        spec = cli.build_runspec(cfg, eps)
        f = _snapshot_fields(spec, spec.initial)
        residuals.append(
            exchange_residual(
                spec.initial, f, spec.kernel, lambda p: np.sin(p[:, 0])
            )
        )
    assert all(b < a for a, b in zip(residuals, residuals[1:])), (
        f"exchange residuals not decreasing over eps: {residuals}"
    )


# ---------------------------------------------------------------------------
# 14: determinism


def test_rerun_determinism_byte_identical(heat_runs, sampling_run, tmp_path):
    for tag, (cfg, results) in (("heat", heat_runs), ("sampling", sampling_run)):
        for eps, run in results.items():
            cli._execute_run(cfg, eps, str(tmp_path / f"{tag}_{eps:g}"), quiet=True)
            first = (run.dir / "diagnostics.csv").read_bytes()
            second = (tmp_path / f"{tag}_{eps:g}" / "diagnostics.csv").read_bytes()
            assert first == second, f"diagnostics differ on rerun ({tag}, eps = {eps})"
