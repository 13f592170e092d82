"""Field evaluation, pressure forcing, and the particle integrator."""

import dataclasses

import numpy as np
import pytest

from blobflow import convex_energy
from blobflow.convex_energy import (
    EnergyFamily,
    RegularizedEnergy,
    reg_derivative,
    reg_value,
)
from blobflow.ensemble import ParticleEnsemble, prepare_initial_particles
from blobflow.mollifier import MollifierKernel, kernel_norms, kernel_value
from blobflow.reference import barenblatt_reference, gaussian_reference, steady_state
from blobflow import dynamics
from blobflow.dynamics import (
    EULER,
    RK4,
    GridBudgetError,
    RunSpec,
    VelocityConfig,
    build_grid,
    compute_fields,
    cross_term_min,
    dissipation_residual,
    energy_F_eps,
    exchange_residual,
    lipschitz_estimate,
    make_state,
    pressure_gradient_at,
    run,
    step,
)


def heat_reg(epsilon: float, d: int = 1) -> RegularizedEnergy:
    return RegularizedEnergy(EnergyFamily.heat(d), epsilon**0.5)


def gaussian_cloud(n: int = 64, seed: int = 0) -> ParticleEnsemble:
    return prepare_initial_particles(gaussian_reference(1, 1.0), n, seed=seed)


def two_clusters(n: int = 40) -> ParticleEnsemble:
    """Two clusters on [-1.2, -0.8] and [0.8, 1.2]: under a bump kernel of
    eps 0.1 the grid nodes between them and beyond both leave no mass."""
    half = n // 2
    x = np.concatenate([np.linspace(-1.2, -0.8, half), np.linspace(0.8, 1.2, n - half)])
    return ParticleEnsemble(x[:, None], time=0.0, seed=0)


FIELD_FAMILIES = pytest.mark.parametrize(
    "family",
    [
        EnergyFamily.heat(),
        EnergyFamily.porous_medium(2.0),
        EnergyFamily.fast_diffusion(0.5),
        EnergyFamily.height_constraint(),
    ],
    ids=lambda f: f.kind,
)


# ---------------------------------------------------------------------------
# quadrature grid


def test_build_grid_geometry():
    e = ParticleEnsemble(np.array([[-1.0], [1.0]]), time=0.0, seed=0)
    g = build_grid(e, 0.2, padding=5.0, spacing_fraction=0.25)
    np.testing.assert_allclose(g.lo, [-2.0])
    np.testing.assert_allclose(g.hi, [2.0])
    assert g.dim == 1
    assert g.node_count == np.prod(g.shape)
    assert np.all(g.spacing <= 0.25 * 0.2 + 1e-15)
    # midpoint rule: first node half a cell inside the box
    np.testing.assert_allclose(g.nodes[0], g.lo + 0.5 * g.spacing)
    np.testing.assert_allclose(g.nodes[-1], g.hi - 0.5 * g.spacing)
    assert g.cell == pytest.approx(float(np.prod(g.spacing)))


def test_build_grid_2d_order():
    pts = np.array([[0.0, 0.0], [1.0, 2.0]])
    g = build_grid(pts, 0.5, padding=2.0, spacing_fraction=1.0)
    assert g.dim == 2
    assert g.nodes.shape == (g.node_count, 2)
    # C order: the second axis varies fastest
    assert g.nodes[0, 1] != g.nodes[1, 1]
    assert g.nodes[0, 0] == g.nodes[1, 0]


def test_build_grid_rejects_bad_arguments():
    pts = np.zeros((3, 1))
    with pytest.raises(ValueError):
        build_grid(pts, 0.0)
    with pytest.raises(ValueError):
        build_grid(pts, 0.1, padding=0.0)
    with pytest.raises(ValueError):
        build_grid(pts, 0.1, spacing_fraction=0.0)
    with pytest.raises(ValueError):
        build_grid(pts, 0.1, spacing_fraction=1.5)
    with pytest.raises(ValueError):
        build_grid(np.zeros(3), 0.1)


def test_build_grid_budget_error_names_the_numbers():
    pts = np.array([[0.0, 0.0], [4.0, 4.0]])
    with pytest.raises(GridBudgetError, match="budget"):
        build_grid(pts, 0.01, node_budget=1000)


@pytest.mark.parametrize(
    "points, epsilon",
    [
        # d = 1: 4e20 cells, past every fixed-width integer
        (np.array([[0.0], [1e17]]), 1e-3),
        # d = 2: 4e9 cells per axis, 1.6e19 nodes, past int64
        (np.array([[0.0, 0.0], [1e6, 1e6]]), 1e-3),
        # a box wider than the largest double has no node count
        (np.array([[-1e308], [1e308]]), 0.1),
    ],
    ids=["1d", "2d", "inf"],
)
def test_build_grid_counts_nodes_without_wrapping(points, epsilon):
    with pytest.raises(GridBudgetError):
        build_grid(points, epsilon)


def test_grid_covers_and_interior():
    g = build_grid(np.array([[-1.0], [1.0]]), 0.2, padding=5.0)
    assert g.covers(np.array([[0.0], [1.9]]))
    assert not g.covers(np.array([[2.1]]))
    assert g.covers(np.array([[1.9]]), slack=0.05)
    assert not g.covers(np.array([[1.9]]), slack=0.2)
    inner = g.interior_mask()
    assert inner.sum() == g.node_count - 2
    assert not inner[0] and not inner[-1]


# ---------------------------------------------------------------------------
# fields


def test_compute_fields_mass_and_zeta():
    reg = heat_reg(0.2)
    k = MollifierKernel.gaussian(0.2)
    e = gaussian_cloud(64)
    grid = build_grid(e, 0.2, padding=8.0)
    f = compute_fields(e, reg, k, grid)
    assert f.mu.shape == (grid.node_count,)
    assert float(f.mu.sum() * grid.cell) == pytest.approx(1.0, abs=1e-6)
    assert f.zeta is not None
    assert f.zeta.min() >= 0.0
    assert f.grad_mu.shape == (grid.node_count, 1)


def test_zeta_is_the_convex_conjugate():
    # Fenchel-Young: zeta_g = sup_a (a q_g - f_reg(a)); the field routine
    # takes the identity shortcut, the oracle maximizes on a dense grid
    reg = heat_reg(0.2)
    k = MollifierKernel.gaussian(0.2)
    e = gaussian_cloud(48)
    grid = build_grid(e, 0.2)
    f = compute_fields(e, reg, k, grid)
    idx = np.linspace(0, grid.node_count - 1, 15).astype(int)
    a = np.linspace(0.0, max(3.0 * float(f.mu.max()), 2.0), 40001)
    fa = np.asarray(reg_value(reg, a))
    for g in idx:
        dense = float(np.max(a * f.q[g] - fa))
        assert f.zeta[g] == pytest.approx(dense, abs=1e-7)


@FIELD_FAMILIES
def test_fields_derive_from_the_stage_prox_point_with_the_same_bits(family):
    # q, f_reg(mu) and zeta all come from the stage's one prox solve, which
    # skipped the empty nodes; each equals a fresh evaluation at mu
    reg = RegularizedEnergy(family, 0.3)
    k = MollifierKernel.bump(0.1)
    e = two_clusters()
    grid = build_grid(e, 0.1)
    f = compute_fields(e, reg, k, grid)
    nodes = grid.axes[0]
    empty = f.mu == 0.0
    assert empty[np.abs(nodes) < 0.6].all() and empty[0] and empty[-1]
    assert not empty.all()
    f_mu = np.asarray(reg_value(reg, f.mu))
    np.testing.assert_array_equal(f.q, reg_derivative(reg, f.mu))
    assert energy_F_eps(f) == float(np.sum(f_mu) * grid.cell)
    np.testing.assert_array_equal(f.zeta, np.maximum(f.mu * f.q - f_mu, 0.0))
    assert np.all(f.q[empty] == reg.derivative_at_zero)
    assert np.all(f.f_reg[empty] == 0.0)


@FIELD_FAMILIES
def test_one_prox_solve_per_stage_and_none_per_record(family, monkeypatch):
    reg = RegularizedEnergy(family, 0.3)
    # the one J_delta(0) solve happens here, before the count starts
    _ = reg.moreau_zero, reg.derivative_at_zero
    calls = {"solve": 0, "stage": 0}
    solve, fields = convex_energy._newton_bisect, dynamics.compute_fields

    def counted_solve(*args, **kwargs):
        calls["solve"] += 1
        return solve(*args, **kwargs)

    def counted_fields(*args, **kwargs):
        calls["stage"] += 1
        return fields(*args, **kwargs)

    monkeypatch.setattr(convex_energy, "_newton_bisect", counted_solve)
    monkeypatch.setattr(dynamics, "compute_fields", counted_fields)
    spec = RunSpec(
        reg=reg,
        kernel=MollifierKernel.bump(0.1),
        velocity=VelocityConfig(),
        initial=two_clusters(),
        t_final=0.004,
        dt=0.001,
    )
    assert len(run(spec).records) == 5
    assert calls["stage"] == 1 + 4 * 4
    newton = family.kind != "height_constraint"
    assert calls["solve"] == (calls["stage"] if newton else 0)


def test_gradient_sandwich_q_versus_mu():
    # q = g(mu) with g Lipschitz of constant delta + 1/delta, and both
    # gradients come from the same stencil, so the bound survives discretely
    reg = heat_reg(0.1)
    k = MollifierKernel.gaussian(0.1)
    e = gaussian_cloud(96)
    f = compute_fields(e, reg, k, build_grid(e, 0.1))
    lip = reg.lipschitz_of_derivative
    gq = np.linalg.norm(f.grad_q, axis=1)
    gm = np.linalg.norm(f.grad_mu, axis=1)
    assert np.all(gq <= lip * gm * (1.0 + 1e-3) + 1e-12)


def test_cross_term_nonnegative_up_to_roundoff():
    reg = heat_reg(0.1)
    k = MollifierKernel.gaussian(0.1)
    e = gaussian_cloud(96)
    f = compute_fields(e, reg, k, build_grid(e, 0.1))
    min_val = cross_term_min(f)
    scale = float(
        np.max(np.linalg.norm(f.grad_mu, axis=1) * np.linalg.norm(f.grad_q, axis=1))
    )
    assert min_val >= -1e-10 * max(scale, 1.0)
    # the grid sum of the same dot product, the integral of f_reg''(mu) |grad mu|^2
    dot = np.einsum("gi,gi->g", f.grad_mu, f.grad_q)
    assert float(dot.sum() * f.grid.cell) >= 0.0


# ---------------------------------------------------------------------------
# pressure gradient


def test_pressure_gradient_matches_finite_differences():
    reg = heat_reg(0.2)
    k = MollifierKernel.gaussian(0.2)
    e = gaussian_cloud(32)
    grid = build_grid(e, 0.2)
    f = compute_fields(e, reg, k, grid)
    qs = (f.q - reg.derivative_at_zero) * grid.cell

    def scalar_p(x):
        return float(np.sum(kernel_value(k, x - grid.nodes) * qs))

    xs = np.array([[-1.3], [-0.4], [0.0], [0.7], [1.8]])
    got = pressure_gradient_at(f, k, xs)
    h = 1e-5
    for i, x in enumerate(xs):
        fd = (scalar_p(x + h) - scalar_p(x - h)) / (2.0 * h)
        assert got[i, 0] == pytest.approx(fd, rel=1e-5, abs=1e-8)


@pytest.mark.parametrize("kind, d", [("gaussian", 1), ("gaussian", 2), ("bump", 2)])
def test_a_released_window_is_rebuilt_with_the_same_bits(kind, d):
    # a stage lets its window go after the gather; a later gather at the
    # same cloud builds it again and must give the stage's grad p bit for bit
    init = ParticleEnsemble(np.random.default_rng(d).normal(size=(48, d)))
    if kind == "gaussian":
        k = MollifierKernel.gaussian(0.2)
    else:
        k = MollifierKernel.bump(0.3)
    spec = RunSpec(
        reg=heat_reg(0.2, d), kernel=k, velocity=VelocityConfig(), initial=init, t_final=0.01
    )
    state = make_state(spec, init)
    assert state.fields.window is None
    rebuilt = pressure_gradient_at(state.fields, k, init.positions)
    fields = compute_fields(init, spec.reg, k, state.fields.grid)
    assert fields.window is not None
    reused = pressure_gradient_at(fields, k, init.positions)
    assert np.array_equal(rebuilt, state.pressure_grad)
    assert np.array_equal(reused, state.pressure_grad)


def test_pressure_gradient_rejects_outside_queries():
    reg = heat_reg(0.2)
    k = MollifierKernel.gaussian(0.2)
    e = gaussian_cloud(8)
    f = compute_fields(e, reg, k, build_grid(e, 0.2))
    far = np.array([[50.0], [0.0]])
    with pytest.raises(ValueError, match=r"indices \[0\]"):
        pressure_gradient_at(f, k, far)
    with pytest.raises(ValueError):
        pressure_gradient_at(f, k, np.zeros((3, 2)))


def test_single_particle_pressure_gradient_vanishes():
    # mu is radially symmetric about a lone particle, so the forcing at the
    # particle cancels by parity
    reg = heat_reg(0.2)
    k = MollifierKernel.gaussian(0.2)
    e = ParticleEnsemble(np.array([[0.3]]), time=0.0, seed=0)
    f = compute_fields(e, reg, k, build_grid(e, 0.2))
    gp = pressure_gradient_at(f, k, e.positions)
    assert abs(gp[0, 0]) < 1e-10


# ---------------------------------------------------------------------------
# velocity configs and the stability constant


def test_velocity_quadratic_and_validation():
    v = VelocityConfig.quadratic()
    pts = np.array([[1.0, -2.0], [0.5, 0.5]])
    np.testing.assert_allclose(v.evaluate(pts), pts)
    v.validate_gradient(pts)
    bad = VelocityConfig(potential=lambda p: 0.5 * np.sum(p**2, axis=1), grad=lambda p: 3.0 * p)
    with pytest.raises(ValueError, match="finite differences"):
        bad.validate_gradient(pts)


def test_velocity_refuses_a_potential_without_its_grad():
    with pytest.raises(ValueError, match="a potential needs its grad"):
        VelocityConfig(potential=lambda p: 0.5 * np.sum(p**2, axis=1))


def test_velocity_none_is_zero_with_zero_bound():
    v = VelocityConfig()
    pts = np.linspace(-2, 2, 7)[:, None]
    assert np.all(v.evaluate(pts) == 0.0)
    assert v.estimate_w1inf(pts) == 0.0


def test_estimate_w1inf_linear_field():
    v = VelocityConfig.quadratic()
    pts = np.linspace(-3, 3, 13)[:, None]
    # sup |x| + sup |dv/dx| = 3 + 1 on the probe set
    assert v.estimate_w1inf(pts) == pytest.approx(4.0, rel=1e-4)


def test_lipschitz_estimate_formula():
    reg = heat_reg(0.2)
    k = MollifierKernel.gaussian(0.2)
    norms = kernel_norms(k, 1)
    expected = norms.grad_w11 * (
        reg.lipschitz_of_derivative * norms.sup + reg.derivative_at_zero
    )
    assert lipschitz_estimate(reg, k) == pytest.approx(expected, rel=1e-12)
    assert lipschitz_estimate(reg, k, velocity_w1inf=3.0) == pytest.approx(
        expected + 6.0, rel=1e-12
    )


# ---------------------------------------------------------------------------
# integrator


def single_particle_spec(scheme: str, dt: float, t_final: float) -> RunSpec:
    reg = heat_reg(0.2)
    k = MollifierKernel.gaussian(0.2)
    init = ParticleEnsemble(np.array([[1.0]]), time=0.0, seed=0)
    return RunSpec(
        reg=reg,
        kernel=k,
        velocity=VelocityConfig.quadratic(),
        initial=init,
        t_final=t_final,
        dt=dt,
        scheme=scheme,
        record_every=10**6,
    )


@pytest.mark.parametrize("d", [1, 2])
def test_stages_never_build_the_node_array(d):
    # a stage reads the grid's axes and spacing only; the (G, d) node array
    # is built when a diagnostic reads it
    init = ParticleEnsemble(np.random.default_rng(d).normal(size=(16, d)))
    spec = RunSpec(
        reg=heat_reg(0.2, d),
        kernel=MollifierKernel.gaussian(0.2),
        velocity=VelocityConfig.quadratic(),
        initial=init,
        t_final=0.01,
    )
    grid = step(make_state(spec, init), 0.01).fields.grid
    assert "nodes" not in vars(grid)
    assert grid.nodes.shape == (grid.node_count, d)


def test_single_particle_in_quadratic_well_decays_exactly():
    # the self-forcing vanishes by symmetry, so x' = -x and x(t) = e^-t
    traj = run(single_particle_spec(RK4, 0.01, 0.5))
    x = traj.final.positions[0, 0]
    assert x == pytest.approx(np.exp(-0.5), abs=1e-7)


def test_scheme_orders_on_the_exact_solution():
    exact = np.exp(-0.4)

    def err(scheme, dt):
        traj = run(single_particle_spec(scheme, dt, 0.4))
        return abs(traj.final.positions[0, 0] - exact)

    e1, e2 = err(EULER, 0.04), err(EULER, 0.02)
    assert 1.6 < e1 / e2 < 2.4  # first order
    r1, r2 = err(RK4, 0.04), err(RK4, 0.02)
    assert r1 / r2 > 10.0  # fourth order


def test_step_validates_dt_and_scheme():
    spec = single_particle_spec(RK4, 0.01, 0.1)
    state = make_state(spec, spec.initial)
    with pytest.raises(ValueError):
        step(state, 0.0)


def test_runspec_validation():
    spec = single_particle_spec(RK4, 0.01, 0.1)
    import dataclasses

    with pytest.raises(ValueError, match="unknown scheme 'leapfrog'; expected one of rk4, euler"):
        dataclasses.replace(spec, scheme="leapfrog")
    with pytest.raises(ValueError):
        dataclasses.replace(spec, t_final=-1.0)
    with pytest.raises(ValueError):
        dataclasses.replace(spec, dt=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(spec, record_every=0)
    # the stability constant, and the auto step, take d from the family
    plane = ParticleEnsemble(np.zeros((1, 2)))
    with pytest.raises(ValueError, match="dimension_hint 1 is not the cloud's dimension 2"):
        dataclasses.replace(spec, initial=plane)


def test_zero_horizon_run_records_the_initial_state():
    spec = single_particle_spec(RK4, 0.01, 0.0)
    traj = run(spec)
    assert len(traj.records) == 1
    assert traj.records[0].t == 0.0
    np.testing.assert_array_equal(traj.final.positions, spec.initial.positions)


def test_auto_dt_uses_the_stability_constant():
    spec = single_particle_spec(RK4, None, 0.0)
    traj = run(spec)
    c = lipschitz_estimate(
        spec.reg, spec.kernel, velocity_w1inf=spec.velocity.estimate_w1inf(spec.initial.positions)
    )
    assert traj.c_eps == pytest.approx(c, rel=1e-6)
    assert traj.dt == pytest.approx(0.5 / traj.c_eps, rel=1e-12)


def test_nonfinite_velocity_names_the_particle():
    def broken(p):
        out = np.zeros_like(p)
        out[3] = np.nan
        return out

    reg = heat_reg(0.2)
    k = MollifierKernel.gaussian(0.2)
    spec = RunSpec(
        reg=reg,
        kernel=k,
        velocity=VelocityConfig(grad=broken),
        initial=gaussian_cloud(8),
        t_final=0.1,
        dt=0.01,
    )
    with pytest.raises(FloatingPointError, match=r"\[3\]"):
        run(spec)


def test_nonfinite_drift_with_automatic_dt_names_the_particle():
    # the drift's probe bound is NaN, so no time step can be derived from it
    def broken(p):
        out = np.zeros_like(p)
        out[0] = np.nan
        return out

    reg = heat_reg(0.2)
    k = MollifierKernel.gaussian(0.2)
    spec = RunSpec(
        reg=reg,
        kernel=k,
        velocity=VelocityConfig(grad=broken),
        initial=gaussian_cloud(8),
        t_final=0.1,
        dt=None,
    )
    with pytest.raises(FloatingPointError, match=r"particle indices \[0\]"):
        run(spec)


def test_grid_follows_a_drifting_cloud():
    # constant external drift pushes the cloud far past the initial box;
    # the run only succeeds if the grid is rebuilt on the way
    reg = heat_reg(0.2)
    k = MollifierKernel.gaussian(0.2)
    init = gaussian_cloud(32)
    drift = VelocityConfig(grad=lambda p: -2.0 * np.ones_like(p))
    spec = RunSpec(
        reg=reg, kernel=k, velocity=drift, initial=init, t_final=1.5, dt=0.02,
        record_every=10**6,
    )
    traj = run(spec)
    moved = traj.final.positions.mean() - init.positions.mean()
    assert moved == pytest.approx(3.0, abs=0.05)


def _heat_spec() -> RunSpec:
    return RunSpec(
        reg=heat_reg(0.2),
        kernel=MollifierKernel.gaussian(0.2),
        velocity=VelocityConfig.quadratic(),
        initial=gaussian_cloud(32, seed=5),
        t_final=0.05,
        dt=0.005,
    )


def _fast_diffusion_spec() -> RunSpec:
    # a heavy-tailed Barenblatt start leaves nodes with no mass between
    # its outer particles
    eps = 0.05
    return RunSpec(
        reg=RegularizedEnergy(EnergyFamily.fast_diffusion(0.5), eps**0.5),
        kernel=MollifierKernel.gaussian(eps),
        velocity=VelocityConfig(),
        initial=prepare_initial_particles(barenblatt_reference(0.5, 1, 0.5), 64, seed=0),
        t_final=0.005,
        dt=0.001,
    )


def test_run_is_bitwise_deterministic():
    spec = _fast_diffusion_spec()
    assert np.any(make_state(spec, spec.initial).fields.mu == 0.0)
    for make in (_heat_spec, _fast_diffusion_spec):
        a, b = run(make()), run(make())
        np.testing.assert_array_equal(a.final.positions, b.final.positions)
        assert [r.f_eps for r in a.records] == [r.f_eps for r in b.records]
        assert [r.diss_residual for r in a.records] == [r.diss_residual for r in b.records]


def test_trajectory_keeps_records_and_only_the_last_cloud():
    spec = RunSpec(
        reg=heat_reg(0.2),
        kernel=MollifierKernel.gaussian(0.2),
        velocity=VelocityConfig.quadratic(),
        initial=gaussian_cloud(16),
        t_final=0.05,
        dt=0.001,
        record_every=1,
    )
    clouds = []
    traj = run(spec, on_record=lambda rec, ens: clouds.append(ens))
    assert len(clouds) == 51  # the initial cloud and one per step
    np.testing.assert_array_equal(traj.final.positions, clouds[-1].positions)
    assert len(traj.records) == len(clouds)
    for f in dataclasses.fields(traj):
        value = getattr(traj, f.name)
        assert not (
            isinstance(value, (list, tuple))
            and any(isinstance(v, ParticleEnsemble) for v in value)
        ), f"Trajectory.{f.name} holds per-record clouds"


def test_node_gradients_are_taken_only_at_records(monkeypatch):
    # the stages need mu and q only; grad mu and grad q feed the cross-term
    # diagnostic, one pair per record
    calls = []
    node_gradients = dynamics._node_gradients

    def counted(grid, values):
        calls.append(grid.node_count)
        return node_gradients(grid, values)

    monkeypatch.setattr(dynamics, "_node_gradients", counted)
    spec = RunSpec(
        reg=heat_reg(0.2),
        kernel=MollifierKernel.gaussian(0.2),
        velocity=VelocityConfig.quadratic(),
        initial=gaussian_cloud(16),
        t_final=0.02,
        dt=0.002,
        scheme=RK4,
        record_every=5,
    )
    traj = run(spec)
    assert len(traj.records) == 3  # t = 0 and after steps 5 and 10
    assert len(calls) == 2 * len(traj.records)


# ---------------------------------------------------------------------------
# energy bookkeeping along a run


@pytest.fixture(scope="module")
def heat_run():
    reg = heat_reg(0.2)
    k = MollifierKernel.gaussian(0.2)
    spec = RunSpec(
        reg=reg,
        kernel=k,
        velocity=VelocityConfig(),
        initial=gaussian_cloud(48),
        t_final=0.1,
        dt=2e-3,
    )
    return spec, run(spec)


def test_energy_is_nonincreasing(heat_run):
    spec, traj = heat_run
    f = np.array([r.f_eps for r in traj.records])
    slack = 10.0 * traj.dt**2 * abs(f[0])
    assert np.all(np.diff(f) <= slack)


def test_dissipation_residual_is_time_quadrature_error(heat_run):
    spec, traj = heat_run
    r_full = abs(traj.records[-1].diss_residual)
    assert r_full < 1e-5
    import dataclasses

    half = dataclasses.replace(spec, dt=1e-3)
    r_half = abs(run(half).records[-1].diss_residual)
    assert r_full / r_half > 3.0  # trapezoid error scales as dt^2


def test_dissipation_residual_short_windows_are_zero(heat_run):
    _, traj = heat_run
    assert dissipation_residual([]) == 0.0
    assert dissipation_residual(traj.records[:1]) == 0.0
    assert dissipation_residual(traj.records) == pytest.approx(
        traj.records[-1].diss_residual
    )


def test_every_recorded_residual_is_the_quadrature_of_its_prefix():
    # records keep a growing (t, rate) history instead of rebuilding it
    # from the record list; every residual keeps the reference's bits
    spec = RunSpec(
        reg=heat_reg(0.2),
        kernel=MollifierKernel.gaussian(0.2),
        velocity=VelocityConfig.quadratic(),
        initial=gaussian_cloud(8),
        t_final=0.1,
        dt=1e-4,
        scheme=EULER,
    )
    records = run(spec).records
    assert len(records) == 1001
    for k, rec in enumerate(records):
        assert rec.diss_residual == dissipation_residual(records[: k + 1]), k


def test_energy_value_matches_direct_sum(heat_run):
    spec, traj = heat_run
    e = spec.initial
    grid = build_grid(e, 0.2)
    f = compute_fields(e, spec.reg, spec.kernel, grid)
    direct = float(np.sum(np.asarray(reg_value(spec.reg, f.mu))) * grid.cell)
    assert energy_F_eps(f) == pytest.approx(direct, rel=1e-14)


# ---------------------------------------------------------------------------
# exchange residual


def test_exchange_residual_decays_with_epsilon():
    e = prepare_initial_particles(gaussian_reference(1, 1.0), 256, seed=0)

    def res(eps):
        reg = heat_reg(eps)
        k = MollifierKernel.gaussian(eps)
        grid = build_grid(e, eps)
        f = compute_fields(e, reg, k, grid)
        return exchange_residual(e, f, k, lambda p: np.sin(p[:, 0]))

    coarse, fine = res(0.2), res(0.05)
    assert fine < coarse
    assert fine < 1e-3


def test_exchange_residual_constant_test_function():
    # g = 1 probes pure momentum exchange; a sampled (asymmetric) cloud
    # keeps both sides nonzero
    e = prepare_initial_particles(
        gaussian_reference(1, 1.0), 256, seed=3, mode="rejection"
    )
    reg = heat_reg(0.1)
    k = MollifierKernel.gaussian(0.1)
    f = compute_fields(e, reg, k, build_grid(e, 0.1))
    assert exchange_residual(e, f, k, lambda p: np.ones(p.shape[0])) < 5e-3


# ---------------------------------------------------------------------------
# stationarity against a steady state


def test_steady_cloud_stays_near_the_steady_state():
    # the flow equilibrates at a slightly narrower profile than rho_bar
    # (prox bias ~ delta), so near-stationarity needs the quantile
    # discretization gap to dominate: coarse cloud, small delta
    family = EnergyFamily.heat()
    ss = steady_state(
        family,
        lambda p: 0.5 * np.sum(p**2, axis=1),
        (np.array([-8.0]), np.array([8.0])),
    )
    eps = 0.1
    reg = RegularizedEnergy(family, eps**0.9)
    k = MollifierKernel.gaussian(eps)
    init = prepare_initial_particles(ss.reference, 16, seed=0)
    spec = RunSpec(
        reg=reg,
        kernel=k,
        velocity=VelocityConfig.quadratic(),
        initial=init,
        t_final=0.3,
        record_every=100,
        reference=lambda t: ss.reference,
    )
    traj = run(spec)
    w1 = [r.w1_to_reference for r in traj.records]
    assert all(v is not None for v in w1)
    assert max(w1) <= 2.0 * w1[0]
