"""The regularized particle flow and its runtime diagnostics.

Particles move by x_i' = -grad p(x_i) - v(x_i) where p = phi_eps * q,
q = f_reg'(mu), mu = phi_eps * (particle empirical measure), and v is the
drift's grad (zero without one). Convolutions are evaluated by midpoint
quadrature on a tensor grid that tracks the cloud. One stepping loop runs
every scheme, a row of SCHEMES: forward Euler or classical RK4.
Each array of a stage lives only as long as something reads it: a stage
keeps mu, the prox point of mu and q; the particle window that scattered mu
goes once the stage has gathered grad p through it; and the node gradients,
f_reg(mu) and zeta are computed from mu, j and q at each read, never kept.
Diagnostics per record: energy, mollified entropy, second moment,
dissipation residual, cross-term sign, stability constant, and optional
W1-to-reference. The mollifier-exchange residual is a function of one cloud
(exchange_residual), not a per-record diagnostic; its CSV column stays empty.

Determinism: every reduction sums contiguous arrays along a fixed axis in
index order with fixed chunk sizes, so identical inputs give bit-identical
trajectories regardless of thread settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .convex_energy import RegularizedEnergy, reg_derivative, reg_value, xlogx
from .ensemble import ParticleEnsemble, ReferenceDensity, second_moment, w1_vs_density
from .mollifier import GridWindow, MollifierKernel, QuadratureGrid, _positions, kernel_norms

# no longer called here, but perfbench/child.py wraps dynamics.mollified_density
# when it traces a run, so the name stays a module attribute
from .mollifier import mollified_density  # noqa: F401

EULER = "euler"
RK4 = "rk4"

# scheme: (inner stages as (offset, weight), weight sum). step weighs v(x0) by 1, each inner
# stage's v(x0 + offset dt v_prev) by its weight, and moves by dt / sum; Euler's dt / 1.0 is dt
SCHEMES = {
    RK4: (((0.5, 2.0), (0.5, 2.0), (1.0, 1.0)), 6.0),
    EULER: ((), 1.0),
}


class GridBudgetError(RuntimeError):
    """The requested quadrature grid exceeds the node budget."""


def build_grid(
    e,
    epsilon: float,
    padding: float = 6.0,
    spacing_fraction: float = 0.25,
    node_budget: int = 20_000_000,
) -> QuadratureGrid:
    """Midpoint grid over the particle bounding box padded by padding*eps,
    with per-axis spacing at most spacing_fraction*eps."""
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    if not padding > 0.0:
        raise ValueError("grid padding must be positive")
    if not 0.0 < spacing_fraction <= 1.0:
        raise ValueError("spacing_fraction must lie in (0, 1]")
    pos = _positions(e)
    target = spacing_fraction * epsilon
    # a box or cell count past the largest double is caught below as inf
    with np.errstate(over="ignore"):
        lo = pos.min(axis=0) - padding * epsilon
        hi = pos.max(axis=0) + padding * epsilon
        cells = (hi - lo) / target
    box = f"spacing <= {target:.4g} on box {lo.tolist()} .. {hi.tolist()}"
    if not np.isfinite(cells).all():
        raise GridBudgetError(f"grid node count is not finite for {box}")
    # Python ints: a numpy cast or product of huge counts wraps silently
    counts = tuple(max(math.ceil(c), 4) for c in cells.tolist())
    total = math.prod(counts)
    if total > node_budget:
        raise GridBudgetError(
            f"grid would need {total} nodes (counts {counts}) for {box}, "
            f"exceeding the budget of {node_budget}"
        )
    return QuadratureGrid(lo, hi, counts)


@dataclass(frozen=True)
class FieldSnapshot:
    """mu, its prox point j = J_delta(mu) and q = f_reg'(mu) on a quadrature
    grid, with the energy they were built with. The stage solves the prox
    once. f_reg(mu), zeta = f_reg*(q) and the node gradients are computed
    from these at each read, with no second solve, and are not kept.

    window is the particle window that scattered mu, for the gather at the
    same cloud; compute_fields sets it, and an integrator stage drops it
    once it has gathered, so the snapshot a SimState holds has none and a
    later gather builds its own."""

    grid: QuadratureGrid
    reg: RegularizedEnergy
    mu: np.ndarray
    j: np.ndarray
    q: np.ndarray
    window: Optional[GridWindow]

    @property
    def grad_mu(self) -> np.ndarray:
        return _node_gradients(self.grid, self.mu)

    @property
    def grad_q(self) -> np.ndarray:
        return _node_gradients(self.grid, self.q)

    @property
    def f_reg(self) -> np.ndarray:
        return np.asarray(reg_value(self.reg, self.mu, self.j))

    @property
    def zeta(self) -> np.ndarray:
        # Fenchel-Young equality at the maximizer: f*(f'(mu)) = mu q - f(mu)
        return np.maximum(self.mu * self.q - self.f_reg, 0.0)


def _node_gradients(grid: QuadratureGrid, values: np.ndarray) -> np.ndarray:
    grads = np.gradient(values.reshape(grid.shape), *grid.spacing, edge_order=2)
    if grid.dim == 1:
        grads = [grads]
    return np.column_stack([g.ravel() for g in grads])


def compute_fields(
    e,
    reg: RegularizedEnergy,
    k: MollifierKernel,
    grid: QuadratureGrid,
) -> FieldSnapshot:
    """Evaluate mu, its prox point and q for the current cloud.

    mu is scattered through the cloud's window on the grid; its values are
    those of mollified_density(e, k, grid.nodes). The one prox solve of the
    stage runs inside reg_derivative, which writes its prox point to j. The
    snapshot carries the window for pressure_gradient_at at the same cloud.
    """
    window = GridWindow(k, e, grid)
    mu = window.scatter()
    j = np.empty_like(mu)
    q = np.asarray(reg_derivative(reg, mu, prox_out=j))
    return FieldSnapshot(grid=grid, reg=reg, mu=mu, j=j, q=q, window=window)


def pressure_gradient_at(fields: FieldSnapshot, k: MollifierKernel, xs) -> np.ndarray:
    """grad p(x) = sum_g w_g grad phi_eps(x - y_g) q(y_g), in node order.

    The ambient level q(0-density) is subtracted before summation: constants
    do not contribute to grad(phi * q) in the continuum, and removing them
    keeps the truncated grid sum exact near the box edge. Each query point
    sums over its kernel window only. At the cloud the fields were built
    from, the snapshot's window is reused while it still has one; otherwise
    the window is built here, with the same bits.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != fields.grid.dim:
        raise ValueError("query points must have shape (n, d) matching the grid")
    if not fields.grid.covers(xs):
        bad = np.where(
            ~np.all((xs >= fields.grid.lo) & (xs <= fields.grid.hi), axis=1)
        )[0]
        raise ValueError(f"query points outside the grid box at indices {bad[:8].tolist()}")
    window = fields.window
    if window is None or window.kernel != k or not np.array_equal(window.positions, xs):
        window = GridWindow(k, xs, fields.grid)
    return window.gather((fields.q - fields.reg.derivative_at_zero) * fields.grid.cell)


def _central_differences(fn, points: np.ndarray, h: float):
    """Per axis ax in order: (fn(points + h e_ax) - fn(points - h e_ax)) / 2h."""
    for ax in range(points.shape[1]):
        shift = np.zeros(points.shape[1])
        shift[ax] = h
        yield (np.asarray(fn(points + shift)) - np.asarray(fn(points - shift))) / (2.0 * h)


@dataclass(frozen=True)
class VelocityConfig:
    """Autonomous drift v(x) = grad(x): none (VelocityConfig()), the gradient
    of a potential (both set; run checks grad against the potential's finite
    differences), or a custom field (grad alone). A bare potential is refused."""

    potential: Optional[Callable[[np.ndarray], np.ndarray]] = None
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self) -> None:
        if self.potential is not None and self.grad is None:
            raise ValueError("a potential needs its grad: the drift is grad(x), never differenced")

    @staticmethod
    def quadratic() -> "VelocityConfig":
        """v = x, the gradient of |x|^2/2."""
        return VelocityConfig(
            potential=lambda p: 0.5 * np.einsum("ij,ij->i", p, p),
            grad=lambda p: np.array(p, dtype=float, copy=True),
        )

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if self.grad is None:
            return np.zeros_like(points)
        return np.asarray(self.grad(points), dtype=float)

    def _fd_gradient(self, points: np.ndarray, h: float = 1e-6) -> np.ndarray:
        return np.stack(list(_central_differences(self.potential, points, h)), axis=1)

    def validate_gradient(self, probes: np.ndarray, rtol: float = 1e-5) -> None:
        """Check grad against the potential's finite differences, if one is set."""
        if self.potential is None:
            return
        analytic = np.asarray(self.grad(probes), dtype=float)
        numeric = self._fd_gradient(probes)
        scale = np.maximum(np.abs(numeric), 1.0)
        gap = np.max(np.abs(analytic - numeric) / scale)
        if gap > rtol:
            raise ValueError(
                f"potential gradient disagrees with finite differences "
                f"(relative gap {gap:.3e} > {rtol:.1e})"
            )

    def _probe_bounds(self, probes: np.ndarray, h: float = 1e-5) -> tuple[np.ndarray, np.ndarray]:
        """Per probe point: |v| and the largest entry of its finite-difference
        Jacobian. A non-finite drift value or difference stays non-finite."""
        speed = np.linalg.norm(self.evaluate(probes), axis=1)
        slope = np.zeros(probes.shape[0])
        for col in _central_differences(self.evaluate, probes, h):
            slope = np.maximum(slope, np.abs(col).max(axis=1, initial=0.0))
        return speed, slope

    def estimate_w1inf(self, probes: np.ndarray, h: float = 1e-5) -> float:
        """sup |v| + sup |Dv| over probe points (finite-difference Jacobian)."""
        speed, slope = self._probe_bounds(probes, h)
        sup_v = float(np.max(speed, initial=0.0))
        return sup_v + probes.shape[1] * float(np.max(slope, initial=0.0))


def lipschitz_estimate(
    reg: RegularizedEnergy, k: MollifierKernel, d: int, velocity_w1inf: float = 0.0
) -> float:
    """Stability constant of the regularized velocity field in d dimensions:

    C = 2 |v|_W1inf + |grad phi|_W11 (Lip(f_reg') |phi|_inf + f_reg'(0)).

    The f_reg'(0) term enters with its sign. Kernel norms are cached per
    (kernel, d); run passes its cloud's d.
    """
    norms = kernel_norms(k, d)
    return 2.0 * velocity_w1inf + norms.grad_w11 * (
        reg.lipschitz_of_derivative * norms.sup + reg.derivative_at_zero
    )


def energy_F_eps(fields: FieldSnapshot) -> float:
    """F = sum_g w_g f_reg(mu_g); zero-density regions contribute nothing."""
    return float(np.sum(fields.f_reg) * fields.grid.cell)


def entropy_mollified(fields: FieldSnapshot) -> float:
    """S(mu) = sum_g w_g mu log mu with 0 log 0 = 0."""
    return float(np.sum(xlogx(fields.mu)) * fields.grid.cell)


def cross_term_min(fields: FieldSnapshot) -> float:
    """The minimum of grad mu . grad q over the interior nodes, or over every
    node of a grid with no interior.

    The product equals f_reg''(mu) |grad mu|^2 >= 0 in exact arithmetic.
    """
    dot = np.einsum("gi,gi->g", fields.grad_mu, fields.grad_q)
    interior = fields.grid.interior_mask()
    return float(dot[interior].min()) if interior.any() else float(dot.min())


def dissipation_residual(window: Sequence["DiagnosticsRecord"]) -> float:
    """R(T) = F(T) - F(0) + trapezoid of the particle dissipation rate.

    Zero in the continuum by the energy dissipation identity; numerically
    the time-quadrature error of the integrator. Windows shorter than two
    records return 0.
    """
    if len(window) < 2:
        return 0.0
    times = np.array([r.t for r in window])
    rates = np.array([r.dissipation_rate for r in window])
    integral = float(np.trapezoid(rates, times))
    return float(window[-1].f_eps - window[0].f_eps + integral)


def exchange_residual(
    e, fields: FieldSnapshot, k: MollifierKernel, g_test: Callable[[np.ndarray], np.ndarray]
) -> float:
    """Norm of (1/N) sum_i g(x_i) grad p(x_i) - sum_g w_g g(y_g) mu grad q.

    Both express int g grad p d(rho) after moving the mollifier across the
    pairing; the gap decays with eps at fixed schedule.
    """
    pos = _positions(e)
    gp = pressure_gradient_at(fields, k, pos)
    gi = np.asarray(g_test(pos), dtype=float)
    lhs = (gi[:, None] * gp).sum(axis=0) / pos.shape[0]
    gn = np.asarray(g_test(fields.grid.nodes), dtype=float)
    rhs = ((gn * fields.mu)[:, None] * fields.grad_q).sum(axis=0) * fields.grid.cell
    return float(np.linalg.norm(lhs - rhs))


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One diagnostics row; dissipation_rate is carried for the residual
    quadrature but is not a CSV column, and the exchange_residual column is
    always empty."""

    t: float
    f_eps: float
    entropy_moll: float
    m2: float
    diss_residual: float
    min_cross_term: float
    lipschitz_estimate: float
    w1_to_reference: Optional[float] = None
    dissipation_rate: float = 0.0

    CSV_HEADER = (
        "t,F_eps,entropy_moll,M2,diss_residual,min_cross_term,"
        "lipschitz_estimate,w1_to_reference,exchange_residual"
    )

    def values(self) -> tuple:
        """The CSV columns, in CSV_HEADER order."""
        return (
            self.t,
            self.f_eps,
            self.entropy_moll,
            self.m2,
            self.diss_residual,
            self.min_cross_term,
            self.lipschitz_estimate,
            self.w1_to_reference,
            None,
        )

    def csv_row(self) -> str:
        return ",".join("" if v is None else repr(float(v)) for v in self.values())


@dataclass(frozen=True)
class RunSpec:
    """Everything dynamics.run needs; cli builds one per experiment. The
    run's d is its cloud's: the family must admit it, and it is the d of the
    stability constant and so of the auto step."""

    reg: RegularizedEnergy
    kernel: MollifierKernel
    velocity: VelocityConfig
    initial: ParticleEnsemble
    t_final: float
    dt: Optional[float] = None  # None: auto 0.5 / C_eps
    scheme: str = RK4
    record_every: int = 1
    reference: Optional[Callable[[float], ReferenceDensity]] = None
    grid_padding: float = 6.0
    grid_spacing_fraction: float = 0.25
    grid_node_budget: int = 20_000_000
    w1_resolution: int = 4096

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {', '.join(SCHEMES)}")
        if self.t_final < 0.0:
            raise ValueError("t_final must be nonnegative")
        if self.dt is not None and not self.dt > 0.0:
            raise ValueError("dt must be positive (or None for auto)")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        self.reg.family.check_dimension(self.initial.dim)


@dataclass(frozen=True)
class SimState:
    """Immutable integrator state: the cloud plus fields at its clock."""

    spec: RunSpec
    ensemble: ParticleEnsemble
    fields: FieldSnapshot
    pressure_grad: np.ndarray  # grad p at the particles


@dataclass
class Trajectory:
    """The diagnostics records of a run and its last cloud; callers that
    want every recorded cloud collect them through run's on_record, and the
    trapezoid terms of the dissipation residual, one per pair of records."""

    records: list[DiagnosticsRecord] = field(default_factory=list)
    final: Optional[ParticleEnsemble] = None
    c_eps: float = 0.0
    dt: float = 0.0
    dissipation_terms: np.ndarray = field(default_factory=lambda: np.empty(0))


def _stage(spec: RunSpec, positions: np.ndarray, grid: Optional[QuadratureGrid]):
    """(fields, grad p) at one integrator stage. The grid is kept unless any
    particle enters the 2-eps shell at its edge. The fields come back
    without their window: nothing reads it after the gather."""
    if grid is None or not grid.covers(positions, slack=2.0 * spec.kernel.epsilon):
        grid = build_grid(
            positions,
            spec.kernel.epsilon,
            padding=spec.grid_padding,
            spacing_fraction=spec.grid_spacing_fraction,
            node_budget=spec.grid_node_budget,
        )
    fields = compute_fields(positions, spec.reg, spec.kernel, grid)
    gp = pressure_gradient_at(fields, spec.kernel, positions)
    return replace(fields, window=None), gp


def _velocity(spec: RunSpec, positions: np.ndarray, pressure_grad: np.ndarray) -> np.ndarray:
    """x' = -grad p - v at the particles; non-finite values name the particles."""
    vel = -pressure_grad - spec.velocity.evaluate(positions)
    if not np.isfinite(vel).all():
        raise _nonfinite_velocity(np.where(~np.all(np.isfinite(vel), axis=1))[0])
    return vel


def _nonfinite_velocity(bad: np.ndarray) -> FloatingPointError:
    return FloatingPointError(f"non-finite velocity for particle indices {bad[:8].tolist()}")


def _state(spec: RunSpec, ensemble: ParticleEnsemble, grid: Optional[QuadratureGrid]) -> SimState:
    fields, gp = _stage(spec, ensemble.positions, grid)
    return SimState(spec=spec, ensemble=ensemble, fields=fields, pressure_grad=gp)


def make_state(spec: RunSpec, ensemble: ParticleEnsemble) -> SimState:
    return _state(spec, ensemble, None)


def step(state: SimState, dt: float) -> SimState:
    """Advance every particle by one step of the spec's SCHEMES row.

    Stage fields are recomputed at each stage position; the grid follows the
    cloud whenever it drifts into the boundary shell. Of an inner stage only
    grad p and the grid are read, so its fields are let go before the next
    stage builds its own.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    spec = state.spec
    stages, weight_sum = SCHEMES[spec.scheme]
    x0 = state.ensemble.positions
    grid = state.fields.grid

    v = _velocity(spec, x0, state.pressure_grad)
    total = v
    for offset, weight in stages:
        x = x0 + offset * dt * v
        fields, gp = _stage(spec, x, grid)
        grid = fields.grid
        del fields
        v = _velocity(spec, x, gp)
        total = total + weight * v
    moved = state.ensemble.advanced(x0 + dt / weight_sum * total, state.ensemble.time + dt)
    return _state(spec, moved, grid)


def _dissipation_rate(state: SimState) -> float:
    """(1/N) sum_i |grad p(x_i)|^2 + v(x_i) . grad p(x_i)."""
    gp = state.pressure_grad
    v = state.spec.velocity.evaluate(state.ensemble.positions)
    per = np.einsum("ij,ij->i", gp, gp) + np.einsum("ij,ij->i", v, gp)
    return float(per.mean())


def _record(state: SimState, trajectory: Trajectory, on_record=None) -> None:
    """Append one record. Its diss_residual has the bits of dissipation_residual
    over the records so far and this one: it sums the same trapezoid terms."""
    spec = state.spec
    t = state.ensemble.time
    w1 = None
    if spec.reference is not None:
        w1 = w1_vs_density(state.ensemble, spec.reference(t), spec.w1_resolution)
    rec = DiagnosticsRecord(
        t=t,
        f_eps=energy_F_eps(state.fields),
        entropy_moll=entropy_mollified(state.fields),
        m2=second_moment(state.ensemble),
        diss_residual=0.0,
        min_cross_term=cross_term_min(state.fields),
        lipschitz_estimate=trajectory.c_eps,
        w1_to_reference=w1,
        dissipation_rate=_dissipation_rate(state),
    )
    if trajectory.records:
        first, prev = trajectory.records[0], trajectory.records[-1]
        term = (rec.t - prev.t) * (rec.dissipation_rate + prev.dissipation_rate) / 2.0
        terms = trajectory.dissipation_terms = np.append(trajectory.dissipation_terms, term)
        rec = replace(rec, diss_residual=float(rec.f_eps - first.f_eps + terms.sum()))
    trajectory.records.append(rec)
    trajectory.final = state.ensemble
    if on_record is not None:
        on_record(rec, state.ensemble)


def run(spec: RunSpec, on_record=None) -> Trajectory:
    """Integrate to t_final, recording diagnostics at the configured cadence.

    on_record(record, ensemble) fires at every record so callers can stream
    partial output or keep the clouds; the trajectory holds every record and
    only the last cloud.
    """
    spec.velocity.validate_gradient(
        spec.initial.positions[:: max(1, spec.initial.n // 32)]
    )
    stride = max(1, spec.initial.n // 256)
    probes = spec.initial.positions[::stride]
    vbound = spec.velocity.estimate_w1inf(probes)
    c_eps = lipschitz_estimate(spec.reg, spec.kernel, spec.initial.dim, velocity_w1inf=vbound)

    if spec.dt is not None:
        dt = spec.dt
    elif math.isfinite(vbound):
        dt = 0.5 / max(c_eps, 1e-12)
    else:
        speed, slope = spec.velocity._probe_bounds(probes)
        bad = np.where(~np.isfinite(speed + slope))[0] * stride
        raise _nonfinite_velocity(bad)

    state = make_state(spec, spec.initial)
    trajectory = Trajectory(c_eps=c_eps, dt=dt)
    _record(state, trajectory, on_record)
    n_steps = max(1, math.ceil(spec.t_final / dt - 1e-9))
    for k in range(1, n_steps + 1):
        h = min(k * dt, spec.t_final) - state.ensemble.time
        if h <= 0.0:
            continue
        state = step(state, h)
        if k % spec.record_every == 0 or k == n_steps:
            _record(state, trajectory, on_record)
    return trajectory
