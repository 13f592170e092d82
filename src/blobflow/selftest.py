"""A smoke battery: one or two cheap checks per module, at fixed seeds, built
on the library's own validators; the pytest suite is the full specification.

Each suite returns (name, ok, detail) tuples; run_all flattens them.
suite_convex_energy takes a curvature_bias, zero in a healthy build, as a
negative control: a nonzero bias shifts the measured curvature, so a
deliberately broken build is seen to fail.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from . import dynamics as dyn
from .convex_energy import EnergyFamily, RegularizedEnergy
from .convex_energy import reg_conjugate, reg_derivative, reg_value
from .ensemble import load_snapshot, prepare_initial_particles, save_snapshot
from .mollifier import MollifierKernel, validate_kernel
from .reference import barenblatt, gaussian_reference

Check = tuple[str, bool, str]


def suite_convex_energy(seed: int = 0, curvature_bias: float = 0.0) -> list[Check]:
    rng = np.random.default_rng(seed)
    worst_fy, worst_lo, worst_hi, ok = 0.0, np.inf, -np.inf, True
    kinds = ("heat", "porous_medium", "fast_diffusion", "height_constraint")
    for fam in map(EnergyFamily, kinds, (None, 2.0, 0.5, None)):
        for delta in (1e-3, 0.03, 0.25, 1.0):
            reg = RegularizedEnergy(family=fam, delta=delta, epsilon=delta**2)
            a = rng.uniform(0.0, 10.0, size=64)
            q = np.asarray(reg_derivative(reg, a))
            gap = np.abs(a * q - np.asarray(reg_value(reg, a)) - reg_conjugate(reg, q))
            worst_fy = max(worst_fy, float(np.max(gap / np.maximum(np.abs(a * q), 1.0))))
        # f_reg'' lies in [delta, delta + 1/delta]; measured by central differences
        reg = RegularizedEnergy(family=fam, delta=0.25, epsilon=0.0625)
        lo, hi = reg.delta, reg.lipschitz_of_derivative
        a, h = rng.uniform(0.05, 5.0, size=256), 1e-4
        f2 = (reg_value(reg, a + h) - 2.0 * reg_value(reg, a) + reg_value(reg, a - h)) / h**2
        f2 = f2 + curvature_bias
        worst_lo, worst_hi = min(worst_lo, float(f2.min())), max(worst_hi, float(f2.max()))
        ok &= bool(np.all(f2 >= lo - 1e-3 * hi) and np.all(f2 <= hi + 1e-3 * hi))
    curvature = f"FD curvature range [{worst_lo:.4f}, {worst_hi:.4f}] vs [delta, delta+1/delta]"
    return [
        ("convex_energy.fenchel_young", worst_fy <= 1e-8, f"max relative residual {worst_fy:.3e}"),
        ("convex_energy.curvature_sandwich", ok, curvature),
    ]


def suite_mollifier() -> list[Check]:
    out: list[Check] = []
    for d in (1, 2):
        for kind in ("gaussian", "bump"):
            rep = validate_kernel(getattr(MollifierKernel, kind)(0.2, dimension=d), d)
            detail = "ok" if rep.passed else "; ".join(rep.failures)
            out.append((f"mollifier.validate.{kind}.d{d}", rep.passed, detail))
    return out


def suite_ensemble(seed: int = 2) -> list[Check]:
    a = prepare_initial_particles(gaussian_reference(1, 1.0), 256, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "snapshot.csv")
        save_snapshot(a, path)
        back = load_snapshot(path)
    ok = np.array_equal(a.positions, back.positions) and (back.seed, back.time) == (a.seed, a.time)
    detail = "positions, seed and time survive a save/load cycle"
    return [("ensemble.snapshot_roundtrip", ok, detail)]


def suite_reference() -> list[Check]:
    xs = np.linspace(-3, 3, 2001)[:, None]
    mass = float(np.trapezoid(barenblatt(2.0, 1, 1.0, xs), xs[:, 0]))
    return [("reference.barenblatt_mass", abs(mass - 1.0) <= 1e-6, f"mass {mass!r}")]


def suite_dynamics(seed: int = 4) -> list[Check]:
    eps = 0.2
    spec = dyn.RunSpec(
        reg=RegularizedEnergy(family=EnergyFamily.heat(), delta=eps**0.5, epsilon=eps),
        kernel=MollifierKernel.gaussian(eps, dimension=1),
        velocity=dyn.VelocityConfig.none(),
        initial=prepare_initial_particles(gaussian_reference(1, 1.0), 48, seed=seed),
        t_final=0.05,
        dt=2e-3,
    )
    traj, again = dyn.run(spec), dyn.run(spec)
    f = [r.f_eps for r in traj.records]
    mono = all(later <= earlier + 1e-10 for earlier, later in zip(f, f[1:]))
    ident = np.array_equal(traj.final.positions, again.final.positions)
    return [
        ("dynamics.energy_monotone", mono, f"F from {f[0]:.6f} to {f[-1]:.6f}"),
        ("dynamics.bitwise_rerun", ident, "identical spec, identical cloud"),
    ]


SUITES = (suite_convex_energy, suite_mollifier, suite_ensemble, suite_reference, suite_dynamics)


def run_all() -> list[Check]:
    return [check for suite in SUITES for check in suite()]
