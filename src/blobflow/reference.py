"""Closed-form references: delta schedules, heat kernels, Barenblatt
profiles, and steady states of energy + confining potential.

All densities are returned as ReferenceDensity objects (pdf on a box, CDF in
d=1) so initialization and W1 measurements share one interface. The
Barenblatt mass constant is fixed by unit mass in closed form, as a Beta
integral; its d=1 CDF uses regularized incomplete beta functions, and
scipy.special is imported on its first call. The d=1 Gaussian CDF is
math.erf, lane by lane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .convex_energy import (
    FAST_DIFFUSION,
    HEAT,
    HEIGHT_CONSTRAINT,
    POROUS_MEDIUM,
    EnergyFamily,
)
from .ensemble import ReferenceDensity
from .mollifier import QuadratureGrid, _beta, _surface_area

# without scipy.special, whose import is most of a d = 1 Gaussian or
# heat-kernel run's set-up
_erf = np.vectorize(math.erf, otypes=[float])


@dataclass(frozen=True)
class DeltaSchedule:
    """delta(eps) = eps^beta, admissible when beta < (r - d)/(r - 1).

    r is the kernel's certified tail-decay exponent and must exceed
    max(d, 2); the resulting upper bound never exceeds 1.
    """

    beta: float
    effective_r: float
    dimension: int = 1

    def __post_init__(self) -> None:
        r, d = self.effective_r, self.dimension
        if not (isinstance(d, int) and d >= 1):
            raise ValueError("dimension must be a positive integer")
        if not r > max(d, 2):
            raise ValueError(f"effective_r = {r} must exceed max(d, 2) = {max(d, 2)}")
        if not (0.0 < self.beta < self.upper_bound):
            raise ValueError(
                f"beta = {self.beta} must lie in (0, {self.upper_bound:.6g}), under the "
                f"schedule bound (r - d)/(r - 1) with r = {r}, d = {d}"
            )

    @property
    def upper_bound(self) -> float:
        return (self.effective_r - self.dimension) / (self.effective_r - 1.0)

    def delta_of(self, epsilon: float) -> float:
        if not (np.isfinite(epsilon) and epsilon > 0.0):
            raise ValueError("epsilon must be a positive finite real")
        return float(epsilon**self.beta)


def heat_kernel_reference(d: int, t: float) -> ReferenceDensity:
    """Fundamental solution of the heat equation at time t > 0: the centred
    Gaussian of variance 2t per axis."""
    if not t > 0.0:
        raise ValueError("heat kernel needs t > 0")
    return gaussian_reference(d, math.sqrt(2.0 * t))


def _barenblatt_exponents(m: float, d: int) -> tuple[float, float, float]:
    alpha = d / (d * (m - 1.0) + 2.0)
    beta = alpha / d
    k = alpha * (m - 1.0) / (2.0 * d * m)
    return alpha, beta, k


@lru_cache(maxsize=None)
def barenblatt_constant(m: float, d: int) -> float:
    """Unit-mass constant of the self-similar profile (C - k|y|^2)_+^(1/(m-1)).

    For m < 1 the profile is (C + |k||y|^2)^(1/(m-1)) with integrable tails.
    The radial integral of the unit profile is a Beta integral:
    int_0^1 s^(d-1) (1-s^2)^p ds = B(d/2, p+1)/2 for m > 1 and
    int_0^inf s^(d-1) (1+s^2)^p ds = B(d/2, -p-d/2)/2 for m < 1.
    """
    _check_barenblatt_m(m, d)
    _, _, k = _barenblatt_exponents(m, d)
    p = 1.0 / (m - 1.0)
    area = _surface_area(d)
    if m > 1.0:
        integral = _beta(d / 2.0, p + 1.0) / 2.0
    else:
        integral = _beta(d / 2.0, -p - d / 2.0) / 2.0
    return float((abs(k) ** (d / 2.0) / (area * integral)) ** (1.0 / (p + d / 2.0)))


def _check_barenblatt_m(m: float, d: int) -> None:
    """The profile exists for the porous-medium and fast-diffusion exponents."""
    EnergyFamily(POROUS_MEDIUM if m > 1.0 else FAST_DIFFUSION, float(m), d)


def barenblatt(m: float, d: int, t: float, x) -> np.ndarray:
    """Self-similar solution of d_t rho = Lap(rho^m) with unit mass."""
    if not t > 0.0:
        raise ValueError("self-similar profile needs t > 0")
    _check_barenblatt_m(m, d)
    alpha, beta, k = _barenblatt_exponents(m, d)
    c = barenblatt_constant(m, d)
    x = np.asarray(x, dtype=float)
    r2 = np.einsum("...i,...i->...", x, x)
    arg = c - k * r2 * t ** (-2.0 * beta)
    p = 1.0 / (m - 1.0)
    if m > 1.0:
        core = np.where(arg > 0.0, arg, 0.0) ** p
    else:
        core = arg**p
    return t ** (-alpha) * core


def barenblatt_support_radius(m: float, d: int, t: float) -> float:
    """Edge of the support for m > 1; for m < 1, a fixed 200 times the
    profile scale sqrt(C/|k|) t^beta (see barenblatt_reference for the mass
    that radius leaves out)."""
    alpha, beta, k = _barenblatt_exponents(m, d)
    c = barenblatt_constant(m, d)
    if m > 1.0:
        return math.sqrt(c / k) * t**beta
    scale = math.sqrt(c / abs(k)) * t**beta
    return 200.0 * scale


def barenblatt_reference(m: float, d: int, t: float) -> ReferenceDensity:
    alpha, beta, k = _barenblatt_exponents(m, d)
    c = barenblatt_constant(m, d)
    p = 1.0 / (m - 1.0)
    if m > 1.0:
        half = math.sqrt(c / k) * t**beta * 1.05
    else:
        # half-width 200 profile scales; the mass beyond that radius, which
        # bounds what the box leaves out, is the same at every t and grows as
        # m falls: 5.3e-8 at m = 0.5, 2.0e-6 at m = 0.4 and 1.1e-5 at
        # m = 0.34 in d = 1, 1.6e-5 at m = 0.51 in d = 2
        half = barenblatt_support_radius(m, d, t)
    lo, hi = np.full(d, -half), np.full(d, half)
    cdf = None
    if d == 1:
        edge = math.sqrt(c / abs(k)) * t**beta

        def cdf(xs):
            from scipy.special import betainc

            xs = np.asarray(xs, dtype=float)
            u = xs / edge
            if m > 1.0:
                u = np.clip(u, -1.0, 1.0)
                frac = betainc(0.5, p + 1.0, u * u)
            else:
                frac = betainc(0.5, -p - 0.5, u * u / (1.0 + u * u))
            return 0.5 * (1.0 + np.sign(u) * frac)

    return ReferenceDensity(
        name=f"self_similar(m={m}, t={t})",
        dim=d,
        pdf=lambda pts: barenblatt(m, d, t, pts),
        box=(lo, hi),
        cdf=cdf,
    )


def gaussian_reference(d: int, sigma: float, center: float = 0.0) -> ReferenceDensity:
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    mu = np.full(d, float(center))
    lo, hi = mu - 10.0 * sigma, mu + 10.0 * sigma

    def pdf(pts):
        pts = np.asarray(pts, dtype=float)
        r2 = np.einsum("...i,...i->...", pts - mu, pts - mu)
        return (2.0 * math.pi * sigma**2) ** (-d / 2.0) * np.exp(-0.5 * r2 / sigma**2)

    cdf = None
    if d == 1:

        def cdf(xs):
            xs = np.asarray(xs, dtype=float)
            return 0.5 * (1.0 + _erf((xs - center) / (sigma * math.sqrt(2.0))))

    return ReferenceDensity(
        name=f"gaussian(sigma={sigma})", dim=d, pdf=pdf, box=(lo, hi), cdf=cdf
    )


def uniform_reference(d: int, half_width: float, center: float = 0.0) -> ReferenceDensity:
    if not half_width > 0.0:
        raise ValueError("half_width must be positive")
    mu = np.full(d, float(center))
    lo, hi = mu - half_width, mu + half_width
    vol = (2.0 * half_width) ** d

    def pdf(pts):
        pts = np.asarray(pts, dtype=float)
        inside = np.all((pts >= lo) & (pts <= hi), axis=-1)
        return inside / vol

    cdf = None
    if d == 1:

        def cdf(xs):
            xs = np.asarray(xs, dtype=float)
            return np.clip((xs - lo[0]) / (2.0 * half_width), 0.0, 1.0)

    return ReferenceDensity(
        name=f"uniform(w={half_width})", dim=d, pdf=pdf, box=(lo, hi), cdf=cdf
    )


def base_conjugate_prime(family: EnergyFamily, b):
    """(f*)'(b) of the unregularized density: the steady-state profile map.

    The height constraint uses the selection 1_(b>0) from the subdifferential.
    """
    b = np.asarray(b, dtype=float)
    k = family.kind
    if k == HEAT:
        return np.exp(b)
    if k == POROUS_MEDIUM:
        m = family.m
        core = np.maximum((m - 1.0) / m * b, 0.0)
        return core ** (1.0 / (m - 1.0))
    if k == FAST_DIFFUSION:
        m = family.m
        out = np.full(b.shape, np.inf)
        neg = b < 0.0
        with np.errstate(all="ignore"):
            out[neg] = ((1.0 - m) / m * (-b[neg])) ** (1.0 / (m - 1.0))
        return out
    return (b > 0.0).astype(float)


@dataclass(frozen=True)
class SteadyState:
    """Minimizer rho(x) = (f*)'(Z - V(x)) of energy + potential at unit mass."""

    z: float
    reference: ReferenceDensity

    def density(self, pts) -> np.ndarray:
        return self.reference.pdf(pts)


def steady_state(
    family: EnergyFamily,
    potential: Callable[[np.ndarray], np.ndarray],
    box: tuple[np.ndarray, np.ndarray],
    resolution: int = 4096,
    margin: float = 1.0,
) -> SteadyState:
    """Solve for Z with unit mass of (f*)'(Z - V) on the box by bisection.

    The potential must be confining on the box: its minimum over the
    boundary shell must exceed the interior minimum by at least margin.
    """
    lo = np.atleast_1d(np.asarray(box[0], dtype=float))
    hi = np.atleast_1d(np.asarray(box[1], dtype=float))
    d = len(lo)
    per_axis = resolution if d == 1 else int(max(16, round(resolution ** (1.0 / d))))
    if per_axis**d > 4_000_000:
        raise ValueError("steady-state grid exceeds the node budget")
    grid = QuadratureGrid(lo, hi, (per_axis,) * d)
    v = np.asarray(potential(grid.nodes), dtype=float)
    if not np.isfinite(v).all():
        raise ValueError("potential must be finite on the box")

    interior = grid.interior_mask()
    if interior.any():
        boundary_min, interior_min = v[~interior].min(), v[interior].min()
        if not boundary_min >= interior_min + margin:
            raise ValueError(
                "potential is not confining on the box: boundary minimum "
                f"{boundary_min:.4g} is not {margin} above interior minimum "
                f"{interior_min:.4g}"
            )

    def mass(z: float) -> float:
        with np.errstate(all="ignore"):
            rho = base_conjugate_prime(family, z - v)
        total = float(np.sum(rho) * grid.cell)
        return np.inf if not np.isfinite(total) else total

    # mass is monotone increasing in Z (and +inf past min V for fast
    # diffusion, which bisection treats as "above target")
    z_lo = float(v.min()) - 10.0
    z_hi = float(v.max()) + 10.0
    if mass(z_lo) > 1.0:
        raise ValueError(
            "mass already exceeds 1 at the lower bracket; shrink the box "
            "or recheck the potential"
        )
    if mass(z_hi) < 1.0:
        raise ValueError(
            "mass never reaches 1 on the box; enlarge the box so the "
            "steady state fits inside it"
        )

    for _ in range(200):
        mid = 0.5 * (z_lo + z_hi)
        if mass(mid) < 1.0:
            z_lo = mid
        else:
            z_hi = mid
    z = 0.5 * (z_lo + z_hi)

    def pdf(query):
        query = np.asarray(query, dtype=float)
        with np.errstate(all="ignore"):
            rho = base_conjugate_prime(family, z - np.asarray(potential(query)))
        return np.where(np.isfinite(rho), rho, 0.0)

    ref = ReferenceDensity(name=f"steady({family.kind})", dim=d, pdf=pdf, box=(lo, hi))
    return SteadyState(z=z, reference=ref)
