"""Closed-form references: delta schedules, heat kernels, Barenblatt
profiles, and steady states of energy + confining potential.

All densities are returned as ReferenceDensity objects (pdf on a box, CDF in
d=1) so initialization and W1 measurements share one interface. The
Barenblatt mass constant is fixed by unit mass in closed form, as a Beta
integral; its d=1 CDF is a regularized incomplete beta function. For fast
diffusion (m < 1) that is I_x(1/2, b), a numpy continued fraction
(_half_beta); the porous-medium CDF (m > 1) still calls scipy.special.betainc,
imported on its first call, because a correctly rounded CDF moves one
particle of the golden porous-medium start. The d=1 Gaussian CDF is math.erf,
lane by lane.
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
    ConvergenceError,
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
    max(d, 2); the resulting upper bound never exceeds 1. Unset, r is d + 3:
    both kernels decay faster than any power, so any finite tail exponent is
    honest, the check just needs one larger than max(d, 2).
    """

    beta: float
    effective_r: float | None = None
    dimension: int = 1

    def __post_init__(self) -> None:
        d = self.dimension
        if not (isinstance(d, int) and d >= 1):
            raise ValueError("dimension must be a positive integer")
        if self.effective_r is None:
            object.__setattr__(self, "effective_r", float(d + 3))
        r = self.effective_r
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


# log(Gamma(b + 1/2) / Gamma(b)) - log(b)/2 = sum over odd k of c_k b^-k with
# c_k = (2^-k - 2) B_(k+1) / (k (k + 1)), B_n the Bernoulli numbers; from
# b = 10 on, these seven terms are exact to rounding, where lgamma(b) -
# lgamma(b + 1/2) cancels (1.5e-11 off at b = 1e4)
_HALF_GAMMA_RATIO = (-1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432, 691 / 180224, -5461 / 425984)


def _log_half_beta(b: float) -> float:
    """log B(1/2, b) for b > 0."""
    if b < 10.0:
        return math.lgamma(0.5) + math.lgamma(b) - math.lgamma(b + 0.5)
    series = 0.0
    for c in reversed(_HALF_GAMMA_RATIO):
        series = series / (b * b) + c
    return 0.5 * math.log(math.pi / b) - series / b


def _fraction_terms(p: float, q: float, m: int) -> tuple[float, float]:
    """Coefficients of x in the even and odd terms d_2m, d_2m+1 of the
    continued fraction of I_x(p, q) (Press et al., Numerical Recipes, 6.4)."""
    return (
        m * (q - m) / ((p + 2 * m - 1) * (p + 2 * m)),
        -(p + m) * (p + q + m) / ((p + 2 * m) * (p + 2 * m + 1)),
    )


def _half_beta(b: float, x) -> np.ndarray:
    """I_x(1/2, b), the regularized incomplete beta function, for b > 1 and x
    in [0, 1]: the fast-diffusion Barenblatt CDF without scipy.

    Lanes with x <= 1.5/(b + 2.5) sum the continued fraction of I_x(1/2, b),
    the others 1 - I_(1-x)(b, 1/2), both by modified Lentz (Numerical Recipes
    6.4) in one loop. A lane stops after the first full step (even plus odd
    term) whose odd factor is within 1e-15 of 1. Its x is then set to 0, which
    makes every later factor exactly 1, so each lane's value is what it would
    be alone; finished lanes leave the arrays once they are three quarters of
    them. A lane that has not stopped after 500 steps raises ConvergenceError
    (no b up to 1e15 needed more than 104). The complement reads 1 - x, whose
    rounding the fraction amplifies about b-fold: the relative error is
    within 1e-14 up to b = 100 and grows to about 1e-16 b beyond.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    upper = flat > 1.5 / (b + 2.5)
    side = branch = upper.astype(np.intp)
    z = flat.copy()
    np.subtract(1.0, flat, out=z, where=upper)
    # the fraction's first term, d_1 = -(p + q) x / (p + 1)
    d = np.array([-(b + 0.5) / 1.5, -(b + 0.5) / (b + 1.0)])[branch]
    d *= z
    d += 1.0
    np.reciprocal(d, out=d)
    c = np.ones(z.size)
    h = d.copy()
    factor = np.empty(z.size)
    done = np.empty(z.size, dtype=bool)
    out = np.empty(z.size)
    lanes = np.arange(z.size)
    for m in range(1, 501):
        for lower_coef, upper_coef in zip(_fraction_terms(0.5, b, m), _fraction_terms(b, 0.5, m)):
            a = np.array([lower_coef, upper_coef])[branch]
            a *= z
            d *= a
            d += 1.0
            np.reciprocal(d, out=d)
            np.divide(a, c, out=c)
            c += 1.0
            np.multiply(d, c, out=factor)
            h *= factor
        factor -= 1.0
        np.abs(factor, out=factor)
        np.less_equal(factor, 1e-15, out=done)  # a NaN lane never stops
        z[done] = 0.0
        left = done.size - np.count_nonzero(done)
        if left == 0:
            break
        if 4 * left <= done.size:
            out[lanes] = h
            keep = np.flatnonzero(~done)
            lanes, z, c, d, h, branch = lanes[keep], z[keep], c[keep], d[keep], h[keep], branch[keep]
            factor, done = factor[:left], done[:left]
    else:
        raise ConvergenceError(f"I_x(1/2, {b}) has {left} lane(s) unconverged after 500 steps")
    out[lanes] = h
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf: the weight vanishes at x = 1
        weight = np.log1p(-flat)
    weight *= b
    weight -= _log_half_beta(b)
    np.exp(weight, out=weight)
    weight *= np.sqrt(flat)  # x^(1/2) (1 - x)^b / B(1/2, b)
    out *= weight
    out *= np.array([2.0, -1.0 / b])[side]  # / p, and 1 - ... for the complement
    np.add(out, 1.0, out=out, where=upper)
    return out.reshape(x.shape)


def barenblatt_reference(m: float, d: int, t: float) -> ReferenceDensity:
    alpha, beta, k = _barenblatt_exponents(m, d)
    c = barenblatt_constant(m, d)
    p = 1.0 / (m - 1.0)
    # the support edge for m > 1, the profile scale for m < 1
    edge = math.sqrt(c / abs(k)) * t**beta
    if m > 1.0:
        half = edge * 1.05
    else:
        # half-width 200 profile scales; the mass beyond that radius, which
        # bounds what the box leaves out, is the same at every t and grows as
        # m falls: 5.3e-8 at m = 0.5, 2.0e-6 at m = 0.4 and 1.1e-5 at
        # m = 0.34 in d = 1, 1.6e-5 at m = 0.51 in d = 2
        half = 200.0 * edge
    lo, hi = np.full(d, -half), np.full(d, half)
    cdf = None
    if d == 1:

        def cdf(xs):
            xs = np.asarray(xs, dtype=float)
            u = xs / edge
            if m > 1.0:
                from scipy.special import betainc

                u = np.clip(u, -1.0, 1.0)
                frac = betainc(0.5, p + 1.0, u * u)
            else:
                frac = _half_beta(-p - 0.5, u * u / (1.0 + u * u))
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
            z_lo, old = mid, z_lo
        else:
            z_hi, old = mid, z_hi
        if mid == old:  # the bracket is a fixed point: the rest would repeat this
            break
    z = 0.5 * (z_lo + z_hi)

    def pdf(query):
        query = np.asarray(query, dtype=float)
        with np.errstate(all="ignore"):
            rho = base_conjugate_prime(family, z - np.asarray(potential(query)))
        return np.where(np.isfinite(rho), rho, 0.0)

    ref = ReferenceDensity(name=f"steady({family.kind})", dim=d, pdf=pdf, box=(lo, hi))
    return SteadyState(z=z, reference=ref)
