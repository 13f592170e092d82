"""Scalar convex analysis for internal-energy densities.

Implements the four energy densities (heat, porous medium, fast diffusion,
height constraint), their Moreau envelopes, the doubly regularized density

    f_reg(a) = (delta/2) a^2 + env_delta(a) - env_delta(0),   a >= 0,

its derivative and Legendre conjugate, and a quadrature for the dual-Sobolev
e-density e(a) = int_0^a (s f'(s) - f(s))' ds. All functions accept scalars
or numpy arrays and are pure.

Extended-real convention: values outside the effective domain are IEEE +inf.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .mollifier import _PANEL_NODES, _PANEL_WEIGHTS

HEAT = "heat"
POROUS_MEDIUM = "porous_medium"
FAST_DIFFUSION = "fast_diffusion"
HEIGHT_CONSTRAINT = "height_constraint"

_KINDS = (HEAT, POROUS_MEDIUM, FAST_DIFFUSION, HEIGHT_CONSTRAINT)

INF = float("inf")


class ConvergenceError(RuntimeError):
    """A vectorized root solve failed to reach tolerance within its budget."""


@dataclass(frozen=True)
class EnergyFamily:
    """One admissible internal-energy density f on [0, inf).

    kind            one of heat, porous_medium, fast_diffusion, height_constraint
    m               exponent for the power-law families, None otherwise
    dimension_hint  ambient dimension, used to validate fast-diffusion exponents
    """

    kind: str
    m: float | None = None
    dimension_hint: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown energy family kind {self.kind!r}")
        d = self.dimension_hint
        if not (isinstance(d, int) and d >= 1):
            raise ValueError("dimension_hint must be a positive integer")
        if self.kind in (HEAT, HEIGHT_CONSTRAINT):
            if self.m is not None:
                raise ValueError(f"{self.kind} takes no exponent")
        elif self.kind == POROUS_MEDIUM:
            if self.m is None or not self.m > 1.0:
                raise ValueError("porous_medium requires m > 1")
        else:
            lo = 1.0 - 2.0 / (d + 2.0)
            if self.m is None or not (lo < self.m < 1.0):
                raise ValueError(
                    f"fast_diffusion requires m in ({lo}, 1) for d={d}"
                )

    @staticmethod
    def heat(dimension_hint: int = 1) -> "EnergyFamily":
        return EnergyFamily(HEAT, None, dimension_hint)

    @staticmethod
    def porous_medium(m: float, dimension_hint: int = 1) -> "EnergyFamily":
        return EnergyFamily(POROUS_MEDIUM, float(m), dimension_hint)

    @staticmethod
    def fast_diffusion(m: float, dimension_hint: int = 1) -> "EnergyFamily":
        return EnergyFamily(FAST_DIFFUSION, float(m), dimension_hint)

    @staticmethod
    def height_constraint(dimension_hint: int = 1) -> "EnergyFamily":
        return EnergyFamily(HEIGHT_CONSTRAINT, None, dimension_hint)


@dataclass(frozen=True)
class RegularizedEnergy:
    """An energy family together with delta, its quadratic/envelope scale."""

    family: EnergyFamily
    delta: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError("delta must be a positive finite real")

    # both read J_delta(0) from _prox_at_zero, so they share its one solve
    @cached_property
    def moreau_zero(self) -> float:
        return float(moreau_value(self.family, self.delta, 0.0))

    @cached_property
    def derivative_at_zero(self) -> float:
        return float(reg_derivative(self, 0.0))

    @cached_property
    def lipschitz_of_derivative(self) -> float:
        # curvature of f_reg lies in [delta, delta + 1/delta]
        return self.delta + 1.0 / self.delta


def _prepare(a):
    arr = np.asarray(a, dtype=float)
    return arr, arr.ndim == 0


def _finish(arr: np.ndarray, scalar: bool):
    return float(arr) if scalar else arr


def _newton_bisect(g_and_gp, lo, hi, scale, max_iter: int = 200, tol: float = 1e-12):
    """Vectorized safeguarded Newton for increasing g with a root in [lo, hi].

    Falls back to bisection whenever the Newton candidate leaves the bracket.
    Accepts a lane when |g| <= tol*scale or when the bracket has collapsed to
    floating-point resolution. Raises ConvergenceError otherwise.
    """
    lo = np.array(lo, dtype=float, copy=True)
    hi = np.array(hi, dtype=float, copy=True)
    accept = tol * np.broadcast_to(scale, lo.shape)
    b = 0.5 * (lo + hi)
    done = np.zeros(lo.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            g, gp = g_and_gp(b)
            done |= np.abs(g) <= accept
            done |= (hi - lo) <= 1e-15 * (np.abs(b) + 1e-300)
            if done.all():
                return b
            live = ~done
            above = g > 0.0
            np.minimum(hi, b, out=hi, where=above & live)
            np.maximum(lo, b, out=lo, where=~above & live)
            # NaN and +-inf candidates fail both comparisons
            cand = b - g / gp
            inside = (cand > lo) & (cand < hi)
            np.copyto(b, np.where(inside, cand, 0.5 * (lo + hi)), where=live)
    raise ConvergenceError(
        f"root solve missed tolerance {tol} on {int((~done).sum())} lane(s) "
        f"after {max_iter} iterations"
    )


def xlogx(x):
    """x log x elementwise, with 0 log 0 = 0."""
    x = np.asarray(x, dtype=float)
    zero = x == 0.0
    return np.where(zero, 0.0, x * np.log(np.where(zero, 1.0, x)))


def energy_value(family: EnergyFamily, a):
    """f(a), with +inf outside the effective domain: negative a, and a above
    the height cap."""
    arr, scalar = _prepare(a)
    k = family.kind
    neg = arr < 0.0
    safe = np.where(neg, 0.0, arr)
    if k == HEAT:
        val = xlogx(safe) - safe
    elif k in (POROUS_MEDIUM, FAST_DIFFUSION):
        m = family.m
        with np.errstate(all="ignore"):
            val = safe**m / (m - 1.0)
        val = np.where(safe == 0.0, 0.0, val)
    else:
        val = np.zeros_like(safe)
        neg = neg | (arr > 1.0)
    return _finish(np.where(neg, INF, val), scalar)


def _energy_derivative(family: EnergyFamily, b):
    """f'(b) on the interior of the domain. b must be positive for the
    power-law and log families."""
    k = family.kind
    if k == HEAT:
        return np.log(b)
    if k in (POROUS_MEDIUM, FAST_DIFFUSION):
        m = family.m
        return m / (m - 1.0) * b ** (m - 1.0)
    return np.zeros_like(np.asarray(b, dtype=float))


def _stationary(family: EnergyFamily, alpha: float, beta: float, r):
    """The j >= 0 with alpha j + beta f'(j) = r, lane-wise over a flat r.

    Both maps of f_reg solve this one monotone equation: the prox J_delta(a)
    with (alpha, beta, r) = (1, delta, a), and the proximal variable of
    (f_reg*)'(b) with (delta, 1 + delta^2, b). Power laws write it as
    alpha j + c j^(m-1) = r with c = beta m / (m - 1), negative for fast
    diffusion. Solved by _newton_bisect on a bracket holding the root.
    """
    if family.kind == HEAT:

        def g_heat(j):
            return alpha * j + beta * np.log(j) - r, alpha + beta / j

        # for r >= 0 the root lies in [0, max(1, r / alpha)]. For r < 0 it
        # lies in (0, 1) and can sit far below what halving reaches: there
        # log j = (r - alpha j) / beta brackets it by exp((r - alpha) / beta)
        # and exp(r / beta), and since beta + alpha lo <= j g'(j) on that
        # bracket, |g| <= tol (beta + alpha lo) holds j to relative error tol
        neg, r_neg = r < 0.0, np.minimum(r, 0.0)
        lo = np.where(neg, np.exp((r_neg - alpha) / beta), 0.0)
        hi = np.where(neg, np.exp(r_neg / beta), np.maximum(1.0, r / alpha))
        scale = np.where(neg, beta + alpha * lo, np.maximum(1.0, r))
        return _newton_bisect(g_heat, lo, hi, scale)

    m = family.m
    c = beta * m / (m - 1.0)
    if family.kind == POROUS_MEDIUM:
        live = r > 0.0  # the root is 0 where r <= 0
        lo, hi = np.zeros_like(r), r / alpha
    else:  # fast diffusion: (-c / alpha)^(1 / (2 - m)) is the root at r = 0
        live = slice(None)
        lo = np.full_like(r, 1e-300)
        hi = np.maximum(r, 0.0) / alpha + (-c / alpha) ** (1.0 / (2.0 - m))
    rhs = r[live]

    def g_power(j):
        return alpha * j + c * j ** (m - 1.0) - rhs, alpha + c * (m - 1.0) * j ** (m - 2.0)

    out = np.zeros_like(r)
    scale = np.maximum(1.0, np.abs(rhs))
    out[live] = _newton_bisect(g_power, lo[live], hi[live], scale)
    return out


@lru_cache(maxsize=None)
def _prox_at_zero(family: EnergyFamily, delta: float) -> float:
    """J_delta(0), solved once per (family, delta) as a one-lane _stationary
    solve. Each lane of a solve runs its own elementwise arithmetic, so this
    is bit for bit the value a zero lane of any larger solve reaches."""
    return float(_stationary(family, 1.0, delta, np.zeros(1))[0])


def prox(family: EnergyFamily, delta: float, a):
    """Proximal point J_delta(a) = argmin_b f(b) + (b - a)^2 / (2 delta).

    The height constraint clips to [0, 1]; the other families solve their
    stationarity condition with _stationary on the lanes with a != 0 only.
    Lanes with a == 0, the grid nodes no particle reaches, take J_delta(0)
    from _prox_at_zero, the value their own solve would reach.
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    arr, scalar = _prepare(a)
    if family.kind == HEIGHT_CONSTRAINT:
        return _finish(np.clip(arr, 0.0, 1.0), scalar)
    flat = arr.ravel()
    live = flat != 0.0
    out = np.full_like(flat, _prox_at_zero(family, float(delta)))
    if live.any():
        out[live] = _stationary(family, 1.0, delta, flat[live])
    return _finish(out.reshape(arr.shape), scalar)


def moreau_value(family: EnergyFamily, delta: float, a, j=None):
    """Moreau envelope env_delta(a) = f(J) + (a - J)^2 / (2 delta), with
    J = J_delta(a) solved here unless the caller passes it as j."""
    arr, scalar = _prepare(a)
    j = np.asarray(prox(family, delta, arr) if j is None else j)
    val = energy_value(family, j) + (arr - j) ** 2 / (2.0 * delta)
    return _finish(val, scalar)


def reg_value(reg: RegularizedEnergy, a, j=None):
    """f_reg(a) for a >= 0, +inf for a < 0. Normalized so f_reg(0) = 0.

    j, when given, is the prox point J_delta(a) that reg_derivative wrote
    for the same a; the envelope then reuses it instead of solving again.
    """
    arr, scalar = _prepare(a)
    neg = arr < 0.0
    safe = np.where(neg, 0.0, arr)
    env = np.asarray(moreau_value(reg.family, reg.delta, safe, j))
    val = 0.5 * reg.delta * safe**2 + env - reg.moreau_zero
    out = np.where(neg, INF, val)
    return _finish(out, scalar)


def reg_derivative(reg: RegularizedEnergy, a, prox_out=None):
    """f_reg'(a) = delta a + (a - J_delta(a)) / delta, for a >= 0.

    Smooth with curvature in [delta, delta + 1/delta]; in particular strictly
    increasing, so it admits a global inverse used by the conjugate. An
    array prox_out of a's shape receives J_delta(a), for reg_value's j.
    """
    arr, scalar = _prepare(a)
    if (arr < 0.0).any():
        raise ValueError("reg_derivative is defined on [0, inf)")
    j = np.asarray(prox(reg.family, reg.delta, arr))
    if prox_out is not None:
        prox_out[...] = j
    out = reg.delta * arr + (arr - j) / reg.delta
    return _finish(out, scalar)


def reg_conjugate_derivative(reg: RegularizedEnergy, b):
    """(f_reg*)'(b): the unique a >= 0 with f_reg'(a) = b, or 0 when
    b <= f_reg'(0).

    Inverted through the proximal variable: with j = J_delta(a) the pair
    satisfies a = j + delta f'(j) and b = delta a + f'(j), so j solves the
    equation of _stationary with alpha = delta and beta = 1 + delta^2. The
    height constraint inverts its piecewise-linear derivative directly.
    """
    arr, scalar = _prepare(b)
    delta = reg.delta

    if reg.family.kind == HEIGHT_CONSTRAINT:
        # f_reg'(a) = delta a on [0,1], then slope delta + 1/delta
        inner = arr / delta
        outer = (delta * arr + 1.0) / (delta * delta + 1.0)
        out = np.where(arr <= 0.0, 0.0, np.where(arr <= delta, inner, outer))
        return _finish(out, scalar)

    flat = arr.ravel()
    act = flat > reg.derivative_at_zero
    out = np.zeros_like(flat)
    if act.any():
        j = _stationary(reg.family, delta, 1.0 + delta * delta, flat[act])
        out[act] = j + delta * _energy_derivative(reg.family, j)
    return _finish(out.reshape(arr.shape), scalar)


def reg_conjugate(reg: RegularizedEnergy, b):
    """Legendre conjugate f_reg*(b) = sup_{a>=0} ab - f_reg(a).

    Evaluated at the maximizer a* = (f_reg*)'(b); nonnegative and
    nondecreasing by construction.
    """
    arr, scalar = _prepare(b)
    astar = np.asarray(reg_conjugate_derivative(reg, arr))
    val = astar * arr - np.asarray(reg_value(reg, astar))
    out = np.maximum(val, 0.0)
    return _finish(out, scalar)


def h1_density_quadrature(family: EnergyFamily, a):
    """The e-density e(a) = int_0^a (s f'(s) - f(s))' ds, +inf outside dom(f),
    from its integral form a f(a) - 2 int_0^a f.

    int_0^a f is the Gauss-Legendre rule of kernel_norms on 60 panels, [0,
    a 2^-59] and [a 2^-k, a 2^(1-k)] for k = 59..1, for all lanes at once.
    A route that needs no closed form; the closed forms it is checked against
    are a^2/2 (heat), a^(m+1)/(m+1) (power laws) and 0 (height)."""
    arr, scalar = _prepare(a)
    flat = arr.ravel()
    f_a = np.asarray(energy_value(family, flat))
    out = np.where(np.isfinite(f_a), 0.0, f_a)
    live = (flat > 0.0) & np.isfinite(f_a)
    if live.any():
        breaks = flat[live][:, None] * np.append(0.0, 0.5 ** np.arange(59.0, -1.0, -1.0))
        lo, hi = breaks[:, :-1], breaks[:, 1:]
        half = 0.5 * (hi - lo)
        nodes = (0.5 * (lo + hi))[..., None] + half[..., None] * _PANEL_NODES
        tail = np.sum(half * (energy_value(family, nodes) @ _PANEL_WEIGHTS), axis=1)
        out[live] = flat[live] * f_a[live] - 2.0 * tail
    return _finish(out.reshape(arr.shape), scalar)
