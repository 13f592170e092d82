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

    kind  one of heat, porous_medium, fast_diffusion, height_constraint
    m     exponent: > 1 for porous_medium, in (0, 1) for fast_diffusion, else None
    """

    kind: str
    m: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown energy family kind {self.kind!r}")
        if self.kind in (HEAT, HEIGHT_CONSTRAINT):
            if self.m is not None:
                raise ValueError(f"{self.kind} takes no exponent")
        elif self.kind == POROUS_MEDIUM:
            if self.m is None or not self.m > 1.0:
                raise ValueError("porous_medium requires m > 1")
        elif self.m is None or not 0.0 < self.m < 1.0:
            raise ValueError("fast_diffusion requires m in (0, 1)")

    def check_dimension(self, d: int) -> None:
        """Refuse a flow in dimension d unless d is a positive integer and a
        fast-diffusion m exceeds 1 - 2/(d + 2); whoever knows d calls this."""
        if not (isinstance(d, int) and d >= 1):
            raise ValueError("dimension must be a positive integer")
        lo = 1.0 - 2.0 / (d + 2.0)
        if self.kind == FAST_DIFFUSION and not self.m > lo:
            raise ValueError(f"fast_diffusion requires m in ({lo}, 1) for d={d}")

    @staticmethod
    def heat() -> "EnergyFamily":
        return EnergyFamily(HEAT)

    @staticmethod
    def porous_medium(m: float) -> "EnergyFamily":
        return EnergyFamily(POROUS_MEDIUM, float(m))

    @staticmethod
    def fast_diffusion(m: float) -> "EnergyFamily":
        return EnergyFamily(FAST_DIFFUSION, float(m))

    @staticmethod
    def height_constraint() -> "EnergyFamily":
        return EnergyFamily(HEIGHT_CONSTRAINT)


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

    Runs in a fixed set of lane buffers: the bracket, the iterate (returned),
    the tolerance, two scratch arrays and four masks, every per-iteration
    temporary written into one of them with out=. Float arrays lo and hi are
    taken over as the bracket and overwritten, so callers pass fresh ones.
    g_and_gp(b) returns (g, g') at the iterate; the solve only reads them.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    accept = np.multiply(tol, np.broadcast_to(scale, lo.shape))
    b = np.add(lo, hi)
    b *= 0.5
    s1, s2 = np.empty_like(b), np.empty_like(b)
    done, live, m1, m2 = (np.zeros(lo.shape, dtype=bool) for _ in range(4))
    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            g, gp = g_and_gp(b)
            # done |= |g| <= accept, and where (hi - lo) <= 1e-15 (|b| + 1e-300)
            done |= np.less_equal(np.abs(g, out=s1), accept, out=m1)
            np.abs(b, out=s2)
            s2 += 1e-300
            s2 *= 1e-15
            done |= np.less_equal(np.subtract(hi, lo, out=s1), s2, out=m1)
            if done.all():
                return b
            np.logical_not(done, out=live)
            np.greater(g, 0.0, out=m1)
            np.minimum(hi, b, out=hi, where=np.logical_and(m1, live, out=m2))
            np.logical_not(m1, out=m1)
            np.maximum(lo, b, out=lo, where=np.logical_and(m1, live, out=m2))
            # the candidate b - g / g' in s1; NaN and +-inf fail both
            # comparisons, and those lanes take the midpoint in s2
            np.subtract(b, np.divide(g, gp, out=s1), out=s1)
            np.logical_and(np.greater(s1, lo, out=m1), np.less(s1, hi, out=m2), out=m1)
            np.add(lo, hi, out=s2)
            s2 *= 0.5
            np.copyto(s2, s1, where=m1)
            np.copyto(b, s2, where=live)
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
    diffusion. Solved by _newton_bisect on a fresh bracket holding the root,
    which the solve takes over; the residual g and its slope g' are formed
    in two lane buffers kept for the solve, by the operations of the plain
    expressions in their order.
    """
    if family.kind == HEAT:
        g, gp = np.empty_like(r), np.empty_like(r)

        def g_heat(j, g=g, gp=gp):
            # alpha j + beta log j - r and alpha + beta / j
            np.log(j, out=g)
            g *= beta
            g += np.multiply(alpha, j, out=gp)
            g -= r
            np.divide(beta, j, out=gp)
            gp += alpha
            return g, gp

        # for r >= 0 the root lies in [0, max(1, r / alpha)]. For r < 0 it
        # lies in (0, 1) and can sit far below what halving reaches: there
        # log j = (r - alpha j) / beta brackets it by exp((r - alpha) / beta)
        # and exp(r / beta), and since beta + alpha lo <= j g'(j) on that
        # bracket, |g| <= tol (beta + alpha lo) holds j to relative error tol
        neg, r_neg = r < 0.0, np.minimum(r, 0.0)
        lo = np.where(neg, np.exp((r_neg - alpha) / beta), 0.0)
        hi = np.where(neg, np.exp(r_neg / beta), np.maximum(1.0, r / alpha))
        scale = np.where(neg, beta + alpha * lo, np.maximum(1.0, r))
        del r_neg  # a lane array the solve does not read
        return _newton_bisect(g_heat, lo, hi, scale)

    m = family.m
    c = beta * m / (m - 1.0)
    if family.kind == POROUS_MEDIUM:
        live = r > 0.0  # the root is 0 where r <= 0
        rhs = r[live]
        # alpha j and c j^(m-1) are both >= 0, so the root lies below each bound
        with np.errstate(over="ignore"):
            lo, hi = np.zeros_like(rhs), np.minimum(rhs / alpha, (rhs / c) ** (1.0 / (m - 1.0)))
    else:  # fast diffusion: (-c / alpha)^(1 / (2 - m)) is the root at r = 0
        live = slice(None)
        rhs = r
        lo = np.full_like(r, 1e-300)
        hi = np.maximum(r, 0.0) / alpha + (-c / alpha) ** (1.0 / (2.0 - m))
    g, gp = np.empty_like(rhs), np.empty_like(rhs)

    def g_power(j, g=g, gp=gp):
        # alpha j + c j^(m-1) - rhs and alpha + c (m-1) j^(m-2); ** in place
        # takes the fast paths of ** (sqrt, square, ...) for the same bits
        np.copyto(g, j)
        g **= m - 1.0
        g *= c
        g += np.multiply(alpha, j, out=gp)
        g -= rhs
        np.copyto(gp, j)
        gp **= m - 2.0
        gp *= c * (m - 1.0)
        gp += alpha
        return g, gp

    scale = np.maximum(1.0, np.abs(rhs))
    j = _newton_bisect(g_power, lo, hi, scale)
    out = np.zeros_like(r)
    out[live] = j
    return out


@lru_cache(maxsize=None)
def _prox_at_zero(family: EnergyFamily, delta: float) -> float:
    """J_delta(0), solved once per (family, delta) as a one-lane _stationary
    solve. Each lane of a solve runs its own elementwise arithmetic, so this
    is bit for bit the value a zero lane of any larger solve reaches."""
    return float(_stationary(family, 1.0, delta, np.zeros(1))[0])


def prox(family: EnergyFamily, delta: float, a, out=None):
    """Proximal point J_delta(a) = argmin_b f(b) + (b - a)^2 / (2 delta).

    The height constraint clips to [0, 1]; the other families solve their
    stationarity condition with _stationary on the lanes with a != 0 only.
    Lanes with a == 0, the grid nodes no particle reaches, take J_delta(0)
    from _prox_at_zero, the value their own solve would reach. An array out
    of a's shape receives J and is returned.
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    arr, scalar = _prepare(a)
    if family.kind == HEIGHT_CONSTRAINT:
        return _finish(np.clip(arr, 0.0, 1.0, out=out), scalar)
    j = np.empty(arr.shape) if out is None else out
    j[...] = _prox_at_zero(family, float(delta))
    live = arr != 0.0
    if live.any():
        j[live] = _stationary(family, 1.0, delta, arr[live])
    return _finish(j, scalar)


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
    j = np.asarray(prox(reg.family, reg.delta, arr, out=prox_out))
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
