"""Mollifier kernels and mollified particle densities.

Two kernel shapes: a Gaussian truncated to the cube max_a |x_a| <= R,
R = GAUSSIAN_CUT * eps, so that it is a product of per-axis factors, and a
compactly supported polynomial bump (1 - |x/eps|^2)_+^q. Both are even,
nonnegative densities scaled as eps^-d * shape(x / eps). The bump has unit
mass; the Gaussian is not renormalized after the cut and keeps the mass
erf(R / sqrt 2)^d, within 6.1e-15 of 1 up to d = 5. Field evaluation
against a particle cloud is chunked, with summation always along the
particle axis in index order so reruns are bit-identical. mollified_density
evaluates at arbitrary points by a dense sum. QuadratureGrid is the one
cell-centred tensor grid of the package, for the stage fields, the 2d W1
atoms and the steady states; GridWindow does the dense sum on its nodes, and
its transpose back to the particles, over each particle's kernel stencil
only; in d = 2 it runs the Gaussian as per-axis factors. What a window
takes from the grid and kernel alone, its WindowLayout, is built once per
grid and kernel and kept on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

GAUSSIAN = "gaussian"
BUMP = "bump"

# the Gaussian's cut, in epsilons
GAUSSIAN_CUT = 8.0

# fixed chunk budgets keep the summation order independent of problem size
_VALUE_BLOCK = 2**23
_WINDOW_BLOCK = 2**17
# particles per block of the separable (per-axis factor) path
_FACTOR_BLOCK = 64

# 40-point Gauss-Legendre rule on [-1, 1] for the panels of kernel_norms and
# convex_energy.h1_density_quadrature: the positive half of
# numpy.polynomial.legendre.leggauss(40), whose output is exactly symmetric,
# frozen so that no import runs its LAPACK eigensolve
_HALF_RULE = np.array([
    (0.038772417506050816, 0.07750594797842451),
    (0.11608407067525521, 0.07703981816424763),
    (0.1926975807013711, 0.07611036190062598),
    (0.2681521850072537, 0.07472316905796794),
    (0.3419940908257585, 0.07288658239580377),
    (0.413779204371605, 0.07061164739128656),
    (0.4830758016861787, 0.06791204581523368),
    (0.5494671250951282, 0.06480401345660076),
    (0.6125538896679802, 0.061306242492928834),
    (0.6719566846141796, 0.05743976909939129),
    (0.7273182551899271, 0.0532278469839367),
    (0.7783056514265194, 0.04869580763507193),
    (0.8246122308333117, 0.04387090818567321),
    (0.8659595032122595, 0.03878216797447219),
    (0.9020988069688742, 0.03346019528254789),
    (0.9328128082786765, 0.027937006980023434),
    (0.9579168192137917, 0.022245849194166653),
    (0.9772599499837743, 0.016421058381906828),
    (0.990726238699457, 0.010498284531153814),
    (0.9982377097105591, 0.004521277098536349),
])
_PANEL_NODES = np.concatenate([-_HALF_RULE[::-1, 0], _HALF_RULE[:, 0]])
_PANEL_WEIGHTS = np.concatenate([_HALF_RULE[::-1, 1], _HALF_RULE[:, 1]])


def _surface_area(d: int) -> float:
    """Surface measure of the unit sphere in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def _beta(a: float, b: float) -> float:
    """B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b) for a, b > 0."""
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


@lru_cache(maxsize=None)
def _bump_constant(d: int, order: int) -> float:
    """Normalizing constant c with c * int_{|u|<=1} (1-|u|^2)^q du = 1; the
    radial integral int_0^1 r^(d-1) (1-r^2)^q dr is B(d/2, q+1)/2."""
    return 1.0 / (_surface_area(d) * _beta(d / 2.0, order + 1.0) / 2.0)


@dataclass(frozen=True)
class MollifierKernel:
    """A scaled radial kernel.

    kind        gaussian | bump
    epsilon     length scale
    order       bump exponent q >= 3 (C^2 smoothness), unused for gaussian

    The Gaussian is supported on the cube max_a |x_a| <= GAUSSIAN_CUT *
    epsilon, with an exact zero outside, so that it is a product of per-axis
    factors (in d = 1 the cube is an interval); the bump is supported on the
    ball |x| <= epsilon.
    """

    kind: str
    epsilon: float
    order: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (GAUSSIAN, BUMP):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if not (np.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError("epsilon must be a positive finite real")
        if self.kind == BUMP:
            if self.order is None or self.order < 3:
                raise ValueError("bump kernels need integer order >= 3")

    @staticmethod
    def gaussian(epsilon: float) -> "MollifierKernel":
        return MollifierKernel(GAUSSIAN, float(epsilon))

    @staticmethod
    def bump(epsilon: float, order: int = 4) -> "MollifierKernel":
        return MollifierKernel(BUMP, float(epsilon), int(order))

    @property
    def support_radius(self) -> float:
        if self.kind == GAUSSIAN:
            return GAUSSIAN_CUT * self.epsilon
        return self.epsilon


def _amplitude(k: MollifierKernel, d: int) -> float:
    if k.kind == GAUSSIAN:
        return (2.0 * math.pi) ** (-d / 2.0) * k.epsilon ** (-d)
    return _bump_constant(d, k.order) * k.epsilon ** (-d)


def _radial_terms(k: MollifierKernel, d: int, r2, order: int = 0, sup2=None) -> tuple:
    """The one definition of each kernel profile: phi_eps as a function of
    r2 = |x|^2 in R^d, then, up to the given order, the factor c with
    grad phi_eps(x) = c x and its derivative dc/d(r2).

    sup2 = max_a x_a^2 places the point against the truncated Gaussian's
    cube support; left out, the point is taken on a coordinate axis
    (sup2 = r2), as the radial profile is."""
    eps2 = k.epsilon * k.epsilon
    amp = _amplitude(k, d)
    if k.kind == GAUSSIAN:
        cut = k.support_radius
        inside = (r2 if sup2 is None else sup2) <= cut * cut
        # written in place; NaN fails the comparison and gets 0, as inf does
        val = np.asarray(amp * np.exp(-0.5 * r2 / eps2))
        np.copyto(val, 0.0, where=~inside)
        terms = (lambda: val, lambda: -val / eps2, lambda: val / (2.0 * eps2 * eps2))
    else:
        q = k.order
        u2 = r2 / eps2
        core = np.asarray(1.0 - u2)
        np.copyto(core, 0.0, where=~(u2 < 1.0))
        terms = (
            lambda: amp * core**q,
            lambda: amp * q * core ** (q - 1) * (-2.0 / eps2),
            lambda: amp * q * (q - 1) * core ** (q - 2) * (2.0 / (eps2 * eps2)),
        )
    return tuple(term() for term in terms[: order + 1])


def _terms_at(k: MollifierKernel, x, order: int) -> tuple:
    """_radial_terms at the points x, shape (..., d)."""
    x = np.asarray(x, dtype=float)
    if x.ndim < 1:
        raise ValueError("points must have an explicit spatial axis")
    r2 = np.einsum("...i,...i->...", x, x)
    return _radial_terms(k, x.shape[-1], r2, order, (x * x).max(axis=-1))


def kernel_value(k: MollifierKernel, x):
    """phi_eps(x) for points in the last axis: x has shape (..., d)."""
    return _terms_at(k, x, 0)[0]


def kernel_gradient(k: MollifierKernel, x):
    """grad phi_eps(x), shape (..., d)."""
    x = np.asarray(x, dtype=float)
    return x * _terms_at(k, x, 1)[1][..., None]


def _positions(particles) -> np.ndarray:
    pos = getattr(particles, "positions", particles)
    pos = np.asarray(pos, dtype=float)
    if pos.ndim != 2:
        raise ValueError("particle positions must have shape (N, d)")
    return pos


def mollified_density(particles, k: MollifierKernel, points):
    """(phi_eps * rho^N)(points): mean of kernel translates, shape (Q,)."""
    pos = _positions(particles)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != pos.shape[1]:
        raise ValueError("query points must have shape (Q, d) matching particles")
    n = pos.shape[0]
    out = np.empty(pts.shape[0])
    step = max(1, _VALUE_BLOCK // max(n, 1))
    for s in range(0, pts.shape[0], step):
        block = pts[s : s + step]  # (q, d)
        diff = block[None, :, :] - pos[:, None, :]  # (N, q, d)
        out[s : s + step] = kernel_value(k, diff).sum(axis=0) / n
    return out


@dataclass(frozen=True)
class QuadratureGrid:
    """Cell-centred tensor-product midpoint grid: the box lo..hi cut into
    shape[a] equal cells along axis a.

    spacing holds the cell widths and axes the cell centres along each
    axis; nodes are their product, flattened in C order, and are built only
    when read; cell is the midpoint weight h_1 * ... * h_d.
    """

    lo: np.ndarray
    hi: np.ndarray
    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        shape = tuple(int(c) for c in self.shape)
        if lo.ndim != 1 or lo.shape != hi.shape or lo.size != len(shape):
            raise ValueError("grid endpoints must have one entry per axis of the shape")
        if not np.all(np.isfinite(lo) & np.isfinite(hi) & (hi > lo)):
            raise ValueError("the grid box needs a positive finite extent along every axis")
        if min(shape) < 1:
            raise ValueError("each grid axis needs at least one cell")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "shape", shape)

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def node_count(self) -> int:
        return math.prod(self.shape)

    @cached_property
    def spacing(self) -> np.ndarray:
        return (self.hi - self.lo) / np.array(self.shape)

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        return tuple(
            self.lo[a] + self.spacing[a] * (np.arange(n) + 0.5) for a, n in enumerate(self.shape)
        )

    @cached_property
    def nodes(self) -> np.ndarray:
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.column_stack([m.ravel() for m in mesh])

    @property
    def cell(self) -> float:
        return float(np.prod(self.spacing))

    @cached_property
    def _layouts(self) -> dict:
        return {}

    def window_layout(self, k: MollifierKernel) -> "WindowLayout":
        """The WindowLayout of kernel k on this grid, built on first use and
        kept with the grid, so every window on it shares one."""
        layout = self._layouts.get(k)
        if layout is None:
            layout = self._layouts[k] = WindowLayout(k, self)
        return layout

    def covers(self, points: np.ndarray, slack: float = 0.0) -> bool:
        return bool(
            np.all(points >= self.lo + slack) and np.all(points <= self.hi - slack)
        )

    def interior_mask(self) -> np.ndarray:
        """Boolean mask of nodes not on any axis boundary."""
        mask = np.ones(self.shape, dtype=bool)
        for ax in range(self.dim):
            index = [slice(None)] * self.dim
            index[ax] = 0
            mask[tuple(index)] = False
            index[ax] = -1
            mask[tuple(index)] = False
        return mask.ravel()


class WindowLayout:
    """Everything a GridWindow takes from its grid and kernel alone, built
    once per pair by QuadratureGrid.window_layout.

    widths[a] is the box of nodes along axis a that holds one particle's
    support, with one node of slack at each end to absorb rounding in the
    index arithmetic (entries past the support get an exact zero weight).
    first holds the first node of each axis, for the box starts. The
    separable layout (the Gaussian in d = 2) needs nothing more. Every
    other layout indexes the grid extended by a halo of widths[a] nodes at
    both ends of axis a, so that no box is clipped:

    - halo_shape, crop (the grid inside the halo) and top, the largest box
      start: a start clamped to [0, top] puts a box that misses the grid
      wholly in the halo;
    - step, the particles per chunk, at most _WINDOW_BLOCK pairs;
    - axis_windows[a], the sliding windows of width widths[a] over the
      haloed axis a, whose coordinates are the grid's bit for bit on the
      grid's nodes, so row s holds the nodes of a box starting at s, and
      axis_shapes[a], the shape that broadcasts rows of it along axis a;
    - box_flat, the flat haloed index of every node of a box against its
      first node, and strides, the flat index steps along each axis;
    - padded, a haloed buffer with zeros in the halo, and padded_windows,
      its sliding windows of shape widths: gather() writes the weights
      into the crop and reads every box from padded_windows.
    """

    def __init__(self, k: MollifierKernel, grid: QuadratureGrid):
        spacing = grid.spacing
        self.widths = tuple(int(w) for w in np.ceil(2.0 * k.support_radius / spacing) + 4)
        self.first = np.array([a[0] for a in grid.axes])
        self.separable = k.kind == GAUSSIAN and grid.dim == 2
        if self.separable:
            return
        shape, widths = grid.shape, self.widths
        self.halo_shape = tuple(c + 2 * w for c, w in zip(shape, widths))
        self.crop = tuple(slice(w, w + c) for c, w in zip(shape, widths))
        self.top = np.array(shape) + widths
        self.step = max(1, _WINDOW_BLOCK // math.prod(widths))
        self.axis_windows = tuple(
            sliding_window_view(grid.lo[a] + spacing[a] * (np.arange(-w, c + w) + 0.5), w)
            for a, (c, w) in enumerate(zip(shape, widths))
        )
        self.axis_shapes = tuple(
            (-1,) + tuple(w if b == a else 1 for b, w in enumerate(widths)) for a in range(grid.dim)
        )
        self.strides = np.array([math.prod(self.halo_shape[a + 1 :]) for a in range(grid.dim)])
        ramps = np.meshgrid(*(np.arange(w) for w in widths), indexing="ij")
        self.box_flat = sum(r * st for r, st in zip(ramps, self.strides.tolist()))
        self.padded = np.zeros(self.halo_shape)
        self.padded_windows = sliding_window_view(self.padded, widths)


class GridWindow:
    """The kernel stencil of a particle cloud on a QuadratureGrid.

    Nodes are numbered in C order of the grid's axis product. Particle i
    touches only the nodes within support_radius of it along every axis,
    which lie in a box of widths[a] nodes along axis a starting at node
    start[i, a]. The kernel is evaluated on these boxes once, at
    construction; scatter() and gather() then reuse it, so the work grows
    with N times the stencil and not with N times the grid (particle-mesh
    layout; Hockney & Eastwood, Computer Simulation Using Particles).
    What depends on the grid and kernel alone comes from the grid's
    WindowLayout, shared by every window on that grid. There are two
    layouts:

    - The Gaussian in d = 2 is a product of per-axis factors, the
      fast-Gauss-transform observation (Greengard & Strain, SIAM J. Sci.
      Stat. Comput. 12, 1991). The particles, stably sorted by their axis-0
      start, are cut into blocks of _FACTOR_BLOCK. A block keeps, along each
      axis, the band of nodes its boxes cover and on it the factors
      phi1(y_g - x_ia) and phi1'(x_ia - y_g): 16 bytes per particle and
      band node of each axis. scatter() and gather() are einsum
      contractions of these factors with the band of the grid, never BLAS
      products, whose summation order can change with the thread count.
    - Every other kernel and dimension, d = 1 included, keeps the window
      itself on the haloed grid: the box starts, the flat node index, the
      offsets, the value and the gradient factor of every (particle, node)
      pair in the boxes, about 24 bytes per pair whatever the size of the
      grid, in fixed chunks of at most _WINDOW_BLOCK pairs. The offsets
      and gather()'s weights are read as rows of the layout's sliding
      windows at the box starts; scatter() adds the values at the flat
      index and crops the halo.

    Either way the blocks and chunks are fixed by the cloud alone, so every
    summation order is too.
    """

    def __init__(self, k: MollifierKernel, particles, grid: QuadratureGrid):
        pos = _positions(particles)
        if grid.dim != pos.shape[1]:
            raise ValueError("the grid dimension must match the particle dimension")
        layout = grid.window_layout(k)
        self.kernel = k
        self.positions = pos
        self.grid = grid
        self.shape = grid.shape
        self.widths = layout.widths
        self._layout = layout
        self.start = (
            np.floor((pos - k.support_radius - layout.first) / grid.spacing).astype(np.intp) - 1
        )
        n = pos.shape[0]
        if layout.separable:
            order = np.argsort(self.start[:, 0], kind="stable")
            self._parts = [
                self._factor_block(order[s : s + _FACTOR_BLOCK]) for s in range(0, n, _FACTOR_BLOCK)
            ]
        else:
            self._halo_start = np.clip(self.start + self.widths, 0, layout.top)
            self._parts = [
                self._chunk(slice(s, min(s + layout.step, n))) for s in range(0, n, layout.step)
            ]

    @property
    def node_count(self) -> int:
        return self.grid.node_count

    def _factor_block(self, rows: np.ndarray):
        """For the particles in rows: the band of nodes along each axis that
        holds all their boxes, clipped to the grid, and on it the kernel
        factors phi1(y_g - x_ia) and derivative factors phi1'(x_ia - y_g),
        shaped (len(rows), band)."""
        bands, val, der = [], [], []
        for a, nodes in enumerate(self.grid.axes):
            lo = max(int(self.start[rows, a].min()), 0)
            hi = min(int(self.start[rows, a].max()) + self.widths[a], self.shape[a])
            off = nodes[lo:hi] - self.positions[rows, a, None]
            v, c = _radial_terms(self.kernel, 1, off * off, 1)
            bands.append(slice(lo, hi))
            val.append(v)
            # phi1'(t) = c(t^2) t, and t = x - y = -offset
            der.append(-c * off)
        return rows, tuple(bands), val, der

    def _chunk(self, rows: slice):
        """For the particles in rows: their box starts on the haloed grid,
        one index array per axis; the flat haloed index of every window
        entry; the node-minus-particle offsets along each axis; and the
        kernel value and gradient factor, shaped (chunk, widths...) or
        broadcast to it."""
        layout = self._layout
        d = len(self.shape)
        starts = self._halo_start[rows]
        box = (-1,) + (1,) * d
        flat = (starts @ layout.strides).reshape(box) + layout.box_flat
        offsets = [
            (layout.axis_windows[a][starts[:, a]] - self.positions[rows, a, None]).reshape(
                layout.axis_shapes[a]
            )
            for a in range(d)
        ]
        r2 = sup2 = offsets[0] * offsets[0]
        for off in offsets[1:]:
            sq = off * off
            r2 = r2 + sq
            sup2 = np.maximum(sup2, sq)
        val, fac = _radial_terms(self.kernel, d, r2, 1, sup2)
        return rows, tuple(starts.T), flat.ravel(), offsets, val, fac

    def scatter(self) -> np.ndarray:
        """(phi_eps * rho^N) at every node, shape (G,): the values of
        mollified_density(particles, k, nodes). Each node's contributions
        are added block by block, or in particle order by np.bincount."""
        if self._layout.separable:
            out = np.zeros(self.shape)
            for _, bands, val, _ in self._parts:
                out[bands] += np.einsum("ia,ib->ab", *val)
        else:
            halo_shape = self._layout.halo_shape
            out = np.zeros(math.prod(halo_shape))
            for _, _, flat, _, val, _ in self._parts:
                out += np.bincount(flat, weights=val.ravel(), minlength=out.size)
            out = out.reshape(halo_shape)[self._layout.crop]
        return (out / self.positions.shape[0]).ravel()

    def gather(self, weights) -> np.ndarray:
        """sum_g weights[g] grad phi_eps(x_i - y_g) at every particle, shape
        (N, d); weights holds one value per node, in node order."""
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.node_count,):
            raise ValueError("gather needs one weight per grid node")
        out = np.empty(self.positions.shape)
        layout = self._layout
        if layout.separable:
            grid = weights.reshape(self.shape)
            for rows, bands, val, der in self._parts:
                band = grid[bands]
                out[rows, 0] = np.einsum("ib,ib->i", np.einsum("ia,ab->ib", der[0], band), val[1])
                out[rows, 1] = np.einsum("ib,ib->i", np.einsum("ia,ab->ib", val[0], band), der[1])
            return out
        layout.padded[layout.crop] = weights.reshape(self.shape)
        for rows, starts, _, offsets, _, fac in self._parts:
            # grad phi(x - y) = c(|x - y|^2) (x - y), and x - y = -offset
            scaled = fac * layout.padded_windows[starts]
            for a, off in enumerate(offsets):
                out[rows, a] = -(scaled * off).reshape(len(scaled), -1).sum(axis=1)
        return out


def radial_profile(k: MollifierKernel, d: int):
    """g, g', g'' of the radial profile phi_eps(x) = g(|x|), as callables:
    g(s) = phi(s^2), g'(s) = s c(s^2) and g''(s) = c + 2 s^2 dc/d(r2), in
    the terms of _radial_terms."""

    def g(s):
        s = np.asarray(s, dtype=float)
        return _radial_terms(k, d, s * s)[0]

    def g1(s):
        s = np.asarray(s, dtype=float)
        return s * _radial_terms(k, d, s * s, 1)[1]

    def g2(s):
        s = np.asarray(s, dtype=float)
        _, c, dc = _radial_terms(k, d, s * s, 2)
        return c + 2.0 * s * s * dc

    return g, g1, g2


@dataclass(frozen=True)
class KernelNorms:
    """L^inf of phi, L^1 of grad phi, L^1 of the Frobenius norm of D^2 phi."""

    sup: float
    grad_l1: float
    hess_l1: float

    @property
    def grad_w11(self) -> float:
        return self.grad_l1 + self.hess_l1


def _panel_integral(f, breaks) -> float:
    """int f over [breaks[0], breaks[-1]]: the fixed Gauss-Legendre rule on
    each panel [breaks[i], breaks[i+1]], panels added in order."""
    total = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        half = 0.5 * (b - a)
        values = f(0.5 * (a + b) + half * _PANEL_NODES)
        total += half * float(np.dot(_PANEL_WEIGHTS, values))
    return total


@lru_cache(maxsize=None)
def kernel_norms(k: MollifierKernel, d: int) -> KernelNorms:
    """Norms entering the velocity-field Lipschitz constant.

    Radial integrals of the profile by fixed Gauss-Legendre panels. For a
    radial function the Hessian has eigenvalues g''(s) (radial, once) and
    g'(s)/s = c(s^2) (tangential, d-1 times), so |D^2 phi|_F =
    sqrt(g''^2 + (d-1) c^2). The first panel ends where g'' changes sign, at
    eps for the Gaussian and at eps/sqrt(2q-1) for the bump: in d = 1 the
    Hessian integrand has a kink there, and in d >= 2 a near-singularity
    just off the real axis. Each further panel doubles the radius up to the
    support edge, which keeps both norms within a few ulp of their exact
    values in d = 1, 2, 3. The integrals stop at the radius R = GAUSSIAN_CUT
    eps, so in d >= 2 they leave out the corners of the Gaussian's cube
    support, where the kernel is below exp(-R^2 / (2 eps^2)) = exp(-32) of
    its peak.
    """
    g, g1, g2 = radial_profile(k, d)
    area = _surface_area(d)
    rad = k.support_radius
    kink = k.epsilon if k.kind == GAUSSIAN else k.epsilon / math.sqrt(2.0 * k.order - 1.0)
    breaks = [0.0, min(kink, rad)]
    while breaks[-1] < rad:
        breaks.append(min(2.0 * breaks[-1], rad))

    grad_l1 = area * _panel_integral(lambda s: s ** (d - 1) * np.abs(g1(s)), breaks)

    def hess_density(s):
        tang = _radial_terms(k, d, s * s, 1)[1]
        return s ** (d - 1) * np.sqrt(g2(s) ** 2 + (d - 1) * tang**2)

    hess_l1 = area * _panel_integral(hess_density, breaks)
    return KernelNorms(sup=float(g(0.0)), grad_l1=grad_l1, hess_l1=hess_l1)
