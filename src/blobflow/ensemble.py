"""Particle ensembles, initialization against a target density, and metrics.

An ensemble is N uniformly weighted particles in R^d stored as a read-only
(N, d) float64 array. Initialization places particles on exact quantiles of
a 1d target or rejection-samples any-dimensional targets with a seeded PCG64
generator. Metrics: second moment, and W1 against a reference density
(CDF form in d=1, debiased entropic transport in d=2). The d=2 transport
costs run Sinkhorn sweeps in scaling form from c-transform potentials, with
large scalings absorbed into the potentials: the cloud-to-reference cost two
matrix-vector products a sweep, each self cost the symmetric averaged update,
one product and a square root a sweep. Each cost stops once its potentials
move by no more than a fixed multiple of double rounding, and after 500
sweeps at most. A cost holds one N×M array: the distances, overwritten by
the Gibbs kernel, both written in blocks of _ROW_BLOCK rows through one
small scratch array. The reference's atoms and its self cost are solved
once per density and grid size and kept on the ReferenceDensity.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .mollifier import QuadratureGrid

# a Sinkhorn scaling whose log passes this is absorbed into its potential
ABSORB_LOG = 100.0
ABSORB_BOUND = math.exp(ABSORB_LOG)
# a Sinkhorn term stops once its potentials move by at most this many units
# of double rounding
STOP_ULPS = 64
# and after at most this many sweeps
MAX_SWEEPS = 500
# a term's N×M array is filled, reduced and exponentiated this many rows at a
# time, through one (_ROW_BLOCK, M) scratch array
_ROW_BLOCK = 64

QUANTILE = "quantile"
REJECTION = "rejection"


class RejectionStallError(RuntimeError):
    """Rejection sampling accepted almost nothing; the proposal box is
    probably much larger than the effective support of the target."""


@dataclass(frozen=True)
class ParticleEnsemble:
    """Uniformly weighted particle cloud. positions is (N, d), read-only."""

    positions: np.ndarray
    time: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        pos = np.array(self.positions, dtype=float, copy=True)
        if pos.ndim != 2 or pos.shape[0] < 1:
            raise ValueError("positions must be a nonempty (N, d) array")
        if not np.isfinite(pos).all():
            raise ValueError("positions must be finite")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        # plain Python numbers, so that a snapshot header reads them back
        object.__setattr__(self, "time", float(self.time))
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @property
    def weight(self) -> float:
        return 1.0 / self.n

    def advanced(self, positions: np.ndarray, time: float) -> "ParticleEnsemble":
        """Same cloud identity (seed), new positions and clock."""
        return ParticleEnsemble(positions, time=time, seed=self.seed)


@dataclass(frozen=True)
class ReferenceDensity:
    """A probability density on a box, with a CDF in d=1.

    pdf maps (n, d) points to (n,) values; cdf maps (n,) abscissae to (n,)
    in one dimension, and a d=1 density given without one gets numeric_cdf(),
    tabulated once here. box = (lo, hi) arrays of length d and should capture
    essentially all of the mass; metrics integrate over it.
    """

    name: str
    dim: int
    pdf: Callable[[np.ndarray], np.ndarray]
    box: tuple[np.ndarray, np.ndarray]
    cdf: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self) -> None:
        lo = np.atleast_1d(np.asarray(self.box[0], dtype=float))
        hi = np.atleast_1d(np.asarray(self.box[1], dtype=float))
        if lo.shape != (self.dim,) or hi.shape != (self.dim,):
            raise ValueError("box endpoints must have shape (d,)")
        if not (hi > lo).all():
            raise ValueError("box must have positive extent")
        object.__setattr__(self, "box", (lo, hi))
        if self.dim == 1 and self.cdf is None:
            object.__setattr__(self, "cdf", self.numeric_cdf())

    def numeric_cdf(self, resolution: int = 8192) -> Callable[[np.ndarray], np.ndarray]:
        """Tabulated CDF from the pdf (d=1): cumulative trapezoid + interp."""
        if self.dim != 1:
            raise ValueError("numeric_cdf is one-dimensional")
        lo, hi = self.box
        xs = np.linspace(lo[0], hi[0], resolution)
        vals = self.pdf(xs[:, None])
        steps = 0.5 * np.diff(xs) * (vals[1:] + vals[:-1])
        cum = np.concatenate([[0.0], np.cumsum(steps)])
        total = cum[-1]

        def cdf(x):
            x = np.asarray(x, dtype=float)
            return np.interp(x, xs, cum / max(total, 1e-300), left=0.0, right=1.0)

        return cdf

    @cached_property
    def _w1_atoms(self) -> dict:
        return {}

    def w1_atoms(self, per_axis: int):
        """(atoms, weights, bb) of the d=2 W1 on a per_axis^2 grid of cell
        centres, bb the atoms' self cost at the W1's eta. Built on first use
        and kept with the density, so a reference that stays the same object
        from record to record solves bb once."""
        atoms = self._w1_atoms.get(per_axis)
        if atoms is None:
            xb, wb = _grid_atoms_2d(self, per_axis)
            bb, _ = _self_cost(xb, wb, _w1_eta(self))
            atoms = self._w1_atoms[per_axis] = (xb, wb, bb)
        return atoms


def quantiles_from_cdf(cdf, lo: float, hi: float, u: np.ndarray) -> np.ndarray:
    """Invert a nondecreasing CDF at levels u by vectorized bisection."""
    u = np.asarray(u, dtype=float)
    a = np.full(u.shape, float(lo))
    b = np.full(u.shape, float(hi))
    for _ in range(200):
        mid = 0.5 * (a + b)
        below = np.asarray(cdf(mid)) < u
        a = np.where(below, mid, a)
        b = np.where(below, b, mid)
        if np.max(b - a) <= 1e-13 * max(abs(lo), abs(hi), 1.0):
            break
    return 0.5 * (a + b)


def prepare_initial_particles(
    target: ReferenceDensity,
    n: int,
    seed: int = 0,
    mode: str = QUANTILE,
) -> ParticleEnsemble:
    """Deterministic initial cloud for a target density.

    quantile: particle i sits at the (i - 1/2)/n quantile (d=1 only).
    rejection: seeded rejection sampling from the uniform proposal on the
    target's box; stalls raise RejectionStallError.
    """
    if n < 1:
        raise ValueError("need at least one particle")
    if mode == QUANTILE:
        if target.dim != 1:
            raise ValueError("quantile initialization needs a one-dimensional target")
        lo, hi = target.box
        u = (np.arange(n) + 0.5) / n
        xs = quantiles_from_cdf(target.cdf, lo[0], hi[0], u)
        return ParticleEnsemble(xs[:, None], time=0.0, seed=seed)
    if mode == REJECTION:
        rng = np.random.default_rng(seed)
        lo, hi = target.box
        d = target.dim
        probe = lo + (hi - lo) * rng.random((4096, d))
        bound = 1.2 * float(np.max(target.pdf(probe)))
        if not (np.isfinite(bound) and bound > 0.0):
            raise RejectionStallError("target density vanishes on probe points")
        out = np.empty((n, d))
        got = 0
        proposed = 0
        while got < n:
            batch = max(1024, 4 * (n - got))
            pts = lo + (hi - lo) * rng.random((batch, d))
            keep = rng.random(batch) * bound < target.pdf(pts)
            take = min(int(keep.sum()), n - got)
            out[got : got + take] = pts[keep][:take]
            got += take
            proposed += batch
            if proposed >= 100_000 and got < max(1, 1e-4 * proposed):
                raise RejectionStallError(
                    f"accepted {got} of {proposed} proposals; "
                    "check the target/box pairing"
                )
        return ParticleEnsemble(out, time=0.0, seed=seed)
    raise ValueError(f"unknown initialization mode {mode!r}")


def second_moment(e: ParticleEnsemble) -> float:
    """mean |x_i|^2 over the cloud."""
    return float(np.mean(np.einsum("ij,ij->i", e.positions, e.positions)))


def w1_vs_density(
    e: ParticleEnsemble, ref: ReferenceDensity, resolution: int = 4096
) -> float:
    """W1 between the cloud and a reference density.

    d=1: integral of |F_cloud - F_ref| over the hull of box and particles.
    d=2: debiased entropic transport ab - (aa + bb) / 2 between the cloud
    (a) and the reference's pdf on a per_axis^2 grid of cell centres (b),
    per_axis = sqrt(resolution) clipped to [8, 64], with cost |x - y| and
    entropic scale eta = 0.01 |box diagonal|. Each term runs stabilized
    Sinkhorn sweeps until its potentials stop moving at double rounding, 500
    at most: two-sided for ab (_entropic_cost), the symmetric update for aa
    and bb (_self_cost). bb is solved once per reference object and grid
    size (ReferenceDensity.w1_atoms). The result is clipped at 0.
    """
    if e.dim != ref.dim:
        raise ValueError("dimension mismatch between ensemble and reference")
    if ref.dim == 1:
        xs_sorted = np.sort(e.positions[:, 0])
        lo = min(float(ref.box[0][0]), xs_sorted[0]) - 1e-9
        hi = max(float(ref.box[1][0]), xs_sorted[-1]) + 1e-9
        grid = np.linspace(lo, hi, resolution)
        f_emp = np.searchsorted(xs_sorted, grid, side="right") / e.n
        f_ref = np.asarray(ref.cdf(grid))
        return float(np.trapezoid(np.abs(f_emp - f_ref), grid))
    if ref.dim == 2:
        return _sinkhorn_w1_2d(e, ref, resolution)
    raise ValueError("w1_vs_density supports d = 1 and 2")


def _grid_atoms_2d(ref: ReferenceDensity, per_axis: int):
    pts = QuadratureGrid(*ref.box, (per_axis, per_axis)).nodes
    w = ref.pdf(pts)
    w = np.maximum(w, 0.0)
    total = w.sum()
    if total <= 0.0:
        raise ValueError("reference density vanishes on its box")
    return pts, w / total


def _w1_eta(ref: ReferenceDensity) -> float:
    """The d=2 W1's entropic scale: a hundredth of the box diagonal."""
    lo, hi = ref.box
    return 0.01 * float(np.linalg.norm(hi - lo))


def _row_blocks(array):
    """(rows, scratch) for each block of _ROW_BLOCK rows of a 2d array, in
    order: rows a view of the block, scratch an array of its shape. Every
    block's scratch is a view of one buffer."""
    buffer = np.empty((min(_ROW_BLOCK, len(array)), array.shape[1]))
    for start in range(0, len(array), _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, len(array))
        yield slice(start, stop), buffer[: stop - start]


def _distances(xa, xb, out=None):
    """|x_i - y_j| for every pair of atoms, as an (N, M) array, written into
    out when it is given.

    In each block of _ROW_BLOCK rows the squared differences are added in
    place, axis by axis in axis order, through one scratch array: every entry
    has the bits of summing the squares over the last axis of an (N, M, d)
    difference array, whatever the block size, without building that array
    or a second N×M one."""
    cost = np.empty((len(xa), len(xb))) if out is None else out
    for rows, diff in _row_blocks(cost):
        block = cost[rows]
        block.fill(0.0)
        for ax in range(xa.shape[1]):
            np.subtract.outer(xa[rows, ax], xb[:, ax], out=diff)
            block += np.square(diff, out=diff)
        np.sqrt(block, out=block)
    return cost


def _gibbs_kernel(f, g, cost, eta: float):
    """Overwrite the distances C in cost with K = exp((f_i + g_j - C_ij) / eta)
    and return the band (lo, hi) in which every scaling ratio of a sweep must
    lie for its term to stop. K is written block by block of _ROW_BLOCK rows
    through one scratch array, each entry by the same operations in the same
    order as on the whole array."""
    for rows, block in _row_blocks(cost):
        np.add.outer(f[rows], g, out=block)
        block -= cost[rows]
        block /= eta
        np.exp(block, out=cost[rows])
    # |eta log(u'/u)| <= tol  <=>  u'/u within exp(+-tol/eta)
    tol = STOP_ULPS * np.finfo(float).eps * max(1.0, np.abs(f).max(), np.abs(g).max())
    return np.exp(-tol / eta), np.exp(tol / eta)


def _entropic_cost(xa, wa, xb, wb, eta: float) -> tuple[float, int]:
    """Entropic transport cost between weighted atoms, cost |x - y|.

    Sinkhorn in scaling form, stabilized by absorption (Schmitzer, SIAM J.
    Sci. Comput. 2019): potentials f, g start at the c-transforms of zero,
    f the row minima of C and g the column minima of C - f, taken as a
    running minimum over row blocks, so K = exp((f + g - C) / eta) has row
    and column maxima 1. K overwrites C in the term's one N×M array. Each
    sweep is two matrix-vector products, and once a scaling u or v leaves
    exp(+-ABSORB_LOG) it is absorbed into its potential, u = v = 1, and the
    array is refilled with C before K is rebuilt. It stops after a sweep in
    which no entry of eta log u or eta log v moved by more than STOP_ULPS
    units of double rounding of max(1, max |f|, max |g|), or after
    MAX_SWEEPS sweeps. The rule reads nothing but the iterates, and the
    iterates do not depend on the run or the BLAS thread count, so neither
    does the sweep it stops at: reruns and thread counts give the same bits. A cost of atoms
    to themselves converges far sooner by _self_cost.
    Returns (sum wa (f + eta log u) + sum wb (g + eta log v), sweeps used).
    """
    # the term's one N×M array: the distances C, then K written over them
    kernel = _distances(xa, xb)
    f = kernel.min(axis=1)
    g = np.full(len(wb), np.inf)
    for rows, block in _row_blocks(kernel):
        np.subtract(kernel[rows], f[rows, None], out=block)
        np.minimum(g, block.min(axis=0), out=g)
    lo, hi = _gibbs_kernel(f, g, kernel, eta)
    # u and v are views of one buffer, so each test below is one reduction
    scalings = np.ones(len(wa) + len(wb))
    u, v = scalings[: len(wa)], scalings[len(wa) :]
    previous = np.empty_like(scalings)
    for sweep in range(1, MAX_SWEEPS + 1):
        np.copyto(previous, scalings)
        np.divide(1.0, kernel @ (v * wb), out=u)
        np.divide(1.0, kernel.T @ (u * wa), out=v)
        if scalings.max() > ABSORB_BOUND or scalings.min() < 1.0 / ABSORB_BOUND:
            f += eta * np.log(u)
            g += eta * np.log(v)
            scalings.fill(1.0)
            lo, hi = _gibbs_kernel(f, g, _distances(xa, xb, out=kernel), eta)
            continue
        ratio = scalings / previous
        if ratio.min() >= lo and ratio.max() <= hi:
            break
    value = np.sum(wa * (f + eta * np.log(u))) + np.sum(wb * (g + eta * np.log(v)))
    return float(value), sweep


def _self_cost(x, w, eta: float) -> tuple[float, int]:
    """Entropic transport cost of weighted atoms to themselves, cost |x - y|.

    The problem is symmetric, so one potential f serves both sides, and the
    averaged fixed-point update f <- (f + T(f)) / 2, T the entropic
    c-transform, converges in tens of sweeps where the two-sided update of
    _entropic_cost takes hundreds (Feydy et al., AISTATS 2019). In scaling
    form, f starts at the c-transform of zero, which is 0 on the diagonal,
    and each sweep is one matrix-vector product and a square root:
    u <- sqrt(u / K (w u)), K = exp((f_i + f_j - C_ij) / eta). K overwrites
    C in one N×N array. Absorption with its refill, the stopping rule on
    eta log u and the MAX_SWEEPS cap are _entropic_cost's.
    Returns (2 sum w (f + eta log u), sweeps used).
    """
    kernel = _distances(x, x)
    f = np.zeros(len(w))
    u = np.ones(len(w))
    previous = np.empty_like(u)
    lo, hi = _gibbs_kernel(f, f, kernel, eta)
    for sweep in range(1, MAX_SWEEPS + 1):
        np.copyto(previous, u)
        np.divide(u, kernel @ (w * u), out=u)
        np.sqrt(u, out=u)
        if u.max() > ABSORB_BOUND or u.min() < 1.0 / ABSORB_BOUND:
            f += eta * np.log(u)
            u.fill(1.0)
            lo, hi = _gibbs_kernel(f, f, _distances(x, x, out=kernel), eta)
            continue
        ratio = u / previous
        if ratio.min() >= lo and ratio.max() <= hi:
            break
    return float(2.0 * np.sum(w * (f + eta * np.log(u)))), sweep


def _sinkhorn_w1_2d(e: ParticleEnsemble, ref: ReferenceDensity, resolution: int) -> float:
    per_axis = max(8, min(64, int(np.sqrt(resolution))))
    xb, wb, bb = ref.w1_atoms(per_axis)
    xa = e.positions
    wa = np.full(e.n, e.weight)
    eta = _w1_eta(ref)
    ab, _ = _entropic_cost(xa, wa, xb, wb, eta)
    aa, _ = _self_cost(xa, wa, eta)
    return float(max(ab - 0.5 * (aa + bb), 0.0))


def save_snapshot(e: ParticleEnsemble, path) -> None:
    """CSV with one row per particle; floats use shortest round-trip form."""
    cols = ",".join(f"x{i + 1}" for i in range(e.dim))
    lines = [f"# blobflow snapshot N={e.n} d={e.dim} time={e.time!r} seed={e.seed}", cols]
    for row in e.positions:
        lines.append(",".join(repr(float(v)) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


_SNAP_HEADER = re.compile(
    r"^# blobflow snapshot N=(\d+) d=(\d+) time=(\S+) seed=(-?\d+)$"
)


def load_snapshot(path) -> ParticleEnsemble:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        match = _SNAP_HEADER.match(header)
        if match is None:
            raise ValueError(f"{path} is not a snapshot file")
        n, d = int(match.group(1)), int(match.group(2))
        time, seed = float(match.group(3)), int(match.group(4))
        fh.readline()  # column names
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (n, d):
        raise ValueError(f"snapshot body {data.shape} disagrees with header ({n}, {d})")
    return ParticleEnsemble(data, time=time, seed=seed)
