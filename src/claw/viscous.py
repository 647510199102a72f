"""Viscous time stepping: heat-kernel smoothing after transport-collapse.

One viscous step applies the inviscid transport-collapse step and then
convolves the result with a centered Gaussian of variance 2*nu*h, returning
to the particle representation by resampling the smoothed CDF at the
midpoint quantile nodes.

The smoothed CDF is the mixture F(x) = (1/N) sum_j Phi((x - c_j)/sigma).
It is evaluated exactly by summing only the centers within 9 sigma of x and
counting farther-left centers as full mass (truncation error below
2.3e-19); the same terms give the density F'.  Two certified routes invert
it.  The exact solver runs a bracketed Newton iteration on F and F' and
returns x only once F(x - tol/2) <= w <= F(x + tol/2) or its bracket is
narrower than tol; a node costs a few window sums.  The CDF table splits
the kernel as phi_sigma = phi_sigma1 * phi_sigma2, with sigma2 tied to the
grid spacing: the sigma2-mollified atom density is sampled exactly on a
uniform grid, the sigma1 convolution and the antiderivative are applied
spectrally, and each monotone cubic Hermite cell is inverted by Newton's
method from the secant value, safeguarded by a bracket.  Table nodes are
certified by an interpolation error bound; those in near-flat cells, where
the bound is too weak, go to the exact solver from the table's value.

``heat_resample`` first cuts the sorted centers wherever a gap exceeds
20 sigma.  Within 10 sigma of a cluster every other center lies more than
9 sigma away, so there F(x) = (L + n_c F_c(x))/N, with L centers left of
the cluster and F_c the mixture of its own n_c centers.  The quantile at a
node lies within 9 sigma of the center of the same rank, so the global
node (L + j + 1/2)/N is exactly the cluster's node (j + 1/2)/n_c and each
cluster is resampled on its own.  Clusters of at least 48 particles are
tabled; with its padding a table spans at most 20*n_c sigma, or 3840*n_c
cells, so its cost depends on n_c and not on the span of the data.  The
nodes of smaller clusters, and of clusters whose table would exceed
``_MAX_GRID`` cells (n_c above about 1092), go to the exact solver in one
call, each started at its same-rank center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len, rfft, irfft, rfftfreq
from scipy.special import ndtr, ndtri

from .fluxes import FluxModel
from .measures import ParticleQuantiles, midpoint_nodes
from .scheme import SchemeState, _step_positions, sh_trajectory, th_step

__all__ = [
    "SmoothedCdf",
    "smoothed_cdf_eval",
    "smoothed_quantile",
    "heat_resample",
    "viscous_step",
    "evolve_viscous",
    "viscous_trajectory",
]

DEFAULT_TOL = 1e-10
MAX_SOLVE_ITER = 200
MAX_BRACKET_WIDENINGS = 128

# exact-evaluation window, in standard deviations; truncation error in the
# CDF is below 2.3e-19 in absolute value
_WINDOW_SD = 9.0
# fast-path grid resolution, in cells per sigma; the monotone-cubic
# inversion error bound is (delta^4/384)*max|F''''| <= 0.5566/(384*cells^4)
_CELLS_PER_SD = 192
_MAX_GRID = 1 << 22
_F4_BOUND = 0.5566  # sup of |phi'''| for the unit Gaussian density
# gaps wider than this many standard deviations split the centers into
# clusters that are resampled independently: any point within a table's
# 10-sigma padding of one cluster is then more than 10 sigma from every
# other cluster, outside the 9-sigma evaluation window
_GAP_SD = 20.0
# clusters with fewer particles go to the exact solver rather than a table
_MIN_GRID_N = 48
# safeguarded Newton iteration on the cubic cells: stop once no step moves
# by more than this fraction of a cell
_NEWTON_STEP_TOL = 2.0**-40
_NEWTON_MAX_ITER = 64


@dataclass(frozen=True)
class SmoothedCdf:
    """Gaussian-smoothed particle CDF; strictly increasing with limits 0/1."""

    centers: ParticleQuantiles
    sigma: float

    def __post_init__(self):
        if not (float(self.sigma) > 0.0):
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        object.__setattr__(self, "sigma", float(self.sigma))

    def __call__(self, x):
        return smoothed_cdf_eval(self, x)


def _ragged_window_eval(centers: np.ndarray, sigma: float, x: np.ndarray, density: bool = False):
    """Exact mixture CDF at query points, summing only centers within the
    9-sigma window and counting farther-left centers as full mass; with
    ``density`` also the mixture density, from the same window terms."""
    n = centers.size
    half = _WINDOW_SD * sigma
    lo = np.searchsorted(centers, x - half, side="right")
    hi = np.searchsorted(centers, x + half, side="right")
    counts = hi - lo
    owner = np.repeat(np.arange(x.size), counts)
    # term k of query q sums center lo[q] + (k - first term of q)
    idx = np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    z = (x[owner] - centers[idx]) / sigma
    cdf = (lo + np.bincount(owner, weights=ndtr(z), minlength=x.size)) / n
    if not density:
        return cdf
    dens = np.bincount(owner, weights=np.exp(-0.5 * z * z), minlength=x.size)
    return cdf, dens / (n * sigma * math.sqrt(2.0 * math.pi))


def smoothed_cdf_eval(sc: SmoothedCdf, x):
    """(1/N) sum_j Phi((x - x_j)/sigma), vectorized over x."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = _ragged_window_eval(sc.centers.positions, sc.sigma, x_arr)
    return float(out[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else out


def smoothed_quantile(sc: SmoothedCdf, w: float, tol: float = DEFAULT_TOL) -> float:
    """The unique x with F(x) = w, within tol/2, by the exact solver from a
    bracket widened until it holds the level."""
    if not (0.0 < w < 1.0):
        raise ValueError(f"quantile level must lie in (0, 1), got {w}")
    if not (tol > 0.0):
        raise ValueError(f"tolerance must be positive, got {tol}")
    c = sc.centers.positions
    sigma = sc.sigma
    z = abs(float(ndtri(w)))
    lo = c[0] - sigma * z - 1.0
    hi = c[-1] + sigma * z + 1.0
    widen = hi - lo
    for _ in range(MAX_BRACKET_WIDENINGS):
        f_lo, f_hi = _ragged_window_eval(c, sigma, np.array([lo, hi]))
        if f_lo < w <= f_hi:
            break
        lo -= widen
        hi += widen
        widen *= 2.0
    else:
        raise RuntimeError(
            "failed to bracket the smoothed quantile after "
            f"{MAX_BRACKET_WIDENINGS} widenings; check inputs for NaN"
        )
    # the center of the same rank lies inside every bracket tried above
    start = c[min(int(w * c.size), c.size - 1)]
    return float(_solve_nodes(c, sigma, *map(np.atleast_1d, (w, start, lo, hi)), tol)[0])


def _solve_nodes(centers, sigma, targets, x, lo, hi, tol) -> np.ndarray:
    """Roots of F = targets within tol/2 from starts x in brackets with
    F(lo) <= w < F(hi).  A Newton pass takes F and F' at x from one window
    sum; after a step of at most tol/2 a certifying pass ends the node if
    F(x - tol/2) <= w <= F(x + tol/2).  Every probe moves a bracket end; a
    bracket narrower than tol ends the node at its midpoint, which also
    replaces a failed certificate and a Newton step leaving the bracket."""
    x, lo, hi = x.copy(), lo.copy(), hi.copy()
    due = np.zeros(targets.size, dtype=bool)
    half = 0.5 * tol
    act = np.arange(targets.size)
    for _ in range(MAX_SOLVE_ITER):
        if act.size == 0:
            break
        run = act[~due[act]]
        if run.size:
            xa, w = x[run], targets[run]
            f, d = _ragged_window_eval(centers, sigma, xa, density=True)
            lo[run] = la = np.where(f <= w, xa, lo[run])
            hi[run] = ha = np.where(f > w, xa, hi[run])
            step = xa - np.divide(f - w, d, out=np.full_like(d, np.inf), where=d > 0.0)
            inside = (step >= la) & (step <= ha)
            due[run] = short = inside & (np.abs(step - xa) <= half)
            narrow = (ha - la <= tol) & ~short
            x[run] = np.where(inside & ~narrow, step, 0.5 * (la + ha))
            if narrow.any():
                act = np.setdiff1d(act, run[narrow], assume_unique=True)
        else:
            xa, w = x[act], targets[act]
            # two window sums, not one over both probe sets, halve the peak memory
            f_lo = _ragged_window_eval(centers, sigma, xa - half)
            f_hi = _ragged_window_eval(centers, sigma, xa + half)
            done = (f_lo <= w) & (w <= f_hi)
            lo[act] = la = np.where(f_hi <= w, xa + half, lo[act])
            hi[act] = ha = np.where(f_lo > w, xa - half, hi[act])
            x[act] = np.where(done, xa, 0.5 * (la + ha))
            due[act] = False
            act = act[~done]
    return x


def _grid_cdf_table(centers, sigma, x0, delta, g0):
    """Machine-accurate table of the mixture CDF and density on the uniform
    grid x0 + delta*arange(g0), via the Gaussian semigroup split."""
    n = centers.size
    sigma2 = 4.0 * delta
    sigma1 = math.sqrt(sigma * sigma - sigma2 * sigma2)
    m = next_fast_len(g0 + 512)

    # sigma2-mollified atom density, sampled exactly on short windows; the
    # offsets are taken from x0, not from the absolute grid points, whose
    # rounding far from the origin would swamp the short distances
    halfw = 36  # 9*sigma2 in grid cells
    rel = centers - x0
    mj = np.rint(rel / delta).astype(np.int64)
    offs = np.arange(-halfw, halfw + 1)
    idx = mj[:, None] + offs[None, :]
    z = (delta * idx - rel[:, None]) / sigma2
    weights = np.exp(-0.5 * z * z) / (n * sigma2 * math.sqrt(2.0 * math.pi))
    rho = np.bincount(idx.ravel(), weights=weights.ravel(), minlength=m)

    # remaining sigma1 smoothing and the antiderivative, spectrally
    xi = 2.0 * math.pi * rfftfreq(m, d=delta)
    full_hat = rfft(rho) * np.exp(-0.5 * (sigma1 * xi) ** 2)
    dens = irfft(full_hat, m)[:g0]
    anti_hat = np.zeros_like(full_hat)
    anti_hat[1:] = full_hat[1:] / (1j * xi[1:])
    ramp = (full_hat[0].real / m) * delta * np.arange(g0)
    f_part = irfft(anti_hat, m)[:g0]
    f_grid = f_part + ramp - f_part[0]

    f_grid = np.minimum(np.maximum.accumulate(np.maximum(f_grid, 0.0)), 1.0)
    return f_grid, np.maximum(dens, 0.0)


def _resample_grid(centers, sigma, targets, tol, cells_per_sd) -> np.ndarray:
    delta = sigma / cells_per_sd
    x0 = centers[0] - 10.0 * sigma
    g0 = int(math.ceil((centers[-1] + 10.0 * sigma - x0) / delta)) + 2
    f_grid, dens = _grid_cdf_table(centers, sigma, x0, delta, g0)
    hermite_err = _F4_BOUND / 384.0 / float(cells_per_sd) ** 4

    i1 = np.clip(np.searchsorted(f_grid, targets, side="left"), 1, g0 - 1)
    i0 = i1 - 1
    f0, f1 = f_grid[i0], f_grid[i1]
    sec = f1 - f0
    d0 = np.clip(dens[i0] * delta, 0.0, 3.0 * sec)
    d1 = np.clip(dens[i1] * delta, 0.0, 3.0 * sec)

    # monotone cubic Hermite inversion within each cell: Newton's method
    # from the secant value, kept inside the bracket [t_lo, t_hi]; a step
    # that leaves the bracket is replaced by the bracket's midpoint
    c2 = 3.0 * sec - 2.0 * d0 - d1
    c3 = d0 + d1 - 2.0 * sec
    rhs = targets - f0
    t_lo = np.zeros_like(targets)
    t_hi = np.ones_like(targets)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(sec > 0.0, np.clip(rhs / sec, 0.0, 1.0), 0.5)
        for _ in range(_NEWTON_MAX_ITER):
            resid = ((c3 * t + c2) * t + d0) * t - rhs
            below = resid <= 0.0
            t_lo = np.where(below, t, t_lo)
            t_hi = np.where(below, t_hi, t)
            step = t - resid / ((3.0 * c3 * t + 2.0 * c2) * t + d0)
            # a step onto a bracket end is kept: at convergence the iterate
            # is the end just moved, and a strict test would bisect forever
            t_next = np.where((step >= t_lo) & (step <= t_hi), step, 0.5 * (t_lo + t_hi))
            moved = np.max(np.abs(t_next - t))
            t = t_next
            if moved <= _NEWTON_STEP_TOL:
                break
    out = x0 + delta * (i0 + t)

    # certify |x - x*| <= tol from the interpolation error bound; the density
    # inside a cell can undershoot its endpoint values by at most
    # (delta^2/8)*max|F'''|
    slope_slack = 0.0499 * delta * delta / sigma**3
    min_slope = np.minimum(dens[i0], dens[i1]) - slope_slack
    bad = np.nonzero(min_slope * tol < 2.0 * hermite_err)[0]
    if bad.size:
        # near-flat cells: the exact solver from the table's value, within
        # the cell and its neighbours
        lo = x0 + delta * np.maximum(i0[bad] - 1, 0)
        hi = x0 + delta * np.minimum(i1[bad] + 1, g0 - 1)
        out[bad] = _solve_nodes(centers, sigma, targets[bad], out[bad], lo, hi, tol)
    return out


def _resample_clusters(centers, sigma, targets, tol) -> np.ndarray:
    """Quantiles at the global nodes ``targets``, solved cluster by cluster
    (see the module docstring)."""
    n = centers.size
    cuts = np.flatnonzero(np.diff(centers) > _GAP_SD * sigma) + 1
    starts = np.concatenate(([0], cuts))
    ends = np.concatenate((cuts, [n]))
    sizes = ends - starts
    spans = centers[ends - 1] - centers[starts]
    tabled = (sizes >= _MIN_GRID_N) & ((spans + 20.0 * sigma) * _CELLS_PER_SD / sigma <= _MAX_GRID)

    out = np.empty(n)
    for s, e in zip(starts[tabled], ends[tabled]):
        out[s:e] = _resample_grid(centers[s:e], sigma, midpoint_nodes(e - s), tol, _CELLS_PER_SD)
    rest = np.flatnonzero(np.repeat(~tabled, sizes))
    if rest.size:
        # the quantile at node (i - 1/2)/N always lies within 9 sigma of the
        # i-th sorted center, so these brackets are guaranteed
        half = _WINDOW_SD * sigma + tol
        near = centers[rest]
        out[rest] = _solve_nodes(centers, sigma, targets[rest], near, near - half, near + half, tol)
    return out


def heat_resample(
    pq: ParticleQuantiles, sigma: float, tol: float = DEFAULT_TOL
) -> ParticleQuantiles:
    """Quantiles of the Gaussian-smoothed particle CDF at the midpoint nodes,
    each within ``tol`` of the exact one.

    Clusters of at least 48 particles whose table fits are inverted through
    the certified CDF table, all other nodes by the certified exact solver
    (see the module docstring).
    """
    if not (sigma > 0.0):
        raise ValueError(f"sigma must be positive, got {sigma}")
    if not (tol > 0.0):
        raise ValueError(f"tolerance must be positive, got {tol}")
    centers = pq.positions
    if not np.all(np.isfinite(centers)):
        raise ValueError("positions must be finite")
    pos = _resample_clusters(centers, sigma, midpoint_nodes(pq.n), tol)
    return ParticleQuantiles(np.sort(pos, kind="stable"))


def viscous_step(
    pq: ParticleQuantiles,
    flux: FluxModel,
    h: float,
    nu: float,
    tol: float = DEFAULT_TOL,
) -> ParticleQuantiles:
    """Transport-collapse step followed by heat smoothing of variance 2*nu*h."""
    if not (h > 0.0):
        raise ValueError(f"step size must be positive, got {h}")
    if not (nu > 0.0):
        raise ValueError(f"viscosity must be positive, got {nu}")
    return heat_resample(th_step(pq, flux, h), math.sqrt(2.0 * nu * h), tol)


def viscous_trajectory(
    pq0: ParticleQuantiles,
    flux: FluxModel,
    h: float,
    nu: float,
    times,
    tol: float = DEFAULT_TOL,
) -> list[SchemeState]:
    """Viscous scheme states at an ascending list of times."""
    if not (nu > 0.0):
        raise ValueError(f"viscosity must be positive, got {nu}")
    speeds = h * flux.deriv(midpoint_nodes(pq0.n))
    sigma = math.sqrt(2.0 * nu * h)

    def step_fn(pos):
        moved = _step_positions(pos, speeds)
        return heat_resample(ParticleQuantiles(moved), sigma, tol).positions

    return sh_trajectory(pq0, flux, h, times, step_fn=step_fn)


def evolve_viscous(
    pq0: ParticleQuantiles,
    flux: FluxModel,
    h: float,
    nu: float,
    t: float,
    tol: float = DEFAULT_TOL,
) -> SchemeState:
    """Viscous scheme state at a single time t >= 0."""
    return viscous_trajectory(pq0, flux, h, nu, [t], tol=tol)[0]
