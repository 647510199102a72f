"""Viscous time stepping: heat-kernel smoothing after transport-collapse.

One viscous step applies the inviscid transport-collapse step and then
convolves the result with a centered Gaussian of variance 2*nu*h, returning
to the particle representation by resampling the smoothed CDF at the
midpoint quantile nodes.

The smoothed CDF is the mixture F(x) = (1/N) sum_j Phi((x - c_j)/sigma).
It is evaluated exactly by summing only the centers within 9 sigma of x and
counting farther-left centers as full mass; the truncation error is below
2.3e-19.  ``smoothed_quantile`` inverts it for one level by bisection.

``heat_resample`` needs all N quantiles per step.  It first cuts the sorted
centers wherever a gap exceeds 20 sigma.  Within 10 sigma of a cluster every
center of another cluster lies more than 9 sigma away, so there the exact
evaluator gives F(x) = (L + n_c F_c(x))/N, where L centers lie left of the
cluster and F_c is the mixture of its own n_c centers.  The quantile at a
node always lies within 9 sigma of the center of the same rank, so the
global node (L + j + 1/2)/N is exactly the cluster's own node (j + 1/2)/n_c,
and each cluster is resampled on its own.

A cluster of at least 48 particles gets a CDF table.  The mixture density is
split through the Gaussian semigroup as phi_sigma = phi_sigma1 * phi_sigma2
with sigma2 tied to the grid spacing; the sigma2-mollified atom density is
sampled exactly on a uniform grid (short per-atom windows), and the
remaining sigma1 convolution and the antiderivative are applied spectrally.
Each monotone cubic Hermite cell of the resulting machine-accurate table is
inverted by Newton's method, started from the secant value and safeguarded
by a bracket.  Every node is certified against an interpolation error
bound; nodes in near-flat cells get one Newton correction on the exact CDF,
and those that still miss the tolerance are bisected.  Neighbouring centers
of a cluster are at most 20 sigma apart, so with its padding its table
spans at most 20*n_c sigma, or 3840*n_c cells: the cost of a table depends
on n_c and not on the span of the data.  The nodes of smaller clusters, and of
clusters whose table would exceed ``_MAX_GRID`` cells (n_c above about
1092), go through one vectorized bisection on the exact CDF, whose cost per
node is the number of centers within 9 sigma.  All paths agree within the
requested tolerance.
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
MAX_BISECT_ITER = 200
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
# clusters with fewer particles are bisected rather than tabled
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


def _ragged_window_eval(centers: np.ndarray, sigma: float, x: np.ndarray) -> np.ndarray:
    """Exact mixture CDF at query points, summing only centers within the
    9-sigma window and counting farther-left centers as full mass."""
    n = centers.size
    half = _WINDOW_SD * sigma
    lo = np.searchsorted(centers, x - half, side="right")
    hi = np.searchsorted(centers, x + half, side="right")
    counts = hi - lo
    total = int(counts.sum())
    out = lo.astype(float)
    if total:
        owner = np.repeat(np.arange(x.size), counts)
        starts = np.repeat(lo, counts)
        within = np.arange(total) - np.repeat(
            np.concatenate([[0], np.cumsum(counts)[:-1]]), counts
        )
        z = (x[owner] - centers[starts + within]) / sigma
        out += np.bincount(owner, weights=ndtr(z), minlength=x.size)
    return out / n


def smoothed_cdf_eval(sc: SmoothedCdf, x):
    """(1/N) sum_j Phi((x - x_j)/sigma), vectorized over x."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = _ragged_window_eval(sc.centers.positions, sc.sigma, x_arr)
    return float(out[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else out


def smoothed_quantile(sc: SmoothedCdf, w: float, tol: float = DEFAULT_TOL) -> float:
    """The unique x with F(x) = w, by bracketing bisection to width <= tol."""
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
    return float(_bisect_nodes(c, sigma, np.array([w]), np.array([lo]), np.array([hi]), tol)[0])


def _bisect_nodes(centers, sigma, targets, lo, hi, tol) -> np.ndarray:
    """Vectorized bisection on the exact mixture CDF from valid brackets."""
    lo = lo.copy()
    hi = hi.copy()
    for _ in range(MAX_BISECT_ITER):
        active = np.nonzero(hi - lo > tol)[0]
        if active.size == 0:
            break
        mid = 0.5 * (lo[active] + hi[active])
        below = _ragged_window_eval(centers, sigma, mid) <= targets[active]
        lo[active] = np.where(below, mid, lo[active])
        hi[active] = np.where(below, hi[active], mid)
    return 0.5 * (lo + hi)


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
        # near-flat cells: one Newton correction with exact CDF values, then
        # verify the half-tol bracket directly; stragglers get bisected
        tb = targets[bad]
        lo = x0 + delta * np.maximum(i0[bad] - 1, 0)
        hi = x0 + delta * np.minimum(i1[bad] + 1, g0 - 1)
        fb = _ragged_window_eval(centers, sigma, out[bad])
        db = np.maximum(np.maximum(dens[i0[bad]], dens[i1[bad]]), 1e-300)
        x1 = np.clip(out[bad] - (fb - tb) / db, lo, hi)
        f_pm = _ragged_window_eval(
            centers, sigma, np.concatenate([x1 - 0.5 * tol, x1 + 0.5 * tol])
        )
        ok = (f_pm[: bad.size] <= tb) & (f_pm[bad.size :] >= tb)
        if np.any(~ok):
            x1[~ok] = _bisect_nodes(centers, sigma, tb[~ok], lo[~ok], hi[~ok], tol)
        out[bad] = x1
    return out


def _resample_clusters(centers, sigma, targets, tol, method) -> np.ndarray:
    """Quantiles at the global nodes ``targets``, solved cluster by cluster
    (see the module docstring); ``method`` decides which clusters are tabled."""
    n = centers.size
    cuts = np.flatnonzero(np.diff(centers) > _GAP_SD * sigma) + 1
    starts = np.concatenate(([0], cuts))
    ends = np.concatenate((cuts, [n]))
    sizes = ends - starts
    spans = centers[ends - 1] - centers[starts]
    fits = (spans + 20.0 * sigma) * _CELLS_PER_SD / sigma <= _MAX_GRID
    if method == "grid":
        if not fits.all():
            k = int(np.argmin(fits))
            raise ValueError(
                f"method 'grid' needs a table of more than {_MAX_GRID} cells for a "
                f"cluster of {sizes[k]} particles spanning {spans[k] / sigma:.4g} sigma; "
                "use method 'auto' or 'bisect'"
            )
        tabled = fits
    elif method == "auto":
        tabled = fits & (sizes >= _MIN_GRID_N)
    else:
        tabled = np.zeros_like(fits)

    out = np.empty(n)
    for s, e in zip(starts[tabled], ends[tabled]):
        out[s:e] = _resample_grid(centers[s:e], sigma, midpoint_nodes(e - s), tol, _CELLS_PER_SD)
    rest = np.flatnonzero(np.repeat(~tabled, sizes))
    if rest.size:
        # the quantile at node (i - 1/2)/N always lies within 9 sigma of the
        # i-th sorted center, so these brackets are guaranteed
        half = _WINDOW_SD * sigma + tol
        near = centers[rest]
        out[rest] = _bisect_nodes(centers, sigma, targets[rest], near - half, near + half, tol)
    return out


def heat_resample(
    pq: ParticleQuantiles, sigma: float, tol: float = DEFAULT_TOL, method: str = "auto"
) -> ParticleQuantiles:
    """Quantiles of the Gaussian-smoothed particle CDF at the midpoint nodes.

    ``method`` is "auto" (a table for each cluster of at least 48 particles
    whose table fits, bisection for the rest), "grid" (a table for every
    cluster; ``ValueError`` if one would exceed the grid limit) or "bisect";
    all agree within ``tol``.
    """
    if not (sigma > 0.0):
        raise ValueError(f"sigma must be positive, got {sigma}")
    if not (tol > 0.0):
        raise ValueError(f"tolerance must be positive, got {tol}")
    centers = pq.positions
    if not np.all(np.isfinite(centers)):
        raise ValueError("positions must be finite")
    if method not in ("auto", "grid", "bisect"):
        raise ValueError(f"unknown method {method!r}")
    pos = _resample_clusters(centers, sigma, midpoint_nodes(pq.n), tol, method)
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
