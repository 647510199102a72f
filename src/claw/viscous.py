"""Viscous time stepping: heat-kernel smoothing after transport-collapse.

One viscous step applies the inviscid transport-collapse step and then
convolves the result with a centered Gaussian of variance 2*nu*h, returning
to the particle representation by resampling the smoothed CDF at the
midpoint quantile nodes.

The smoothed CDF is the mixture F(x) = (1/N) sum_j Phi((x - c_j)/sigma).
It is evaluated exactly by summing only the centers within 9 sigma of x,
right of the median as 1 - F, and counting farther centers as full mass or
none (truncation error below 2.3e-19); the same terms give the density F'.
Tables propose and one exact solve finishes.  The exact solver runs a
Newton iteration on F and F' and returns x once F(x - tol/2) <= w <=
F(x + tol/2) or its bracket is narrower than tol.  Its one bracket, 10 sigma
+ tol beyond the outermost centers, holds by construction (``_REACH_SD``).

The CDF table holds F, F' and F'' on a uniform grid of 32 cells per sigma.
Each atom is spread onto its 8 nearest cells with the degree-7 cardinal
B-spline, whose weights are one matrix product with no exp.  The spectrum
of the spread is multiplied by exp(-sigma^2 xi^2/2)/sinc^8(xi delta/2),
which undoes the B-spline and applies the Gaussian, on the band where the
Gaussian is nonzero in double precision; the B-spline's two nearest
images alias into that band at most 2 (xi delta/2 pi)^8 times the
Gaussian, below 6e-17.  Three inverse transforms give F (with the
spectral antiderivative), F' and F''; the table is within 1e-14
(``_TABLE_ERR``) of the exact F, sigma F' and sigma^2 F'' (measured: below
3e-15).  Each quintic Hermite cell through F, F', F'' at its ends is
inverted by Newton's method from the secant value, safeguarded by a
bracket.  A node is certified, |x - x*| <= tol/2, when
min_slope * tol >= 2 (hermite_err + table_err).  The interpolation bound
is hermite_err = (delta^6/46080) sup|phi^(5)|/sigma^6 = 2.31/(46080 * 32^6)
= 4.7e-14; table_err = 1.01e-14 is the table's error carried through the
Hermite basis, no longer negligible beside it.  min_slope, the smaller
density at the cell's ends less (delta^2/8) sup|F'''| and the table's
density error, bounds the density in the cell from below.  Nodes in
near-flat cells, where the certificate fails, are left uncertified.

``heat_resample`` first cuts the sorted centers wherever a gap exceeds
20 sigma.  Within 10 sigma of a cluster every other center lies more than
9 sigma away, so there F(x) = (L + n_c F_c(x))/N, with L centers left of
the cluster and F_c the mixture of its own n_c centers.  The quantile at a
node lies within 9 sigma of the center of the same rank, so the global
node (L + j + 1/2)/N is exactly the cluster's node (j + 1/2)/n_c and each
cluster's table is inverted on its own.  Clusters of at least 48 particles
are tabled; with its padding a table spans at most 20*n_c sigma, or 640*n_c
cells, so its cost depends on n_c and not on the span of the data.  Smaller
clusters, and those whose table would span more than ``_MAX_TABLE_SD`` =
21845 sigma (n_c above about 1092), get none.  Every node starts at its
same-rank center, a table overwrites its cluster's nodes, and one exact
solve over all the centers finishes every node that no table certified.

The table's transforms are numpy's (``numpy.fft``, at the 11-smooth length
``_next_fast_len``), and scipy, for ``ndtr``, is imported on the first
exact window sum.  ``import claw`` and every run whose clusters are all
tabled thus skip scipy's import time and memory.  The tables were checked
bit for bit against ``scipy.fft`` on numpy 2.4.6 only; numpy 1.x ships an
older pocketfft, whose last digits may differ within ``_TABLE_ERR``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fluxes import FluxModel
from .measures import ParticleQuantiles, _check_cdf_arg, _check_quantile_arg, _checked, midpoint_nodes
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

# exact-evaluation window, in standard deviations; truncation error in the
# CDF is below 2.3e-19 in absolute value
_WINDOW_SD = 9.0
# most (query, center) terms one block of the exact window sum holds; its
# working arrays peak near five times this many 8-byte values (40 MiB)
_BLOCK_TERMS = 1 << 20
# reach beyond the outermost centers, in standard deviations, of the
# solver's bracket, the tol check and a CDF table's padding.  Every center
# is more than 9 sigma inside the bracket, so F is exactly 0 and 1 at its
# ends; a tol of two float spacings at the reach covers their rounding
_REACH_SD = 10.0
# CDF table resolution, in cells per sigma
_CELLS_PER_SD = 32
# clusters whose table, padding included, would span more than this many
# sigma go to the exact solver.  Tabling them instead, in windows capped by
# span, helps only dense data, and is slow where the solver's windows hold
# few centers: 2000 centers on [0, 1] plus 1200 centers 19 sigma apart
# (sigma = 1) took 1001 -> 173 ms, but 2000 centers 19 sigma apart 1.4 ->
# 273 ms and 8000 centers 15 sigma apart (sigma = 0.1) 4 -> 938 ms
_MAX_TABLE_SD = 21845.0
# sup |phi^(5)| = sup |(z^5 - 10 z^3 + 15 z) phi(z)| = 2.3071 for the unit
# Gaussian density phi; the quintic Hermite error bound is
# (delta^6/46080) * sup|F^(6)| <= 2.31/(46080 * cells^6)
_PHI5_BOUND = 2.31
# sup |phi''|/8 = 0.04987: the density inside a cell undershoots its
# endpoint values by at most (delta^2/8) * sup|F'''|
_SLOPE_SLACK = 0.0499
# allowance for the table's own rounding error in F, sigma*F' and
# sigma^2*F''; the Hermite basis carries the errors at a cell's ends into
# the cell at most 1, 0.198/cells and 0.0173/cells^2 times, which
# _TABLE_BASIS covers
_TABLE_ERR = 1e-14
_TABLE_BASIS = 1.01
# exp(-(sigma*xi)^2/2) is zero in double precision beyond sigma*xi = 38.59
_BAND_SD = math.sqrt(-2.0 * math.log(math.ulp(0.0)))
# gaps wider than this many standard deviations split the centers into
# clusters that are resampled independently: any point within a table's
# padding of one cluster is then more than _REACH_SD from every other
# cluster, outside the evaluation window
_GAP_SD = 2.0 * _REACH_SD
# clusters with fewer particles get no table.  48 is near the measured
# crossover (clusters spread on [0, 1], 10 apart, sigma = 0.1; best of 5 on
# a 2-core Xeon): tabling every cluster of 2 or more instead took 512
# clusters of 2 from 0.5 to 135 ms, 128 of 8 from 3.0 to 58 ms and 32 of 32
# from 8.5 to 11 ms, and won only near 48 (21 of 47: 10.3 -> 7.0 ms)
_MIN_GRID_N = 48
# safeguarded Newton iteration on the quintic cells: stop once no step
# moves by more than this fraction of a cell
_NEWTON_STEP_TOL = 2.0**-40
_NEWTON_MAX_ITER = 64


def _bspline_matrix() -> np.ndarray:
    """C such that vander(s, 8, increasing=True) @ C holds the weights of an
    atom at offset s + 1/2 into its cell on the cells from 3 before to 4
    after it: the degree-7 cardinal B-spline
    (1/7!) sum_i (-1)^i C(8, i) (x + 4 - i)_+^7 at x = k - 7/2 - s.  The
    entries are exact integers over 7! * 2^7, rounded once."""
    num = [
        [
            math.comb(7, p) * (-2) ** p
            * sum((-1) ** i * math.comb(8, i) * (2 * k + 1 - 2 * i) ** (7 - p) for i in range(k + 1))
            for k in range(8)
        ]
        for p in range(8)
    ]
    return np.array(num) / (5040 * 128)


_BSPLINE = _bspline_matrix()


@dataclass(frozen=True)
class SmoothedCdf:
    """Gaussian-smoothed particle CDF; strictly increasing with limits 0/1."""

    centers: ParticleQuantiles
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "sigma", _checked(self.sigma, "sigma", strict=True))

    def __call__(self, x):
        return smoothed_cdf_eval(self, x)


def _ragged_window_eval(centers: np.ndarray, sigma: float, x: np.ndarray, density: bool = False):
    """Exact mixture CDF at query points, summing only centers within the
    9-sigma window and counting farther centers as full mass or none; with
    ``density`` also the mixture density, from the same window terms.

    Right of the median center the sum is of the mass right of x, and F is
    its complement, so F near 1 does not carry the rounding of a sum near
    N.  Each query's terms are summed pairwise.  The queries are taken in
    blocks of at most ``_BLOCK_TERMS`` terms, cut between queries; a query
    with more terms than that is a block of its own."""
    from scipy.special import ndtr  # the only scipy import (module docstring)

    n = centers.size
    half = _WINDOW_SD * sigma
    lo = np.searchsorted(centers, x - half, side="right")
    hi = np.searchsorted(centers, x + half, side="right")
    counts = hi - lo
    ends = np.cumsum(counts)
    right = x > centers[n // 2]
    mass = np.where(right, n - hi, lo).astype(float)
    dens = np.zeros(x.size)
    start = 0
    while start < x.size:
        cap = ends[start] - counts[start] + _BLOCK_TERMS
        stop = max(int(np.searchsorted(ends, cap, side="right")), start + 1)
        c = counts[start:stop]
        first = np.cumsum(c) - c
        owner = np.repeat(np.arange(start, stop), c)
        # term k of query q sums center lo[q] + (k - first term of q)
        idx = np.arange(first[-1] + c[-1]) + np.repeat(lo[start:stop] - first, c)
        z = (x[owner] - centers[idx]) / sigma
        np.negative(z, out=z, where=right[owner])
        mass[start:stop] += _query_sums(ndtr(z), first, c)
        if density:
            dens[start:stop] = _query_sums(np.exp(-0.5 * z * z), first, c)
        start = stop
    mass /= n
    cdf = np.where(right, 1.0 - mass, mass)
    if not density:
        return cdf
    return cdf, dens / (n * sigma * math.sqrt(2.0 * math.pi))


def _query_sums(terms, first, counts):
    """Pairwise sum of each query's run of terms, 0 for a query with none.
    ``reduceat`` is given only the runs that have terms, so each run ends
    where the next begins or at the end of ``terms``, and its sum does not
    depend on where in ``terms`` the run lies."""
    out = np.zeros(counts.size)
    some = counts > 0
    out[some] = np.add.reduceat(terms, first[some])
    return out


def smoothed_cdf_eval(sc: SmoothedCdf, x):
    """(1/N) sum_j Phi((x - x_j)/sigma), vectorized over x."""
    x_arr = np.atleast_1d(_check_cdf_arg(x))
    out = _ragged_window_eval(sc.centers.positions, sc.sigma, x_arr)
    return float(out[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else out


def smoothed_quantile(sc: SmoothedCdf, w: float, tol: float = DEFAULT_TOL) -> float:
    """The unique x with F(x) = w, within tol/2, by the exact solver started
    at the center of the same rank.  A tol below twice the float spacing at
    max|x_j| + 10 sigma is rejected."""
    w = _check_quantile_arg(w)
    if w.ndim != 0:
        raise ValueError(f"quantile level w must be a single number, got {w.tolist()!r}")
    c = sc.centers.positions
    tol = _check_tol(tol, c, sc.sigma)
    start = c[min(int(w * c.size), c.size - 1)]
    return float(_solve_nodes(c, sc.sigma, w[None], np.array([start]), tol)[0])


def _check_tol(tol: float, centers, sigma: float) -> float:
    """``tol`` as a float, once it is a finite number above 0 and at least
    two float spacings at the solver's reach, max|x_j| + 10 sigma: below
    that the probes x -+ tol/2 round onto x or its neighbours, and the
    solver would run to its pass cap uncertified."""
    tol = _checked(tol, "tolerance", strict=True)
    reach = max(abs(centers[0]), abs(centers[-1])) + _REACH_SD * sigma
    least = float(2.0 * np.spacing(reach))
    if not (tol >= least):
        raise ValueError(
            f"tolerance must be at least {least!r}, twice the float spacing at "
            f"|x| = {reach:g}, got {tol!r}"
        )
    return tol


def _bracket(centers, sigma: float, tol: float) -> tuple[float, float]:
    """The solver's bracket, where F is exactly 0 and 1 (see ``_REACH_SD``)."""
    reach = _REACH_SD * sigma + tol
    return centers[0] - reach, centers[-1] + reach


def _solve_nodes(centers, sigma, targets, x, tol) -> np.ndarray:
    """Roots of F = targets within tol/2 from starts x, each in the bracket
    of ``_bracket``.  A Newton pass takes F and F' at x from one window
    sum; after a step of at most tol/2 a certifying pass ends the node if
    F(x - tol/2) <= w <= F(x + tol/2).  Every probe moves a bracket end; a
    bracket narrower than tol ends the node at its midpoint, which also
    replaces a failed certificate and a Newton step leaving the bracket."""
    left, right = _bracket(centers, sigma, tol)
    x, lo, hi = x.copy(), np.full(targets.size, left), np.full(targets.size, right)
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
            probes = np.concatenate([xa - half, xa + half])
            f_lo, f_hi = np.split(_ragged_window_eval(centers, sigma, probes), 2)
            done = (f_lo <= w) & (w <= f_hi)
            lo[act] = la = np.where(f_hi <= w, xa + half, lo[act])
            hi[act] = ha = np.where(f_lo > w, xa - half, hi[act])
            x[act] = np.where(done, xa, 0.5 * (la + ha))
            due[act] = False
            act = act[~done]
    return x


def _next_fast_len(n: int) -> int:
    """The least 11-smooth integer >= n >= 1, the length pocketfft
    transforms fastest (what ``scipy.fft.next_fast_len`` returns)."""
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _grid_cdf_table(centers, sigma):
    """(x0, delta, F, F', F''): the mixture CDF and its derivatives on the
    grid x0 + delta*k of 32 cells per sigma from 10 sigma left of the first
    center to 10 sigma right of the last, with F, sigma*F' and sigma^2*F''
    within _TABLE_ERR."""
    n = centers.size
    delta = sigma / _CELLS_PER_SD
    x0 = centers[0] - _REACH_SD * sigma
    g0 = int(math.ceil((centers[-1] + _REACH_SD * sigma - x0) / delta)) + 2
    m = _next_fast_len(g0)

    # B-spline weights of each atom on its 8 nearest cells; the offsets are
    # taken from x0, not from the absolute grid points, whose rounding far
    # from the origin would swamp the short distances.  The sorted atoms of
    # one cell are summed pairwise before they are spread: summed in
    # sequence, the atoms of a collapsed shock would carry a rounding error
    # that grows with their count into F (1.1e-13 for 8192 atoms)
    u = (centers - x0) / delta
    cell = np.floor(u)
    # the powers 0..7 of each atom's offset, one row per power: the same
    # products as np.vander, whose accumulate along the short axis is slow
    powers = np.empty((8, n))
    powers[0] = 1.0
    powers[1] = u - cell - 0.5
    for p in range(2, 8):
        np.multiply(powers[p - 1], powers[1], out=powers[p])
    weights = powers.T @ _BSPLINE
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    np.not_equal(cell[1:], cell[:-1], out=starts[1:])
    first = np.flatnonzero(starts)
    weights = np.add.reduceat(weights, first, axis=0)
    idx = cell[first].astype(np.int64)[:, None] + np.arange(-3, 5)
    spread = np.bincount(idx.ravel(), weights=weights.ravel(), minlength=m)

    # the Gaussian over the B-spline's transform sinc^8(xi*delta/2), on the
    # band where the Gaussian is nonzero; the spectrum is zero beyond it
    k = np.arange(int(_BAND_SD * m * delta / (2.0 * math.pi * sigma)) + 1)
    xi = (2.0 * math.pi / (m * delta)) * k
    gain = np.exp(-0.5 * (sigma * xi) ** 2) / (n * delta * np.sinc(k / m) ** 8)
    # one inverse transform of the stacked spectra of F's periodic part,
    # F' and F'', whose rows are the same bits as three separate ones
    spectra = np.zeros((3, k.size), dtype=complex)
    dens_hat = spectra[1]
    np.multiply(np.fft.rfft(spread)[: k.size], gain, out=dens_hat)
    spectra[0, 1:] = dens_hat[1:] / (1j * xi[1:])
    spectra[2] = 1j * xi * dens_hat
    f_part, dens, curv = np.fft.irfft(spectra, m)[:, :g0]
    ramp = (dens_hat[0].real / m) * delta * np.arange(g0)
    f_grid = f_part + ramp - f_part[0]

    f_grid = np.minimum(np.maximum.accumulate(np.maximum(f_grid, 0.0)), 1.0)
    return x0, delta, f_grid, dens, curv


def _resample_grid(centers, sigma, targets, tol):
    """(positions, certified): the table's inverse at ``targets`` and which
    of its nodes the certificate proves within tol/2."""
    x0, delta, f_grid, dens, curv = _grid_cdf_table(centers, sigma)
    g0 = f_grid.size

    i1 = np.clip(np.searchsorted(f_grid, targets, side="left"), 1, g0 - 1)
    i0 = i1 - 1
    f0 = f_grid[i0]
    sec = f_grid[i1] - f0
    d0, d1 = delta * dens[i0], delta * dens[i1]
    e0, e1 = delta * delta * curv[i0], delta * delta * curv[i1]

    # the quintic Hermite cell p(t) = f0 + d0 t + (e0/2) t^2 + c3 t^3 +
    # c4 t^4 + c5 t^5 matching F, F' and F'' at both ends, inverted by
    # Newton's method from the secant value, kept inside the bracket
    # [t_lo, t_hi]; a step that leaves the bracket is replaced by the
    # bracket's midpoint
    ra, rb, rc = sec - d0 - 0.5 * e0, d1 - d0 - e0, e1 - e0
    c2 = 0.5 * e0
    c3 = 10.0 * ra - 4.0 * rb + 0.5 * rc
    c4 = -15.0 * ra + 7.0 * rb - rc
    c5 = 6.0 * ra - 3.0 * rb + 0.5 * rc
    rhs = targets - f0
    t_lo = np.zeros_like(targets)
    t_hi = np.ones_like(targets)
    # p(t) - rhs and p'(t) by Horner, each written into one buffer
    c5x5, c4x4, c3x3 = 5.0 * c5, 4.0 * c4, 3.0 * c3
    resid = np.empty_like(targets)
    slope = np.empty_like(targets)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(sec > 0.0, np.clip(rhs / sec, 0.0, 1.0), 0.5)
        for _ in range(_NEWTON_MAX_ITER):
            np.multiply(c5, t, out=resid)
            for c in (c4, c3, c2, d0):
                resid += c
                resid *= t
            resid -= rhs
            below = resid <= 0.0
            t_lo = np.where(below, t, t_lo)
            t_hi = np.where(below, t_hi, t)
            np.multiply(c5x5, t, out=slope)
            for c in (c4x4, c3x3, e0):
                slope += c
                slope *= t
            slope += d0
            step = t - resid / slope
            # a step onto a bracket end is kept: at convergence the iterate
            # is the end just moved, and a strict test would bisect forever
            t_next = np.where((step >= t_lo) & (step <= t_hi), step, 0.5 * (t_lo + t_hi))
            moved = np.max(np.abs(t_next - t))
            t = t_next
            if moved <= _NEWTON_STEP_TOL:
                break
    out = x0 + delta * (i0 + t)

    # certify |x - x*| <= tol/2: p misses F by at most the interpolation
    # bound plus the table error it carries, and the density stays above
    # min_slope in the cell
    hermite_err = _PHI5_BOUND / 46080.0 / float(_CELLS_PER_SD) ** 6
    table_err = _TABLE_BASIS * _TABLE_ERR
    slack = (_SLOPE_SLACK / float(_CELLS_PER_SD) ** 2 + _TABLE_ERR) / sigma
    min_slope = np.minimum(dens[i0], dens[i1]) - slack
    return out, min_slope * tol >= 2.0 * (hermite_err + table_err)


def _resample_clusters(centers, sigma, targets, tol) -> np.ndarray:
    """Quantiles at the global nodes ``targets``, solved cluster by cluster
    (see the module docstring)."""
    n = centers.size
    cuts = np.flatnonzero(np.diff(centers) > _GAP_SD * sigma) + 1
    starts = np.concatenate(([0], cuts))
    ends = np.concatenate((cuts, [n]))
    sizes = ends - starts
    spans = centers[ends - 1] - centers[starts]
    tabled = (sizes >= _MIN_GRID_N) & (spans + 2.0 * _REACH_SD * sigma <= _MAX_TABLE_SD * sigma)

    # every node starts at its same-rank center, within 9 sigma of its
    # quantile; a table overwrites its cluster's nodes with its proposals
    out = centers.copy()
    certified = np.zeros(n, dtype=bool)
    for s, e in zip(starts[tabled], ends[tabled]):
        out[s:e], certified[s:e] = _resample_grid(centers[s:e], sigma, midpoint_nodes(e - s), tol)
    rest = np.flatnonzero(~certified)
    if rest.size:
        out[rest] = _solve_nodes(centers, sigma, targets[rest], out[rest], tol)
    return out


def heat_resample(
    pq: ParticleQuantiles, sigma: float, tol: float = DEFAULT_TOL
) -> ParticleQuantiles:
    """Quantiles of the Gaussian-smoothed particle CDF at the midpoint nodes,
    each within ``tol`` of the exact one.  A tol below twice the float
    spacing at the solver's reach, max|x_j| + 10 sigma, is rejected.

    The tables of clusters of at least 48 particles propose their nodes;
    one exact solve, started at the proposal or at the same-rank center,
    finishes every node no table certified (see the module docstring).
    """
    sigma = _checked(sigma, "sigma", strict=True)
    centers = pq.positions
    tol = _check_tol(tol, centers, sigma)
    pos = _resample_clusters(centers, sigma, midpoint_nodes(pq.n), tol)
    return ParticleQuantiles(np.sort(pos, kind="stable"))


def viscous_step(
    pq: ParticleQuantiles,
    flux: FluxModel,
    h: float,
    nu: float,
) -> ParticleQuantiles:
    """Transport-collapse step followed by heat smoothing of variance 2*nu*h."""
    h = _checked(h, "step size h", strict=True)
    nu = _checked(nu, "viscosity nu", strict=True)
    return heat_resample(th_step(pq, flux, h), math.sqrt(2.0 * nu * h))


def viscous_trajectory(
    pq0: ParticleQuantiles,
    flux: FluxModel,
    h: float,
    nu: float,
    times,
) -> list[SchemeState]:
    """Viscous scheme states at an ascending list of times."""
    h = _checked(h, "step size h", strict=True)
    nu = _checked(nu, "viscosity nu", strict=True)
    speeds = h * flux.deriv(midpoint_nodes(pq0.n))
    sigma = math.sqrt(2.0 * nu * h)

    def step_fn(pos):
        moved = _step_positions(pos, speeds)
        return heat_resample(ParticleQuantiles(moved), sigma).positions

    return sh_trajectory(pq0, flux, h, times, step_fn=step_fn)


def evolve_viscous(
    pq0: ParticleQuantiles,
    flux: FluxModel,
    h: float,
    nu: float,
    t: float,
) -> SchemeState:
    """Viscous scheme state at a single time t >= 0."""
    return viscous_trajectory(pq0, flux, h, nu, [t])[0]
