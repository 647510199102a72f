"""Entropy-inequality screening for discrete solution trajectories.

A trajectory of CDF states is tested against the weak entropy inequality
for the family E(u) = |u - k|, F(u) = sign(u - k) (f(u) - f(k)) and a fixed
family of nonnegative tensor-product polynomial bumps.  The residual of a
bump phi is

    R(phi) = -( integral of E(u) phi_t + F(u) phi_x over time and space
                + integral of E(u at t0) phi(t0, .) over space )

which is nonpositive for an entropy-admissible trajectory.  States are
piecewise constant in x, so the space integrals are evaluated exactly from
the bump's closed-form antiderivative; time is integrated by the trapezoid
rule over the given snapshots.  States are read as quantile staircases;
tied positions give pieces of zero width, which add exactly 0, so the
result is that of the deduplicated CDFs bit for bit.  This is a
necessary-condition screen (a clearly positive residual certifies
inadmissibility), not a proof of admissibility; its noise floor shrinks
with the particle count and the snapshot spacing of the supplied states.

The space integrals are computed in one pass over the x-bumps, for every
level at once.  Each snapshot's levels are nondecreasing in x, so for a
level k the signs of L - k split a snapshot's pieces at the count of levels
below k: pieces left of the split enter every integral with sign -1, the
rest with +1 (a piece with L = k contributes 0 on either side).  A prefix
sum over the pieces of one x-bump therefore gives the integrals for all
levels.

The snapshots are screened in blocks of consecutive rows, each block
running every x-bump before the next block is padded.  A block holds as
many snapshots as fit its (rows x pieces + 1) prefix table in
``_BLOCK_BYTES`` (at least one), so a bump's working arrays stay in a core's
L2 cache, and working memory beyond the staircases and the (levels x bumps x
snapshots) integrals is a few such arrays, whatever the number of
snapshots, bumps or levels.  Every row is padded to the widest staircase
and its arithmetic does not depend on the block holding it, so the result
is the same bits for any block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fluxes import FluxModel
from .measures import _checked, _checked_count, quantile_staircase

__all__ = ["BumpFamily", "entropy_residuals", "entropy_residual"]


@dataclass(frozen=True)
class BumpFamily:
    """Tensor-product test functions psi((t-tc)/rt) psi((x-xc)/rx) with
    psi(s) = (1 - s^2)^3, centers on uniform grids.  Time centers are kept
    low enough that no bump needs data beyond the last snapshot.

    Radii are fractions of the padded x-range (at most 1/2, so every bump
    fits inside it) and of the time span (at most 1)."""

    n_centers_t: int = 6
    n_centers_x: int = 12
    radii_t: tuple = (0.5, 0.25)
    radii_x: tuple = (0.4, 0.2)
    pad_x: float = 0.5

    def __post_init__(self):
        for name in ("n_centers_t", "n_centers_x"):
            _checked_count(getattr(self, name), f"BumpFamily.{name}")
        for name, top in (("radii_t", 1.0), ("radii_x", 0.5)):
            radii = np.asarray(getattr(self, name), dtype=float)
            if radii.ndim != 1 or radii.size == 0 or not np.all((radii > 0.0) & (radii <= top)):
                raise ValueError(
                    f"BumpFamily.{name} must be a non-empty sequence of values in (0, {top:g}],"
                    f" got {getattr(self, name)!r}"
                )
        _checked(self.pad_x, "BumpFamily.pad_x")


_ANTI_EDGE = 1.0 - 1.0 + 0.6 - 1.0 / 7.0  # antiderivative of the bump at s=1
# bytes of a block's (rows, pieces + 1) prefix table (module docstring): 7
# rows at N = 1024.  The benchmark's entropy job (65 snapshots, N = 1024,
# 11 levels; 2-core Xeon, 2 MiB of L2 per core, median of 9) took 72 ms at
# 128 and 256 KiB, 84 ms at 64 KiB, 88 ms at 512 KiB, 127 ms at 1 MiB and
# 132 ms with all 65 snapshots in one block
_BLOCK_BYTES = 128 * 1024


def _bump(s):
    q = np.maximum(1.0 - s * s, 0.0)
    return q * q * q


def _bump_deriv(s):
    q = np.maximum(1.0 - s * s, 0.0)
    return -6.0 * s * q * q


def _bump_antideriv(s):
    """Integral of (1-s^2)^3 from -1 to s, flat outside the support."""
    s = np.clip(s, -1.0, 1.0)
    s2 = s * s
    return s * (1.0 + s2 * (-1.0 + s2 * (0.6 - s2 / 7.0))) + _ANTI_EDGE


def _checked_levels(ks) -> np.ndarray:
    ks = np.asarray(ks, dtype=float)
    if ks.ndim != 1:
        raise ValueError(f"entropy levels must form a 1-d sequence, got shape {ks.shape}")
    outside = ~((ks >= 0.0) & (ks <= 1.0))  # nan included
    if np.any(outside):
        raise ValueError(f"entropy level must lie in [0, 1], got {ks[outside][0]}")
    return ks


def _padded_block(stairs, width):
    """Edge and level matrices of a block of quantile staircases, padded to
    ``width`` edges.

    Padding repeats the last edge, so the padded pieces have zero width and
    drop out of every integral; levels get the final value 1.
    """
    edges = np.empty((len(stairs), width))
    levels = np.ones((len(stairs), width + 1))
    for i, (lev, pos) in enumerate(stairs):
        m = pos.size
        edges[i, :m] = pos
        edges[i, m:] = pos[-1]
        levels[i, 0] = 0.0
        levels[i, 1 : m + 1] = lev
    return edges, levels


def _split_sums(prefix, values, flat_split, shifts, weighted):
    """For every level k and snapshot t, the sum over pieces p of
    sign(L_tp - k) * w_tp * (values_tp - shifts_k), where w = diff(prefix)
    are the piece weights and flat_split[k, t] indexes the split of row t
    in the raveled prefix table.  ``weighted`` is a work array shaped like
    ``prefix`` whose first column is 0."""
    np.cumsum(np.diff(prefix, axis=1) * values, axis=1, out=weighted[:, 1:])
    below = prefix.ravel()[flat_split]
    below_weighted = weighted.ravel()[flat_split]
    return (weighted[:, -1] - 2.0 * below_weighted) - shifts[:, None] * (
        prefix[:, -1] - 2.0 * below
    )


def entropy_residuals(states, flux: FluxModel, ks, grid: BumpFamily | None = None) -> np.ndarray:
    """Largest bump residual of the trajectory for each entropy level in ks.

    ``states`` is a list of (t, state) pairs at uniformly spaced times; the
    states are anything with a quantile staircase.  ``ks`` is a 1-d sequence of
    levels in [0, 1].  All levels share one pass over the bumps.  Output at
    or below the quadrature noise floor is consistent with admissibility.
    """
    ks = _checked_levels(ks)
    if grid is None:
        grid = BumpFamily()
    if len(states) < 3:
        raise ValueError("need at least 3 snapshots to screen a trajectory")
    times = np.array([float(t) for t, _ in states])
    dts = np.diff(times)
    if np.any(dts <= 0) or not np.allclose(dts, dts[0], rtol=1e-9, atol=1e-12):
        raise ValueError("snapshots must be at uniformly spaced increasing times")
    stairs = [quantile_staircase(state) for _, state in states]
    x_min = min(pos[0] for _, pos in stairs) - grid.pad_x
    x_max = max(pos[-1] for _, pos in stairs) + grid.pad_x
    if not x_max > x_min:
        raise ValueError(
            f"the padded x-range of the snapshots has zero width: every state is one atom"
            f" at {x_min:g} and BumpFamily.pad_x = {grid.pad_x:g} does not widen it"
        )
    t0, t1 = times[0], times[-1]
    f_ks = flux.value(ks)

    x_bumps = []
    for rx_frac in grid.radii_x:
        rx = rx_frac * (x_max - x_min)
        x_bumps += [(rx, xc) for xc in np.linspace(x_min + rx, x_max - rx, grid.n_centers_x)]

    # space integrals per (level, x-bump, snapshot): E against the bump and
    # F against its x-derivative, exact on the piecewise-constant states,
    # for one block of snapshot rows at a time (module docstring)
    e_int = np.empty((ks.size, len(x_bumps), times.size))
    f_int = np.empty_like(e_int)
    width = max(pos.size for _, pos in stairs)  # edges; a row has width + 1 pieces
    n_rows = max(1, _BLOCK_BYTES // (8 * (width + 2)))
    for r0 in range(0, times.size, n_rows):
        block = stairs[r0 : r0 + n_rows]
        edges, levels = _padded_block(block, width)
        f_levels = flux.value(levels)
        # rows of levels are nondecreasing, so the pieces with L < k are a
        # prefix of each row; flat_split[k, t] is its length, offset into
        # row t of the raveled (rows, pieces + 1) prefix table
        split = np.stack([np.searchsorted(row, ks, side="left") for row in levels], axis=1)
        flat_split = split + (width + 2) * np.arange(len(block))
        # prefix table, reused by every bump: 0 before the first piece, the
        # bump's integral (or value) at the edges and its total (or 0) after
        # the last piece
        prefix = np.zeros((len(block), width + 2))
        weighted = np.zeros_like(prefix)
        rows = slice(r0, r0 + len(block))
        for b, (rx, xc) in enumerate(x_bumps):
            s = (edges - xc) / rx
            prefix[:, 1:-1] = _bump_antideriv(s) * rx
            prefix[:, -1] = 2.0 * _ANTI_EDGE * rx
            e_int[:, b, rows] = _split_sums(prefix, levels, flat_split, ks, weighted)
            prefix[:, 1:-1] = _bump(s)
            prefix[:, -1] = 0.0
            f_int[:, b, rows] = _split_sums(prefix, f_levels, flat_split, f_ks, weighted)

    # time bump samples, trapezoid weights folded in
    wt = np.full(times.size, dts[0])
    wt[0] *= 0.5
    wt[-1] *= 0.5
    psi_t, dpsi_t = [], []
    for rt_frac in grid.radii_t:
        rt = rt_frac * (t1 - t0)
        for tc in np.linspace(t0, t1 - rt, grid.n_centers_t):
            arg = (times - tc) / rt
            psi_t.append(_bump(arg))
            dpsi_t.append(_bump_deriv(arg) / rt)
    psi_t = np.array(psi_t)  # (n_tbumps, n_times)
    dpsi_t = np.array(dpsi_t)

    acc = e_int @ (wt * dpsi_t).T + f_int @ (wt * psi_t).T  # (n_ks, n_xbumps, n_tbumps)
    acc += e_int[:, :, :1] * psi_t[:, 0]
    return -acc.min(axis=(1, 2))


def entropy_residual(states, flux: FluxModel, k: float, grid: BumpFamily | None = None) -> float:
    """Largest bump residual of the trajectory for the entropy level k; see
    ``entropy_residuals``."""
    return float(entropy_residuals(states, flux, [float(k)], grid)[0])
