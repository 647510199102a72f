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
rule over the given snapshots.  States are read as quantile staircases
with each run of tied positions merged into its last level, as
``as_step_cdf`` merges it, so the result is that of the deduplicated CDFs
bit for bit.  This is a necessary-condition screen (a clearly positive
residual certifies inadmissibility), not a proof of admissibility; its
noise floor shrinks with the particle count and the snapshot spacing of
the supplied states.

The space integrals are computed in one pass over the x-bumps, for every
level at once.  Each snapshot's levels are nondecreasing in x, so for a
level k the signs of L - k split a snapshot's pieces at the count S of
levels below k: pieces left of the split enter every integral with sign
-1, the rest with +1 (a piece with L = k contributes 0 on either side).
An integral therefore needs the weighted sum of the pieces left of each
split and of all pieces.  With P_e the bump's antiderivative (or value) at
edge e, P_0 = 0 left of the first edge, and v_p the level L (or f(L)) of
piece p, summation by parts gives

    sum_{p<S} (P_{p+1} - P_p) v_p = P_S v_{S-1} - sum_{1<=e<S} P_e (v_e - v_{e-1}).

The splits and the jumps v_e - v_{e-1} do not depend on the bump.  Per
bump, one ``np.add.reduceat`` sums P times the jumps between consecutive
splits of every row, and a cumulative sum over these levels + 1 segment
sums gives the sums left of every split and over all edges; no running sum
over the edges is built.  Segment sums are pairwise, so pieces of zero
width would change their rounding: merging tied positions first keeps a
state and its deduplicated CDF the same bits.

The snapshots are screened in blocks of consecutive rows, each block
running every x-bump before the next block starts.  A block holds as many
snapshots as fit its largest per-bump array, the (2, edges) weights of E
and F, in ``_BLOCK_BYTES`` (at least one), sized from an upper bound on
each staircase's width (a particle system's count, a mixture's two counts
summed), so a bump's working arrays stay in a core's L2 cache.  The x-range
is read from each state's first and last positions, so a block's
deduplicated staircases are built when the block starts and dropped before
the next block: working memory beyond the (levels x bumps x snapshots)
integrals is one block's staircases and a few such arrays, whatever the
number of snapshots, bumps or levels.  A block lays its staircases end to
end along one edge axis, and a row's segments start at indices along it:
its first edge, then its splits.  A row's segments run from its first edge
to its first split, between its splits, and from its last split to where
the next row begins, so each segment sum covers edges of one row only, in
the same order whatever block holds the row: the result is the same bits
for any block size.  Every row, the level k = 0 included, counts the L = 0
piece left of its first edge as left of the split; at k = 0 that piece has
L = k and adds 0, exactly where f(0) = +-0 and to rounding otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fluxes import FluxModel
from .measures import (
    _checked,
    _checked_count,
    _deduplicated_staircase,
    _numeric_array,
    _position_runs,
)

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
# bytes of a block's (2, edges) weights, its largest per-bump array (module
# docstring), at the 2N-edge bound of a mixture row: 6 rows at N = 1024.
# The benchmark's entropy job (65 snapshots, N = 1024, 11 levels; 2-core
# Xeon, 2 MiB of L2 per core, medians of 11 interleaved calls in each of 3
# processes) takes 40-41 ms at 64 KiB, 34-36 ms at 96 KiB, 32-33 ms at 128
# KiB, 31-32 ms at 160 and 192 KiB, 30-31 ms at 256 and 512 KiB, 35 ms at 1
# MiB and 41 ms with all 65 snapshots in one block.  The screen's
# tracemalloc peak at 65 and 257 snapshots is 1.01 and 1.83 MB at 128 KiB,
# 1.36 and 2.18 MB at 192 KiB, and 1.71 and 2.53 MB at 256 KiB; the 0.82 MB
# between them is almost all the integrals, 4.2 KB a snapshot
_BLOCK_BYTES = 192 * 1024


def _bump(s):
    q = np.maximum(1.0 - s * s, 0.0)
    return q * q * q


def _bump_deriv(s):
    q = np.maximum(1.0 - s * s, 0.0)
    return -6.0 * s * q * q


def _checked_levels(ks) -> np.ndarray:
    ks = _numeric_array(ks, "entropy level")
    if ks.ndim != 1:
        raise ValueError(f"entropy levels must form a 1-d sequence, got shape {ks.shape}")
    outside = ~((ks >= 0.0) & (ks <= 1.0))  # nan included
    if np.any(outside):
        raise ValueError(f"entropy level must lie in [0, 1], got {ks[outside][0]}")
    return ks


def _block_geometry(stairs, flux, ks):
    """What the x-bumps need of a block of staircases laid end to end: the
    (edges,) positions and the (2, edges) jumps of L and f(L) at them; the
    (rows, levels + 1) starts of each row's segments, as indices along the
    edges: its first edge, then the edges closing the pieces left of each
    split at the ascending levels ``ks``; and the (2, rows, levels) values
    of L and f(L) on the last of those pieces."""
    first = np.cumsum([0] + [pos.size for _, pos in stairs[:-1]])
    # L = 0 left of every row's first edge, then the rows' levels: edge i
    # has the level values[:, i + 1]
    values = np.concatenate([[0.0]] + [lev for lev, _ in stairs])
    values = np.stack([values, flux.value(values)])
    # a row's levels are nondecreasing, so for k > 0 its pieces with L < k
    # are the one left of its first edge and the next count[t, k], the last
    # of them closed by its edge count[t, k]; for k = 0 there are none
    count = np.stack([np.searchsorted(lev, ks, side="left") for lev, _ in stairs])
    seg_start = np.concatenate([first[:, None], first[:, None] + count], axis=1)
    below_values = values[:, np.where(count > 0, seg_start[:, 1:], 0)]
    # each row's jumps are its level differences, from L = 0 at its first
    # edge, written over the values
    heads = values[:, first + 1] - values[:, :1]
    np.subtract(values[:, 2:], values[:, 1:-1], out=values[:, 2:])
    values[:, first + 1] = heads
    edges = np.concatenate([pos for _, pos in stairs])
    return edges, values[:, 1:], seg_start, below_values


def _block_integrals(edges, jumps, seg_start, below_values, x_bumps, totals, shifts):
    """Space integrals of E and F against every x-bump for one block of
    rows, as a (2, levels, bumps, rows) array, from ``_block_geometry``.

    Each weight array (rx times the antiderivative at the edges, or the
    bump at the edges) is summed along the edge axis against the jumps
    between the sorted splits of each row (module docstring); an empty
    segment's sum is set to 0.
    """
    rows, n_segs = seg_start.shape
    split = seg_start[:, 1:]
    starts = seg_start.ravel()
    # a row's last segment holds at least its last edge, since ks <= 1
    empty = np.flatnonzero(starts[1:] == starts[:-1])

    seg_sums = np.empty((len(x_bumps), 2, rows, n_segs))
    at_split = np.empty((len(x_bumps), 2, rows, n_segs - 1))
    s = np.empty_like(edges)
    s2 = np.empty_like(edges)
    weights = np.empty(jumps.shape)
    anti, psi = weights
    for b, (rx, xc) in enumerate(x_bumps):
        np.subtract(edges, xc, out=s)
        s /= rx
        np.clip(s, -1.0, 1.0, out=s)
        np.multiply(s, s, out=s2)
        # rx times the antiderivative, in Horner form with rx folded into
        # the coefficients, and the bump (1 - s^2)^3
        np.multiply(s2, -rx / 7.0, out=anti)
        anti += 0.6 * rx
        anti *= s2
        anti -= rx
        anti *= s2
        anti += rx
        anti *= s
        anti += _ANTI_EDGE * rx
        np.subtract(1.0, s2, out=psi)
        np.multiply(psi, psi, out=s2)
        psi *= s2
        at_split[b] = weights.take(split, axis=1)
        weights *= jumps
        sums = np.add.reduceat(weights, starts, axis=1)
        sums[:, empty] = 0.0
        np.cumsum(sums.reshape(2, rows, n_segs), axis=2, out=seg_sums[b])

    # summation by parts: the weighted sum of the pieces left of a split is
    # the weight at the split times the value left of it, less the sum of
    # weight times jump over the edges before it.
    # Over all pieces the weight right of the last edge is ``totals``: the
    # bump's integral 2 * _ANTI_EDGE * rx against L, whose last level is 1,
    # and 0 against f(L)
    below = at_split * below_values - seg_sums[..., :-1]
    whole = totals - seg_sums[..., -1:]
    return ((whole - 2.0 * below) - shifts * (totals - 2.0 * at_split)).transpose(1, 3, 0, 2)


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
    times = np.array([_checked(t, "snapshot time") for t, _ in states])
    dts = np.diff(times)
    if np.any(dts <= 0) or not np.allclose(dts, dts[0], rtol=1e-9, atol=1e-12):
        raise ValueError("snapshots must be at uniformly spaced increasing times")
    runs = [_position_runs(state) for _, state in states]
    x_min = min(pos[0] for arrays in runs for pos in arrays) - grid.pad_x
    x_max = max(pos[-1] for arrays in runs for pos in arrays) + grid.pad_x
    if not x_max > x_min:
        raise ValueError(
            f"the padded x-range of the snapshots has zero width: every state is one atom"
            f" at {x_min:g} and BumpFamily.pad_x = {grid.pad_x:g} does not widen it"
        )
    t0, t1 = times[0], times[-1]

    x_bumps = []
    for rx_frac in grid.radii_x:
        rx = rx_frac * (x_max - x_min)
        x_bumps += [(rx, xc) for xc in np.linspace(x_min + rx, x_max - rx, grid.n_centers_x)]
    n_bumps, n_ks = len(x_bumps), ks.size
    # the levels in ascending order, so every row's splits ascend too
    order = np.argsort(ks, kind="stable")
    sorted_ks = ks[order]
    # per (bump, E or F): the piece weights summed over all pieces; per
    # (E or F, level): the shift k or f(k)
    totals = np.zeros((n_bumps, 2, 1, 1))
    totals[:, 0, 0, 0] = [2.0 * _ANTI_EDGE * rx for rx, _ in x_bumps]
    shifts = np.stack([sorted_ks, flux.value(sorted_ks)])[:, None, :]

    # space integrals per (E or F, level, x-bump, snapshot): E against the
    # bump and F against its x-derivative, exact on the piecewise-constant
    # states, for one block of snapshot rows at a time, its staircases
    # built when it starts (module docstring)
    integrals = np.empty((2, n_ks, n_bumps, times.size))
    width = max(sum(pos.size for pos in arrays) for arrays in runs)
    n_rows = max(1, _BLOCK_BYTES // (16 * width))
    for r0 in range(0, times.size, n_rows):
        rows = slice(r0, r0 + n_rows)
        stairs = [_deduplicated_staircase(state) for _, state in states[rows]]
        geometry = _block_geometry(stairs, flux, sorted_ks)
        integrals[:, order, :, rows] = _block_integrals(*geometry, x_bumps, totals, shifts)
    e_int, f_int = integrals

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
    return float(entropy_residuals(states, flux, [_numeric_array(k, "entropy level")], grid)[0])
