"""Exact one-dimensional Wasserstein distances via quantile functions.

For measures represented as step CDFs or equal-mass particle systems the
quantile function is piecewise constant, so the order-p transport cost
integral is a finite sum over the merged level partition and is computed
exactly up to rounding.  No quadrature, no tolerance.

``wp_trajectory`` evaluates W_p^p = int_0^1 |Q_a - Q_b|^p dw (Villani,
Topics in Optimal Transportation, 2003, section 2.2) along a pair of scheme
trajectories with two merges per sample time and no intermediate StepCdf.
A state is the mixture (1 - s) F_base + s F_next of two sorted particle
systems of n particles.  One stable argsort of [base, next] merges the two
sorted runs; after the k-th merged position, c_lo base and c_hi next
particles lie at or left of it, so the mixture CDF there is
(1 - s) c_lo/n + s c_hi/n, the expression ``as_step_cdf`` evaluates.  The
resulting quantile staircase refines the one of ``as_step_cdf``: tied
positions give extra levels with the same position.  A second stable
argsort merges the level arrays of the two sides; a running count of
A-origin levels gives each piece of (0, 1] its index into both staircases.
Tied positions or levels make pieces of zero length or of equal gap, so the
sum over pieces equals the merged-partition sum of ``wp_from_staircases``
up to rounding in the summation order.
"""

from __future__ import annotations

import numpy as np

from .measures import ParticleQuantiles, StepCdf, as_step_cdf, tail_moment

__all__ = [
    "wp_particles",
    "wp_cdf",
    "w1_via_cdf",
    "weak_convergence_gap",
    "quantile_staircase",
    "wp_from_staircases",
    "wp_trajectory",
]


def _check_order(p: float) -> float:
    p = float(p)
    if not np.isfinite(p) or p < 1.0:
        raise ValueError(f"Wasserstein order must be a finite real >= 1, got {p}")
    return p


def wp_particles(a: ParticleQuantiles, b: ParticleQuantiles, p: float = 1.0) -> float:
    """W_p between two equal-size particle systems.

    Both inputs are quantile samples on the same midpoint grid, so the sorted
    (monotone) coupling is optimal and the distance is the plain l^p mean of
    coordinate gaps.
    """
    p = _check_order(p)
    if a.n != b.n:
        raise ValueError(
            f"particle counts differ ({a.n} vs {b.n}); resample to a common size first"
        )
    gaps = np.abs(a.positions - b.positions)
    return float(np.mean(gaps**p) ** (1.0 / p))


def quantile_staircase(obj):
    """Level/position arrays of the quantile function of ``obj``.

    Returns (levels, positions) with levels ascending and ending at 1; the
    quantile function takes value positions[k] on the interval
    (levels[k-1], levels[k]] ... more precisely Q(w) = positions[j] with j the
    first index such that levels[j] > w, matching the inf convention.
    """
    if isinstance(obj, ParticleQuantiles):
        levels = np.arange(1, obj.n + 1) / obj.n
        levels[-1] = 1.0
        return levels, obj.positions
    cdf = as_step_cdf(obj)
    return cdf.values, cdf.breakpoints


def wp_from_staircases(stair_a, stair_b, p_list):
    """Exact integral of |Q_a - Q_b|^p over (0,1) for each p, on the merged
    level partition of the two quantile staircases."""
    lev_a, pos_a = stair_a
    lev_b, pos_b = stair_b
    edges = np.union1d(lev_a, lev_b)
    edges = np.concatenate([[0.0], edges])
    widths = np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    qa = pos_a[np.minimum(np.searchsorted(lev_a, mids, side="right"), lev_a.size - 1)]
    qb = pos_b[np.minimum(np.searchsorted(lev_b, mids, side="right"), lev_b.size - 1)]
    gaps = np.abs(qa - qb)
    out = []
    for p in p_list:
        p = _check_order(p)
        out.append(float(np.sum(gaps**p * widths) ** (1.0 / p)))
    return out


def _mixture_staircase(state):
    """Quantile staircase (levels, positions) of a scheme state's mixture
    CDF, from one merge of its sorted base and next particles."""
    lo = state.base.positions
    n = lo.size
    merged = np.concatenate([lo, state.next.positions])
    order = np.argsort(merged, kind="stable")
    c_hi = np.cumsum(order >= n)
    c_lo = np.arange(1, 2 * n + 1) - c_hi
    levels = (1.0 - state.s) * (c_lo / n) + state.s * (c_hi / n)
    np.maximum.accumulate(levels, out=levels)
    levels[-1] = 1.0
    return levels, merged[order]


def _wp_states(state_a, state_b, orders):
    """W_p between two scheme states for each order, on the merged level
    partition of their mixture staircases."""
    lev_a, pos_a = _mixture_staircase(state_a)
    lev_b, pos_b = _mixture_staircase(state_b)
    # concatenated twice so that no unsorted copy outlives the sort
    order = np.argsort(np.concatenate([lev_a, lev_b]), kind="stable")
    widths = np.diff(np.concatenate([lev_a, lev_b])[order], prepend=0.0)
    from_a = order < lev_a.size
    # idx_a A-levels and k - idx_a B-levels merge before position k; they
    # index Q_a and Q_b on the k-th piece
    idx_a = np.cumsum(from_a) - from_a
    idx_b = np.arange(order.size) - idx_a
    gaps = pos_a[np.minimum(idx_a, lev_a.size - 1, out=idx_a)]
    gaps -= pos_b[np.minimum(idx_b, lev_b.size - 1, out=idx_b)]
    np.abs(gaps, out=gaps)
    return [np.sum(gaps**p * widths) ** (1.0 / p) for p in orders]


def wp_trajectory(states_a, states_b, p_list) -> np.ndarray:
    """W_p between paired scheme states for every order in ``p_list``.

    ``states_a`` and ``states_b`` are equally long sequences of SchemeState
    (as returned by ``sh_trajectory`` or ``viscous_trajectory``); the two
    sides may have different particle counts.  Returns an array of shape
    (len(states_a), len(p_list)) whose row t holds W_p(a_t, b_t), equal to
    ``wp_from_staircases`` on the states' ``sh_as_cdf`` views up to rounding.
    """
    orders = [_check_order(p) for p in p_list]
    if len(states_a) != len(states_b):
        raise ValueError(f"trajectories differ in length ({len(states_a)} vs {len(states_b)})")
    out = np.empty((len(states_a), len(orders)))
    for t, (state_a, state_b) in enumerate(zip(states_a, states_b)):
        out[t] = _wp_states(state_a, state_b, orders)
    return out


def wp_cdf(f, g, p: float = 1.0) -> float:
    """W_p between the measures of two CDFs (StepCdf or MixtureState),
    computed exactly from the merged partition of their value levels."""
    return wp_from_staircases(quantile_staircase(f), quantile_staircase(g), [p])[0]


def w1_via_cdf(f: StepCdf, g: StepCdf) -> float:
    """L^1 distance of the CDFs themselves, integrated exactly on the merged
    breakpoint partition.  Equals W_1 of the underlying measures and serves
    as the independent cross-check of wp_cdf at p = 1."""
    f = as_step_cdf(f)
    g = as_step_cdf(g)
    grid = np.union1d(f.breakpoints, g.breakpoints)
    if grid.size < 2:
        return 0.0
    widths = np.diff(grid)
    lefts = grid[:-1]
    fv = f(lefts)
    gv = g(lefts)
    return float(np.sum(np.abs(fv - gv) * widths))


def weak_convergence_gap(seq, limit: ParticleQuantiles, p: float, r: float):
    """Per-element W_p distance to ``limit`` and tail moment at radius ``r``.

    Used to probe the metrization equivalence: W_p -> 0 iff weak convergence
    plus uniformly vanishing tail moments.
    """
    if len(seq) == 0:
        raise ValueError("need a nonempty sequence")
    gaps = np.array([wp_particles(pq, limit, p) for pq in seq])
    tails = np.array([tail_moment(pq, p, r) for pq in seq])
    return gaps, tails
