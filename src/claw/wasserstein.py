"""Exact one-dimensional Wasserstein distances via quantile functions.

For measures represented as step CDFs, particle systems or mixtures of two
particle systems the quantile function is piecewise constant, so
W_p^p = int_0^1 |Q_a - Q_b|^p dw (Villani, Topics in Optimal
Transportation, 2003, section 2.2) is a finite sum and is computed exactly
up to rounding.  No quadrature, no tolerance.  Where the p-th powers of
the gaps under- or overflow, at a large order or at gaps far from 1, the
largest gap on a piece of positive width is factored out of the sum
(``_pth_root``).  Each public function ignores numpy's overflow and
invalid warnings once per call, around all of its orders (and states).

Each side is a quantile staircase (levels, positions) from
``quantile_staircase``.  One kernel, ``_wp_sorted``, takes the two level
arrays concatenated into one (A's first); one stable argsort merges them
into a partition of (0, 1], and a piece's position in the merge and its
level's index in its own staircase give its index into both staircases.
Tied levels make pieces of zero length, which add nothing to the sum.  The
integer powers of the gaps are one product chain, built once and shared by
every integer order.  ``wp_from_staircases`` and ``wp_cdf`` concatenate two
staircases' levels for it; ``wp_trajectory`` writes each side's mixture
levels straight into its half of one array.  It merges the two particle
systems of a scheme state once for every run of states whose ``base`` and
``next`` are the same objects, as ``sh_trajectory`` and
``viscous_trajectory`` produce within one step; each state then needs only
its levels at its own weight s, by the one level formula of
``_mixture_levels``.  So a trajectory gives the same bits as
``wp_from_staircases`` state by state, whether or not states share.

``w1_via_cdf`` integrates |F_a - F_b| over x instead, each CDF read from its
staircase on the union of the two position sets: the independent check of
the identity W_1 = L^1 of the CDFs.
"""

from __future__ import annotations

import sys

import numpy as np

from .measures import (
    ParticleQuantiles,
    _checked,
    _mixture_levels,
    _mixture_merge,
    _staircase_cdf,
    quantile_staircase,
    tail_moment,
)

__all__ = [
    "wp_particles",
    "wp_cdf",
    "w1_via_cdf",
    "weak_convergence_gap",
    "quantile_staircase",
    "wp_from_staircases",
    "wp_trajectory",
]


# integer orders up to this one are raised by repeated products; their
# p - 1 roundings stay within a few units in the last place
_MAX_PRODUCT_ORDER = 8


def _pth_root(total, gaps, p, widths):
    """total ** (1/p) for total = sum(widths * gaps**p); ``widths`` is one
    per piece, or one number for pieces of equal width.  Where total is
    zero, subnormal, infinite or NaN, the powers may have under- or
    overflowed, and the largest gap M on a piece of positive width is
    factored out instead: M sum(widths * (gaps / M)**p) ** (1/p), or 0 if
    M is 0.  Pieces of zero width add nothing and are left out of M.  The
    caller ignores numpy's overflow and invalid warnings: an infinite power
    on a piece of zero width is NaN."""
    if sys.float_info.min <= total < np.inf:  # the smallest normal float
        return total ** (1.0 / p)
    live = widths > 0.0
    top = gaps.max(where=live, initial=0.0)
    if top == 0.0:
        return top
    ratios = np.divide(gaps, top, out=np.zeros_like(gaps), where=live)
    return top * np.sum(ratios**p * widths) ** (1.0 / p)


def wp_particles(a: ParticleQuantiles, b: ParticleQuantiles, p: float = 1.0) -> float:
    """W_p between two equal-size particle systems.

    Both inputs are quantile samples on the same midpoint grid, so the sorted
    (monotone) coupling is optimal and the distance is the plain l^p mean of
    coordinate gaps.
    """
    p = _checked(p, "Wasserstein order p", 1.0)
    if a.n != b.n:
        raise ValueError(
            f"particle counts differ ({a.n} vs {b.n}); resample to a common size first"
        )
    gaps = np.abs(a.positions - b.positions)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(_pth_root(np.mean(gaps**p), gaps, p, 1.0 / a.n))


def _wp_sorted(levels, n_a, pos_a, pos_b, orders, k):
    """W_p for each order, on the merged partition of two quantile
    staircases whose levels are ``levels``: A's n_a levels, then B's.
    ``k`` is ``np.arange(levels.size)``.  The caller ignores numpy's
    overflow and invalid warnings, as ``_pth_root`` needs."""
    order = levels.argsort(kind="stable")
    levels = levels.take(order)
    widths = np.empty_like(levels)
    widths[0] = levels[0]
    np.subtract(levels[1:], levels[:-1], out=widths[1:])
    # idx_a A-levels and k - idx_a B-levels merge before position k; they
    # index Q_a and Q_b on the k-th piece.  The merge keeps each staircase
    # in order, so an A-level there is A's idx_a-th (idx_a = order[k]) and a
    # B-level is B's (k - idx_a)-th (idx_a = k - order[k] + n_a).  The
    # other formula is never the smaller one: for an A-level it exceeds
    # n_a > order[k], and for a B-level order[k] >= n_a >= idx_a.  Past the
    # end of a staircase the index is clipped to its last position.
    idx = k - order
    idx += n_a
    np.minimum(idx, order, out=idx)
    gaps = pos_a.take(idx, mode="clip")
    np.subtract(k, idx, out=idx)
    gaps -= pos_b.take(idx, mode="clip")
    np.abs(gaps, out=gaps)
    # powers[j] = gaps**(j + 1) as the product chain gaps * gaps * ...,
    # built once and shared by every integer order up to _MAX_PRODUCT_ORDER
    powers = [gaps]
    out = []
    for p in orders:
        if p.is_integer() and p <= _MAX_PRODUCT_ORDER:
            while len(powers) < p:
                powers.append(powers[-1] * gaps)
            power = powers[int(p) - 1]
        else:
            power = gaps**p
        out.append(_pth_root(np.dot(power, widths), gaps, p, widths))
    return out


def wp_from_staircases(stair_a, stair_b, p_list):
    """Exact integral of |Q_a - Q_b|^p over (0,1) for each p, on the merged
    level partition of the two quantile staircases."""
    orders = [_checked(p, "Wasserstein order p", 1.0) for p in p_list]
    (lev_a, pos_a), (lev_b, pos_b) = stair_a, stair_b
    levels = np.concatenate([lev_a, lev_b])
    with np.errstate(over="ignore", invalid="ignore"):
        ws = _wp_sorted(levels, lev_a.size, pos_a, pos_b, orders, np.arange(levels.size))
    return [float(w) for w in ws]


def _merges(states, k):
    """The ``_mixture_merge`` and weight s of each SchemeState in turn.  A
    run of states whose ``base`` and ``next`` are the same two objects
    shares one merge; the previous merge is dropped before the next one is
    built."""
    pair = merge = None
    for state in states:
        if pair is None or state.base is not pair[0] or state.next is not pair[1]:
            pair, merge = (state.base, state.next), None
            merge = _mixture_merge(*pair, k[: 2 * state.base.n])
        yield merge, state.s


def wp_trajectory(states_a, states_b, p_list) -> np.ndarray:
    """W_p between paired scheme states for every order in ``p_list``.

    ``states_a`` and ``states_b`` are equally long sequences of SchemeState
    (as returned by ``sh_trajectory`` or ``viscous_trajectory``); the two
    sides may have different particle counts.  Returns an array of shape
    (len(states_a), len(p_list)) whose row t holds W_p(a_t, b_t).

    Consecutive states on one side whose ``base`` and ``next`` are the same
    objects, as ``sh_trajectory`` and ``viscous_trajectory`` hand out for
    the sample times within one step, share the merge of those two
    particle systems.  The result is exact up to rounding either way.
    """
    orders = [_checked(p, "Wasserstein order p", 1.0) for p in p_list]
    if len(states_a) != len(states_b):
        raise ValueError(f"trajectories differ in length ({len(states_a)} vs {len(states_b)})")
    out = np.empty((len(states_a), len(orders)))
    # the index ramp of the widest merged partition, shared by every merge
    k = np.arange(sum(2 * max((st.base.n for st in x), default=0) for x in (states_a, states_b)))
    merges = enumerate(zip(_merges(states_a, k), _merges(states_b, k)))
    with np.errstate(over="ignore", invalid="ignore"):
        for t, ((merge_a, s_a), (merge_b, s_b)) in merges:
            n_a = merge_a[0].size
            levels = np.empty(n_a + merge_b[0].size)
            _mixture_levels(merge_a, s_a, out=levels[:n_a])
            _mixture_levels(merge_b, s_b, out=levels[n_a:])
            out[t] = _wp_sorted(levels, n_a, merge_a[2], merge_b[2], orders, k[: levels.size])
    return out


def wp_cdf(f, g, p: float = 1.0) -> float:
    """W_p between the measures of two CDFs (StepCdf or MixtureState),
    computed exactly on the merged partition of their staircase levels."""
    return wp_from_staircases(quantile_staircase(f), quantile_staircase(g), [p])[0]


def w1_via_cdf(f, g) -> float:
    """L^1 distance of the CDFs themselves (StepCdf, particle system or
    mixture state), integrated exactly over x on the union of the two
    staircases' positions.  Equals W_1 of the underlying measures and serves
    as the independent cross-check of wp_cdf at p = 1."""
    stair_f = quantile_staircase(f)
    stair_g = quantile_staircase(g)
    grid = np.union1d(stair_f[1], stair_g[1])
    if grid.size < 2:
        return 0.0
    lefts = grid[:-1]
    gaps = np.abs(_staircase_cdf(*stair_f, lefts) - _staircase_cdf(*stair_g, lefts))
    return float(np.sum(gaps * np.diff(grid)))


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
