"""Canonical representations of probability measures on the line.

A measure is a right-continuous step CDF (``StepCdf``), a sorted equal-mass
particle system sampled at the midpoint quantile nodes w_i = (i - 1/2)/N
(``ParticleQuantiles``), or a mixture of two particle systems
(``MixtureState``).  Every reader uses one view of it, the quantile
staircase (levels, positions) of ``quantile_staircase``.  Positions may tie:
a right-side search lands on the last of a tied run, whose level is the CDF
there, so each answer equals the deduplicated CDF's bit for bit.  That
deduplicated staircase, each tied run merged into its last level, is
``_deduplicated_staircase``; a StepCdf is built from it only by
``as_step_cdf`` and ``cdf_from_particles``.

All types are immutable after construction and every operation is a pure
function, so values can be shared freely across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StepCdf",
    "ParticleQuantiles",
    "MixtureState",
    "generalized_inverse",
    "cdf_from_particles",
    "particles_from_cdf",
    "eval_cdf",
    "moment",
    "tail_moment",
    "mixture_quantile",
    "midpoint_nodes",
    "as_step_cdf",
    "quantile_staircase",
]


def _checked(value, what: str, least: float = 0.0, strict: bool = False) -> float:
    """``value`` as a float, once it is a number (not a bool or a string)
    that is finite and at least ``least`` (above it if ``strict``): the one
    range check of every public numeric argument."""
    try:
        if isinstance(value, (bool, np.bool_, str, bytes)):
            raise TypeError
        v = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a number, got {value!r}") from None
    if not (np.isfinite(v) and (v > least if strict else v >= least)):
        rule = f"{'greater than' if strict else 'at least'} {least:g}"
        raise ValueError(f"{what} must be finite and {rule}, got {v}")
    return v


def _checked_count(value, what: str, least: int = 1) -> int:
    """``value`` as an int, once it is an integer (not a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{what} must be an integer of at least {least}, got {value!r}")
    return int(value)


def _frozen_array(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d array, got shape {arr.shape}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def midpoint_nodes(n: int) -> np.ndarray:
    """Quantile nodes w_i = (i - 1/2)/n for i = 1..n."""
    n = _checked_count(n, "node count n")
    return (np.arange(n) + 0.5) / n


@dataclass(frozen=True)
class StepCdf:
    """Right-continuous step CDF with finitely many jumps.

    ``values[k]`` is the CDF value on ``[breakpoints[k], breakpoints[k+1])``;
    the function is 0 left of the first breakpoint and the last value must
    be exactly 1.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = _frozen_array(self.breakpoints)
        vals = _frozen_array(self.values)
        if bp.size < 1:
            raise ValueError("a StepCdf needs at least one breakpoint")
        if bp.size != vals.size:
            raise ValueError(
                f"breakpoints and values disagree in length ({bp.size} vs {vals.size})"
            )
        if not np.all(np.isfinite(bp)):
            raise ValueError("breakpoints must be finite")
        if bp.size > 1 and not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly ascending")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        if np.any(vals < 0.0) or np.any(vals > 1.0):
            raise ValueError("values must lie in [0, 1]")
        if vals.size > 1 and np.any(np.diff(vals) < 0):
            raise ValueError("values must be nondecreasing")
        if vals[-1] != 1.0:
            raise ValueError(f"last value must be exactly 1, got {vals[-1]!r}")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    def __call__(self, x):
        return eval_cdf(self, x)


@dataclass(frozen=True)
class ParticleQuantiles:
    """Sorted equal-mass particle positions; particle i carries mass 1/N
    and sits at quantile node (i - 1/2)/N."""

    positions: np.ndarray

    def __post_init__(self):
        pos = _frozen_array(self.positions)
        if pos.size < 1:
            raise ValueError("need at least one particle")
        # the scheme wraps every step array, so good positions pass in one
        # comparison pass: >= is false at a NaN, and nondecreasing positions
        # are finite when both ends are
        if not (
            math.isfinite(pos[0])
            and math.isfinite(pos[-1])
            and np.count_nonzero(pos[1:] >= pos[:-1]) == pos.size - 1
        ):
            if not np.isfinite(pos).all():
                raise ValueError("positions must be finite")
            raise ValueError("positions must be nondecreasing")
        object.__setattr__(self, "positions", pos)

    @property
    def n(self) -> int:
        return self.positions.size

    @property
    def nodes(self) -> np.ndarray:
        return midpoint_nodes(self.n)


@dataclass(frozen=True)
class MixtureState:
    """Convex combination (1-s)*F_low + s*F_high of two equal-size particle
    systems, evaluated as a CDF."""

    low: ParticleQuantiles
    high: ParticleQuantiles
    s: float

    def __post_init__(self):
        if not isinstance(self.low, ParticleQuantiles) or not isinstance(
            self.high, ParticleQuantiles
        ):
            raise TypeError("low and high must be ParticleQuantiles")
        if self.low.n != self.high.n:
            raise ValueError(
                f"mixture components must have equal size ({self.low.n} vs {self.high.n})"
            )
        s = _checked(self.s, "interpolation weight s")
        if s >= 1.0:
            raise ValueError(f"interpolation weight s must be below 1, got {s}")
        object.__setattr__(self, "s", s)

    def __call__(self, x):
        return eval_cdf(self, x)


def _numeric_array(value, what: str) -> np.ndarray:
    """``value`` as a float array, once it is a number or an array of
    numbers: a str, bytes or bool, or an array of any dtype but integer or
    float, is not taken as one."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{what} must be a number, got {value!r}")
    return arr.astype(float, copy=False)


def _check_quantile_arg(w) -> np.ndarray:
    w_arr = _numeric_array(w, "quantile argument")
    if not ((w_arr > 0.0) & (w_arr < 1.0)).all():
        raise ValueError(f"quantile argument must lie strictly in (0, 1), got {w}")
    return w_arr


def _check_cdf_arg(x) -> np.ndarray:
    x_arr = _numeric_array(x, "CDF argument x")
    if np.isnan(x_arr).any():
        raise ValueError(f"CDF argument x must not be NaN, got {x}")
    return x_arr


def generalized_inverse(obj, w):
    """Generalized inverse inf{x : F(x) > w} for w in (0, 1): the position
    of the first staircase level above w.

    Scalar in, scalar out; arrays are mapped elementwise.
    """
    w_arr = _check_quantile_arg(w)
    levels, positions = quantile_staircase(obj)
    out = positions[np.searchsorted(levels, w_arr, side="right")]
    return float(out) if np.isscalar(w) or w_arr.ndim == 0 else out


def cdf_from_particles(pq: ParticleQuantiles) -> StepCdf:
    """Step CDF of the particle law: jump of multiplicity/N at each distinct
    position.  Exact inverse of particles_from_cdf on midpoint nodes."""
    return as_step_cdf(pq)


def particles_from_cdf(cdf: StepCdf, n: int) -> ParticleQuantiles:
    """Sample the generalized inverse at the n midpoint nodes."""
    return ParticleQuantiles(generalized_inverse(cdf, midpoint_nodes(n)))


def eval_cdf(obj, x):
    """Right-continuous CDF: the level of the last staircase position at or
    left of x, 0 left of the first."""
    x_arr = _check_cdf_arg(x)
    out = _staircase_cdf(*quantile_staircase(obj), x_arr)
    return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out


def _staircase_cdf(levels, positions, x: np.ndarray) -> np.ndarray:
    """``eval_cdf`` on a staircase already built."""
    idx = np.searchsorted(positions, x, side="right")
    return np.where(idx > 0, levels[idx - 1], 0.0)


def moment(pq: ParticleQuantiles, p: float) -> float:
    """p-th absolute moment (1/N) sum |x_i|^p, p >= 1."""
    p = _checked(p, "moment order p", 1.0)
    return float(np.mean(np.abs(pq.positions) ** p))


def tail_moment(pq: ParticleQuantiles, p: float, r: float) -> float:
    """Tail moment (1/N) sum_{|x_i| >= r} |x_i|^p; equals moment at r = 0."""
    p = _checked(p, "moment order p", 1.0)
    r = _checked(r, "tail radius r")
    absx = np.abs(pq.positions)
    return float(np.sum(np.where(absx >= r, absx**p, 0.0)) / pq.n)


def quantile_staircase(obj):
    """Level/position arrays of the quantile function of ``obj``.

    Returns (levels, positions): levels nondecreasing and ending at 1,
    positions nondecreasing, and Q(w) = positions[j] for the first j with
    levels[j] > w, the inf convention.  A StepCdf gives its values and
    breakpoints, a particle system one level per particle, and a mixture the
    staircase of ``_mixture_staircase``.
    """
    if isinstance(obj, StepCdf):
        return obj.values, obj.breakpoints
    if isinstance(obj, ParticleQuantiles):
        return np.arange(1, obj.n + 1) / obj.n, obj.positions
    if isinstance(obj, MixtureState):
        return _mixture_staircase(obj.low, obj.high, obj.s)
    raise TypeError(f"cannot view {type(obj).__name__} as a quantile staircase")


def _mixture_staircase(low: ParticleQuantiles, high: ParticleQuantiles, s: float):
    """Quantile staircase of the mixture (1 - s) F_low + s F_high of two
    equal-size particle systems: ``_mixture_merge`` of the pair, then
    ``_mixture_levels`` at weight s.  States that share the pair can share
    the merge; the levels are the same bits either way.
    """
    merge = _mixture_merge(low, high, np.arange(2 * low.n))
    return _mixture_levels(merge, s), merge[2]


def _mixture_merge(low: ParticleQuantiles, high: ParticleQuantiles, k: np.ndarray):
    """The part of a mixture staircase that does not depend on s: one merge
    of the sorted positions of two equal-size particle systems.  ``k`` is
    ``np.arange(2 * n)``, which a caller merging many pairs builds once.

    One stable argsort of [low, high] merges the two sorted runs.  Returns
    (c_lo/n, c_hi/n, merged positions), where at and left of the k-th merged
    position lie c_lo low and c_hi high particles, k + 1 in all.  The merge
    keeps each run in order, so the particle there is the c_hi-th high one
    (c_hi = order[k] - n + 1) or the c_lo-th low one (c_hi = k - order[k]);
    no running count is needed.  The other formula is never the larger one:
    it is at most 0 there, and the right one at least 0.
    """
    n = low.n
    merged = np.concatenate([low.positions, high.positions])
    order = merged.argsort(kind="stable")
    c_hi = k - order
    np.maximum(c_hi, order - (n - 1), out=c_hi)
    c_lo = k - c_hi
    c_lo += 1
    return c_lo / n, c_hi / n, merged.take(order)


def _mixture_levels(merge, s: float, out: np.ndarray | None = None) -> np.ndarray:
    """Levels (1 - s) c_lo/n + s c_hi/n of a ``_mixture_merge``: the first
    product is written into ``out`` (a new array when None), then the
    second is added, so a caller that puts two staircases' levels side by
    side in one array gets the same bits as a fresh one.

    Rounding is monotone in each count, so the levels are nondecreasing; at
    the last of each run of tied positions they are the mixture CDF there.
    The last level is set to exactly 1.
    """
    lo, hi, _ = merge
    out = np.multiply(lo, 1.0 - s, out=out)
    out += s * hi
    out[-1] = 1.0
    return out


def _deduplicated_staircase(obj):
    """Quantile staircase of ``obj`` with each run of tied positions merged
    into its last level, the CDF there: the values and breakpoints of
    ``as_step_cdf``, without building a StepCdf."""
    levels, positions = quantile_staircase(obj)
    last = np.append(positions[1:] != positions[:-1], True)
    return levels[last], positions[last]


def _position_runs(obj):
    """Sorted position arrays whose union is the staircase positions of
    ``obj``: a mixture's merge holds both particle systems, so its ends
    and its width bound are read without merging."""
    if isinstance(obj, MixtureState):
        return obj.low.positions, obj.high.positions
    return (quantile_staircase(obj)[1],)


def as_step_cdf(obj) -> StepCdf:
    """Exact StepCdf of a particle system or mixture state: each distinct
    staircase position carries the last level of its run of tied positions
    (``_deduplicated_staircase``)."""
    if isinstance(obj, StepCdf):
        return obj
    levels, positions = _deduplicated_staircase(obj)
    return StepCdf(positions, levels)


def mixture_quantile(ms: MixtureState, w):
    """Generalized inverse of the mixture CDF, exact on its staircase."""
    return generalized_inverse(ms, w)
