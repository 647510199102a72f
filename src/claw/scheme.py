"""Transport-collapse time stepping for CDF-valued conservation laws.

One step moves the quantile sample at label w_i by h*f'(w_i) along its
characteristic and then restores monotonicity by sorting; on the midpoint
particle representation the sort is exactly the collapse of the multivalued
transported profile.  Iterating the step and interpolating CDFs linearly in
the fractional part of t/h yields the time-discretized solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fluxes import FluxModel
from .measures import (
    MixtureState,
    ParticleQuantiles,
    StepCdf,
    midpoint_nodes,
)

__all__ = [
    "RawPositions",
    "SchemeState",
    "NonClassicalError",
    "transport",
    "collapse",
    "th_step",
    "evolve_sh",
    "sh_trajectory",
    "sh_as_cdf",
    "classical_characteristics",
    "exact_shock_cdf",
    "exact_rarefaction_cdf",
    "decompose_time",
]

_STEP_ROLL_GUARD = 1e-12


class NonClassicalError(ValueError):
    """Raised when transported characteristics cross, naming the first
    crossing index."""

    def __init__(self, index: int, t: float):
        self.index = index
        super().__init__(
            f"characteristics cross between labels {index} and {index + 1} "
            f"before t={t:g}; the solution is not classical there"
        )


@dataclass(frozen=True)
class RawPositions:
    """Transported particle positions indexed by quantile node, before the
    collapse; order along the index may be lost."""

    positions: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float).copy()
        if pos.ndim != 1 or pos.size < 1:
            raise ValueError("positions must be a nonempty 1-d array")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @property
    def n(self) -> int:
        return self.positions.size


@dataclass(frozen=True)
class SchemeState:
    """Discrete solution at time t = (steps_taken + s)*h: the CDF is the
    (1-s, s) mixture of ``base`` and its one-step image ``next``."""

    base: ParticleQuantiles
    next: ParticleQuantiles
    s: float
    h: float
    steps_taken: int
    flux: FluxModel

    @property
    def time(self) -> float:
        return (self.steps_taken + self.s) * self.h


def transport(pq: ParticleQuantiles, flux: FluxModel, h: float) -> RawPositions:
    """Move each particle by h*f'(w_i), w_i its midpoint quantile node."""
    if h < 0:
        raise ValueError(f"step size must be nonnegative, got {h}")
    return RawPositions(pq.positions + h * flux.deriv(pq.nodes))


def collapse(raw: RawPositions) -> ParticleQuantiles:
    """Monotone rearrangement of the transported positions.

    Sorting the values is exactly the quantile function of the repartition
    of the transported profile, i.e. the collapse of its multivalued graph.
    """
    return ParticleQuantiles(np.sort(raw.positions, kind="stable"))


def _step_positions(positions: np.ndarray, speeds: np.ndarray) -> np.ndarray:
    """The step kernel: move by the per-node displacements, then collapse."""
    return np.sort(positions + speeds, kind="stable")


def th_step(pq: ParticleQuantiles, flux: FluxModel, h: float) -> ParticleQuantiles:
    """One transport-collapse step: ``collapse(transport(pq, flux, h))``."""
    if h < 0:
        raise ValueError(f"step size must be nonnegative, got {h}")
    return ParticleQuantiles(_step_positions(pq.positions, h * flux.deriv(pq.nodes)))


def decompose_time(t: float, h: float) -> tuple[int, float]:
    """Split t = (N + s)h with integer N >= 0 and 0 <= s < 1.

    A fractional part within 1e-12 of 1 rolls over to the next step so that
    step boundaries are hit deterministically despite rounding.
    """
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    q = t / h
    n = int(math.floor(q))
    s = q - n
    if s >= 1.0 - _STEP_ROLL_GUARD:
        n += 1
        s = 0.0
    return n, s


def sh_trajectory(
    pq0: ParticleQuantiles,
    flux: FluxModel,
    h: float,
    times,
    step_fn=None,
) -> list[SchemeState]:
    """Scheme states at an ascending list of times, sharing the step work.

    ``step_fn`` maps a position array to the next one; the default is the
    plain transport-collapse step with speeds frozen per node.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size and np.any(np.diff(times) < 0):
        raise ValueError("times must be ascending")
    if step_fn is None:
        speeds = h * flux.deriv(midpoint_nodes(pq0.n))

        def step_fn(pos):
            return _step_positions(pos, speeds)

    out = []
    k = 0
    cur = np.asarray(pq0.positions, dtype=float)
    nxt = None
    # a step array is wrapped (and validated) once, when a state first uses
    # it; states that share base or next then share the same objects
    cur_pq, nxt_pq = pq0, None
    for t in times:
        n, s = decompose_time(t, h)
        while k < n:
            if nxt is None:
                cur, cur_pq = step_fn(cur), None
            else:
                cur, cur_pq = nxt, nxt_pq
            nxt = nxt_pq = None
            k += 1
        if nxt is None:
            nxt = step_fn(cur)
        if cur_pq is None:
            cur_pq = ParticleQuantiles(cur)
        if nxt_pq is None:
            nxt_pq = ParticleQuantiles(nxt)
        out.append(SchemeState(base=cur_pq, next=nxt_pq, s=s, h=h, steps_taken=n, flux=flux))
    return out


def evolve_sh(pq0: ParticleQuantiles, flux: FluxModel, h: float, t: float) -> SchemeState:
    """Discrete solution at a single time t >= 0."""
    return sh_trajectory(pq0, flux, h, [t])[0]


def sh_as_cdf(state: SchemeState) -> MixtureState:
    """The state's CDF: the (1-s, s) mixture of base and next."""
    return MixtureState(low=state.base, high=state.next, s=state.s)


def classical_characteristics(
    pq0: ParticleQuantiles, flux: FluxModel, t: float
) -> ParticleQuantiles:
    """Exact solution sample x_i + t*f'(w_i) in the classical regime.

    Valid only while the transported positions stay nondecreasing; a crossing
    raises NonClassicalError with the first offending index.
    """
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    moved = pq0.positions + t * flux.deriv(pq0.nodes)
    diffs = np.diff(moved)
    bad = np.nonzero(diffs < 0)[0]
    if bad.size:
        raise NonClassicalError(int(bad[0]), t)
    return ParticleQuantiles(moved)


def exact_shock_cdf(flux: FluxModel, t: float) -> StepCdf:
    """Entropy solution of the 0-to-1 Riemann problem for a flux with
    nonincreasing f': a single shock travelling at speed f(1) - f(0)."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    grid = np.linspace(0.0, 1.0, 129)
    dspeeds = np.diff(flux.deriv(grid))
    if np.any(dspeeds > 1e-12):
        raise ValueError(
            f"flux {flux.name!r} has increasing characteristic speed; "
            "the 0-to-1 jump does not form an admissible shock"
        )
    sigma = flux.value(1.0) - flux.value(0.0)
    return StepCdf([sigma * t], [1.0])


def exact_rarefaction_cdf(t: float, resolution: int = 4096) -> StepCdf:
    """Entropy solution u(t, x) = x/(1+t) of the quadratic convex flux with
    uniform[0,1] initial profile, i.e. the uniform law on [0, 1+t],
    discretized at midpoint atoms of the given resolution."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if resolution < 1:
        raise ValueError("resolution must be positive")
    width = 1.0 + t
    breakpoints = midpoint_nodes(resolution) * width
    values = np.arange(1, resolution + 1) / resolution
    values[-1] = 1.0
    return StepCdf(breakpoints, values)
