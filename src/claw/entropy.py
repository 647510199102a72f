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
rule over the given snapshots.  This is a necessary-condition screen
(a clearly positive residual certifies inadmissibility), not a proof of
admissibility; its noise floor shrinks with the particle count and the
snapshot spacing of the supplied states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fluxes import FluxModel
from .measures import as_step_cdf

__all__ = ["BumpFamily", "entropy_residuals", "entropy_residual"]


@dataclass(frozen=True)
class BumpFamily:
    """Tensor-product test functions psi((t-tc)/rt) psi((x-xc)/rx) with
    psi(s) = (1 - s^2)^3, centers on uniform grids.  Time centers are kept
    low enough that no bump needs data beyond the last snapshot."""

    n_centers_t: int = 6
    n_centers_x: int = 12
    radii_t: tuple = (0.5, 0.25)
    radii_x: tuple = (0.4, 0.2)
    pad_x: float = 0.5


_ANTI_EDGE = 1.0 - 1.0 + 0.6 - 1.0 / 7.0  # antiderivative of the bump at s=1


def _bump(s):
    q = np.maximum(1.0 - s * s, 0.0)
    return q**3


def _bump_deriv(s):
    q = np.maximum(1.0 - s * s, 0.0)
    return -6.0 * s * q * q


def _bump_antideriv(s):
    """Integral of (1-s^2)^3 from -1 to s, flat outside the support."""
    s = np.clip(s, -1.0, 1.0)
    return (s - s**3 + 0.6 * s**5 - s**7 / 7.0) + _ANTI_EDGE


def _padded_staircases(states):
    """Edge and level matrices padded to a common width.

    Padding repeats the last edge, so the padded pieces have zero width and
    drop out of every integral; levels get the final value 1.
    """
    cdfs = [as_step_cdf(state) for _, state in states]
    width = max(c.breakpoints.size for c in cdfs)
    edges = np.empty((len(cdfs), width))
    levels = np.ones((len(cdfs), width + 1))
    for i, c in enumerate(cdfs):
        m = c.breakpoints.size
        edges[i, :m] = c.breakpoints
        edges[i, m:] = c.breakpoints[-1]
        levels[i, 0] = 0.0
        levels[i, 1 : m + 1] = c.values
    return edges, levels


def entropy_residuals(states, flux: FluxModel, ks, grid: BumpFamily | None = None) -> np.ndarray:
    """Largest bump residual of the trajectory for each entropy level in ks.

    ``states`` is a list of (t, state) pairs at uniformly spaced times; the
    states are anything with a StepCdf view.  The geometry of the bumps is
    shared by all levels.  Output at or below the quadrature noise floor is
    consistent with admissibility.
    """
    if grid is None:
        grid = BumpFamily()
    if len(states) < 3:
        raise ValueError("need at least 3 snapshots to screen a trajectory")
    times = np.array([float(t) for t, _ in states])
    dts = np.diff(times)
    if np.any(dts <= 0) or not np.allclose(dts, dts[0], rtol=1e-9, atol=1e-12):
        raise ValueError("snapshots must be at uniformly spaced increasing times")
    edges, levels = _padded_staircases(states)
    x_min = edges.min() - grid.pad_x
    x_max = edges.max() + grid.pad_x
    t0, t1 = times[0], times[-1]

    wt = np.full(times.size, dts[0])
    wt[0] *= 0.5
    wt[-1] *= 0.5

    # geometry factors, independent of the entropy level: for each x-bump,
    # exact per-piece weights against the bump and against its x-derivative
    piece_w = []
    psi_dw = []
    for rx_frac in grid.radii_x:
        rx = rx_frac * (x_max - x_min)
        for xc in np.linspace(x_min + rx, x_max - rx, grid.n_centers_x):
            s = (edges - xc) / rx
            anti = _bump_antideriv(s) * rx
            full = np.full((times.size, 1), 2.0 * _ANTI_EDGE * rx)
            piece_w.append(np.diff(np.concatenate([np.zeros((times.size, 1)), anti, full], axis=1)))
            psi = _bump(s)
            zero = np.zeros((times.size, 1))
            psi_dw.append(np.diff(np.concatenate([zero, psi, zero], axis=1)))
    piece_w = np.stack(piece_w)  # (n_xbumps, n_times, n_pieces)
    psi_dw = np.stack(psi_dw)

    # time bump samples
    t_shapes = []
    for rt_frac in grid.radii_t:
        rt = rt_frac * (t1 - t0)
        for tc in np.linspace(t0, t1 - rt, grid.n_centers_t):
            arg = (times - tc) / rt
            t_shapes.append((_bump(arg), _bump_deriv(arg) / rt))

    f_levels = flux.value(levels)
    out = np.empty(len(ks))
    for ik, k in enumerate(ks):
        if not (0.0 <= k <= 1.0):
            raise ValueError(f"entropy level must lie in [0, 1], got {k}")
        e_vals = np.abs(levels - k)
        f_vals = np.sign(levels - k) * (f_levels - flux.value(float(k)))
        e_int = np.einsum("btp,tp->bt", piece_w, e_vals)
        f_int = np.einsum("btp,tp->bt", psi_dw, f_vals)
        worst = -np.inf
        for psi_t, dpsi_t in t_shapes:
            acc = e_int @ (wt * dpsi_t) + f_int @ (wt * psi_t)
            acc += e_int[:, 0] * psi_t[0]
            worst = max(worst, float(-acc.min()))
        out[ik] = worst
    return out


def entropy_residual(states, flux: FluxModel, k: float, grid: BumpFamily | None = None) -> float:
    """Largest bump residual of the trajectory for the entropy level k; see
    ``entropy_residuals``."""
    return float(entropy_residuals(states, flux, [float(k)], grid)[0])
