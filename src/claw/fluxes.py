"""Flux functions on [0, 1] with derivatives and Lipschitz bounds.

Solutions live in the class of CDFs, so fluxes are only ever evaluated on
[0, 1]; evaluation outside that interval (beyond a rounding allowance) is an
error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .measures import _checked

__all__ = ["FluxModel", "make_builtin", "make_tabulated", "flux_from_file", "BUILTIN_FLUXES"]

_DOMAIN_SLACK = 1e-9


@dataclass(frozen=True)
class FluxModel:
    """Flux f on [0,1] with derivative and Lipschitz bound sup |f'|."""

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    f_prime: Callable[[np.ndarray], np.ndarray]
    lipschitz_bound: float

    def _clip_domain(self, u):
        u_arr = np.asarray(u, dtype=float)
        if np.any(u_arr < -_DOMAIN_SLACK) or np.any(u_arr > 1.0 + _DOMAIN_SLACK):
            raise ValueError(f"flux {self.name!r} evaluated outside [0, 1]")
        return np.clip(u_arr, 0.0, 1.0)

    def value(self, u):
        out = self.f(self._clip_domain(u))
        return float(out) if np.isscalar(u) else out

    def deriv(self, u):
        out = self.f_prime(self._clip_domain(u))
        return float(out) if np.isscalar(u) else out


def _linear(c: float) -> FluxModel:
    c = _checked(c, "linear flux speed", -np.inf)
    return FluxModel(
        name=f"linear({c:g})",
        f=lambda u: c * u,
        f_prime=lambda u: np.full_like(u, c),
        lipschitz_bound=abs(c),
    )


BUILTIN_FLUXES = {
    "burgers": lambda: FluxModel(
        "burgers", lambda u: 0.5 * u**2, lambda u: u, 1.0
    ),
    "concave_quadratic": lambda: FluxModel(
        "concave_quadratic", lambda u: u - 0.5 * u**2, lambda u: 1.0 - u, 1.0
    ),
    "cubic": lambda: FluxModel("cubic", lambda u: u**3 / 3.0, lambda u: u**2, 1.0),
    "linear": _linear,
}

_CALL_RE = re.compile(r"^\s*([a-z_]+)\s*\(\s*([^)]*)\s*\)\s*$")


def make_builtin(name: str, c: float | None = None) -> FluxModel:
    """Construct a builtin flux.

    ``name`` is one of burgers, concave_quadratic, cubic, linear; the linear
    flux takes its speed either from ``c`` or inline as ``linear(c)``.
    """
    name = name.strip()
    m = _CALL_RE.match(name)
    if m:
        name = m.group(1)
        arg = m.group(2)
        if arg:
            if c is not None:
                raise ValueError("flux parameter given both inline and as argument")
            c = float(arg)
    if name not in BUILTIN_FLUXES:
        raise ValueError(
            f"unknown flux {name!r}; choose from {sorted(BUILTIN_FLUXES)}"
        )
    if name == "linear":
        return _linear(1.0 if c is None else c)
    if c is not None:
        raise ValueError(f"flux {name!r} takes no parameter")
    return BUILTIN_FLUXES[name]()


def make_tabulated(samples) -> FluxModel:
    """Piecewise-linear flux through (u, f(u)) samples spanning [0, 1].

    The derivative is the slope of the containing segment, right-continuous
    at the knots; the Lipschitz bound is the largest absolute slope.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("samples must be a sequence of (u, f(u)) pairs")
    if arr.shape[0] < 3:
        raise ValueError("need at least 3 samples")
    u, fu = arr[:, 0], arr[:, 1]
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    if np.any(np.diff(u) <= 0):
        raise ValueError("u-values must be strictly ascending")
    if abs(u[0]) > 1e-12 or abs(u[-1] - 1.0) > 1e-12:
        raise ValueError("u-values must span [0, 1]")
    u = u.copy()
    u[0], u[-1] = 0.0, 1.0
    slopes = np.diff(fu) / np.diff(u)

    def f(x):
        return np.interp(x, u, fu)

    def f_prime(x):
        # containing segment, right-continuous at knots; the right endpoint
        # belongs to the last segment
        idx = np.clip(np.searchsorted(u, x, side="right") - 1, 0, slopes.size - 1)
        return slopes[idx]

    return FluxModel("tabulated", f, f_prime, float(np.max(np.abs(slopes))))


def flux_from_file(path) -> FluxModel:
    """Tabulated flux from a two-column whitespace-separated text file;
    ``#`` starts a comment."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if line.split("#", 1)[0].strip()]
    if not lines:
        raise ValueError(f"{path} holds no samples")
    return make_tabulated(np.atleast_2d(np.loadtxt(lines, dtype=float)))
