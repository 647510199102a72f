"""Quick invariant suites behind ``claw selftest``.

Each check exercises one structural property on seeded random data and
reports pass/fail; any failure makes the CLI exit with code 2.  These are
smoke-level versions of the full pytest suite, sized to run in seconds.
"""

from __future__ import annotations

import numpy as np

from .config import build_initial
from .entropy import entropy_residuals
from .fluxes import make_builtin
from .measures import (
    MixtureState,
    ParticleQuantiles,
    cdf_from_particles,
    eval_cdf,
    generalized_inverse,
    midpoint_nodes,
    moment,
    particles_from_cdf,
    tail_moment,
)
from .scheme import exact_shock_cdf, sh_trajectory, th_step
from .viscous import (
    SmoothedCdf,
    _grid_cdf_table,
    _ragged_window_eval,
    heat_resample,
    smoothed_quantile,
)
from .wasserstein import w1_via_cdf, wp_cdf, wp_particles, wp_trajectory

__all__ = ["run_selftest"]


def _random_pq(seed: int, n: int = 256) -> ParticleQuantiles:
    return build_initial({"preset": f"random({seed})"}, n)


def _check_roundtrip():
    for seed in range(12):
        pq = _random_pq(seed)
        back = particles_from_cdf(cdf_from_particles(pq), pq.n)
        if not np.array_equal(back.positions, pq.positions):
            return f"bijection broke for seed {seed}"
    return None


def _check_quantile_monotone():
    for seed in range(8):
        cdf = cdf_from_particles(_random_pq(seed))
        ws = np.linspace(0.01, 0.99, 97)
        qs = generalized_inverse(cdf, ws)
        if np.any(np.diff(qs) < 0):
            return f"quantile not monotone for seed {seed}"
        if np.any(eval_cdf(cdf, qs) < ws):
            return f"F(Q(w)) < w for seed {seed}"
    return None


def _check_w1_identity():
    # on particle laws, and on mixtures like the states wp_trajectory measures
    for seed in range(10):
        a, b, c, d = (_random_pq(4 * seed + i) for i in range(4))
        pairs = [(cdf_from_particles(a), cdf_from_particles(b))]
        pairs += [(MixtureState(a, c, s), MixtureState(b, d, s)) for s in (0.0, 0.3)]
        for f, g in pairs:
            if abs(wp_cdf(f, g, 1.0) - w1_via_cdf(f, g)) > 1e-10:
                return f"W1 identity broke for seed {seed}"
    return None


def _check_metric():
    for seed in range(8):
        a, b, c = (_random_pq(3 * seed + i) for i in range(3))
        for p in (1.0, 2.0, 3.0):
            dab = wp_particles(a, b, p)
            if abs(dab - wp_particles(b, a, p)) > 1e-14:
                return "asymmetry"
            if dab > wp_particles(a, c, p) + wp_particles(c, b, p) + 1e-12:
                return "triangle inequality broke"
    return None


def _check_step_contraction():
    fluxes = [make_builtin(n) for n in ("burgers", "concave_quadratic", "cubic")]
    for seed in range(10):
        a = _random_pq(100 + 2 * seed)
        b = _random_pq(101 + 2 * seed)
        flux = fluxes[seed % 3]
        for p in (1.0, 2.0, 3.0):
            before = wp_particles(a, b, p)
            after = wp_particles(th_step(a, flux, 0.1), th_step(b, flux, 0.1), p)
            if after > before + 1e-12:
                return f"one-step expansion at seed {seed}, p={p}"
    return None


def _check_sh_contraction():
    flux = make_builtin("burgers")
    times = np.linspace(0.0, 1.0, 9)
    a = _random_pq(500)
    b = _random_pq(501)
    sa = sh_trajectory(a, flux, 0.07, times)
    sb = sh_trajectory(b, flux, 0.07, times)
    w0 = wp_particles(a, b, 2.0)
    if np.any(wp_trajectory(sa, sb, [2.0]) > w0 * (1.0 + 1e-10)):
        return "mixture-time expansion"
    return None


def _check_moment_bounds():
    flux = make_builtin("burgers")
    h, m = 0.13, 1.0
    for seed in range(10):
        pq = _random_pq(200 + seed)
        stepped = th_step(pq, flux, h)
        for p in (1.0, 2.0, 3.0):
            if moment(stepped, p) > 2.0 ** (p - 1.0) * (moment(pq, p) + (h * m) ** p):
                return f"moment bound broke at seed {seed}"
            r = 0.5
            lhs = tail_moment(stepped, p, r)
            rhs = (1.0 + h * m / (r - h * m)) ** p * tail_moment(pq, p, r - h * m)
            if lhs > rhs:
                return f"tail bound broke at seed {seed}"
    return None


def _check_heat_contraction():
    # particle count large enough that strict contraction dominates the
    # requantization quadrature overshoot
    for seed in range(3):
        a = _random_pq(300 + 2 * seed, n=1024)
        b = _random_pq(301 + 2 * seed, n=1024)
        ra = heat_resample(a, 0.5)
        rb = heat_resample(b, 0.5)
        for p in (1.0, 2.0):
            if wp_particles(ra, rb, p) > wp_particles(a, b, p) + 5e-10:
                return f"heat expansion at seed {seed}"
    return None


def _check_heat_shift():
    pq = _random_pq(400, n=64)
    shifted = ParticleQuantiles(pq.positions + 3.25)
    base = heat_resample(pq, 0.3)
    moved = heat_resample(shifted, 0.3)
    if np.max(np.abs(moved.positions - base.positions - 3.25)) > 1e-9:
        return "heat resampling is not shift-equivariant"
    return None


def _check_heat_split():
    # two tabled clusters 100 sigma apart and a lone atom 30 sigma right of
    # them, left to the exact solver, must give the mixture's exact quantiles
    sigma, n = 0.05, 129
    left = _random_pq(410, n=64).positions  # within [-1, 1]
    right = _random_pq(411, n=64).positions + 2.0 + 100 * sigma  # within [6, 8]
    pq = ParticleQuantiles(np.concatenate([left, right, [8.0 + 30 * sigma]]))
    out = heat_resample(pq, sigma)
    sc = SmoothedCdf(pq, sigma)
    for i in (0, 63, 64, 127, 128):
        if abs(out.positions[i] - smoothed_quantile(sc, (i + 0.5) / n)) > 2e-10:
            return f"split resample misses the exact quantile at node {i}"
    return None


def _check_heat_table():
    # the CDF table the heat step inverts, against exact window sums at 64
    # of its grid points, on data shaped like criterion 9's
    pq = th_step(_random_pq(420, n=1024), make_builtin("burgers"), 0.1)
    sigma = 0.141
    x0, delta, f, dens, _ = _grid_cdf_table(pq.positions, sigma)
    k = np.linspace(0, f.size - 1, 64).astype(np.int64)
    exact, exact_dens = _ragged_window_eval(pq.positions, sigma, x0 + delta * k, density=True)
    err = max(np.max(np.abs(f[k] - exact)), sigma * np.max(np.abs(dens[k] - exact_dens)))
    if err > 1e-13:
        return f"table misses the exact sums by {err:.3g}"
    return None


def _check_entropy_screen():
    # criterion 11 in small: the admissible shock passes every level, its
    # time reverse (an entropy-violating expansion shock) does not
    flux = make_builtin("concave_quadratic")
    times = np.linspace(0.0, 1.0, 65)
    shock = [particles_from_cdf(exact_shock_cdf(flux, t), 64) for t in times]
    ks = np.linspace(0.0, 1.0, 11)
    forward = np.max(entropy_residuals(list(zip(times, shock)), flux, ks))
    if forward > 1e-3:
        return f"admissible shock has residual {forward:.3g}"
    backward = np.max(entropy_residuals(list(zip(times, shock[::-1])), flux, ks))
    if backward <= 1e-2:
        return f"reversed shock passes with residual {backward:.3g}"
    return None


def _check_nodes():
    for n in (1, 2, 7, 100):
        w = midpoint_nodes(n)
        if not (w[0] > 0 and w[-1] < 1 and np.allclose(np.diff(w), 1.0 / n)):
            return f"bad node grid for n={n}"
    return None


CHECKS = [
    ("particle/cdf bijection", _check_roundtrip),
    ("generalized inverse monotone", _check_quantile_monotone),
    ("W1 equals L1 of CDFs", _check_w1_identity),
    ("metric axioms", _check_metric),
    ("one-step Wp contraction", _check_step_contraction),
    ("mixture-time Wp contraction", _check_sh_contraction),
    ("moment and tail bounds", _check_moment_bounds),
    ("heat-kernel Wp contraction", _check_heat_contraction),
    ("heat resample shift equivariance", _check_heat_shift),
    ("heat resample cluster split", _check_heat_split),
    ("heat table accuracy", _check_heat_table),
    ("entropy screen", _check_entropy_screen),
    ("midpoint node grid", _check_nodes),
]


def run_selftest(out) -> int:
    """Run all checks, print one line each; return count of failures."""
    failures = 0
    for name, check in CHECKS:
        message = check()
        if message is None:
            out.write(f"pass  {name}\n")
        else:
            failures += 1
            out.write(f"FAIL  {name}: {message}\n")
    return failures
