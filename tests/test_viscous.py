import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr, ndtri

import claw.viscous as viscous_mod
from claw.fluxes import make_builtin
from claw.measures import ParticleQuantiles, midpoint_nodes
from claw.scheme import th_step
from claw.viscous import (
    SmoothedCdf,
    evolve_viscous,
    heat_resample,
    smoothed_cdf_eval,
    smoothed_quantile,
    viscous_step,
    viscous_trajectory,
)
from claw.wasserstein import wp_particles

linear0 = make_builtin("linear", c=0.0)


def dirac(n, x=0.0):
    return ParticleQuantiles(np.full(n, x))


def exact_nodes(pq, sigma, nodes=None, tol=1e-13):
    """Reference quantiles at midpoint nodes: the exact solver at a tight
    tolerance, bracketed by the same-rank centers."""
    nodes = np.arange(pq.n) if nodes is None else nodes
    near = pq.positions[nodes]
    half = viscous_mod._WINDOW_SD * sigma + tol
    targets = midpoint_nodes(pq.n)[nodes]
    return viscous_mod._solve_nodes(pq.positions, sigma, targets, near, near - half, near + half, tol)


def full_sum_cdf(centers, sigma, x):
    """The mixture CDF by the brute-force sum over every center."""
    return ndtr((x[:, None] - centers[None, :]) / sigma).mean(axis=1)


class TestSmoothedCdfEval:
    def test_center_symmetry(self):
        sc = SmoothedCdf(dirac(3), 0.7)
        assert smoothed_cdf_eval(sc, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_far_left_vanishes(self):
        sc = SmoothedCdf(dirac(3), 1.0)
        assert smoothed_cdf_eval(sc, -1e6) == 0.0

    def test_unit_normal_table_value(self):
        sc = SmoothedCdf(dirac(5), 1.0)
        assert smoothed_cdf_eval(sc, 1.0) == pytest.approx(0.8413447460685429, abs=1e-12)

    def test_matches_full_sum_on_mixture(self, rng):
        centers = np.sort(rng.normal(size=37))
        sc = SmoothedCdf(ParticleQuantiles(centers), 0.42)
        xs = rng.uniform(-4, 4, size=11)
        direct = ndtr((xs[:, None] - centers[None, :]) / 0.42).mean(axis=1)
        assert np.allclose(smoothed_cdf_eval(sc, xs), direct, atol=1e-14)

    def test_strictly_increasing_over_support(self, random_pq):
        pq = random_pq(3, n=31)
        sc = SmoothedCdf(pq, 0.2)
        xs = np.linspace(pq.positions[0] - 1.0, pq.positions[-1] + 1.0, 101)
        assert np.all(np.diff(smoothed_cdf_eval(sc, xs)) > 0)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            SmoothedCdf(dirac(2), 0.0)


class TestSmoothedQuantile:
    def test_median_by_symmetry(self):
        sc = SmoothedCdf(dirac(4), 2.0)
        assert smoothed_quantile(sc, 0.5, tol=1e-12) == pytest.approx(0.0, abs=1e-11)

    def test_inverse_normal_table_value(self):
        sc = SmoothedCdf(dirac(4), 1.0)
        assert smoothed_quantile(sc, 0.75, tol=1e-11) == pytest.approx(
            0.6744897501960817, abs=1e-10
        )

    def test_translation_equivariance(self, random_pq):
        pq = random_pq(4, n=16)
        shifted = ParticleQuantiles(pq.positions + 5.0)
        a = smoothed_quantile(SmoothedCdf(pq, 0.3), 0.3, tol=1e-12)
        b = smoothed_quantile(SmoothedCdf(shifted, 0.3), 0.3, tol=1e-12)
        assert b - a == pytest.approx(5.0, abs=1e-10)

    def test_bad_tol_rejected(self):
        with pytest.raises(ValueError):
            smoothed_quantile(SmoothedCdf(dirac(2), 1.0), 0.5, tol=0.0)

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            smoothed_quantile(SmoothedCdf(dirac(2), 1.0), 1.0)

    def test_nan_input_reported(self):
        # NaN cannot enter through validation, so splice it in behind the
        # frozen dataclass to exercise the bracket-failure guard
        pq = dirac(2)
        object.__setattr__(pq, "positions", np.array([np.nan, np.nan]))
        with pytest.raises(RuntimeError, match="NaN"):
            smoothed_quantile(SmoothedCdf(pq, 1.0), 0.5)


class TestHeatResample:
    def test_dirac_two_nodes(self):
        out = heat_resample(dirac(2), 1.0)
        z = ndtri(0.75)
        assert np.allclose(out.positions, [-z, z], atol=1e-9)

    def test_vanishing_sigma_recovers_input(self, random_pq):
        pq = random_pq(5, n=32)
        out = heat_resample(pq, 1e-8, tol=1e-10)
        assert np.max(np.abs(out.positions - pq.positions)) < 1e-6

    def test_translation_equivariance(self, random_pq):
        pq = random_pq(6, n=64)
        shifted = ParticleQuantiles(pq.positions + 2.0)
        a = heat_resample(pq, 0.4)
        b = heat_resample(shifted, 0.4)
        assert np.max(np.abs(b.positions - a.positions - 2.0)) < 1e-9

    def test_grid_and_bisect_agree(self, random_pq):
        # the table against the exact solver at a 1000x tighter tolerance
        for seed, sigma in [(0, 0.05), (1, 0.3), (2, 1.2)]:
            pq = random_pq(seed, n=300)
            g = heat_resample(pq, sigma)
            assert np.max(np.abs(g.positions - exact_nodes(pq, sigma))) <= 2e-10

    @pytest.mark.parametrize("sigma", [0.05, 0.3, 1.2])
    def test_grid_cell_inversion_is_tight(self, random_pq, sigma):
        # pins the in-cell cubic inversion of the table well below the 2e-10
        # agreement check: a single Newton step per cell leaves errors near
        # 7e-11 at sigma = 1.2; every 8th node keeps the reference cheap
        for seed in range(6):
            pq = random_pq(seed, n=1024)
            nodes = np.arange(seed, 1024, 8)
            grid = heat_resample(pq, sigma).positions[nodes]
            assert np.max(np.abs(grid - exact_nodes(pq, sigma, nodes))) <= 2.5e-11

    def test_grid_agrees_on_clustered_atoms(self):
        centers = np.sort(np.concatenate([np.full(100, -1.0), np.full(60, 3.0)]))
        pq = ParticleQuantiles(centers)
        g = heat_resample(pq, 0.15)
        assert np.max(np.abs(g.positions - exact_nodes(pq, 0.15))) <= 2e-10

    def test_matches_single_quantile_op(self, random_pq):
        pq = random_pq(7, n=48)
        sc = SmoothedCdf(pq, 0.25)
        out = heat_resample(pq, 0.25, tol=1e-11)
        for i in (0, 13, 47):
            w = (i + 0.5) / 48
            assert out.positions[i] == pytest.approx(
                smoothed_quantile(sc, w, tol=1e-11), abs=5e-11
            )

    def test_dirac_smoothing_is_exact_gaussian(self):
        n = 512
        out = heat_resample(dirac(n), 0.8)
        expected = 0.8 * ndtri(midpoint_nodes(n))
        assert np.max(np.abs(out.positions - expected)) < 1e-9

    def test_rejects_bad_sigma(self, random_pq):
        with pytest.raises(ValueError):
            heat_resample(random_pq(8, n=8), -1.0)


def counting(monkeypatch, name):
    """Replace viscous.<name> by a wrapper that counts its calls."""
    calls = []
    real = getattr(viscous_mod, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(viscous_mod, name, wrapper)
    return calls


class TestClusterSplit:
    @pytest.mark.parametrize("route", ["auto", "grid"])
    def test_far_clusters_match_unsplit_quantiles(self, monkeypatch, route):
        # two clusters 2000 apart at sigma = 0.045, span/sigma ~ 4.5e4:
        # half the mass uniform on a short interval, half near an atom.
        # "auto" leaves the routing alone; "grid" also checks that each
        # cluster got a table of its own and no node fell to the exact solver
        n, sigma, tol = 1024, 0.045, 1e-10
        left = -1000.0 + 0.5 * midpoint_nodes(n // 2)
        right = 1000.0 + 0.1 * midpoint_nodes(n // 2) ** 4
        pq = ParticleQuantiles(np.concatenate([left, right]))
        if route == "grid":
            tables = counting(monkeypatch, "_grid_cdf_table")
            solves = counting(monkeypatch, "_solve_nodes")
        out = heat_resample(pq, sigma, tol=tol)
        if route == "grid":
            assert (len(tables), len(solves)) == (2, 0)
        sc = SmoothedCdf(pq, sigma)
        for i in (0, 1, 200, 510, 511, 512, 513, 700, 1022, 1023):
            exact = smoothed_quantile(sc, (i + 0.5) / n, tol=tol)
            assert abs(out.positions[i] - exact) <= 2 * tol

    @pytest.mark.parametrize("gap_sd", [21.0, 30.0])
    def test_singletons_skip_the_table(self, monkeypatch, gap_sd):
        n, sigma, tol = 1024, 0.01, 1e-10
        centers = gap_sd * sigma * np.arange(n)
        tables = counting(monkeypatch, "_grid_cdf_table")
        solves = counting(monkeypatch, "_solve_nodes")
        out = heat_resample(ParticleQuantiles(centers), sigma, tol=tol)
        # each node is the median of its own Gaussian
        assert np.max(np.abs(out.positions - centers)) <= tol
        assert (len(tables), len(solves)) == (0, 1)

    def test_oversized_cluster_skips_the_table(self, monkeypatch):
        # neighbours 19 sigma apart never split, so the one cluster spans
        # ~3.8e4 sigma and its table would exceed the grid limit
        n, tol = 2000, 1e-10
        pq = ParticleQuantiles(19.0 * np.arange(n))
        tables = counting(monkeypatch, "_grid_cdf_table")
        out = heat_resample(pq, 1.0, tol=tol)
        assert tables == []
        sc = SmoothedCdf(pq, 1.0)
        for i in (0, 1, 999, 1000, 1998, 1999):
            exact = smoothed_quantile(sc, (i + 0.5) / n, tol=tol)
            assert abs(out.positions[i] - exact) <= 2 * tol


@st.composite
def clustered_atoms(draw):
    """Atoms sigma << spacing apart, with gaps on both sides of 20 sigma."""
    sigma = draw(st.sampled_from([0.003, 0.05, 0.7]))
    gaps = draw(
        st.lists(
            st.sampled_from([0.0, 0.5, 3.0, 10.0, 19.0, 19.9, 20.1, 21.0, 45.0, 4e4]),
            min_size=1,
            max_size=6,
        )
    )
    sites = sigma * np.concatenate([[0.0], np.cumsum(gaps)])
    n = draw(st.integers(min_value=40, max_value=120))
    which = draw(st.lists(st.integers(0, sites.size - 1), min_size=n, max_size=n))
    return np.sort(sites[which]), sigma


@settings(max_examples=30, deadline=None)
@given(clustered_atoms())
def test_split_grid_and_bisect_agree(data):
    # clusters on both sides of the table's 48-particle threshold occur
    centers, sigma = data
    pq = ParticleQuantiles(centers)
    out = heat_resample(pq, sigma).positions
    assert np.max(np.abs(out - exact_nodes(pq, sigma))) <= 2e-10


@st.composite
def solver_problems(draw):
    """Centers with near-flat gaps, levels anywhere in (0, 1), and starts
    anywhere in the guaranteed bracket about the same-rank center."""
    sigma = draw(st.sampled_from([0.003, 0.05, 0.7, 3.0]))
    tol = draw(st.sampled_from([1e-10, 1e-8, 1e-6]))
    gaps = draw(st.lists(st.sampled_from([0.0, 0.5, 3.0, 10.0, 15.0, 19.9, 30.0]), max_size=6))
    sites = sigma * np.concatenate([[0.0], np.cumsum(gaps)])
    n = draw(st.integers(min_value=1, max_value=40))
    which = draw(st.lists(st.integers(0, sites.size - 1), min_size=n, max_size=n))
    centers = np.sort(sites[which])
    levels = np.array(draw(st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=8)))
    starts = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=levels.size, max_size=levels.size)))
    return centers, sigma, tol, levels, starts


@settings(max_examples=60, deadline=None)
@given(solver_problems())
def test_solver_answers_are_certified(problem):
    centers, sigma, tol, w, starts = problem
    # the root lies within 9 sigma of the same-rank center; one rank of
    # slack on each side absorbs the rounding of w*n
    rank = np.minimum((w * centers.size).astype(int), centers.size - 1)
    half = viscous_mod._WINDOW_SD * sigma + tol
    lo = centers[np.maximum(rank - 1, 0)] - half
    hi = centers[np.minimum(rank + 1, centers.size - 1)] + half
    x0 = centers[rank] + starts * half
    x = viscous_mod._solve_nodes(centers, sigma, w, x0, lo, hi, tol)
    # the windowed and the full sum round differently by a few ulps, which
    # decides nothing except on a plateau between far atoms, where F stays
    # within rounding of a level such as w = 1/2 over many tol
    ulps = 8 * np.finfo(float).eps
    assert np.all(full_sum_cdf(centers, sigma, x - 0.5 * tol) <= w + ulps)
    assert np.all(w - ulps <= full_sum_cdf(centers, sigma, x + 0.5 * tol))


@pytest.mark.parametrize("scale", [0.3, 3.0])
def test_solver_certifies_with_a_wrong_density(monkeypatch, random_pq, scale):
    # answers rest on F values alone: a density off by a constant factor
    # makes Newton overshoot or crawl, yet every node must stay certified
    real = viscous_mod._ragged_window_eval

    def skewed(centers, sigma, x, density=False):
        if not density:
            return real(centers, sigma, x)
        f, d = real(centers, sigma, x, density=True)
        return f, scale * d

    monkeypatch.setattr(viscous_mod, "_ragged_window_eval", skewed)
    pq, sigma, tol = random_pq(16, n=200), 0.05, 1e-6
    x = exact_nodes(pq, sigma, tol=tol)
    w = midpoint_nodes(pq.n)
    assert np.all(full_sum_cdf(pq.positions, sigma, x - 0.5 * tol) <= w)
    assert np.all(w <= full_sum_cdf(pq.positions, sigma, x + 0.5 * tol))


class TestViscousStep:
    def test_vanishing_viscosity_matches_inviscid(self, random_pq):
        pq = random_pq(9, n=64)
        burgers = make_builtin("burgers")
        inviscid = th_step(pq, burgers, 0.01)
        nearly = viscous_step(pq, burgers, 0.01, 1e-12)
        assert np.max(np.abs(nearly.positions - inviscid.positions)) < 1e-6

    def test_linear_flux_dirac_single_step(self):
        # translation and smoothing commute: Gaussian quantiles about c*h
        n, c, h, nu = 256, 2.0, 0.1, 0.5
        out = viscous_step(dirac(n), make_builtin("linear", c=c), h, nu)
        sigma = np.sqrt(2 * nu * h)
        expected = c * h + sigma * ndtri(midpoint_nodes(n))
        assert np.max(np.abs(out.positions - expected)) < 1e-9

    def test_two_steps_approach_gaussian_semigroup(self):
        # two smoothing steps of a Dirac vs the variance-sum Gaussian;
        # the W2 gap is pure resampling error, measured at C/N with C
        # frozen from a refinement run
        n, h, nu = 512, 0.1, 0.5
        two = viscous_step(
            viscous_step(dirac(n), linear0, h, nu), linear0, h, nu
        )
        sigma2 = np.sqrt(2 * (2 * nu * h))
        oracle = ParticleQuantiles(sigma2 * ndtri(midpoint_nodes(n)))
        assert wp_particles(two, oracle, 2.0) <= 0.7 / n

    def test_rejects_zero_viscosity(self, random_pq):
        with pytest.raises(ValueError):
            viscous_step(random_pq(10, n=8), linear0, 0.1, 0.0)


class TestViscousEvolution:
    def test_time_zero_identity(self, random_pq):
        pq = random_pq(11, n=32)
        state = evolve_viscous(pq, linear0, 0.1, 0.2, 0.0)
        assert np.array_equal(state.base.positions, pq.positions)

    def test_grid_time_is_iterated_steps(self, random_pq):
        pq = random_pq(12, n=32)
        burgers = make_builtin("burgers")
        state = evolve_viscous(pq, burgers, 0.1, 0.3, 0.2)
        manual = viscous_step(viscous_step(pq, burgers, 0.1, 0.3), burgers, 0.1, 0.3)
        assert np.max(np.abs(state.base.positions - manual.positions)) < 1e-12

    def test_mean_drift_under_linear_flux(self, random_pq):
        # heat smoothing preserves the mean; midpoint requantization adds a
        # tail quadrature error that shrinks with the particle count
        n = 2048
        pq = random_pq(13, n=n)
        c, h, nu = 1.5, 0.1, 0.4
        state = evolve_viscous(pq, make_builtin("linear", c=c), h, nu, 3 * h)
        drift = state.base.positions.mean() - pq.positions.mean()
        assert drift == pytest.approx(3 * c * h, abs=30.0 / n**1.5)

    def test_trajectory_contraction(self, random_pq):
        a = random_pq(14, n=128)
        b = random_pq(15, n=128)
        burgers = make_builtin("burgers")
        times = np.linspace(0.0, 1.0, 6)
        sa = viscous_trajectory(a, burgers, 0.1, 0.5, times)
        sb = viscous_trajectory(b, burgers, 0.1, 0.5, times)
        slack = 11 * 5 * 1e-10
        for p in (1.0, 2.0, 3.0):
            w0 = wp_particles(a, b, p)
            for sta, stb in zip(sa, sb):
                assert wp_particles(sta.base, stb.base, p) <= w0 + slack


def test_time_lipschitz_from_smoothed_state(random_pq):
    # the L1 modulus of continuity of the viscous evolution carries the
    # flux bound plus nu * ||v''||_L1 of the running profile; for a state
    # produced by one smoothing step of width sigma0 the curvature mass is
    # at most 2 phi(0) / sigma0, and later steps only shrink it
    from claw.measures import as_step_cdf
    from claw.scheme import sh_as_cdf
    from claw.wasserstein import w1_via_cdf

    n = 512
    nu, h0 = 0.5, 0.2
    sigma0 = np.sqrt(2 * nu * h0)
    v0 = viscous_step(random_pq(40, n=n), linear0, h0, nu)
    curvature_mass = 2.0 * 0.3989422804014327 / sigma0
    flux = make_builtin("burgers")
    times = np.linspace(0.0, 1.0, 9)
    states = viscous_trajectory(v0, flux, 0.05, nu, times)
    cdfs = [as_step_cdf(sh_as_cdf(state)) for state in states]
    slack = 8.0 / n
    for i in range(len(times)):
        for j in range(i + 1, len(times)):
            gap = w1_via_cdf(cdfs[i], cdfs[j])
            bound = abs(times[j] - times[i]) * (flux.lipschitz_bound + nu * curvature_mass)
            assert gap <= bound + slack


def test_kernel_contraction_invariant(random_pq):
    # at this particle count the strict continuum contraction dominates the
    # O(1/N^2) requantization overshoot, so the tolerance is bisection-level
    for seed in range(25):
        a = random_pq(30 + 2 * seed, n=1024)
        b = random_pq(31 + 2 * seed, n=1024)
        for sigma in (0.1, 1.0):
            ra = heat_resample(a, sigma)
            rb = heat_resample(b, sigma)
            for p in (1.0, 2.0, 3.0):
                assert wp_particles(ra, rb, p) <= wp_particles(a, b, p) + 5e-10
