import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from claw.config import build_initial
from claw.fluxes import make_builtin
from claw.measures import (
    MixtureState,
    ParticleQuantiles,
    StepCdf,
    as_step_cdf,
    cdf_from_particles,
    eval_cdf,
    generalized_inverse,
    midpoint_nodes,
    mixture_quantile,
)
from claw.scheme import SchemeState, sh_as_cdf, sh_trajectory
from claw.wasserstein import (
    quantile_staircase,
    w1_via_cdf,
    weak_convergence_gap,
    wp_cdf,
    wp_from_staircases,
    wp_particles,
    wp_trajectory,
)


def test_identity_of_indiscernibles(random_pq):
    a = random_pq(3)
    assert wp_particles(a, a, 2.0) == 0.0


def test_dirac_translation_every_order():
    a = ParticleQuantiles(np.zeros(5))
    b = ParticleQuantiles(np.full(5, -2.5))
    for p in (1.0, 1.5, 2.0, 3.0):
        assert wp_particles(a, b, p) == pytest.approx(2.5, abs=1e-14)


def test_dirac_to_uniform_analytic():
    # quantile integral: (int_0^1 w^2 dw)^(1/2) = sqrt(1/3)
    n = 1000
    a = ParticleQuantiles(np.zeros(n))
    b = ParticleQuantiles(midpoint_nodes(n))
    assert wp_particles(a, b, 2.0) == pytest.approx(np.sqrt(1.0 / 3.0), abs=1e-3)


def test_size_mismatch_raises():
    with pytest.raises(ValueError, match="resample"):
        wp_particles(ParticleQuantiles([0.0]), ParticleQuantiles([0.0, 1.0]), 1.0)


def test_order_below_one_rejected():
    a = ParticleQuantiles([0.0])
    with pytest.raises(ValueError):
        wp_particles(a, a, 0.99)


class TestWpCdf:
    def test_equal_inputs(self):
        cdf = StepCdf([0.0, 1.0], [0.5, 1.0])
        assert wp_cdf(cdf, cdf, 2.0) == 0.0

    def test_heaviside_translation(self):
        for p in (1.0, 2.0, 3.0):
            assert wp_cdf(StepCdf([0.0], [1.0]), StepCdf([1.5], [1.0]), p) == pytest.approx(
                1.5, abs=1e-14
            )

    def test_two_atoms_vs_single(self):
        # quantile gap is 1 exactly on w in (1/2, 1)
        two = cdf_from_particles(ParticleQuantiles([0.0, 1.0]))
        assert wp_cdf(two, StepCdf([0.0], [1.0]), 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_accepts_mixtures(self):
        ms = MixtureState(ParticleQuantiles([0.0]), ParticleQuantiles([1.0]), 0.5)
        assert wp_cdf(ms, StepCdf([0.0], [1.0]), 1.0) == pytest.approx(0.5, abs=1e-15)


class TestW1Identity:
    def test_equal(self):
        cdf = StepCdf([0.0], [1.0])
        assert w1_via_cdf(cdf, cdf) == 0.0

    def test_heaviside_gap(self):
        assert w1_via_cdf(StepCdf([0.0], [1.0]), StepCdf([-3.0], [1.0])) == 3.0

    def test_matches_quantile_route_on_random_pairs(self, random_pq):
        for seed in range(100):
            f = cdf_from_particles(random_pq(2 * seed, n=64))
            g = cdf_from_particles(random_pq(2 * seed + 1, n=96))
            assert abs(w1_via_cdf(f, g) - wp_cdf(f, g, 1.0)) <= 1e-10


class TestMetricAxioms:
    def test_symmetry_and_triangle(self, random_pq):
        for seed in range(30):
            a, b, c = (random_pq(3 * seed + i, n=128) for i in range(3))
            for p in (1.0, 2.0, 3.0):
                dab = wp_particles(a, b, p)
                assert dab == wp_particles(b, a, p)
                assert dab <= wp_particles(a, c, p) + wp_particles(c, b, p) + 1e-12

    def test_zero_iff_equal_positions(self, random_pq):
        a = random_pq(11)
        b = ParticleQuantiles(a.positions + 1e-9)
        assert wp_particles(a, b, 1.0) > 0


def test_order_monotonicity(random_pq):
    # Jensen: p <= q implies Wp <= Wq for probability weights
    for seed in range(20):
        a = random_pq(2 * seed)
        b = random_pq(2 * seed + 1)
        ws = [wp_particles(a, b, p) for p in (1.0, 1.5, 2.0, 3.0, 4.0)]
        assert all(lo <= hi + 1e-12 for lo, hi in zip(ws, ws[1:]))


@pytest.mark.parametrize("scale", [1e-50, 1.0, 1e50, 1e160])
def test_orders_whose_powers_under_or_overflow(scale):
    # gaps**p underflows at p = 1000 on data whose largest gap is 0.18, and
    # at p = 7 on the same data times 1e-50; it overflows at p = 7 times
    # 1e50 and at p = 2 times 1e160.  W_p read 0 or inf there, or numpy
    # warned.  Equal particle counts share every level, so the merge has
    # pieces of zero width, here with the cross gap 0.998 against real gaps
    # of 0.002 and 0.001; factoring out 0.998 underflowed the real gaps
    # again.  A measure against itself reads 0, though its cross gaps
    # overflow at 1e50 and 1e160
    flux = make_builtin("burgers")
    random_pair = [build_initial({"preset": f"random({seed})"}, 256) for seed in (7, 8)]
    shared_levels = [ParticleQuantiles([0.0, 1.0]), ParticleQuantiles([0.002, 1.001])]
    orders = [1.0, 2.0, 3.0, 7.0, 9.5, 1000.0]
    for pair in (random_pair, shared_levels):
        a, b = (ParticleQuantiles(x.positions * scale) for x in pair)
        top = np.max(np.abs(a.positions - b.positions))
        stairs = quantile_staircase(as_step_cdf(a)), quantile_staircase(as_step_cdf(b))
        states = [
            SchemeState(base=x, next=x, s=0.5, h=0.1, steps_taken=0, flux=flux) for x in (a, b)
        ]
        for ws in (
            [wp_particles(a, b, p) for p in orders],
            wp_from_staircases(*stairs, orders),
            wp_trajectory(states[:1], states[1:], orders)[0],
        ):
            assert all(0.0 < w <= top for w in ws)
            assert all(lo <= hi for lo, hi in zip(ws, ws[1:]))
        assert all(wp_particles(a, a, p) == 0.0 for p in orders)
        assert wp_from_staircases(stairs[0], stairs[0], orders) == [0.0] * len(orders)


def test_particles_agree_with_cdf_route(random_pq):
    for seed in range(20):
        a = random_pq(2 * seed, n=100)
        b = random_pq(2 * seed + 1, n=100)
        for p in (1.0, 2.0, 3.0):
            assert wp_particles(a, b, p) == pytest.approx(
                wp_cdf(cdf_from_particles(a), cdf_from_particles(b), p), abs=1e-12
            )


@given(
    st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=6),
    st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=6),
    st.sampled_from([1.0, 2.0, 3.0]),
)
def test_sorted_coupling_beats_permutations(xs, ys, p):
    n = min(len(xs), len(ys))
    a = np.sort(np.asarray(xs[:n]))
    b = np.sort(np.asarray(ys[:n]))
    best = wp_particles(ParticleQuantiles(a), ParticleQuantiles(b), p)
    for perm in itertools.permutations(range(n)):
        cost = (np.mean(np.abs(a - b[list(perm)]) ** p)) ** (1.0 / p)
        assert cost >= best - 1e-12


def test_mixture_cost_convexity(random_pq):
    # W_p^p((1-s) mu1 + s mu2, (1-s) nu1 + s nu2)
    #   <= (1-s) W_p^p(mu1, nu1) + s W_p^p(mu2, nu2)
    for seed in range(10):
        a1, a2, b1, b2 = (random_pq(4 * seed + i, n=64) for i in range(4))
        for s in (0.25, 0.5, 0.9):
            mix_a = MixtureState(a1, a2, s)
            mix_b = MixtureState(b1, b2, s)
            for p in (1.0, 2.0):
                lhs = wp_cdf(mix_a, mix_b, p) ** p
                rhs = (1 - s) * wp_particles(a1, b1, p) ** p + s * wp_particles(a2, b2, p) ** p
                assert lhs <= rhs + 1e-12


class TestWeakConvergenceGap:
    def test_constant_sequence(self, random_pq):
        limit = random_pq(5)
        gaps, tails = weak_convergence_gap([limit, limit], limit, 2.0, 1.0)
        assert np.all(gaps == 0)

    def test_translated_diracs_shrink(self):
        limit = ParticleQuantiles(np.zeros(4))
        seq = [ParticleQuantiles(np.full(4, 1.0 / k)) for k in range(1, 6)]
        gaps, _ = weak_convergence_gap(seq, limit, 1.0, 10.0)
        assert np.allclose(gaps, [1.0 / k for k in range(1, 6)])

    def test_escaping_mass_diverges_with_growing_tails(self):
        limit = ParticleQuantiles(np.zeros(4))
        seq = [ParticleQuantiles(np.full(4, float(k))) for k in range(1, 6)]
        gaps, tails = weak_convergence_gap(seq, limit, 2.0, 0.5)
        assert np.all(np.diff(gaps) > 0)
        assert np.all(np.diff(tails) > 0)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            weak_convergence_gap([], ParticleQuantiles([0.0]), 1.0, 1.0)


# The routes below are the union1d/midpoint merge and the np.unique CDF
# constructions that the single staircase merge replaced; they stay here as
# independent references for it.


def union_merge_wp(stair_a, stair_b, orders):
    """W_p on the union of the two level sets, each piece's quantiles looked
    up at its midpoint."""
    lev_a, pos_a = stair_a
    lev_b, pos_b = stair_b
    edges = np.concatenate([[0.0], np.union1d(lev_a, lev_b)])
    widths = np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    qa = pos_a[np.minimum(np.searchsorted(lev_a, mids, side="right"), lev_a.size - 1)]
    qb = pos_b[np.minimum(np.searchsorted(lev_b, mids, side="right"), lev_b.size - 1)]
    gaps = np.abs(qa - qb)
    return [float(np.sum(gaps**p * widths) ** (1.0 / p)) for p in orders]


def unique_particle_cdf(pq):
    """(values, breakpoints) of a particle law from np.unique counts."""
    uniq, counts = np.unique(pq.positions, return_counts=True)
    vals = np.cumsum(counts) / pq.n
    vals[-1] = 1.0
    return vals, uniq


def unique_mixture_cdf(ms):
    """(values, breakpoints) of a mixture: the mixture CDF evaluated at the
    distinct positions of both components."""
    merged = np.unique(np.concatenate([ms.low.positions, ms.high.positions]))
    f_low = np.searchsorted(ms.low.positions, merged, side="right") / ms.low.n
    f_high = np.searchsorted(ms.high.positions, merged, side="right") / ms.high.n
    vals = np.maximum.accumulate((1.0 - ms.s) * f_low + ms.s * f_high)
    vals[-1] = 1.0
    return vals, merged


@st.composite
def initial_data(draw, n=None):
    """Random-preset data, or atom-heavy data on a few dyadic sites."""
    if n is None:
        n = draw(st.integers(min_value=1, max_value=64))
    if draw(st.booleans()):
        return build_initial({"preset": f"random({draw(st.integers(0, 10**6))})"}, n)
    sites = draw(st.lists(st.integers(-8, 8), min_size=1, max_size=3))
    picks = draw(st.lists(st.sampled_from(sites), min_size=n, max_size=n))
    return ParticleQuantiles(np.sort(np.asarray(picks, dtype=float) / 4.0))


@st.composite
def mixtures(draw):
    """Equal-size mixtures; atom-heavy components on dyadic sites tie
    positions within and across the two components."""
    n = draw(st.integers(min_value=1, max_value=64))
    s = draw(st.sampled_from([0.0, 0.3]) | st.floats(0.0, 1.0, exclude_max=True))
    return MixtureState(draw(initial_data(n)), draw(initial_data(n)), s)


@settings(max_examples=200, deadline=None)
@given(mixtures(), mixtures())
def test_step_cdfs_match_unique_constructions(ms, other):
    cdf = as_step_cdf(ms)
    for got, (values, breakpoints) in [
        (cdf, unique_mixture_cdf(ms)),
        (cdf_from_particles(ms.low), unique_particle_cdf(ms.low)),
    ]:
        assert np.array_equal(got.values, values)
        assert np.array_equal(got.breakpoints, breakpoints)
    # the readers of the staircase, ties and all, give the StepCdf's answers
    # bit for bit: at and between every position, and at every level
    pos = np.concatenate([ms.low.positions, ms.high.positions, other.low.positions])
    xs = np.concatenate([pos, pos - 1.0 / 8.0, [pos.min() - 1.0, pos.max() + 1.0]])
    levels = np.concatenate([cdf.values, quantile_staircase(ms)[0], midpoint_nodes(7)])
    ws = levels[(levels > 0.0) & (levels < 1.0)]
    assert np.array_equal(eval_cdf(ms, xs), eval_cdf(cdf, xs))
    assert np.array_equal(generalized_inverse(ms, ws), generalized_inverse(cdf, ws))
    assert np.array_equal(mixture_quantile(ms, ws), generalized_inverse(cdf, ws))
    assert w1_via_cdf(ms, other) == w1_via_cdf(cdf, as_step_cdf(other))


@st.composite
def flat_step_cdfs(draw):
    """StepCdfs whose values start at 0 and repeat, from a level set that
    two draws share."""
    k = draw(st.integers(min_value=1, max_value=12))
    steps = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    inner = max(k - 2, 0)
    levels = draw(
        st.lists(st.sampled_from([0.0, 0.25, 1.0 / 3.0, 0.5]), min_size=inner, max_size=inner)
    )
    values = np.concatenate([[0.0], np.sort(levels), [1.0]])[-k:]
    return StepCdf(np.cumsum(steps) / 4.0 - 3.0, values)


@settings(max_examples=200, deadline=None)
@given(flat_step_cdfs(), flat_step_cdfs())
def test_staircase_merge_matches_union_merge(f, g):
    orders = [1.0, 1.5, 2.0, 3.0]
    got = np.array(wp_from_staircases(quantile_staircase(f), quantile_staircase(g), orders))
    ref = np.array(union_merge_wp((f.values, f.breakpoints), (g.values, g.breakpoints), orders))
    assert np.all(np.abs(got - ref) <= 1e-13 * ref)


@settings(max_examples=40, deadline=None)
@given(
    initial_data(),
    initial_data(),
    st.sampled_from(["burgers", "concave_quadratic", "cubic"]),
    st.sampled_from([0.1, 0.25]),
    # quarter steps: every fourth sample time is a step boundary, s = 0
    st.lists(st.integers(0, 24), min_size=1, max_size=8),
)
def test_trajectory_matches_per_state_staircases(a0, b0, flux_name, h, quarters):
    flux = make_builtin(flux_name)
    times = h / 4.0 * np.sort(np.asarray(quarters, dtype=float))
    sa = sh_trajectory(a0, flux, h, times)
    sb = sh_trajectory(b0, flux, h, times)
    orders = [1.0, 1.5, 2.0, 3.0]
    got = wp_trajectory(sa, sb, orders)
    ref = np.array(
        [
            union_merge_wp(unique_mixture_cdf(sh_as_cdf(x)), unique_mixture_cdf(sh_as_cdf(y)), orders)
            for x, y in zip(sa, sb)
        ]
    )
    assert got.shape == (times.size, len(orders))
    assert np.all(np.abs(got - ref) <= 1e-13 * ref)


class TestWpTrajectoryErrors:
    def _states(self, n_times):
        a0 = build_initial({"preset": "random(1)"}, 16)
        return sh_trajectory(a0, make_builtin("burgers"), 0.1, np.linspace(0.0, 0.3, n_times))

    def test_order_below_one_rejected(self):
        states = self._states(3)
        with pytest.raises(ValueError, match="order"):
            wp_trajectory(states, states, [2.0, 0.5])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            wp_trajectory(self._states(3), self._states(4), [1.0])


def test_trajectory_reuses_a_merge_only_for_the_same_pair():
    """Hand-built states that share objects in every way but the one the
    merge reuse is keyed on: both base and next the same objects."""
    flux = make_builtin("burgers")

    def pq(seed, n):
        return build_initial({"preset": f"random({seed})"}, n)

    def state(base, nxt, s):
        return SchemeState(base=base, next=nxt, s=s, h=0.1, steps_taken=0, flux=flux)

    a0, a1, a2, a3 = (pq(seed, 16) for seed in (11, 12, 13, 14))
    c0, c1 = (pq(seed, 16) for seed in (15, 16))
    a0_copy, a2_copy = ParticleQuantiles(a0.positions), ParticleQuantiles(a2.positions)
    b0, b1, b2 = (pq(seed, 24) for seed in (21, 22, 23))
    states_a = [
        state(a0, a1, 0.0),
        state(a0, a1, 0.4),
        state(a0, a2, 0.4),  # same base, new next
        state(a0, a2, 0.7),
        state(a0_copy, a2_copy, 0.7),  # equal values, distinct objects
        state(a3, a2, 0.1),  # same next, new base
        state(c0, c1, 0.5),  # two trajectories interleaved
        state(a3, a2, 0.5),
        state(c0, c1, 0.9),
        state(a3, a2, 0.9),
    ]
    states_b = [
        state(b0, b1, 0.0),
        state(b0, b1, 0.4),
        state(b0, b1, 0.6),
        state(b0, b2, 0.6),
        state(b0, b2, 0.7),
        state(b1, b2, 0.7),
        state(b0, b2, 0.5),
        state(b1, b2, 0.5),
        state(b0, b2, 0.9),
        state(b1, b2, 0.9),
    ]
    orders = [3, 1, 2.5, 3]  # unsorted, fractional and repeated
    got = wp_trajectory(states_a, states_b, orders)
    ref = np.array(
        [
            wp_from_staircases(
                quantile_staircase(sh_as_cdf(x)), quantile_staircase(sh_as_cdf(y)), orders
            )
            for x, y in zip(states_a, states_b)
        ]
    )
    assert got.shape == (len(states_a), len(orders))
    assert np.all(ref > 0)
    # one kernel on the same levels: the same bits as the per-state merge
    assert np.array_equal(got, ref)
