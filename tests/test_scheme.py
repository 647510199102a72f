import numpy as np
import pytest

from claw.fluxes import make_builtin
from claw.measures import (
    ParticleQuantiles,
    as_step_cdf,
    generalized_inverse,
    midpoint_nodes,
    moment,
    tail_moment,
)
from claw.scheme import (
    NonClassicalError,
    RawPositions,
    classical_characteristics,
    collapse,
    decompose_time,
    evolve_sh,
    exact_rarefaction_cdf,
    exact_shock_cdf,
    sh_as_cdf,
    sh_trajectory,
    th_step,
    transport,
)
from claw.wasserstein import quantile_staircase, w1_via_cdf, wp_from_staircases, wp_particles

burgers = make_builtin("burgers")
concave = make_builtin("concave_quadratic")


def uniform_data(n=64):
    return ParticleQuantiles(midpoint_nodes(n))


def dirac(n=64, x=0.0):
    return ParticleQuantiles(np.full(n, x))


class TestTransport:
    def test_zero_step_is_identity(self, random_pq):
        pq = random_pq(1)
        assert np.array_equal(transport(pq, burgers, 0.0).positions, pq.positions)

    def test_burgers_on_uniform_stays_sorted(self):
        pq = uniform_data()
        moved = transport(pq, burgers, 0.3).positions
        assert np.allclose(moved, pq.nodes * 1.3)
        assert np.all(np.diff(moved) > 0)

    def test_concave_on_dirac_reverses_order(self):
        pq = dirac()
        moved = transport(pq, concave, 0.5).positions
        assert np.allclose(moved, 0.5 * (1.0 - pq.nodes))
        assert np.all(np.diff(moved) < 0)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            transport(dirac(), burgers, -0.1)


class TestCollapse:
    def test_sorts(self):
        assert collapse(RawPositions([0.3, 0.1, 0.2])).positions.tolist() == [0.1, 0.2, 0.3]

    def test_sorted_input_unchanged(self, random_pq):
        pq = random_pq(2)
        assert np.array_equal(collapse(RawPositions(pq.positions)).positions, pq.positions)

    def test_shock_spread_reverses_to_node_grid(self):
        # h (1 - w_i) sorted equals h w_i by midpoint-grid symmetry, exactly
        h = 0.5
        raw = transport(dirac(128), concave, h)
        assert np.array_equal(collapse(raw).positions, h * midpoint_nodes(128))


class TestThStep:
    def test_zero_step_identity(self, random_pq):
        pq = random_pq(3)
        assert np.array_equal(th_step(pq, concave, 0.0).positions, pq.positions)

    def test_two_steps_from_dirac_form_moving_shock(self):
        # spread then exact recombination one step later: Dirac(h) at t = 2h
        h = 0.25
        state = th_step(th_step(dirac(128), concave, h), concave, h)
        assert np.all(state.positions == h)

    def test_burgers_matches_characteristics_on_uniform(self):
        pq = uniform_data()
        stepped = th_step(pq, burgers, 0.7)
        assert np.array_equal(stepped.positions, classical_characteristics(pq, burgers, 0.7).positions)

    def test_mass_count_preserved(self, random_pq):
        pq = random_pq(4, n=111)
        assert th_step(pq, burgers, 0.2).n == 111


class TestDecomposeTime:
    def test_zero(self):
        assert decompose_time(0.0, 0.1) == (0, 0.0)

    def test_fractional(self):
        n, s = decompose_time(0.25, 0.1)
        assert n == 2 and s == pytest.approx(0.5)

    def test_rounding_guard_rolls_forward(self):
        n, s = decompose_time(0.3, 0.1)  # 0.3/0.1 is just below 3 in floats
        assert (n, s) == (3, 0.0)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            decompose_time(1.0, 0.0)


class TestEvolveSh:
    def test_time_zero(self, random_pq):
        pq = random_pq(5)
        state = evolve_sh(pq, burgers, 0.1, 0.0)
        assert state.steps_taken == 0 and state.s == 0.0
        assert np.array_equal(state.base.positions, pq.positions)

    def test_half_step_decomposition(self, random_pq):
        pq = random_pq(6)
        state = evolve_sh(pq, burgers, 0.2, 0.5)
        assert state.steps_taken == 2
        assert state.s == pytest.approx(0.5)
        two = th_step(th_step(pq, burgers, 0.2), burgers, 0.2)
        assert np.array_equal(state.base.positions, two.positions)
        assert np.array_equal(state.next.positions, th_step(two, burgers, 0.2).positions)

    def test_linear_flux_translates_rigidly(self, random_pq):
        pq = random_pq(7)
        c = -1.5
        state = evolve_sh(pq, make_builtin("linear", c=c), 0.1, 0.5)
        assert np.allclose(state.base.positions, pq.positions + c * 0.5, atol=1e-14)

    def test_trajectory_matches_single_shots(self, random_pq):
        pq = random_pq(8)
        times = [0.0, 0.13, 0.4, 0.9]
        states = sh_trajectory(pq, concave, 0.1, times)
        for t, state in zip(times, states):
            single = evolve_sh(pq, concave, 0.1, t)
            assert np.array_equal(state.base.positions, single.base.positions)
            assert state.s == single.s

    def test_states_sharing_a_step_share_its_objects(self, random_pq):
        pq, h = random_pq(21), 0.1
        states = sh_trajectory(pq, burgers, h, np.linspace(0.0, 2.0, 64))
        steps = [pq]
        while len(steps) < states[-1].steps_taken + 2:
            steps.append(th_step(steps[-1], burgers, h))
        for st in states:
            assert st.base.positions.tobytes() == steps[st.steps_taken].positions.tobytes()
            assert st.next.positions.tobytes() == steps[st.steps_taken + 1].positions.tobytes()
        for prev, st in zip(states, states[1:]):
            if st.steps_taken == prev.steps_taken:
                assert st.base is prev.base and st.next is prev.next
            elif st.steps_taken == prev.steps_taken + 1:
                assert st.base is prev.next
        distinct = {id(x) for st in states for x in (st.base, st.next)}
        assert len(distinct) == states[-1].steps_taken + 2

    def test_unsorted_times_rejected(self, random_pq):
        with pytest.raises(ValueError):
            sh_trajectory(random_pq(9), burgers, 0.1, [0.5, 0.1])


class TestShAsCdf:
    def test_zero_weight_mixture_is_base(self, random_pq):
        state = evolve_sh(random_pq(10), burgers, 0.1, 0.2)
        ms = sh_as_cdf(state)
        assert ms.s == 0.0
        assert np.array_equal(ms.low.positions, state.base.positions)

    def test_far_left_evaluates_to_zero(self, random_pq):
        state = evolve_sh(random_pq(11), burgers, 0.1, 0.35)
        assert sh_as_cdf(state)(-1e9) == 0.0


class TestClassicalCharacteristics:
    def test_burgers_uniform_at_time_one(self):
        pq = uniform_data()
        out = classical_characteristics(pq, burgers, 1.0)
        assert np.allclose(out.positions, 2.0 * pq.nodes)

    def test_linear_translation(self, random_pq):
        pq = random_pq(12)
        out = classical_characteristics(pq, make_builtin("linear", c=2.0), 0.7)
        assert np.allclose(out.positions, pq.positions + 1.4)

    def test_crossing_raises_with_index(self):
        with pytest.raises(NonClassicalError) as err:
            classical_characteristics(dirac(16), concave, 0.1)
        assert err.value.index == 0
        assert "labels 0 and 1" in str(err.value)


class TestExactShock:
    def test_concave_at_t_two(self):
        cdf = exact_shock_cdf(concave, 2.0)
        assert cdf.breakpoints.tolist() == [1.0]
        assert cdf.values.tolist() == [1.0]

    def test_time_zero(self):
        assert exact_shock_cdf(concave, 0.0).breakpoints.tolist() == [0.0]

    def test_linear_speed_matches_translation(self):
        cdf = exact_shock_cdf(make_builtin("linear", c=0.7), 3.0)
        assert cdf.breakpoints[0] == pytest.approx(2.1)

    def test_convex_flux_rejected(self):
        with pytest.raises(ValueError, match="admissible"):
            exact_shock_cdf(burgers, 1.0)


class TestExactRarefaction:
    def test_time_zero_is_uniform01(self):
        cdf = exact_rarefaction_cdf(0.0, resolution=256)
        assert cdf.breakpoints[0] > 0 and cdf.breakpoints[-1] < 1

    def test_time_one_spans_zero_two(self):
        cdf = exact_rarefaction_cdf(1.0, resolution=256)
        assert cdf.breakpoints[-1] == pytest.approx(2.0, abs=1e-2)

    def test_median_at_t_three(self):
        cdf = exact_rarefaction_cdf(3.0)
        assert generalized_inverse(cdf, 0.5) == pytest.approx(2.0, abs=4.0 / 4096)


class TestSchemeInvariants:
    def test_one_step_contraction(self, random_pq):
        fluxes = [burgers, concave, make_builtin("cubic"), make_builtin("linear", c=1.0)]
        for seed in range(50):
            a = random_pq(2 * seed, n=128)
            b = random_pq(2 * seed + 1, n=128)
            flux = fluxes[seed % len(fluxes)]
            h = 0.05 * (1 + seed % 4)
            for p in (1.0, 2.0, 3.0):
                assert wp_particles(th_step(a, flux, h), th_step(b, flux, h), p) <= (
                    wp_particles(a, b, p) + 1e-12
                )

    def test_mixture_time_contraction(self, random_pq):
        a = random_pq(900, n=128)
        b = random_pq(901, n=128)
        times = np.linspace(0.0, 1.5, 16)
        sa = sh_trajectory(a, concave, 0.07, times)
        sb = sh_trajectory(b, concave, 0.07, times)
        for p in (1.0, 2.0, 3.0):
            w0 = wp_particles(a, b, p)
            for sta, stb in zip(sa, sb):
                w = wp_from_staircases(
                    quantile_staircase(sh_as_cdf(sta)),
                    quantile_staircase(sh_as_cdf(stb)),
                    [p],
                )[0]
                assert w <= w0 * (1 + 1e-10) + 1e-15

    def test_moment_growth_bound(self, random_pq):
        h = 0.2
        for seed in range(20):
            pq = random_pq(seed, n=128)
            stepped = th_step(pq, burgers, h)
            for p in (1.0, 2.0, 3.0):
                bound = 2.0 ** (p - 1) * (moment(pq, p) + (h * burgers.lipschitz_bound) ** p)
                assert moment(stepped, p) <= bound

    def test_tail_moment_bound(self, random_pq):
        h, m = 0.1, burgers.lipschitz_bound
        for seed in range(20):
            pq = random_pq(seed + 50, n=128)
            stepped = th_step(pq, burgers, h)
            for p, r in ((1.0, 0.5), (2.0, 0.8), (3.0, 1.2)):
                bound = (1 + h * m / (r - h * m)) ** p * tail_moment(pq, p, r - h * m)
                assert tail_moment(stepped, p, r) <= bound + 1e-15

    def test_l1_time_lipschitz(self, random_pq):
        pq = random_pq(77, n=256)
        h = 0.07
        times = np.linspace(0.0, 2.0, 12)
        states = sh_trajectory(pq, burgers, h, times)
        slack = 4.0 / 256
        for i, si in enumerate(states):
            for j in range(i + 1, len(states)):
                gap = w1_via_cdf(as_step_cdf(sh_as_cdf(si)), as_step_cdf(sh_as_cdf(states[j])))
                assert gap <= abs(times[j] - times[i]) * burgers.lipschitz_bound + slack

    def test_classical_constancy_of_distance(self):
        # constant quantile gap is preserved exactly along characteristics
        n = 128
        a = uniform_data(n)
        b = ParticleQuantiles(a.positions + 0.5)
        for t in (0.0, 0.3, 1.0):
            xa = classical_characteristics(a, burgers, t)
            xb = classical_characteristics(b, burgers, t)
            for p in (1.0, 2.0, 3.0):
                assert abs(wp_particles(xa, xb, p) - 0.5) <= 1e-12

    def test_monotone_regime_step_equals_characteristics(self):
        pq = uniform_data(128)
        h = 0.4
        assert np.array_equal(
            th_step(pq, burgers, h).positions,
            classical_characteristics(pq, burgers, h).positions,
        )
