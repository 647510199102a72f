import numpy as np
import pytest
from hypothesis import given, strategies as st

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
    moment,
    particles_from_cdf,
    quantile_staircase,
    tail_moment,
)

heaviside = StepCdf([0.0], [1.0])
two_step = StepCdf([0.0, 1.0], [0.5, 1.0])


def fine_uniform(k=2048):
    return StepCdf(midpoint_nodes(k), np.arange(1, k + 1) / k)


positions_lists = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=40
)


class TestStepCdfValidation:
    def test_rejects_descending_breakpoints(self):
        with pytest.raises(ValueError):
            StepCdf([1.0, 0.0], [0.5, 1.0])

    def test_rejects_last_value_not_one(self):
        with pytest.raises(ValueError):
            StepCdf([0.0], [0.9])

    def test_rejects_decreasing_values(self):
        with pytest.raises(ValueError):
            StepCdf([0.0, 1.0], [0.7, 1.0][::-1])

    def test_rejects_infinite_breakpoint(self):
        with pytest.raises(ValueError):
            StepCdf([np.inf], [1.0])

    def test_immutable(self):
        with pytest.raises(ValueError):
            heaviside.breakpoints[0] = 3.0

    @pytest.mark.parametrize(
        "breakpoints, values, match",
        [
            ([], [], "at least one breakpoint"),
            ([0.0, 1.0], [1.0], "disagree in length"),
            ([0.0, 1.0], [np.nan, 1.0], "values must be finite"),
            ([0.0, 1.0], [-0.5, 1.0], r"values must lie in \[0, 1\]"),
            ([0.0, 1.0], [0.5, 1.5], r"values must lie in \[0, 1\]"),
        ],
        ids=["empty", "length-mismatch", "nan-value", "value-below-0", "value-above-1"],
    )
    def test_rejects_bad_arrays(self, breakpoints, values, match):
        with pytest.raises(ValueError, match=match):
            StepCdf(breakpoints, values)


class TestParticleQuantilesValidation:
    @pytest.mark.parametrize(
        "positions, match",
        [
            ([0.0, np.nan, 1.0], "finite"),
            ([0.0, 1.0, np.inf], "finite"),
            ([-np.inf, 0.0, 1.0], "finite"),
            ([0.0, 2.0, 1.0, 3.0], "nondecreasing"),
            ([np.nan], "finite"),
            ([0.0, np.inf, 1.0], "finite"),
            ([2.0, 1.0, np.nan], "finite"),  # finiteness is named first
            ([[0.0, 1.0], [2.0, 3.0]], "1-d"),
            ([], "at least one"),
        ],
        ids=[
            "nan",
            "plus-inf",
            "minus-inf",
            "descending",
            "one-nan",
            "inf-inside",
            "nan-and-descending",
            "2-d",
            "empty",
        ],
    )
    def test_rejects_bad_positions(self, positions, match):
        with pytest.raises(ValueError, match=match):
            ParticleQuantiles(positions)

    def test_accepts_ties_and_one_particle(self):
        assert ParticleQuantiles([1.0, 1.0, 2.0]).n == 3
        assert ParticleQuantiles([5.0]).n == 1

    def test_positions_are_read_only(self):
        pq = ParticleQuantiles([0.0, 1.0])
        with pytest.raises(ValueError):
            pq.positions[0] = -1.0

    def test_caller_array_is_copied(self):
        src = np.array([0.0, 1.0, 2.0])
        pq = ParticleQuantiles(src)
        src[0] = 5.0
        assert np.array_equal(pq.positions, [0.0, 1.0, 2.0])


class TestGeneralizedInverse:
    def test_single_atom(self):
        assert generalized_inverse(heaviside, 0.3) == 0.0

    def test_uniform_identity_quantile(self):
        cdf = fine_uniform()
        assert abs(generalized_inverse(cdf, 0.25) - 0.25) < 1e-3

    def test_atom_boundary(self):
        # hand evaluation of inf{x : F(x) > w} at the jump level
        assert generalized_inverse(two_step, 0.5) == 1.0
        assert generalized_inverse(two_step, 0.49) == 0.0

    @pytest.mark.parametrize("w", [0.0, 1.0, -0.1, 1.5])
    def test_domain_error(self, w):
        with pytest.raises(ValueError):
            generalized_inverse(heaviside, w)

    @given(positions_lists, st.integers(min_value=1, max_value=97))
    def test_monotone_in_w(self, positions, grid_n):
        cdf = cdf_from_particles(ParticleQuantiles(np.sort(positions)))
        ws = (np.arange(grid_n) + 0.5) / grid_n
        qs = generalized_inverse(cdf, ws)
        assert np.all(np.diff(qs) >= 0)

    @given(positions_lists, st.floats(min_value=1e-6, max_value=1 - 1e-6))
    def test_cdf_of_quantile_dominates(self, positions, w):
        cdf = cdf_from_particles(ParticleQuantiles(np.sort(positions)))
        assert eval_cdf(cdf, generalized_inverse(cdf, w)) >= w


class TestParticleCdfConversion:
    def test_dirac_mass(self):
        cdf = cdf_from_particles(ParticleQuantiles([0.0, 0.0, 0.0]))
        assert cdf.breakpoints.tolist() == [0.0]
        assert cdf.values.tolist() == [1.0]

    def test_two_equal_atoms(self):
        cdf = cdf_from_particles(ParticleQuantiles([0.0, 1.0]))
        assert cdf.breakpoints.tolist() == [0.0, 1.0]
        assert cdf.values.tolist() == [0.5, 1.0]

    def test_heaviside_any_n(self):
        pq = particles_from_cdf(StepCdf([2.5], [1.0]), 7)
        assert np.all(pq.positions == 2.5)

    def test_two_atom_quarters(self):
        # inf definition at w = 1/8, 3/8, 5/8, 7/8
        pq = particles_from_cdf(two_step, 4)
        assert pq.positions.tolist() == [0.0, 0.0, 1.0, 1.0]

    def test_uniform_midpoints(self):
        pq = particles_from_cdf(fine_uniform(), 2)
        assert np.allclose(pq.positions, [0.25, 0.75], atol=1e-3)

    @given(positions_lists)
    def test_roundtrip_exact(self, positions):
        pq = ParticleQuantiles(np.sort(positions))
        back = particles_from_cdf(cdf_from_particles(pq), pq.n)
        assert np.array_equal(back.positions, pq.positions)


class TestEvalCdf:
    def test_left_of_support(self):
        assert eval_cdf(heaviside, -1.0) == 0.0

    def test_right_continuity_at_jump(self):
        assert eval_cdf(heaviside, 0.0) == 1.0

    def test_mixture_convex_combination(self):
        ms = MixtureState(ParticleQuantiles([0.0]), ParticleQuantiles([1.0]), 0.5)
        assert eval_cdf(ms, 0.5) == 0.5

    def test_vectorized(self):
        out = eval_cdf(two_step, np.array([-1.0, 0.0, 0.5, 1.0, 2.0]))
        assert out.tolist() == [0.0, 0.5, 0.5, 1.0, 1.0]


class TestMoments:
    def test_all_at_zero(self):
        assert moment(ParticleQuantiles([0.0, 0.0]), 3.0) == 0.0

    def test_symmetric_pair(self):
        assert moment(ParticleQuantiles([-1.0, 1.0]), 2.0) == 1.0

    def test_uniform_second_moment(self):
        # analytic integral of x^2 over [0,1] is 1/3; midpoint rule error
        # for x^2 is exactly 1/(12 n^2)
        n = 2000
        pq = ParticleQuantiles(midpoint_nodes(n))
        assert abs(moment(pq, 2.0) - 1.0 / 3.0) < 1.0 / (10 * n * n)

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError):
            moment(ParticleQuantiles([0.0]), 0.5)

    def test_tail_at_zero_radius_is_moment(self):
        pq = ParticleQuantiles([-2.0, 0.5, 3.0])
        assert tail_moment(pq, 2.0, 0.0) == moment(pq, 2.0)

    def test_tail_keeps_far_particle(self):
        assert tail_moment(ParticleQuantiles([0.0, 2.0]), 1.0, 1.0) == 1.0

    def test_tail_beyond_support_empty(self):
        assert tail_moment(ParticleQuantiles([-1.0, 1.0]), 1.0, 5.0) == 0.0

    @given(positions_lists, st.floats(min_value=0, max_value=60))
    def test_tail_nonincreasing_in_radius(self, positions, r):
        pq = ParticleQuantiles(np.sort(positions))
        assert tail_moment(pq, 2.0, r) <= tail_moment(pq, 2.0, r / 2) + 1e-12


class TestMixtureQuantile:
    def test_zero_weight_equals_low(self):
        low = ParticleQuantiles([0.0, 2.0, 5.0])
        high = ParticleQuantiles([1.0, 3.0, 6.0])
        ms = MixtureState(low, high, 0.0)
        for w in (0.1, 0.4, 0.9):
            assert mixture_quantile(ms, w) == generalized_inverse(cdf_from_particles(low), w)

    def test_half_mix_of_two_atoms(self):
        # merged step CDF sits at 0.5 on [0, 1)
        ms = MixtureState(ParticleQuantiles([0.0]), ParticleQuantiles([1.0]), 0.5)
        assert mixture_quantile(ms, 0.25) == 0.0
        assert mixture_quantile(ms, 0.75) == 1.0

    def test_identical_components(self):
        low = ParticleQuantiles([0.0, 1.0])
        ms = MixtureState(low, low, 0.3)
        for w in (0.2, 0.6, 0.9):
            assert mixture_quantile(ms, w) == generalized_inverse(cdf_from_particles(low), w)

    def test_domain_error(self):
        ms = MixtureState(ParticleQuantiles([0.0]), ParticleQuantiles([1.0]), 0.5)
        with pytest.raises(ValueError):
            mixture_quantile(ms, 1.0)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MixtureState(ParticleQuantiles([0.0]), ParticleQuantiles([0.0, 1.0]), 0.5)

    def test_weight_one_rejected(self):
        with pytest.raises(ValueError):
            MixtureState(ParticleQuantiles([0.0]), ParticleQuantiles([1.0]), 1.0)


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: MixtureState(heaviside, ParticleQuantiles([1.0]), 0.5), "must be ParticleQuantiles"),
        (lambda: MixtureState(ParticleQuantiles([1.0]), [1.0], 0.5), "must be ParticleQuantiles"),
        (lambda: quantile_staircase(np.array([0.0, 1.0])), "cannot view ndarray"),
        (lambda: quantile_staircase(None), "cannot view NoneType"),
    ],
    ids=["mixture-of-step-cdf", "mixture-of-list", "staircase-of-array", "staircase-of-none"],
)
def test_wrong_types_are_type_errors(build, match):
    with pytest.raises(TypeError, match=match):
        build()


def test_as_step_cdf_mixture_last_value_exact():
    ms = MixtureState(ParticleQuantiles([0.0, 1.0]), ParticleQuantiles([0.5, 2.0]), 0.1)
    cdf = as_step_cdf(ms)
    assert cdf.values[-1] == 1.0
    assert np.all(np.diff(cdf.values) >= 0)
