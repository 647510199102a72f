"""Every public numeric argument goes through one rule: a non-finite or
out-of-range value raises a ValueError that names the argument, before any
arithmetic can warn."""

import re
import warnings

import numpy as np
import pytest

from claw.entropy import BumpFamily, entropy_residual, entropy_residuals
from claw.fluxes import make_builtin
from claw.lcg import lcg_floats
from claw.measures import (
    MixtureState,
    ParticleQuantiles,
    StepCdf,
    eval_cdf,
    generalized_inverse,
    midpoint_nodes,
    mixture_quantile,
    moment,
    tail_moment,
)
from claw.scheme import (
    classical_characteristics,
    decompose_time,
    exact_rarefaction_cdf,
    exact_shock_cdf,
    sh_trajectory,
    th_step,
    transport,
)
from claw.viscous import (
    SmoothedCdf,
    heat_resample,
    smoothed_cdf_eval,
    smoothed_quantile,
    viscous_step,
    viscous_trajectory,
)
from claw.wasserstein import (
    quantile_staircase,
    wp_cdf,
    wp_from_staircases,
    wp_particles,
    wp_trajectory,
)

PQ = ParticleQuantiles([-0.5, 0.0, 0.0, 0.75])
BURGERS = make_builtin("burgers")
STATES = sh_trajectory(PQ, BURGERS, 0.1, [0.0, 0.05])
BELOW_ZERO = -np.nextafter(0.0, 1.0)
BELOW_ONE = np.nextafter(1.0, 0.0)
SNAPSHOTS = [(t, PQ) for t in (0.0, 0.5, 1.0)]

# argument -> (call with the argument set to v, name in the message, the
# nearest value below the allowed range; None where only finiteness counts)
CASES = {
    "transport h": (lambda v: transport(PQ, BURGERS, v), "step size", BELOW_ZERO),
    "th_step h": (lambda v: th_step(PQ, BURGERS, v), "step size", BELOW_ZERO),
    "decompose_time h": (lambda v: decompose_time(1.0, v), "step size", 0.0),
    "viscous_step h": (lambda v: viscous_step(PQ, BURGERS, v, 0.1), "step size", 0.0),
    "viscous_trajectory h": (
        lambda v: viscous_trajectory(PQ, BURGERS, v, 0.1, [0.0, 0.1]), "step size", 0.0
    ),
    "decompose_time t": (lambda v: decompose_time(v, 0.1), "time", BELOW_ZERO),
    # h is checked even when there are no times to split
    "sh_trajectory h": (lambda v: sh_trajectory(PQ, BURGERS, v, []), "step size", 0.0),
    "sh_trajectory t": (lambda v: sh_trajectory(PQ, BURGERS, 0.1, [0.0, v]), "time", BELOW_ZERO),
    "classical_characteristics t": (
        lambda v: classical_characteristics(PQ, make_builtin("linear(1)"), v), "time", BELOW_ZERO
    ),
    "exact_shock_cdf t": (
        lambda v: exact_shock_cdf(make_builtin("concave_quadratic"), v), "time", BELOW_ZERO
    ),
    "exact_rarefaction_cdf t": (lambda v: exact_rarefaction_cdf(v, 8), "time", BELOW_ZERO),
    "SmoothedCdf sigma": (lambda v: SmoothedCdf(PQ, v), "sigma", 0.0),
    "heat_resample sigma": (lambda v: heat_resample(PQ, v), "sigma", 0.0),
    "heat_resample tol": (lambda v: heat_resample(PQ, 0.5, tol=v), "tolerance", 0.0),
    "smoothed_quantile tol": (
        lambda v: smoothed_quantile(SmoothedCdf(PQ, 0.5), 0.3, tol=v), "tolerance", 0.0
    ),
    "MixtureState s": (lambda v: MixtureState(PQ, PQ, v), "interpolation weight", BELOW_ZERO),
    "viscous_step nu": (lambda v: viscous_step(PQ, BURGERS, 0.1, v), "viscosity", 0.0),
    "viscous_trajectory nu": (
        lambda v: viscous_trajectory(PQ, BURGERS, 0.1, v, [0.0, 0.1]), "viscosity", 0.0
    ),
    "moment p": (lambda v: moment(PQ, v), "order", BELOW_ONE),
    "tail_moment p": (lambda v: tail_moment(PQ, v, 0.5), "order", BELOW_ONE),
    "tail_moment r": (lambda v: tail_moment(PQ, 2.0, v), "radius", BELOW_ZERO),
    "wp_particles p": (lambda v: wp_particles(PQ, PQ, v), "order", BELOW_ONE),
    "wp_cdf p": (
        lambda v: wp_cdf(StepCdf([0.0], [1.0]), StepCdf([1.0], [1.0]), v), "order", BELOW_ONE
    ),
    "wp_from_staircases p": (
        lambda v: wp_from_staircases(quantile_staircase(PQ), quantile_staircase(PQ), [1.0, v]),
        "order",
        BELOW_ONE,
    ),
    "wp_trajectory p": (lambda v: wp_trajectory(STATES, STATES, [v]), "order", BELOW_ONE),
    "make_builtin linear speed": (lambda v: make_builtin("linear", c=v), "speed", None),
    "entropy_residuals t": (
        lambda v: entropy_residuals(SNAPSHOTS[:2] + [(v, PQ)], BURGERS, [0.5]),
        "snapshot time",
        BELOW_ZERO,
    ),
}


@pytest.mark.parametrize(
    "arg, value",
    [
        pytest.param(arg, value, id=f"{arg}={value}")
        for arg, (_, _, below) in CASES.items()
        for value in (np.nan, np.inf, -np.inf, below)
        if value is not None
    ],
)
def test_bad_numeric_argument_is_named(arg, value):
    call, name, _ = CASES[arg]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"{name}.* must be finite and .*got {value}"):
            call(value)


@pytest.mark.parametrize(
    "arg, value",
    [
        pytest.param(arg, value, id=f"{arg}={value!r}")
        for arg in CASES
        for value in ("0.5", b"0.5", True, np.True_)
    ],
)
def test_strings_and_bools_are_not_numbers(arg, value):
    # heat_resample(PQ, "0.5") ran with sigma = 0.5 and tail_moment(PQ,
    # True, 0.0) took p = 1; a string tol raised a bare TypeError
    call, name, _ = CASES[arg]
    with pytest.raises(ValueError, match=f"{name}.* must be a number, got {re.escape(repr(value))}"):
        call(value)


def test_values_that_slipped_through_are_rejected():
    with pytest.raises(ValueError, match="tail radius"):
        tail_moment(PQ, 2.0, np.nan)  # returned 0.0
    with pytest.raises(ValueError, match="quantile argument"):
        generalized_inverse(StepCdf([0.0, 1.0], [0.5, 1.0]), np.nan)  # raised IndexError
    with pytest.raises(ValueError, match="step size"):
        viscous_trajectory(PQ, BURGERS, -0.1, 0.1, [0.0])  # math domain error
    with pytest.raises(ValueError, match="sigma must be a number, got None"):
        heat_resample(PQ, None)  # raised TypeError
    cdfs = (StepCdf([0.0, 1.0], [0.5, 1.0]), MixtureState(PQ, PQ, 0.5), SmoothedCdf(PQ, 0.5))
    for cdf in cdfs:
        with pytest.raises(ValueError, match="CDF argument x"):
            cdf(np.nan)  # returned 1.0
    with pytest.raises(ValueError, match="CDF argument x"):
        eval_cdf(PQ, [0.0, np.nan])


# entry point taking a CDF point or quantile level -> (call with it set to
# v, name in the message)
POINTS = {
    "eval_cdf x": (lambda v: eval_cdf(PQ, v), "CDF argument x"),
    "StepCdf x": (lambda v: StepCdf([0.0, 1.0], [0.5, 1.0])(v), "CDF argument x"),
    "MixtureState x": (lambda v: MixtureState(PQ, PQ, 0.5)(v), "CDF argument x"),
    "SmoothedCdf x": (lambda v: SmoothedCdf(PQ, 0.5)(v), "CDF argument x"),
    "smoothed_cdf_eval x": (lambda v: smoothed_cdf_eval(SmoothedCdf(PQ, 0.5), v), "CDF argument x"),
    "generalized_inverse w": (lambda v: generalized_inverse(PQ, v), "quantile argument"),
    "mixture_quantile w": (lambda v: mixture_quantile(MixtureState(PQ, PQ, 0.5), v), "quantile argument"),
    "smoothed_quantile w": (
        lambda v: smoothed_quantile(SmoothedCdf(PQ, 0.5), v), "quantile argument"
    ),
    "entropy_residual k": (lambda v: entropy_residual(SNAPSHOTS, BURGERS, v), "entropy level"),
    "entropy_residuals ks": (
        lambda v: entropy_residuals(SNAPSHOTS, BURGERS, [v]), "entropy level"
    ),
}


@pytest.mark.parametrize(
    "arg, value",
    [
        pytest.param(arg, value, id=f"{arg}={value!r}")
        for arg in POINTS
        for value in (
            "0.5",
            b"0.5",
            True,
            np.True_,
            np.array([0.5, True]) > 0,
            np.array(["0.5"]),
            [0.25, "0.5"],
            np.array([0.5], dtype=object),
            0.5 + 0.0j,
        )
    ],
)
def test_points_that_are_not_numbers_are_rejected(arg, value):
    # eval_cdf(PQ, "0.5") returned 0.5, eval_cdf(PQ, True) 1.0,
    # generalized_inverse(PQ, "0.3") 0.0, entropy_residual(..., "0.5") the
    # level-0.5 residual and entropy_residuals(..., [True]) level 1's
    call, name = POINTS[arg]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"{name} must be a number, got "):
            call(value)


@pytest.mark.parametrize("arg", POINTS)
def test_integer_and_float_points_are_accepted(arg):
    call, name = POINTS[arg]
    points = (np.float32(0.25), np.float64(0.5))
    if name == "CDF argument x":
        points += (0, np.uint8(1), [-1, 0.5])
    for value in points:
        call(value)


def test_inline_linear_speed_is_checked():
    for text in ("linear(nan)", "linear(1e400)", "linear(-inf)"):
        with pytest.raises(ValueError, match="linear flux speed"):
            make_builtin(text)


# count argument -> (call with the count set to v, name in the message, the
# least count allowed)
COUNTS = {
    "midpoint_nodes n": (midpoint_nodes, "node count n", 1),
    "exact_rarefaction_cdf resolution": (
        lambda v: exact_rarefaction_cdf(1.0, resolution=v), "resolution", 1
    ),
    "lcg_floats count": (lambda v: lcg_floats(0, v), "count", 0),
    "BumpFamily n_centers_t": (lambda v: BumpFamily(n_centers_t=v), "BumpFamily.n_centers_t", 1),
    "BumpFamily n_centers_x": (lambda v: BumpFamily(n_centers_x=v), "BumpFamily.n_centers_x", 1),
}


@pytest.mark.parametrize(
    "arg, value",
    [
        pytest.param(arg, value, id=f"{arg}={value!r}")
        for arg, (_, _, least) in COUNTS.items()
        for value in (2.5, 3.0, np.nan, True, "3", least - 1, np.int64(least - 1))
    ],
)
def test_bad_count_is_named(arg, value):
    # midpoint_nodes(2.5) gave [0.2, 0.6, 1.0], a node at level 1; a NaN
    # resolution failed inside np.arange, and a float count inside numpy
    call, name, least = COUNTS[arg]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"{name} must be an integer of at least {least}"):
            call(value)


@pytest.mark.parametrize("arg", COUNTS)
def test_numpy_integer_counts_are_accepted(arg):
    # the heat step passes cluster sizes as np.int64
    call, _, least = COUNTS[arg]
    call(np.int64(least + 2))
