import numpy as np
import pytest

from claw.entropy import BumpFamily, entropy_residual, entropy_residuals
from claw.fluxes import make_builtin
from claw.measures import ParticleQuantiles, midpoint_nodes, particles_from_cdf
from claw.scheme import classical_characteristics, exact_shock_cdf

concave = make_builtin("concave_quadratic")
burgers = make_builtin("burgers")

N_STATE = 1024
N_TIMES = 129


def shock_states(t_final=1.0):
    times = np.linspace(0.0, t_final, N_TIMES)
    return [(t, particles_from_cdf(exact_shock_cdf(concave, t), N_STATE)) for t in times]


def rarefaction_states(t_final=1.0):
    times = np.linspace(0.0, t_final, N_TIMES)
    u0 = ParticleQuantiles(midpoint_nodes(N_STATE))
    return [(t, classical_characteristics(u0, burgers, t)) for t in times]


def reversed_shock_states(t_final=1.0):
    fwd = shock_states(t_final)
    return [(t, state) for (t, _), (_, state) in zip(fwd, reversed(fwd))]


@pytest.fixture(scope="module")
def controls():
    return shock_states(), rarefaction_states(), reversed_shock_states()


def test_admissible_shock_passes_all_levels(controls):
    shock, _, _ = controls
    for k in np.linspace(0.0, 1.0, 11):
        assert entropy_residual(shock, concave, float(k)) <= 1e-3


def test_classical_rarefaction_passes_all_levels(controls):
    _, rare, _ = controls
    assert np.all(entropy_residuals(rare, burgers, np.linspace(0.0, 1.0, 11)) <= 1e-3)


def test_reversed_shock_rejected(controls):
    _, _, reversed_ = controls
    worst = np.max(entropy_residuals(reversed_, concave, np.linspace(0.0, 1.0, 11)))
    assert worst > 0.01


def test_interior_shock_bump_sees_strict_dissipation(controls):
    # a mid-level Kruzkov entropy dissipates at rate k(1-k) along the shock,
    # so some bump residual should be clearly negative
    shock, _, _ = controls
    assert entropy_residual(shock, concave, 0.5) < 1e-3


def test_too_few_snapshots_rejected(controls):
    shock, _, _ = controls
    with pytest.raises(ValueError, match="3 snapshots"):
        entropy_residual(shock[:2], concave, 0.5)


def test_nonuniform_times_rejected(controls):
    shock, _, _ = controls
    warped = [shock[0], shock[1], shock[4]]
    with pytest.raises(ValueError, match="uniformly spaced"):
        entropy_residual(warped, concave, 0.5)


def test_level_outside_unit_interval_rejected(controls):
    shock, _, _ = controls
    with pytest.raises(ValueError, match="entropy level"):
        entropy_residual(shock, concave, 1.5)


def test_custom_family_still_detects(controls):
    _, _, reversed_ = controls
    small = BumpFamily(n_centers_t=4, n_centers_x=6, radii_t=(0.5,), radii_x=(0.4,))
    worst = max(
        entropy_residual(reversed_, concave, float(k), grid=small)
        for k in np.linspace(0.0, 1.0, 11)
    )
    assert worst > 0.01
