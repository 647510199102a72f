import numpy as np
import pytest

from claw.config import ConfigError, build_initial, parse_config
from claw.lcg import Lcg64, lcg_floats

MINIMAL = """
kind = contraction_sweep
[flux]
name = burgers
"""


def test_minimal_config_gets_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.n_particles == 1024
    assert cfg.p_list == (1.0, 2.0)
    assert cfg.seed == 42
    assert cfg.flux.name == "burgers"
    assert cfg.h == 0.1


def test_zero_step_rejected():
    with pytest.raises(ConfigError, match="positive"):
        parse_config("h = 0\n" + MINIMAL)


def test_unknown_flux_rejected():
    with pytest.raises(ConfigError, match="flux"):
        parse_config("kind = contraction_sweep\n[flux]\nname = upwind\n")


def test_unknown_key_rejected_with_line():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("kind = contraction_sweep\n\nwibble = 3\n")


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("kind = contraction_sweep\n[extras]\n")


def test_missing_equals_is_syntax_error():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("kind contraction_sweep\n")


def test_missing_kind_rejected():
    with pytest.raises(ConfigError, match="'kind'"):
        parse_config("n_particles = 8\n")


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError, match="unknown kind"):
        parse_config("kind = dance\n")


def test_h_list_only_for_convergence_study():
    with pytest.raises(ConfigError, match="convergence_study"):
        parse_config("h = 0.1 0.05\n" + MINIMAL)
    cfg = parse_config(
        "kind = convergence_study\nh = 0.1 0.05\n[initial_a]\npreset = dirac(0)\n"
        "[flux]\nname = concave_quadratic\n"
    )
    assert cfg.h_list == (0.1, 0.05)


def test_viscous_requires_positive_nu():
    with pytest.raises(ConfigError, match="nu"):
        parse_config("kind = viscous_contraction\nnu = 0\n")


def test_moment_audit_tail_radius_guard():
    with pytest.raises(ConfigError, match="r_tail"):
        parse_config("kind = moment_audit\nh = 0.5\nr_tail = 0.2\n")


def test_overrides_reach_sections():
    cfg = parse_config(MINIMAL, overrides=[("flux.name", "cubic"), ("seed", "7")])
    assert cfg.flux.name == "cubic"
    assert cfg.seed == 7


def test_override_unknown_key_rejected():
    with pytest.raises(ConfigError, match="override"):
        parse_config(MINIMAL, overrides=[("frobnicate", "1")])


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# header\nkind = contraction_sweep  # trailing\n\nseed = 3\n")
    assert cfg.seed == 3


class TestPresets:
    def test_dirac(self):
        pq = build_initial({"preset": "dirac(1.5)"}, 5)
        assert np.all(pq.positions == 1.5)

    def test_uniform(self):
        pq = build_initial({"preset": "uniform(0, 2)"}, 4)
        assert np.allclose(pq.positions, [0.25, 0.75, 1.25, 1.75])

    def test_two_atom(self):
        pq = build_initial({"preset": "two_atom(1, -1)"}, 4)
        assert pq.positions.tolist() == [-1.0, -1.0, 1.0, 1.0]

    def test_random_is_reproducible(self):
        a = build_initial({"preset": "random(9)"}, 64)
        b = build_initial({"preset": "random(9)"}, 64)
        assert np.array_equal(a.positions, b.positions)

    def test_random_mixes_atoms_and_uniform(self):
        pq = build_initial({"preset": "random(3)", "atoms": "-0.5 0.5"}, 512)
        on_atoms = np.isin(pq.positions, [-0.5, 0.5]).mean()
        assert 0.3 < on_atoms < 0.7

    def test_random_respects_bounds(self):
        pq = build_initial({"preset": "random(4)", "a": "2", "b": "3", "atoms": "2.5"}, 128)
        assert pq.positions.min() >= 2.0 and pq.positions.max() <= 3.0

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            build_initial({"preset": "spike(0)"}, 4)

    def test_uniform_needs_ordered_bounds(self):
        with pytest.raises(ConfigError, match="uniform"):
            build_initial({"preset": "uniform(1, 0)"}, 4)


class TestLcg:
    def test_known_answer_sequence(self):
        # frozen from the documented constants:
        # x' = (6364136223846793005 x + 1442695040888963407) mod 2^64
        rng = Lcg64(42)
        xs = [rng.next_u64() for _ in range(3)]
        assert xs == [
            (6364136223846793005 * 42 + 1442695040888963407) % 2**64,
            (6364136223846793005 * xs[0] + 1442695040888963407) % 2**64,
            (6364136223846793005 * xs[1] + 1442695040888963407) % 2**64,
        ]

    def test_floats_in_unit_interval(self):
        rng = Lcg64(1)
        us = [rng.next_float() for _ in range(1000)]
        assert all(0.0 <= u < 1.0 for u in us)
        assert 0.4 < np.mean(us) < 0.6


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
@pytest.mark.parametrize("count", [0, 1, 2, 17, 4097])
def test_lcg_floats_match_successive_draws(seed, count):
    rng = Lcg64(seed)
    expected = np.array([rng.next_float() for _ in range(count)])
    got = lcg_floats(seed, count)
    assert got.shape == (count,)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def _random_preset_by_loop(seed, n, a=-1.0, b=1.0, atoms=(-0.5, 0.5)):
    """The random preset as one Lcg64 draw at a time: coin, then value."""
    rng = Lcg64(seed)
    draws = np.empty(n)
    for i in range(n):
        if rng.next_float() < 0.5:
            draws[i] = rng.uniform(a, b)
        else:
            draws[i] = rng.choice(atoms)
    return np.sort(draws, kind="stable")


@pytest.mark.parametrize(
    "keys, loop_args",
    [
        ({}, {}),
        ({"a": "-100", "b": "-99.5", "atoms": "100"}, {"a": -100.0, "b": -99.5, "atoms": (100.0,)}),
        (
            {"a": "0.1", "b": "0.7", "atoms": "-3 0.2 0.3 7.5 1e-3"},
            {"a": 0.1, "b": 0.7, "atoms": (-3.0, 0.2, 0.3, 7.5, 1e-3)},
        ),
    ],
)
def test_random_preset_is_bit_identical_to_the_draw_loop(keys, loop_args):
    for seed in (0, 9, 2**40 + 3, 2**63 + 5):
        for n in (1, 3, 64, 1025):
            got = build_initial({"preset": f"random({seed})", **keys}, n).positions
            expected = _random_preset_by_loop(seed, n, **loop_args)
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_random_seeds_above_2_to_53_stay_distinct():
    big = build_initial({"preset": f"random({2**63 + 5})"}, 256).positions
    other = build_initial({"preset": f"random({2**63})"}, 256).positions
    assert not np.array_equal(big, other)
    expected = _random_preset_by_loop(2**63 + 5, 256)
    assert np.array_equal(big.view(np.uint64), expected.view(np.uint64))
    top = build_initial({"preset": f"random({2**64 - 1})"}, 16).positions
    assert np.array_equal(top.view(np.uint64), _random_preset_by_loop(2**64 - 1, 16).view(np.uint64))


@pytest.mark.parametrize(
    "preset", ["random(-1)", "random(18446744073709551616)", "random(1e30)", "random(7.5)",
               "random(7.0)", "random(+7)", "random(7_0)", "random()", "random(1, 2)"]
)
def test_random_rejects_seeds_that_are_not_64_bit_integers(preset):
    with pytest.raises(ConfigError, match="integer seed"):
        build_initial({"preset": preset}, 4)


def test_random_seed_spellings_in_use_are_unchanged():
    # the plain decimal seeds of the tests and the benchmark pools, with
    # the whitespace and leading zeros the preset grammar allows
    for seed in (0, 1, 3, 7, 8, 42, 900, 1000, 2001, 3000, 4099, 5000, 30000, 30906, 50000, 51999):
        expected = _random_preset_by_loop(seed, 64).view(np.uint64)
        for text in (f"random({seed})", f"random( {seed} )", f"random(00{seed})"):
            got = build_initial({"preset": text}, 64).positions
            assert np.array_equal(got.view(np.uint64), expected)
