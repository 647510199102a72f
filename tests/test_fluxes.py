import numpy as np
import pytest
from scipy.integrate import quad

from claw.fluxes import flux_from_file, make_builtin, make_tabulated


def burgers_table(n=101):
    u = np.linspace(0.0, 1.0, n)
    return np.column_stack([u, 0.5 * u**2])


class TestBuiltins:
    def test_burgers_derivative(self):
        assert make_builtin("burgers").deriv(0.5) == 0.5

    def test_concave_quadratic_shock_speed(self):
        # Rankine-Hugoniot for the 0-to-1 jump: (f(1) - f(0)) / 1 = 1/2
        f = make_builtin("concave_quadratic")
        assert f.value(1.0) - f.value(0.0) == 0.5

    def test_linear_constant_speed(self):
        f = make_builtin("linear", c=-2.0)
        assert np.all(f.deriv(np.linspace(0, 1, 11)) == -2.0)
        assert f.lipschitz_bound == 2.0

    def test_linear_inline_parameter(self):
        assert make_builtin("linear(0.5)").deriv(0.3) == 0.5

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown flux"):
            make_builtin("godunov")

    def test_parameter_on_parameterless_flux(self):
        with pytest.raises(ValueError):
            make_builtin("burgers", c=1.0)

    def test_parameter_given_twice(self):
        with pytest.raises(ValueError, match="both inline and as argument"):
            make_builtin("linear(1)", c=2.0)

    def test_domain_enforced(self):
        with pytest.raises(ValueError, match="outside"):
            make_builtin("burgers").value(1.5)

    @pytest.mark.parametrize("name,sign", [("burgers", 1), ("cubic", 1), ("concave_quadratic", -1)])
    def test_speed_monotonicity(self, name, sign):
        f = make_builtin(name)
        speeds = f.deriv(np.linspace(0, 1, 101))
        assert np.all(sign * np.diff(speeds) >= 0)

    @pytest.mark.parametrize("name", ["burgers", "concave_quadratic", "cubic", "linear(3)"])
    def test_derivative_consistency(self, name, rng):
        f = make_builtin(name)
        for _ in range(5):
            a, b = np.sort(rng.uniform(0, 1, 2))
            integral, _ = quad(lambda u: f.deriv(float(u)), a, b)
            assert f.value(b) - f.value(a) == pytest.approx(integral, abs=1e-6)

    @pytest.mark.parametrize("name", ["burgers", "concave_quadratic", "cubic"])
    def test_lipschitz_bound_holds(self, name):
        f = make_builtin(name)
        assert np.all(np.abs(f.deriv(np.linspace(0, 1, 301))) <= f.lipschitz_bound)


class TestTabulated:
    def test_burgers_samples_derivative(self):
        f = make_tabulated(burgers_table())
        assert f.deriv(0.5) == pytest.approx(0.5, abs=5e-3)

    def test_two_point_table_is_linear(self):
        f = make_tabulated([(0.0, 0.0), (0.5, 1.5), (1.0, 3.0)])
        ref = make_builtin("linear", c=3.0)
        xs = np.linspace(0, 1, 17)
        assert np.allclose(f.value(xs), ref.value(xs))
        assert np.allclose(f.deriv(xs), 3.0)

    def test_lipschitz_bound_of_burgers_chords(self):
        f = make_tabulated(burgers_table())
        assert f.lipschitz_bound == pytest.approx(1.0, abs=1e-2)

    def test_right_continuous_slope_at_knot(self):
        f = make_tabulated([(0.0, 0.0), (0.5, 0.0), (1.0, 1.0)])
        assert f.deriv(0.5) == 2.0
        assert f.deriv(0.49) == 0.0

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="ascending"):
            make_tabulated([(0.0, 0.0), (0.6, 0.1), (0.5, 0.2), (1.0, 1.0)])

    def test_rejects_not_spanning(self):
        with pytest.raises(ValueError, match="span"):
            make_tabulated([(0.1, 0.0), (0.5, 0.2), (1.0, 0.5)])

    @pytest.mark.parametrize(
        "samples, match",
        [
            ([0.0, 0.5, 1.0], "pairs"),
            ([(0.0, 0.0, 0.0), (0.5, 0.1, 0.0), (1.0, 0.5, 0.0)], "pairs"),
            ([(0.0, 0.0), (0.5, np.nan), (1.0, 0.5)], "finite"),
            ([(0.0, 0.0), (0.5, 0.1), (np.inf, 0.5)], "finite"),
        ],
        ids=["flat-list", "triples", "nan-value", "inf-u"],
    )
    def test_rejects_malformed_samples(self, samples, match):
        with pytest.raises(ValueError, match=match):
            make_tabulated(samples)

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError, match="3 samples"):
            make_tabulated([(0.0, 0.0), (1.0, 1.0)])

    def test_derivative_consistency(self, rng):
        f = make_tabulated(burgers_table(21))
        knots = np.linspace(0, 1, 21)
        for _ in range(5):
            a, b = np.sort(rng.uniform(0, 1, 2))
            inner = [k for k in knots if a < k < b]
            integral, _ = quad(lambda u: f.deriv(float(u)), a, b, points=inner, limit=200)
            assert f.value(b) - f.value(a) == pytest.approx(integral, abs=1e-6)

    def test_from_file(self, tmp_path):
        path = tmp_path / "flux.txt"
        np.savetxt(path, burgers_table())
        f = flux_from_file(path)
        assert f.deriv(0.25) == pytest.approx(0.25, abs=6e-3)
