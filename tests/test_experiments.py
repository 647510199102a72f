import csv
import io

import numpy as np
import pytest

import claw.experiments
from claw.config import build_initial, parse_config
from claw.experiments import ResultTable, emit_csv, run_experiment

BASE = """
kind = {kind}
n_particles = 128
h = 0.1
t_final = 1.0
p_list = 1 2
n_times = 9
seed = 42
{extra}
[flux]
name = {flux}
[initial_a]
preset = {a}
[initial_b]
preset = {b}
"""


def make_cfg(kind, flux="burgers", a="random(7)", b="random(8)", extra=""):
    return parse_config(BASE.format(kind=kind, flux=flux, a=a, b=b, extra=extra))


class TestContractionSweep:
    def test_ratios_never_exceed_one(self):
        table = run_experiment(make_cfg("contraction_sweep"))
        for p in (1, 2):
            assert np.all(table.column(f"ratio{p}") <= 1 + 1e-10)

    def test_distances_nonnegative(self):
        table = run_experiment(make_cfg("contraction_sweep", flux="concave_quadratic"))
        assert np.all(table.column("w1") >= 0)
        assert table.column("t")[-1] == 1.0

    def test_an_order_whose_powers_underflow_is_not_zero(self):
        # the largest gap is 0.26, so every gap**1000 underflows to 0: w1000
        # read 0 and ratio1000 1 at every time.  W_1000 lies between W_2 and
        # W_inf, which is at most the largest gap at t = 0
        text = BASE.format(
            kind="contraction_sweep", flux="burgers", a="random(7)", b="random(8)", extra=""
        )
        cfg = parse_config(text, [("p_list", "1 2 1000")])
        a, b = (build_initial(spec, 128) for spec in (cfg.initial_a, cfg.initial_b))
        table = run_experiment(cfg)
        w2, w1000 = table.column("w2"), table.column("w1000")
        assert np.all((w2 < w1000) & (w1000 <= np.max(np.abs(a.positions - b.positions))))
        assert np.all(table.column("ratio1000") <= 1 + 1e-10)
        assert np.any(table.column("ratio1000") < 1.0)


class TestClassicalConstancy:
    def test_constant_gap_preserved(self):
        table = run_experiment(
            make_cfg("classical_constancy", a="uniform(0,1)", b="uniform(0.5,1.5)")
        )
        for p in (1, 2):
            assert np.all(table.column(f"drift{p}") <= 1e-12)


class TestConvergenceStudy:
    def test_shock_oracle_reads_the_parsed_dirac_position(self, monkeypatch):
        # the oracle takes x0 from the preset's arguments; the datum itself
        # is the only particle system built
        built = []
        real = claw.experiments.build_initial
        monkeypatch.setattr(
            claw.experiments, "build_initial", lambda *args: built.append(args) or real(*args)
        )
        table = run_experiment(make_cfg("convergence_study", "concave_quadratic", a="dirac(0.25)"))
        assert [args[2] for args in built] == ["initial_a"]
        shifted = run_experiment(make_cfg("convergence_study", "concave_quadratic", a="dirac(0)"))
        assert table.column("l1_error") == pytest.approx(shifted.column("l1_error"), abs=1e-12)

    def test_shock_errors_reported_per_h(self):
        cfg = make_cfg(
            "convergence_study",
            flux="concave_quadratic",
            a="dirac(0)",
            extra="",
        )
        cfg.h_list = (0.11, 0.051)
        table = run_experiment(cfg)
        assert table.columns[:3] == ["h", "n_particles", "l1_error"]
        assert len(table.rows) == 2
        assert np.all(table.column("l1_error") >= 0)

    def test_shifted_dirac_uses_shifted_oracle(self):
        cfg = make_cfg("convergence_study", flux="concave_quadratic", a="dirac(2)")
        cfg.h_list = (0.09,)
        table = run_experiment(cfg)
        assert table.column("l1_error")[0] < 0.1

    def test_rarefaction_oracle_route(self):
        cfg = make_cfg("convergence_study", flux="burgers", a="uniform(0,1)")
        table = run_experiment(cfg)
        # scheme is exact here; only representation error ~ width/(2N) remains
        assert table.column("l1_error")[0] < 2.0 / cfg.n_particles

    @pytest.mark.parametrize(
        "preset", ["uniform(0,1)", "uniform(0.0, 1.0)", "uniform(0, 1.0)", "uniform( 0 , 1e0 )"]
    )
    def test_rarefaction_oracle_reads_preset_numbers(self, preset):
        table = run_experiment(make_cfg("convergence_study", flux="burgers", a=preset))
        reference = run_experiment(make_cfg("convergence_study", flux="burgers", a="uniform(0, 1)"))
        assert table.rows == reference.rows

    def test_oracle_unavailable(self):
        cfg = make_cfg("convergence_study", flux="burgers", a="two_atom(0,1)")
        with pytest.raises(ValueError, match="oracle"):
            run_experiment(cfg)


class TestMomentAudit:
    def test_bounds_dominate_measurements(self):
        table = run_experiment(make_cfg("moment_audit", extra="r_tail = 1.5\n"))
        assert np.all(table.column("moment_bound") >= table.column("moment"))
        assert np.all(table.column("tail_bound") >= table.column("tail"))


class TestViscousContraction:
    def test_ratios_within_bisection_slack(self):
        cfg = make_cfg("viscous_contraction", extra="nu = 0.5\nn_particles = 1024")
        table = run_experiment(cfg)
        for p in (1, 2):
            assert np.all(table.column(f"ratio{p}") <= 1 + 1e-6)


class TestEntropyResidualKind:
    def test_eleven_levels_reported(self):
        cfg = make_cfg("entropy_residual", flux="burgers", a="uniform(0,1)")
        cfg.n_particles = 512
        cfg.n_times = 65
        table = run_experiment(cfg)
        assert table.column("k").tolist() == np.linspace(0, 1, 11).tolist()
        assert np.all(table.column("residual") <= 1e-2)


class TestResultTable:
    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="width"):
            ResultTable(["a", "b"], [[1.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            ResultTable(["a"], [[np.inf]])

    def test_names_the_first_row_with_a_non_finite_entry(self):
        rows = [[1.0, 2.0], [3.0, 4.0], [5.0, np.nan], [np.inf, 6.0]]
        with pytest.raises(ValueError, match=r"non-finite entry in row \[5.0, nan\]"):
            ResultTable(["a", "b"], rows)


class TestEmitCsv:
    def test_empty_table_is_header_only(self):
        sink = io.StringIO()
        emit_csv(ResultTable(["x", "y"], [], {"note": "none"}), sink)
        assert sink.getvalue() == "# note = none\nx,y\n"

    def test_rows_roundtrip_through_csv_reader(self):
        table = ResultTable(["x", "y"], [[1.0 / 3.0, 2.0], [0.1, -5.5]], {})
        sink = io.StringIO()
        emit_csv(table, sink)
        rows = [r for r in csv.reader(io.StringIO(sink.getvalue())) if not r[0].startswith("#")]
        assert rows[0] == ["x", "y"]
        assert [[float(v) for v in r] for r in rows[1:]] == table.rows

    def test_seventeen_significant_digits_roundtrip(self):
        value = np.nextafter(1.0 / 3.0, 1.0)
        sink = io.StringIO()
        emit_csv(ResultTable(["v"], [[value]], {}), sink)
        reparsed = float(sink.getvalue().splitlines()[-1])
        assert reparsed == value

    def test_deterministic_bytes_for_fixed_seed(self):
        outs = []
        for _ in range(2):
            table = run_experiment(make_cfg("contraction_sweep"))
            sink = io.StringIO()
            emit_csv(table, sink)
            outs.append(sink.getvalue())
        assert outs[0] == outs[1]
        assert "\r" not in outs[0]
