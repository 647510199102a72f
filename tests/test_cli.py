import io
import math
import sys

import pytest

from claw.cli import main

GOOD = """
kind = contraction_sweep
n_particles = 64
h = 0.1
t_final = 0.5
n_times = 5
[flux]
name = burgers
[initial_a]
preset = random(7)
[initial_b]
preset = random(8)
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(GOOD)
    return path


def test_version_prints_and_exits_zero(capsys):
    assert main(["version"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.count(".") == 2


def test_run_writes_csv_to_stdout(config_file, capsys):
    assert main(["run", str(config_file)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1].count(",") >= 2
    assert "t,w1,ratio1" in out


def test_run_writes_output_file(config_file, tmp_path, capsys):
    out_path = tmp_path / "result.csv"
    code = main(["run", str(config_file), "--set", f"output={out_path}"])
    assert code == 0
    assert out_path.read_text().startswith("#")


def test_run_is_byte_deterministic(config_file, tmp_path):
    path = tmp_path / "out.csv"
    contents = []
    for _ in range(2):
        assert main(["run", str(config_file), "--set", f"output={path}"]) == 0
        contents.append(path.read_bytes())
    assert contents[0] == contents[1]


def test_config_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("kind = contraction_sweep\nh = 0\n")
    assert main(["run", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err


def test_overflowing_particle_count_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("kind = contraction_sweep\nn_particles = 1e400\n")
    assert main(["run", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err


def test_missing_file_exits_one(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_config_that_is_not_utf8_exits_one(tmp_path, capsys):
    # only OSError was caught, so UnicodeDecodeError ended in a traceback
    bad = tmp_path / "binary.cfg"
    bad.write_bytes(b"kind = contraction_sweep\n\xff\xfe\x00\n")
    assert main(["run", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config:") and "utf-8" in err


def test_unwritable_output_exits_one(config_file, tmp_path, capsys):
    # a missing directory raised FileNotFoundError out of main
    out_path = tmp_path / "no_such_dir" / "result.csv"
    assert main(["run", str(config_file), "--set", f"output={out_path}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output:") and "no_such_dir" in err
    assert not out_path.exists()


def test_malformed_override_exits_one(config_file, capsys):
    assert main(["run", str(config_file), "--set", "n_particles"]) == 1


def test_set_override_applies(config_file, capsys):
    assert main(["run", str(config_file), "--set", "n_times=3"]) == 0
    out = capsys.readouterr().out
    data_lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(data_lines) == 1 + 3


def test_tabulated_flux_runs_end_to_end(tmp_path, capsys):
    table = tmp_path / "flux.txt"
    table.write_text("0 0\n0.25 0.03125\n0.5 0.125\n1 0.5\n")
    cfg = tmp_path / "tabulated.cfg"
    cfg.write_text(GOOD.replace("name = burgers", f"name = tabulated\nfile = {table}"))
    assert main(["run", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "# config flux.name = tabulated" in out
    assert f"# config flux.file = {table}" in out
    rows = [l.split(",") for l in out.splitlines() if l and not l.startswith(("#", "t,"))]
    assert len(rows) == 5
    assert all(float(r[2]) <= 1 + 1e-10 for r in rows)  # ratio1


def test_viscous_run_far_from_the_origin(tmp_path, capsys):
    # max|x| + 10 sigma is past 2^18, where two float spacings exceed the
    # 1e-10 default tol; with no tol to give, the run must take the least
    # one the data allow instead of failing on it
    cfg = tmp_path / "far.cfg"
    cfg.write_text(
        "kind = viscous_contraction\nn_particles = 64\nh = 0.1\nt_final = 0.2\n"
        "n_times = 3\nnu = 0.1\n[flux]\nname = burgers\n"
        "[initial_a]\npreset = uniform(1000000, 1000001)\n"
        "[initial_b]\npreset = uniform(1000000.5, 1000001.5)\n"
    )
    assert main(["run", str(cfg)]) == 0
    out = capsys.readouterr().out
    rows = [l.split(",") for l in out.splitlines() if l and not l.startswith(("#", "t,"))]
    assert len(rows) == 3
    assert all(math.isfinite(float(v)) for r in rows for v in r)


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "pass" in out
    assert "pass  entropy screen" in out
    assert "pass  heat table accuracy" in out


@pytest.mark.parametrize("override", ["p_list=1\n2", "output=out\nINJECTED,1,2", "seed=1\u20282"])
def test_override_with_a_line_break_exits_one(override, config_file, tmp_path, capsys, monkeypatch):
    # the value was echoed into the CSV's '#' block, where its second line
    # read as a header or a data row
    monkeypatch.chdir(tmp_path)
    out_path = tmp_path / "result.csv"
    argv = ["run", str(config_file), "--set", override, "--set", f"output={out_path}"]
    assert main(argv) == 1
    assert "config error: override" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [config_file]


def test_value_error_outside_the_config_exits_one(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("kind = convergence_study\nn_particles = 16\n")
    assert main(["run", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: no exact oracle") and "'random(7)'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "p_list, r_tail",
    [("1 1100", None), ("1 200", "0.1001")],
    ids=["moment-bound-factor", "tail-bound-factor"],
)
def test_overflowing_moment_bound_exits_one(p_list, r_tail, tmp_path, capsys):
    cfg = tmp_path / "audit.cfg"
    cfg.write_text(
        "kind = moment_audit\nn_particles = 8\nh = 0.1\nt_final = 0.3\n"
        + (f"r_tail = {r_tail}\n" if r_tail else "")
        + "[flux]\nname = burgers\n"
    )
    assert main(["run", str(cfg), "--set", f"p_list={p_list}"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: non-finite entry in row [")
    assert captured.err.count("\n") == 1 and "inf" in captured.err
    assert captured.out == ""


def test_selftest_failure_exits_two(monkeypatch, capsys):
    import claw.selftest

    checks = list(claw.selftest.CHECKS)
    checks[0] = (checks[0][0], lambda: "forced failure")
    monkeypatch.setattr(claw.selftest, "CHECKS", checks)
    assert main(["selftest"]) == 2
    captured = capsys.readouterr()
    assert f"FAIL  {checks[0][0]}: forced failure" in captured.out
    assert "1 invariant check(s) failed" in captured.err
