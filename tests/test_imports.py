import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import claw
import claw.measures
import claw.wasserstein


def test_every_exported_name_resolves():
    modules = [claw] + [
        importlib.import_module(f"claw.{info.name}") for info in pkgutil.iter_modules(claw.__path__)
    ]
    # the command line module exports nothing
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_wasserstein_reexports_quantile_staircase():
    assert claw.wasserstein.quantile_staircase is claw.measures.quantile_staircase


INVISCID = """
kind = contraction_sweep
n_particles = 64
[initial_a]
preset = random(7)
[initial_b]
preset = random(8)
"""

# every cluster is tabled and every node certified, so the exact solver
# never runs
VISCOUS = """
kind = viscous_contraction
n_particles = 128
h = 0.05
t_final = 0.2
n_times = 3
nu = 0.01
[initial_a]
preset = uniform(0, 1)
[initial_b]
preset = uniform(-0.5, 1.5)
"""


def loads_scipy(code):
    """Whether ``code``, run in a fresh interpreter that imports claw from
    this checkout, leaves scipy in ``sys.modules``; the suite itself
    imports scipy, so this cannot be checked in process."""
    src = os.path.dirname(os.path.dirname(claw.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = code + "\nimport sys\nprint('scipy' in sys.modules)\n"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()[-1] == "True"


@pytest.mark.parametrize("text", [INVISCID, VISCOUS], ids=["inviscid", "viscous"])
def test_runs_that_never_reach_the_exact_solver_leave_scipy_unloaded(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out.csv"
    args = ["run", str(cfg), "--set", f"output={out}"]
    assert not loads_scipy(f"from claw.cli import main\nassert main({args!r}) == 0")
    assert out.read_text().startswith("#")


@pytest.mark.parametrize(
    "code, loaded",
    [
        ("import claw", False),
        ("from claw.cli import main\nassert main(['version']) == 0", False),
        (
            "from claw import SmoothedCdf, ParticleQuantiles, smoothed_quantile\n"
            "smoothed_quantile(SmoothedCdf(ParticleQuantiles([0.0, 1.0]), 0.5), 0.25)",
            True,
        ),
    ],
    ids=["import", "version", "smoothed_quantile"],
)
def test_scipy_is_loaded_only_by_the_exact_window_sum(code, loaded):
    assert loads_scipy(code) == loaded
