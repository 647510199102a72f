import importlib
import pkgutil

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
