"""Public surface: every module's __all__ names what the module defines,
and running the package leaves no module state behind.

Tools that wrap a module's public functions by its __all__ (the
benchmark's tracer among them) skip a stale name without a word, so a
removed or moved function must leave no name behind.
"""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import kickedrotor
from kickedrotor import cli

# every module of the package, so that a new one cannot skip the check
MODULES = [info.name.removeprefix("kickedrotor.")
           for info in pkgutil.walk_packages(kickedrotor.__path__, "kickedrotor.")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_are_defined_in_their_module(name):
    mod = importlib.import_module(f"kickedrotor.{name}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    for attr in mod.__all__:
        assert hasattr(mod, attr), f"{name}.__all__ names missing {attr!r}"
        obj = getattr(mod, attr)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == mod.__name__, f"{name}.{attr} is defined in {obj.__module__}"


def test_package_all_names_exist():
    for attr in kickedrotor.__all__:
        assert hasattr(kickedrotor, attr)


# one small scenario of each command, with both kicks of quantum3d
_SCENARIOS = [
    dict(command="quantum2d", P=23.0, s=1.0, coupling="polarization", grid_points=16),
    dict(command="quantum3d", P=23.0, s=1.0, grid_points=16),
    dict(command="quantum3d", P=33.0, s=1.0, coupling="polarization", grid_points=16),
    dict(command="classical", P=23.0, s=1.0, dim=3, grid_points=16),
    dict(command="semiclassical", P=23.0, s=1.0, method="pearcey", dim=3, grid_points=5, window=[0.0, 0.2]),
    dict(command="compare", P=23.0, s=4.0, dim=2, methods=["exact", "airy"], grid_points=16),
    dict(command="thermal", P_prime=5.0, t_prime=1.0, particles=1000, grid_points=16),
    dict(command="squeeze", kicks=3),
    dict(command="squeeze", P_prime=5.0, particles=1000, kicks=3),
]


def _module_state():
    # (module, name) -> length of every module-level dict, list and set
    state = {}
    for info in pkgutil.walk_packages(kickedrotor.__path__, "kickedrotor."):
        mod = importlib.import_module(info.name)
        for name, value in vars(mod).items():
            if not name.startswith("__") and isinstance(value, (dict, list, set)):
                state[info.name, name] = len(value)
    return state


def test_runs_leave_module_state_unchanged(tmp_path):
    # no module-level container grows with the runs (no unbounded cache),
    # and every lru_cache in the package has a finite size
    before = _module_state()
    for i, d in enumerate(_SCENARIOS):
        cli.run(cli.ScenarioConfig.from_dict(dict(d, output_path=f"s{i}.csv")))
    f = tmp_path / "b.jsonl"
    f.write_text(json.dumps(dict(_SCENARIOS[0], output_path="b.csv")) + "\n")
    assert [e["status"] for e in cli.batch(str(f), str(tmp_path / "out"))[1]] == ["ok"]
    assert _module_state() == before
    for info in pkgutil.walk_packages(kickedrotor.__path__, "kickedrotor."):
        for name, value in vars(importlib.import_module(info.name)).items():
            if hasattr(value, "cache_parameters"):
                assert value.cache_parameters()["maxsize"] is not None, f"{info.name}.{name}"


def test_runtime_imports_numpy_only():
    # a fresh interpreter runs the exact 2D, 3D cusp and squeeze scenarios
    # without loading any of the test-side tools
    lines = [dict(d, output_path="x.csv") for d in _SCENARIOS
             if d["command"] in ("quantum2d", "semiclassical", "squeeze")]
    code = ("import sys\nfrom kickedrotor import cli\n"
            f"for d in {lines!r}:\n    cli.run(cli.ScenarioConfig.from_dict(d))\n"
            "print(sorted({m.partition('.')[0] for m in sys.modules} & {'scipy', 'mpmath', 'hypothesis'}))")
    src = os.path.dirname(os.path.dirname(kickedrotor.__file__))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
