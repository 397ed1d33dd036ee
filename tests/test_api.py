"""Public surface: every module's __all__ names what the module defines.

Tools that wrap a module's public functions by its __all__ (the
benchmark's tracer among them) skip a stale name without a word, so a
removed or moved function must leave no name behind.
"""

import importlib
import inspect

import pytest

import kickedrotor

MODULES = ["classical", "cli", "profiles", "quantum2d", "quantum3d", "semiclassical",
           "specfun", "squeeze", "thermal"]


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
