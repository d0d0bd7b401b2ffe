"""The export contract: each module's `__all__` is the one list of what `teleport3q` exports."""

import inspect
import types

import pytest

import teleport3q
from teleport3q import feasibility, linalg, protocols, states

MODULES = (linalg, states, protocols, feasibility)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_all_names_are_defined_in_that_module(module):
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert name in vars(module), name
        value = vars(module)[name]
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == module.__name__, name


def test_package_all_is_the_version_then_the_module_lists():
    assert teleport3q.__all__ == ["__version__", *(name for m in MODULES for name in m.__all__)]


def test_package_exports_exactly_its_all():
    public = {
        name
        for name, value in vars(teleport3q).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(teleport3q.__all__) - {"__version__"}
