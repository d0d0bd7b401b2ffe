"""The export contract: each module's `__all__` is the one list of what `teleport3q` exports."""

import ast
import inspect
import re
import types
from pathlib import Path

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


TOLERANCE = re.compile(r"[A-Z_]*(TOL|FLOOR|BAND|DEFECT)")


def test_readme_tolerance_table_lists_exactly_the_tolerance_constants():
    """README's "Conventions" table has one `module.NAME | value` row per tolerance constant that
    linalg, protocols or feasibility assigns itself (not an import), with that constant's value."""
    defined = {}
    for module in (linalg, protocols, feasibility):
        for node in ast.parse(inspect.getsource(module)).body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and TOLERANCE.fullmatch(target.id):
                        defined[f"{module.__name__.split('.')[-1]}.{target.id}"] = getattr(module, target.id)
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^  \| `(\w+\.\w+)` \| ([^|]+) \|", readme, re.MULTILINE)
    assert {name: float(value) for name, value in rows} == defined
    assert len(rows) == len(defined)
