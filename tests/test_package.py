"""The package's names: each submodule is reachable as the attribute of its name."""

import importlib
import pkgutil
import sys

import useqmine


def test_no_package_attribute_shadows_a_submodule():
    names = [info.name for info in pkgutil.iter_modules(useqmine.__path__)]
    assert "fuws" in names
    for name in names:
        importlib.import_module(f"useqmine.{name}")
        assert getattr(useqmine, name) is sys.modules[f"useqmine.{name}"], name
