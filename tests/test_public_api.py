import importlib
import pkgutil

import pytest

import sketchpower

_MODULES = ["sketchpower"] + [f"sketchpower.{m.name}" for m in pkgutil.iter_modules(sketchpower.__path__)]


@pytest.mark.parametrize("modname", _MODULES)
def test_every_exported_name_resolves(modname):
    mod = importlib.import_module(modname)
    exported = getattr(mod, "__all__", [])
    assert [name for name in exported if not hasattr(mod, name)] == []
    assert len(set(exported)) == len(exported)
