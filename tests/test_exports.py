"""Every name that the package or one of its modules exports exists."""
import importlib
import pkgutil

import pytest

import tscomplex

MODULES = ["tscomplex"] + [f"tscomplex.{m.name}"
                           for m in pkgutil.iter_modules(tscomplex.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names: {missing}"

