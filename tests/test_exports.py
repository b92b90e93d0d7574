"""Every name a module exports resolves, so a deletion leaves no stale entry."""

import importlib
import pkgutil

import pytest

import nadek

MODULES = ["nadek"] + [f"nadek.{m.name}" for m in pkgutil.iter_modules(nadek.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)
