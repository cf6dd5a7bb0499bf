"""Every name that a ``scriptid`` module lists in ``__all__`` exists, so
a deleted function cannot stay listed as an export."""

import importlib
import pkgutil

import pytest

import scriptid

MODULES = ["scriptid"] + sorted(f"scriptid.{m.name}" for m in pkgutil.iter_modules(scriptid.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
