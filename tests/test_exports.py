import importlib
import pkgutil

import pytest

import lagns

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(lagns.__path__)
    if not info.name.startswith("_")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name deleted from a module but left in its __all__ breaks
    # `from lagns.<module> import *` only when someone tries it
    module = importlib.import_module(f"lagns.{name}")
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []
