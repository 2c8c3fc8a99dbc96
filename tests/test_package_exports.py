"""Every name a ``repro`` package re-exports resolves.

A deletion that leaves an ``__all__`` entry pointing at nothing fails
here instead of when a user imports the package.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg)


@pytest.mark.parametrize("package", PACKAGES)
def test_package_reexports_everything(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__
               if not hasattr(module, name)]
    assert missing == []
