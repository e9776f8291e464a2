"""The package namespace re-exports every public submodule's ``__all__``.

A name listed in a submodule's ``__all__`` but missing from ``sampledkf`` is
either dead or undocumented; either way this guard fails on it.
"""

import importlib
import pkgutil

import pytest

import sampledkf as sk

PUBLIC = sorted(info.name for info in pkgutil.iter_modules(sk.__path__)
                if not info.name.startswith("_"))


@pytest.mark.parametrize("name", PUBLIC)
def test_every_listed_name_is_exported(name):
    module = importlib.import_module(f"sampledkf.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"sampledkf.{name}.{attr} does not resolve"
        assert attr in sk.__all__, f"sampledkf.{name}.{attr} is not re-exported"
        assert getattr(sk, attr) is getattr(module, attr)
