"""The package namespace re-exports every public submodule's ``__all__``.

A name listed in a submodule's ``__all__`` but missing from ``sampledkf`` is
either dead or undocumented; either way this guard fails on it.  The
converse guard holds every name ``sampledkf`` exports to the ``__all__`` of
the module that defines it.
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


def test_every_exported_name_is_listed_where_it_is_defined():
    unlisted = []
    for attr in sk.__all__:
        if attr == "__version__":
            continue
        module = importlib.import_module(getattr(sk, attr).__module__)
        if attr not in getattr(module, "__all__", ()):
            unlisted.append(f"{module.__name__}.{attr}")
    assert not unlisted, f"exported but not in __all__: {unlisted}"
