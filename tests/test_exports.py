"""Every exported name resolves: deleting a function without dropping
it from an ``__all__`` fails here."""

from __future__ import annotations

import importlib
import pkgutil

import contrail


def test_every_exported_name_resolves():
    modules = [contrail] + [
        importlib.import_module(f"contrail.{info.name}") for info in pkgutil.iter_modules(contrail.__path__)
    ]
    assert len(modules) > 10
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []
    assert all(hasattr(module, "__all__") for module in modules)
