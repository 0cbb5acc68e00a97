"""Lazy package exports (PEP 562).

Every ``repro`` package ``__init__`` names the submodule that defines
each of its public names and resolves the name on first access, so
``import repro.serving`` runs no submodule and a command loads only the
modules it uses (the import rule in DESIGN.md).
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of a lazy package.

    Args:
        package: The package's ``__name__``.
        exports: Submodule path relative to ``package`` → the public
            names it defines.

    The returned ``__getattr__`` imports a known name's submodule once
    and caches the name in the package namespace; an unknown name raises
    :class:`AttributeError` and imports nothing, so probing every loaded
    module with ``getattr(module, name, None)`` stays side-effect free.
    """
    owners = {
        name: f"{package}.{module}"
        for module, names in exports.items()
        for name in names
    }

    def __getattr__(name: str) -> object:
        owner = owners.get(name)
        if owner is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(owner), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | owners.keys())

    return __getattr__, __dir__
