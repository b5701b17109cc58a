"""Lazy package exports (PEP 562): a subsystem ``__init__.py`` is a
table of ``{"Name": ".submodule"}``, never an import block, so a
process imports what it runs and not its package's neighbours::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "Monitor": ".monitor",
        "RTMServer": ".server",
    })
"""

import sys
from importlib import import_module


def lazy_exports(package, exports):
    """``(__getattr__, __dir__, __all__)`` for *package*: each name in
    *exports* is imported from its submodule on first access and then
    kept in the package's globals, so ``__getattr__`` runs once a name."""
    namespace = sys.modules[package].__dict__

    def __getattr__(name):
        if name not in exports:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(exports[name], package), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__, sorted(exports)
