"""Lazy package facades: a package re-exports names without loading them.

A package ``__init__`` that only re-exports declares each name once, in
a table from the module that defines it to the names it exports::

    __all__, __getattr__, __dir__ = facade(__name__, {
        ".executor": ("run_fleet", "execute_shard"),
        "repro.obs.events": ("FleetEvent",),
    })

Keys are module names as :func:`importlib.import_module` takes them: a
leading dot is relative to the package.  Importing the package loads
none of them; the first read of a name imports its module (PEP 562).

The returned ``__getattr__`` stores nothing in the package's globals
(lint rule DET005), so every read through the facade repeats a
``sys.modules`` lookup.  Code that runs per operation imports from the
defining module instead.  A name that is also a submodule's name would be
shadowed by that submodule once it is imported, so no facade exports
one.

``repro.lint`` reads a facade table as the imports it stands for, so
its call graph follows a re-export to the definition.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping

__all__ = ["facade"]


def facade(package: str, table: Mapping[str, tuple[str, ...]]
           ) -> tuple[list[str], Callable[[str], Any],
                      Callable[[], list[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for ``package``."""
    origin = {name: module for module, names in table.items()
              for name in names}
    exports = [name for names in table.values() for name in names]
    if len(origin) != len(exports):
        raise ValueError(f"{package}: a name is exported twice")

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(module, package), name)

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *exports})

    return exports, __getattr__, __dir__
