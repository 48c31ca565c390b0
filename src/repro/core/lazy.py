"""Lazy re-exports for package ``__init__`` modules.

A package lists its public names in an ``_API`` table, each mapped to
the module that defines it, and installs the pair :func:`lazy_exports`
returns as its module ``__getattr__`` and ``__dir__``.  Importing the
package then loads none of those modules; the first access of a name
imports its module and caches the value in the package namespace, so
``from repro.obs import trace`` does not pay for ``repro.obs.metrics``.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping


def lazy_exports(package: str, table: Mapping[str, str]
                 ) -> tuple[Callable[[str], object], Callable[[], list]]:
    """``(__getattr__, __dir__)`` for ``package`` over ``table``.

    ``__dir__`` lists the package's ``__all__``.
    """
    def __getattr__(name: str) -> object:
        module_name = table.get(name)
        if module_name is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module_name), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list:
        return list(sys.modules[package].__all__)

    return __getattr__, __dir__
