"""Lazy public names for package ``__init__`` modules (PEP 562).

A package declares which module defines each of its public names, and
the name is imported on first attribute access, then cached in the
package namespace.  ``import repro.cli`` therefore loads only the
modules a command touches: a fully cached ``experiment`` never imports
the simulation side, which loads on the first cache miss.

Usage, in a package's ``__init__.py``::

    from repro._lazy import lazy_exports

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "repro.pkg.module": ["PublicClass", "public_function"],
        "repro.pkg.submodule": ["submodule"],   # the submodule itself
    })
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for *package*.

    *exports* maps each defining module to the public names it provides.
    A name equal to the last component of its module (``"experiments"``
    under ``"repro.harness.experiments"``) re-exports that module itself.
    """
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        try:
            module_name = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module = importlib.import_module(module_name)
        value = module if module_name == f"{package}.{name}" else getattr(module, name)
        setattr(sys.modules[package], name, value)  # later lookups skip this hook
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__, list(where)
