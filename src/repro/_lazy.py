"""Package exports resolved on first read.

A package façade lists the public names it re-exports from its
submodules in one table; :func:`lazy_exports` turns that table into the
package's module-level ``__getattr__`` (PEP 562), which imports a name's
submodule the first time the name is read.  Importing the package then
loads only what its own code imports, so a sweep process never pays for
the pool, the figures or another app it does not run.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: dict[str, tuple[str, ...]]
) -> Callable[[str], Any]:
    """The ``__getattr__`` of ``package`` resolving ``table``'s names.

    ``table`` maps a submodule (relative to ``package``, e.g.
    ``".worker_pool"``) to the names read from it.  A resolved name is
    bound on the package, so each is imported once.
    """
    submodule_of = {name: sub for sub, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            submodule = submodule_of[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(submodule, package), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
